//! # nm-eval
//!
//! Evaluation machinery for the NMCDR reproduction:
//!
//! * [`metrics`] — HR@K, NDCG@K, MRR, AUC for leave-one-out ranking
//!   (1 positive vs. N sampled negatives, the paper's §III-A-2);
//! * [`harness`] — drives a scorer over [`nm_data::negative::EvalCandidates`]
//!   and aggregates per-user metrics;
//! * [`projection`] — PCA 2-D projection plus head/tail
//!   cluster-separation statistics (the quantitative stand-in for the
//!   paper's t-SNE Fig. 5 — see DESIGN.md);
//! * [`abtest`] — a simulated online serving environment with hidden
//!   ground-truth conversion probabilities, reproducing the shape of the
//!   paper's online A/B test (Tables VII–VIII).

pub mod abtest;
pub mod harness;
pub mod metrics;
pub mod projection;

pub use harness::{evaluate_ranking, rank_key, rank_order, top_k, RankingSummary, Scorer};
pub use metrics::{auc, hit_rate_at, mrr, ndcg_at, rank_of_first};
