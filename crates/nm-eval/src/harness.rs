//! Leave-one-out ranking evaluation harness.

use crate::metrics;
use nm_data::negative::EvalCandidates;

/// A model-agnostic scorer: given parallel `(user, item)` arrays, return
/// an affinity score per pair. Implemented by every model in
/// `nm-models` and `nmcdr-core` via their frozen embeddings.
pub trait Scorer {
    fn score(&self, users: &[u32], items: &[u32]) -> Vec<f32>;
}

impl<F> Scorer for F
where
    F: Fn(&[u32], &[u32]) -> Vec<f32>,
{
    fn score(&self, users: &[u32], items: &[u32]) -> Vec<f32> {
        self(users, items)
    }
}

/// Total order for ranked `(item, score)` pairs: score descending, then
/// item id ascending. Breaking score ties by id makes every ranking in
/// the workspace — offline audits here and the serving engine's top-K
/// heap — deterministic and mutually comparable.
///
/// A NaN score ranks after every number (NaNs tie among themselves and
/// fall back to the id), so sorting, selecting and heap-bounding a pool
/// that holds NaNs all see one consistent order. Numbers compare by
/// `partial_cmp`, so `-0.0` and `0.0` still tie.
pub fn rank_order(a: &(u32, f32), b: &(u32, f32)) -> std::cmp::Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or_else(|| a.1.is_nan().cmp(&b.1.is_nan()))
        .then_with(|| a.0.cmp(&b.0))
}

/// A `u64` whose ascending order is [`rank_order`]: the high half ranks
/// the score (descending, NaN after every number, `-0.0` equal to
/// `0.0`), the low half is the item id. Sorting or selecting by this key
/// gives exactly the list `rank_order` gives, with one integer compare
/// per comparison instead of a float compare and its NaN fallbacks.
#[inline]
pub fn rank_key(&(item, score): &(u32, f32)) -> u64 {
    // Both zeros take the bits of `0.0`, so they tie.
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    // Flip negatives wholesale and set the sign of positives: unsigned
    // order of `asc` is the numeric order of the score.
    let asc = if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    // No number maps to `u32::MAX` (only an all-ones NaN would).
    let desc = if score.is_nan() { u32::MAX } else { !asc };
    (u64::from(desc) << 32) | u64::from(item)
}

/// The top `k` of `(item, score)` pairs under [`rank_order`], sorted
/// best-first. NaN scores rank last rather than poisoning the order.
pub fn top_k(pairs: &[(u32, f32)], k: usize) -> Vec<(u32, f32)> {
    let mut v = pairs.to_vec();
    v.sort_by(rank_order);
    v.truncate(k);
    v
}

/// Aggregated leave-one-out ranking results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingSummary {
    /// Mean HR@k over test users (percentage points 0–100).
    pub hr: f64,
    /// Mean NDCG@k over test users (percentage points 0–100).
    pub ndcg: f64,
    /// Mean reciprocal rank (0–1).
    pub mrr: f64,
    /// Mean AUC (0–1).
    pub auc: f64,
    /// Number of evaluated users.
    pub n_users: usize,
}

impl RankingSummary {
    /// An empty summary (no test users).
    pub fn empty() -> Self {
        Self {
            hr: 0.0,
            ndcg: 0.0,
            mrr: 0.0,
            auc: 0.0,
            n_users: 0,
        }
    }
}

/// Scores every candidate list with `scorer` and averages HR@k / NDCG@k
/// / MRR / AUC. Batch-scores one user's candidates at a time (the lists
/// are only 200 long).
pub fn evaluate_ranking(
    scorer: &dyn Scorer,
    candidates: &[EvalCandidates],
    k: usize,
) -> RankingSummary {
    if candidates.is_empty() {
        return RankingSummary::empty();
    }
    let (mut hr, mut ndcg, mut mrr, mut auc) = (0.0, 0.0, 0.0, 0.0);
    for c in candidates {
        let users = vec![c.user; c.items.len()];
        let scores = scorer.score(&users, &c.items);
        assert_eq!(
            scores.len(),
            c.items.len(),
            "scorer returned {} scores for {} items",
            scores.len(),
            c.items.len()
        );
        hr += metrics::hit_rate_at(&scores, k);
        ndcg += metrics::ndcg_at(&scores, k);
        mrr += metrics::mrr(&scores);
        auc += metrics::auc(&scores);
    }
    let n = candidates.len() as f64;
    RankingSummary {
        hr: 100.0 * hr / n,
        ndcg: 100.0 * ndcg / n,
        mrr: mrr / n,
        auc: auc / n,
        n_users: candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidates() -> Vec<EvalCandidates> {
        vec![
            EvalCandidates {
                user: 0,
                items: vec![5, 1, 2, 3],
            },
            EvalCandidates {
                user: 1,
                items: vec![7, 8, 9, 10],
            },
        ]
    }

    #[test]
    fn oracle_scorer_gets_perfect_metrics() {
        // scores item 5 and 7 (the positives) highest
        let scorer = |_u: &[u32], items: &[u32]| -> Vec<f32> {
            items
                .iter()
                .map(|&i| if i == 5 || i == 7 { 1.0 } else { 0.0 })
                .collect()
        };
        let s = evaluate_ranking(&scorer, &candidates(), 10);
        assert_eq!(s.hr, 100.0);
        assert_eq!(s.ndcg, 100.0);
        assert_eq!(s.mrr, 1.0);
        assert_eq!(s.auc, 1.0);
        assert_eq!(s.n_users, 2);
    }

    #[test]
    fn adversarial_scorer_gets_zero_ndcg_at_1() {
        let scorer = |_u: &[u32], items: &[u32]| -> Vec<f32> {
            items
                .iter()
                .map(|&i| if i == 5 || i == 7 { -1.0 } else { 1.0 })
                .collect()
        };
        let s = evaluate_ranking(&scorer, &candidates(), 1);
        assert_eq!(s.hr, 0.0);
        assert_eq!(s.auc, 0.0);
    }

    #[test]
    fn random_scorer_hr_near_k_over_n() {
        // With 200 candidates and k=10, a random scorer hits ~5%.
        let cands: Vec<EvalCandidates> = (0..400)
            .map(|u| EvalCandidates {
                user: u,
                items: (0..200).map(|i| (u * 200 + i) % 1000).collect(),
            })
            .collect();
        let scorer = |users: &[u32], items: &[u32]| -> Vec<f32> {
            users
                .iter()
                .zip(items)
                .map(|(&u, &i)| {
                    // deterministic pseudo-random hash
                    let h = (u.wrapping_mul(2654435761)).wrapping_add(i.wrapping_mul(40503));
                    (h % 10007) as f32
                })
                .collect()
        };
        let s = evaluate_ranking(&scorer, &cands, 10);
        assert!(s.hr > 1.5 && s.hr < 10.0, "random HR@10 was {}", s.hr);
        assert!((s.auc - 0.5).abs() < 0.08, "random AUC was {}", s.auc);
    }

    #[test]
    fn empty_candidates_give_empty_summary() {
        let scorer = |_: &[u32], items: &[u32]| vec![0.0; items.len()];
        let s = evaluate_ranking(&scorer, &[], 10);
        assert_eq!(s.n_users, 0);
    }

    #[test]
    fn top_k_breaks_ties_by_item_id() {
        let pairs = vec![(9, 1.0), (2, 2.0), (7, 1.0), (1, 1.0), (5, 0.5)];
        let top = top_k(&pairs, 4);
        assert_eq!(top, vec![(2, 2.0), (1, 1.0), (7, 1.0), (9, 1.0)]);
    }

    #[test]
    fn top_k_handles_nan_and_short_input() {
        let pairs = vec![(3, f32::NAN), (1, 1.0), (2, f32::NAN)];
        let top = top_k(&pairs, 10);
        assert_eq!(top.len(), 3);
        // the finite score first, then both NaNs by id
        assert_eq!(top[0], (1, 1.0));
        assert_eq!((top[1].0, top[2].0), (2, 3));
        assert!(top[1].1.is_nan() && top[2].1.is_nan());
    }

    #[test]
    fn rank_key_orders_exactly_like_rank_order() {
        let scores = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-45,
            -1e-45,
            0.0,
            -0.0,
            0.3,
            -0.3,
            1.0,
            -1.0,
        ];
        let pairs: Vec<(u32, f32)> = (0..3u32)
            .flat_map(|id| scores.iter().map(move |&s| (id, s)))
            .collect();
        for a in &pairs {
            for b in &pairs {
                assert_eq!(
                    rank_key(a).cmp(&rank_key(b)),
                    rank_order(a, b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn rank_order_is_total_and_deterministic() {
        let mut a = vec![(4, 0.3), (2, 0.3), (9, 0.9), (1, 0.3)];
        let mut b = a.clone();
        b.reverse(); // different starting permutation, same final order
        a.sort_by(rank_order);
        b.sort_by(rank_order);
        assert_eq!(a, b);
        assert_eq!(a[0].0, 9);
        assert_eq!(&a[1..], &[(1, 0.3), (2, 0.3), (4, 0.3)]);
    }
}
