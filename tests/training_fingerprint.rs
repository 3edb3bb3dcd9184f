//! Pins NMCDR's training bits across commits.
//!
//! Trains NMCDR for two epochs on a tiny Music-Movie task and hashes the
//! checkpoint it writes. The kernels under the tape (dense matmul, CSR
//! SpMM, the reverse sweep) may change how they compute, but never what:
//! every float must come out with the same bits, so the checkpoint bytes
//! and their FNV-1a-64 stay fixed. A kernel change that moves any bit of
//! any parameter, optimizer moment or logged loss fails here.

use nmcdr::core::{NmcdrConfig, NmcdrModel};
use nmcdr::data::generate::generate;
use nmcdr::data::Scenario;
use nmcdr::models::{train_joint_ft, CdrTask, FtConfig, TaskConfig, TrainConfig};
use nmcdr::nn::checkpoint::fnv1a64;

/// FNV-1a-64 of the checkpoint [`nmcdr_two_epoch_checkpoint_is_pinned`]
/// writes. Only a deliberate change to what training computes (model,
/// data generator, optimizer, checkpoint format) may move it.
const CHECKPOINT_FNV1A64: u64 = 0x08b0_b4e1_d6ac_560f;

#[test]
fn nmcdr_two_epoch_checkpoint_is_pinned() {
    let mut cfg = Scenario::MusicMovie.config(0.002);
    cfg.n_users_a = 120;
    cfg.n_users_b = 130;
    cfg.n_items_a = 60;
    cfg.n_items_b = 60;
    cfg.n_overlap = 40;
    let task = CdrTask::build(
        generate(&cfg),
        TaskConfig {
            eval_negatives: 50,
            ..Default::default()
        },
    );
    let mut model = NmcdrModel::new(
        task,
        NmcdrConfig {
            dim: 8,
            match_neighbors: 16,
            ..Default::default()
        },
    );
    let train = TrainConfig {
        epochs: 2,
        lr: 5e-3,
        batch_size: 256,
        seed: 3,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!("nm_fingerprint_{}.nmck", std::process::id()));
    let ft = FtConfig {
        checkpoint: Some(path.clone()),
        ..Default::default()
    };
    train_joint_ft(&mut model, &train, &ft).expect("training succeeds");
    let bytes = std::fs::read(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    let got = fnv1a64(&bytes);
    assert_eq!(
        got, CHECKPOINT_FNV1A64,
        "NMCDR training bits moved: checkpoint FNV-1a-64 {got:#018x}"
    );
}
