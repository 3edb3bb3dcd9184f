//! `stream-online`: `nm_stream::run_stream` with `NmcdrModel` on
//! Cloth-Sport — per round a delta fine-tune and a ranking eval, every
//! 2nd round a publish (export, save, load, parity check, reload).

use crate::train::{input_sets, Built, Clocked};
use crate::util::{block_p95, median, mix, span_totals_us, work_dir, Checks, Metrics};
use nm_data::Scenario;
use nm_obs::clock::Stopwatch;
use nm_stream::{run_stream, Decision, SourceConfig, StreamConfig, StreamReport};
use nmcdr_core::NmcdrModel;
use std::path::Path;

pub const ROUNDS: usize = 12;
/// Distinct input sets per run (sub-seeds of the workload seed).
const INPUT_SETS: usize = 3;
/// Calls per input set at least.
const MIN_PASSES: usize = 3;

pub fn stream_config(
    seed: u64,
    out_dir: &Path,
    rounds: usize,
    publish_every: usize,
) -> StreamConfig {
    StreamConfig {
        rounds,
        publish_every,
        probe_k: 10,
        source: SourceConfig {
            seed,
            ..SourceConfig::default()
        },
        engine: nm_serve::EngineConfig {
            n_workers: 2,
            ..Default::default()
        },
        ..StreamConfig::new(out_dir.to_path_buf())
    }
}

pub struct CallResult {
    pub wall_s: f64,
    pub report: Option<StreamReport>,
    pub intervals_ms: Vec<f64>,
}

/// One `run_stream` call on a fresh model, in a fresh, empty output
/// directory that is deleted afterwards (a reused directory would make
/// `run_stream` resume or verify instead of train).
pub fn stream_call(
    b: &Built,
    model: NmcdrModel,
    rounds: usize,
    publish_every: usize,
    checks: &mut Checks,
) -> CallResult {
    let dir = work_dir("stream");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = stream_config(b.profile.seed, &dir, rounds, publish_every);
    let mut model = Clocked::new(model);
    let sw = Stopwatch::start();
    let report = run_stream(&mut model, &b.train_config(), &cfg);
    let wall_s = sw.elapsed_secs();
    let _ = std::fs::remove_dir_all(&dir);
    let report = match report {
        Ok(r) => {
            let ok = !r.halted
                && r.rounds_trained == rounds
                && r.parity_checks == r.publishes + r.rollbacks + 1;
            checks.op(ok);
            Some(r)
        }
        Err(e) => {
            checks.check("stream.error", false, e.to_string());
            None
        }
    };
    CallResult {
        wall_s,
        report,
        intervals_ms: model.intervals_ms(),
    }
}

fn decisions(r: &CallResult) -> Option<&[Decision]> {
    r.report.as_ref().map(|r| r.decisions.as_slice())
}

/// The untraced measurement: `run_stream` calls cycling over the input
/// sets until `seconds` have passed, every set at least `MIN_PASSES`
/// times (so the decisions of two runs on the same inputs can be
/// compared, and the median has enough calls behind it).
pub fn run(seed: u64, seconds: f64) -> (Metrics, Checks) {
    let (sets, setups) = input_sets(seed, INPUT_SETS);
    let mut checks = Checks::default();
    let mut calls: Vec<CallResult> = Vec::new();
    let window = Stopwatch::start();
    let mut i = 0;
    while i < MIN_PASSES * sets.len() || window.elapsed_secs() < seconds {
        let b = &sets[i % sets.len()];
        let r = stream_call(b, b.model(), ROUNDS, 2, &mut checks);
        if i >= sets.len() {
            checks
                .op(decisions(&calls[i % sets.len()]) == decisions(&r) && decisions(&r).is_some());
        }
        calls.push(r);
        i += 1;
    }
    let round_ms: Vec<f64> = calls
        .iter()
        .map(|c| c.wall_s * 1e3 / ROUNDS as f64)
        .collect();
    let busy_s: f64 = calls.iter().map(|c| c.wall_s).sum();
    let (publishes, rollbacks) = calls
        .iter()
        .filter_map(|c| c.report.as_ref())
        .fold((0, 0), |a, r| (a.0 + r.publishes, a.1 + r.rollbacks));
    checks.check(
        "stream.no_halt_parity_decisions_repeat",
        checks.failed == 0,
        format!(
            "{} run_stream calls, {publishes} publishes, {rollbacks} rollbacks, {} failed ops",
            calls.len(),
            checks.failed
        ),
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups) / 1e3, "s");
    m.set("op_ms", median(&round_ms), "ms");
    let blocks: Vec<Vec<f64>> = calls.iter().map(|c| c.intervals_ms.clone()).collect();
    m.set("tail_ms", block_p95(&blocks), "ms");
    m.set("rate_per_s", (calls.len() * ROUNDS) as f64 / busy_s, "1/s");
    m.set("stream.round_ms", median(&round_ms), "ms");
    m.set("stream.calls", calls.len() as f64, "count");
    (m, checks)
}

/// Traces `stream_call` and reads the trainer's own `train.epoch` and
/// `train.eval` spans from the trace: per-round train and eval time.
pub fn traced_call(
    b: &Built,
    model: NmcdrModel,
    rounds: usize,
    publish_every: usize,
    sink: &nm_obs::MemorySink,
    m: &mut Metrics,
    checks: &mut Checks,
) -> CallResult {
    let before = sink.lines().len();
    let r = stream_call(b, model, rounds, publish_every, checks);
    let spans = span_totals_us(&sink.lines()[before..]);
    let per_round = |name: &str| spans.get(name).copied().unwrap_or(0) as f64 / 1e3 / rounds as f64;
    m.set("stream.train_ms", per_round("train.epoch"), "ms");
    m.set("stream.eval_ms", per_round("train.eval"), "ms");
    r
}

/// The traced pass: one `run_stream` call under the caller's tracer.
/// Returns the input set for the layer probe.
pub fn traced(seed: u64, sink: &nm_obs::MemorySink, m: &mut Metrics, checks: &mut Checks) -> Built {
    let (b, model) = Built::new(Scenario::ClothSport, 0.008, mix(seed, 0));
    let r = traced_call(&b, model, ROUNDS, 2, sink, m, checks);
    m.set("op_ms", r.wall_s * 1e3 / ROUNDS as f64, "ms");
    checks.check(
        "stream.traced_run_ok",
        r.report.as_ref().is_some_and(|r| !r.halted),
        format!("{:.1} ms per round traced", r.wall_s * 1e3 / ROUNDS as f64),
    );
    b
}
