//! The CI perf-regression gate behind `nmcdr bench`.
//!
//! A fixed, named metric suite is measured the same way on every run:
//!
//! * `serve.p50_us` / `serve.p99_us` — request latency of a synthetic
//!   top-K workload against an uncached [`nm_serve::Engine`];
//! * `serve.merge_self_us` — mean self time of the top-K merge stage,
//!   from the engine's own [`nm_serve::ReqTiming`] instrumentation;
//! * `train.steps_per_sec` — optimization throughput of a small fixed
//!   BPR training run;
//! * `train.forward_self_us` — mean per-step forward time from the
//!   epoch telemetry captured by the tracing layer;
//! * `obs.overhead_ns` — per-probe cost of a *disabled* trace span.
//!   The observability contract is that uninstalled instrumentation
//!   costs one relaxed atomic load; this metric gates creep.
//! * `profile.overhead_ns` — per-op cost of the *disabled* kernel
//!   profiler (`nm_autograd::profile`). Same contract as the tracer:
//!   with profiling off, every instrumented tape op pays one relaxed
//!   atomic load and nothing else.
//!
//! `--record` writes the suite to a named baseline JSON
//! (`results/BENCH_baseline.json` by default — machine-dependent, so
//! never committed); `--compare` re-measures and fails on a
//! noise-aware regression: each metric is judged by an
//! [`nm_obs::gate::Gate`] with its own relative tolerance *and*
//! absolute floor, and the suite is measured [`RUNS`] times with the
//! per-metric median taken, so one descheduled run cannot fail CI.
//! Every measurement is appended to `results/BENCH_trajectory.jsonl`
//! for trend inspection.
//!
//! The gate is self-testing, with regressions planted from outside the
//! program. `scripts/ci.sh` compares a fresh run against a copy of a
//! fresh baseline with every metric moved 4× in its good direction and
//! requires that compare to fail. The unit test
//! `planted_merge_regression_is_caught_by_the_gate` asks the serve suite
//! for the whole 16 384-item catalog instead of the top 500, so the
//! real merge fully sorts each candidate pool instead of selecting
//! from it, and requires `serve.merge_self_us` to regress.

use crate::timing::quantile;
use crate::ExpProfile;
use nm_data::Scenario;
use nm_models::train_joint;
use nm_obs::clock::Stopwatch;
use nm_obs::gate::{Gate, Verdict};
use nm_obs::json::Json;
use nm_obs::trace::MemorySink;
use nm_serve::{DomainSnapshot, Engine, EngineConfig, HeadKind, Snapshot};
use nm_tensor::{Tensor, TensorRng};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// One gated metric: identity, direction, and noise thresholds.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub gate: Gate,
}

/// A [`MetricDef`] from one table row: name, unit, whether lower is
/// better, relative tolerance, absolute floor (in `unit`).
const fn metric(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    rel_tol: f64,
    abs_floor: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        gate: Gate {
            lower_is_better,
            rel_tol,
            abs_floor,
        },
    }
}

/// The gated suite. Order is the report order.
pub const METRICS: &[MetricDef] = &[
    metric("serve.p50_us", "us", true, 0.50, 400.0),
    metric("serve.p99_us", "us", true, 0.75, 1_000.0),
    metric("serve.merge_self_us", "us", true, 0.45, 200.0),
    metric("train.steps_per_sec", "steps/s", false, 0.35, 2.0),
    metric("train.forward_self_us", "us", true, 0.50, 300.0),
    metric("obs.overhead_ns", "ns", true, 1.00, 50.0),
    metric("profile.overhead_ns", "ns", true, 1.00, 50.0),
];

/// A measured suite: metric name → value.
pub type Measurements = BTreeMap<String, f64>;

fn serve_snapshot(seed: u64) -> Snapshot {
    let mut rng = TensorRng::seed_from(seed);
    let mk = |rng: &mut TensorRng| DomainSnapshot {
        users: Tensor::randn(64, 16, 1.0, rng),
        items: Tensor::randn(16_384, 16, 1.0, rng),
        head: HeadKind::Dot,
    };
    Snapshot {
        model: "bench".into(),
        domains: [mk(&mut rng), mk(&mut rng)],
    }
}

/// Serve-side metrics: a fixed top-`k` workload against an uncached
/// engine over a 16 384-item catalog per domain.
fn serve_metrics(out: &mut Measurements, k: usize) -> Result<(), String> {
    let engine = Engine::new(
        serve_snapshot(17),
        EngineConfig {
            n_workers: 2,
            shard_items: 256,
            cache_capacity: 0,
            ..Default::default()
        },
    )
    .map_err(|e| format!("bench serve engine: {e}"))?;
    const REQUESTS: usize = 48;
    const WARMUP: usize = 4;
    let mut totals = Vec::with_capacity(REQUESTS);
    let mut merges = Vec::with_capacity(REQUESTS);
    for i in 0..WARMUP + REQUESTS {
        let user = (i % 64) as u32;
        let domain = i % 2;
        let sw = Stopwatch::start();
        let (_, t) = engine.topk_traced(domain, user, k);
        if i >= WARMUP {
            totals.push(sw.elapsed_us() as f64);
            merges.push(t.merge_us as f64);
        }
    }
    totals.sort_by(|a, b| a.total_cmp(b));
    out.insert("serve.p50_us".into(), quantile(&totals, 0.50));
    out.insert("serve.p99_us".into(), quantile(&totals, 0.99));
    let merge_mean = merges.iter().sum::<f64>() / merges.len().max(1) as f64;
    out.insert("serve.merge_self_us".into(), merge_mean);
    Ok(())
}

/// Train-side metrics: a fixed small BPR run, traced so the epoch
/// telemetry (per-stage self time) is captured.
fn train_metrics(out: &mut Measurements) -> Result<(), String> {
    let profile = ExpProfile {
        scale: 0.004,
        dim: 8,
        epochs: 2,
        batch_size: 256,
        match_neighbors: 16,
        eval_negatives: 20,
        ..Default::default()
    };
    let task = profile.task(profile.dataset(Scenario::MusicMovie));
    let mut model = crate::ModelKind::Bpr.build(task, &profile);
    let sink = Arc::new(MemorySink::new());
    let stats = nm_obs::trace::scoped(sink, || train_joint(&mut *model, &profile.train_config()))
        .map_err(|e| format!("bench train run: {e}"))?;
    let steps_per_sec = if stats.secs_per_step > 0.0 {
        1.0 / stats.secs_per_step
    } else {
        0.0
    };
    out.insert("train.steps_per_sec".into(), steps_per_sec);
    let (mut forward_us, mut steps) = (0u64, 0u64);
    for log in &stats.logs {
        if let Some(t) = &log.telemetry {
            forward_us += t.forward_us;
            steps += t.steps;
        }
    }
    let forward_self = forward_us as f64 / steps.max(1) as f64;
    out.insert("train.forward_self_us".into(), forward_self);
    Ok(())
}

/// Per-probe cost of a disabled trace span, in nanoseconds. No sink is
/// installed on this thread, so every probe takes the early-out path:
/// one relaxed atomic load plus call overhead.
pub fn disabled_probe_ns() -> f64 {
    const N: u64 = 1_000_000;
    for _ in 0..10_000 {
        let _g = nm_obs::trace::span(std::hint::black_box("bench.probe"));
    }
    let sw = Stopwatch::start();
    for _ in 0..N {
        let _g = nm_obs::trace::span(std::hint::black_box("bench.probe"));
    }
    sw.elapsed_us() as f64 * 1000.0 / N as f64
}

/// Per-probe cost of the kernel profiler's disabled path, in
/// nanoseconds. Profiling is off (the process default), so every probe
/// takes `op_start`'s early-out: one relaxed atomic load.
pub fn profile_disabled_probe_ns() -> f64 {
    const N: u64 = 1_000_000;
    for _ in 0..10_000 {
        std::hint::black_box(nm_autograd::profile::disabled_probe());
    }
    let sw = Stopwatch::start();
    for _ in 0..N {
        std::hint::black_box(nm_autograd::profile::disabled_probe());
    }
    sw.elapsed_us() as f64 * 1000.0 / N as f64
}

fn obs_metrics(out: &mut Measurements) {
    out.insert("obs.overhead_ns".into(), disabled_probe_ns());
    out.insert("profile.overhead_ns".into(), profile_disabled_probe_ns());
}

fn measure_once() -> Result<Measurements, String> {
    let mut out = Measurements::new();
    serve_metrics(&mut out, 500)?;
    train_metrics(&mut out)?;
    obs_metrics(&mut out);
    Ok(out)
}

/// Whole-suite repeats per measurement.
pub const RUNS: usize = 3;

/// Measures the whole suite [`RUNS`] times and takes the per-metric
/// median — whole-suite repeats, so a load spike hitting one repeat
/// skews every metric of that repeat and the median drops all of it.
pub fn measure() -> Result<Measurements, String> {
    let repeats: Vec<Measurements> = (0..RUNS)
        .map(|_| measure_once())
        .collect::<Result<_, _>>()?;
    let mut merged = Measurements::new();
    for def in METRICS {
        let mut vals: Vec<f64> = repeats
            .iter()
            .filter_map(|m| m.get(def.name).copied())
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        if !vals.is_empty() {
            merged.insert(def.name.into(), vals[vals.len() / 2]);
        }
    }
    Ok(merged)
}

fn metrics_json(m: &Measurements) -> Json {
    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
}

/// Serializes a baseline file: `{"version":1,"metrics":{...}}`.
pub fn render_baseline(m: &Measurements) -> String {
    Json::Obj(vec![
        ("version".into(), Json::Num(1.0)),
        ("metrics".into(), metrics_json(m)),
    ])
    .encode()
}

/// Parses a baseline file produced by [`render_baseline`].
pub fn parse_baseline(text: &str) -> Result<Measurements, String> {
    let v = Json::parse(text.trim())?;
    match v.get("version").and_then(Json::as_u64) {
        Some(1) => {}
        Some(other) => return Err(format!("unsupported baseline version {other}")),
        None => return Err("baseline missing numeric 'version'".into()),
    }
    let metrics = v
        .get("metrics")
        .ok_or("baseline missing 'metrics'")?
        .as_obj()
        .ok_or("'metrics' must be an object")?;
    let mut out = Measurements::new();
    for (k, j) in metrics {
        let val = j
            .as_f64()
            .ok_or_else(|| format!("metric '{k}' must be a number"))?;
        out.insert(k.clone(), val);
    }
    Ok(out)
}

pub fn write_baseline(path: &Path, m: &Measurements) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_baseline(m) + "\n")
}

pub fn read_baseline(path: &Path) -> Result<Measurements, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    parse_baseline(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends this measurement to the `BENCH_trajectory.jsonl` history
/// (same opt-out as the criterion benches: `NMCDR_BENCH_JSONL=0`).
pub fn append_trajectory(m: &Measurements, label: &str) {
    if std::env::var("NMCDR_BENCH_JSONL").as_deref() == Ok("0") {
        return;
    }
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let line = Json::Obj(vec![
        ("kind".into(), Json::Str("bench_regress".into())),
        ("label".into(), Json::Str(label.into())),
        ("metrics".into(), metrics_json(m)),
    ])
    .encode();
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("BENCH_trajectory.jsonl"))
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Judges a measurement against a baseline, each metric under its own
/// gate. Metrics missing from the baseline are skipped (they were
/// added after the baseline was recorded) — re-record to gate them.
pub fn compare(
    current: &Measurements,
    baseline: &Measurements,
) -> Vec<(&'static MetricDef, Verdict)> {
    METRICS
        .iter()
        .filter_map(|def| {
            let (cur, base) = (current.get(def.name)?, baseline.get(def.name)?);
            Some((def, def.gate.judge(*base, *cur)))
        })
        .collect()
}

pub fn any_regression(verdicts: &[(&MetricDef, Verdict)]) -> bool {
    verdicts.iter().any(|(_, v)| v.regressed)
}

/// Renders the compare outcome as an aligned report table.
pub fn render_report(verdicts: &[(&MetricDef, Verdict)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22}  {:>12}  {:>12}  {:>8}  verdict",
        "metric", "baseline", "current", "change"
    );
    for (def, v) in verdicts {
        let verdict = if v.regressed {
            "REGRESSED".to_string()
        } else {
            format!("ok (tol {:.0}%)", def.gate.rel_tol * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<22}  {:>10.1}{}  {:>10.1}{}  {:>+7.1}%  {}",
            def.name,
            v.baseline,
            def.unit,
            v.current,
            def.unit,
            v.worse_frac * 100.0,
            verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, f64)]) -> Measurements {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let base = m(&[("serve.p50_us", 123.5), ("train.steps_per_sec", 88.25)]);
        let text = render_baseline(&base);
        assert!(text.starts_with("{\"version\":1"));
        assert_eq!(parse_baseline(&text).unwrap(), base);
        assert!(parse_baseline("{\"metrics\":{}}").is_err());
        assert!(parse_baseline("{\"version\":2,\"metrics\":{}}").is_err());
        assert!(parse_baseline("{\"version\":1,\"metrics\":{\"x\":\"no\"}}").is_err());
    }

    #[test]
    fn compare_judges_each_metric_under_its_own_gate() {
        let base = m(&[
            ("serve.merge_self_us", 1_000.0),
            ("train.steps_per_sec", 100.0),
        ]);
        // merge: +80% and +800us past 45% and 200us; steps/s: +80% is
        // an improvement; p99: no baseline, so skipped
        let cur = m(&[
            ("serve.merge_self_us", 1_800.0),
            ("train.steps_per_sec", 180.0),
            ("serve.p99_us", 1e9),
        ]);
        let v = compare(&cur, &base);
        assert_eq!(v.len(), 2);
        assert!(any_regression(&v));
        let report = render_report(&v);
        assert!(report.contains("REGRESSED"), "{report}");
        assert!(report.contains("ok (tol 35%)"), "{report}");
    }

    #[test]
    fn disabled_probe_stays_near_a_relaxed_load() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let probe = disabled_probe_ns();
        // Reference cost: a bare relaxed atomic load in the same loop
        // shape, so the bound scales with the machine instead of being
        // an absolute number that flakes on slow CI hosts.
        let a = AtomicU64::new(1);
        const N: u64 = 1_000_000;
        let sw = Stopwatch::start();
        let mut acc = 0u64;
        for _ in 0..N {
            acc = acc.wrapping_add(std::hint::black_box(&a).load(Ordering::Relaxed));
        }
        std::hint::black_box(acc);
        let load_ns = (sw.elapsed_us() as f64 * 1000.0 / N as f64).max(0.1);
        // Debug builds don't inline the probe, so the multiple is loose
        // there; release asserts the real contract.
        let limit = if cfg!(debug_assertions) {
            (200.0 * load_ns).max(2_000.0)
        } else {
            (25.0 * load_ns).max(250.0)
        };
        assert!(
            probe < limit,
            "disabled trace probe costs {probe:.1}ns, limit {limit:.1}ns \
             (relaxed load: {load_ns:.2}ns) — the disabled path must stay \
             within a small multiple of one relaxed atomic load"
        );
    }

    #[test]
    fn disabled_profiler_probe_stays_near_a_relaxed_load() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Must measure the disabled path: the suite never leaves
        // profiling on, but be explicit in case a parallel test does.
        nm_autograd::profile::set_enabled(false);
        let probe = profile_disabled_probe_ns();
        // Same machine-scaled reference as the tracer bound above: a
        // bare relaxed load in the same loop shape.
        let a = AtomicU64::new(1);
        const N: u64 = 1_000_000;
        let sw = Stopwatch::start();
        let mut acc = 0u64;
        for _ in 0..N {
            acc = acc.wrapping_add(std::hint::black_box(&a).load(Ordering::Relaxed));
        }
        std::hint::black_box(acc);
        let load_ns = (sw.elapsed_us() as f64 * 1000.0 / N as f64).max(0.1);
        let limit = if cfg!(debug_assertions) {
            (200.0 * load_ns).max(2_000.0)
        } else {
            (25.0 * load_ns).max(250.0)
        };
        assert!(
            probe < limit,
            "disabled profiler probe costs {probe:.1}ns, limit {limit:.1}ns \
             (relaxed load: {load_ns:.2}ns) — with profiling off an \
             instrumented op must stay within a small multiple of one \
             relaxed atomic load"
        );
    }

    #[test]
    fn planted_merge_regression_is_caught_by_the_gate() {
        // Serve suite only (train metrics are too slow for a unit
        // test). Asking for the whole catalog instead of the top 500
        // makes the real merge fully sort every candidate pool instead
        // of selecting from it: a planted merge regression with no
        // knob in the engine.
        let (mut base, mut slow) = (Measurements::new(), Measurements::new());
        serve_metrics(&mut base, 500).expect("valid bench snapshot");
        serve_metrics(&mut slow, 16_384).expect("valid bench snapshot");
        let v = compare(&slow, &base);
        let report = render_report(&v);
        println!("{report}");
        let merge = v.iter().find(|(d, _)| d.name == "serve.merge_self_us");
        assert!(
            merge.is_some_and(|(_, v)| v.regressed),
            "a full sort of every pool must trip the merge gate:\n{report}"
        );
    }
}
