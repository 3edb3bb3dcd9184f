//! Minimal std-only timing harness for the `benches/` targets.
//!
//! The workspace builds fully offline, so the bench binaries use this
//! instead of criterion: warm-up + calibration pass, then a fixed
//! wall-clock budget. Per-iteration samples are kept so the report
//! carries tail quantiles (p50/p99) alongside mean/min, and every
//! result is appended as one line of JSON to `results/bench.jsonl` so
//! BENCH_* trajectories can be compared across PRs.

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Opaque value sink preventing the optimizer from deleting the work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Formats a per-iteration duration in adaptive units.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// One bench's measured distribution (per-iteration seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    pub name: String,
    pub iters: u64,
    pub mean_s: f64,
    pub min_s: f64,
    pub p50_s: f64,
    pub p99_s: f64,
}

impl BenchResult {
    /// Machine-readable line for `results/bench.jsonl`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"bench\":{},\"iters\":{},\"mean_s\":{:.9},\"min_s\":{:.9},\"p50_s\":{:.9},\"p99_s\":{:.9}}}",
            nm_obs::json::escape(&self.name),
            self.iters,
            self.mean_s,
            self.min_s,
            self.p50_s,
            self.p99_s
        )
    }
}

/// Exact sample quantile (nearest-rank on the sorted samples).
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Times `f` and returns the full distribution: ~200 ms of
/// warm-up/calibration, then ~800 ms of measured iterations with every
/// per-iteration sample recorded.
pub fn bench_stats<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    let cal = Instant::now();
    let mut cal_iters = 0u64;
    while cal.elapsed() < Duration::from_millis(200) {
        black_box(f());
        cal_iters += 1;
    }
    let per = cal.elapsed().as_secs_f64() / cal_iters as f64;
    let iters = ((0.8 / per) as u64).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64());
    }
    let total: f64 = samples.iter().sum();
    let mut sorted = samples;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    BenchResult {
        name: name.to_string(),
        iters,
        mean_s: total / iters as f64,
        min_s: sorted[0],
        p50_s: quantile(&sorted, 0.50),
        p99_s: quantile(&sorted, 0.99),
    }
}

/// Times `f`, prints one aligned report line, and appends the result to
/// `results/bench.jsonl` (disable the append with `NMCDR_BENCH_JSONL=0`).
pub fn bench<T>(name: &str, f: impl FnMut() -> T) {
    let r = bench_stats(name, f);
    println!(
        "{name:<44} mean {:>12}  p50 {:>12}  p99 {:>12}  min {:>12}  ({} iters)",
        fmt_secs(r.mean_s),
        fmt_secs(r.p50_s),
        fmt_secs(r.p99_s),
        fmt_secs(r.min_s),
        r.iters
    );
    if std::env::var("NMCDR_BENCH_JSONL").as_deref() != Ok("0") {
        append_jsonl(&r);
    }
}

/// Appends one result line to `results/bench.jsonl` at the repo root.
/// Best-effort: benches must not fail because the results dir is
/// read-only.
fn append_jsonl(r: &BenchResult) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = format!("{dir}/bench.jsonl");
    if let Ok(mut fh) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(fh, "{}", r.to_json_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_units() {
        assert!(fmt_secs(2.0).ends_with(" s"));
        assert!(fmt_secs(2e-3).ends_with(" ms"));
        assert!(fmt_secs(2e-6).ends_with(" us"));
        assert!(fmt_secs(2e-9).ends_with(" ns"));
    }

    #[test]
    fn bench_stats_orders_quantiles() {
        let mut n = 0u64;
        let r = bench_stats("noop", || {
            n += 1;
            n
        });
        assert!(n > 0);
        assert!(r.iters > 0);
        assert!(r.min_s <= r.p50_s);
        assert!(r.p50_s <= r.p99_s);
        assert!(r.min_s <= r.mean_s);
        let line = r.to_json_line();
        assert!(line.starts_with("{\"bench\":\"noop\""));
        assert!(line.contains("\"p99_s\":"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn quantile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 2.0);
        assert_eq!(quantile(&s, 0.99), 4.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
