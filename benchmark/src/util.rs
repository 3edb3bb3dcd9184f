//! Shared helpers: the metric table, output checks, quantiles, process
//! memory, and the machine fingerprint.

use nm_obs::clock::Stopwatch;
use nm_obs::json::Json;
use std::collections::BTreeMap;

/// Metric name → (value, unit), in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.0.insert(name.to_string(), (value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, (v, u))| {
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(*v)),
                        ("unit".into(), Json::Str(u.clone())),
                    ]);
                    (k.clone(), entry)
                })
                .collect(),
        )
    }

    pub fn from_json(j: &Json) -> Result<Metrics, String> {
        let mut m = Metrics::default();
        for (k, e) in j.as_obj().ok_or("metrics must be an object")? {
            let v = e.get("value").and_then(Json::as_f64);
            let u = e.get("unit").and_then(Json::as_str);
            match (v, u) {
                (Some(v), Some(u)) => m.set(k, v, u),
                _ => return Err(format!("metric '{k}' needs a numeric value and a unit")),
            }
        }
        Ok(m)
    }
}

/// Output-check verdicts plus the operation counters behind the
/// `attempted` / `failed` fields of the result line. A failed check
/// counts as one failed operation.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub verdicts: Vec<(String, bool, String)>,
}

impl Checks {
    /// Records one checked operation's verdict without a report line.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a named check (one operation) with a report line.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.op(ok);
        self.verdicts.push((name.to_string(), ok, detail.into()));
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "checks".into(),
                Json::Arr(
                    self.verdicts
                        .iter()
                        .map(|(n, ok, d)| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(n.clone())),
                                ("ok".into(), Json::Bool(*ok)),
                                ("detail".into(), Json::Str(d.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Checks, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("missing '{k}'"))
        };
        let mut c = Checks {
            attempted: num("attempted")?,
            failed: num("failed")?,
            verdicts: Vec::new(),
        };
        for v in j.get("checks").and_then(Json::as_arr).unwrap_or(&[]) {
            c.verdicts.push((
                v.get("name").and_then(Json::as_str).unwrap_or("?").into(),
                v.get("ok").and_then(Json::as_bool).unwrap_or(false),
                v.get("detail").and_then(Json::as_str).unwrap_or("").into(),
            ));
        }
        Ok(c)
    }
}

/// Quantile of a sample by linear interpolation between closest ranks.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The end-to-end tail: each block's p95 (a block is one trainer call,
/// one `run_stream` call or one connection's requests), then the median
/// over blocks, so one burst of interference on a shared host moves one
/// block and not the figure.
pub fn block_p95(blocks: &[Vec<f64>]) -> f64 {
    let tails: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| quantile(b, 0.95))
        .collect();
    median(&tails)
}

/// Runs `f` up to `n` times, stopping early once a second has been
/// spent, and returns the median wall time in ms with the last result.
pub fn time_median_ms<R>(n: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    let total = Stopwatch::start();
    while times.len() < n.max(1) && (times.is_empty() || total.elapsed_secs() < 1.0) {
        let sw = Stopwatch::start();
        last = Some(std::hint::black_box(f()));
        times.push(ms(&sw));
    }
    (median(&times), last.expect("ran at least once"))
}

/// Elapsed milliseconds of a stopwatch, at microsecond resolution.
pub fn ms(sw: &Stopwatch) -> f64 {
    sw.elapsed_us() as f64 / 1e3
}

/// A working directory for this process under `.bench_work/`.
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Total `dur_us` per span name over trace lines.
pub fn span_totals_us(lines: &[String]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for l in lines {
        let Ok(v) = Json::parse(l) else { continue };
        if v.get("t").and_then(Json::as_str) != Some("span") {
            continue;
        }
        if let (Some(name), Some(d)) = (
            v.get("name").and_then(Json::as_str),
            v.get("dur_us").and_then(Json::as_u64),
        ) {
            *out.entry(name.to_string()).or_insert(0) += d;
        }
    }
    out
}

/// Peak resident set size (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where and on what this result was measured: numbers are only
/// comparable between runs with the same fingerprint.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let peaks = nm_obs::profile::cached_peaks();
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(rustc)),
        ("peak_gflops".into(), Json::Num(peaks.gflops)),
        ("peak_gbps".into(), Json::Num(peaks.gbps)),
    ])
}
