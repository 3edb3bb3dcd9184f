//! The NMCDR benchmark: entry point and pass orchestration.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <train-nmcdr|serve-topk|stream-online> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every measured pass runs in a child process of its own (the same
//! executable with `--child plain|traced`), so `peak_rss_mb` and the
//! process-global tracer belong to that pass alone. `--trace 0` runs
//! the untraced pass and prints the end-to-end metrics; `--trace 1`
//! runs the untraced pass, then the traced one, and prints the
//! per-layer metrics. The last stdout line is the result object.

mod probe;
mod serve;
mod stream;
mod train;
mod util;

use nm_obs::json::Json;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use util::{Checks, Metrics};

const WORKLOADS: [&str; 3] = ["train-nmcdr", "serve-topk", "stream-online"];

/// Printed with `--trace 0`; see README.md for what each means on
/// each workload.
const END_TO_END: [&str; 5] = ["setup_s", "peak_rss_mb", "op_ms", "tail_ms", "rate_per_s"];

/// Printed with `--trace 1`, on every workload.
const PER_LAYER: &[&str] = &[
    "data.generate_ms",
    "models.task_build_ms",
    "core.model_new_ms",
    "graph.resample_ms",
    "core.forward_ms",
    "core.encoder_ms",
    "core.intra_ms",
    "core.inter_ms",
    "core.complement_ms",
    "core.heads_ms",
    "autograd.backward_ms",
    "nn.absorb_ms",
    "optim.step_ms",
    "train.traced_step_ms",
    "train.step_coverage_frac",
    "models.encode_state_ms",
    "eval.ranking_ms",
    "autograd.op.matmul.fwd_ms",
    "autograd.op.matmul.bwd_ms",
    "autograd.op.spmm.fwd_ms",
    "autograd.op.spmm.bwd_ms",
    "autograd.op.mul.fwd_ms",
    "autograd.op.mul.bwd_ms",
    "autograd.op.rowwise_dot.fwd_ms",
    "autograd.op.rowwise_dot.bwd_ms",
    "autograd.op.gather_rows.fwd_ms",
    "autograd.op.gather_rows.bwd_ms",
    "autograd.matmul_gflops",
    "autograd.gflop_per_step",
    "tensor.alloc_mb_per_step",
    "tensor.peak_live_mb",
    "core.export_ms",
    "snapshot.save_ms",
    "snapshot.load_ms",
    "engine.new_ms",
    "engine.reload_ms",
    "engine.topk_p50_ms",
    "engine.topk_p99_ms",
    "engine.fanout_ms",
    "engine.merge_ms",
    "engine.coalesce_wait_ms",
    "engine.coalesced_frac",
    "head.score_ns_per_item",
    "wire.p50_ms",
    "wire.overhead_ms",
    "protocol.parse_us",
    "protocol.encode_us",
    "stream.train_ms",
    "stream.eval_ms",
    "source.generate_round_ms",
    "models.checkpoint_write_ms",
    "obs.trace_overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |k: &str| {
        argv.iter()
            .position(|a| a == k)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = get("--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let arg = |k: &str, default: &str| get(k).unwrap_or_else(|| default.to_string());
    Ok(Args {
        workload,
        seed: arg("--seed", "1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: arg("--seconds", "10")
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match arg("--trace", "0").as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not '{t}'")),
        },
        child: get("--child"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child.as_deref() {
        Some(mode) => child(&args, mode),
        None => parent(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measured pass in this process; prints its result as one line.
fn child(args: &Args, mode: &str) -> Result<(), String> {
    let (mut m, checks) = match mode {
        "plain" => match args.workload.as_str() {
            "train-nmcdr" => train::run(args.seed, args.seconds),
            "serve-topk" => serve::run(args.seed, args.seconds)?,
            _ => stream::run(args.seed, args.seconds),
        },
        "traced" => traced(args)?,
        other => return Err(format!("unknown child mode '{other}'")),
    };
    m.set("peak_rss_mb", util::peak_rss_mb(), "MB");
    let line = Json::Obj(vec![
        ("metrics".into(), m.to_json()),
        ("result".into(), checks.to_json()),
    ]);
    println!("{}", line.encode());
    Ok(())
}

/// The traced pass: the workload's own traced path, then the layer
/// probe, all under one in-memory tracer whose lines are written to
/// `.bench_work/` at the end.
fn traced(args: &Args) -> Result<(Metrics, Checks), String> {
    let sink = Arc::new(nm_obs::MemorySink::new());
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    nm_obs::trace::scoped(sink.clone(), || -> Result<(), String> {
        match args.workload.as_str() {
            "train-nmcdr" => {
                let (b, mut model) = train::traced(args.seed, &mut m, &mut checks);
                probe::probe(&b, &mut model, None, &sink, &mut m, &mut checks)
            }
            "serve-topk" => {
                let (b, mut model, s) =
                    serve::traced(args.seed, args.seconds, &mut m, &mut checks)?;
                let live = probe::Live {
                    snap: &s.snap,
                    engine: &s.engine,
                };
                probe::probe(&b, &mut model, Some(live), &sink, &mut m, &mut checks)
            }
            _ => {
                let b = stream::traced(args.seed, &sink, &mut m, &mut checks);
                let mut model = b.model();
                probe::probe(&b, &mut model, None, &sink, &mut m, &mut checks)
            }
        }
    })?;
    let dir = std::path::Path::new(".bench_work");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let _ = std::fs::write(&path, sink.lines().join("\n") + "\n");
    Ok((m, checks))
}

/// Runs one pass in a child process and parses its result line.
fn run_child(args: &Args, mode: &str) -> Result<(Metrics, Checks), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--child", mode])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {mode} pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {mode} pass failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or(format!("the {mode} pass printed nothing"))?;
    let v = Json::parse(last)?;
    let m = Metrics::from_json(v.get("metrics").ok_or("no metrics")?)?;
    let c = Checks::from_json(v.get("result").ok_or("no result")?)?;
    Ok((m, c))
}

fn parent(args: &Args) -> Result<(), String> {
    println!("fingerprint {}", util::fingerprint().encode());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (plain, mut checks) = run_child(args, "plain")?;
    let (shown, names): (Metrics, Vec<&str>) = if args.trace {
        let (mut traced, tc) = run_child(args, "traced")?;
        checks.attempted += tc.attempted;
        checks.failed += tc.failed;
        let traced_verdicts = tc
            .verdicts
            .into_iter()
            .map(|(n, ok, d)| (format!("traced.{n}"), ok, d));
        checks.verdicts.extend(traced_verdicts);
        let (t, u) = (traced.get("op_ms"), plain.get("op_ms"));
        if let (Some(t), Some(u)) = (t, u) {
            traced.set("obs.trace_overhead_frac", t / u - 1.0, "frac");
        }
        (traced, PER_LAYER.to_vec())
    } else {
        (plain.clone(), END_TO_END.to_vec())
    };

    for (name, (v, unit)) in &plain.0 {
        println!("untraced {name:<34} {v:>14.4} {unit}");
    }
    if args.trace {
        for name in &names {
            if let Some((v, unit)) = shown.0.get(*name) {
                println!("layer    {name:<34} {v:>14.4} {unit}");
            }
        }
        let get = |n: &str| shown.get(n).unwrap_or(f64::NAN);
        println!(
            "wire     engine.topk_p50_ms {:.4} ms + wire.overhead_ms {:.4} ms = wire.p50_ms {:.4} ms",
            get("engine.topk_p50_ms"),
            get("wire.overhead_ms"),
            get("wire.p50_ms")
        );
    }
    for (name, ok, detail) in &checks.verdicts {
        println!(
            "check    {name:<44} {} {detail}",
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    let mut out = Vec::new();
    for name in &names {
        let Some((v, unit)) = shown.0.get(*name).filter(|(v, _)| v.is_finite()) else {
            return Err(format!("metric '{name}' was not measured"));
        };
        out.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(*v)),
                ("unit".into(), Json::Str(unit.clone())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.failed == 0)),
        (
            "attempted".into(),
            Json::Num(checks.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(checks.failed as f64)),
        ("metrics".into(), Json::Obj(out)),
    ]);
    println!("{}", result.encode());
    Ok(())
}
