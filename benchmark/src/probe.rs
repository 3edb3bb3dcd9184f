//! The layer probe every traced run ends with: each named public call
//! timed from outside on the workload's own model, data and snapshot,
//! so every per-layer metric is reported on every workload. A metric
//! the workload's own traced pass already measured on its hot path is
//! kept, not re-measured.

use crate::serve::{
    check_replies, engine_replay, head_and_protocol, requests, serve_model, tcp_loop,
};
use crate::stream::traced_call;
use crate::train::{step_loop, Built};
use crate::util::{median, ms, time_median_ms, work_dir, Checks, Metrics};
use nm_models::resume::encode_state;
use nm_models::{evaluate_model, CdrModel, TrainerState};
use nm_obs::clock::{now_ns, Stopwatch};
use nm_serve::{Engine, Snapshot};
use nmcdr_core::NmcdrModel;

/// Training steps timed when the workload does not train.
const PROBE_STEPS: usize = 2;
/// Requests replayed in process / sent over the wire when the
/// workload does not serve.
const PROBE_REQUESTS: usize = 200;
/// Stream rounds run when the workload does not stream.
const PROBE_ROUNDS: usize = 2;
const REPS: usize = 3;

/// Serving state the workload already built, if any.
pub struct Live<'a> {
    pub snap: &'a Snapshot,
    pub engine: &'a Engine,
}

pub fn probe(
    b: &Built,
    model: &mut NmcdrModel,
    live: Option<Live<'_>>,
    sink: &nm_obs::MemorySink,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let has = |m: &Metrics, name: &str| m.get(name).is_some();
    m.set("data.generate_ms", b.generate_ms, "ms");
    m.set("models.task_build_ms", b.task_build_ms, "ms");
    m.set("core.model_new_ms", b.model_new_ms, "ms");
    let tc = b.train_config();

    if !has(m, "core.forward_ms") {
        let mut fresh = b.model();
        step_loop(&mut fresh, &tc, 1, Some(PROBE_STEPS)).report(m);
    }
    // Epoch numbers no run has used, so every call really resamples.
    let mut epoch = 1_000_000;
    let (t, _) = time_median_ms(REPS, || {
        epoch += 1;
        model.begin_epoch(epoch)
    });
    m.set("graph.resample_ms", t, "ms");

    let sw = Stopwatch::start();
    let (a, bb) = evaluate_model(model, tc.top_k);
    m.set("eval.ranking_ms", ms(&sw), "ms");
    checks.check(
        "probe.eval_finite",
        a.hr.is_finite() && bb.hr.is_finite(),
        format!("HR@10 {:.2} / {:.2}", a.hr, bb.hr),
    );

    let dir = work_dir("probe");
    let own = match live {
        Some(_) => None,
        None => Some(serve_model(model, &dir)?),
    };
    if let Some(s) = &own {
        for (k, (v, u)) in &s.times.0 {
            m.set(k, *v, u);
        }
    }
    let (snap, engine) = match (&live, &own) {
        (Some(l), _) => (l.snap, l.engine),
        (None, Some(s)) => (&s.snap, &*s.engine),
        (None, None) => unreachable!("one of the two is set"),
    };

    // A reload is a pointer swap: time it at nanosecond resolution.
    let mut reload_ms = Vec::new();
    for _ in 0..REPS {
        let copy = snap.clone();
        let t0 = now_ns();
        engine.reload(copy).map_err(|e| e.to_string())?;
        reload_ms.push((now_ns() - t0) as f64 / 1e6);
    }
    m.set("engine.reload_ms", median(&reload_ms), "ms");
    head_and_protocol(snap, m);

    let src = nm_stream::SourceConfig {
        seed: b.profile.seed,
        ..Default::default()
    };
    let mut round = 0;
    let (t, _) = time_median_ms(REPS, || {
        round += 1;
        nm_stream::generate_round(&src, snap, round).len()
    });
    m.set("source.generate_round_ms", t, "ms");

    let state = encode_state(
        model,
        &nm_optim::Adam::new(tc.lr),
        &TrainerState::fresh(&tc),
        &tc,
    )
    .map_err(|e| e.to_string())?;
    let path = dir.join("probe.nmck");
    let (t, w) = time_median_ms(REPS, || {
        nm_nn::checkpoint::atomic_write_bytes(&path, &state)
    });
    w.map_err(|e| e.to_string())?;
    m.set("models.checkpoint_write_ms", t, "ms");

    let reqs = requests(snap, b.profile.seed);
    if !has(m, "engine.topk_p50_ms") {
        engine_replay(engine, &reqs[..PROBE_REQUESTS.min(reqs.len())], m);
    }
    if let Some(s) = &own {
        let res = tcp_loop(s.server.local_addr(), &reqs, 0.0, PROBE_REQUESTS);
        check_replies(snap, &reqs, &res, checks);
        m.set("wire.p50_ms", median(&res.lat_ms), "ms");
    }
    if let (Some(w), Some(e)) = (m.get("wire.p50_ms"), m.get("engine.topk_p50_ms")) {
        m.set("wire.overhead_ms", w - e, "ms");
    }
    drop(own);

    if !has(m, "stream.train_ms") {
        let r = traced_call(b, b.model(), PROBE_ROUNDS, 1, sink, m, checks);
        checks.check(
            "probe.stream_ok",
            r.report.is_some_and(|r| !r.halted && r.publishes > 0),
            format!("{PROBE_ROUNDS} rounds, publishing every round"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
