//! `serve-topk`: a closed loop of `CONNS` TCP connections sending
//! `{"op":"topk","k":500}` to an in-process `nm_serve::Server` over an
//! untrained NMCDR snapshot of Music-Movie at scale 0.37 (real Eq. 20
//! MLP head). Also the in-process engine replay and the wire probe the
//! other workloads' traced runs reuse.

use crate::train::Built;
use crate::util::{
    block_p95, median, mix, ms, quantile, time_median_ms, work_dir, Checks, Metrics,
};
use nm_data::Scenario;
use nm_eval::harness::rank_order;
use nm_obs::clock::Stopwatch;
use nm_obs::json::Json;
use nm_serve::{Engine, EngineConfig, FrozenModel, Server, ServerConfig, Snapshot};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

pub const K: usize = 500;
/// Closed-loop callers: the core count of the reference host.
pub const CONNS: usize = 2;
/// Requests per connection before a caller reconnects.
const REQS_PER_CONN: usize = 25;
/// Enough requests that ten lie beyond the p99 of a run.
pub const MIN_REQUESTS: usize = 1000;
/// Requests of the traced pass: its medians need fewer samples.
const TRACED_REQUESTS: usize = 300;
/// Every `CHECK_EVERY`-th reply is compared with the offline ranking.
const CHECK_EVERY: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub fn engine_config() -> EngineConfig {
    EngineConfig {
        n_workers: 2,
        cache_capacity: 0,
        ..Default::default()
    }
}

/// The request sequence: distinct `(user, domain)` pairs, alternating
/// domains, users in a seeded order.
pub fn requests(snap: &Snapshot, seed: u64) -> Vec<(u32, usize)> {
    let perm = |d: usize| {
        let mut v: Vec<u32> = (0..snap.n_users(d) as u32).collect();
        for i in (1..v.len()).rev() {
            let j = (mix(seed ^ d as u64, i as u64) % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    };
    let (a, b) = (perm(0), perm(1));
    let n = a.len().min(b.len());
    (0..2 * n)
        .map(|j| {
            if j % 2 == 0 {
                (a[j / 2], 0)
            } else {
                (b[j / 2], 1)
            }
        })
        .collect()
}

/// The offline reference answer: every item scored by
/// `Snapshot::score_pairs`, ordered by `rank_order`, first `k` kept.
pub fn reference_topk(snap: &Snapshot, user: u32, domain: usize, k: usize) -> Vec<(u32, f32)> {
    let n = snap.n_items(domain);
    let items: Vec<u32> = (0..n as u32).collect();
    let scores = snap.score_pairs(domain, &vec![user; n], &items);
    let mut pairs: Vec<(u32, f32)> = items.into_iter().zip(scores).collect();
    pairs.sort_by(rank_order);
    pairs.truncate(k);
    pairs
}

/// A running server over a snapshot, plus the set-up times.
pub struct Serving {
    pub snap: Snapshot,
    pub engine: Arc<Engine>,
    pub server: Server,
    pub times: Metrics,
}

/// Exports, saves, loads and serves `model`'s snapshot; times each.
pub fn serve_model(model: &mut dyn FrozenModel, dir: &Path) -> Result<Serving, String> {
    let mut t = Metrics::default();
    let sw = Stopwatch::start();
    let exported = model.export_frozen();
    t.set("core.export_ms", ms(&sw), "ms");
    let path = dir.join("serve.nmss");
    let sw = Stopwatch::start();
    exported.save_to_file(&path).map_err(|e| e.to_string())?;
    t.set("snapshot.save_ms", ms(&sw), "ms");
    let sw = Stopwatch::start();
    let snap = Snapshot::load_from_file(&path).map_err(|e| e.to_string())?;
    t.set("snapshot.load_ms", ms(&sw), "ms");
    let _ = std::fs::remove_file(&path);
    let sw = Stopwatch::start();
    let engine = Arc::new(Engine::new(snap.clone(), engine_config()).map_err(|e| e.to_string())?);
    t.set("engine.new_ms", ms(&sw), "ms");
    let server = Server::start(engine.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(Serving {
        snap,
        engine,
        server,
        times: t,
    })
}

/// One full serve set-up; returns it with its wall time in seconds.
fn setup_once(seed: u64, dir: &Path) -> Result<(Serving, f64), String> {
    let sw = Stopwatch::start();
    let (_, mut model) = Built::new(Scenario::MusicMovie, 0.37, seed);
    let s = serve_model(&mut model, dir)?;
    Ok((s, sw.elapsed_secs()))
}

/// Outcome of a closed-loop run.
pub struct LoopResult {
    pub lat_ms: Vec<f64>,
    /// Latencies per connection.
    pub blocks: Vec<Vec<f64>>,
    pub window_s: f64,
    pub replies: Vec<(usize, String)>,
    pub io_errors: usize,
}

/// Closed loop over TCP: `CONNS` callers, each sending its next
/// request only after the previous reply arrived, until `seconds` have
/// passed and at least `min_requests` completed. Every request frame is
/// one `write` on a `TCP_NODELAY` socket, after a seeded think time
/// (`think_time`). Each caller opens a fresh connection every
/// `REQS_PER_CONN` requests (outside the timed part): a connection's
/// delayed-ACK state persists, so without reconnects one early draw of
/// that state would decide a whole run's latency.
pub fn tcp_loop(
    addr: std::net::SocketAddr,
    reqs: &[(u32, usize)],
    seconds: f64,
    min_requests: usize,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let out = Mutex::new((Vec::new(), Vec::new(), 0usize));
    let window = Stopwatch::start();
    let connect = || -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        let r = BufReader::new(w.try_clone()?);
        Ok((w, r))
    };
    std::thread::scope(|s| {
        for _ in 0..CONNS {
            s.spawn(|| {
                let mut blocks: Vec<Vec<f64>> = Vec::new();
                let mut replies = Vec::new();
                let mut errors = 0;
                'conns: loop {
                    let Ok((mut w, mut r)) = connect() else {
                        errors += 1;
                        break;
                    };
                    blocks.push(Vec::new());
                    let lat = blocks.last_mut().expect("just pushed");
                    for _ in 0..REQS_PER_CONN {
                        let enough = done.load(Ordering::Relaxed) >= min_requests;
                        if enough && window.elapsed_secs() >= seconds {
                            break 'conns;
                        }
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(user, domain)) = reqs.get(j) else {
                            break 'conns;
                        };
                        let frame = format!(
                            "{{\"op\":\"topk\",\"user\":{user},\"domain\":{domain},\"k\":{K}}}\n"
                        );
                        std::thread::sleep(think_time(j));
                        let mut line = String::new();
                        let sw = Stopwatch::start();
                        let ok = w.write_all(frame.as_bytes()).is_ok()
                            && r.read_line(&mut line).is_ok_and(|n| n > 0);
                        lat.push(ms(&sw));
                        done.fetch_add(1, Ordering::Relaxed);
                        if !ok {
                            errors += 1;
                            break 'conns;
                        }
                        replies.push((j, line));
                    }
                }
                let mut o = out.lock().expect("result lock");
                o.0.extend(blocks);
                o.1.extend(replies);
                o.2 += errors;
            });
        }
    });
    let window_s = window.elapsed_secs();
    let (blocks, mut replies, io_errors) = out.into_inner().expect("result lock");
    replies.sort_by_key(|(j, _)| *j);
    LoopResult {
        lat_ms: blocks.concat(),
        blocks,
        window_s,
        replies,
        io_errors,
    }
}

/// Think time before request `j`, uniform in [0, `TICK_US`): without
/// it each request is sent right after the previous reply, which the
/// server's delayed-ACK wait releases on a kernel timer tick, so
/// latencies lock to whole ticks and the median jumps a tick at a time.
fn think_time(j: usize) -> std::time::Duration {
    std::time::Duration::from_micros(mix(0x7417, j as u64) % TICK_US)
}

/// One kernel timer tick (HZ = 250) of the reference host.
const TICK_US: u64 = 4000;

/// Checks every reply (ok, not degraded, exactly `k` items) and every
/// `CHECK_EVERY`-th one against the offline reference, bit for bit.
pub fn check_replies(
    snap: &Snapshot,
    reqs: &[(u32, usize)],
    res: &LoopResult,
    checks: &mut Checks,
) {
    let mut bad = 0;
    let mut compared = 0;
    for (j, line) in &res.replies {
        let (user, domain) = reqs[*j];
        let k = K.min(snap.n_items(domain));
        let ok = Json::parse(line.trim()).ok().is_some_and(|v| {
            let items = v.get("items").and_then(Json::as_arr).unwrap_or(&[]);
            let scores = v.get("scores").and_then(Json::as_arr).unwrap_or(&[]);
            let shape = v.get("ok").and_then(Json::as_bool) == Some(true)
                && v.get("degraded").is_none()
                && items.len() == k
                && scores.len() == k;
            if !shape || j % CHECK_EVERY != 0 {
                return shape;
            }
            compared += 1;
            let want = reference_topk(snap, user, domain, k);
            want.iter()
                .zip(items.iter().zip(scores))
                .all(|(&(wi, ws), (i, s))| {
                    i.as_u64() == Some(wi as u64)
                        && s.as_f64().map(|x| (x as f32).to_bits()) == Some(ws.to_bits())
                })
        });
        checks.op(ok);
        bad += usize::from(!ok);
    }
    for _ in 0..res.io_errors {
        checks.op(false);
    }
    checks.check(
        "serve.replies_ok_k_items_match_reference",
        bad == 0 && res.io_errors == 0,
        format!(
            "{} replies, {bad} bad, {} I/O errors, {compared} compared with the offline ranking",
            res.replies.len(),
            res.io_errors
        ),
    );
}

/// The untraced measurement.
pub fn run(seed: u64, seconds: f64) -> Result<(Metrics, Checks), String> {
    let dir = work_dir("serve");
    let mut setups = Vec::new();
    let mut serving = None;
    for _ in 0..SETUPS {
        drop(serving.take());
        let (s, secs) = setup_once(seed, &dir)?;
        setups.push(secs);
        serving = Some(s);
    }
    let mut s = serving.expect("at least one set-up");
    let reqs = requests(&s.snap, seed);
    let res = tcp_loop(s.server.local_addr(), &reqs, seconds, MIN_REQUESTS);
    s.server.stop();
    let mut checks = Checks::default();
    check_replies(&s.snap, &reqs, &res, &mut checks);
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups), "s");
    m.set("op_ms", median(&res.lat_ms), "ms");
    m.set("tail_ms", block_p95(&res.blocks), "ms");
    m.set("rate_per_s", res.lat_ms.len() as f64 / res.window_s, "1/s");
    m.set("serve.p50_ms", median(&res.lat_ms), "ms");
    m.set("serve.rps", res.lat_ms.len() as f64 / res.window_s, "1/s");
    m.set("serve.requests", res.lat_ms.len() as f64, "count");
    for q in [10, 25, 75, 90, 95, 99] {
        m.set(
            &format!("serve.p{q}_ms"),
            quantile(&res.lat_ms, q as f64 / 100.0),
            "ms",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((m, checks))
}

/// In-process replay of `reqs` through `Engine::topk_traced` with the
/// same number of closed-loop callers; writes the engine metrics.
pub fn engine_replay(engine: &Engine, reqs: &[(u32, usize)], m: &mut Metrics) {
    let stats = engine.stats();
    let (req0, coal0) = (stats.requests.get(), stats.coalesced.get());
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CONNS {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let j = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(user, domain)) = reqs.get(j) else {
                        break;
                    };
                    let sw = Stopwatch::start();
                    let (_, t) = engine.topk_traced(domain, user, K);
                    local.push((ms(&sw), t));
                }
                out.lock().expect("replay lock").extend(local);
            });
        }
    });
    let rows = out.into_inner().expect("replay lock");
    let col = |f: fn(&nm_serve::ReqTiming) -> u64| {
        rows.iter()
            .map(|(_, t)| f(t) as f64 / 1e3)
            .collect::<Vec<_>>()
    };
    let total: Vec<f64> = rows.iter().map(|(l, _)| *l).collect();
    m.set("engine.topk_p50_ms", median(&total), "ms");
    m.set("engine.topk_p99_ms", quantile(&total, 0.99), "ms");
    m.set("engine.fanout_ms", median(&col(|t| t.fanout_us)), "ms");
    m.set("engine.merge_ms", median(&col(|t| t.merge_us)), "ms");
    m.set(
        "engine.coalesce_wait_ms",
        quantile(&col(|t| t.coalesce_us), 0.99),
        "ms",
    );
    let served = (stats.requests.get() - req0).max(1);
    m.set(
        "engine.coalesced_frac",
        (stats.coalesced.get() - coal0) as f64 / served as f64,
        "frac",
    );
}

/// Single-thread head cost and the wire-protocol codec, on `snap`.
pub fn head_and_protocol(snap: &Snapshot, m: &mut Metrics) {
    let n = snap.n_items(0);
    let mut buf = vec![0.0f32; n];
    let (t, _) = time_median_ms(5, || snap.score_user_range(0, 0, 0, n, &mut buf));
    m.set("head.score_ns_per_item", t * 1e6 / n as f64, "ns");
    const REPS: usize = 2000;
    let frame = format!("{{\"op\":\"topk\",\"user\":7,\"domain\":\"a\",\"k\":{K}}}");
    let (t, _) = time_median_ms(5, || {
        for _ in 0..REPS {
            std::hint::black_box(
                nm_serve::protocol::parse_request(std::hint::black_box(&frame)).is_ok(),
            );
        }
    });
    m.set("protocol.parse_us", t * 1e3 / REPS as f64, "us");
    let list = reference_topk(snap, 0, 0, K.min(n));
    const ENC: usize = 50;
    let (t, _) = time_median_ms(5, || {
        for _ in 0..ENC {
            std::hint::black_box(
                nm_serve::protocol::encode_topk_response(0, 0, false, &list).len(),
            );
        }
    });
    m.set("protocol.encode_us", t * 1e3 / ENC as f64, "us");
}

/// The traced pass (the caller installs the tracer): set up once,
/// timing each layer, then the TCP loop, then the in-process engine replay of the same
/// requests. Returns the serving state for the layer probe.
pub fn traced(
    seed: u64,
    seconds: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(Built, nmcdr_core::NmcdrModel, Serving), String> {
    let dir = work_dir("serve-traced");
    let (built, mut model) = Built::new(Scenario::MusicMovie, 0.37, seed);
    let mut s = serve_model(&mut model, &dir)?;
    let _ = std::fs::remove_dir_all(&dir);
    for (k, (v, u)) in &s.times.0 {
        m.set(k, *v, u);
    }
    let reqs = requests(&s.snap, seed);
    let res = tcp_loop(s.server.local_addr(), &reqs, seconds, TRACED_REQUESTS);
    s.server.stop();
    check_replies(&s.snap, &reqs, &res, checks);
    m.set("op_ms", median(&res.lat_ms), "ms");
    m.set("wire.p50_ms", median(&res.lat_ms), "ms");
    engine_replay(&s.engine, &reqs[..res.lat_ms.len()], m);
    Ok((built, model, s))
}
