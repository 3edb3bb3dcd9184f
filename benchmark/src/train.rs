//! `train-nmcdr`: `train_joint` on `NmcdrModel`, Cloth-Sport, the
//! `ExpProfile` defaults — plus the traced step loop that splits a
//! training step into the calls `run_epoch` makes.

use crate::util::{block_p95, median, mix, ms, Checks, Metrics};
use nm_autograd::{OpAgg, Tape};
use nm_bench::{nmcdr_config, ExpProfile};
use nm_data::batch::Batch;
use nm_data::Scenario;
use nm_models::resume::encode_state;
use nm_models::{
    train_joint, BatchSource, CdrModel, CdrTask, Domain, SplitSource, TrainConfig, TrainerState,
};
use nm_nn::{Module, Param};
use nm_obs::clock::{now_ns, Stopwatch};
use nm_obs::trace;
use nm_optim::{clip_global_norm, Adam, Optimizer};
use nmcdr_core::{Ablation, NmcdrModel};
use std::cell::RefCell;
use std::rc::Rc;

/// Epochs per `train_joint` call (ROADMAP's reference configuration:
/// one epoch of NMCDR on Cloth-Sport).
pub const EPOCHS: usize = 1;
/// Builds per input set: a set-up of a few tens of ms is noisy, so
/// `setup_s` takes the median of several.
const SETUP_REPEATS: usize = 3;
/// HR@10 (%) of a random ranking of 1 positive among 100 candidates.
const CHANCE_HR10: f64 = 10.0;
/// Epochs of the traced step loop (and of its `train_joint` reference).
const TRACED_EPOCHS: usize = 3;
/// Distinct input sets (sub-seeds of the workload seed) per run; HR@10
/// is averaged over them so one draw of the data does not decide it.
const INPUT_SETS: usize = 4;

/// One set of inputs: profile, task and the set-up times that built it.
pub struct Built {
    pub profile: ExpProfile,
    pub task: Rc<CdrTask>,
    pub generate_ms: f64,
    pub task_build_ms: f64,
    pub model_new_ms: f64,
}

impl Built {
    /// Generates the dataset, builds the task and times a first
    /// `NmcdrModel::new` — everything a run does before its first
    /// timed operation.
    pub fn new(scenario: Scenario, scale: f64, seed: u64) -> (Built, NmcdrModel) {
        let profile = ExpProfile {
            scale,
            seed,
            epochs: EPOCHS,
            ..Default::default()
        };
        let sw = Stopwatch::start();
        let data = profile.dataset(scenario);
        let generate_ms = ms(&sw);
        let sw = Stopwatch::start();
        let task = profile.task(data);
        let task_build_ms = ms(&sw);
        let built = Built {
            profile,
            task,
            generate_ms,
            task_build_ms,
            model_new_ms: 0.0,
        };
        let sw = Stopwatch::start();
        let model = built.model();
        let model_new_ms = ms(&sw);
        (
            Built {
                model_new_ms,
                ..built
            },
            model,
        )
    }

    pub fn model(&self) -> NmcdrModel {
        NmcdrModel::new(
            self.task.clone(),
            nmcdr_config(&self.profile, Ablation::none()),
        )
    }

    pub fn setup_ms(&self) -> f64 {
        self.generate_ms + self.task_build_ms + self.model_new_ms
    }

    pub fn train_config(&self) -> TrainConfig {
        self.profile.train_config()
    }
}

/// Builds `n` Cloth-Sport input sets from sub-seeds of `seed`, each
/// `SETUP_REPEATS` times, keeping the last build. Returns them with the
/// set-up time of every build in ms (`setup_s` is their median).
pub fn input_sets(seed: u64, n: usize) -> (Vec<Built>, Vec<f64>) {
    let mut times = Vec::new();
    let sets = (0..n as u64)
        .map(|i| {
            let mut last = None;
            for _ in 0..SETUP_REPEATS {
                let (b, _) = Built::new(Scenario::ClothSport, 0.008, mix(seed, i));
                times.push(b.setup_ms());
                last = Some(b);
            }
            last.expect("SETUP_REPEATS > 0")
        })
        .collect();
    (sets, times)
}

/// Delegates every call to the wrapped model and stamps the clock at
/// each `loss` call, so the interval between consecutive optimizer
/// steps is seen from outside the trainer.
pub struct Clocked<M> {
    pub inner: M,
    stamps: RefCell<Vec<u64>>,
}

impl<M> Clocked<M> {
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            stamps: RefCell::new(Vec::new()),
        }
    }

    /// Intervals between consecutive `loss` calls, in ms.
    pub fn intervals_ms(&self) -> Vec<f64> {
        self.stamps
            .borrow()
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect()
    }
}

impl<M: Module> Module for Clocked<M> {
    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }
}

impl<M: CdrModel> CdrModel for Clocked<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn task(&self) -> &Rc<CdrTask> {
        self.inner.task()
    }

    fn loss(
        &self,
        tape: &mut Tape,
        batch_a: &Batch,
        batch_b: &Batch,
        step: u64,
    ) -> nm_autograd::Var {
        self.stamps.borrow_mut().push(now_ns());
        self.inner.loss(tape, batch_a, batch_b, step)
    }

    fn forward_logits(
        &self,
        tape: &mut Tape,
        domain: Domain,
        users: &[u32],
        items: &[u32],
    ) -> nm_autograd::Var {
        self.inner.forward_logits(tape, domain, users, items)
    }

    fn bce_for(&self, tape: &mut Tape, domain: Domain, batch: &Batch) -> nm_autograd::Var {
        self.inner.bce_for(tape, domain, batch)
    }

    fn begin_epoch(&mut self, epoch: usize) {
        self.inner.begin_epoch(epoch)
    }

    fn prepare_eval(&mut self) {
        self.inner.prepare_eval()
    }

    fn eval_scores(&self, domain: Domain, users: &[u32], items: &[u32]) -> Vec<f32> {
        self.inner.eval_scores(domain, users, items)
    }
}

impl<M: nm_serve::FrozenModel> nm_serve::FrozenModel for Clocked<M> {
    fn export_frozen(&mut self) -> nm_serve::Snapshot {
        self.inner.export_frozen()
    }
}

/// One `train_joint` call on a fresh model of input set `b`.
pub struct CallResult {
    pub step_ms: f64,
    pub wall_s: f64,
    pub steps: usize,
    pub hr10: f64,
    pub losses: Vec<u32>,
    pub intervals_ms: Vec<f64>,
}

pub fn train_call(b: &Built, checks: &mut Checks) -> CallResult {
    let mut model = Clocked::new(b.model());
    let tc = b.train_config();
    let sw = Stopwatch::start();
    let stats = train_joint(&mut model, &tc);
    let wall_s = sw.elapsed_secs();
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            checks.check("train.error", false, e.to_string());
            return CallResult {
                step_ms: f64::NAN,
                wall_s,
                steps: 0,
                hr10: f64::NAN,
                losses: Vec::new(),
                intervals_ms: Vec::new(),
            };
        }
    };
    let finite = stats.logs.iter().all(|l| l.mean_loss.is_finite());
    checks.op(finite && stats.rollbacks == 0 && stats.logs.len() == EPOCHS);
    let intervals_ms = model.intervals_ms();
    CallResult {
        step_ms: stats.secs_per_step * 1e3,
        wall_s,
        steps: intervals_ms.len() + 1,
        hr10: (stats.final_a.hr + stats.final_b.hr) / 2.0,
        losses: stats.logs.iter().map(|l| l.mean_loss.to_bits()).collect(),
        intervals_ms,
    }
}

/// The untraced measurement: `train_joint` calls cycling over the
/// input sets until `seconds` have passed (at least one per set).
pub fn run(seed: u64, seconds: f64) -> (Metrics, Checks) {
    let mut checks = Checks::default();
    let (sets, setups) = input_sets(seed, INPUT_SETS);
    let mut calls: Vec<CallResult> = Vec::new();
    let window = Stopwatch::start();
    let mut busy_s = 0.0;
    let mut i = 0;
    while i < sets.len() || window.elapsed_secs() < seconds {
        let r = train_call(&sets[i % sets.len()], &mut checks);
        busy_s += r.wall_s;
        if i >= sets.len() {
            // Same inputs as call i - len: the program must repeat itself.
            let first = &calls[i % sets.len()];
            checks.op(first.losses == r.losses && first.hr10.to_bits() == r.hr10.to_bits());
        }
        calls.push(r);
        i += 1;
    }
    let all = |f: fn(&CallResult) -> f64| calls.iter().map(f).collect::<Vec<_>>();
    let hr10 = calls[..sets.len()].iter().map(|c| c.hr10).sum::<f64>() / sets.len() as f64;
    let steps: usize = calls.iter().map(|c| c.steps).sum();
    checks.check(
        "train.hr10_above_chance",
        hr10 >= 2.0 * CHANCE_HR10,
        format!(
            "mean HR@10 {hr10:.2} % over {} input sets (chance {CHANCE_HR10} %)",
            sets.len()
        ),
    );
    checks.check(
        "train.losses_finite_no_rollbacks_repeatable",
        checks.failed == 0,
        format!(
            "{} train_joint calls, {} failed ops",
            calls.len(),
            checks.failed
        ),
    );
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups) / 1e3, "s");
    m.set("op_ms", median(&all(|c| c.step_ms)), "ms");
    let blocks: Vec<Vec<f64>> = calls.iter().map(|c| c.intervals_ms.clone()).collect();
    m.set("tail_ms", block_p95(&blocks), "ms");
    m.set("rate_per_s", steps as f64 / busy_s, "1/s");
    // Named as in the metric table, for the report only.
    m.set("train.hr10", hr10, "%");
    m.set("train.step_ms", median(&all(|c| c.step_ms)), "ms");
    m.set("train.wall_s", median(&all(|c| c.wall_s)), "s");
    m.set("train.calls", calls.len() as f64, "count");
    (m, checks)
}

/// Per-step breakdown of a traced step loop, driven through the same
/// public calls in the same order as the trainer's `run_epoch`.
pub struct StepLoop {
    pub steps: u64,
    pub epochs: usize,
    pub mean_losses: Vec<u32>,
    pub wall_ms: f64,
    pub spans: trace::ThreadStats,
    pub ops: Vec<(&'static str, OpAgg)>,
    pub alloc: nm_tensor::alloc::AllocStats,
}

/// Runs `epochs` epochs (or only the first `max_steps` steps of epoch
/// 0) under the caller's tracer, with the kernel profiler on.
pub fn step_loop(
    model: &mut dyn CdrModel,
    tc: &TrainConfig,
    epochs: usize,
    max_steps: Option<usize>,
) -> StepLoop {
    let mut opt = Adam::new(tc.lr);
    let mut st = TrainerState::fresh(tc);
    drop(trace::drain_thread_stats());
    nm_autograd::profile::reset();
    nm_autograd::profile::set_enabled(true);
    nm_tensor::alloc::reset();
    nm_tensor::alloc::set_enabled(true);
    let sw = Stopwatch::start();
    let mut mean_losses = Vec::new();
    for epoch in 0..epochs {
        {
            let _s = trace::span("bench.resample");
            model.begin_epoch(epoch);
        }
        opt.set_lr(st.lr);
        let (ba, bb) = {
            let _s = trace::span("bench.batches");
            SplitSource.epoch_batches(model, tc, epoch)
        };
        let n = ba.len().max(bb.len()).min(max_steps.unwrap_or(usize::MAX));
        let mut loss_sum = 0.0f64;
        for s in 0..n {
            let _step = trace::span("bench.step");
            let mut tape = Tape::new();
            let loss = {
                let _s = trace::span("bench.forward");
                let loss = model.loss(&mut tape, &ba[s % ba.len()], &bb[s % bb.len()], st.steps);
                loss_sum += tape.value(loss).item() as f64;
                loss
            };
            {
                let _s = trace::span("bench.backward");
                tape.backward(loss);
            }
            {
                let _s = trace::span("bench.absorb");
                nm_nn::absorb_all(&*model, &tape);
            }
            {
                let _s = trace::span("bench.optim");
                let params = model.params();
                if tc.grad_clip > 0.0 {
                    clip_global_norm(&params, tc.grad_clip);
                }
                opt.step(&params);
            }
            st.steps += 1;
        }
        mean_losses.push(((loss_sum / n.max(1) as f64) as f32).to_bits());
        st.epoch_next = epoch + 1;
        let _s = trace::span("bench.encode_state");
        // Encoded every epoch, as the trainer does for rollback.
        let _ = encode_state(model, &opt, &st, tc);
    }
    let wall_ms = ms(&sw);
    let ops = nm_autograd::profile::take();
    nm_autograd::profile::set_enabled(false);
    let alloc = nm_tensor::alloc::stats();
    nm_tensor::alloc::set_enabled(false);
    StepLoop {
        steps: st.steps,
        epochs,
        mean_losses,
        wall_ms,
        spans: trace::drain_thread_stats().unwrap_or_default(),
        ops,
        alloc,
    }
}

impl StepLoop {
    fn span_ms(&self, name: &str) -> f64 {
        self.spans
            .spans
            .get(name)
            .map_or(0.0, |a| a.total_us as f64 / 1e3)
    }

    /// Writes the per-step (and per-epoch) layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        let steps = self.steps.max(1) as f64;
        let per_step = |name: &str| self.span_ms(name) / steps;
        let forward = per_step("bench.forward");
        let stages = [
            "encoder",
            "intra_matching",
            "inter_matching",
            "complementing",
        ];
        let names = [
            "core.encoder_ms",
            "core.intra_ms",
            "core.inter_ms",
            "core.complement_ms",
        ];
        let mut stage_sum = 0.0;
        for (stage, name) in stages.iter().zip(names) {
            let v = per_step(&format!("stage.{stage}"));
            stage_sum += v;
            m.set(name, v, "ms");
        }
        m.set("core.forward_ms", forward, "ms");
        m.set("core.heads_ms", forward - stage_sum, "ms");
        m.set("autograd.backward_ms", per_step("bench.backward"), "ms");
        m.set("nn.absorb_ms", per_step("bench.absorb"), "ms");
        m.set("optim.step_ms", per_step("bench.optim"), "ms");
        let epochs = self.epochs.max(1) as f64;
        m.set(
            "models.encode_state_ms",
            self.span_ms("bench.encode_state") / epochs,
            "ms",
        );
        let step_ms = self.wall_ms / steps;
        m.set("train.traced_step_ms", step_ms, "ms");
        let covered = [
            "bench.forward",
            "bench.backward",
            "bench.absorb",
            "bench.optim",
        ]
        .iter()
        .map(|n| per_step(n))
        .sum::<f64>();
        m.set("train.step_coverage_frac", covered / step_ms, "frac");

        let agg = |kind: &str| {
            self.ops
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, a)| *a)
                .unwrap_or_default()
        };
        for kind in ["matmul", "spmm", "mul", "rowwise_dot", "gather_rows"] {
            let a = agg(kind);
            m.set(
                &format!("autograd.op.{kind}.fwd_ms"),
                a.fwd_ns as f64 / 1e6 / steps,
                "ms",
            );
            m.set(
                &format!("autograd.op.{kind}.bwd_ms"),
                a.bwd_ns as f64 / 1e6 / steps,
                "ms",
            );
        }
        let mm = agg("matmul");
        let mm_ns = (mm.fwd_ns + mm.bwd_ns).max(1) as f64;
        m.set(
            "autograd.matmul_gflops",
            (mm.fwd_flops + mm.bwd_flops) as f64 / mm_ns,
            "GFLOP/s",
        );
        let flops: u64 = self
            .ops
            .iter()
            .map(|(_, a)| a.fwd_flops + a.bwd_flops)
            .sum();
        m.set(
            "autograd.gflop_per_step",
            flops as f64 / 1e9 / steps,
            "GFLOP",
        );
        m.set(
            "tensor.alloc_mb_per_step",
            self.alloc.allocated_b as f64 / 1e6 / steps,
            "MB",
        );
        m.set("tensor.peak_live_mb", self.alloc.peak_b as f64 / 1e6, "MB");
    }
}

/// The traced pass: a `train_joint` reference call, then the traced
/// step loop over the same inputs, whose per-epoch mean losses must
/// equal the reference bit for bit. Returns the model for the layer
/// probe.
pub fn traced(seed: u64, m: &mut Metrics, checks: &mut Checks) -> (Built, NmcdrModel) {
    let (b, mut reference) = Built::new(Scenario::ClothSport, 0.008, mix(seed, 0));
    let tc = TrainConfig {
        epochs: TRACED_EPOCHS,
        ..b.train_config()
    };
    let want: Vec<u32> = match train_joint(&mut reference, &tc) {
        Ok(s) => s.logs.iter().map(|l| l.mean_loss.to_bits()).collect(),
        Err(e) => {
            checks.check("train.reference", false, e.to_string());
            Vec::new()
        }
    };
    let mut model = b.model();
    let sl = step_loop(&mut model, &tc, TRACED_EPOCHS, None);
    checks.check(
        "train.traced_loop_matches_train_joint",
        sl.mean_losses == want,
        format!(
            "{} epochs, per-epoch mean losses compared bit for bit",
            sl.epochs
        ),
    );
    sl.report(m);
    let cov = m.get("train.step_coverage_frac").unwrap_or(0.0);
    checks.check(
        "train.step_coverage",
        cov >= 0.9,
        format!(
            "forward+backward+absorb+optim = {:.1}% of the traced step",
            cov * 100.0
        ),
    );
    m.set(
        "op_ms",
        m.get("train.traced_step_ms").unwrap_or(f64::NAN),
        "ms",
    );
    (b, model)
}
