//! Frozen-model snapshots: the serving-side artifact format.
//!
//! A snapshot holds everything needed to answer scoring requests with
//! no autograd tape and no graph propagation: per-domain user and item
//! embedding tables frozen *after* propagation (so GNN models export
//! their propagated tables) plus the prediction head — either a plain
//! dot product or the model's prediction MLP.
//!
//! Binary layout (`NMSS`, little-endian, versioned alongside `NMCK`):
//!
//! ```text
//! magic   "NMSS"            4 bytes
//! version u32               (currently 1)
//! model   u32 len + bytes   (UTF-8 model name)
//! 2 x domain:
//!   users  tensor           (rows u32, cols u32, f32 data)
//!   items  tensor
//!   head   u32              0 = dot, 1 = mlp
//!   if mlp:
//!     act      u32          0 relu, 1 tanh, 2 sigmoid, 3 none
//!     n_layers u32
//!     per layer: W tensor, has_bias u32, [bias tensor]
//! ```
//!
//! Scoring here is **bit-for-bit identical** to the offline eval path:
//! the dot head replicates `dot_scores`' sequential dot, and the MLP
//! head replicates `Tensor::matmul`'s k-ascending accumulation (the
//! per-element order of [`nm_tensor::vecmat_blocked`]), with no zero
//! skip and the bias added after the full accumulation, exactly like
//! the tape's broadcast add. The MLP kernel sums the user's share of the
//! first layer once per call and resumes every item from it, which
//! keeps that order (see `MlpHead::score_items`).

use nm_nn::checkpoint::{read_tensor, read_u32, write_tensor, write_u32, CheckpointError};
use nm_nn::Activation;
use nm_tensor::simd::{dispatch, SimdKernel};
use nm_tensor::{sigmoid_scalar, vecmat_nt_blocked, Tensor};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"NMSS";
const VERSION: u32 = 1;

/// A prediction MLP frozen as plain weight/bias tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpHead {
    /// `(W, bias)` per layer; `W` is `in x out`, bias `1 x out`.
    pub layers: Vec<(Tensor, Option<Tensor>)>,
    /// Activation between hidden layers (never after the last).
    pub hidden_act: Activation,
}

/// How a domain's `(user, item)` affinity is computed.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadKind {
    /// `score = u · v` (matrix-factorization models).
    Dot,
    /// `score = MLP(u ‖ v)` (NMCDR and the GNN baselines).
    Mlp(MlpHead),
}

/// Frozen tables + head for one domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSnapshot {
    pub users: Tensor,
    pub items: Tensor,
    pub head: HeadKind,
}

/// A complete serving artifact for a two-domain CDR model.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Model name (e.g. "NMCDR", "BPR") for observability.
    pub model: String,
    pub domains: [DomainSnapshot; 2],
}

/// Trained models that can export a [`Snapshot`].
///
/// Takes `&mut self` because exporting runs the model's own
/// `prepare_eval`-style propagation to freeze post-propagation tables.
pub trait FrozenModel {
    fn export_frozen(&mut self) -> Snapshot;
}

fn act_tag(a: Activation) -> u32 {
    match a {
        Activation::Relu => 0,
        Activation::Tanh => 1,
        Activation::Sigmoid => 2,
        Activation::None => 3,
    }
}

fn act_from_tag(t: u32) -> Result<Activation, CheckpointError> {
    Ok(match t {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        2 => Activation::Sigmoid,
        3 => Activation::None,
        _ => return Err(CheckpointError::Format(format!("unknown activation {t}"))),
    })
}

#[inline(always)]
fn apply_act(act: Activation, xs: &mut [f32]) {
    match act {
        Activation::Relu => xs.iter_mut().for_each(|x| *x = x.max(0.0)),
        Activation::Tanh => xs.iter_mut().for_each(|x| *x = x.tanh()),
        Activation::Sigmoid => xs.iter_mut().for_each(|x| *x = sigmoid_scalar(*x)),
        Activation::None => {}
    }
}

/// Items whose last-layer logits [`MlpHead::score_items`] computes
/// together, one per lane.
const ITEM_BLOCK: usize = 8;

/// Items whose layer-0 sums [`accumulate_group`] interleaves.
const GROUP: usize = 4;

const _: () = assert!(ITEM_BLOCK.is_multiple_of(GROUP), "a block is whole groups");

/// `B` rows of `x · w`, each starting from `init`: row `b` of `out`
/// (`B` rows of `n = init.len()`) is `init[j]` plus
/// `x[b][kk] * w[kk * n + j]` for `kk` ascending. Per output element,
/// exactly the additions (and their order) of
/// [`nm_tensor::vecmat_blocked`]: blocking only splits `j`, into
/// register-sized lane chunks, each accumulated over all of `x` before
/// the next. With `B > 1`, interleaving the rows overlaps their add
/// chains, which one row at a time would wait on.
#[inline(always)]
fn accumulate_group<const B: usize>(out: &mut [f32], init: &[f32], x: [&[f32]; B], w: &[f32]) {
    let n = init.len();
    let mut j0 = 0;
    while j0 < n {
        j0 += match n - j0 {
            16.. => group_chunk::<16, B>(out, init, x, w, j0),
            8.. => group_chunk::<8, B>(out, init, x, w, j0),
            4.. => group_chunk::<4, B>(out, init, x, w, j0),
            _ => group_chunk::<1, B>(out, init, x, w, j0),
        };
    }
}

/// [`accumulate_group`] over the `L` outputs `j0..j0 + L` of every
/// row, held in registers across the `kk` loop. Returns `L`.
#[inline(always)]
fn group_chunk<const L: usize, const B: usize>(
    out: &mut [f32],
    init: &[f32],
    x: [&[f32]; B],
    w: &[f32],
    j0: usize,
) -> usize {
    let n = init.len();
    // Offsets instead of `chunks_exact(n)`: `n` is only known at run
    // time, and each chunking would cost an integer division per call.
    let rows = x[0].len();
    let x = x.map(|xb| &xb[..rows]);
    let mut a = [[0.0f32; L]; B];
    for ab in a.iter_mut() {
        ab.copy_from_slice(&init[j0..j0 + L]);
    }
    for kk in 0..rows {
        let row = &w[kk * n + j0..kk * n + j0 + L];
        for (ab, xb) in a.iter_mut().zip(&x) {
            let xv = xb[kk];
            for (av, &wv) in ab.iter_mut().zip(row) {
                *av += xv * wv;
            }
        }
    }
    for (b, ab) in a.iter().enumerate() {
        out[b * n + j0..b * n + j0 + L].copy_from_slice(ab);
    }
    L
}

/// Adds a layer's bias after its full accumulation, like the tape's
/// broadcast add.
#[inline(always)]
fn add_bias(y: &mut [f32], bias: Option<&Tensor>) {
    if let Some(b) = bias {
        for (yv, &bv) in y.iter_mut().zip(b.data()) {
            *yv += bv;
        }
    }
}

impl MlpHead {
    /// Freezes a trained [`nm_nn::Mlp`] into plain tensors.
    pub fn from_mlp(mlp: &nm_nn::Mlp) -> MlpHead {
        MlpHead {
            layers: (0..mlp.n_layers())
                .map(|i| {
                    let l = mlp.layer(i);
                    (l.weight().value(), l.bias().map(|b| b.value()))
                })
                .collect(),
            hidden_act: mlp.hidden_act(),
        }
    }

    /// Scores user row `u` against each row of `items`, one logit per
    /// item into `out`. The shared kernel of [`Snapshot::score_pairs`]
    /// and [`Snapshot::score_user_range`].
    ///
    /// Bit-identical to pushing each `(u ‖ v)` row through
    /// `vecmat_blocked` layer by layer, because every output element
    /// sees the same additions in the same order:
    /// * layer 0 accumulates k-ascending, so its first `u.len()` terms
    ///   are the same for every item. They are summed once into a
    ///   prefix, and each item resumes from it over its own `v` terms
    ///   before the bias and activation, [`GROUP`] items interleaved
    ///   ([`accumulate_group`]);
    /// * hidden layers run on two reused scratch rows;
    /// * the last layer (one logit) scores [`ITEM_BLOCK`] items at once,
    ///   one item per lane, each lane still summing k-ascending.
    ///
    /// The kernel runs through [`nm_tensor::simd::dispatch`], compiled
    /// for the widest vectors the CPU has; the scores are the same bits
    /// on every level.
    fn score_items<'a>(&self, u: &[f32], items: impl Iterator<Item = &'a [f32]>, out: &mut [f32]) {
        dispatch(ScoreItems {
            head: self,
            u,
            items,
            out,
        });
    }

    /// The body of [`MlpHead::score_items`], inlined into each dispatch
    /// entry so it is compiled for that entry's target features.
    #[inline(always)]
    fn score_items_with<'a>(
        &self,
        u: &[f32],
        mut items: impl Iterator<Item = &'a [f32]>,
        out: &mut [f32],
    ) {
        let last = self.layers.len() - 1;
        let (w0, b0) = &self.layers[0];
        let (du, n0) = (u.len(), w0.cols());
        let (w_u, w_v) = w0.data().split_at(du * n0);
        let width = self.layers.iter().map(|(w, _)| w.cols()).max().unwrap_or(1);
        let zeros = vec![0.0f32; width];
        let mut prefix = vec![0.0f32; n0];
        accumulate_group(&mut prefix, &zeros[..n0], [u], w_u);
        if last == 0 {
            // A single layer is its own last layer: (u ‖ v) → logit.
            for (v, o) in items.zip(out.iter_mut()) {
                let y = std::slice::from_mut(o);
                accumulate_group(y, &prefix, [v], w_v);
                add_bias(y, b0.as_ref());
            }
            return;
        }
        let mut cur = vec![0.0f32; width];
        let mut nxt = vec![0.0f32; width];
        let (w_l, b_l) = &self.layers[last];
        // Layer-0 outputs of one block of items, one row of `n0` each.
        let mut h0 = vec![0.0f32; ITEM_BLOCK * n0];
        // The last layer's inputs for one block of items, input-major:
        // `block[kk * ITEM_BLOCK + b]` is input `kk` of item `b`.
        let mut block = vec![0.0f32; w_l.rows() * ITEM_BLOCK];
        for outs in out.chunks_mut(ITEM_BLOCK) {
            let mut vs: [&[f32]; ITEM_BLOCK] = [&[]; ITEM_BLOCK];
            for (slot, v) in vs.iter_mut().zip(items.by_ref().take(outs.len())) {
                *slot = v;
            }
            let nb = outs.len();
            for g0 in (0..nb).step_by(GROUP) {
                // A short last group repeats its last item into rows
                // past `nb`, which nothing reads as a score.
                let g: [&[f32]; GROUP] = std::array::from_fn(|b| vs[(g0 + b).min(nb - 1)]);
                accumulate_group(&mut h0[g0 * n0..(g0 + GROUP) * n0], &prefix, g, w_v);
            }
            for b in 0..nb {
                add_bias(&mut h0[b * n0..(b + 1) * n0], b0.as_ref());
            }
            apply_act(self.hidden_act, &mut h0[..nb * n0]);
            if last == 1 {
                // Layer 0 feeds the last layer: transpose the block
                // whole, one column of `ITEM_BLOCK` lanes per input.
                for (kk, col) in block.chunks_exact_mut(ITEM_BLOCK).enumerate() {
                    for (b, c) in col.iter_mut().enumerate() {
                        *c = h0[b * n0 + kk];
                    }
                }
            } else {
                for b in 0..nb {
                    let mut x: &[f32] = &h0[b * n0..(b + 1) * n0];
                    for (w, bias) in &self.layers[1..last] {
                        let n = w.cols();
                        let y = &mut nxt[..n];
                        accumulate_group(y, &zeros[..n], [x], w.data());
                        add_bias(y, bias.as_ref());
                        apply_act(self.hidden_act, y);
                        std::mem::swap(&mut cur, &mut nxt);
                        x = &cur[..n];
                    }
                    for (kk, &xv) in x.iter().enumerate() {
                        block[kk * ITEM_BLOCK + b] = xv;
                    }
                }
            }
            // Lanes past `outs.len()` hold stale inputs; their logits
            // are computed and dropped.
            let mut acc = [0.0f32; ITEM_BLOCK];
            for (xs, &wv) in block.chunks_exact(ITEM_BLOCK).zip(w_l.data()) {
                for (a, &x) in acc.iter_mut().zip(xs) {
                    *a += x * wv;
                }
            }
            if let Some(b) = b_l {
                acc.iter_mut().for_each(|a| *a += b.data()[0]);
            }
            outs.copy_from_slice(&acc[..outs.len()]);
        }
    }

    fn validate(&self, in_dim: usize) -> Result<(), CheckpointError> {
        let mut d = in_dim;
        for (i, (w, b)) in self.layers.iter().enumerate() {
            if w.rows() != d {
                return Err(CheckpointError::Format(format!(
                    "head layer {i}: expected {d} inputs, weight is {}x{}",
                    w.rows(),
                    w.cols()
                )));
            }
            if let Some(b) = b {
                if b.shape() != (1, w.cols()) {
                    return Err(CheckpointError::Format(format!(
                        "head layer {i}: bias shape {}x{} != 1x{}",
                        b.rows(),
                        b.cols(),
                        w.cols()
                    )));
                }
            }
            d = w.cols();
        }
        if d != 1 {
            return Err(CheckpointError::Format(format!(
                "head must end in one logit, got {d}"
            )));
        }
        Ok(())
    }
}

/// [`MlpHead::score_items`] as a [`SimdKernel`].
struct ScoreItems<'s, I> {
    head: &'s MlpHead,
    u: &'s [f32],
    items: I,
    out: &'s mut [f32],
}

impl<'a, I: Iterator<Item = &'a [f32]>> SimdKernel for ScoreItems<'_, I> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        self.head.score_items_with(self.u, self.items, self.out);
    }
}

impl Snapshot {
    /// Structural validation: table dims agree with the head shape.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        for (z, d) in self.domains.iter().enumerate() {
            let (du, di) = (d.users.cols(), d.items.cols());
            match &d.head {
                HeadKind::Dot => {
                    if du != di {
                        return Err(CheckpointError::Format(format!(
                            "domain {z}: dot head needs equal dims, users {du} items {di}"
                        )));
                    }
                }
                HeadKind::Mlp(h) => h.validate(du + di)?,
            }
        }
        Ok(())
    }

    pub fn n_users(&self, domain: usize) -> usize {
        self.domains[domain].users.rows()
    }

    pub fn n_items(&self, domain: usize) -> usize {
        self.domains[domain].items.rows()
    }

    /// Scores parallel `(user, item)` pairs — the serving twin of the
    /// models' `eval_scores`, bit-for-bit.
    pub fn score_pairs(&self, domain: usize, users: &[u32], items: &[u32]) -> Vec<f32> {
        assert_eq!(users.len(), items.len(), "parallel pair arrays");
        let d = &self.domains[domain];
        match &d.head {
            HeadKind::Dot => users
                .iter()
                .zip(items)
                .map(|(&u, &i)| {
                    let ur = d.users.row_slice(u as usize);
                    let ir = d.items.row_slice(i as usize);
                    ur.iter().zip(ir).map(|(a, b)| a * b).sum()
                })
                .collect(),
            HeadKind::Mlp(h) => {
                // One kernel call per run of equal users, so the user
                // prefix is shared across the run.
                let mut out = vec![0.0f32; users.len()];
                let mut lo = 0;
                for run in users.chunk_by(|a, b| a == b) {
                    let hi = lo + run.len();
                    h.score_items(
                        d.users.row_slice(run[0] as usize),
                        items[lo..hi].iter().map(|&i| d.items.row_slice(i as usize)),
                        &mut out[lo..hi],
                    );
                    lo = hi;
                }
                out
            }
        }
    }

    /// Scores one user against the item id range `lo..hi` of a domain,
    /// writing into `out` (`out.len() == hi - lo`). This is the shard
    /// kernel the retrieval engine fans out over worker threads.
    pub fn score_user_range(
        &self,
        domain: usize,
        user: u32,
        lo: usize,
        hi: usize,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), hi - lo, "output buffer size");
        let d = &self.domains[domain];
        let ur = d.users.row_slice(user as usize);
        match &d.head {
            HeadKind::Dot => {
                let k = d.items.cols();
                let rows = &d.items.data()[lo * k..hi * k];
                let scores = vecmat_nt_blocked(ur, rows, hi - lo, k, None);
                out.copy_from_slice(&scores);
            }
            HeadKind::Mlp(h) => {
                let k = d.items.cols();
                let rows = &d.items.data()[lo * k..hi * k];
                h.score_items(ur, rows.chunks_exact(k), out);
            }
        }
    }

    /// Serializes the snapshot.
    pub fn save<W: Write>(&self, w: &mut W) -> Result<(), CheckpointError> {
        w.write_all(MAGIC)?;
        write_u32(w, VERSION)?;
        let name = self.model.as_bytes();
        write_u32(w, name.len() as u32)?;
        w.write_all(name)?;
        for d in &self.domains {
            write_tensor(w, &d.users)?;
            write_tensor(w, &d.items)?;
            match &d.head {
                HeadKind::Dot => write_u32(w, 0)?,
                HeadKind::Mlp(h) => {
                    write_u32(w, 1)?;
                    write_u32(w, act_tag(h.hidden_act))?;
                    write_u32(w, h.layers.len() as u32)?;
                    for (wt, b) in &h.layers {
                        write_tensor(w, wt)?;
                        match b {
                            Some(b) => {
                                write_u32(w, 1)?;
                                write_tensor(w, b)?;
                            }
                            None => write_u32(w, 0)?,
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes the snapshot atomically (temp sibling + fsync + rename),
    /// so a crash mid-export — or a `reload` racing the writer — never
    /// observes a torn file.
    pub fn save_to_file(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut buf = Vec::new();
        self.save(&mut buf)?;
        nm_nn::checkpoint::atomic_write_bytes(path, &buf)?;
        Ok(())
    }

    /// Deserializes and validates a snapshot. Truncation and garbage
    /// are `Format` errors, matching the `NMCK` loader's contract.
    pub fn load<R: Read>(r: &mut R) -> Result<Snapshot, CheckpointError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CheckpointError::Format("truncated file".into())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        if &magic != MAGIC {
            return Err(CheckpointError::Format("bad snapshot magic".into()));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported snapshot version {version}"
            )));
        }
        let name_len = read_u32(r)? as usize;
        if name_len > 1 << 16 {
            return Err(CheckpointError::Format("unreasonable name length".into()));
        }
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                CheckpointError::Format("truncated file".into())
            } else {
                CheckpointError::Io(e)
            }
        })?;
        let model = String::from_utf8(name)
            .map_err(|_| CheckpointError::Format("non-utf8 model name".into()))?;
        let mut domains = Vec::with_capacity(2);
        for _ in 0..2 {
            let users = read_tensor(r)?;
            let items = read_tensor(r)?;
            let head = match read_u32(r)? {
                0 => HeadKind::Dot,
                1 => {
                    let hidden_act = act_from_tag(read_u32(r)?)?;
                    let n_layers = read_u32(r)? as usize;
                    if n_layers == 0 || n_layers > 64 {
                        return Err(CheckpointError::Format(format!(
                            "unreasonable head depth {n_layers}"
                        )));
                    }
                    let mut layers = Vec::with_capacity(n_layers);
                    for _ in 0..n_layers {
                        let w = read_tensor(r)?;
                        let b = match read_u32(r)? {
                            0 => None,
                            1 => Some(read_tensor(r)?),
                            x => return Err(CheckpointError::Format(format!("bad bias flag {x}"))),
                        };
                        layers.push((w, b));
                    }
                    HeadKind::Mlp(MlpHead { layers, hidden_act })
                }
                x => return Err(CheckpointError::Format(format!("unknown head kind {x}"))),
            };
            domains.push(DomainSnapshot { users, items, head });
        }
        let mut it = domains.into_iter();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(CheckpointError::Format("missing domain snapshot".into()));
        };
        let snap = Snapshot {
            model,
            domains: [a, b],
        };
        snap.validate()?;
        Ok(snap)
    }

    pub fn load_from_file(path: &Path) -> Result<Snapshot, CheckpointError> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::load(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::simd::SimdLevel;
    use nm_tensor::TensorRng;

    fn dot_snapshot() -> Snapshot {
        let mut rng = TensorRng::seed_from(1);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(8, 4, 1.0, rng),
            items: Tensor::randn(12, 4, 1.0, rng),
            head: HeadKind::Dot,
        };
        Snapshot {
            model: "BPR".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        }
    }

    /// A random MLP head `in_dim -> widths... -> 1` with biases.
    fn random_head(
        in_dim: usize,
        widths: &[usize],
        act: Activation,
        rng: &mut TensorRng,
    ) -> MlpHead {
        let mut d = in_dim;
        let layers = widths
            .iter()
            .chain(std::iter::once(&1))
            .map(|&n| {
                let layer = (
                    Tensor::randn(d, n, 0.5, rng),
                    Some(Tensor::randn(1, n, 0.5, rng)),
                );
                d = n;
                layer
            })
            .collect();
        MlpHead {
            layers,
            hidden_act: act,
        }
    }

    fn mlp_snapshot_with(widths: &[usize]) -> Snapshot {
        let mut rng = TensorRng::seed_from(2);
        let mk = |rng: &mut TensorRng| {
            let d = 4;
            DomainSnapshot {
                users: Tensor::randn(8, d, 1.0, rng),
                items: Tensor::randn(12, d, 1.0, rng),
                head: HeadKind::Mlp(random_head(2 * d, widths, Activation::Relu, rng)),
            }
        };
        Snapshot {
            model: "NMCDR".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        }
    }

    fn mlp_snapshot() -> Snapshot {
        mlp_snapshot_with(&[4])
    }

    /// The per-item composition the kernel replaces: one `(u ‖ v)` row
    /// through `vecmat_blocked` per layer.
    fn reference_forward(head: &MlpHead, u: &[f32], v: &[f32]) -> f32 {
        let last = head.layers.len() - 1;
        let mut cur: Vec<f32> = u.iter().chain(v).copied().collect();
        for (i, (w, b)) in head.layers.iter().enumerate() {
            let mut y = nm_tensor::vecmat_blocked(
                &cur,
                w.data(),
                w.rows(),
                w.cols(),
                b.as_ref().map(|t| t.data()),
            );
            if i < last {
                apply_act(head.hidden_act, &mut y);
            }
            cur = y;
        }
        cur[0]
    }

    #[test]
    fn roundtrip_preserves_everything() {
        for snap in [dot_snapshot(), mlp_snapshot()] {
            let mut buf = Vec::new();
            snap.save(&mut buf).unwrap();
            let back = Snapshot::load(&mut buf.as_slice()).unwrap();
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn truncated_snapshot_is_format_error() {
        let snap = mlp_snapshot();
        let mut buf = Vec::new();
        snap.save(&mut buf).unwrap();
        for cut in [0, 3, 4, 8, 10, buf.len() / 3, buf.len() - 1] {
            let err = Snapshot::load(&mut &buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Snapshot::load(&mut &b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn validate_catches_dim_mismatch() {
        let mut snap = dot_snapshot();
        let mut rng = TensorRng::seed_from(3);
        snap.domains[1].items = Tensor::randn(12, 5, 1.0, &mut rng);
        assert!(snap.validate().is_err());
    }

    #[test]
    fn score_user_range_matches_score_pairs() {
        for snap in [dot_snapshot(), mlp_snapshot(), mlp_snapshot_with(&[5, 3])] {
            let n = snap.n_items(0);
            let items: Vec<u32> = (0..n as u32).collect();
            let users = vec![3u32; n];
            let pairwise = snap.score_pairs(0, &users, &items);
            let mut ranged = vec![0.0f32; n];
            // split the range unevenly to cross shard boundaries
            snap.score_user_range(0, 3, 0, 5, &mut ranged[0..5]);
            snap.score_user_range(0, 3, 5, n, &mut ranged[5..]);
            assert_eq!(ranged, pairwise, "shard kernel must match pair kernel");
        }
    }

    #[test]
    fn head_kernel_matches_per_item_reference_bit_for_bit() {
        let mut rng = TensorRng::seed_from(9);
        let acts = [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::None,
        ];
        // 29 = 16 + 8 + 4 + 1 hits every lane-chunk width
        for (case, widths) in [&[][..], &[7], &[29], &[6, 3], &[29, 9]].iter().enumerate() {
            for act in acts {
                let (du, di) = (5, 3);
                let head = random_head(du + di, widths, act, &mut rng);
                // users mixed with rows whose entries are partly zero
                // (ReLU-like inputs), of either sign
                let mut users = Tensor::randn(4, du, 1.0, &mut rng);
                let mut items = Tensor::randn(13, di, 1.0, &mut rng);
                for (j, x) in users.data_mut().iter_mut().enumerate() {
                    if j % 3 == 0 {
                        *x = if j % 2 == 0 { 0.0 } else { -0.0 };
                    }
                }
                // Zeros in items 5 and 12, which also make up the short
                // last group of the second block.
                items.data_mut()[5 * di + 1] = 0.0;
                items.data_mut()[12 * di] = -0.0;
                let pairs: Vec<(u32, u32)> = (0..4u32)
                    .flat_map(|u| (0..13u32).map(move |i| (u, i)))
                    .collect();
                let (us, is): (Vec<u32>, Vec<u32>) = pairs.iter().copied().unzip();
                let snap = Snapshot {
                    model: "t".into(),
                    domains: [0, 1].map(|_| DomainSnapshot {
                        users: users.clone(),
                        items: items.clone(),
                        head: HeadKind::Mlp(head.clone()),
                    }),
                };
                let got = snap.score_pairs(0, &us, &is);
                for (&(u, i), &g) in pairs.iter().zip(&got) {
                    let want = reference_forward(
                        &head,
                        users.row_slice(u as usize),
                        items.row_slice(i as usize),
                    );
                    assert_eq!(
                        g.to_bits(),
                        want.to_bits(),
                        "case {case} {act:?} pair ({u},{i})"
                    );
                }
                // Every compiled variant of the kernel this CPU can run
                // gives the same bits as the dispatched one.
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                for u in 0..4 {
                    let ur = users.row_slice(u);
                    let rows = || items.data().chunks_exact(di);
                    let mut want = vec![0.0f32; 13];
                    head.score_items(ur, rows(), &mut want);
                    for level in SimdLevel::ALL.into_iter().filter(|l| l.supported()) {
                        let mut got = vec![0.0f32; 13];
                        level.run(ScoreItems {
                            head: &head,
                            u: ur,
                            items: rows(),
                            out: &mut got,
                        });
                        assert_eq!(bits(&got), bits(&want), "{level:?}, case {case} {act:?}");
                    }
                }
            }
        }
        // A NaN weight on a live input poisons the score, as offline
        // (tanh, because ReLU's `max` would clamp the NaN to zero).
        let mut head = random_head(4, &[3], Activation::Tanh, &mut rng);
        head.layers[0].0.data_mut()[2 * 3 + 1] = f32::NAN; // v row 0
        let u = [0.5, -1.0];
        let v = [2.0, 1.0];
        let mut out = [0.0f32];
        head.score_items(&u, std::iter::once(&v[..]), &mut out);
        assert!(reference_forward(&head, &u, &v).is_nan());
        assert!(out[0].is_nan(), "NaN weight must yield a NaN score");
        // The same through the interleaved path: a full group of items
        // without zeros.
        let mut group = [0.0f32; GROUP];
        head.score_items(&u, std::iter::repeat_n(&v[..], GROUP), &mut group);
        assert!(group.iter().all(|s| s.is_nan()), "{group:?}");

        // NaN weights behind zero inputs poison the score too, as
        // offline: `0 * NaN` is NaN and no kernel skips zero inputs. One
        // sits on a zero `v` entry in layer 0 (ReLU's `max` then clamps
        // that unit to zero), one on a hidden unit that ReLU always
        // zeroes in the last layer.
        let head = MlpHead {
            layers: vec![
                (
                    Tensor::new(2, 2, vec![-1.0, 1.0, 1.0, f32::NAN]),
                    Some(Tensor::new(1, 2, vec![-10.0, 0.0])),
                ),
                (Tensor::new(2, 1, vec![f32::NAN, 1.0]), None),
            ],
            hidden_act: Activation::Relu,
        };
        let (u, v) = ([0.5], [0.0]);
        head.score_items(&u, std::iter::once(&v[..]), &mut out);
        assert!(
            out[0].is_nan(),
            "NaN weight behind a zero input: {}",
            out[0]
        );
        assert!(reference_forward(&head, &u, &v).is_nan());
        let mut group = [0.0f32; GROUP];
        head.score_items(&u, std::iter::repeat_n(&v[..], GROUP), &mut group);
        assert!(group.iter().all(|s| s.is_nan()), "{group:?}");
    }

    #[test]
    fn mlp_forward_matches_reference() {
        // Tiny hand-checked case: identity-ish single layer.
        let head = MlpHead {
            layers: vec![(
                Tensor::new(2, 1, vec![1.0, 2.0]),
                Some(Tensor::new(1, 1, vec![0.5])),
            )],
            hidden_act: Activation::Relu,
        };
        let mut out = [0.0f32];
        head.score_items(&[3.0], std::iter::once(&[4.0][..]), &mut out);
        assert_eq!(out[0], 3.0 + 8.0 + 0.5);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("nm_serve_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.nmss");
        let snap = mlp_snapshot();
        snap.save_to_file(&path).unwrap();
        assert_eq!(Snapshot::load_from_file(&path).unwrap(), snap);
        std::fs::remove_dir_all(&dir).ok();
    }
}
