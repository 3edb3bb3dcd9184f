//! Dense matrix multiplication: one register-blocked kernel.
//!
//! `matmul`, `matmul_tn`, `matmul_nt` and [`vecmat_blocked`] all run
//! [`Gemm`]: `out = seed + lhs * rhs` with `lhs` read through (row,
//! column) strides and `rhs` row-major. Tiles are [`ROWS`] output rows
//! by a 16-, 8- or 4-lane column panel (then single columns); a tile's
//! accumulators stay in registers for the whole `k` loop. The kernel is
//! compiled for each [`SimdLevel`](crate::simd::SimdLevel) and chosen at
//! run time.
//!
//! Every output element is `seed + a[0]·b[0] + a[1]·b[1] + …`, one IEEE
//! multiply and one IEEE add per term, `k` ascending, so tiling and lane
//! width never change a bit. There is no zero skip: for finite operands
//! it would be the identity (see `DESIGN.md`, "Kernels"), and without it
//! `0·NaN` and `0·inf` propagate to the output.

use crate::simd::{dispatch, SimdKernel};
use crate::Tensor;

/// Output rows per register tile.
const ROWS: usize = 4;

/// `out (r x c, row-major) = seed + lhs (r x k) * rhs (k x c, row-major)`,
/// where `lhs[i][kk]` is `lhs[i * lhs_rs + kk * lhs_cs]`.
struct Gemm<'a> {
    lhs: &'a [f32],
    lhs_rs: usize,
    lhs_cs: usize,
    rhs: &'a [f32],
    out: &'a mut [f32],
    r: usize,
    k: usize,
    c: usize,
    seed: f32,
}

impl Gemm<'_> {
    /// Panics unless every index the tiles form is in bounds: the
    /// condition the unchecked loads in [`Gemm::tile`] rely on.
    #[inline(always)]
    fn check_bounds(&self) {
        assert_eq!(self.out.len(), self.r * self.c, "gemm: output size");
        assert!(self.rhs.len() >= self.k * self.c, "gemm: rhs too short");
        if self.r > 0 && self.k > 0 {
            let last = (self.r - 1) * self.lhs_rs + (self.k - 1) * self.lhs_cs;
            assert!(last < self.lhs.len(), "gemm: lhs too short");
        }
    }

    /// Rows `i0..i0 + R`, every column panel.
    #[inline(always)]
    fn rows<const R: usize>(&mut self, i0: usize) {
        let c = self.c;
        let mut j0 = 0;
        while j0 < c {
            j0 += match c - j0 {
                16.. => self.tile::<R, 16>(i0, j0),
                8.. => self.tile::<R, 8>(i0, j0),
                4.. => self.tile::<R, 4>(i0, j0),
                _ => self.tile::<R, 1>(i0, j0),
            };
        }
    }

    /// One `R x L` tile at `(i0, j0)`, accumulated in registers over all
    /// of `k`, then stored. Returns `L`.
    #[inline(always)]
    fn tile<const R: usize, const L: usize>(&mut self, i0: usize, j0: usize) -> usize {
        let (k, c) = (self.k, self.c);
        let (lhs, rhs) = (self.lhs.as_ptr(), self.rhs.as_ptr());
        let mut acc = [[self.seed; L]; R];
        for kk in 0..k {
            // SAFETY: `check_bounds` asserted `rhs.len() >= k * c`, and
            // `kk < k`, `j0 + L <= c`, so the `L` floats at
            // `kk * c + j0` are in bounds; `[f32; L]` has `f32` alignment.
            let b = unsafe { &*(rhs.add(kk * c + j0) as *const [f32; L]) };
            for (rr, accr) in acc.iter_mut().enumerate() {
                // SAFETY: `i0 + rr < r` and `kk < k`, and `check_bounds`
                // asserted `(r - 1) * lhs_rs + (k - 1) * lhs_cs` is in
                // bounds; strides are non-negative, so this index is too.
                let av = unsafe { *lhs.add((i0 + rr) * self.lhs_rs + kk * self.lhs_cs) };
                for (o, &bv) in accr.iter_mut().zip(b) {
                    *o += av * bv;
                }
            }
        }
        for (rr, accr) in acc.iter().enumerate() {
            let o = (i0 + rr) * c + j0;
            self.out[o..o + L].copy_from_slice(accr);
        }
        L
    }
}

impl SimdKernel for Gemm<'_> {
    type Output = ();

    #[inline(always)]
    fn run(mut self) {
        self.check_bounds();
        let r = self.r;
        let mut i0 = 0;
        while i0 + ROWS <= r {
            self.rows::<ROWS>(i0);
            i0 += ROWS;
        }
        while i0 < r {
            self.rows::<1>(i0);
            i0 += 1;
        }
    }
}

impl Tensor {
    /// `self (R x K) * rhs (K x C) -> R x C`.
    ///
    /// # Panics
    /// On inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "matmul: inner dim mismatch {}x{} * {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (r, k) = self.shape();
        let c = rhs.cols();
        let mut out = Tensor::zeros(r, c);
        dispatch(Gemm {
            lhs: self.data(),
            lhs_rs: k,
            lhs_cs: 1,
            rhs: rhs.data(),
            out: out.data_mut(),
            r,
            k,
            c,
            seed: 0.0,
        });
        out
    }

    /// `self^T * rhs` without materializing the transpose:
    /// `self (K x R), rhs (K x C) -> R x C`. The kernel reads `self` in
    /// place through swapped strides.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows(),
            rhs.rows(),
            "matmul_tn: dim mismatch {}x{} ^T * {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (k, r) = self.shape();
        let c = rhs.cols();
        let mut out = Tensor::zeros(r, c);
        dispatch(Gemm {
            lhs: self.data(),
            lhs_rs: 1,
            lhs_cs: r,
            rhs: rhs.data(),
            out: out.data_mut(),
            r,
            k,
            c,
            seed: 0.0,
        });
        out
    }

    /// `self * rhs^T`: `self (R x K), rhs (C x K) -> R x C`.
    ///
    /// `rhs` is packed transposed (`K x C`) before the kernel runs; it
    /// is meant to be small (in backward, a layer's weight). Each
    /// element starts from `-0.0`, the neutral element `f32`'s `Sum`
    /// starts from, so a product is exactly a sequential `.sum()` dot.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols(),
            rhs.cols(),
            "matmul_nt: dim mismatch {}x{} * {}x{} ^T",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let (r, k) = self.shape();
        let c = rhs.rows();
        let mut packed = vec![0.0f32; k * c];
        for (j, row) in rhs.data().chunks_exact(k.max(1)).take(c).enumerate() {
            for (kk, &v) in row.iter().enumerate() {
                packed[kk * c + j] = v;
            }
        }
        let mut out = Tensor::zeros(r, c);
        dispatch(Gemm {
            lhs: self.data(),
            lhs_rs: k,
            lhs_cs: 1,
            rhs: &packed,
            out: out.data_mut(),
            r,
            k,
            c,
            seed: -0.0,
        });
        out
    }
}

/// Row-vector × matrix: `x (1 x k) * w (k x n) -> 1 x n`, then
/// `out[j] += bias[j]` after the full accumulation.
///
/// Bit-for-bit `Tensor::matmul` on a `1 x k` lhs followed by a
/// broadcast add: it is the same kernel on one row.
pub fn vecmat_blocked(x: &[f32], w: &[f32], k: usize, n: usize, bias: Option<&[f32]>) -> Vec<f32> {
    assert_eq!(x.len(), k, "vecmat_blocked: x len {} != k {k}", x.len());
    assert_eq!(
        w.len(),
        k * n,
        "vecmat_blocked: w len {} != {k}x{n}",
        w.len()
    );
    let mut out = vec![0.0f32; n];
    dispatch(Gemm {
        lhs: x,
        lhs_rs: k,
        lhs_cs: 1,
        rhs: w,
        out: &mut out,
        r: 1,
        k,
        c: n,
        seed: 0.0,
    });
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "vecmat_blocked: bias len {} != n {n}", b.len());
        for (ov, &bv) in out.iter_mut().zip(b) {
            *ov += bv;
        }
    }
    out
}

/// Column-block width of [`vecmat_nt_blocked`]: 64 f32 = 256 B, four
/// cache lines, small enough that `x` stays resident.
const VEC_BLOCK: usize = 64;

/// Blocked row-vector × matrix-transpose: dots `x (1 x k)` against each
/// of the `n_rows` length-`k` rows of `rows`, i.e. `x * rows^T`.
///
/// Per output element this is a plain sequential `k`-ascending dot
/// starting from `-0.0` — the exact accumulation `Tensor::matmul_nt`
/// and the model layer's embedding dot-product scoring use — so serving
/// scores match offline scores bit for bit.
pub fn vecmat_nt_blocked(
    x: &[f32],
    rows: &[f32],
    n_rows: usize,
    k: usize,
    bias: Option<&[f32]>,
) -> Vec<f32> {
    assert_eq!(x.len(), k, "vecmat_nt_blocked: x len {} != k {k}", x.len());
    assert_eq!(
        rows.len(),
        n_rows * k,
        "vecmat_nt_blocked: rows len {} != {n_rows}x{k}",
        rows.len()
    );
    let mut out = vec![0.0f32; n_rows];
    let mut i0 = 0;
    while i0 < n_rows {
        let i1 = (i0 + VEC_BLOCK).min(n_rows);
        for i in i0..i1 {
            let row = &rows[i * k..(i + 1) * k];
            out[i] = x.iter().zip(row).map(|(a, b)| a * b).sum();
        }
        i0 = i1;
    }
    if let Some(b) = bias {
        assert_eq!(
            b.len(),
            n_rows,
            "vecmat_nt_blocked: bias len {} != n_rows {n_rows}",
            b.len()
        );
        for (ov, &bv) in out.iter_mut().zip(b) {
            *ov += bv;
        }
    }
    out
}

/// The scalar loops [`Gemm`] replaced, kept as the bit-exactness oracle.
#[cfg(test)]
pub(crate) mod reference {
    use crate::Tensor;

    /// `ikj` with the old `a == 0.0` skip.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (r, k) = a.shape();
        let c = b.cols();
        let mut out = Tensor::zeros(r, c);
        let (a, b) = (a.data(), b.data());
        let o = out.data_mut();
        for i in 0..r {
            let orow = &mut o[i * c..(i + 1) * c];
            for (kk, &av) in a[i * k..(i + 1) * k].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (ov, &bv) in orow.iter_mut().zip(&b[kk * c..(kk + 1) * c]) {
                    *ov += av * bv;
                }
            }
        }
        out
    }

    /// `a (K x R)^T * b (K x C)`, `k`-outer, with the zero skip.
    pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, r) = a.shape();
        let c = b.cols();
        let mut out = Tensor::zeros(r, c);
        let (a, b) = (a.data(), b.data());
        let o = out.data_mut();
        for kk in 0..k {
            let brow = &b[kk * c..(kk + 1) * c];
            for (i, &av) in a[kk * r..(kk + 1) * r].iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (ov, &bv) in o[i * c..(i + 1) * c].iter_mut().zip(brow) {
                    *ov += av * bv;
                }
            }
        }
        out
    }

    /// `a (R x K) * b (C x K)^T` as sequential `.sum()` dots.
    pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
        let (r, k) = a.shape();
        let c = b.rows();
        let mut out = Tensor::zeros(r, c);
        let (a, b) = (a.data(), b.data());
        let o = out.data_mut();
        for i in 0..r {
            for (j, ov) in o[i * c..(i + 1) * c].iter_mut().enumerate() {
                let brow = &b[j * k..(j + 1) * k];
                *ov = a[i * k..(i + 1) * k]
                    .iter()
                    .zip(brow)
                    .map(|(x, y)| x * y)
                    .sum();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::SimdLevel;
    use crate::TensorRng;

    #[test]
    fn matmul_2x2() {
        let a = Tensor::new(2, 2, vec![1., 2., 3., 4.]);
        let b = Tensor::new(2, 2, vec![5., 6., 7., 8.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::new(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::new(1, 3, vec![1., 2., 3.]);
        let b = Tensor::new(3, 2, vec![1., 0., 0., 1., 1., 1.]);
        assert_eq!(a.matmul(&b).data(), &[4., 5.]);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_mismatch_panics() {
        let _ = Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::new(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(3, 4, (0..12).map(|x| x as f32).collect());
        let expect = a.transpose().matmul(&b);
        let got = a.matmul_tn(&b);
        assert!(expect.max_abs_diff(&got) < 1e-6);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::new(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::new(4, 3, (0..12).map(|x| x as f32).collect());
        let expect = a.matmul(&b.transpose());
        let got = a.matmul_nt(&b);
        assert!(expect.max_abs_diff(&got) < 1e-6);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Random values where about a third are ReLU-style zeros of either
    /// sign.
    fn relu_like(rows: usize, cols: usize, rng: &mut TensorRng) -> Tensor {
        let mut t = Tensor::randn(rows, cols, 1.0, rng);
        for (i, x) in t.data_mut().iter_mut().enumerate() {
            match i % 6 {
                0 => *x = 0.0,
                3 => *x = -0.0,
                _ => {}
            }
        }
        t
    }

    #[test]
    fn kernel_matches_reference_loops_bit_for_bit_on_every_tile_tail() {
        let mut rng = TensorRng::seed_from(21);
        for r in [1, 2, 3, 4, 5, 513] {
            for k in [0, 1, 7, 16, 37] {
                for c in [1, 3, 4, 7, 8, 9, 15, 16, 17, 33] {
                    let what = format!("r {r} k {k} c {c}");
                    let a = relu_like(r, k, &mut rng);
                    let at = relu_like(k, r, &mut rng);
                    let b = relu_like(k, c, &mut rng);
                    let bt = relu_like(c, k, &mut rng);
                    let nn = bits(&reference::matmul(&a, &b));
                    let tn = bits(&reference::matmul_tn(&at, &b));
                    let nt = bits(&reference::matmul_nt(&a, &bt));
                    assert_eq!(bits(&a.matmul(&b)), nn, "nn {what}");
                    assert_eq!(bits(&at.matmul_tn(&b)), tn, "tn {what}");
                    assert_eq!(bits(&a.matmul_nt(&bt)), nt, "nt {what}");
                    let packed = bt.transpose();
                    for level in SimdLevel::ALL.into_iter().filter(|l| l.supported()) {
                        let run = |lhs: &Tensor, lhs_rs, lhs_cs, rhs: &Tensor, seed| {
                            let mut out = Tensor::zeros(r, c);
                            level.run(Gemm {
                                lhs: lhs.data(),
                                lhs_rs,
                                lhs_cs,
                                rhs: rhs.data(),
                                out: out.data_mut(),
                                r,
                                k,
                                c,
                                seed,
                            });
                            bits(&out)
                        };
                        assert_eq!(run(&a, k, 1, &b, 0.0), nn, "nn {level:?} {what}");
                        assert_eq!(run(&at, 1, r, &b, 0.0), tn, "tn {level:?} {what}");
                        assert_eq!(run(&a, k, 1, &packed, -0.0), nt, "nt {level:?} {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn nan_weight_behind_a_zero_input_propagates() {
        // The reference loops skipped `0 * NaN`; the kernel does not,
        // so a non-finite weight reaches the output (and divergence
        // rollback) even when the input feeding it is zero.
        let x = Tensor::new(2, 3, vec![1.0, 0.0, 2.0, -0.0, 0.0, 0.0]);
        let mut w = Tensor::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        w.data_mut()[2] = f32::NAN; // row 1, hit only by zero inputs
        let y = x.matmul(&w);
        assert!(y.get(0, 0).is_nan() && y.get(1, 0).is_nan(), "{y:?}");
        assert_eq!(y.get(0, 1), 1.0 * 2.0 + 2.0 * 6.0);
        assert!(reference::matmul(&x, &w).get(0, 0).is_finite());
        let xt = x.transpose();
        let yt = xt.matmul_tn(&w);
        assert!(yt.get(0, 0).is_nan() && yt.get(1, 0).is_nan(), "{yt:?}");
        assert!(reference::matmul_tn(&xt, &w).get(0, 0).is_finite());
        let y = x.matmul(&Tensor::new(3, 1, vec![1.0, f32::INFINITY, 1.0]));
        assert!(y.get(0, 0).is_nan(), "0 * inf is NaN");
    }

    #[test]
    fn vecmat_blocked_bitwise_matches_matmul() {
        // Spans several column panels and includes exact zeros in x.
        let mut rng = TensorRng::seed_from(11);
        let k = 37;
        let n = 150;
        let mut x = Tensor::randn(1, k, 1.0, &mut rng);
        x.data_mut()[3] = 0.0;
        x.data_mut()[k - 1] = -0.0;
        let w = Tensor::randn(k, n, 1.0, &mut rng);
        let b = Tensor::randn(1, n, 1.0, &mut rng);
        let reference = reference::matmul(&x, &w).add(&b);
        let got = vecmat_blocked(x.data(), w.data(), k, n, Some(b.data()));
        assert_eq!(got.as_slice(), reference.data(), "must match bit for bit");
        let no_bias = vecmat_blocked(x.data(), w.data(), k, n, None);
        assert_eq!(no_bias.as_slice(), x.matmul(&w).data());
    }

    #[test]
    fn vecmat_nt_blocked_bitwise_matches_matmul_nt() {
        let mut rng = TensorRng::seed_from(12);
        let k = 29;
        let n_rows = 200;
        let x = Tensor::randn(1, k, 1.0, &mut rng);
        let rows = Tensor::randn(n_rows, k, 1.0, &mut rng);
        let reference = x.matmul_nt(&rows);
        let got = vecmat_nt_blocked(x.data(), rows.data(), n_rows, k, None);
        assert_eq!(got.as_slice(), reference.data(), "must match bit for bit");
    }

    #[test]
    #[should_panic(expected = "vecmat_blocked: w len")]
    fn vecmat_blocked_shape_mismatch_panics() {
        let _ = vecmat_blocked(&[1.0, 2.0], &[1.0; 5], 2, 3, None);
    }
}
