//! Compressed sparse row matrices.

use nm_tensor::simd::{dispatch, SimdKernel};

/// A sparse `n_rows x n_cols` matrix in CSR form with `f32` values.
///
/// Invariants (checked by [`Csr::validate`], enforced by constructors):
/// * `indptr.len() == n_rows + 1`, `indptr[0] == 0`, non-decreasing;
/// * `indices.len() == values.len() == indptr[n_rows]`;
/// * every column index `< n_cols`.
///
/// Column indices within a row are sorted by construction
/// (`from_edges` sorts), which makes equality and tests deterministic;
/// the kernels do not rely on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    n_rows: usize,
    n_cols: usize,
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds from an unordered edge list `(row, col, value)`.
    /// Duplicate `(row, col)` pairs have their values summed.
    pub fn from_edges(n_rows: usize, n_cols: usize, edges: &[(u32, u32, f32)]) -> Self {
        for &(r, c, _) in edges {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "edge ({r},{c}) out of bounds for {n_rows}x{n_cols}"
            );
        }
        let mut sorted: Vec<(u32, u32, f32)> = edges.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // merge duplicates
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if let Some(last) = merged.last_mut() {
                if last.0 == r && last.1 == c {
                    last.2 += v;
                    continue;
                }
            }
            merged.push((r, c, v));
        }
        let mut indptr = vec![0u32; n_rows + 1];
        for &(r, _, _) in &merged {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..n_rows {
            indptr[i + 1] += indptr[i];
        }
        let indices = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        let out = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        debug_assert!(out.validate().is_ok());
        out
    }

    /// Builds from raw CSR arrays, validating the invariants.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        indptr: Vec<u32>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, String> {
        let c = Self {
            n_rows,
            n_cols,
            indptr,
            indices,
            values,
        };
        c.validate()?;
        Ok(c)
    }

    /// Checks the CSR invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.n_rows + 1 {
            return Err(format!(
                "indptr length {} != n_rows+1 {}",
                self.indptr.len(),
                self.n_rows + 1
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        for w in self.indptr.windows(2) {
            if w[0] > w[1] {
                return Err("indptr not non-decreasing".into());
            }
        }
        let nnz = *self.indptr.last().unwrap() as usize;
        if self.indices.len() != nnz || self.values.len() != nnz {
            return Err(format!(
                "indices/values length {}/{} != nnz {}",
                self.indices.len(),
                self.values.len(),
                nnz
            ));
        }
        if let Some(&bad) = self.indices.iter().find(|&&c| c as usize >= self.n_cols) {
            return Err(format!("column index {} >= n_cols {}", bad, self.n_cols));
        }
        Ok(())
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Neighbour count of `row`.
    #[inline]
    pub fn degree(&self, row: usize) -> usize {
        (self.indptr[row + 1] - self.indptr[row]) as usize
    }

    /// Degrees of every row.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.n_rows).map(|r| self.degree(r)).collect()
    }

    /// Column indices of `row`.
    #[inline]
    pub fn row_indices(&self, row: usize) -> &[u32] {
        let (s, e) = (self.indptr[row] as usize, self.indptr[row + 1] as usize);
        &self.indices[s..e]
    }

    /// Values of `row`.
    #[inline]
    pub fn row_values(&self, row: usize) -> &[f32] {
        let (s, e) = (self.indptr[row] as usize, self.indptr[row + 1] as usize);
        &self.values[s..e]
    }

    /// Iterates `(row, col, value)` over all stored entries.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.n_rows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Transposed matrix (`n_cols x n_rows`). Counting sort; O(nnz).
    pub fn transpose(&self) -> Csr {
        let mut indptr = vec![0u32; self.n_cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.n_cols {
            indptr[i + 1] += indptr[i];
        }
        let mut cursor = indptr.clone();
        let nnz = self.nnz();
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0f32; nnz];
        for r in 0..self.n_rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let pos = cursor[c as usize] as usize;
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            indptr,
            indices,
            values,
        }
    }

    /// Returns a copy with each row's values scaled by `1/degree` — the
    /// paper's graph Laplacian norm `1/|N_u|` (Eq. 3, 8, 13). Rows with
    /// zero degree are untouched.
    pub fn row_normalized(&self) -> Csr {
        let mut out = self.clone();
        for r in 0..self.n_rows {
            let d = self.degree(r);
            if d == 0 {
                continue;
            }
            let inv = 1.0 / d as f32;
            let (s, e) = (out.indptr[r] as usize, out.indptr[r + 1] as usize);
            for v in &mut out.values[s..e] {
                *v *= inv;
            }
        }
        out
    }

    /// Dense SpMM: `out += self * dense`, where `dense` is row-major
    /// `n_cols x width` and `out` is row-major `n_rows x width`.
    ///
    /// The hot kernel of every GNN layer in the workspace. Each output
    /// row is split into 16-, 8- and 4-lane panels (then single
    /// columns); a panel is loaded from `out` into registers, gets
    /// `value * dense[col]` added for every stored entry of the row in
    /// CSR order, and is stored once. Per element that is exactly the
    /// additions of the plain entry-by-entry loop, so the result has the
    /// same bits on every [`SimdLevel`](nm_tensor::simd::SimdLevel) the
    /// kernel is dispatched to.
    ///
    /// # Panics
    /// If slice lengths don't match the shapes.
    pub fn spmm_accumulate(&self, dense: &[f32], width: usize, out: &mut [f32]) {
        assert_eq!(
            dense.len(),
            self.n_cols * width,
            "spmm: dense len {} != {}x{}",
            dense.len(),
            self.n_cols,
            width
        );
        assert_eq!(
            out.len(),
            self.n_rows * width,
            "spmm: out len {} != {}x{}",
            out.len(),
            self.n_rows,
            width
        );
        dispatch(Spmm {
            csr: self,
            dense,
            width,
            out,
        });
    }

    /// Dense SpMM into a fresh zeroed buffer.
    pub fn spmm(&self, dense: &[f32], width: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.n_rows * width];
        self.spmm_accumulate(dense, width, &mut out);
        out
    }

    /// Converts to a dense row-major buffer (tests / tiny graphs only).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut d = vec![0.0; self.n_rows * self.n_cols];
        for (r, c, v) in self.iter_edges() {
            d[r as usize * self.n_cols + c as usize] += v;
        }
        d
    }
}

/// `out += csr * dense` for [`Csr::spmm_accumulate`], whose asserts
/// fix the slice lengths.
struct Spmm<'a> {
    csr: &'a Csr,
    dense: &'a [f32],
    width: usize,
    out: &'a mut [f32],
}

impl Spmm<'_> {
    /// Adds row `r`'s entries into output lanes `j0..j0 + L`, held in
    /// registers across the row. Returns `L`.
    #[inline(always)]
    fn panel<const L: usize>(&mut self, r: usize, j0: usize) -> usize {
        let w = self.width;
        let o = r * w + j0;
        let mut acc = [0.0f32; L];
        acc.copy_from_slice(&self.out[o..o + L]);
        for (&c, &v) in self.csr.row_indices(r).iter().zip(self.csr.row_values(r)) {
            let d = c as usize * w + j0;
            for (a, &dv) in acc.iter_mut().zip(&self.dense[d..d + L]) {
                *a += v * dv;
            }
        }
        self.out[o..o + L].copy_from_slice(&acc);
        L
    }
}

impl SimdKernel for Spmm<'_> {
    type Output = ();

    #[inline(always)]
    fn run(mut self) {
        let w = self.width;
        for r in 0..self.csr.n_rows {
            let mut j0 = 0;
            while j0 < w {
                j0 += match w - j0 {
                    16.. => self.panel::<16>(r, j0),
                    8.. => self.panel::<8>(r, j0),
                    4.. => self.panel::<4>(r, j0),
                    _ => self.panel::<1>(r, j0),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nm_tensor::simd::SimdLevel;
    use nm_tensor::{Tensor, TensorRng};

    /// The entry-by-entry loop [`Spmm`] replaced: the bit-exactness
    /// oracle.
    fn reference_spmm_accumulate(m: &Csr, dense: &[f32], width: usize, out: &mut [f32]) {
        for r in 0..m.n_rows {
            let orow = &mut out[r * width..(r + 1) * width];
            for (&c, &v) in m.row_indices(r).iter().zip(m.row_values(r)) {
                let drow = &dense[c as usize * width..(c as usize + 1) * width];
                for (o, &d) in orow.iter_mut().zip(drow) {
                    *o += v * d;
                }
            }
        }
    }

    #[test]
    fn spmm_kernel_matches_reference_bit_for_bit_on_every_panel_tail() {
        let mut rng = TensorRng::seed_from(5);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (rows, cols) in [(1, 1), (5, 3), (67, 41)] {
            let mut edges = Vec::new();
            for r in 0..rows as u32 {
                // row 0 stays empty when there are several rows
                let deg = if rows > 1 && r == 0 {
                    0
                } else {
                    1 + rng.index(6)
                };
                for _ in 0..deg {
                    let v = rng.uniform(-1.0, 1.0);
                    edges.push((r, rng.index(cols) as u32, v));
                }
            }
            let m = Csr::from_edges(rows, cols, &edges);
            for width in [1, 3, 4, 7, 8, 9, 15, 16, 17, 33] {
                let mut dense = Tensor::randn(cols, width, 1.0, &mut rng);
                // ReLU-style zeros of either sign in the dense operand
                for (i, x) in dense.data_mut().iter_mut().enumerate() {
                    match i % 5 {
                        0 => *x = 0.0,
                        2 => *x = -0.0,
                        _ => {}
                    }
                }
                // a nonzero starting `out`, signed zeros included
                let mut init = Tensor::randn(rows, width, 1.0, &mut rng);
                init.data_mut()[0] = -0.0;
                let mut want = init.data().to_vec();
                reference_spmm_accumulate(&m, dense.data(), width, &mut want);
                let mut got = init.data().to_vec();
                m.spmm_accumulate(dense.data(), width, &mut got);
                assert_eq!(bits(&got), bits(&want), "{rows}x{cols} w {width}");
                for level in SimdLevel::ALL.into_iter().filter(|l| l.supported()) {
                    let mut got = init.data().to_vec();
                    level.run(Spmm {
                        csr: &m,
                        dense: dense.data(),
                        width,
                        out: &mut got,
                    });
                    assert_eq!(bits(&got), bits(&want), "{level:?} {rows}x{cols} w {width}");
                }
            }
        }
    }

    fn sample() -> Csr {
        // 3x4:
        // [1 0 2 0]
        // [0 0 0 0]
        // [0 3 0 4]
        Csr::from_edges(3, 4, &[(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 3, 4.0)])
    }

    #[test]
    fn from_edges_builds_valid_csr() {
        let c = sample();
        assert!(c.validate().is_ok());
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.degree(0), 2);
        assert_eq!(c.degree(1), 0);
        assert_eq!(c.row_indices(2), &[1, 3]);
        assert_eq!(c.row_values(2), &[3.0, 4.0]);
    }

    #[test]
    fn duplicate_edges_sum() {
        let c = Csr::from_edges(1, 2, &[(0, 1, 1.0), (0, 1, 2.5)]);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.row_values(0), &[3.5]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_edges_rejects_out_of_bounds() {
        let _ = Csr::from_edges(2, 2, &[(0, 2, 1.0)]);
    }

    #[test]
    fn transpose_matches_dense() {
        let c = sample();
        let t = c.transpose();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 3);
        // dense transpose comparison
        let d = c.to_dense();
        let dt = t.to_dense();
        for r in 0..3 {
            for cc in 0..4 {
                assert_eq!(d[r * 4 + cc], dt[cc * 3 + r]);
            }
        }
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let c = Csr::from_edges(2, 3, &[(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]);
        let n = c.row_normalized();
        assert!((n.row_values(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((n.row_values(1).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        let c = sample();
        // dense 4x2
        let dense: Vec<f32> = vec![1., 2., 3., 4., 5., 6., 7., 8.];
        let out = c.spmm(&dense, 2);
        // row0 = 1*[1,2] + 2*[5,6] = [11,14]; row1 = 0; row2 = 3*[3,4]+4*[7,8]=[37,44]
        assert_eq!(out, vec![11., 14., 0., 0., 37., 44.]);
    }

    #[test]
    fn from_raw_validation_catches_bad_indptr() {
        let r = Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn iter_edges_round_trips() {
        let c = sample();
        let edges: Vec<_> = c.iter_edges().collect();
        let c2 = Csr::from_edges(3, 4, &edges);
        assert_eq!(c, c2);
    }

    #[test]
    fn empty_rows_are_fine() {
        let c = Csr::from_edges(3, 3, &[]);
        assert_eq!(c.nnz(), 0);
        let out = c.spmm(&[1.0; 9], 3);
        assert_eq!(out, vec![0.0; 9]);
    }
}
