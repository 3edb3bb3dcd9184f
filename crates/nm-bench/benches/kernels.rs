//! Timing benchmarks for the substrate's hot kernels: dense matmul
//! (including NMCDR's tall-skinny shapes), CSR SpMM, row
//! gather/scatter, softmax, blocked serving vecmat, and one full
//! autograd forward+backward of an NMCDR-shaped block.

use nm_bench::timing::{bench, black_box};
use nm_graph::Csr;
use nm_tensor::{Tensor, TensorRng};
use std::rc::Rc;

fn bench_matmul() {
    let mut rng = TensorRng::seed_from(1);
    let a = Tensor::randn(256, 64, 1.0, &mut rng);
    let b = Tensor::randn(64, 64, 1.0, &mut rng);
    bench("matmul_256x64x64", || black_box(a.matmul(&b)));
    bench("matmul_tn_256x64x64", || black_box(a.matmul_tn(&a)));
    // NMCDR's shapes: a batch or a whole embedding table times a
    // 16 x 16 weight, and the two backward products of each.
    for (r, k) in [(512, 32), (3000, 16)] {
        let x = Tensor::randn(r, k, 1.0, &mut rng).relu();
        let w = Tensor::randn(k, 16, 1.0, &mut rng);
        let g = Tensor::randn(r, 16, 1.0, &mut rng);
        bench(&format!("matmul_{r}x{k}x16"), || black_box(x.matmul(&w)));
        bench(&format!("matmul_tn_{r}x{k}x16"), || {
            black_box(x.matmul_tn(&g))
        });
        bench(&format!("matmul_nt_{r}x16x{k}"), || {
            black_box(g.matmul_nt(&w))
        });
    }
}

fn bench_vecmat() {
    let mut rng = TensorRng::seed_from(8);
    let table = Tensor::randn(4096, 64, 1.0, &mut rng);
    let u = Tensor::randn(1, 64, 1.0, &mut rng);
    bench("vecmat_blocked_1x64_4096x64t", || {
        black_box(nm_tensor::vecmat_nt_blocked(
            u.data(),
            table.data(),
            4096,
            64,
            None,
        ))
    });
}

fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> Csr {
    let mut rng = TensorRng::seed_from(seed);
    let mut edges = Vec::with_capacity(rows * nnz_per_row);
    for r in 0..rows {
        for _ in 0..nnz_per_row {
            edges.push((r as u32, rng.index(cols) as u32, 1.0));
        }
    }
    Csr::from_edges(rows, cols, &edges).row_normalized()
}

fn bench_spmm() {
    let adj = random_csr(2000, 1000, 10, 2);
    let mut rng = TensorRng::seed_from(3);
    let dense = Tensor::randn(1000, 32, 1.0, &mut rng);
    bench("spmm_2000x1000_nnz10_w32", || {
        black_box(adj.spmm(dense.data(), 32))
    });
    for w in [16, 8] {
        let dense = Tensor::randn(1000, w, 1.0, &mut rng);
        bench(&format!("spmm_2000x1000_nnz10_w{w}"), || {
            black_box(adj.spmm(dense.data(), w))
        });
    }
    bench("csr_transpose_2000x1000", || black_box(adj.transpose()));
}

fn bench_gather_scatter() {
    let mut rng = TensorRng::seed_from(4);
    let table = Tensor::randn(5000, 32, 1.0, &mut rng);
    let idx: Vec<u32> = (0..2048).map(|i| (i * 7) % 5000).collect();
    bench("gather_rows_2048_of_5000x32", || {
        black_box(table.gather_rows(&idx))
    });
    let src = table.gather_rows(&idx);
    bench("scatter_add_rows_2048_into_5000x32", || {
        let mut acc = Tensor::zeros(5000, 32);
        acc.scatter_add_rows(&idx, &src);
        black_box(acc)
    });
}

fn bench_softmax() {
    let mut rng = TensorRng::seed_from(5);
    let x = Tensor::randn(1000, 16, 2.0, &mut rng);
    bench("softmax_rows_1000x16", || black_box(x.softmax_rows()));
}

fn bench_autograd_block() {
    // An NMCDR-shaped block: spmm -> linear -> relu -> gate -> bce,
    // forward + backward on the tape.
    let adj = Rc::new(random_csr(1000, 500, 8, 6));
    let adj_t = Rc::new(adj.transpose());
    let mut rng = TensorRng::seed_from(7);
    let x0 = Tensor::randn(500, 32, 0.5, &mut rng);
    let w = Tensor::randn(32, 32, 0.2, &mut rng);
    let targets = Rc::new(Tensor::rand_uniform(1000, 1, 0.0, 1.0, &mut rng).map(|v| v.round()));
    bench("autograd_gnn_block_fwd_bwd", || {
        let mut tape = nm_autograd::Tape::new();
        let x = tape.leaf(x0.clone());
        let wv = tape.leaf(w.clone());
        let agg = tape.spmm(Rc::clone(&adj), Rc::clone(&adj_t), x);
        let lin = tape.matmul(agg, wv);
        let act = tape.relu(lin);
        let gate = tape.sigmoid(act);
        let gated = tape.mul(act, gate);
        let score = tape.sum_axis_cols(gated);
        let loss = tape.bce_with_logits_mean(score, Rc::clone(&targets));
        tape.backward(loss);
        black_box(tape.grad(x).is_some())
    });
}

fn main() {
    bench_matmul();
    bench_vecmat();
    bench_spmm();
    bench_gather_scatter();
    bench_softmax();
    bench_autograd_block();
}
