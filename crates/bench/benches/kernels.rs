//! Criterion micro-benches for the allocation-free kernel hot paths.
//!
//! Each linear-algebra kernel is measured in both its allocating wrapper
//! form and its `_into`/scratch form on identical inputs, so the per-call
//! allocation overhead is directly visible in the report. The Laplacian
//! solve benchmark contrasts a cold scratch arena (rebuilt per request, as a
//! naive server would) against a warm per-worker arena — the hot loop the
//! serving engines actually run.

use bcc_core::graph::generators;
use bcc_core::laplacian::ScratchArena;
use bcc_core::linalg::{cg, chebyshev, vector, CsrMatrix, SolveScratch};
use bcc_core::prelude::*;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A diagonally dominant SPD matrix in CSR form (Laplacian of a random
/// connected graph plus the identity), with a matching right-hand side.
fn spd_system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generators::random_connected(n, 0.2, 4, &mut rng);
    let mut triplets = bcc_core::graph::laplacian::laplacian_triplets(&g);
    for i in 0..n {
        triplets.push((i, i, 1.0));
    }
    let a = CsrMatrix::from_triplets(n, n, &triplets);
    let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    (a, b)
}

fn bench_matvec(c: &mut Criterion) {
    let (a, x) = spd_system(256, 7);
    let mut group = c.benchmark_group("csr_matvec");
    group.sample_size(50);
    group.bench_function("alloc", |bench| bench.iter(|| a.matvec(black_box(&x))));
    let mut y = vec![0.0; a.rows()];
    group.bench_function("into", |bench| {
        bench.iter(|| a.matvec_into(black_box(&x), &mut y))
    });
    group.finish();
}

fn bench_cg(c: &mut Criterion) {
    let (a, b) = spd_system(128, 11);
    let mut group = c.benchmark_group("cg_solve");
    group.sample_size(20);
    group.bench_function("alloc", |bench| {
        bench.iter(|| cg::conjugate_gradient(|x| a.matvec(x), black_box(&b), None, 1e-10, 400))
    });
    let mut scratch = SolveScratch::with_dimension(b.len());
    group.bench_function("scratch", |bench| {
        bench.iter(|| {
            cg::conjugate_gradient_with(
                |x, out| a.matvec_into(x, out),
                black_box(&b),
                None,
                1e-10,
                400,
                &mut scratch,
            )
        })
    });
    group.finish();
}

fn bench_chebyshev(c: &mut Criterion) {
    // The E5 diagonal test pair: A = diag(uniform in [1, κ]), B = κ·I.
    let n = 256;
    let kappa = 16.0;
    let iterations = 40;
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let diag: Vec<f64> = (0..n)
        .map(|_| 1.0 + (kappa - 1.0) * rng.gen::<f64>())
        .collect();
    let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mut group = c.benchmark_group("chebyshev_solve");
    group.sample_size(20);
    group.bench_function("alloc", |bench| {
        bench.iter(|| {
            chebyshev::preconditioned_chebyshev_fixed(
                |x| x.iter().zip(&diag).map(|(v, d)| v * d).collect(),
                |r| r.iter().map(|v| v / kappa).collect(),
                kappa,
                black_box(&b),
                iterations,
            )
        })
    });
    let mut scratch = SolveScratch::with_dimension(n);
    group.bench_function("scratch", |bench| {
        bench.iter(|| {
            chebyshev::preconditioned_chebyshev_fixed_with(
                |x, out| {
                    for ((o, v), d) in out.iter_mut().zip(x).zip(&diag) {
                        *o = v * d;
                    }
                },
                |r, out| {
                    for (o, v) in out.iter_mut().zip(r) {
                        *o = v / kappa;
                    }
                },
                kappa,
                black_box(&b),
                iterations,
                &mut scratch,
            )
        })
    });
    group.finish();
}

fn bench_laplacian_solve(c: &mut Criterion) {
    // The serving hot loop at fixed output: preprocessing runs once, then
    // repeated solves against the prepared solver. `cold_arena` rebuilds the
    // scratch arena per request; `warm_arena` reuses one arena plus one
    // output buffer the way a serving worker does.
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let g = generators::random_connected(40, 0.3, 8, &mut rng);
    let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 17)
        .with_t(6)
        .with_k(2);
    let mut net = Network::clique(ModelConfig::bcc(), g.n());
    let solver = LaplacianSolver::try_preprocess(&mut net, &g, &cfg)
        .expect("a connected graph on a matching network");
    let raw: Vec<f64> = (0..g.n()).map(|_| rng.gen::<f64>() - 0.5).collect();
    let b = vector::remove_mean(&raw);
    let mut group = c.benchmark_group("laplacian_solve");
    group.sample_size(20);
    group.bench_function("cold_arena", |bench| {
        bench.iter(|| {
            solver
                .try_solve(&mut net, black_box(&b), 1e-8)
                .expect("well-formed solve")
        })
    });
    let mut arena = ScratchArena::with_dimension(g.n());
    let mut out = vec![0.0; g.n()];
    group.bench_function("warm_arena", |bench| {
        bench.iter(|| {
            let mut buffer = std::mem::take(&mut out);
            let stats = solver
                .try_solve_into(&mut net, black_box(&b), 1e-8, &mut arena, &mut buffer)
                .expect("well-formed solve");
            out = buffer;
            stats
        })
    });
    group.finish();
}

fn bench_spanner(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let g = generators::random_connected(64, 0.4, 8, &mut rng);
    let mut group = c.benchmark_group("spanner_construction");
    group.sample_size(10);
    group.bench_function("baswana_sen_k3", |bench| {
        bench.iter(|| {
            let mut net =
                Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
            baswana_sen_spanner(&mut net, black_box(&g), SpannerParams { k: 3, seed: 19 })
        })
    });
    group.finish();
}

fn bench_leverage(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let m = 48;
    let n = 8;
    let mut triplets = Vec::new();
    for r in 0..m {
        for col in 0..n {
            if rng.gen::<f64>() < 0.5 {
                triplets.push((r, col, rng.gen::<f64>() * 2.0 - 1.0));
            }
        }
        triplets.push((r, r % n, 1.0 + rng.gen::<f64>()));
    }
    let a = CsrMatrix::from_triplets(m, n, &triplets);
    let scaled = bcc_core::lp::ScaledMatrix::new(&a, vec![1.0; m]);
    let options = bcc_core::lp::leverage::LeverageOptions::new(0.5, 23);
    let mut group = c.benchmark_group("leverage_scores");
    group.sample_size(10);
    group.bench_function("jl_sketched", |bench| {
        bench.iter(|| {
            let mut net = Network::clique(ModelConfig::bcc(), n);
            bcc_core::lp::leverage::compute_leverage_scores(
                &mut net,
                black_box(&scaled),
                &options,
                &bcc_core::lp::DenseGramSolver::new(),
            )
            .expect("full-rank sketch")
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matvec,
    bench_cg,
    bench_chebyshev,
    bench_laplacian_solve,
    bench_spanner,
    bench_leverage
);
criterion_main!(benches);
