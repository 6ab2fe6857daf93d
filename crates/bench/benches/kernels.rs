//! Criterion micro-benches for the allocation-free kernel hot paths.
//!
//! Each linear-algebra kernel is measured in both its allocating wrapper
//! form and its `_into`/scratch form on identical inputs, so the per-call
//! allocation overhead is directly visible in the report. The Laplacian
//! solve benchmark contrasts a cold scratch arena (rebuilt per request, as a
//! naive server would) against a warm per-worker arena — the hot loop the
//! serving engines actually run. The Gram-oracle benchmark contrasts ten
//! right-hand sides solved in lockstep against ten single solves. The
//! LU-replay benchmark times the preconditioner solve alone, for one lane
//! and for the ten-lane instance, on a sparse and a nearly dense factor. The
//! cold-preprocessing benchmark times one Laplacian build at the session's
//! sparsifier configuration, and the sparsifier alone on the graph shape of a
//! `served_mix` cache miss and on a graph it thins; the spanner benchmark
//! times a Baswana–Sen spanner and one probabilistic spanner of the
//! sparsifier's bundles.

use bcc_core::graph::{generators, laplacian};
use bcc_core::laplacian::{ScratchArena, SddMatrix};
use bcc_core::linalg::{cg, chebyshev, vector, CsrMatrix, DenseMatrix, SolveScratch};
use bcc_core::prelude::*;
use bcc_core::spanner::probabilistic_spanner;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A diagonally dominant SPD matrix in CSR form (Laplacian of a random
/// connected graph plus the identity), with a matching right-hand side.
fn spd_system(n: usize, seed: u64) -> (CsrMatrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generators::random_connected(n, 0.2, 4, &mut rng);
    let mut triplets = laplacian::laplacian_triplets(&g);
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

fn bench_chebyshev_block(c: &mut Criterion) {
    // The Gram oracle's shape: ten sketch right-hand sides [b; −b] of one
    // 4×4 SDD system, solved on its 8-vertex Gremban graph with the exact
    // preconditioner at ε = 1e-8. `lockstep` is one block solve of all ten
    // (one group of the ten-lane kernels), `single` ten `try_solve_into`
    // calls (the one-lane kernels); both reuse warm buffers.
    const LANES: usize = 10;
    let matrix = SddMatrix::from_triplets(
        4,
        [
            (0, 0, 3.0),
            (1, 1, 4.0),
            (2, 2, 2.5),
            (3, 3, 5.0),
            (0, 1, -1.0),
            (1, 2, -1.5),
            (2, 3, 0.5),
            (0, 3, -2.0),
        ],
    )
    .expect("a diagonally dominant matrix");
    let gremban = matrix.gremban_graph();
    let solver = LaplacianSolver::try_exact_preconditioner(&gremban).expect("a connected graph");
    let mut rng = ChaCha8Rng::seed_from_u64(29);
    let rhs: Vec<Vec<f64>> = (0..LANES)
        .map(|_| {
            let b: Vec<f64> = (0..4).map(|_| rng.gen::<f64>() - 0.5).collect();
            b.iter().copied().chain(b.iter().map(|v| -v)).collect()
        })
        .collect();
    let mut block = vec![0.0; gremban.n() * LANES];
    for (j, b) in rhs.iter().enumerate() {
        for (i, &v) in b.iter().enumerate() {
            block[i * LANES + j] = v;
        }
    }
    let mut net = Network::clique(ModelConfig::bcc(), gremban.n());
    let mut arena = ScratchArena::with_dimension(block.len());
    let mut out = Vec::with_capacity(block.len());
    let mut stats = Vec::with_capacity(LANES);
    let mut group = c.benchmark_group("chebyshev_block");
    group.sample_size(20);
    group.bench_function("lockstep", |bench| {
        bench.iter(|| {
            solver
                .try_solve_block_into(
                    &mut net,
                    black_box(&block),
                    LANES,
                    1e-8,
                    &mut arena,
                    &mut out,
                    &mut stats,
                )
                .expect("well-formed solve")
        })
    });
    group.bench_function("single", |bench| {
        bench.iter(|| {
            for b in &rhs {
                solver
                    .try_solve_into(&mut net, black_box(b), 1e-8, &mut arena, &mut out)
                    .expect("well-formed solve");
            }
        })
    });
    group.finish();
}

fn bench_lu_replay(c: &mut Criterion) {
    // The preconditioner solve inside every Chebyshev iteration: one replay
    // of the LU factors of `1.5·L + λI`, for one right-hand side and for a
    // ten-lane block (the replay's `L = 10` instance, as a lockstep group
    // runs it). The 12×12 grid's factors are sparse (15% of `U`
    // filled); a random connected graph on 256 vertices, drawn like
    // `perfbench`'s heavy `solve_warm` graph, fills about 89% and is the
    // control.
    const LANES: usize = 10;
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let graphs = [
        ("grid_12x12", generators::grid(12, 12)),
        (
            "random_256",
            generators::random_connected(256, 0.05, 8, &mut rng),
        ),
    ];
    let mut group = c.benchmark_group("lu_replay");
    group.sample_size(20);
    for (name, graph) in &graphs {
        let n = graph.n();
        let factored = DenseMatrix::from_rows(&laplacian::laplacian_dense(
            &graph.map_weights(|e| 1.5 * e.weight),
        ))
        .factor_psd()
        .expect("the Laplacian of a connected graph factors");
        let raw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = vector::remove_mean(&raw);
        let block: Vec<f64> = (0..n * LANES).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut out = vec![0.0; n];
        group.bench_function(format!("{name}/solve_into"), |bench| {
            bench.iter(|| factored.solve_into(black_box(&b), &mut out, true))
        });
        let mut block_out = vec![0.0; n * LANES];
        group.bench_function(format!("{name}/block_{LANES}"), |bench| {
            bench.iter(|| {
                factored.solve_lanes_into::<LANES>(black_box(&block), &mut block_out, true)
            })
        });
    }
    group.finish();
}

/// The Laplacian graph of a `served_mix` cache miss: a random connected
/// graph on 100 vertices, drawn as `perfbench`'s rotating graphs are.
fn served_mix_miss_graph() -> Graph {
    generators::random_connected(100, 0.1, 8, &mut ChaCha8Rng::seed_from_u64(100))
}

fn bench_cold_preprocess(c: &mut Criterion) {
    // One cold Laplacian build as `Session::laplacian` runs it (sparsifier
    // at t = 6, k = 2, then the preconditioner's LU factors) on the 12×12
    // grid, on a random connected graph drawn like `perfbench`'s heavy
    // `solve_warm` graph, and on one shaped like `served_mix`'s rotating
    // graphs, whose every cache miss runs this build: the sparsifier returns
    // all three unchanged, so none needs the κ certificate. The sparsifier
    // alone is timed on the `served_mix` shape and on `complete(128)`, a
    // graph it thins.
    const SEED: u64 = 2022;
    let session_config = |g: &Graph| {
        SparsifierConfig::laboratory(g.n(), g.m().max(2), 0.5, SEED)
            .with_t(6)
            .with_k(2)
    };
    let mut rng = ChaCha8Rng::seed_from_u64(37);
    let graphs = [
        ("grid_12x12", generators::grid(12, 12)),
        (
            "random_256",
            generators::random_connected(256, 0.05, 8, &mut rng),
        ),
        ("random_100", served_mix_miss_graph()),
    ];
    let mut group = c.benchmark_group("cold_preprocess");
    group.sample_size(10);
    for (name, graph) in &graphs {
        let config = session_config(graph);
        group.bench_function(format!("{name}/try_preprocess"), |bench| {
            bench.iter(|| {
                let mut net = Network::clique(ModelConfig::bcc(), graph.n());
                LaplacianSolver::try_preprocess(&mut net, black_box(graph), &config)
                    .expect("a connected graph on a matching network")
            })
        });
    }
    for (name, graph) in [
        ("random_100", served_mix_miss_graph()),
        ("complete_128", generators::complete(128)),
    ] {
        let config = session_config(&graph);
        group.bench_function(format!("{name}/sparsify_ad_hoc"), |bench| {
            bench.iter(|| {
                let mut net = Network::clique(ModelConfig::bcc(), graph.n());
                sparsify_ad_hoc(&mut net, black_box(&graph), &config)
            })
        });
    }
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
    // One spanner of the sparsifier's bundles on the `served_mix` miss graph:
    // k = 2 with every edge at probability ½, so `Connect` samples edges out.
    let g = served_mix_miss_graph();
    let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
    let half = vec![0.5; g.m()];
    let active = vec![true; g.m()];
    group.bench_function("random_100/probabilistic_k2", |bench| {
        bench.iter(|| {
            let mut net =
                Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
            probabilistic_spanner(
                &mut net,
                black_box(&g),
                &weights,
                &half,
                &active,
                SpannerParams { k: 2, seed: 19 },
            )
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
    bench_chebyshev_block,
    bench_lu_replay,
    bench_cold_preprocess,
    bench_spanner,
    bench_leverage
);
criterion_main!(benches);
