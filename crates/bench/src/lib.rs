//! Experiment harness.
//!
//! Every experiment id (E1–E11, A1–A2; see [`run_experiment`]) has a
//! function here that generates its workload, runs the algorithms and
//! returns printable rows. The `expts` binary prints them as tables; the Criterion benches in
//! `benches/` wrap the same functions for timing.
//!
//! Machine-readable cost trajectories live in [`trajectory`]: running
//! `cargo run -p bench --release --bin expts -- --quick-json` (or
//! `--full-json`) writes the `BENCH_*.json` artifacts to the repository
//! root. The JSON schemas are documented in [`trajectory`] and
//! golden-snapshot-tested so downstream consumers can rely on the field
//! names across PRs.
//!
//! The declarative load harness lives in [`load`]: scenario documents in
//! `scenarios/` drive a deterministic virtual-clock simulation of the
//! streaming service layer (`cargo run -p bench --bin load`), producing the
//! per-class latency percentiles and ramp-search results of
//! `BENCH_load.json`.

#![forbid(unsafe_code)]

pub mod load;
pub mod trajectory;

use bcc_core::prelude::*;
use bcc_core::{graph::generators, linalg::vector};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A generic table: header plus rows of equal length.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Experiment identifier (e.g. "E1").
    pub id: String,
    /// One-line description.
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {}", self.id, self.title)?;
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:>width$}  ", c, width = widths[i])?;
            }
            writeln!(f)
        };
        line(f, &self.header)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

fn fmt_f(v: f64) -> String {
    if v.abs() >= 1000.0 || (v != 0.0 && v.abs() < 0.01) {
        format!("{v:.2e}")
    } else {
        format!("{v:.3}")
    }
}

/// E1 — Lemma 3.1/3.2: spanner stretch, size and rounds versus `n` and `k`.
pub fn e1_spanner(sizes: &[usize], ks: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E1",
        "Baswana–Sen spanner: stretch ≤ 2k−1, |F⁺| = O(k·n^{1+1/k}), BC rounds",
        &["n", "m", "k", "edges", "bound", "stretch", "2k-1", "rounds"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &n in sizes {
        let g = generators::random_connected(n, 0.4, 8, &mut rng);
        for &k in ks {
            let mut net =
                Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
            let out = baswana_sen_spanner(
                &mut net,
                &g,
                SpannerParams {
                    k,
                    seed: seed + k as u64,
                },
            );
            let spanner = g.subgraph(&out.f_plus);
            let stretch =
                bcc_core::spanner::verify::max_stretch(&spanner, &g).unwrap_or(f64::INFINITY);
            let bound = bcc_core::spanner::verify::expected_size_bound(n, k, 2.0);
            table.push(vec![
                n.to_string(),
                g.m().to_string(),
                k.to_string(),
                out.f_plus.len().to_string(),
                fmt_f(bound),
                fmt_f(stretch),
                (2 * k - 1).to_string(),
                net.ledger().total_rounds().to_string(),
            ]);
        }
    }
    table
}

/// E2 — Lemma 3.3: ad-hoc vs a-priori sampling produce statistically
/// indistinguishable sparsifiers (edge-count and per-edge marginals).
pub fn e2_equivalence(trials: usize, seed: u64) -> Table {
    let mut table = Table::new(
        "E2",
        "Ad-hoc (Alg. 5) vs a-priori (Alg. 4) sampling: edge marginals over repeated runs",
        &["statistic", "ad-hoc", "a-priori", "abs diff"],
    );
    let g = generators::complete(14);
    let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 1.0, seed)
        .with_t(1)
        .with_k(2)
        .with_iterations(3);
    let mut size_adhoc = 0.0;
    let mut size_apriori = 0.0;
    let mut marg_adhoc = vec![0.0f64; g.m()];
    let mut marg_apriori = vec![0.0f64; g.m()];
    for t in 0..trials {
        let cfg_t = SparsifierConfig {
            seed: seed + 1000 + t as u64,
            ..cfg
        };
        let mut net1 =
            Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
        let adhoc = bcc_core::sparsifier::sparsify_ad_hoc(&mut net1, &g, &cfg_t);
        let mut net2 =
            Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
        let apriori = bcc_core::sparsifier::sparsify_a_priori(&mut net2, &g, &cfg_t);
        size_adhoc += adhoc.sparsifier.m() as f64 / trials as f64;
        size_apriori += apriori.sparsifier.m() as f64 / trials as f64;
        for &e in &adhoc.edge_origin {
            marg_adhoc[e] += 1.0 / trials as f64;
        }
        for &e in &apriori.edge_origin {
            marg_apriori[e] += 1.0 / trials as f64;
        }
    }
    let mean_marg_diff: f64 = marg_adhoc
        .iter()
        .zip(&marg_apriori)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
        / g.m() as f64;
    table.push(vec![
        "mean sparsifier size".into(),
        fmt_f(size_adhoc),
        fmt_f(size_apriori),
        fmt_f((size_adhoc - size_apriori).abs()),
    ]);
    table.push(vec![
        "mean per-edge keep probability".into(),
        fmt_f(marg_adhoc.iter().sum::<f64>() / g.m() as f64),
        fmt_f(marg_apriori.iter().sum::<f64>() / g.m() as f64),
        fmt_f(mean_marg_diff),
    ]);
    table
}

/// E3 — Theorem 1.2: sparsifier size, certified ε and BC rounds.
pub fn e3_sparsifier(sizes: &[usize], epsilons: &[f64], seed: u64) -> Table {
    let mut table = Table::new(
        "E3",
        "Spectral sparsifier (Alg. 5): size, certified (1±ε), Broadcast CONGEST rounds",
        &[
            "graph",
            "n",
            "m",
            "eps target",
            "|H|",
            "eps achieved",
            "rounds",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &n in sizes {
        let families: Vec<(&str, Graph)> = vec![
            (
                "erdos-renyi",
                generators::random_connected(n, 0.4, 8, &mut rng),
            ),
            ("barbell", generators::barbell(n / 2, 1)),
        ];
        for (name, g) in families {
            for &eps in epsilons {
                // Note: at these instance sizes the laboratory bundle size
                // t = Θ(log²n/ε²) already exceeds what is needed to swallow
                // the whole graph, so the sparsifier is exact (ε ≈ 0) and no
                // edge reduction is visible; the reduction regime is exercised
                // by E1/A1 and the bcc-sparsifier unit tests with smaller t.
                let cfg = SparsifierConfig::laboratory(g.n(), g.m().max(2), eps, seed);
                let mut net =
                    Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists())
                        .unwrap();
                let out = bcc_core::sparsifier::sparsify_ad_hoc(&mut net, &g, &cfg);
                let achieved = bcc_core::sparsifier::quality::achieved_epsilon(&g, &out.sparsifier);
                table.push(vec![
                    name.into(),
                    g.n().to_string(),
                    g.m().to_string(),
                    fmt_f(eps),
                    out.sparsifier.m().to_string(),
                    fmt_f(achieved),
                    net.ledger().total_rounds().to_string(),
                ]);
            }
        }
    }
    table
}

/// E4 — Theorem 1.3 / Corollary 2.4: Laplacian-solver iterations and error
/// versus the requested accuracy ε.
pub fn e4_laplacian(seed: u64) -> Table {
    let mut table = Table::new(
        "E4",
        "BCC Laplacian solver: O(log 1/ε) iterations, error ≤ ε in the L-norm",
        &["graph", "eps", "iterations", "solve rounds", "rel error"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for (name, g) in [
        ("grid 6x6", generators::grid(6, 6)),
        (
            "erdos-renyi n=40",
            generators::random_connected(40, 0.3, 8, &mut rng),
        ),
    ] {
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, seed)
            .with_t(6)
            .with_k(2);
        let mut net = Network::clique(ModelConfig::bcc(), g.n());
        let solver = LaplacianSolver::try_preprocess(&mut net, &g, &cfg)
            .expect("a connected graph on a matching network");
        let raw: Vec<f64> = (0..g.n()).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = vector::remove_mean(&raw);
        for eps in [0.5, 1e-2, 1e-4, 1e-8] {
            let solve = solver
                .try_solve(&mut net, &b, eps)
                .expect("a valid right-hand side");
            let err = solver.relative_error(&b, &solve.solution);
            table.push(vec![
                name.into(),
                fmt_f(eps),
                solve.iterations.to_string(),
                solve.rounds.to_string(),
                fmt_f(err),
            ]);
        }
    }
    table
}

/// E5 — Theorem 2.3: preconditioned Chebyshev needs O(√κ·log(1/ε)) iterations.
pub fn e5_chebyshev() -> Table {
    let mut table = Table::new(
        "E5",
        "Preconditioned Chebyshev: iterations vs κ and ε (prescribed count and measured error)",
        &["kappa", "eps", "iterations", "rel residual"],
    );
    for kappa in [2.0, 4.0, 16.0, 64.0] {
        for eps in [1e-2, 1e-6] {
            // Diagonal test pair: A = diag(uniform in [1, kappa]), B = kappa·I ⇒ A ≼ B ≼ κ·A.
            let n = 64;
            let mut rng = ChaCha8Rng::seed_from_u64(kappa as u64 + (1.0 / eps) as u64);
            let diag: Vec<f64> = (0..n)
                .map(|_| 1.0 + (kappa - 1.0) * rng.gen::<f64>())
                .collect();
            let b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let apply_a =
                |x: &[f64]| -> Vec<f64> { x.iter().zip(&diag).map(|(v, d)| v * d).collect() };
            let solve_b = |r: &[f64]| -> Vec<f64> { r.iter().map(|v| v / kappa).collect() };
            let result = bcc_core::linalg::chebyshev::preconditioned_chebyshev(
                apply_a, solve_b, kappa, &b, eps,
            );
            let rel = result.residual_norm / vector::norm2(&b);
            table.push(vec![
                fmt_f(kappa),
                fmt_f(eps),
                result.iterations.to_string(),
                fmt_f(rel),
            ]);
        }
    }
    table
}

/// E6 — Lemma 4.5: leverage-score approximation quality vs sketch accuracy η.
pub fn e6_leverage(seed: u64) -> Table {
    let mut table = Table::new(
        "E6",
        "Leverage scores via shared-seed JL sketches: mean relative error vs η",
        &[
            "m",
            "n",
            "eta",
            "sketch dim k",
            "mean rel err",
            "max rel err",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = 60;
    let n = 8;
    let mut triplets = Vec::new();
    for r in 0..m {
        for c in 0..n {
            if rng.gen::<f64>() < 0.5 {
                triplets.push((r, c, rng.gen::<f64>() * 2.0 - 1.0));
            }
        }
        triplets.push((r, r % n, 1.0 + rng.gen::<f64>()));
    }
    let a = bcc_core::linalg::CsrMatrix::from_triplets(m, n, &triplets);
    let scaled = bcc_core::lp::ScaledMatrix::new(&a, vec![1.0; m]);
    let exact = bcc_core::lp::leverage::exact_leverage_scores(&scaled);
    for eta in [0.75, 0.5, 0.25] {
        let mut net = Network::clique(ModelConfig::bcc(), n);
        let options = bcc_core::lp::leverage::LeverageOptions::new(eta, seed);
        let approx = bcc_core::lp::leverage::compute_leverage_scores(
            &mut net,
            &scaled,
            &options,
            &bcc_core::lp::DenseGramSolver::new(),
        )
        .expect("dense gram solves of a full-rank sketch matrix succeed");
        let rels: Vec<f64> = exact
            .iter()
            .zip(&approx)
            .filter(|(e, _)| **e > 1e-9)
            .map(|(e, ap)| (e - ap).abs() / e)
            .collect();
        let mean = rels.iter().sum::<f64>() / rels.len() as f64;
        let max = rels.iter().cloned().fold(0.0f64, f64::max);
        let k = bcc_core::linalg::JlSketch::dimension_for(m, eta);
        table.push(vec![
            m.to_string(),
            n.to_string(),
            fmt_f(eta),
            k.to_string(),
            fmt_f(mean),
            fmt_f(max),
        ]);
    }
    table
}

/// E7 — Lemma 4.10: mixed-norm-ball projection optimality and round counts.
pub fn e7_mixed_ball(seed: u64) -> Table {
    let mut table = Table::new(
        "E7",
        "Mixed-norm-ball projection: value vs best random feasible point, rounds vs m",
        &["m", "projection value", "best random value", "rounds"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for m in [16usize, 128, 1024, 4096] {
        let a: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let l: Vec<f64> = (0..m).map(|_| 0.05 + rng.gen::<f64>()).collect();
        let mut net = Network::clique(ModelConfig::bcc(), 64);
        let projection = bcc_core::lp::project_mixed_ball(&mut net, &a, &l);
        let mut best_random: f64 = 0.0;
        for _ in 0..200 {
            let dir: Vec<f64> = (0..m).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            let norm = vector::norm2(&dir);
            let inf: f64 = dir
                .iter()
                .zip(&l)
                .map(|(x, li)| x.abs() / li)
                .fold(0.0, f64::max);
            let scale = 0.999 / (norm + inf).max(1e-12);
            let value: f64 = dir.iter().zip(&a).map(|(d, ai)| d * scale * ai).sum();
            best_random = best_random.max(value);
        }
        table.push(vec![
            m.to_string(),
            fmt_f(projection.value),
            fmt_f(best_random),
            net.ledger().total_rounds().to_string(),
        ]);
    }
    table
}

/// E8 / A2 — Theorem 1.4: LP path-following iteration counts, Lewis vs
/// uniform weights, as the instance grows.
pub fn e8_lp_iterations(sizes: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E8",
        "LP solver iterations: Lewis weights (√n shape) vs uniform weights (√m shape)",
        &[
            "|V|",
            "n (constraints)",
            "m (vars)",
            "iters Lewis",
            "iters uniform",
            "sqrt n",
            "sqrt m",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &v in sizes {
        let instance = generators::random_flow_instance(v, 0.3, 3, &mut rng);
        let flow_lp =
            bcc_core::flow::build_flow_lp(&instance, &bcc_core::flow::FlowLpConfig::default());
        let solver = bcc_core::flow::SddGramSolver::new(1e-8);
        let mut iterations = Vec::new();
        for uniform in [false, true] {
            let mut options = LpOptions::new(1e-2, flow_lp.lp.m(), seed);
            if uniform {
                options = options.with_uniform_weights();
            } else {
                let mut lewis = bcc_core::lp::lewis::LewisOptions::laboratory(flow_lp.lp.m(), seed);
                lewis.iterations = 4;
                lewis.max_sketch_dimension = Some(8);
                options.strategy =
                    bcc_core::lp::WeightStrategy::RegularizedLewis { options: lewis };
                options.path.weight_refresh_sweeps = 1;
            }
            let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
            let solution = try_lp_solve(
                &mut net,
                &flow_lp.lp,
                &flow_lp.interior_point,
                &options,
                &solver,
            )
            .expect("the flow LP starts at its interior point");
            iterations.push(solution.path_iterations());
        }
        table.push(vec![
            v.to_string(),
            flow_lp.lp.n().to_string(),
            flow_lp.lp.m().to_string(),
            iterations[0].to_string(),
            iterations[1].to_string(),
            fmt_f((flow_lp.lp.n() as f64).sqrt()),
            fmt_f((flow_lp.lp.m() as f64).sqrt()),
        ]);
    }
    table
}

/// E9 — Theorem 1.1: exact min-cost max-flow vs the SSP baseline, with round
/// counts.
pub fn e9_flow(sizes: &[usize], seed: u64) -> Table {
    let mut table = Table::new(
        "E9",
        "Min-cost max-flow (BCC) vs SSP baseline: exactness and rounds",
        &[
            "|V|",
            "|E|",
            "value bcc",
            "value ssp",
            "cost bcc",
            "cost ssp",
            "exact",
            "rounds",
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for &v in sizes {
        let instance = generators::random_flow_instance(v, 0.25, 3, &mut rng);
        let baseline = ssp_min_cost_max_flow(&instance);
        let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
        let result = bcc_core::flow::try_min_cost_max_flow_bcc(
            &mut net,
            &instance,
            &McmfOptions {
                seed,
                ..McmfOptions::default()
            },
        )
        .expect("a non-empty flow instance");
        let exact = result.flow.value == baseline.value && result.flow.cost == baseline.cost;
        table.push(vec![
            v.to_string(),
            instance.graph.m().to_string(),
            result.flow.value.to_string(),
            baseline.value.to_string(),
            result.flow.cost.to_string(),
            baseline.cost.to_string(),
            exact.to_string(),
            result.rounds.to_string(),
        ]);
    }
    table
}

/// E10 — the Figure-1 pipeline end-to-end with its per-phase round breakdown,
/// every stage run on one shared [`bcc_core::Session`].
pub fn e10_pipeline(seed: u64) -> Table {
    let mut table = Table::new(
        "E10",
        "Figure-1 pipeline: per-stage round counts on one seeded instance",
        &["stage", "rounds"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut session = bcc_core::Session::builder().seed(seed).build();
    let g = generators::random_connected(32, 0.3, 4, &mut rng);

    let sparsify = session
        .sparsify(&g, 0.5)
        .unwrap_or_else(|e| panic!("sparsify rejected its input: {e}"));
    table.push(vec![
        "spectral sparsifier (BC)".into(),
        sparsify.report.total_rounds.to_string(),
    ]);

    let mut b = vec![0.0; g.n()];
    b[0] = 1.0;
    b[g.n() - 1] = -1.0;
    let mut prepared = session
        .laplacian(&g)
        .epsilon(1e-6)
        .preprocess()
        .unwrap_or_else(|e| panic!("laplacian rejected its graph: {e}"));
    prepared
        .solve(&b)
        .unwrap_or_else(|e| panic!("laplacian rejected its right-hand side: {e}"));
    // The row charges preprocessing plus the one solve.
    let laplacian = prepared.finish(&mut session);
    table.push(vec![
        "laplacian solver (BCC)".into(),
        laplacian.total_rounds.to_string(),
    ]);

    let instance = generators::random_flow_instance(6, 0.3, 3, &mut rng);
    let flow = session
        .min_cost_max_flow(&instance)
        .unwrap_or_else(|e| panic!("min-cost max-flow rejected its input: {e}"));
    table.push(vec![
        "min-cost max-flow (BCC)".into(),
        flow.report.total_rounds.to_string(),
    ]);
    table.push(vec![
        "  of which LP path iterations".into(),
        flow.value.path_iterations.to_string(),
    ]);
    table.push(vec![
        "session cumulative".into(),
        session.cumulative_report().total_rounds.to_string(),
    ]);
    table
}

/// E11 — batch serving: one mixed workload served as two scopes of one
/// `StreamEngine`, cold (every distinct topology pays sparsifier
/// preprocessing) and warm (the fingerprint-keyed cache serves every
/// prepared solver), with the amortization visible in the round totals.
pub fn e11_batch(seed: u64, quick: bool) -> Table {
    let mut table = Table::new(
        "E11",
        "Batch serving: cold vs warm cache on one mixed workload (rounds, cache traffic)",
        &[
            "run",
            "requests",
            "failures",
            "cache hits",
            "cache misses",
            "preprocessing rounds",
            "total rounds",
        ],
    );
    let t = trajectory::batch_trajectory(seed, quick);
    for (name, report) in [("cold", &t.cold), ("warm", &t.warm)] {
        let preprocessing: u64 = report
            .preprocessing
            .iter()
            .filter(|p| !p.cached)
            .map(|p| p.report.total_rounds)
            .sum();
        table.push(vec![
            name.into(),
            report.requests.to_string(),
            report.failures.to_string(),
            report.cache_hits.to_string(),
            report.cache_misses.to_string(),
            preprocessing.to_string(),
            report.total.total_rounds.to_string(),
        ]);
    }
    table
}

/// A1 — ablation: fixed `t` (Kyng et al.) vs growing `t` (original Koutis–Xu)
/// bundle sizes.
pub fn a1_bundle_ablation(seed: u64) -> Table {
    let mut table = Table::new(
        "A1",
        "Ablation: sparsifier size with fixed t (Kyng et al.) vs t growing per iteration (Koutis–Xu)",
        &["n", "m", "|H| fixed t", "|H| growing t"],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for n in [24usize, 40] {
        let g = generators::random_connected(n, 0.5, 4, &mut rng);
        let base = SparsifierConfig::laboratory(g.n(), g.m(), 1.0, seed)
            .with_t(2)
            .with_k(3);
        let mut net1 =
            Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
        let fixed = bcc_core::sparsifier::sparsify_ad_hoc(&mut net1, &g, &base);
        // "Growing t": emulate Koutis–Xu by using t scaled with the iteration
        // count (a larger constant bundle here).
        let grown = SparsifierConfig {
            t: base.t * base.iterations.max(1),
            ..base
        };
        let mut net2 =
            Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
        let growing = bcc_core::sparsifier::sparsify_ad_hoc(&mut net2, &g, &grown);
        table.push(vec![
            n.to_string(),
            g.m().to_string(),
            fixed.sparsifier.m().to_string(),
            growing.sparsifier.m().to_string(),
        ]);
    }
    table
}

/// Runs an experiment by its identifier ("e1" … "e11", "a1", "a2", "all"),
/// using quick default parameters.
pub fn run_experiment(id: &str, quick: bool) -> Vec<Table> {
    let seed = 2022;
    match id.to_ascii_lowercase().as_str() {
        "e1" => vec![e1_spanner(
            if quick { &[32, 64] } else { &[64, 128, 256] },
            &[2, 3, 4],
            seed,
        )],
        "e2" => vec![e2_equivalence(if quick { 40 } else { 400 }, seed)],
        "e3" => vec![e3_sparsifier(
            if quick { &[24, 40] } else { &[64, 128] },
            &[0.5, 1.0],
            seed,
        )],
        "e4" => vec![e4_laplacian(seed)],
        "e5" => vec![e5_chebyshev()],
        "e6" => vec![e6_leverage(seed)],
        "e7" => vec![e7_mixed_ball(seed)],
        "e8" | "a2" => vec![e8_lp_iterations(
            if quick { &[5, 6] } else { &[5, 6, 8] },
            seed,
        )],
        "e9" => vec![e9_flow(if quick { &[5, 6] } else { &[5, 6, 8] }, seed)],
        "e10" => vec![e10_pipeline(seed)],
        "e11" => vec![e11_batch(seed, quick)],
        "a1" => vec![a1_bundle_ablation(seed)],
        "all" => {
            let mut tables = Vec::new();
            for id in [
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "a1",
            ] {
                tables.extend(run_experiment(id, quick));
            }
            tables
        }
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_rows() {
        for id in ["e5", "e7"] {
            let tables = run_experiment(id, true);
            assert!(!tables.is_empty());
            for t in tables {
                assert!(!t.rows.is_empty());
                let printed = format!("{t}");
                assert!(printed.contains(&t.id));
            }
        }
    }

    #[test]
    #[should_panic]
    fn unknown_experiment_panics() {
        let _ = run_experiment("e99", true);
    }
}
