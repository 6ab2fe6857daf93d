//! `SddGramSolver::solve_many` prepares one Gram matrix and one Gremban
//! preconditioner for a whole batch of right-hand sides and solves them in
//! lockstep. It must return the same bits and charge the same ledger as
//! solving them one at a time, in both SDD solve modes.

use bcc_flow::{build_flow_lp, FlowLp, FlowLpConfig, SddGramSolver};
use bcc_graph::generators;
use bcc_laplacian::{LaplacianSolver, ScratchArena, SddMatrix, SddSolveMode};
use bcc_linalg::CsrMatrix;
use bcc_lp::GramSolver;
use bcc_runtime::{ModelConfig, Network};
use bcc_sparsifier::SparsifierConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const INSTANCES: u64 = 16;
const RIGHT_HAND_SIDES: usize = 10;
const PRECISION: f64 = 1e-8;

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn solve_many_is_bit_identical_to_looping_solve() {
    for seed in 0..INSTANCES {
        let (vertices, flow_lp, d, ys) = gram_instance(seed, RIGHT_HAND_SIDES);
        let lp = &flow_lp.lp;
        let sparsifier = SparsifierConfig::laboratory(2 * lp.n(), 4 * lp.m(), 0.5, seed)
            .with_t(4)
            .with_k(2);
        for solver in [
            SddGramSolver::new(PRECISION),
            SddGramSolver::with_full_pipeline(PRECISION, sparsifier),
        ] {
            let mut batch_net = Network::clique(ModelConfig::bcc(), vertices);
            let batch = solver.solve_many(&mut batch_net, &lp.a, &d, &ys).unwrap();
            let mut loop_net = Network::clique(ModelConfig::bcc(), vertices);
            let looped: Vec<Vec<f64>> = ys
                .iter()
                .map(|y| solver.solve(&mut loop_net, &lp.a, &d, y).unwrap())
                .collect();
            assert_eq!(batch.len(), RIGHT_HAND_SIDES);
            for (j, (x, y)) in batch.iter().zip(&looped).enumerate() {
                assert_eq!(bits(x), bits(y), "instance {seed}, {solver:?}, rhs {j}");
            }
            assert_eq!(
                batch_net.ledger(),
                loop_net.ledger(),
                "instance {seed}, {solver:?}"
            );
            assert!(batch_net.ledger().total_rounds() > 0);
        }
    }
}

/// A flow LP on 4–6 vertices (returned first) with log-uniform `D` in
/// `1e±6` and `rhs` random right-hand sides.
fn gram_instance(seed: u64, rhs: usize) -> (usize, FlowLp, Vec<f64>, Vec<Vec<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let vertices = 4 + (seed % 3) as usize;
    let instance = generators::random_flow_instance(vertices, 0.3, 3, &mut rng);
    let flow_lp = build_flow_lp(&instance, &FlowLpConfig::default());
    let lp = &flow_lp.lp;
    let d = (0..lp.m())
        .map(|_| 10f64.powf(12.0 * rng.gen::<f64>() - 6.0))
        .collect();
    let ys = (0..rhs)
        .map(|_| (0..lp.n()).map(|_| rng.gen::<f64>() - 0.5).collect())
        .collect();
    (vertices, flow_lp, d, ys)
}

/// `AᵀDA` assembled as `SddGramSolver` assembles it, triplet for triplet.
fn gram_matrix(a: &CsrMatrix, d: &[f64]) -> SddMatrix {
    let mut triplets = Vec::new();
    for r in 0..a.rows() {
        let entries: Vec<(usize, f64)> = a.row(r).collect();
        for &(ci, vi) in &entries {
            for &(cj, vj) in &entries {
                if ci <= cj {
                    triplets.push((ci, cj, d[r] * vi * vj));
                }
            }
        }
    }
    SddMatrix::from_triplets(a.cols(), triplets).expect("flow LP Gram matrices are SDD")
}

/// The batch solved one right-hand side at a time from public pieces: the
/// Gremban graph and its preconditioner, then per right-hand side a fresh
/// virtual network, `try_solve_into` on `[y; −y]`, and an outer charge of
/// twice the virtual rounds of preprocessing plus solve, with their bits.
fn reference_solve_many(
    net: &mut Network,
    matrix: &SddMatrix,
    ys: &[Vec<f64>],
    mode: &SddSolveMode,
) -> Vec<Vec<f64>> {
    let n = matrix.n();
    let gremban = matrix.gremban_graph();
    let mut preprocessing_net = Network::clique(net.config(), gremban.n());
    let solver = match mode {
        SddSolveMode::Full(config) => {
            LaplacianSolver::try_preprocess(&mut preprocessing_net, &gremban, config)
        }
        SddSolveMode::ExactPreconditioner => LaplacianSolver::try_exact_preconditioner(&gremban),
    }
    .expect("flow LP Gremban graphs are connected");
    let preprocessing = preprocessing_net.ledger();
    let mut arena = ScratchArena::new();
    let mut solution = Vec::new();
    ys.iter()
        .map(|y| {
            let stacked: Vec<f64> = y.iter().copied().chain(y.iter().map(|v| -v)).collect();
            let mut virtual_net = Network::clique(net.config(), gremban.n());
            solver
                .try_solve_into(
                    &mut virtual_net,
                    &stacked,
                    PRECISION,
                    &mut arena,
                    &mut solution,
                )
                .expect("a valid right-hand side");
            let solve = virtual_net.ledger();
            net.begin_phase("sdd solve (gremban)");
            net.ledger_mut().charge(
                2 * (preprocessing.total_rounds() + solve.total_rounds()),
                preprocessing.total_bits() + solve.total_bits(),
            );
            (0..n)
                .map(|i| (solution[i] - solution[i + n]) / 2.0)
                .collect()
        })
        .collect()
}

#[test]
fn solve_many_matches_a_one_at_a_time_reference_from_public_pieces() {
    for seed in 0..INSTANCES {
        // 3 pads one lockstep group of ten, 40 fills four.
        for batch in [0, 1, 3, RIGHT_HAND_SIDES, 40] {
            let (vertices, flow_lp, d, ys) = gram_instance(seed, batch);
            let lp = &flow_lp.lp;
            let sparsifier = SparsifierConfig::laboratory(2 * lp.n(), 4 * lp.m(), 0.5, seed)
                .with_t(4)
                .with_k(2);
            for (solver, mode) in [
                (
                    SddGramSolver::new(PRECISION),
                    SddSolveMode::ExactPreconditioner,
                ),
                (
                    SddGramSolver::with_full_pipeline(PRECISION, sparsifier),
                    SddSolveMode::Full(sparsifier),
                ),
            ] {
                let mut net = Network::clique(ModelConfig::bcc(), vertices);
                net.begin_phase("leverage scores");
                let mut reference_net = net.clone();
                let solved = solver.solve_many(&mut net, &lp.a, &d, &ys).unwrap();
                let reference =
                    reference_solve_many(&mut reference_net, &gram_matrix(&lp.a, &d), &ys, &mode);
                assert_eq!(solved.len(), batch);
                for (j, (x, y)) in solved.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        bits(x),
                        bits(y),
                        "instance {seed}, {mode:?}, rhs {j} of {batch}"
                    );
                }
                assert_eq!(
                    net.ledger(),
                    reference_net.ledger(),
                    "instance {seed}, {mode:?}, batch {batch}"
                );
            }
        }
    }
}
