//! `SddGramSolver::solve_many` prepares one Gram matrix and one Gremban
//! preconditioner for a whole batch of right-hand sides. It must return the
//! same bits and charge the same ledger as solving them one at a time, in
//! both SDD solve modes.

use bcc_flow::{build_flow_lp, FlowLpConfig, SddGramSolver};
use bcc_graph::generators;
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
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let vertices = 4 + (seed % 3) as usize;
        let instance = generators::random_flow_instance(vertices, 0.3, 3, &mut rng);
        let lp = build_flow_lp(&instance, &FlowLpConfig::default()).lp;
        let d: Vec<f64> = (0..lp.m())
            .map(|_| 10f64.powf(12.0 * rng.gen::<f64>() - 6.0))
            .collect();
        let ys: Vec<Vec<f64>> = (0..RIGHT_HAND_SIDES)
            .map(|_| (0..lp.n()).map(|_| rng.gen::<f64>() - 0.5).collect())
            .collect();
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
