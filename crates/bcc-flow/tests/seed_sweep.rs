//! Theorem 1.1 across seeds: the BCC min-cost max-flow equals the
//! successive-shortest-path optimum exactly, flow vector included, on small
//! random instances, each solved with its own seed.

use bcc_flow::{min_cost_max_flow_bcc, ssp_min_cost_max_flow, McmfOptions};
use bcc_graph::generators;
use bcc_runtime::{ModelConfig, Network};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEEDS: u64 = 32;

#[test]
fn mcmf_matches_the_ssp_baseline_on_every_seed() {
    for seed in 0..SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let instance = generators::random_flow_instance(4, 0.3, 3, &mut rng);
        let baseline = ssp_min_cost_max_flow(&instance);
        let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
        let options = McmfOptions {
            seed,
            ..McmfOptions::default()
        };
        let result = min_cost_max_flow_bcc(&mut net, &instance, &options);
        assert!(
            result.rounded_feasible,
            "seed {seed}: rounded flow infeasible"
        );
        assert_eq!(result.flow.flow, baseline.flow, "seed {seed}: flow vector");
        assert_eq!(result.flow.value, baseline.value, "seed {seed}: value");
        assert_eq!(result.flow.cost, baseline.cost, "seed {seed}: cost");
    }
}
