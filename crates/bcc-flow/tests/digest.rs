//! Pins every output bit of the min-cost max-flow pipeline on the
//! benchmark's flow pools, as one digest.
//!
//! The instances are the first of the light (4-vertex) and of the heavy
//! (5-vertex) pools the `perfbench` `mcmf` workload draws: the same
//! generator, `random_flow_instance(n, 0.3, 3, ..)`, seeded the same way.
//! Each is solved with the Lewis-weight and the uniform-weight strategy at
//! the benchmark's session seed. The digest folds, with FNV-1a over
//! little-endian bytes (`f64` through `to_bits`), every fractional flow
//! entry, the rounded flow, its value and cost, the rounds, path iterations
//! and Gram solves the result reports, and the network's whole
//! `RoundReport`, phase by phase. The expected value was taken from the
//! implementation that assembled every Gram system, its Gremban graph and
//! its preconditioner from scratch and expanded every JL sketch anew, before
//! those became buffers refilled in place; a change to any solution bit or
//! any charge moves it.

use bcc_flow::{try_min_cost_max_flow_bcc, McmfOptions, McmfResult, WeightStrategyChoice};
use bcc_graph::{generators, FlowInstance};
use bcc_runtime::{splitmix64, ModelConfig, Network, RoundReport};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The master seed of the benchmark's sessions, which
/// `Session::min_cost_max_flow` passes on as the pipeline's seed.
const SESSION_SEED: u64 = 2022;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn report(&mut self, report: &RoundReport) {
        self.u64(report.total_rounds);
        self.u64(report.total_bits);
        self.u64(report.total_operations);
        self.usize(report.breakdown.len());
        for (name, stats) in &report.breakdown {
            self.usize(name.len());
            self.bytes(name.as_bytes());
            self.u64(stats.rounds);
            self.u64(stats.bits);
            self.u64(stats.operations);
        }
    }

    fn result(&mut self, result: &McmfResult) {
        self.usize(result.fractional.len());
        for &f in &result.fractional {
            self.f64(f);
        }
        self.usize(result.flow.flow.len());
        for &f in &result.flow.flow {
            self.i64(f);
        }
        self.i64(result.flow.value);
        self.i64(result.flow.cost);
        self.u64(u64::from(result.rounded_feasible));
        self.usize(result.path_iterations);
        self.usize(result.gram_solves);
        self.u64(result.rounds);
    }
}

/// The first `count` instances of the benchmark's pool on `n` vertices.
fn pool(n: usize, count: usize) -> Vec<FlowInstance> {
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(0x5EED_BE4C ^ (1000 + n as u64)));
    (0..count)
        .map(|_| generators::random_flow_instance(n, 0.3, 3, &mut rng))
        .collect()
}

#[test]
fn mcmf_outputs_match_the_pinned_digest() {
    let mut digest = Fnv1a::new();
    let instances = pool(4, 1).into_iter().chain(pool(5, 1));
    for (index, instance) in instances.enumerate() {
        for strategy in [WeightStrategyChoice::Lewis, WeightStrategyChoice::Uniform] {
            let options = McmfOptions {
                seed: SESSION_SEED,
                strategy,
                ..McmfOptions::default()
            };
            let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
            let result = try_min_cost_max_flow_bcc(&mut net, &instance, &options)
                .unwrap_or_else(|e| panic!("instance {index}, {strategy:?}: {e}"));
            digest.result(&result);
            digest.report(net.ledger().report());
        }
    }
    assert_eq!(digest.0, 0xe29c_fd2e_feda_320a, "min-cost max-flow digest");
}
