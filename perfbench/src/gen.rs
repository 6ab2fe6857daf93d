//! Seeded input generators.
//!
//! Every workload fixes the *work* of a run: its graphs and its flow
//! instance pools are drawn from constant seeds, and request counts are a
//! function of `--seconds` alone. The run's `--seed` draws only what leaves
//! the work unchanged: the right-hand sides (each scaled so that its
//! largest entry is exactly ±1, which fixes the solver's per-value bit
//! width and so its rounds) and the order in which pooled instances are
//! sent. Hence `rounds_per_request` repeats exactly across seeds.

use bcc_core::graph::{generators, FlowInstance, Graph};
use bcc_core::runtime::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Master seed of every engine, daemon and session the benchmark builds.
pub const ENGINE_SEED: u64 = 2022;

/// Independent random streams drawn from one run seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Right-hand sides of light Laplacian requests.
    LightRhs = 1,
    /// Right-hand sides of heavy Laplacian requests.
    HeavyRhs = 2,
    /// Order of light flow instances.
    LightOrder = 3,
    /// Order of heavy flow instances.
    HeavyOrder = 4,
}

/// A generator for stream `stream`, item `index` of run seed `seed`.
pub fn rng(seed: u64, stream: Stream, index: u64) -> ChaCha8Rng {
    let mixed = splitmix64(seed ^ splitmix64((stream as u64) << 32 ^ index));
    ChaCha8Rng::seed_from_u64(mixed)
}

/// The right-hand side of request `index`: mean zero, entries in `[-1, 1]`,
/// largest magnitude exactly 1.
pub fn rhs(n: usize, seed: u64, stream: Stream, index: u64) -> Vec<f64> {
    let mut rng = rng(seed, stream, index);
    let mut b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    b.iter_mut().for_each(|v| *v -= mean);
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    b.iter_mut().for_each(|v| *v /= scale);
    b
}

/// `rounds` rounds over a pool of `pool` items, each round every item once
/// in a seeded order: a seed-independent multiset, and rounds of equal work.
pub fn pooled_order(pool: usize, rounds: usize, seed: u64, stream: Stream) -> Vec<usize> {
    let mut order = Vec::with_capacity(pool * rounds);
    for round in 0..rounds {
        let mut rng = rng(seed, stream, round as u64);
        let mut items: Vec<usize> = (0..pool).collect();
        for i in (1..pool).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
        order.extend(items);
    }
    order
}

/// Merges sequences so that each spreads evenly over the result: item `i`
/// of a sequence of `n` lands near position `(i + ½) / n`. A run whose
/// light and heavy chunks alternate lets both classes see the same spells
/// of a machine whose speed drifts.
pub fn interleave<T>(sequences: Vec<Vec<T>>) -> Vec<T> {
    let mut keyed: Vec<(f64, usize, T)> = Vec::new();
    for (s, sequence) in sequences.into_iter().enumerate() {
        let n = sequence.len() as f64;
        keyed.extend(
            sequence
                .into_iter()
                .enumerate()
                .map(|(i, item)| ((i as f64 + 0.5) / n, s, item)),
        );
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, item)| item).collect()
}

fn fixed_rng(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(splitmix64(0x5EED_BE4C ^ tag))
}

/// The light Laplacian graph of `solve_warm` and `served_mix`: a 12×12 grid.
pub fn light_graph() -> Graph {
    generators::grid(12, 12)
}

/// The heavy Laplacian graph of `solve_warm`: a fixed random connected
/// graph on 256 vertices.
pub fn heavy_graph() -> Graph {
    generators::random_connected(256, 0.05, 8, &mut fixed_rng(256))
}

/// The three `served_mix` graphs that rotate through one cache slot.
pub fn rotating_graphs() -> Vec<Graph> {
    (0..3)
        .map(|i| generators::random_connected(100, 0.1, 8, &mut fixed_rng(100 + i)))
        .collect()
}

/// A fixed pool of `count` flow instances on `n` vertices.
pub fn flow_pool(n: usize, count: usize) -> Vec<FlowInstance> {
    let mut rng = fixed_rng(1000 + n as u64);
    (0..count)
        .map(|_| generators::random_flow_instance(n, 0.3, 3, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rhs_is_mean_zero_with_unit_peak() {
        let b = rhs(144, 9, Stream::LightRhs, 3);
        assert!(b.iter().sum::<f64>().abs() < 1e-12);
        assert_eq!(b.iter().fold(0.0f64, |m, v| m.max(v.abs())), 1.0);
    }

    #[test]
    fn pooled_order_keeps_every_round_and_shuffles_by_seed() {
        let a = pooled_order(5, 4, 1, Stream::LightOrder);
        let b = pooled_order(5, 4, 2, Stream::LightOrder);
        assert_ne!(a, b);
        assert_eq!(a, pooled_order(5, 4, 1, Stream::LightOrder));
        for order in [a, b] {
            for round in order.chunks(5) {
                let mut round = round.to_vec();
                round.sort_unstable();
                assert_eq!(round, vec![0, 1, 2, 3, 4]);
            }
        }
    }

    #[test]
    fn interleaving_spreads_each_sequence_over_the_run() {
        let merged = interleave(vec![vec!['a'; 4], vec!['b'; 2]]);
        assert_eq!(merged, vec!['a', 'b', 'a', 'a', 'b', 'a']);
        assert_eq!(interleave(vec![vec![1, 2], vec![]]), vec![1, 2]);
    }

    #[test]
    fn fixed_inputs_do_not_depend_on_anything() {
        assert_eq!(heavy_graph().edges(), heavy_graph().edges());
        assert!(heavy_graph().is_connected());
        assert!(rotating_graphs().iter().all(Graph::is_connected));
        let pool = flow_pool(4, 3);
        let again = flow_pool(4, 3);
        for (x, y) in pool.iter().zip(&again) {
            assert_eq!(x.graph.arcs(), y.graph.arcs());
        }
    }
}
