//! Pins every output bit of the sparsifiers and of the probabilistic spanner
//! across a seed sweep, as one digest per entry point.
//!
//! Each digest folds, with FNV-1a over little-endian bytes (`f64` through
//! `to_bits`), every edge, weight, origin and orientation the entry point
//! returns plus the rounds, bits and operations it charged, phase by phase.
//! The expected values were taken from the implementation that grouped each
//! vertex's candidates in a `BTreeMap` and tested cluster marks in
//! `BTreeSet`s, before that local state became flag arrays and one reused
//! candidate buffer. A change to any private-RNG draw, `F⁺`/`F⁻` decision or
//! charge moves them.

use bcc_graph::{generators, Graph};
use bcc_runtime::{ModelConfig, Network, RoundReport};
use bcc_spanner::{probabilistic_spanner, SpannerParams};
use bcc_sparsifier::{sparsify_a_priori, try_sparsify_ad_hoc, SparsifierConfig, SparsifierOutput};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEEDS: u64 = 32;
const TK: [(usize, usize); 3] = [(6, 2), (3, 3), (2, 4)];

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

    fn sparsifier(&mut self, out: &SparsifierOutput) {
        self.usize(out.sparsifier.m());
        for edge in out.sparsifier.edges() {
            self.usize(edge.u);
            self.usize(edge.v);
            self.f64(edge.weight);
        }
        self.usize(out.edge_origin.len());
        for &e in &out.edge_origin {
            self.usize(e);
        }
        self.usize(out.added_by.len());
        for &v in &out.added_by {
            self.usize(v);
        }
    }
}

/// The four graph families at seed `seed`: `(name, graph)`.
fn families(seed: u64) -> [(&'static str, Graph); 4] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    [
        (
            "random_connected",
            generators::random_connected(20, 0.3, 8, &mut rng),
        ),
        ("grid", generators::grid(4, 5)),
        ("complete", generators::complete(14)),
        (
            "erdos_renyi",
            generators::erdos_renyi(20, 0.35, 8, &mut rng),
        ),
    ]
}

fn bc_network(g: &Graph) -> Network {
    Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap()
}

#[test]
fn sparsifier_outputs_match_the_pinned_digest() {
    let mut ad_hoc = Fnv1a::new();
    let mut a_priori = Fnv1a::new();
    for seed in 0..SEEDS {
        for (name, graph) in families(seed) {
            for (t, k) in TK {
                let config = SparsifierConfig::laboratory(graph.n(), graph.m(), 0.5, seed)
                    .with_t(t)
                    .with_k(k);
                let mut net = bc_network(&graph);
                match try_sparsify_ad_hoc(&mut net, &graph, &config) {
                    Ok(out) => ad_hoc.sparsifier(&out),
                    Err(e) => panic!("{name}, seed {seed}, (t, k) = ({t}, {k}): {e}"),
                }
                ad_hoc.report(net.ledger().report());

                let mut net = bc_network(&graph);
                a_priori.sparsifier(&sparsify_a_priori(&mut net, &graph, &config));
                a_priori.report(net.ledger().report());
            }
        }
    }
    assert_eq!(
        ad_hoc.0, 0x7137_c7ed_6e31_370a,
        "try_sparsify_ad_hoc digest"
    );
    assert_eq!(
        a_priori.0, 0x6d72_5a20_e4af_ff92,
        "sparsify_a_priori digest"
    );
}

#[test]
fn probabilistic_spanner_outputs_match_the_pinned_digest() {
    let mut digest = Fnv1a::new();
    let mut sampled_out = 0;
    for seed in 0..SEEDS {
        for (_name, graph) in families(seed) {
            // Probabilities below one, so that F⁻ is not empty, and every
            // seventh edge inactive.
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
            let p: Vec<f64> = (0..graph.m())
                .map(|_| [1.0, 0.5, 0.25, 0.0625][rng.gen_range(0..4usize)])
                .collect();
            let active: Vec<bool> = (0..graph.m()).map(|e| e % 7 != 3).collect();
            let weights: Vec<f64> = graph.edges().iter().map(|e| e.weight).collect();
            for k in [2, 3, 4] {
                let mut net = bc_network(&graph);
                let out = probabilistic_spanner(
                    &mut net,
                    &graph,
                    &weights,
                    &p,
                    &active,
                    SpannerParams { k, seed },
                );
                sampled_out += out.f_minus.len();
                for set in [&out.f_plus, &out.f_minus] {
                    digest.usize(set.len());
                    for &e in set {
                        digest.usize(e);
                    }
                }
                digest.usize(out.added_by.len());
                for (&e, &v) in &out.added_by {
                    digest.usize(e);
                    digest.usize(v);
                }
                digest.report(net.ledger().report());
            }
        }
    }
    assert!(sampled_out > 0, "the sweep samples edges out");
    assert_eq!(
        digest.0, 0xbd15_827b_9bf0_86a5,
        "probabilistic_spanner digest"
    );
}
