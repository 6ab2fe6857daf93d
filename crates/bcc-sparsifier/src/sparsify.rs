//! Spectral sparsification (Section 3.2 of the paper).
//!
//! Two variants are implemented:
//!
//! * [`sparsify_a_priori`] — Algorithm 4, the Koutis–Xu / Kyng et al.
//!   framework with *a-priori* sampling: after each bundle spanner, every
//!   remaining edge is kept with probability 1/4 (and re-weighted by 4). This
//!   sampling step is trivial in the (unicast) CONGEST model but not in a
//!   broadcast model; the variant serves as the reference for the
//!   distributional-equivalence experiment (Lemma 3.3 / experiment E2).
//! * [`sparsify_ad_hoc`] — Algorithm 5, the paper's Broadcast CONGEST
//!   algorithm: the probability that an edge still exists is *maintained*
//!   (divided by 4 whenever the edge survives outside a bundle) and the edge
//!   is only actually sampled when some vertex wants to use it inside the
//!   spanner construction — or in the final clean-up step, where the
//!   lower-identifier endpoint samples it and broadcasts the outcome.

use bcc_graph::Graph;
use bcc_runtime::{ceil_log2, payload, Network};
use bcc_spanner::{bundle_spanner, SpannerParams};
use rand::Rng;

use crate::config::SparsifierConfig;
use crate::error::SparsifierError;

/// The result of a sparsification run.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsifierOutput {
    /// The sparsifier `H`: same vertex set, re-weighted subset of the edges.
    pub sparsifier: Graph,
    /// For every edge of `H`, the index of the originating edge in the input
    /// graph.
    pub edge_origin: Vec<usize>,
    /// Which vertex is responsible for (added / announced) each sparsifier
    /// edge; the orientation whose out-degree Theorem 1.2 bounds.
    pub added_by: Vec<usize>,
}

impl SparsifierOutput {
    /// Out-degree of every vertex under the "added by" orientation.
    pub fn out_degrees(&self, n: usize) -> Vec<usize> {
        let mut deg = vec![0; n];
        for &v in &self.added_by {
            deg[v] += 1;
        }
        deg
    }

    /// The maximum out-degree — the number of rounds needed for every vertex
    /// to make its share of the sparsifier global knowledge in the BCC.
    pub fn max_out_degree(&self, n: usize) -> usize {
        self.out_degrees(n).into_iter().max().unwrap_or(0)
    }
}

/// Shared driver state for both variants.
struct Driver<'a> {
    graph: &'a Graph,
    weights: Vec<f64>,
    active: Vec<bool>,
}

impl<'a> Driver<'a> {
    fn new(graph: &'a Graph) -> Self {
        Driver {
            graph,
            weights: graph.edges().iter().map(|e| e.weight).collect(),
            active: vec![true; graph.m()],
        }
    }

    fn finish(self, kept: Vec<(usize, usize)>) -> SparsifierOutput {
        // kept: (edge index, responsible vertex)
        let mut h = Graph::new(self.graph.n());
        let mut edge_origin = Vec::with_capacity(kept.len());
        let mut added_by = Vec::with_capacity(kept.len());
        for (e, owner) in kept {
            let edge = self.graph.edge(e);
            h.add_edge(edge.u, edge.v, self.weights[e]);
            edge_origin.push(e);
            added_by.push(owner);
        }
        SparsifierOutput {
            sparsifier: h,
            edge_origin,
            added_by,
        }
    }
}

/// Fallible variant of [`sparsify_ad_hoc`]: validates the input before
/// charging any rounds, and stops with an error as soon as a reweighted edge
/// weight overflows (the rounds charged up to then stay on `net`).
///
/// # Errors
///
/// * [`SparsifierError::EmptyGraph`] — the graph has no edges.
/// * [`SparsifierError::NetworkSizeMismatch`] — `net` does not simulate one
///   processor per vertex.
/// * [`SparsifierError::WeightOverflow`] — an edge weight, multiplied by 4
///   for each iteration it survives outside a bundle, is no longer a finite
///   `f64` (parallel edges near `f64::MAX / 4`).
pub fn try_sparsify_ad_hoc(
    net: &mut Network,
    graph: &Graph,
    config: &SparsifierConfig,
) -> Result<SparsifierOutput, SparsifierError> {
    if net.n() != graph.n() {
        return Err(SparsifierError::NetworkSizeMismatch {
            network: net.n(),
            graph: graph.n(),
        });
    }
    if graph.m() == 0 {
        return Err(SparsifierError::EmptyGraph);
    }
    ad_hoc(net, graph, config)
}

/// Algorithm 5: spectral sparsification with ad-hoc sampling in the Broadcast
/// CONGEST model (Theorem 1.2).
///
/// Rounds are charged on `net` (the bundle-spanner calls dominate,
/// `O(log⁵(n)/ε² · log(nU/ε))` with the paper's constants).
///
/// # Panics
///
/// Panics when a reweighted edge weight overflows `f64`, which
/// [`try_sparsify_ad_hoc`] returns as [`SparsifierError::WeightOverflow`].
pub fn sparsify_ad_hoc(
    net: &mut Network,
    graph: &Graph,
    config: &SparsifierConfig,
) -> SparsifierOutput {
    ad_hoc(net, graph, config).unwrap_or_else(|e| panic!("{e}"))
}

/// The body of Algorithm 5, failing only with
/// [`SparsifierError::WeightOverflow`].
fn ad_hoc(
    net: &mut Network,
    graph: &Graph,
    config: &SparsifierConfig,
) -> Result<SparsifierOutput, SparsifierError> {
    let n = graph.n();
    let m = graph.m();
    let mut driver = Driver::new(graph);
    let mut probability = vec![1.0f64; m];
    net.begin_phase("sparsifier");

    // Membership in the latest bundle; with no iteration, E' is all of E.
    let mut in_bundle = vec![true; m];
    for iteration in 0..config.iterations {
        let params = SpannerParams {
            k: config.k,
            seed: config
                .seed
                .wrapping_add(0xB5AD_4ECE_DA1C_E2A9_u64.wrapping_mul(iteration as u64 + 1)),
        };
        let bundle = bundle_spanner(
            net,
            graph,
            &driver.weights,
            &probability,
            &driver.active,
            params,
            config.t,
        );
        // E_i := E_{i-1} \ C_i.
        for &e in &bundle.sampled_out {
            driver.active[e] = false;
        }
        in_bundle.fill(false);
        for &e in &bundle.bundle {
            in_bundle[e] = true;
        }
        for e in 0..m {
            if !driver.active[e] {
                continue;
            }
            if in_bundle[e] {
                // Edges inside the bundle are now certain again.
                probability[e] = 1.0;
            } else {
                probability[e] /= 4.0;
                driver.weights[e] *= 4.0;
                if !driver.weights[e].is_finite() {
                    return Err(SparsifierError::WeightOverflow);
                }
            }
        }
    }

    // Final step: E' := B_last; every remaining active edge is sampled by its
    // lower-identifier endpoint with its maintained probability and broadcast
    // if kept. Bundle edges (all active) were added and broadcast by the
    // spanner layers; they are attributed to their lower endpoint for the
    // orientation report, and the spanner already charged their
    // announcement.
    let mut kept: Vec<(usize, usize)> = Vec::new();
    let mut rngs: Vec<_> = (0..n)
        .map(|v| bcc_runtime::vertex_rng(config.seed ^ 0xF1A7_C0DE, v))
        .collect();
    let mut announce_counts = vec![0usize; n];
    for e in 0..m {
        if !driver.active[e] {
            continue;
        }
        let edge = graph.edge(e);
        let owner = edge.u.min(edge.v);
        if in_bundle[e] {
            kept.push((e, owner));
        } else if rngs[owner].gen::<f64>() < probability[e] {
            kept.push((e, owner));
            announce_counts[owner] += 1;
        }
    }
    let max_w = driver.weights.iter().cloned().fold(1.0f64, f64::max);
    let weight_bits = u64::from(payload::bits_for_real(max_w, 1.0));
    let id_bits = u64::from(ceil_log2(n.max(2) as u64));
    net.share_varying(&announce_counts, 2 * id_bits + weight_bits);

    Ok(driver.finish(kept))
}

/// Algorithm 4: the a-priori sampling reference (Koutis–Xu with the fixed-`t`
/// improvement of Kyng et al.). Communication is charged as if run in the
/// (unicast) CONGEST model, where a vertex can tell each neighbor the
/// outcome of the coin flip for their shared edge.
pub fn sparsify_a_priori(
    net: &mut Network,
    graph: &Graph,
    config: &SparsifierConfig,
) -> SparsifierOutput {
    let n = graph.n();
    let m = graph.m();
    let mut driver = Driver::new(graph);
    let ones = vec![1.0f64; m];
    net.begin_phase("sparsifier (a priori)");
    let mut rngs: Vec<_> = (0..n)
        .map(|v| bcc_runtime::vertex_rng(config.seed ^ 0x0A11_5EED, v))
        .collect();

    for iteration in 0..config.iterations {
        let params = SpannerParams {
            k: config.k,
            seed: config
                .seed
                .wrapping_add(0xB5AD_4ECE_DA1C_E2A9_u64.wrapping_mul(iteration as u64 + 1)),
        };
        let bundle = bundle_spanner(
            net,
            graph,
            &driver.weights,
            &ones,
            &driver.active,
            params,
            config.t,
        );
        let mut in_bundle = vec![false; m];
        for &e in &bundle.bundle {
            in_bundle[e] = true;
        }
        // E_i := B_i ∪ {sampled quarter of the rest}.
        let mut sample_counts = vec![0usize; n];
        for e in 0..m {
            if !driver.active[e] || in_bundle[e] {
                continue;
            }
            let edge = graph.edge(e);
            let owner = edge.u.min(edge.v);
            sample_counts[owner] += 1;
            if rngs[owner].gen::<f64>() < 0.25 {
                driver.weights[e] *= 4.0;
            } else {
                driver.active[e] = false;
            }
        }
        // One unicast message per sampled edge to inform the other endpoint
        // (legal in CONGEST, the very step that is infeasible under the
        // broadcast constraint).
        net.share_varying(&sample_counts, 1);
        if iteration + 1 == config.iterations {
            // Final edge set: bundle plus survivors.
            let kept: Vec<(usize, usize)> = (0..m)
                .filter(|&e| driver.active[e])
                .map(|e| {
                    let edge = graph.edge(e);
                    (e, edge.u.min(edge.v))
                })
                .collect();
            return driver.finish(kept);
        }
    }
    // config.iterations == 0: the sparsifier is the input graph.
    let kept: Vec<(usize, usize)> = (0..m)
        .map(|e| {
            let edge = graph.edge(e);
            (e, edge.u.min(edge.v))
        })
        .collect();
    driver.finish(kept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::approximation_bounds;
    use bcc_graph::generators;
    use bcc_runtime::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bc_network(g: &Graph) -> Network {
        Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap()
    }

    #[test]
    fn ad_hoc_sparsifier_is_connected_and_spectrally_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        let g = generators::random_connected(30, 0.5, 4, &mut rng);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 7)
            .with_t(6)
            .with_k(2);
        let mut net = bc_network(&g);
        let out = sparsify_ad_hoc(&mut net, &g, &cfg);
        assert!(out.sparsifier.is_connected());
        assert!(out.sparsifier.m() <= g.m());
        let (lo, hi) = approximation_bounds(&g, &out.sparsifier);
        assert!(lo > 0.2, "lower bound too small: {lo}");
        assert!(hi < 5.0, "upper bound too large: {hi}");
        assert!(net.ledger().total_rounds() > 0);
    }

    #[test]
    fn a_priori_sparsifier_is_connected_and_spectrally_close() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let g = generators::random_connected(30, 0.5, 4, &mut rng);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 8)
            .with_t(6)
            .with_k(2);
        let mut net = bc_network(&g);
        let out = sparsify_a_priori(&mut net, &g, &cfg);
        assert!(out.sparsifier.is_connected());
        let (lo, hi) = approximation_bounds(&g, &out.sparsifier);
        assert!(lo > 0.2, "lower bound too small: {lo}");
        assert!(hi < 5.0, "upper bound too large: {hi}");
    }

    #[test]
    fn huge_t_keeps_the_whole_graph() {
        let g = generators::complete(12);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 3)
            .with_t(100)
            .with_k(2)
            .with_iterations(2);
        let mut net = bc_network(&g);
        let out = sparsify_ad_hoc(&mut net, &g, &cfg);
        // With t far above m the bundle swallows every edge and the
        // sparsifier is the graph itself, exactly.
        assert_eq!(out.sparsifier.m(), g.m());
        let (lo, hi) = approximation_bounds(&g, &out.sparsifier);
        assert!((lo - 1.0).abs() < 1e-6 && (hi - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sparsifier_reduces_dense_graphs() {
        let g = generators::complete(40);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 1.0, 5)
            .with_t(3)
            .with_k(3)
            .with_iterations(4);
        let mut net = bc_network(&g);
        let out = sparsify_ad_hoc(&mut net, &g, &cfg);
        assert!(
            out.sparsifier.m() < 3 * g.m() / 4,
            "expected reduction, got {} of {}",
            out.sparsifier.m(),
            g.m()
        );
        assert!(out.sparsifier.is_connected());
    }

    #[test]
    fn edge_origin_and_orientation_are_consistent() {
        let g = generators::complete(15);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 6)
            .with_t(2)
            .with_k(2);
        let mut net = bc_network(&g);
        let out = sparsify_ad_hoc(&mut net, &g, &cfg);
        assert_eq!(out.edge_origin.len(), out.sparsifier.m());
        assert_eq!(out.added_by.len(), out.sparsifier.m());
        for (i, &orig) in out.edge_origin.iter().enumerate() {
            let h_edge = out.sparsifier.edge(i);
            let g_edge = g.edge(orig);
            assert_eq!(h_edge.key(), g_edge.key());
            // Weights are the original weight times a power of 4.
            let ratio = h_edge.weight / g_edge.weight;
            let log4 = ratio.log2() / 2.0;
            assert!(
                (log4 - log4.round()).abs() < 1e-9,
                "ratio {ratio} not a power of 4"
            );
            // The responsible vertex is an endpoint.
            assert!(out.added_by[i] == g_edge.u || out.added_by[i] == g_edge.v);
        }
        let deg = out.out_degrees(g.n());
        assert_eq!(deg.iter().sum::<usize>(), out.sparsifier.m());
        assert!(out.max_out_degree(g.n()) >= 1);
    }

    #[test]
    fn a_reweighting_overflow_is_a_typed_error() {
        // Every weight, and n times the largest, is finite; but parallel
        // edges outside each bundle are multiplied by 4 per iteration.
        let mut g = generators::cycle(4);
        for _ in 0..12 {
            g.add_edge(0, 1, 1e307);
        }
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 2022)
            .with_t(6)
            .with_k(2);
        let mut net = bc_network(&g);
        assert_eq!(
            try_sparsify_ad_hoc(&mut net, &g, &cfg),
            Err(SparsifierError::WeightOverflow)
        );
        let panic = std::panic::catch_unwind(|| sparsify_ad_hoc(&mut bc_network(&g), &g, &cfg))
            .expect_err("the infallible variant panics");
        let message = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(message.contains("overflows"), "{message}");
    }

    #[test]
    fn barbell_bridge_is_never_lost() {
        // The bridge edge of a barbell has huge effective resistance; every
        // spanner must keep it, so it can never be sampled away.
        let g = generators::barbell(6, 1);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 11)
            .with_t(2)
            .with_k(2);
        for seed in 0..5u64 {
            let cfg = SparsifierConfig { seed, ..cfg };
            let mut net = bc_network(&g);
            let out = sparsify_ad_hoc(&mut net, &g, &cfg);
            assert!(
                out.sparsifier.is_connected(),
                "seed {seed} disconnected the barbell"
            );
        }
    }
}
