//! Spanners with probabilistic edges (Section 3.1 of the paper).
//!
//! `Spanner(V, E, w, p, k)` computes a subset `F ⊆ E`, split into `F⁺ ⊎ F⁻`,
//! such that every edge of `F` was *sampled*: it survives (joins `F⁺`) with
//! its maintained probability `p_e`, independently, and otherwise joins `F⁻`.
//! The graph `S = (V, F⁺)` is a `(2k−1)`-spanner of `(V, F⁺ ∪ E'')` for every
//! `E'' ⊆ E∖F` (Lemma 3.1).
//!
//! The algorithm is the Baswana–Sen clustering (Appendix A) with the paper's
//! modification: whenever a vertex would use an edge, the edge's existence is
//! sampled *on the fly* by that vertex inside the [`mod@crate::connect`]
//! procedure, and the opposite endpoint deduces the outcome from the
//! subsequent broadcast (the [`crate::connect::deduce_fate`] rule) — no
//! explicit communication of negative samples is ever needed, which is what
//! makes the algorithm implementable under the broadcast constraint.
//!
//! ### Simulation fidelity
//!
//! The driver below keeps the cluster memberships in one array indexed by
//! vertex and the mark bits and surviving clusters in flag arrays indexed by
//! cluster id. This is faithful: every cluster change and every mark bit is
//! broadcast by the algorithm (and charged below), so each vertex's local
//! knowledge coincides with those arrays. Edge existence, on the other hand,
//! is *never* centralised: it is decided by exactly one endpoint inside
//! `Connect` and propagated only through the deduction rule, exactly as in
//! the paper.
//!
//! A vertex's scan fills one buffer, reused across the whole call, with its
//! candidate edges in incident-edge order. Where the step connects to each
//! neighboring cluster, the buffer is stably sorted by (cluster id, weight,
//! neighbor id), and `Connect` runs in place on each cluster's run in
//! increasing cluster id. The vertex draws from its private randomness in
//! exactly the order of one `Connect` call per cluster on that cluster's
//! candidates.

use std::collections::BTreeMap;

use bcc_graph::Graph;
use bcc_runtime::{ceil_log2, payload, Network};
use rand::Rng;

use crate::connect::{candidate_order, connect, Candidate};

/// Parameters of one spanner computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpannerParams {
    /// Stretch parameter `k ≥ 1`; the produced spanner has stretch `2k − 1`.
    pub k: usize,
    /// Master seed for the private randomness of the vertices.
    pub seed: u64,
}

/// Output of [`probabilistic_spanner`]: `F = F⁺ ⊎ F⁻` as index sets into the
/// master graph, plus the orientation information of Lemma 3.1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpannerOutput {
    /// Edges that exist and belong to the spanner (`F⁺`).
    pub f_plus: Vec<usize>,
    /// Edges that were sampled out (`F⁻`).
    pub f_minus: Vec<usize>,
    /// For every `F⁺` edge, the vertex that added it (the tail of the
    /// orientation used to bound out-degrees).
    pub added_by: BTreeMap<usize, usize>,
}

impl SpannerOutput {
    /// Out-degree of every vertex under the orientation "edges point away
    /// from the vertex that added them".
    pub fn out_degrees(&self, n: usize) -> Vec<usize> {
        let mut deg = vec![0; n];
        for &v in self.added_by.values() {
            deg[v] += 1;
        }
        deg
    }
}

/// Internal per-call state of the spanner computation: the input and the
/// edge sets sampled so far.
struct SpannerState<'a> {
    graph: &'a Graph,
    weights: &'a [f64],
    p: &'a [f64],
    active: &'a [bool],
    /// `F⁻` membership per edge.
    deleted: Vec<bool>,
    /// The vertex that added each `F⁺` edge; `None` outside `F⁺`.
    added_by: Vec<Option<usize>>,
}

impl SpannerState<'_> {
    /// Refills `buffer` with the candidate edges of `v`, in incident-edge
    /// order: its active edges not yet in `F⁻` whose other endpoint and
    /// weight `admit` accepts.
    fn scan(
        &self,
        v: usize,
        buffer: &mut Vec<Candidate>,
        mut admit: impl FnMut(usize, f64) -> bool,
    ) {
        buffer.clear();
        for &e in self.graph.incident_edges(v) {
            if !self.active[e] || self.deleted[e] {
                continue;
            }
            let u = self.graph.edge(e).other(v);
            let w = self.weights[e];
            if admit(u, w) {
                // Edges already known to exist are certain; others carry their
                // maintained probability.
                let probability = if self.added_by[e].is_some() {
                    1.0
                } else {
                    self.p[e]
                };
                buffer.push(Candidate {
                    neighbor: u,
                    edge: e,
                    weight: w,
                    probability,
                });
            }
        }
    }

    /// Runs `Connect` for `v` on `candidates` and records the outcome: the
    /// candidates scanned before the accepted one join `F⁻`, the accepted one
    /// joins `F⁺`. Returns the accepted candidate.
    fn connect(
        &mut self,
        v: usize,
        candidates: &mut [Candidate],
        rng: &mut impl Rng,
    ) -> Option<Candidate> {
        let accepted = connect(candidates, rng);
        for c in &candidates[..accepted.unwrap_or(candidates.len())] {
            if self.added_by[c.edge].is_none() {
                self.deleted[c.edge] = true;
            }
        }
        let candidate = candidates[accepted?];
        self.added_by[candidate.edge].get_or_insert(v);
        Some(candidate)
    }

    /// Runs `Connect` for `v` once per neighboring cluster, in increasing
    /// cluster id, on that cluster's candidates in `buffer`, and returns the
    /// number of clusters (one broadcast each).
    fn connect_per_cluster(
        &mut self,
        v: usize,
        buffer: &mut [Candidate],
        cluster_of: &[Option<usize>],
        rng: &mut impl Rng,
    ) -> usize {
        let cluster = |c: &Candidate| cluster_of[c.neighbor];
        buffer.sort_by(|a, b| {
            cluster(a)
                .cmp(&cluster(b))
                .then_with(|| candidate_order(a, b))
        });
        let mut clusters = 0;
        for candidates in buffer.chunk_by_mut(|a, b| cluster(a) == cluster(b)) {
            self.connect(v, candidates, rng);
            clusters += 1;
        }
        clusters
    }
}

/// Computes a `(2k−1)`-spanner with probabilistic edges in the Broadcast
/// CONGEST model (Section 3.1).
///
/// * `net` — the simulated network the rounds are charged to (its topology
///   should be the communication graph; for this algorithm the communication
///   graph is the input graph itself).
/// * `graph` — the *master* graph; only edges with `active[e] == true`
///   participate.
/// * `weights` — current edge weights (master-indexed; the sparsifier
///   reweights edges between iterations).
/// * `p` — current existence probability of every edge (master-indexed).
/// * `params` — stretch parameter and seed.
///
/// Returns the sampled sets `F⁺`, `F⁻` (Lemma 3.1) and charges
/// `O(k·n^{1/k}·(log n + log W))` rounds (Lemma 3.2) on `net`.
pub fn probabilistic_spanner(
    net: &mut Network,
    graph: &Graph,
    weights: &[f64],
    p: &[f64],
    active: &[bool],
    params: SpannerParams,
) -> SpannerOutput {
    let n = graph.n();
    assert_eq!(weights.len(), graph.m(), "one weight per edge expected");
    assert_eq!(p.len(), graph.m(), "one probability per edge expected");
    assert_eq!(
        active.len(),
        graph.m(),
        "one activity flag per edge expected"
    );
    assert!(params.k >= 1, "k must be at least 1");
    for (idx, &prob) in p.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(&prob),
            "probability of edge {idx} out of range: {prob}"
        );
    }
    if n == 0 {
        return SpannerOutput::default();
    }

    let max_weight = active
        .iter()
        .zip(weights)
        .filter(|(a, _)| **a)
        .map(|(_, w)| *w)
        .fold(1.0f64, f64::max);
    let weight_bits = u64::from(payload::bits_for_real(max_weight, 1.0));
    let id_bits = u64::from(ceil_log2(n.max(2) as u64));
    // A connection message carries a cluster id, a vertex id and a weight.
    let message_bits = 2 * id_bits + weight_bits + 1;

    let mut state = SpannerState {
        graph,
        weights,
        p,
        active,
        deleted: vec![false; graph.m()],
        added_by: vec![None; graph.m()],
    };
    let n_pow = (n as f64).powf(-1.0 / params.k as f64);
    let mut rngs: Vec<_> = (0..n)
        .map(|v| bcc_runtime::vertex_rng(params.seed, v))
        .collect();
    // Cluster ids are the ids of the cluster centers.
    let mut cluster_of: Vec<Option<usize>> = (0..n).map(Some).collect();
    let mut alive = vec![true; n];
    let mut marked = vec![false; n];
    let mut buffer = Vec::new();

    net.begin_phase("spanner");

    for _phase in 1..params.k {
        // ---- Step 1: cluster marking --------------------------------------
        for center in 0..n {
            marked[center] = alive[center] && rngs[center].gen::<f64>() < n_pow;
        }
        // The center broadcasts the mark along the cluster tree (depth ≤ k−1)
        // and every clustered vertex announces (cluster id, mark bit) so that
        // neighbors can classify their incident clusters.
        net.ledger_mut().charge(
            (params.k as u64).saturating_sub(1).max(1),
            n as u64 * id_bits,
        );
        net.share_scalars(id_bits + 1);

        // ---- Step 2: connecting to marked clusters ------------------------
        // The threshold is the (weight, neighbor id) pair of the edge through
        // which `v` joined a marked cluster; step 3 only considers edges that
        // are lexicographically smaller (the Baswana–Sen tie-break).
        let mut w_threshold = vec![(f64::INFINITY, usize::MAX); n];
        let mut next_cluster = cluster_of.clone();
        let mut step2_messages = vec![0usize; n];
        for v in 0..n {
            let Some(cluster_v) = cluster_of[v] else {
                continue;
            };
            if marked[cluster_v] {
                continue;
            }
            // Candidates: neighbors lying in marked clusters, as one set.
            state.scan(v, &mut buffer, |u, _w| {
                cluster_of[u].is_some_and(|c| marked[c])
            });
            step2_messages[v] = 1;
            match state.connect(v, &mut buffer, &mut rngs[v]) {
                Some(candidate) => {
                    w_threshold[v] = (candidate.weight, candidate.neighbor);
                    next_cluster[v] = cluster_of[candidate.neighbor];
                }
                None => next_cluster[v] = None,
            }
        }
        net.share_varying(&step2_messages, message_bits);

        // ---- Step 3: connections between unmarked clusters ----------------
        for smaller_ids in [true, false] {
            let mut step3_messages = vec![0usize; n];
            for v in 0..n {
                let Some(cluster_v) = cluster_of[v] else {
                    continue;
                };
                if marked[cluster_v] {
                    continue;
                }
                let (threshold_weight, threshold_id) = w_threshold[v];
                state.scan(v, &mut buffer, |u, w| {
                    let Some(cu) = cluster_of[u] else {
                        return false;
                    };
                    let direction_ok = if smaller_ids {
                        cu < cluster_v
                    } else {
                        cu > cluster_v
                    };
                    // Lexicographically smaller than the marked-cluster
                    // connection (strict, ties broken by neighbor id).
                    let lighter =
                        w < threshold_weight || (w == threshold_weight && u < threshold_id);
                    !marked[cu] && direction_ok && lighter
                });
                step3_messages[v] =
                    state.connect_per_cluster(v, &mut buffer, &cluster_of, &mut rngs[v]);
            }
            net.share_varying(&step3_messages, message_bits);
        }

        // ---- End of phase: new clusters take effect ------------------------
        cluster_of = next_cluster;
        std::mem::swap(&mut alive, &mut marked);
        if !alive.contains(&true) {
            // No cluster survived; remaining vertices finish in step 4.
            break;
        }
    }

    // ---- Step 4: connect to the remaining clusters -------------------------
    // 4.1: vertices outside every remaining cluster connect to each
    //      neighboring remaining cluster.
    // 4.2 / 4.3: vertices inside remaining clusters connect to neighboring
    //      remaining clusters with smaller / larger identifiers.
    let remaining = |v: usize| cluster_of[v].filter(|&c| alive[c]);
    for (in_cluster, smaller_ids) in [(false, false), (true, true), (true, false)] {
        let mut messages = vec![0usize; n];
        for v in 0..n {
            let my_cluster = remaining(v);
            if in_cluster != my_cluster.is_some() {
                continue;
            }
            state.scan(v, &mut buffer, |u, _w| match (remaining(u), my_cluster) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(cu), Some(mine)) => {
                    if smaller_ids {
                        cu < mine
                    } else {
                        cu > mine
                    }
                }
            });
            messages[v] = state.connect_per_cluster(v, &mut buffer, &cluster_of, &mut rngs[v]);
        }
        net.share_varying(&messages, message_bits);
    }

    let added_by: BTreeMap<usize, usize> = (0..graph.m())
        .filter_map(|e| Some((e, state.added_by[e]?)))
        .collect();
    SpannerOutput {
        f_plus: added_by.keys().copied().collect(),
        f_minus: (0..graph.m()).filter(|&e| state.deleted[e]).collect(),
        added_by,
    }
}

/// The classical Baswana–Sen `(2k−1)`-spanner (Appendix A): the special case
/// `p ≡ 1`, in which no edge is ever sampled out (`F⁻ = ∅`).
pub fn baswana_sen_spanner(
    net: &mut Network,
    graph: &Graph,
    params: SpannerParams,
) -> SpannerOutput {
    let weights: Vec<f64> = graph.edges().iter().map(|e| e.weight).collect();
    let ones = vec![1.0; graph.m()];
    let active = vec![true; graph.m()];
    probabilistic_spanner(net, graph, &weights, &ones, &active, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_spanner_of;
    use bcc_graph::generators;
    use bcc_runtime::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bc_network(g: &Graph) -> Network {
        Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap()
    }

    #[test]
    fn deterministic_spanner_covers_connected_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let g = generators::random_connected(40, 0.2, 16, &mut rng);
        let mut net = bc_network(&g);
        let out = baswana_sen_spanner(&mut net, &g, SpannerParams { k: 3, seed: 99 });
        assert!(out.f_minus.is_empty(), "p = 1 never deletes edges");
        let spanner = g.subgraph(&out.f_plus);
        assert!(spanner.is_connected());
        assert!(is_spanner_of(&spanner, &g, 2 * 3 - 1));
        assert!(net.ledger().total_rounds() > 0);
    }

    #[test]
    fn k_equal_one_returns_whole_graph() {
        let g = generators::complete(6);
        let mut net = bc_network(&g);
        let out = baswana_sen_spanner(&mut net, &g, SpannerParams { k: 1, seed: 1 });
        // Stretch 1 spanner must keep every (unit-weight) edge.
        assert_eq!(out.f_plus.len(), g.m());
    }

    #[test]
    fn spanner_size_shrinks_for_larger_k() {
        let g = generators::complete(40);
        let mut net1 = bc_network(&g);
        let dense = baswana_sen_spanner(&mut net1, &g, SpannerParams { k: 1, seed: 5 });
        let mut net2 = bc_network(&g);
        let sparse = baswana_sen_spanner(&mut net2, &g, SpannerParams { k: 3, seed: 5 });
        assert!(sparse.f_plus.len() < dense.f_plus.len());
        // O(k n^{1+1/k}) for k=3, n=40 is well below the 780 edges of K_40.
        assert!(sparse.f_plus.len() < 600, "got {}", sparse.f_plus.len());
    }

    #[test]
    fn probabilistic_edges_split_into_plus_and_minus() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = generators::erdos_renyi(30, 0.4, 8, &mut rng);
        let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        let p = vec![0.25; g.m()];
        let active = vec![true; g.m()];
        let mut net = bc_network(&g);
        let out = probabilistic_spanner(
            &mut net,
            &g,
            &weights,
            &p,
            &active,
            SpannerParams { k: 2, seed: 3 },
        );
        // F+ and F- are disjoint subsets of the edges.
        let plus: std::collections::BTreeSet<_> = out.f_plus.iter().collect();
        let minus: std::collections::BTreeSet<_> = out.f_minus.iter().collect();
        assert!(plus.is_disjoint(&minus));
        assert!(!out.f_plus.is_empty());
        assert!(!out.f_minus.is_empty());
        // Every F+ edge has an orientation owner.
        assert_eq!(out.added_by.len(), out.f_plus.len());
    }

    #[test]
    fn spanner_property_holds_relative_to_untouched_edges() {
        // Lemma 3.1: (V, F+) is a (2k-1)-spanner of (V, F+ ∪ E'') for any
        // E'' ⊆ E \ F. Take the maximal E'' = E \ (F+ ∪ F−).
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let g = generators::random_connected(35, 0.3, 4, &mut rng);
        let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        let p = vec![0.5; g.m()];
        let active = vec![true; g.m()];
        let k = 3;
        let mut net = bc_network(&g);
        let out = probabilistic_spanner(
            &mut net,
            &g,
            &weights,
            &p,
            &active,
            SpannerParams { k, seed: 21 },
        );
        let touched: std::collections::BTreeSet<usize> = out
            .f_plus
            .iter()
            .chain(out.f_minus.iter())
            .copied()
            .collect();
        let mut reference_edges = out.f_plus.clone();
        reference_edges.extend((0..g.m()).filter(|e| !touched.contains(e)));
        let reference = g.subgraph(&reference_edges);
        let spanner = g.subgraph(&out.f_plus);
        assert!(is_spanner_of(&spanner, &reference, 2 * k - 1));
    }

    #[test]
    fn inactive_edges_are_ignored() {
        let g = generators::complete(8);
        let weights: Vec<f64> = g.edges().iter().map(|e| e.weight).collect();
        let p = vec![1.0; g.m()];
        let mut active = vec![false; g.m()];
        // Activate only a spanning star around vertex 0.
        for &e in g.incident_edges(0) {
            active[e] = true;
        }
        let mut net = bc_network(&g);
        let out = probabilistic_spanner(
            &mut net,
            &g,
            &weights,
            &p,
            &active,
            SpannerParams { k: 2, seed: 7 },
        );
        for e in out.f_plus.iter().chain(out.f_minus.iter()) {
            assert!(active[*e], "edge {e} was not active");
        }
    }

    #[test]
    fn out_degree_orientation_is_reported() {
        let g = generators::complete(20);
        let mut net = bc_network(&g);
        let out = baswana_sen_spanner(&mut net, &g, SpannerParams { k: 2, seed: 2 });
        let deg = out.out_degrees(20);
        assert_eq!(deg.iter().sum::<usize>(), out.f_plus.len());
    }

    #[test]
    fn rounds_are_charged_per_lemma_3_2_shape() {
        // Larger k means more phases but fewer messages per phase; the round
        // count must stay well below m (which a naive "announce every edge"
        // algorithm would need).
        let g = generators::complete(64);
        let mut net = bc_network(&g);
        let _ = baswana_sen_spanner(&mut net, &g, SpannerParams { k: 3, seed: 9 });
        let rounds = net.ledger().total_rounds();
        assert!(rounds > 0);
        assert!(
            rounds < g.m() as u64 / 4,
            "rounds {rounds} should be far below m = {}",
            g.m()
        );
    }
}
