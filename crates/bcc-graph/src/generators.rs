//! Graph and flow-network generators used by tests, examples and the
//! experiment harness.
//!
//! All random generators take an explicit `&mut impl Rng` so that every
//! experiment is reproducible from its seed.

use rand::Rng;

use crate::digraph::{DiGraph, FlowInstance};
use crate::graph::Graph;

/// A path `0 − 1 − ⋯ − (n−1)` with unit weights.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1, 1.0)))
}

/// A cycle on `n ≥ 3` vertices with unit weights.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)))
}

/// A star with center 0 and `n − 1` leaves, unit weights.
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|i| (0, i, 1.0)))
}

/// The complete graph `K_n` with unit weights.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, 1.0);
        }
    }
    g
}

/// A `rows × cols` grid with unit weights.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut g = Graph::new(n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1), 1.0);
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c), 1.0);
            }
        }
    }
    g
}

/// A "barbell": two cliques of size `k` joined by a path of length
/// `bridge_len` — the classic hard instance for spectral methods (tiny
/// conductance).
pub fn barbell(k: usize, bridge_len: usize) -> Graph {
    assert!(k >= 2, "each bell needs at least 2 vertices");
    let n = 2 * k + bridge_len;
    let mut g = Graph::new(n);
    for u in 0..k {
        for v in (u + 1)..k {
            g.add_edge(u, v, 1.0);
        }
    }
    let offset = k + bridge_len;
    for u in 0..k {
        for v in (u + 1)..k {
            g.add_edge(offset + u, offset + v, 1.0);
        }
    }
    // Bridge path connecting vertex k-1 of the first bell to vertex `offset`
    // of the second.
    let mut prev = k - 1;
    for i in 0..bridge_len {
        g.add_edge(prev, k + i, 1.0);
        prev = k + i;
    }
    g.add_edge(prev, offset, 1.0);
    g
}

/// Erdős–Rényi graph `G(n, p)` with weights drawn uniformly from
/// `1..=max_weight` (as integers, stored as `f64`).
pub fn erdos_renyi(n: usize, p: f64, max_weight: u64, rng: &mut impl Rng) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(max_weight >= 1);
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen::<f64>() < p {
                let w = rng.gen_range(1..=max_weight) as f64;
                g.add_edge(u, v, w);
            }
        }
    }
    g
}

/// A connected weighted random graph: a random spanning tree (to guarantee
/// connectivity) plus `G(n, p)` extra edges, weights in `1..=max_weight`.
pub fn random_connected(n: usize, p: f64, max_weight: u64, rng: &mut impl Rng) -> Graph {
    assert!(n >= 1);
    let mut g = Graph::new(n);
    let mut seen: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    // Random spanning tree: attach vertex v to a uniformly random earlier vertex.
    for v in 1..n {
        let u = rng.gen_range(0..v);
        let w = rng.gen_range(1..=max_weight) as f64;
        g.add_edge(u, v, w);
        seen.insert((u.min(v), u.max(v)));
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if seen.contains(&(u, v)) {
                continue;
            }
            if rng.gen::<f64>() < p {
                let w = rng.gen_range(1..=max_weight) as f64;
                g.add_edge(u, v, w);
            }
        }
    }
    g
}

/// An approximately `d`-regular random graph built from `d/2` random
/// Hamiltonian-cycle-style permutations (a standard light-weight expander
/// construction). `d` must be even and `≥ 2`.
pub fn random_regularish(n: usize, d: usize, rng: &mut impl Rng) -> Graph {
    assert!(
        d >= 2 && d.is_multiple_of(2),
        "degree must be even and >= 2"
    );
    assert!(n >= 3);
    let mut g = Graph::new(n);
    let mut seen: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    for _ in 0..(d / 2) {
        // Random cyclic permutation.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for i in 0..n {
            let u = perm[i];
            let v = perm[(i + 1) % n];
            let key = (u.min(v), u.max(v));
            if u != v && !seen.contains(&key) {
                seen.insert(key);
                g.add_edge(u, v, 1.0);
            }
        }
    }
    g
}

/// A random capacitated, cost-labelled flow instance that is guaranteed to
/// admit at least one `s`-`t` path: a random DAG-ish backbone from `s = 0` to
/// `t = n−1` plus random extra arcs. Capacities and absolute costs are drawn
/// from `1..=max_magnitude`.
pub fn random_flow_instance(
    n: usize,
    extra_arc_probability: f64,
    max_magnitude: i64,
    rng: &mut impl Rng,
) -> FlowInstance {
    assert!(n >= 2);
    assert!(max_magnitude >= 1);
    let mut g = DiGraph::new(n);
    // Backbone path 0 -> 1 -> ... -> n-1 guarantees an s-t path.
    for v in 0..n - 1 {
        let cap = rng.gen_range(1..=max_magnitude);
        let cost = rng.gen_range(1..=max_magnitude);
        g.add_arc(v, v + 1, cap, cost);
    }
    for u in 0..n {
        for v in 0..n {
            if u == v || (v == u + 1) {
                continue;
            }
            if rng.gen::<f64>() < extra_arc_probability {
                let cap = rng.gen_range(1..=max_magnitude);
                let cost = rng.gen_range(1..=max_magnitude);
                g.add_arc(u, v, cap, cost);
            }
        }
    }
    FlowInstance::new(g, 0, n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn deterministic_generators_have_expected_sizes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        assert_eq!(star(5).m(), 4);
        assert_eq!(complete(5).m(), 10);
        assert_eq!(grid(3, 4).n(), 12);
        assert_eq!(grid(3, 4).m(), 3 * 3 + 2 * 4);
        assert!(path(5).is_connected());
        assert!(grid(3, 4).is_connected());
    }

    #[test]
    fn barbell_is_connected_and_has_two_cliques() {
        let g = barbell(4, 2);
        assert_eq!(g.n(), 10);
        assert!(g.is_connected());
        // Two K_4 (6 edges each) + bridge of length 2 (3 edges).
        assert_eq!(g.m(), 6 + 6 + 3);
    }

    #[test]
    fn erdos_renyi_density_tracks_p() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = erdos_renyi(60, 0.3, 8, &mut rng);
        let expected = 0.3 * (60.0 * 59.0 / 2.0);
        assert!((g.m() as f64) > 0.5 * expected && (g.m() as f64) < 1.5 * expected);
        assert!(g.max_weight() <= 8.0);
        assert!(g.min_weight() >= 1.0);
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(erdos_renyi(10, 0.0, 1, &mut rng).m(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1, &mut rng).m(), 45);
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for n in [1, 2, 5, 33] {
            let g = random_connected(n, 0.05, 10, &mut rng);
            assert!(g.is_connected(), "n = {n}");
            assert!(g.m() >= n.saturating_sub(1));
        }
    }

    #[test]
    fn regularish_has_bounded_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = random_regularish(30, 6, &mut rng);
        assert!(g.is_connected());
        for v in 0..30 {
            assert!(g.degree(v) <= 6);
            assert!(g.degree(v) >= 2);
        }
    }

    #[test]
    fn random_flow_instance_has_backbone() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let inst = random_flow_instance(8, 0.2, 16, &mut rng);
        assert_eq!(inst.source, 0);
        assert_eq!(inst.sink, 7);
        assert!(inst.graph.m() >= 7);
        assert!(inst.graph.max_capacity() <= 16);
        assert!(inst.graph.max_cost() <= 16);
        // Backbone means a positive max flow exists; check arc 0 -> 1 exists.
        assert!(inst
            .graph
            .out_arcs(0)
            .iter()
            .any(|&a| inst.graph.arc(a).to == 1));
    }

    #[test]
    #[should_panic]
    fn cycle_requires_three_vertices() {
        let _ = cycle(2);
    }
}
