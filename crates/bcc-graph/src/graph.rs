//! Undirected weighted graphs.
//!
//! The graph type used throughout the reproduction: vertices are `0..n`,
//! edges carry positive real weights, and parallel edges are allowed (they
//! arise naturally when sparsifiers re-weight and merge edge sets).

use serde::{Deserialize, Serialize};

/// An undirected weighted edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Positive weight.
    pub weight: f64,
}

impl Edge {
    /// Creates an edge; endpoints are stored as given.
    pub fn new(u: usize, v: usize, weight: f64) -> Self {
        Edge { u, v, weight }
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    pub fn other(&self, x: usize) -> usize {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!(
                "vertex {x} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }

    /// Endpoints as an ordered pair `(min, max)`.
    pub fn key(&self) -> (usize, usize) {
        (self.u.min(self.v), self.u.max(self.v))
    }
}

/// An undirected weighted multigraph on vertices `0..n`.
///
/// # Examples
///
/// ```
/// use bcc_graph::Graph;
///
/// let mut g = Graph::new(4);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 2.0);
/// g.add_edge(2, 3, 1.0);
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 3);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.is_connected());
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    /// adjacency[v] = list of edge indices incident to v.
    adjacency: Vec<Vec<usize>>,
}

impl Graph {
    /// Creates an empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, an edge is a self-loop, or a
    /// weight is not strictly positive (see [`Graph::add_edge`]).
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize, f64)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Adds an undirected edge of weight `weight` and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`, if an endpoint is `≥ n`, or if the weight is not a
    /// strictly positive finite number.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) -> usize {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weights must be positive and finite, got {weight}"
        );
        let idx = self.edges.len();
        self.edges.push(Edge::new(u, v, weight));
        self.adjacency[u].push(idx);
        self.adjacency[v].push(idx);
        idx
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The edge with index `e`.
    pub fn edge(&self, e: usize) -> Edge {
        self.edges[e]
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Indices of the edges incident to `v`.
    pub fn incident_edges(&self, v: usize) -> &[usize] {
        &self.adjacency[v]
    }

    /// Neighbors of `v` (with multiplicity for parallel edges).
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        self.adjacency[v]
            .iter()
            .map(|&e| self.edges[e].other(v))
            .collect()
    }

    /// Degree of `v` (number of incident edges).
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }

    /// Weighted degree of `v` (sum of incident edge weights) — the diagonal
    /// entry `L_{vv}` of the Laplacian.
    pub fn weighted_degree(&self, v: usize) -> f64 {
        self.adjacency[v]
            .iter()
            .map(|&e| self.edges[e].weight)
            .sum()
    }

    /// Largest edge weight, or `0.0` for an edgeless graph.
    pub fn max_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).fold(0.0, f64::max)
    }

    /// Smallest edge weight, or `0.0` for an edgeless graph.
    pub fn min_weight(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.weight)
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
            .pipe_finite()
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }

    /// Simple adjacency lists (deduplicated neighbors), suitable for
    /// constructing a CONGEST communication topology.
    pub fn adjacency_lists(&self) -> Vec<Vec<usize>> {
        (0..self.n)
            .map(|v| {
                let mut nbrs = self.neighbors(v);
                nbrs.sort_unstable();
                nbrs.dedup();
                nbrs
            })
            .collect()
    }

    /// Empties the graph to `n` isolated vertices, keeping the memory of its
    /// edge and adjacency lists, so that a graph rebuilt edge by edge to the
    /// same size allocates nothing.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.edges.clear();
        self.adjacency.resize_with(n, Vec::new);
        self.adjacency.iter_mut().for_each(Vec::clear);
    }

    /// Returns `true` if the graph is connected (an edgeless single-vertex
    /// graph counts as connected, an empty graph does too).
    pub fn is_connected(&self) -> bool {
        self.is_connected_with(&mut Vec::new())
    }

    /// [`Graph::is_connected`] with the caller's union-find array, which it
    /// overwrites: no allocation once `roots` has held `n` entries.
    pub fn is_connected_with(&self, roots: &mut Vec<usize>) -> bool {
        fn root(roots: &mut [usize], mut v: usize) -> usize {
            while roots[v] != v {
                roots[v] = roots[roots[v]];
                v = roots[v];
            }
            v
        }
        roots.clear();
        roots.extend(0..self.n);
        let mut components = self.n;
        for e in &self.edges {
            let (u, v) = (root(roots, e.u), root(roots, e.v));
            if u != v {
                roots[u] = v;
                components -= 1;
            }
        }
        components <= 1
    }

    /// A new graph with the same vertex set and the edges produced by `f`
    /// applied to each edge (e.g. reweighting).
    pub fn map_weights(&self, mut f: impl FnMut(&Edge) -> f64) -> Graph {
        let mut g = Graph::new(self.n);
        for e in &self.edges {
            g.add_edge(e.u, e.v, f(e));
        }
        g
    }

    /// A new graph containing only the edges whose indices are in `keep`
    /// (weights unchanged).
    pub fn subgraph(&self, keep: &[usize]) -> Graph {
        let mut g = Graph::new(self.n);
        for &e in keep {
            let edge = self.edges[e];
            g.add_edge(edge.u, edge.v, edge.weight);
        }
        g
    }
}

trait PipeFinite {
    fn pipe_finite(self) -> f64;
}

impl PipeFinite for f64 {
    fn pipe_finite(self) -> f64 {
        if self.is_finite() {
            self
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_other_and_key() {
        let e = Edge::new(3, 1, 2.0);
        assert_eq!(e.other(3), 1);
        assert_eq!(e.other(1), 3);
        assert_eq!(e.key(), (1, 3));
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        Edge::new(0, 1, 1.0).other(2);
    }

    #[test]
    fn basic_accessors() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)]);
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.weighted_degree(1), 6.0);
        assert_eq!(g.max_weight(), 3.0);
        assert_eq!(g.min_weight(), 1.0);
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.neighbors(1), vec![0, 2, 3]);
        assert_eq!(g.edge(2).key(), (1, 3));
    }

    #[test]
    fn parallel_edges_are_supported() {
        let g = Graph::from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.weighted_degree(0), 3.0);
        // adjacency_lists deduplicates.
        assert_eq!(g.adjacency_lists()[0], vec![1]);
    }

    #[test]
    #[should_panic]
    fn self_loops_rejected() {
        Graph::from_edges(2, [(1, 1, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn non_positive_weights_rejected() {
        Graph::from_edges(2, [(0, 1, 0.0)]);
    }

    #[test]
    fn connectivity() {
        let connected = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]);
        assert!(connected.is_connected());
        let disconnected = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert!(!disconnected.is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn reset_empties_the_graph_to_isolated_vertices() {
        let mut g = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]);
        g.reset(3);
        assert_eq!(g, Graph::new(3));
        g.add_edge(0, 2, 5.0);
        assert_eq!(g, Graph::from_edges(3, [(0, 2, 5.0)]));
        g.reset(5);
        assert_eq!(g, Graph::new(5));
    }

    #[test]
    fn map_weights_and_subgraph() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]);
        let scaled = g.map_weights(|e| 4.0 * e.weight);
        assert_eq!(scaled.edge(1).weight, 8.0);
        let sub = g.subgraph(&[1]);
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.edge(0).key(), (1, 2));
        assert_eq!(sub.n(), 3);
    }

    #[test]
    fn min_weight_of_empty_graph_is_zero() {
        assert_eq!(Graph::new(3).min_weight(), 0.0);
        assert_eq!(Graph::new(3).max_weight(), 0.0);
    }
}
