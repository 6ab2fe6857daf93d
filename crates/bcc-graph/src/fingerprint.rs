//! Deterministic graph fingerprints.
//!
//! A [`GraphFingerprint`] is a 128-bit digest of a [`Graph`]'s topology and
//! weights, designed as a cache key for preprocessing that depends only on
//! the graph (e.g. the sparsifier a Laplacian solver builds once and reuses
//! for every right-hand side). The digest is
//!
//! * **deterministic** — a pure function of the graph, stable across runs,
//!   platforms and processes (no `RandomState`);
//! * **edge-order independent** — the edge *multiset* is canonicalized
//!   (endpoints sorted within each edge, edges sorted by endpoints and weight
//!   bits) before hashing, so two graphs built by inserting the same edges in
//!   different orders collide on purpose;
//! * **weight exact** — weights are hashed by their IEEE-754 bit pattern, so
//!   any representable perturbation changes the fingerprint.
//!
//! Collisions between *distinct* graphs are possible in principle (the digest
//! is 128 bits) but are negligible for cache-keying purposes; the FNV-1a
//! construction below is not cryptographic and must not be used against
//! adversarial inputs.

use crate::graph::Graph;

/// A 128-bit digest identifying a graph up to edge order.
///
/// # Examples
///
/// ```
/// use bcc_graph::{fingerprint, Graph};
///
/// let a = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]);
/// let b = Graph::from_edges(3, [(2, 1, 2.0), (0, 1, 1.0)]);
/// assert_eq!(fingerprint(&a), fingerprint(&b)); // order / orientation independent
///
/// let c = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.5)]);
/// assert_ne!(fingerprint(&a), fingerprint(&c)); // weights matter
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphFingerprint(u128);

impl GraphFingerprint {
    /// The raw 128-bit digest.
    pub fn as_u128(&self) -> u128 {
        self.0
    }

    /// The digest as a fixed-width lowercase hex string (32 characters) —
    /// the serialized form used in `BENCH_*.json` reports.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for GraphFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// 128-bit FNV-1a over a stream of `u64` words.
#[derive(Debug, Clone, Copy)]
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u128::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn finish(self) -> u128 {
        self.0
    }
}

/// Computes the [`GraphFingerprint`] of a graph.
///
/// Runs in `O(m log m)` time for the canonical edge sort.
pub fn fingerprint(graph: &Graph) -> GraphFingerprint {
    // Canonical multiset: each edge as (min endpoint, max endpoint, weight
    // bits), sorted. Ties (parallel edges with equal weight) are harmless —
    // equal triples hash equally in any order.
    let mut canonical: Vec<(usize, usize, u64)> = graph
        .edges()
        .iter()
        .map(|e| {
            let (u, v) = e.key();
            (u, v, e.weight.to_bits())
        })
        .collect();
    canonical.sort_unstable();

    let mut hash = Fnv128::new();
    hash.write_u64(graph.n() as u64);
    hash.write_u64(canonical.len() as u64);
    for (u, v, w) in canonical {
        hash.write_u64(u as u64);
        hash.write_u64(v as u64);
        hash.write_u64(w);
    }
    GraphFingerprint(hash.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_graphs_have_equal_fingerprints() {
        let a = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]);
        let b = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn edge_order_and_orientation_do_not_matter() {
        let a = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)]);
        let b = Graph::from_edges(4, [(3, 2, 0.5), (2, 1, 2.0), (1, 0, 1.0)]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn weight_and_topology_perturbations_change_the_fingerprint() {
        let base = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)]);
        let reweighted = Graph::from_edges(4, [(0, 1, 1.0), (1, 2, 2.0 + 1e-12)]);
        assert_ne!(fingerprint(&base), fingerprint(&reweighted));
        let rewired = Graph::from_edges(4, [(0, 1, 1.0), (1, 3, 2.0)]);
        assert_ne!(fingerprint(&base), fingerprint(&rewired));
        let extra_vertex = Graph::from_edges(5, [(0, 1, 1.0), (1, 2, 2.0)]);
        assert_ne!(fingerprint(&base), fingerprint(&extra_vertex));
    }

    #[test]
    fn parallel_edge_multiplicity_is_part_of_the_identity() {
        let single = Graph::from_edges(2, [(0, 1, 1.0)]);
        let double = Graph::from_edges(2, [(0, 1, 1.0), (0, 1, 1.0)]);
        assert_ne!(fingerprint(&single), fingerprint(&double));
    }

    #[test]
    fn hex_form_is_stable_and_32_chars() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]);
        let fp = fingerprint(&g);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(hex, fingerprint(&g).to_hex());
        assert_eq!(fp.to_string(), hex);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
