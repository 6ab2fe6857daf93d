//! Per-vertex randomness.
//!
//! Two flavours of randomness appear in the paper's algorithms:
//!
//! * **Private coins** — e.g. cluster marking in Baswana–Sen, the ad-hoc edge
//!   sampling of Algorithm 5. Each vertex draws from its own stream; the
//!   stream is derived deterministically from a master seed and the vertex
//!   identifier so that experiments are reproducible.
//! * **Shared coins** — the Kane–Nelson Johnson–Lindenstrauss sketch of
//!   Algorithm 6 only needs `O(log² m)` random bits *in total*; a leader
//!   samples and broadcasts them ([`crate::Network::share_random_bits`]
//!   charges that), and every vertex expands the same bits into the same
//!   sketch matrix locally (`bcc_linalg::JlSketch::from_shared_seed`).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Deterministic per-vertex private randomness.
///
/// # Examples
///
/// ```
/// use bcc_runtime::shared_rand::vertex_rng;
/// use rand::Rng;
///
/// let mut a = vertex_rng(42, 3);
/// let mut b = vertex_rng(42, 3);
/// let mut c = vertex_rng(42, 4);
/// let x: u64 = a.gen();
/// assert_eq!(x, b.gen::<u64>());
/// assert_ne!(x, c.gen::<u64>());
/// ```
pub fn vertex_rng(master_seed: u64, vertex: usize) -> ChaCha8Rng {
    // Mix the vertex id into the seed so that consecutive vertices get
    // unrelated streams.
    let z = splitmix64(master_seed ^ (vertex as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ChaCha8Rng::seed_from_u64(z)
}

/// The splitmix64 finalizer: a bijective avalanche mix turning structured
/// `(master, index)` combinations into unrelated seeds. Shared by
/// [`vertex_rng`], the serving engine's request seeds and the load
/// harness's arrival stream, so the mixing constants live in one place.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn vertex_streams_are_reproducible_and_distinct() {
        let mut r1 = vertex_rng(7, 0);
        let mut r2 = vertex_rng(7, 0);
        let mut r3 = vertex_rng(7, 1);
        let a: [u64; 4] = [r1.gen(), r1.gen(), r1.gen(), r1.gen()];
        let b: [u64; 4] = [r2.gen(), r2.gen(), r2.gen(), r2.gen()];
        let c: [u64; 4] = [r3.gen(), r3.gen(), r3.gen(), r3.gen()];
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
