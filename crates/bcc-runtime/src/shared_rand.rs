//! Shared and per-vertex randomness.
//!
//! Two flavours of randomness appear in the paper's algorithms:
//!
//! * **Private coins** — e.g. cluster marking in Baswana–Sen, the ad-hoc edge
//!   sampling of Algorithm 5. Each vertex draws from its own stream; the
//!   stream is derived deterministically from a master seed and the vertex
//!   identifier so that experiments are reproducible.
//! * **Shared coins** — the Kane–Nelson Johnson–Lindenstrauss sketch of
//!   Algorithm 6 only needs `O(log² m)` random bits *in total*; a designated
//!   leader samples them and broadcasts them, which costs
//!   `⌈bits / B⌉` rounds, and every vertex expands the same bits into the
//!   same sketch matrix locally. [`SharedRandomness`] implements exactly this
//!   pattern and charges the broadcast on the network it is created from.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::error::RuntimeError;
use crate::network::Network;

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

/// A polylogarithmic pool of random bits sampled by a leader vertex and
/// broadcast to the whole network.
#[derive(Debug, Clone)]
pub struct SharedRandomness {
    bits_sampled: u64,
    seed: u64,
}

impl SharedRandomness {
    /// Elects a leader, lets it sample `bits` random bits (derived from
    /// `master_seed` for reproducibility) and broadcasts them.
    ///
    /// Charges one leader-election round plus `⌈bits / B⌉` broadcast rounds on
    /// `net`.
    ///
    /// # Errors
    ///
    /// Propagates [`RuntimeError`] from the underlying broadcast if the
    /// network is empty.
    pub fn sample_and_broadcast(
        net: &mut Network,
        master_seed: u64,
        bits: u64,
    ) -> Result<Self, RuntimeError> {
        let leader = net.elect_leader();
        net.broadcast_from(leader, bits)?;
        Ok(SharedRandomness {
            bits_sampled: bits,
            seed: master_seed ^ 0xA5A5_5A5A_DEAD_BEEF,
        })
    }

    /// Creates shared randomness without charging any rounds. Intended for
    /// unit tests of components that receive the randomness from a caller
    /// which already paid for the broadcast.
    pub fn for_testing(master_seed: u64, bits: u64) -> Self {
        SharedRandomness {
            bits_sampled: bits,
            seed: master_seed ^ 0xA5A5_5A5A_DEAD_BEEF,
        }
    }

    /// Number of random bits that were broadcast.
    pub fn bits(&self) -> u64 {
        self.bits_sampled
    }

    /// A deterministic RNG expanded from the shared bits. Every vertex calling
    /// this obtains the *same* stream, which is exactly the property the
    /// Kane–Nelson construction needs.
    pub fn expand(&self) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(self.seed)
    }

    /// Draws `count` uniform f64 values in `[0, 1)` from the shared stream.
    pub fn uniform_block(&self, count: usize) -> Vec<f64> {
        let mut rng = self.expand();
        (0..count).map(|_| rng.gen::<f64>()).collect()
    }

    /// Draws `count` Rademacher (±1) values from the shared stream.
    pub fn rademacher_block(&self, count: usize) -> Vec<f64> {
        let mut rng = self.expand();
        (0..count)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect()
    }

    /// Fills `dest` with raw random bytes from the shared stream.
    pub fn fill_bytes(&self, dest: &mut [u8]) {
        self.expand().fill_bytes(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;

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

    #[test]
    fn shared_randomness_charges_broadcast_rounds() {
        let mut net = Network::clique(ModelConfig::bcc(), 16); // B = 4 bits
        let shared = SharedRandomness::sample_and_broadcast(&mut net, 1, 100).unwrap();
        assert_eq!(shared.bits(), 100);
        // 1 round leader election + ceil(100/4) = 25 broadcast rounds.
        assert_eq!(net.ledger().total_rounds(), 26);
    }

    #[test]
    fn expansion_is_identical_for_all_consumers() {
        let shared = SharedRandomness::for_testing(9, 64);
        assert_eq!(shared.uniform_block(8), shared.uniform_block(8));
        assert_eq!(shared.rademacher_block(8), shared.rademacher_block(8));
        let mut b1 = [0u8; 16];
        let mut b2 = [0u8; 16];
        shared.fill_bytes(&mut b1);
        shared.fill_bytes(&mut b2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn rademacher_values_are_signs() {
        let shared = SharedRandomness::for_testing(11, 64);
        for v in shared.rademacher_block(100) {
            assert!(v == 1.0 || v == -1.0);
        }
    }
}
