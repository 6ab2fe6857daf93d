//! The charged communication layer.
//!
//! A [`Network`] is one accounted execution: the model configuration (which
//! fixes the bandwidth `B = c·⌈log₂ n⌉`), the number of vertices and a
//! [`RoundLedger`]. Every vertex owns its coordinate of every vector, so
//! the data flow of the sparsifier, Laplacian, LP and flow layers is
//! vertex-local by construction, and each communication step is one of the
//! broadcast patterns below ([`Network::share_scalars`],
//! [`Network::share_varying`], [`Network::aggregate_scalar`],
//! [`Network::share_random_bits`]). A pattern is charged in closed form, so
//! a charge depends only on `B` and the pattern the algorithm names: a value
//! of `bits` bits takes `⌈bits / B⌉` rounds, matching the convention the
//! paper uses when a logical message (e.g. an edge weight of `log W` bits)
//! is wider than the bandwidth, and all vertices transmit in parallel.

use crate::error::RuntimeError;
use crate::ledger::RoundLedger;
use crate::model::{ceil_log2, ModelConfig};

/// An accounted bandwidth-constrained synchronous network.
///
/// # Examples
///
/// ```
/// use bcc_runtime::{ModelConfig, Network};
///
/// let mut net = Network::clique(ModelConfig::bcc(), 8); // B = 3 bits
/// net.begin_phase("announce");
/// // Vertex v writes counts[v] values of 3 bits each; the busiest vertex,
/// // with 4 values, dictates the rounds.
/// net.share_varying(&[0, 1, 4, 2, 0, 0, 0, 1], 3);
/// assert_eq!(net.ledger().total_rounds(), 4);
/// assert_eq!(net.ledger().total_bits(), (1 + 4 + 2 + 1) * 3);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cfg: ModelConfig,
    n: usize,
    ledger: RoundLedger,
}

impl Network {
    /// Creates a clique network on `n` vertices (for the Congested Clique and
    /// Broadcast Congested Clique models).
    pub fn clique(cfg: ModelConfig, n: usize) -> Self {
        Network {
            cfg,
            n,
            ledger: RoundLedger::new(),
        }
    }

    /// Creates a network on the vertices of the given undirected graph (for
    /// the CONGEST and Broadcast CONGEST models). The adjacency is checked,
    /// not kept: no charge depends on it.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidTopology`] if the adjacency structure is
    /// asymmetric, contains self-loops or out-of-range endpoints.
    pub fn on_graph(cfg: ModelConfig, adjacency: Vec<Vec<usize>>) -> Result<Self, RuntimeError> {
        let n = adjacency.len();
        for (v, nbrs) in adjacency.iter().enumerate() {
            for &u in nbrs {
                if u >= n {
                    return Err(RuntimeError::InvalidVertex { vertex: u, n });
                }
                if u == v {
                    return Err(RuntimeError::InvalidTopology(format!(
                        "self-loop at vertex {v}"
                    )));
                }
                if !adjacency[u].contains(&v) {
                    return Err(RuntimeError::InvalidTopology(format!(
                        "edge {v}-{u} is not symmetric"
                    )));
                }
            }
        }
        Ok(Network::clique(cfg, n))
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The model configuration this network simulates.
    pub fn config(&self) -> ModelConfig {
        self.cfg
    }

    /// Per-round bandwidth `B` in bits.
    pub fn bandwidth_bits(&self) -> u64 {
        self.cfg.bandwidth_bits(self.n)
    }

    /// Read access to the round ledger.
    pub fn ledger(&self) -> &RoundLedger {
        &self.ledger
    }

    /// Mutable access to the round ledger (e.g. to charge a cost computed on
    /// another network).
    pub fn ledger_mut(&mut self) -> &mut RoundLedger {
        &mut self.ledger
    }

    /// Starts a named accounting phase.
    pub fn begin_phase(&mut self, name: &str) {
        self.ledger.begin_phase(name);
    }

    /// Charges the rounds of every vertex simultaneously broadcasting one
    /// value of `bits_per_value` bits (the standard "share one coordinate of a
    /// vector" step; costs `⌈bits / B⌉` rounds).
    pub fn share_scalars(&mut self, bits_per_value: u64) {
        self.share_scalars_repeated(bits_per_value, 1);
    }

    /// Charges `times` consecutive [`Network::share_scalars`] steps in one
    /// ledger update: the same rounds, bits and operation count as `times`
    /// calls, in closed form (nothing at all for `times = 0`).
    pub fn share_scalars_repeated(&mut self, bits_per_value: u64, times: u64) {
        let rounds = self.cfg.rounds_for_bits(self.n, bits_per_value);
        self.ledger
            .charge_repeated(rounds, bits_per_value * self.n as u64, times);
    }

    /// Charges the rounds of every vertex broadcasting `counts[v]` values of
    /// `bits_per_value` bits each. The vertex with the largest count dictates
    /// the number of rounds (all broadcasts proceed in parallel).
    pub fn share_varying(&mut self, counts: &[usize], bits_per_value: u64) {
        assert_eq!(counts.len(), self.n, "one count per vertex expected");
        let max_count = counts.iter().copied().max().unwrap_or(0) as u64;
        let total: u64 = counts.iter().map(|&c| c as u64).sum::<u64>() * bits_per_value;
        let rounds = self
            .cfg
            .rounds_for_bits(self.n, max_count.saturating_mul(bits_per_value));
        self.ledger.charge(rounds, total);
    }

    /// Charges the rounds of a global aggregation (sum / min / max) of one
    /// scalar of `bits` bits per vertex: every vertex broadcasts its
    /// contribution and everyone computes the aggregate locally, `⌈bits / B⌉`
    /// rounds.
    pub fn aggregate_scalar(&mut self, bits: u64) {
        let rounds = self.cfg.rounds_for_bits(self.n, bits);
        self.ledger.charge(rounds, bits * self.n as u64);
    }

    /// Charges the shared coins of Algorithm 6: one round in which every
    /// vertex broadcasts its `⌈log₂ max(n, 2)⌉`-bit identifier to elect a
    /// leader (the highest identifier), then the leader's broadcast of
    /// `bits` random bits, `⌈bits / B⌉` rounds (one round for `bits = 0`).
    /// Two operations, both in the current phase.
    pub fn share_random_bits(&mut self, bits: u64) {
        let id_bits = u64::from(ceil_log2(self.n.max(2) as u64));
        self.ledger.charge(1, self.n as u64 * id_bits);
        let rounds = self.cfg.rounds_for_bits(self.n, bits);
        self.ledger.charge(rounds, bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetric_topology_rejected() {
        let adj = vec![vec![1], vec![]];
        assert!(matches!(
            Network::on_graph(ModelConfig::broadcast_congest(), adj),
            Err(RuntimeError::InvalidTopology(_))
        ));
    }

    #[test]
    fn share_scalars_rounds_match_bit_width() {
        let mut net = Network::clique(ModelConfig::bcc(), 16); // B = 4
        net.share_scalars(4);
        assert_eq!(net.ledger().total_rounds(), 1);
        net.share_scalars(9);
        assert_eq!(net.ledger().total_rounds(), 1 + 3);
    }

    #[test]
    fn share_scalars_repeated_equals_that_many_single_shares() {
        // B = 4 bits at n = 16: widths below, at and above one round.
        let fresh = Network::clique(ModelConfig::bcc(), 16);
        let mut phased = fresh.clone();
        phased.begin_phase("earlier");
        phased.share_scalars(3);
        phased.begin_phase("laplacian solve");
        for start in [fresh, phased] {
            for bits in [1, 4, 9, 64] {
                for times in [0, 1, 2, 35] {
                    let mut looped = start.clone();
                    for _ in 0..times {
                        looped.share_scalars(bits);
                    }
                    let mut closed = start.clone();
                    closed.share_scalars_repeated(bits, times);
                    // Ledger equality covers rounds, bits and operations per
                    // phase and the phase order; on the fresh network, zero
                    // steps must not create the "(default)" phase.
                    assert_eq!(
                        closed.ledger(),
                        looped.ledger(),
                        "{bits} bits, {times} times"
                    );
                    assert!(closed
                        .ledger()
                        .report()
                        .phase_names()
                        .eq(looped.ledger().report().phase_names()));
                }
            }
        }
    }

    #[test]
    fn share_varying_charges_maximum_load() {
        let mut net = Network::clique(ModelConfig::bcc(), 16); // B = 4
        net.share_varying(&[0, 1, 5, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 4);
        // Max count 5 values of 4 bits each = 20 bits -> 5 rounds.
        assert_eq!(net.ledger().total_rounds(), 5);
    }

    #[test]
    fn share_random_bits_charges_the_election_then_the_broadcast() {
        // (n, bits, rounds, bits charged) with B = 1, 4 and 7 bits at
        // n = 2, 16 and 100: one election round of n·⌈log₂ n⌉ identifier
        // bits, then ⌈bits / B⌉ rounds (one for zero bits) of the leader's
        // broadcast.
        let expected = [
            (2, 0, 2, 2),
            (2, 1, 2, 3),
            (2, 100, 101, 102),
            (16, 0, 2, 64),
            (16, 1, 2, 65),
            (16, 100, 26, 164),
            (100, 0, 2, 700),
            (100, 1, 2, 701),
            (100, 100, 16, 800),
        ];
        for (n, bits, rounds, charged) in expected {
            let mut net = Network::clique(ModelConfig::bcc(), n);
            net.begin_phase("earlier");
            net.share_scalars(3);
            let mut by_hand = net.clone();
            net.begin_phase("leverage scores");
            net.share_random_bits(bits);

            let report = net.ledger().report();
            let stats = report.phase("leverage scores").expect("charged phase");
            assert_eq!(
                (stats.rounds, stats.bits, stats.operations),
                (rounds, charged, 2),
                "n = {n}, bits = {bits}"
            );

            // The same two charges written out, after the same earlier phase.
            by_hand.begin_phase("leverage scores");
            let ledger = by_hand.ledger_mut();
            ledger.charge(1, n as u64 * u64::from(ceil_log2(n.max(2) as u64)));
            ledger.charge(ModelConfig::bcc().rounds_for_bits(n, bits), bits);
            assert_eq!(net.ledger(), by_hand.ledger(), "n = {n}, bits = {bits}");
        }
    }
}
