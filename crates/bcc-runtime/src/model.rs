//! Message-passing model definitions.
//!
//! The paper works with four synchronous message-passing models that differ in
//! two orthogonal properties:
//!
//! * **topology** — whether communication is restricted to the edges of the
//!   input graph (CONGEST family) or allowed between every pair of vertices
//!   (Congested Clique family), and
//! * **broadcast constraint** — whether a vertex may send *different* messages
//!   to different neighbors in a round (unicast) or must send the *same*
//!   message to all of them (broadcast).
//!
//! All four share the bandwidth constraint: messages carry `B = Θ(log n)`
//! bits per round. The algorithms of this workspace are written for the
//! broadcast models, each communication step names its broadcast pattern,
//! and [`crate::Network`] charges that pattern from `B` alone.

use serde::{Deserialize, Serialize};

/// The four bandwidth-constrained synchronous models considered in the paper.
/// Engine configurations (`bcc-engine-config/v2`) serialize the model, so
/// all four stay spellable there.
///
/// # Examples
///
/// ```
/// use bcc_runtime::{Model, ModelConfig, Network};
///
/// let cfg = ModelConfig::bcc();
/// assert_eq!(cfg.model, Model::BroadcastCongestedClique);
/// assert_eq!(cfg.model.to_string(), "BCC");
/// // B = ⌈log₂ 1024⌉ = 10 bits: a 25-bit aggregate takes ⌈25 / 10⌉ = 3 rounds.
/// let mut net = Network::clique(cfg, 1024);
/// net.aggregate_scalar(25);
/// assert_eq!(net.ledger().total_rounds(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Model {
    /// CONGEST: unicast along the edges of the communication graph.
    Congest,
    /// Broadcast CONGEST: one message per vertex per round, delivered to all
    /// of its graph neighbors.
    BroadcastCongest,
    /// Congested Clique: unicast between every pair of vertices.
    CongestedClique,
    /// Broadcast Congested Clique: one message per vertex per round, written
    /// to a shared blackboard readable by everyone.
    BroadcastCongestedClique,
}

impl Model {
    /// A short human-readable name (`"BC"`, `"BCC"`, ...), matching the
    /// abbreviations used in the paper's Figure 1.
    pub fn short_name(self) -> &'static str {
        match self {
            Model::Congest => "CONGEST",
            Model::BroadcastCongest => "BC",
            Model::CongestedClique => "CC",
            Model::BroadcastCongestedClique => "BCC",
        }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short_name())
    }
}

/// `⌈log2(x)⌉` for `x ≥ 1`, with `ceil_log2(1) = 1` so that identifiers of a
/// single-vertex network still occupy one bit.
pub fn ceil_log2(x: u64) -> u32 {
    debug_assert!(x >= 1, "ceil_log2 is only defined for x >= 1");
    if x <= 2 {
        1
    } else {
        64 - (x - 1).leading_zeros()
    }
}

/// Bandwidth and topology configuration of a simulated network.
///
/// The paper fixes the per-round message size to `B = Θ(log n)` bits. The
/// hidden constant matters for concrete round counts, so it is exposed here as
/// [`ModelConfig::bandwidth_factor`]; the default of `1` charges exactly
/// `⌈log2 n⌉` bits per message slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Which of the four models is simulated.
    pub model: Model,
    /// Multiplier `c` in `B = c · ⌈log2 n⌉`.
    pub bandwidth_factor: u32,
}

impl ModelConfig {
    /// Configuration for the Broadcast Congested Clique with the default
    /// bandwidth `B = ⌈log2 n⌉`.
    pub fn bcc() -> Self {
        ModelConfig {
            model: Model::BroadcastCongestedClique,
            bandwidth_factor: 1,
        }
    }

    /// Configuration for the Broadcast CONGEST model with the default
    /// bandwidth `B = ⌈log2 n⌉`.
    pub fn broadcast_congest() -> Self {
        ModelConfig {
            model: Model::BroadcastCongest,
            bandwidth_factor: 1,
        }
    }

    /// Overrides the bandwidth multiplier `c` in `B = c · ⌈log2 n⌉`.
    pub fn with_bandwidth_factor(mut self, factor: u32) -> Self {
        assert!(factor >= 1, "bandwidth factor must be at least 1");
        self.bandwidth_factor = factor;
        self
    }

    /// Per-round message size in bits for an `n`-vertex network.
    pub fn bandwidth_bits(&self, n: usize) -> u64 {
        let n = n.max(2) as u64;
        u64::from(self.bandwidth_factor) * u64::from(ceil_log2(n))
    }

    /// Number of rounds needed to push `bits` bits through one message slot.
    ///
    /// Zero-bit payloads (e.g. a pure "I am silent" signal) still consume one
    /// round because the round happened.
    pub fn rounds_for_bits(&self, n: usize, bits: u64) -> u64 {
        let b = self.bandwidth_bits(n);
        if bits == 0 {
            1
        } else {
            bits.div_ceil(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names_are_paper_abbreviations() {
        assert_eq!(Model::BroadcastCongest.short_name(), "BC");
        assert_eq!(Model::BroadcastCongestedClique.short_name(), "BCC");
        assert_eq!(format!("{}", Model::Congest), "CONGEST");
    }

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(1), 1);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn bandwidth_scales_with_log_n() {
        let cfg = ModelConfig::bcc();
        assert_eq!(cfg.bandwidth_bits(2), 1);
        assert_eq!(cfg.bandwidth_bits(1024), 10);
        let wide = ModelConfig::bcc().with_bandwidth_factor(4);
        assert_eq!(wide.bandwidth_bits(1024), 40);
    }

    #[test]
    fn rounds_for_bits_rounds_up() {
        let cfg = ModelConfig::bcc();
        // n = 1024 -> B = 10 bits.
        assert_eq!(cfg.rounds_for_bits(1024, 0), 1);
        assert_eq!(cfg.rounds_for_bits(1024, 1), 1);
        assert_eq!(cfg.rounds_for_bits(1024, 10), 1);
        assert_eq!(cfg.rounds_for_bits(1024, 11), 2);
        assert_eq!(cfg.rounds_for_bits(1024, 95), 10);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_factor_rejected() {
        let _ = ModelConfig::bcc().with_bandwidth_factor(0);
    }
}
