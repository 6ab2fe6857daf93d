//! The charged communication layer.
//!
//! A [`Network`] represents one simulated execution environment: the model
//! (topology + broadcast constraint + bandwidth), the communication graph and
//! a [`RoundLedger`]. Algorithms interact with it in two styles:
//!
//! 1. **Message exchanges** ([`Network::exchange`] /
//!    [`Network::exchange_unicast`]): one synchronous step in which every
//!    vertex contributes at most one message (broadcast models) or one message
//!    per neighbor (unicast models). The ledger is charged
//!    `⌈max message bits / B⌉` rounds, matching the convention the paper uses
//!    when a logical message (e.g. an edge weight of `log W` bits) is wider
//!    than the bandwidth.
//! 2. **Charged numeric primitives** ([`Network::share_scalars`],
//!    [`Network::broadcast_from`], ...) used by the Laplacian/LP/flow layers:
//!    the data flow of those algorithms is vertex-local by construction (each
//!    vertex owns its coordinate of every vector), so the simulator only needs
//!    to account the rounds of the corresponding broadcast pattern.

use crate::error::RuntimeError;
use crate::ledger::RoundLedger;
use crate::model::ModelConfig;
use crate::payload::MessageSize;

/// Communication topology of a simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Every pair of vertices may communicate (Congested Clique family).
    Clique,
    /// Communication restricted to the edges of an undirected graph, given as
    /// adjacency lists (CONGEST family).
    Graph(Vec<Vec<usize>>),
}

/// A simulated bandwidth-constrained synchronous network.
///
/// # Examples
///
/// ```
/// use bcc_runtime::{ModelConfig, Network};
///
/// let mut net = Network::clique(ModelConfig::bcc(), 8);
/// // Every vertex broadcasts its identifier (3 bits each for n = 8): 1 round.
/// let delivered = net.exchange(|v| Some(bcc_runtime::payload::Field::id(v, 8)));
/// assert_eq!(delivered[0].len(), 7); // everyone hears the 7 others
/// assert_eq!(net.ledger().total_rounds(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cfg: ModelConfig,
    n: usize,
    topology: Topology,
    ledger: RoundLedger,
}

impl Network {
    /// Creates a clique network on `n` vertices (for the Congested Clique and
    /// Broadcast Congested Clique models).
    pub fn clique(cfg: ModelConfig, n: usize) -> Self {
        Network {
            cfg,
            n,
            topology: Topology::Clique,
            ledger: RoundLedger::new(),
        }
    }

    /// Creates a network whose communication links are the edges of the given
    /// undirected graph (for the CONGEST and Broadcast CONGEST models).
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
        Ok(Network {
            cfg,
            n,
            topology: Topology::Graph(adjacency),
            ledger: RoundLedger::new(),
        })
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

    /// The vertices that receive a broadcast of vertex `v`.
    pub fn recipients(&self, v: usize) -> Vec<usize> {
        match &self.topology {
            Topology::Clique => (0..self.n).filter(|&u| u != v).collect(),
            Topology::Graph(adj) => adj[v].clone(),
        }
    }

    /// Returns `true` if `u` may receive a message from `v` in one round.
    pub fn are_connected(&self, v: usize, u: usize) -> bool {
        if v == u {
            return false;
        }
        match &self.topology {
            Topology::Clique => true,
            Topology::Graph(adj) => adj[v].contains(&u),
        }
    }

    /// One synchronous broadcast step: every vertex `v` for which `make(v)`
    /// returns `Some(msg)` broadcasts `msg` to all its recipients.
    ///
    /// Returns, for every vertex, the list of `(sender, message)` pairs it
    /// received. The ledger is charged `⌈max_v bits(msg_v) / B⌉` rounds — the
    /// widest message dictates how many physical rounds the logical step
    /// takes, all vertices transmit in parallel.
    pub fn exchange<M, F>(&mut self, mut make: F) -> Vec<Vec<(usize, M)>>
    where
        M: MessageSize + Clone,
        F: FnMut(usize) -> Option<M>,
    {
        let mut outgoing: Vec<Option<M>> = Vec::with_capacity(self.n);
        let mut max_bits = 0u64;
        let mut total_bits = 0u64;
        for v in 0..self.n {
            let msg = make(v);
            if let Some(m) = &msg {
                let b = m.message_bits();
                max_bits = max_bits.max(b);
                total_bits += b;
            }
            outgoing.push(msg);
        }
        let rounds = self.cfg.rounds_for_bits(self.n, max_bits);
        self.ledger.charge(rounds, total_bits);

        let mut delivered: Vec<Vec<(usize, M)>> = vec![Vec::new(); self.n];
        for v in 0..self.n {
            if let Some(msg) = &outgoing[v] {
                for u in self.recipients(v) {
                    delivered[u].push((v, msg.clone()));
                }
            }
        }
        delivered
    }

    /// One synchronous unicast step (CONGEST / Congested Clique only): every
    /// vertex contributes a list of `(recipient, message)` pairs with at most
    /// one message per recipient.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::BroadcastViolation`] if the model imposes the
    ///   broadcast constraint.
    /// * [`RuntimeError::NotANeighbor`] if a recipient is not reachable in one
    ///   round under the network topology.
    pub fn exchange_unicast<M, F>(
        &mut self,
        mut make: F,
    ) -> Result<Vec<Vec<(usize, M)>>, RuntimeError>
    where
        M: MessageSize + Clone,
        F: FnMut(usize) -> Vec<(usize, M)>,
    {
        if self.cfg.model.is_broadcast() {
            return Err(RuntimeError::BroadcastViolation {
                vertex: 0,
                round: self.ledger.total_rounds(),
            });
        }
        let mut per_vertex: Vec<Vec<(usize, M)>> = Vec::with_capacity(self.n);
        let mut max_bits = 0u64;
        let mut total_bits = 0u64;
        for v in 0..self.n {
            let msgs = make(v);
            let mut vertex_max = 0u64;
            for (to, m) in &msgs {
                if *to >= self.n {
                    return Err(RuntimeError::InvalidVertex {
                        vertex: *to,
                        n: self.n,
                    });
                }
                if !self.are_connected(v, *to) {
                    return Err(RuntimeError::NotANeighbor { from: v, to: *to });
                }
                let b = m.message_bits();
                vertex_max = vertex_max.max(b);
                total_bits += b;
            }
            max_bits = max_bits.max(vertex_max);
            per_vertex.push(msgs);
        }
        let rounds = self.cfg.rounds_for_bits(self.n, max_bits);
        self.ledger.charge(rounds, total_bits);
        let mut delivered: Vec<Vec<(usize, M)>> = vec![Vec::new(); self.n];
        for (v, msgs) in per_vertex.into_iter().enumerate() {
            for (to, m) in msgs {
                delivered[to].push((v, m));
            }
        }
        Ok(delivered)
    }

    // ------------------------------------------------------------------
    // Charged numeric primitives.
    // ------------------------------------------------------------------

    /// Charges the rounds of a single vertex broadcasting a payload of
    /// `bits` bits to the whole network (clique models) or to its neighbors
    /// (CONGEST models).
    pub fn broadcast_from(&mut self, source: usize, bits: u64) -> Result<(), RuntimeError> {
        if source >= self.n {
            return Err(RuntimeError::InvalidVertex {
                vertex: source,
                n: self.n,
            });
        }
        let rounds = self.cfg.rounds_for_bits(self.n, bits);
        self.ledger.charge(rounds, bits);
        Ok(())
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
    /// scalar of `bits` bits per vertex.
    ///
    /// In the clique models every vertex broadcasts its contribution and the
    /// aggregate is computed locally by everyone: `⌈bits / B⌉` rounds. In the
    /// CONGEST models the aggregate is computed by convergecast over a BFS
    /// tree and re-broadcast, which costs `O(D)` additional rounds; since this
    /// crate does not track the diameter of the communication graph the caller
    /// provides it explicitly via [`Network::aggregate_scalar_with_diameter`]
    /// when running outside the clique.
    pub fn aggregate_scalar(&mut self, bits: u64) {
        let rounds = self.cfg.rounds_for_bits(self.n, bits);
        self.ledger.charge(rounds, bits * self.n as u64);
    }

    /// Aggregation in a CONGEST-family network whose communication graph has
    /// the given `diameter`: a convergecast up a BFS tree plus a broadcast
    /// down, each taking `diameter` hops of `⌈bits/B⌉`-round messages.
    pub fn aggregate_scalar_with_diameter(&mut self, bits: u64, diameter: u64) {
        let per_hop = self.cfg.rounds_for_bits(self.n, bits);
        let rounds = if self.cfg.model.is_clique() {
            per_hop
        } else {
            2 * diameter.max(1) * per_hop
        };
        self.ledger.charge(rounds, bits * self.n as u64);
    }

    /// Charges one round in which every vertex broadcasts its `O(log n)`-bit
    /// identifier and returns the identifier of the elected leader (the
    /// highest identifier, as in Algorithm 6 of the paper).
    pub fn elect_leader(&mut self) -> usize {
        self.ledger.charge(
            1,
            self.n as u64 * u64::from(crate::model::ceil_log2(self.n.max(2) as u64)),
        );
        self.n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::payload::{Field, Message};

    #[test]
    fn clique_exchange_delivers_to_everyone() {
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let delivered = net.exchange(|v| Some(Field::id(v, 4)));
        for v in 0..4 {
            assert_eq!(delivered[v].len(), 3);
            assert!(delivered[v].iter().all(|(from, _)| *from != v));
        }
        assert_eq!(net.ledger().total_rounds(), 1);
    }

    #[test]
    fn graph_exchange_respects_topology() {
        // Path 0 - 1 - 2.
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut net = Network::on_graph(ModelConfig::broadcast_congest(), adj).unwrap();
        let delivered = net.exchange(|v| Some(Field::id(v, 3)));
        assert_eq!(delivered[0].len(), 1);
        assert_eq!(delivered[1].len(), 2);
        assert_eq!(delivered[2].len(), 1);
    }

    #[test]
    fn wide_messages_charge_multiple_rounds() {
        let mut net = Network::clique(ModelConfig::bcc(), 16); // B = 4 bits
        let msg = Message::new().with(Field::uint(1000, 1 << 12)); // 13 bits
        net.exchange(|_| Some(msg.clone()));
        assert_eq!(net.ledger().total_rounds(), 13_u64.div_ceil(4));
    }

    #[test]
    fn silent_vertices_do_not_widen_the_round() {
        let mut net = Network::clique(ModelConfig::bcc(), 16);
        let delivered = net.exchange(|v| if v == 0 { Some(Field::id(0, 16)) } else { None });
        assert_eq!(delivered[5].len(), 1);
        assert_eq!(net.ledger().total_rounds(), 1);
    }

    #[test]
    fn unicast_rejected_under_broadcast_constraint() {
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let err = net
            .exchange_unicast(|v| vec![((v + 1) % 4, Field::flag(true))])
            .unwrap_err();
        assert!(matches!(err, RuntimeError::BroadcastViolation { .. }));
    }

    #[test]
    fn unicast_allowed_in_congested_clique() {
        let mut net = Network::clique(ModelConfig::congested_clique(), 4);
        let delivered = net
            .exchange_unicast(|v| vec![((v + 1) % 4, Field::id(v, 4))])
            .unwrap();
        assert_eq!(delivered[1].len(), 1);
        assert_eq!(delivered[1][0].0, 0);
    }

    #[test]
    fn unicast_to_non_neighbor_is_an_error() {
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut net = Network::on_graph(ModelConfig::congest(), adj).unwrap();
        let err = net
            .exchange_unicast(|v| {
                if v == 0 {
                    vec![(2, Field::flag(true))]
                } else {
                    vec![]
                }
            })
            .unwrap_err();
        assert_eq!(err, RuntimeError::NotANeighbor { from: 0, to: 2 });
    }

    #[test]
    fn asymmetric_topology_rejected() {
        let adj = vec![vec![1], vec![]];
        assert!(matches!(
            Network::on_graph(ModelConfig::congest(), adj),
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
    fn aggregation_with_diameter_costs_more_in_congest() {
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut bc = Network::on_graph(ModelConfig::broadcast_congest(), adj).unwrap();
        bc.aggregate_scalar_with_diameter(2, 2);
        assert_eq!(bc.ledger().total_rounds(), 4);
        let mut bcc = Network::clique(ModelConfig::bcc(), 3);
        bcc.aggregate_scalar_with_diameter(2, 2);
        assert_eq!(bcc.ledger().total_rounds(), 1);
    }

    #[test]
    fn leader_is_highest_id() {
        let mut net = Network::clique(ModelConfig::bcc(), 9);
        assert_eq!(net.elect_leader(), 8);
        assert_eq!(net.ledger().total_rounds(), 1);
        assert_eq!(net.config().model, Model::BroadcastCongestedClique);
    }
}
