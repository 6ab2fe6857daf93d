//! # bcc-runtime
//!
//! Deterministic round accounting for the four synchronous
//! bandwidth-constrained message-passing models used in *"The Laplacian
//! Paradigm in the Broadcast Congested Clique"* (Forster & de Vos, PODC 2022):
//! CONGEST, Broadcast CONGEST, Congested Clique and Broadcast Congested
//! Clique.
//!
//! Local computation is free in these models, so nothing here moves
//! messages: the runtime accounts the single cost metric the paper bounds,
//! the number of synchronous rounds of `B = c·⌈log₂ n⌉`-bit messages. Every
//! vertex owns its coordinate of every vector by construction, so each
//! communication step of an algorithm is one named broadcast pattern (every
//! vertex shares a value, every vertex shares its own number of values, a
//! leader shares random bits, ...), and a charge depends only on `B` and
//! that pattern.
//!
//! ## Layers
//!
//! * [`Network`] — the closed-form broadcast patterns (`share_scalars`,
//!   `share_varying`, `aggregate_scalar`, `share_random_bits`), each charged
//!   on a [`RoundLedger`], whose [`RoundReport`] is the one record of
//!   communication cost.
//! * [`payload`] — encoded bit widths of bounded integers and fixed-point
//!   reals.
//! * [`shared_rand`] — reproducible per-vertex private randomness.
//!
//! ## Example
//!
//! ```
//! use bcc_runtime::{ModelConfig, Network};
//!
//! // 64 processors in the Broadcast Congested Clique: B = ⌈log₂ 64⌉ = 6 bits.
//! let mut net = Network::clique(ModelConfig::bcc(), 64);
//! net.begin_phase("hello");
//! // Every vertex writes one 6-bit value to the blackboard: one round.
//! net.share_scalars(6);
//! // One 13-bit value per vertex needs ⌈13 / 6⌉ = 3 rounds.
//! net.share_scalars(13);
//! assert_eq!(net.ledger().total_rounds(), 4);
//! assert_eq!(net.ledger().total_bits(), 64 * (6 + 13));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ledger;
pub mod model;
pub mod network;
pub mod payload;
pub mod shared_rand;

pub use error::RuntimeError;
pub use ledger::{PhaseStats, RoundLedger, RoundReport};
pub use model::{ceil_log2, Model, ModelConfig};
pub use network::Network;
pub use shared_rand::{splitmix64, vertex_rng};
