//! # bcc-runtime
//!
//! A deterministic, round-accounting simulator of the four synchronous
//! bandwidth-constrained message-passing models used in *"The Laplacian
//! Paradigm in the Broadcast Congested Clique"* (Forster & de Vos, PODC 2022):
//! CONGEST, Broadcast CONGEST, Congested Clique and Broadcast Congested
//! Clique.
//!
//! The simulator's job is **not** to parallelize work — local computation is
//! free in these models — but to account the single cost metric the paper
//! bounds: the number of synchronous rounds, with `B = Θ(log n)`-bit messages
//! and the broadcast constraint enforced.
//!
//! ## Layers
//!
//! * [`Network`] — the charged communication layer: message exchanges plus
//!   numeric primitives (`share_scalars`, `broadcast_from`, ...), all of which
//!   charge rounds on a [`RoundLedger`], whose [`RoundReport`] is the one
//!   record of communication cost.
//! * [`payload`] — typed message fields with explicit encoded bit widths.
//! * [`shared_rand`] — leader-sampled shared randomness and reproducible
//!   per-vertex private randomness.
//!
//! ## Example
//!
//! ```
//! use bcc_runtime::{ModelConfig, Network};
//! use bcc_runtime::payload::Field;
//!
//! // 64 processors in the Broadcast Congested Clique.
//! let mut net = Network::clique(ModelConfig::bcc(), 64);
//! net.begin_phase("hello");
//! // Everyone announces its identifier on the blackboard: a single round.
//! let heard = net.exchange(|v| Some(Field::id(v, 64)));
//! assert_eq!(heard[0].len(), 63);
//! assert_eq!(net.ledger().total_rounds(), 1);
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
pub use network::{Network, Topology};
pub use payload::{Field, Message, MessageSize};
pub use shared_rand::{splitmix64, vertex_rng, SharedRandomness};
