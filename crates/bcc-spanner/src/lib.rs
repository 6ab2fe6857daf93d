//! # bcc-spanner
//!
//! Spanner algorithms in the Broadcast CONGEST model for the reproduction of
//! *"The Laplacian Paradigm in the Broadcast Congested Clique"* (Forster &
//! de Vos, PODC 2022):
//!
//! * [`mod@connect`] — the `Connect` sampling procedure (Algorithm 2) and the
//!   implicit-communication deduction rule.
//! * [`probabilistic`] — the `(2k−1)`-spanner with probabilistic edges of
//!   Section 3.1, plus the classical Baswana–Sen special case (`p ≡ 1`,
//!   Appendix A).
//! * [`bundle`] — `t`-bundle spanners (Algorithm 3).
//! * [`verify`] — centralized stretch/size verification used by tests and
//!   experiments.
//!
//! ## Example
//!
//! ```
//! use bcc_graph::generators;
//! use bcc_runtime::{ModelConfig, Network};
//! use bcc_spanner::{baswana_sen_spanner, SpannerParams, verify};
//!
//! let g = generators::complete(16);
//! let mut net = Network::on_graph(ModelConfig::broadcast_congest(), g.adjacency_lists()).unwrap();
//! let out = baswana_sen_spanner(&mut net, &g, SpannerParams { k: 2, seed: 42 });
//! let spanner = g.subgraph(&out.f_plus);
//! assert!(verify::is_spanner_of(&spanner, &g, 3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod connect;
pub mod probabilistic;
pub mod verify;

pub use bundle::{bundle_spanner, BundleOutput};
pub use connect::{connect, Candidate, EdgeFate};
pub use probabilistic::{baswana_sen_spanner, probabilistic_spanner, SpannerOutput, SpannerParams};
