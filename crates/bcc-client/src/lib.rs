//! Client library for the `bcc-served` daemon: the `bcc-wire/v1`
//! protocol types and [`ServedClient`], a Unix-socket client whose method
//! surface mirrors the in-process [`bcc_core::stream::StreamClient`].
//!
//! # Quick start
//!
//! ```no_run
//! use bcc_client::{ServedClient, WireRequest, WireGraph};
//!
//! let mut client = ServedClient::connect("/tmp/bcc.sock", "acme")?;
//! let graph = WireGraph { n: 3, edges: vec![(0, 1, 1.0), (1, 2, 1.0)] };
//! let b = vec![1.0, 0.0, -1.0];
//! let ticket = client.submit(WireRequest::Laplacian { graph, b, epsilon: None })?;
//! let outcome = client.wait(ticket)?;
//! println!("solved in {} rounds", outcome.report.total_rounds);
//! let report = client.shutdown()?;
//! println!("daemon served {} submissions", report.requests);
//! # Ok::<(), bcc_client::WireError>(())
//! ```
//!
//! # Design
//!
//! * **Same numbers as in-process.** The daemon is a thin shell over
//!   [`bcc_core::stream::StreamEngine`]; a sequence of submissions made
//!   through one connection produces a final [`bcc_core::stream::StreamReport`]
//!   bit-identical to driving the engine in-process with the same
//!   [`EngineConfig`] — determinism survives the IPC boundary.
//! * **One config schema, three consumers.** The handshake returns the
//!   engine's effective [`EngineConfig`] (`bcc-engine-config/v2`), the
//!   exact document `StreamEngineBuilder::from_config` consumes and
//!   `bcc-served --config` loads.
//! * **Typed failure, never panic.** Malformed frames, oversized length
//!   prefixes, unknown tags and invalid payloads all surface as
//!   [`WireError`] variants; engine faults cross the wire as
//!   [`WireFault`] with stable machine-readable codes.
//!
//! The normative protocol specification lives in `docs/PROTOCOL.md`.

pub mod client;
pub mod wire;

pub use client::ServedClient;
pub use wire::{
    ClientMsg, ServerMsg, WireArc, WireError, WireFault, WireFlowInstance, WireGraph,
    WireMcmfOptions, WireOutcome, WireRequest, WireResponse, MAX_FRAME_LEN, WIRE_SCHEMA,
};

// Re-exported so daemon and tests can spell the shared config vocabulary
// through one crate.
pub use bcc_core::config::{EngineConfig, Priority};
