//! # bcc-graph
//!
//! Graph data structures and generators for the reproduction of *"The
//! Laplacian Paradigm in the Broadcast Congested Clique"* (Forster & de Vos,
//! PODC 2022).
//!
//! * [`Graph`] — undirected weighted multigraphs (the input of spanner,
//!   sparsifier and Laplacian-solver algorithms).
//! * [`DiGraph`] / [`FlowInstance`] — directed capacitated, cost-labelled
//!   graphs (the input of the minimum cost maximum flow problem).
//! * [`laplacian`] — matrix-free Laplacian and incidence operators
//!   (`L = Bᵀ W B`, Section 2.2 of the paper).
//! * [`mod@fingerprint`] — deterministic, edge-order-independent 128-bit graph
//!   digests used as cache keys by batch-serving layers.
//! * [`generators`] — deterministic and seeded-random graph families used by
//!   the tests, examples and the `bench` crate's experiments.
//! * [`traversal`] — centralized BFS/Dijkstra ground truth used for
//!   verification (e.g. spanner stretch checks).
//!
//! ## Example
//!
//! ```
//! use bcc_graph::{generators, laplacian};
//!
//! let g = generators::grid(3, 3);
//! let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
//! let energy = laplacian::quadratic_form(&g, &x);
//! assert!(energy > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod fingerprint;
pub mod generators;
pub mod graph;
pub mod laplacian;
pub mod traversal;

pub use digraph::{Arc, DiGraph, FlowInstance};
pub use fingerprint::{fingerprint, GraphFingerprint};
pub use graph::{Edge, Graph};
