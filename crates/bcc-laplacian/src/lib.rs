//! # bcc-laplacian
//!
//! Laplacian and SDD system solving in the Broadcast Congested Clique
//! (Section 3.3 and Lemma 5.1 of *"The Laplacian Paradigm in the Broadcast
//! Congested Clique"*, Forster & de Vos, PODC 2022).
//!
//! * [`LaplacianSolver`] — Theorem 1.3: sparsifier preprocessing + per-instance
//!   preconditioned Chebyshev solves with `O(log(1/ε)·log(nU/ε))` rounds.
//! * [`sdd`] — the Gremban reduction from symmetric diagonally dominant
//!   systems to Laplacian systems on a virtual doubled graph.
//! * Baselines: [`solver::exact_solve`] (dense ground truth) and
//!   [`solver::cg_baseline`] (centralized conjugate gradients).
//!
//! ## Example
//!
//! ```
//! use bcc_graph::generators;
//! use bcc_laplacian::LaplacianSolver;
//! use bcc_linalg::vector;
//! use bcc_runtime::{ModelConfig, Network};
//!
//! let g = generators::grid(3, 3);
//! let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
//! let b = vector::remove_mean(&(0..9).map(|i| i as f64).collect::<Vec<_>>());
//! let mut net = Network::clique(ModelConfig::bcc(), 9);
//! let solve = solver.try_solve(&mut net, &b, 1e-6).expect("a valid right-hand side");
//! assert!(solver.relative_error(&b, &solve.solution) < 1e-5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod sdd;
pub mod solver;

pub use error::LaplacianError;
pub use sdd::{
    exact_sdd_solve, solve_sdd, solve_sdd_many, NotSddError, SddMatrix, SddSolveMode, SddWorkspace,
};
pub use solver::{
    cg_baseline, exact_solve, LaneNetworks, LaplacianSolve, LaplacianSolveStats, LaplacianSolver,
    ScratchArena, LOCKSTEP_LANES,
};
