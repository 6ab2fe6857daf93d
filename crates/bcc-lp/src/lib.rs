//! # bcc-lp
//!
//! A Lee–Sidford style interior point linear-program solver in the Broadcast
//! Congested Clique (Section 4 of *"The Laplacian Paradigm in the Broadcast
//! Congested Clique"*, Forster & de Vos, PODC 2022).
//!
//! * [`LpInstance`] — LPs of the form `min{cᵀx : Aᵀx = b, l ≤ x ≤ u}`.
//! * [`barrier`] — 1-self-concordant barriers (log / trigonometric).
//! * [`gram`] — the `(AᵀDA)⁻¹` oracle abstraction of Theorem 1.4.
//! * [`leverage`] — leverage-score approximation with a shared-seed
//!   Johnson–Lindenstrauss sketch (Algorithm 6).
//! * [`lewis`] — regularized ℓ_p Lewis weights (Algorithms 7/8).
//! * [`mixed_ball`] — projection onto the mixed-norm ball (Lemma 4.10).
//! * [`path_following`] — weighted path following (Algorithms 10/11).
//! * [`try_lp_solve`] — the top-level solver (Algorithm 9, Theorem 1.4), with a
//!   uniform-weight ablation mode.
//!
//! ## Example
//!
//! ```
//! use bcc_linalg::CsrMatrix;
//! use bcc_lp::{try_lp_solve, LpInstance, LpOptions};
//! use bcc_lp::gram::DenseGramSolver;
//! use bcc_runtime::{ModelConfig, Network};
//!
//! // min x1  s.t.  x0 + x1 = 1, 0 <= x <= 1.
//! let lp = LpInstance {
//!     a: CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
//!     b: vec![1.0],
//!     c: vec![0.0, 1.0],
//!     lower: vec![0.0, 0.0],
//!     upper: vec![1.0, 1.0],
//! };
//! let mut net = Network::clique(ModelConfig::bcc(), 2);
//! let options = LpOptions::new(1e-3, lp.m(), 7).with_uniform_weights();
//! let solution = try_lp_solve(&mut net, &lp, &[0.5, 0.5], &options, &DenseGramSolver::new())
//!     .expect("an interior, feasible start");
//! assert!(solution.objective < 0.01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod error;
pub mod gram;
pub mod instance;
pub mod leverage;
pub mod lewis;
pub mod mixed_ball;
pub mod path_following;
pub mod solver;

pub use error::LpError;
pub use gram::{DenseGramSolver, GramSolver, ScaledMatrix};
pub use instance::LpInstance;
pub use mixed_ball::{project_mixed_ball, MixedBallProjection};
pub use solver::{try_lp_solve, LpOptions, LpSolution, WeightStrategy};
