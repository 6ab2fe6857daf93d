//! # bcc-linalg
//!
//! Linear-algebra substrate for the reproduction of *"The Laplacian Paradigm
//! in the Broadcast Congested Clique"* (Forster & de Vos, PODC 2022):
//!
//! * [`vector`] — dense vector operations, weighted and mixed norms
//!   (`‖·‖_w`, `‖·‖_{w+1}` from Section 4.1).
//! * [`DenseMatrix`] — dense matrices with direct solvers (LU, and a
//!   factorization replayed on `L` right-hand sides at once) and a Jacobi
//!   symmetric eigensolver (ground truth + free local computation).
//! * [`CsrMatrix`] — sparse matrices for LP constraint matrices and Gram
//!   matrix assembly (`Aᵀ D A`).
//! * [`cg`] — (preconditioned) conjugate gradients.
//! * [`chebyshev`] — the preconditioned Chebyshev iteration of Theorem 2.3.
//! * [`jl`] — Johnson–Lindenstrauss sketches expanded from a few shared
//!   random bits (Kane–Nelson, Theorem 4.4).
//!
//! ## Example
//!
//! ```
//! use bcc_linalg::{chebyshev, DenseMatrix};
//!
//! let a = DenseMatrix::from_rows(&[vec![2.0, -1.0], vec![-1.0, 2.0]]);
//! let b = vec![1.0, 0.0];
//! // Use an exact solve of A itself as the "preconditioner" (κ = 1).
//! let solve = {
//!     let a = a.clone();
//!     move |r: &[f64]| a.solve(r).unwrap()
//! };
//! let result = chebyshev::preconditioned_chebyshev(|x| a.matvec(x), solve, 1.0, &b, 0.01);
//! let residual: Vec<f64> = a.matvec(&result.solution);
//! assert!((residual[0] - 1.0).abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod chebyshev;
pub mod dense;
pub mod jl;
pub mod scratch;
pub mod sparse;
pub mod vector;

pub use cg::{conjugate_gradient, IterativeSolve, IterativeStats};
pub use chebyshev::{preconditioned_chebyshev, ChebyshevSolve, ChebyshevStats};
pub use dense::{generalized_extreme_eigenvalues, DenseMatrix, FactoredPsd};
pub use jl::JlSketch;
pub use scratch::SolveScratch;
pub use sparse::CsrMatrix;
