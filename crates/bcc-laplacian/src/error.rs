//! Typed errors of the Laplacian solver.

/// Errors raised by the Laplacian solver on malformed input, as its `try_*`
/// entry points ([`crate::LaplacianSolver::try_preprocess`],
/// [`crate::LaplacianSolver::try_solve`]) return them.
#[derive(Debug, Clone, PartialEq)]
pub enum LaplacianError {
    /// The input graph is disconnected; the solver's error guarantee is
    /// stated per connected component, so callers must solve per component.
    Disconnected,
    /// The right-hand side has the wrong length for the graph.
    DimensionMismatch {
        /// Expected length (number of vertices).
        expected: usize,
        /// Length actually supplied.
        actual: usize,
    },
    /// The requested accuracy is outside `(0, 1/2]`.
    InvalidEpsilon {
        /// The rejected value.
        epsilon: f64,
    },
    /// The network simulates a different number of processors than the graph
    /// has vertices.
    NetworkSizeMismatch {
        /// Processors in the network.
        network: usize,
        /// Vertices in the graph.
        graph: usize,
    },
    /// The fixed-point range of the solve's broadcasts,
    /// `(‖b‖∞ + 1)·n·max_weight`, is not a finite `f64`: the right-hand side
    /// or an edge weight is too large. A graph whose `n · max_weight`
    /// overflows is rejected at preprocessing, since no right-hand side
    /// could be solved on it, and so is a graph on which the sparsifier's
    /// reweighting carries an edge weight past `f64::MAX`.
    MagnitudeOverflow,
}

impl std::fmt::Display for LaplacianError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaplacianError::Disconnected => {
                write!(f, "the Laplacian solver expects a connected graph")
            }
            LaplacianError::DimensionMismatch { expected, actual } => write!(
                f,
                "dimension mismatch: right-hand side has length {actual}, expected {expected}"
            ),
            LaplacianError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must lie in (0, 1/2], got {epsilon}")
            }
            LaplacianError::NetworkSizeMismatch { network, graph } => write!(
                f,
                "network simulates {network} processors but the graph has {graph} vertices"
            ),
            LaplacianError::MagnitudeOverflow => write!(
                f,
                "the solve's broadcast range (|b|_inf + 1)·n·max_weight, or an edge weight \
                 the sparsifier reweights, overflows f64; scale the right-hand side or the \
                 edge weights down"
            ),
        }
    }
}

impl std::error::Error for LaplacianError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(LaplacianError::Disconnected
            .to_string()
            .contains("connected"));
        let err = LaplacianError::DimensionMismatch {
            expected: 5,
            actual: 3,
        };
        assert!(err.to_string().contains('5'));
        assert!(err.to_string().contains('3'));
        let err = LaplacianError::InvalidEpsilon { epsilon: 0.9 };
        assert!(err.to_string().contains("0.9"));
        let err = LaplacianError::NetworkSizeMismatch {
            network: 4,
            graph: 6,
        };
        assert!(err.to_string().contains('4'));
        assert!(err.to_string().contains('6'));
        assert!(LaplacianError::MagnitudeOverflow
            .to_string()
            .contains("overflows"));
    }
}
