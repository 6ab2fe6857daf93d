//! Typed errors of the sparsifier pipeline.

/// Errors raised by the sparsifier entry points on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparsifierError {
    /// The graph has no edges, so there is nothing to sparsify (and the
    /// bundle-spanner machinery would degenerate).
    EmptyGraph,
    /// The network simulates a different number of processors than the graph
    /// has vertices.
    NetworkSizeMismatch {
        /// Processors in the network.
        network: usize,
        /// Vertices in the graph.
        graph: usize,
    },
    /// An edge weight overflowed `f64` when the ad-hoc sparsifier multiplied
    /// it by 4 for surviving outside a bundle (every weight of the input is
    /// finite, but parallel edges can be reweighted past `f64::MAX`).
    WeightOverflow,
}

impl std::fmt::Display for SparsifierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparsifierError::EmptyGraph => {
                write!(f, "cannot sparsify a graph with no edges")
            }
            SparsifierError::NetworkSizeMismatch { network, graph } => write!(
                f,
                "network simulates {network} processors but the graph has {graph} vertices"
            ),
            SparsifierError::WeightOverflow => write!(
                f,
                "an edge weight overflows f64 when the sparsifier reweights it by 4; \
                 scale the edge weights down"
            ),
        }
    }
}

impl std::error::Error for SparsifierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(SparsifierError::EmptyGraph.to_string().contains("no edges"));
        let err = SparsifierError::NetworkSizeMismatch {
            network: 3,
            graph: 8,
        };
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('8'));
        assert!(SparsifierError::WeightOverflow
            .to_string()
            .contains("overflows"));
    }
}
