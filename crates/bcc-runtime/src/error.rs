//! Error type of the runtime crate.

/// Errors raised by the simulator when an algorithm violates the rules of the
/// simulated model or is configured inconsistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Unicast communication was requested in a broadcast-constrained model.
    BroadcastViolation {
        /// Vertex that attempted to send distinct messages.
        vertex: usize,
        /// Round index at which the violation occurred.
        round: u64,
    },
    /// A vertex attempted to send a message to a non-neighbor in a
    /// CONGEST-family model.
    NotANeighbor {
        /// Sending vertex.
        from: usize,
        /// Intended recipient which is not adjacent to `from`.
        to: usize,
    },
    /// A vertex identifier was out of range for the network size.
    InvalidVertex {
        /// Offending identifier.
        vertex: usize,
        /// Number of vertices in the network.
        n: usize,
    },
    /// The network topology was inconsistent (e.g. asymmetric adjacency).
    InvalidTopology(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::BroadcastViolation { vertex, round } => write!(
                f,
                "vertex {vertex} sent distinct messages in round {round} under a broadcast model"
            ),
            RuntimeError::NotANeighbor { from, to } => {
                write!(f, "vertex {from} attempted to message non-neighbor {to}")
            }
            RuntimeError::InvalidVertex { vertex, n } => {
                write!(
                    f,
                    "vertex {vertex} is out of range for an {n}-vertex network"
                )
            }
            RuntimeError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = RuntimeError::BroadcastViolation {
            vertex: 3,
            round: 7,
        };
        assert!(err.to_string().contains("vertex 3"));
        assert!(err.to_string().contains("round 7"));
        let err = RuntimeError::NotANeighbor { from: 1, to: 2 };
        assert!(err.to_string().contains("non-neighbor"));
    }
}
