//! Error type of the runtime crate.

/// Errors raised when a network is configured inconsistently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
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
