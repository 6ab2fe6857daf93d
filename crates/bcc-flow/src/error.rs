//! Typed errors of the min-cost max-flow pipeline.

use bcc_lp::LpError;

/// Errors raised by the BCC min-cost max-flow pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// The interior point solver rejected the Section-5 LP encoding.
    Lp(LpError),
    /// The instance has no arcs, so there is no flow to route.
    EmptyInstance,
    /// Rounding the LP's fractional flow entry by entry broke conservation
    /// or a capacity, so the pipeline has no flow to return. The LP solve
    /// landed between tied optima, or too far from its optimum for rounding
    /// to be exact.
    InfeasibleRounding,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Lp(e) => write!(f, "flow LP solve failed: {e}"),
            FlowError::EmptyInstance => write!(f, "flow instance has no arcs"),
            FlowError::InfeasibleRounding => write!(
                f,
                "the rounded LP flow is not a feasible flow (conservation or capacity violated)"
            ),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Lp(e) => Some(e),
            FlowError::EmptyInstance | FlowError::InfeasibleRounding => None,
        }
    }
}

impl From<LpError> for FlowError {
    fn from(e: LpError) -> Self {
        FlowError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = FlowError::Lp(LpError::NotInterior);
        assert!(err.to_string().contains("flow LP"));
        assert!(err.to_string().contains("interior"));
        assert!(FlowError::EmptyInstance.to_string().contains("no arcs"));
        assert!(FlowError::InfeasibleRounding
            .to_string()
            .contains("not a feasible flow"));
    }
}
