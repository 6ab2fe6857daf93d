//! Answer checks, run outside the timed sections.
//!
//! A Laplacian answer is checked by its error in the graph's own norm,
//! `‖x − x*‖_L / ‖x*‖_L`, against an exact dense solve whose factorization
//! is computed once per graph. A flow answer must be feasible, its value
//! and cost must be what its flow vector gives, and both must equal the
//! successive-shortest-paths optimum.

use bcc_core::flow::{ssp_min_cost_max_flow, IntegralFlow};
use bcc_core::graph::{laplacian, FlowInstance, Graph};
use bcc_core::linalg::{vector, DenseMatrix, FactoredPsd};

/// Slack on the solver's accuracy guarantee for rounding in the check
/// itself.
const ERROR_SLACK: f64 = 1.01;

/// Exact solves of one graph's Laplacian from a factorization made once.
pub struct LaplacianCheck {
    graph: Graph,
    factored: FactoredPsd,
    epsilon: f64,
}

impl LaplacianCheck {
    /// Factors the Laplacian of `graph`; answers must meet `epsilon`.
    pub fn new(graph: &Graph, epsilon: f64) -> Self {
        let dense = DenseMatrix::from_rows(&laplacian::laplacian_dense(graph));
        LaplacianCheck {
            graph: graph.clone(),
            factored: dense
                .factor_psd()
                .expect("the Laplacian of a connected graph factors after regularization"),
            epsilon,
        }
    }

    /// The relative error of `x` as a solution of `L x = b`, in the L-norm.
    pub fn error(&self, b: &[f64], x: &[f64]) -> f64 {
        if x.len() != self.graph.n() || b.len() != self.graph.n() {
            return f64::INFINITY;
        }
        let mut exact = vec![0.0; b.len()];
        self.factored
            .solve_into(&vector::remove_mean(b), &mut exact, true);
        let diff = vector::sub(&exact, &vector::remove_mean(x));
        let num = laplacian::laplacian_norm(&self.graph, &diff);
        let den = laplacian::laplacian_norm(&self.graph, &exact).max(1e-300);
        num / den
    }

    /// Whether `x` solves `L x = b` to the required accuracy.
    pub fn accepts(&self, b: &[f64], x: &[f64]) -> bool {
        let error = self.error(b, x);
        error.is_finite() && error <= self.epsilon * ERROR_SLACK
    }
}

/// A flow instance together with its combinatorial optimum.
pub struct FlowCheck {
    instance: FlowInstance,
    optimum: IntegralFlow,
}

impl FlowCheck {
    /// Solves `instance` with successive shortest paths.
    pub fn new(instance: &FlowInstance) -> Self {
        FlowCheck {
            instance: instance.clone(),
            optimum: ssp_min_cost_max_flow(instance),
        }
    }

    /// Whether an answer is a feasible maximum flow of minimum cost whose
    /// reported value and cost match its flow vector.
    pub fn accepts(&self, flow: &[i64], value: i64, cost: i64, rounded_feasible: bool) -> bool {
        if flow.len() != self.instance.graph.m() || !rounded_feasible {
            return false;
        }
        let as_f64: Vec<f64> = flow.iter().map(|&f| f as f64).collect();
        self.instance.is_feasible(&as_f64, 1e-9)
            && self.instance.value(&as_f64).round() as i64 == value
            && self.instance.cost(&as_f64).round() as i64 == cost
            && value == self.optimum.value
            && cost == self.optimum.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_core::graph::{generators, DiGraph};
    use bcc_core::Session;

    #[test]
    fn a_perturbed_laplacian_solution_is_rejected() {
        let graph = generators::grid(5, 5);
        let check = LaplacianCheck::new(&graph, 1e-6);
        let b = crate::gen::rhs(graph.n(), 1, crate::gen::Stream::LightRhs, 0);
        let mut prepared = Session::new().laplacian(&graph).preprocess().unwrap();
        let x = prepared.solve(&b).unwrap().value.solution;
        assert!(check.accepts(&b, &x), "error {}", check.error(&b, &x));
        let mut perturbed = x.clone();
        perturbed[3] += 1e-3;
        assert!(!check.accepts(&b, &perturbed));
        assert!(!check.accepts(&b, &x[1..]));
    }

    #[test]
    fn a_wrong_flow_cost_is_rejected() {
        // Two parallel routes: capacity 2 at cost 1 and capacity 3 at cost 5.
        let g = DiGraph::from_arcs(4, [(0, 1, 2, 1), (1, 3, 2, 1), (0, 2, 3, 5), (2, 3, 3, 5)]);
        let check = FlowCheck::new(&FlowInstance::new(g, 0, 3));
        let flow = [2, 2, 3, 3];
        assert!(check.accepts(&flow, 5, 34, true));
        assert!(!check.accepts(&flow, 5, 33, true));
        assert!(!check.accepts(&flow, 5, 34, false));
        // A feasible but smaller flow is not maximum.
        assert!(!check.accepts(&[2, 2, 0, 0], 2, 4, true));
    }
}
