//! Exact minimum cost maximum flow in the Broadcast Congested Clique
//! (Theorem 1.1).
//!
//! The pipeline is exactly Figure 1 of the paper: the flow instance is
//! encoded as the LP of Section 5, the LP is solved with the Lee–Sidford
//! interior point method of Section 4, every inner linear system `AᵀDA` is
//! symmetric diagonally dominant and is solved through the Gremban reduction
//! and the Laplacian solver of Section 3 (Lemma 5.1), and finally the
//! near-optimal fractional solution is rounded to the exact integral optimum
//! (unique with high probability thanks to the cost perturbation).

use std::cell::{RefCell, RefMut};

use bcc_graph::FlowInstance;
use bcc_laplacian::{SddSolveMode, SddWorkspace};
use bcc_linalg::CsrMatrix;
use bcc_lp::gram::GramSolver;
use bcc_lp::{try_lp_solve, LpError, LpOptions, WeightStrategy};
use bcc_runtime::Network;

use crate::baselines::IntegralFlow;
use crate::error::FlowError;
use crate::formulation::{build_flow_lp, FlowLp, FlowLpConfig};

/// Options of [`try_min_cost_max_flow_bcc`].
#[derive(Debug, Clone)]
pub struct McmfOptions {
    /// Seed for the cost perturbation and the solver randomness.
    pub seed: u64,
    /// Additive accuracy the LP is solved to before rounding.
    pub lp_epsilon: f64,
    /// Weight strategy of the interior point method.
    pub strategy: WeightStrategyChoice,
    /// How the SDD systems are solved (full sparsifier pipeline or the
    /// exact-preconditioner shortcut; see `bcc_laplacian::SddSolveMode`).
    pub full_laplacian_pipeline: bool,
    /// Use the paper's worst-case penalty constants in the LP formulation.
    pub paper_constants: bool,
    /// Hard cap on Newton steps (safety valve for experiments).
    pub max_newton_steps: usize,
}

/// Which weight function the interior point method uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightStrategyChoice {
    /// Regularized Lewis weights (the paper's choice, `Õ(√n)` iterations).
    Lewis,
    /// Uniform weights (classical log barrier, `Õ(√m)` iterations).
    Uniform,
}

impl Default for McmfOptions {
    fn default() -> Self {
        McmfOptions {
            seed: 7,
            lp_epsilon: 1e-2,
            strategy: WeightStrategyChoice::Lewis,
            full_laplacian_pipeline: false,
            paper_constants: false,
            max_newton_steps: 60_000,
        }
    }
}

/// Result of the Broadcast Congested Clique min-cost max-flow computation.
#[derive(Debug, Clone, PartialEq)]
pub struct McmfResult {
    /// The exact integral min-cost max-flow (after rounding).
    pub flow: IntegralFlow,
    /// The fractional edge flows returned by the LP solver (before rounding).
    pub fractional: Vec<f64>,
    /// Whether the rounded flow passed the feasibility check: always `true`,
    /// since a rounded flow that fails it is returned as
    /// [`FlowError::InfeasibleRounding`] instead.
    pub rounded_feasible: bool,
    /// Path-following iterations of the LP solver.
    pub path_iterations: usize,
    /// Gram (Laplacian) solves performed.
    pub gram_solves: usize,
    /// Total rounds charged on the network.
    pub rounds: u64,
}

/// The Gram-solver of Lemma 5.1: `AᵀDA` for the Section-5 constraint matrix is
/// symmetric diagonally dominant, so it is solved through the Gremban
/// reduction and the BCC Laplacian solver.
///
/// One solver serves one LP solve, whose every Newton step and leverage
/// batch brings a new `D`: each system is assembled, reduced and solved in
/// one workspace the solver keeps, behind a `RefCell` because
/// [`GramSolver`] takes `&self`. Between calls it keeps the last system's
/// triplets, matrix, Gremban graph and preconditioner, the virtual network
/// and the solve buffers (an [`SddWorkspace`]), all refilled in place, so
/// that a system of the size seen before allocates only the solutions it
/// returns. None of it carries a value from one system into the next:
/// solutions and charges are bit-identical to building every system from
/// scratch.
#[derive(Debug, Clone)]
pub struct SddGramSolver {
    mode: SddSolveMode,
    precision: f64,
    workspace: RefCell<GramWorkspace>,
}

/// What [`SddGramSolver`] keeps between systems.
#[derive(Debug, Clone, Default)]
struct GramWorkspace {
    /// `AᵀDA` as symmetric triplets, row by row of `A`.
    triplets: Vec<(usize, usize, f64)>,
    sdd: SddWorkspace,
}

impl SddGramSolver {
    /// Solver using the exact-preconditioner shortcut (default for sweeps).
    pub fn new(precision: f64) -> Self {
        SddGramSolver {
            mode: SddSolveMode::ExactPreconditioner,
            precision,
            workspace: RefCell::default(),
        }
    }

    /// Solver running the full sparsifier + Chebyshev pipeline per solve.
    pub fn with_full_pipeline(precision: f64, config: bcc_sparsifier::SparsifierConfig) -> Self {
        SddGramSolver {
            mode: SddSolveMode::Full(config),
            precision,
            workspace: RefCell::default(),
        }
    }

    /// Assembles `AᵀDA` and its Gremban preconditioner once for the batch
    /// `ys` and solves it (see [`bcc_laplacian::solve_sdd_many`]), leaving
    /// the solutions in the returned workspace.
    fn solve_in_workspace<B: AsRef<[f64]>>(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        ys: &[B],
    ) -> Result<RefMut<'_, SddWorkspace>, LpError> {
        let mut workspace = self.workspace.borrow_mut();
        let GramWorkspace { triplets, sdd } = &mut *workspace;
        // Assemble AᵀDA as symmetric triplets. For the Section-5 matrix this
        // is B·D₁·Bᵀ + D₂ + D₃ + e_t·D₄·e_tᵀ — diagonally dominant with
        // non-positive off-diagonals (Lemma 5.1); assembling it row-by-row
        // only needs the rows of A a vertex already knows.
        triplets.clear();
        for r in 0..a.rows() {
            for (ci, vi) in a.row(r) {
                for (cj, vj) in a.row(r) {
                    if ci <= cj {
                        triplets.push((ci, cj, d[r] * vi * vj));
                    }
                }
            }
        }
        // Lemma 5.1 guarantees diagonal dominance for the Section-5 flow LP;
        // on a general LP the precondition can fail, and so can the Gremban
        // graph's connectivity (a diagonal AᵀDA has none). Both surface as
        // typed errors the LP solver propagates instead of a panic.
        sdd.assemble(a.cols(), triplets.iter().copied())
            .map_err(|e| LpError::GramSolve {
                solver: self.name(),
                message: format!("AᵀDA is not symmetric diagonally dominant: {e}"),
            })?;
        sdd.solve(net, ys, self.precision, &self.mode)
            .map_err(|e| LpError::GramSolve {
                solver: self.name(),
                message: format!("the Gremban reduction of AᵀDA failed: {e}"),
            })?;
        Ok(RefMut::map(workspace, |workspace| &mut workspace.sdd))
    }
}

impl GramSolver for SddGramSolver {
    fn solve(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        y: &[f64],
    ) -> Result<Vec<f64>, LpError> {
        Ok(self.solve_in_workspace(net, a, d, &[y])?.solution(0))
    }

    /// Assembles `AᵀDA` and its Gremban preconditioner once for the batch;
    /// see [`bcc_laplacian::solve_sdd_many`].
    fn solve_many(
        &self,
        net: &mut Network,
        a: &CsrMatrix,
        d: &[f64],
        ys: &[Vec<f64>],
    ) -> Result<Vec<Vec<f64>>, LpError> {
        Ok(self.solve_in_workspace(net, a, d, ys)?.solutions())
    }

    fn name(&self) -> &'static str {
        "gremban-laplacian"
    }
}

/// Rounds the fractional LP flow to an integral flow, clamping to capacities.
fn round_flow(instance: &FlowInstance, fractional: &[f64]) -> Vec<i64> {
    instance
        .graph
        .arcs()
        .iter()
        .zip(fractional)
        .map(|(arc, &f)| (f.round() as i64).clamp(0, arc.capacity))
        .collect()
}

/// Computes an exact minimum cost maximum `s`-`t` flow in the Broadcast
/// Congested Clique (Theorem 1.1).
///
/// Rounds are charged on `net`; the dominant contribution is the
/// `Õ(√n)` path-following iterations, each performing one Laplacian solve.
///
/// # Errors
///
/// * [`FlowError::EmptyInstance`] — the instance has no arcs.
/// * [`FlowError::Lp`] — the interior point solver rejected the LP encoding.
/// * [`FlowError::InfeasibleRounding`] — the fractional flow rounds to one
///   that violates conservation or a capacity: at the default `lp_epsilon`
///   the LP can end between tied optima, where rounding each entry alone is
///   not exact.
pub fn try_min_cost_max_flow_bcc(
    net: &mut Network,
    instance: &FlowInstance,
    options: &McmfOptions,
) -> Result<McmfResult, FlowError> {
    if instance.graph.m() == 0 {
        return Err(FlowError::EmptyInstance);
    }
    let rounds_before = net.ledger().total_rounds();
    net.begin_phase("mcmf");
    let flow_lp: FlowLp = build_flow_lp(
        instance,
        &FlowLpConfig {
            seed: options.seed,
            paper_constants: options.paper_constants,
        },
    );

    let mut lp_options = LpOptions::new(options.lp_epsilon, flow_lp.lp.m(), options.seed);
    lp_options.path.max_newton_steps = options.max_newton_steps;
    match options.strategy {
        WeightStrategyChoice::Uniform => {
            lp_options = lp_options.with_uniform_weights();
        }
        WeightStrategyChoice::Lewis => {
            let mut lewis = bcc_lp::lewis::LewisOptions::laboratory(flow_lp.lp.m(), options.seed);
            lewis.iterations = 6;
            lewis.max_sketch_dimension = Some(10);
            lewis.eta = 0.5;
            lp_options.strategy = WeightStrategy::RegularizedLewis { options: lewis };
            lp_options.path.weight_refresh_sweeps = 1;
        }
    }

    let gram_precision = 1e-8;
    let solver: Box<dyn GramSolver> = if options.full_laplacian_pipeline {
        let config = bcc_sparsifier::SparsifierConfig::laboratory(
            2 * flow_lp.lp.n().max(2),
            4 * flow_lp.lp.m().max(4),
            0.5,
            options.seed,
        )
        .with_t(4)
        .with_k(2);
        Box::new(SddGramSolver::with_full_pipeline(gram_precision, config))
    } else {
        Box::new(SddGramSolver::new(gram_precision))
    };

    let solution = try_lp_solve(
        net,
        &flow_lp.lp,
        &flow_lp.interior_point,
        &lp_options,
        solver.as_ref(),
    )?;

    let fractional = flow_lp.edge_flows(&solution.x).to_vec();
    let rounded = round_flow(instance, &fractional);
    let as_f64: Vec<f64> = rounded.iter().map(|&f| f as f64).collect();
    let rounded_feasible = instance.is_feasible(&as_f64, 1e-9);
    if !rounded_feasible {
        return Err(FlowError::InfeasibleRounding);
    }
    let value = instance.value(&as_f64).round() as i64;
    let cost = instance.cost(&as_f64).round() as i64;

    Ok(McmfResult {
        flow: IntegralFlow {
            flow: rounded,
            value,
            cost,
        },
        fractional,
        rounded_feasible,
        path_iterations: solution.path_iterations(),
        gram_solves: solution.gram_solves(),
        rounds: net.ledger().total_rounds() - rounds_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::ssp_min_cost_max_flow;
    use bcc_graph::{generators, DiGraph};
    use bcc_runtime::ModelConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn diamond() -> FlowInstance {
        let g = DiGraph::from_arcs(4, [(0, 1, 2, 1), (1, 3, 2, 1), (0, 2, 3, 5), (2, 3, 3, 5)]);
        FlowInstance::new(g, 0, 3)
    }

    #[test]
    fn sdd_gram_solver_solves_flow_gram_systems() {
        let inst = diamond();
        let flow_lp = build_flow_lp(&inst, &FlowLpConfig::default());
        let m = flow_lp.lp.m();
        let d: Vec<f64> = (0..m).map(|i| 0.5 + (i % 3) as f64).collect();
        let x_true: Vec<f64> = (0..flow_lp.lp.n()).map(|i| (i as f64) - 1.0).collect();
        let gram = flow_lp.lp.a.gram_with_diagonal(&d);
        let y = gram.matvec(&x_true);
        let mut net = Network::clique(ModelConfig::bcc(), inst.graph.n());
        let solver = SddGramSolver::new(1e-9);
        let x = solver.solve(&mut net, &flow_lp.lp.a, &d, &y).unwrap();
        assert!(bcc_linalg::vector::approx_eq(&x, &x_true, 1e-4), "{x:?}");
        assert_eq!(solver.name(), "gremban-laplacian");
    }

    #[test]
    fn sdd_gram_solver_rejects_non_sdd_systems_with_a_typed_error() {
        // A single row (1, 2) makes AᵀDA = [[1, 2], [2, 4]]: row 0 has
        // diagonal 1 < off-diagonal sum 2, so the matrix is not diagonally
        // dominant and the reduction's precondition fails.
        let a = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 2.0)]);
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let solver = SddGramSolver::new(1e-9);
        let err = solver
            .solve(&mut net, &a, &[1.0], &[1.0, -1.0])
            .unwrap_err();
        match err {
            LpError::GramSolve { solver, message } => {
                assert_eq!(solver, "gremban-laplacian");
                assert!(message.contains("diagonally dominant"), "{message}");
            }
            other => panic!("expected a GramSolve error, got {other:?}"),
        }
    }

    #[test]
    fn diamond_instance_matches_the_ssp_baseline_exactly() {
        let inst = diamond();
        let baseline = ssp_min_cost_max_flow(&inst);
        let mut net = Network::clique(ModelConfig::bcc(), inst.graph.n());
        let result = try_min_cost_max_flow_bcc(&mut net, &inst, &McmfOptions::default())
            .expect("a valid flow instance");
        assert!(result.rounded_feasible);
        assert_eq!(result.flow.value, baseline.value);
        assert_eq!(result.flow.cost, baseline.cost);
        assert_eq!(result.flow.flow, baseline.flow);
        assert!(result.rounds > 0);
        assert!(result.path_iterations > 0);
    }

    #[test]
    fn uniform_weight_ablation_also_finds_the_optimum() {
        let inst = diamond();
        let baseline = ssp_min_cost_max_flow(&inst);
        let mut net = Network::clique(ModelConfig::bcc(), inst.graph.n());
        let options = McmfOptions {
            strategy: WeightStrategyChoice::Uniform,
            ..McmfOptions::default()
        };
        let result =
            try_min_cost_max_flow_bcc(&mut net, &inst, &options).expect("a valid flow instance");
        assert!(result.rounded_feasible);
        assert_eq!(result.flow.value, baseline.value);
        assert_eq!(result.flow.cost, baseline.cost);
    }

    #[test]
    fn an_infeasible_rounding_is_a_typed_error() {
        // The instance and seed where rounding the LP flow broke
        // conservation: returned as `Ok` with `rounded_feasible: false`,
        // value 3 and cost 31 (the optimum costs 30) before this error.
        let instance =
            generators::random_flow_instance(12, 0.3, 3, &mut ChaCha8Rng::seed_from_u64(23));
        let mut net = Network::clique(ModelConfig::bcc(), instance.graph.n());
        let options = McmfOptions {
            seed: 23,
            ..McmfOptions::default()
        };
        assert_eq!(
            try_min_cost_max_flow_bcc(&mut net, &instance, &options),
            Err(FlowError::InfeasibleRounding)
        );
    }

    #[test]
    fn random_small_instances_match_the_baseline() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut exact_matches = 0;
        let trials = 4;
        for trial in 0..trials {
            let inst = generators::random_flow_instance(5, 0.25, 3, &mut rng);
            let baseline = ssp_min_cost_max_flow(&inst);
            let mut net = Network::clique(ModelConfig::bcc(), inst.graph.n());
            let options = McmfOptions {
                seed: 100 + trial,
                ..McmfOptions::default()
            };
            let result = try_min_cost_max_flow_bcc(&mut net, &inst, &options)
                .expect("a valid flow instance");
            assert!(
                result.rounded_feasible,
                "trial {trial} rounded flow infeasible"
            );
            assert_eq!(result.flow.value, baseline.value, "trial {trial} value");
            if result.flow.cost == baseline.cost {
                exact_matches += 1;
            } else {
                // Cost may only be larger, never smaller than the optimum.
                assert!(result.flow.cost >= baseline.cost, "trial {trial}");
            }
        }
        assert!(
            exact_matches >= trials - 1,
            "only {exact_matches}/{trials} instances matched the optimal cost"
        );
    }
}
