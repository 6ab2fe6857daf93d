//! The linear-program formulation of minimum cost maximum flow (Section 5).
//!
//! Variables are `(x, y, z, F)` where `x ∈ R^{|E|}` is the flow, `y, z ≥ 0`
//! are per-vertex slack variables (for every vertex except the source) and
//! `F` is the flow value. The constraints are
//! `B x + y − z − F·e_t = 0` with `B` the edge–vertex incidence matrix with
//! the source row removed, and box bounds on every variable. The objective
//! `q̃ᵀx + λ(1ᵀy + 1ᵀz) − Λ·F` simultaneously (i) maximizes the flow value
//! (through the large reward `Λ` on `F`), (ii) forces the slacks to zero
//! (through the large penalty `λ`) and (iii) minimizes the perturbed cost
//! `q̃ᵀx`. The perturbation `q̃ = q + (random multiples of 1/(4|E|²M²))`
//! makes the optimal flow unique with probability ≥ 1/2 (Daitch–Spielman),
//! which is what allows rounding the approximate LP solution to the exact
//! integral optimum.
//!
//! ### Constants
//!
//! The paper's penalty constants (`M̃ = 8|E|²M³`, `λ = 440|E|⁴M̃²M³`) are
//! astronomically large — they exist to make the worst-case analysis airtight
//! and immediately exceed `f64` precision on any non-trivial instance. The
//! laboratory constants used here (`Λ = 4n·M̃_lab`, `λ = 4·Λ`,
//! `M̃_lab = 2(|E|M + 1)`) enforce exactly the same structural properties
//! (any unit of `F` is worth more than the most expensive routing of a unit
//! of flow; any unit of slack costs more than it could ever save), a
//! deliberate substitution for the paper's values.
//! `FlowLpConfig::paper_constants` switches to the original values for small
//! instances.

use bcc_graph::FlowInstance;
use bcc_linalg::CsrMatrix;
use bcc_lp::LpInstance;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the LP formulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowLpConfig {
    /// Seed of the cost perturbation.
    pub seed: u64,
    /// Use the paper's worst-case penalty constants instead of the laboratory
    /// ones.
    pub paper_constants: bool,
}

impl Default for FlowLpConfig {
    fn default() -> Self {
        FlowLpConfig {
            seed: 0x5EED_F10E,
            paper_constants: false,
        }
    }
}

/// The assembled LP plus the bookkeeping needed to interpret its solution.
#[derive(Debug, Clone)]
pub struct FlowLp {
    /// The LP instance (variables ordered as `x‖y‖z‖F`).
    pub lp: LpInstance,
    /// A strictly interior starting point.
    pub interior_point: Vec<f64>,
    /// Number of edge variables (`|E|`).
    pub edge_count: usize,
    /// Number of constrained vertices (`|V| − 1`, the source is omitted).
    pub vertex_count: usize,
    /// Index of every non-source vertex in the constraint ordering.
    pub vertex_index: Vec<Option<usize>>,
    /// The cost perturbation that was added to `q` (per edge).
    pub perturbation: Vec<f64>,
    /// The slack penalty `λ`.
    pub lambda: f64,
    /// The flow-value reward `Λ`.
    pub flow_reward: f64,
}

impl FlowLp {
    /// The edge-flow part of an LP solution vector.
    pub fn edge_flows<'a>(&self, x: &'a [f64]) -> &'a [f64] {
        &x[..self.edge_count]
    }

    /// The slack part `(y, z)` of an LP solution vector.
    pub fn slacks<'a>(&self, x: &'a [f64]) -> (&'a [f64], &'a [f64]) {
        let start = self.edge_count;
        let v = self.vertex_count;
        (&x[start..start + v], &x[start + v..start + 2 * v])
    }

    /// The flow-value variable `F` of an LP solution vector.
    pub fn flow_value(&self, x: &[f64]) -> f64 {
        x[self.edge_count + 2 * self.vertex_count]
    }
}

/// Builds the Section-5 LP for a flow instance.
///
/// # Panics
///
/// Panics if the instance has no arcs.
pub fn build_flow_lp(instance: &FlowInstance, config: &FlowLpConfig) -> FlowLp {
    let graph = &instance.graph;
    let e = graph.m();
    assert!(e > 0, "the flow network needs at least one arc");
    let v_all = graph.n();
    let m_bound = graph.magnitude_bound() as f64;

    // Constraint index for every vertex except the source.
    let mut vertex_index = vec![None; v_all];
    let mut next = 0usize;
    for v in 0..v_all {
        if v != instance.source {
            vertex_index[v] = Some(next);
            next += 1;
        }
    }
    let n_constraints = next;
    let sink_index = vertex_index[instance.sink].expect("sink differs from source");

    // Penalty constants.
    let (lambda, flow_reward) = if config.paper_constants {
        let m_tilde = 8.0 * (e as f64).powi(2) * m_bound.powi(3);
        (
            440.0 * (e as f64).powi(4) * m_tilde * m_tilde * m_bound.powi(3),
            2.0 * v_all as f64 * m_tilde,
        )
    } else {
        let m_tilde = 2.0 * (e as f64 * m_bound + 1.0);
        let reward = 4.0 * v_all as f64 * m_tilde;
        (4.0 * reward, reward)
    };

    // Cost perturbation: uniformly random multiple of 1/(4|E|²M²) in
    // {1, ..., 2|E|M} · 1/(4|E|²M²) per edge.
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let unit = 1.0 / (4.0 * (e as f64).powi(2) * m_bound * m_bound);
    let max_multiple = (2.0 * e as f64 * m_bound) as u64;
    let perturbation: Vec<f64> = (0..e)
        .map(|_| rng.gen_range(1..=max_multiple.max(1)) as f64 * unit)
        .collect();

    // Constraint matrix A ∈ R^{m_vars × n_constraints}, row per variable.
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    // Edge variables: row = incidence column of the edge (head +1, tail −1),
    // restricted to non-source vertices.
    for (idx, arc) in graph.arcs().iter().enumerate() {
        if let Some(h) = vertex_index[arc.to] {
            triplets.push((idx, h, 1.0));
        }
        if let Some(t) = vertex_index[arc.from] {
            triplets.push((idx, t, -1.0));
        }
    }
    // y variables: +I.
    for j in 0..n_constraints {
        triplets.push((e + j, j, 1.0));
    }
    // z variables: −I.
    for j in 0..n_constraints {
        triplets.push((e + n_constraints + j, j, -1.0));
    }
    // F variable: −e_t.
    let f_row = e + 2 * n_constraints;
    triplets.push((f_row, sink_index, -1.0));
    let m_vars = e + 2 * n_constraints + 1;
    let a = CsrMatrix::from_triplets(m_vars, n_constraints, &triplets);

    // Costs.
    let mut c = Vec::with_capacity(m_vars);
    for (idx, arc) in graph.arcs().iter().enumerate() {
        c.push(arc.cost as f64 + perturbation[idx]);
    }
    for _ in 0..2 * n_constraints {
        c.push(lambda);
    }
    c.push(-flow_reward);

    // Bounds.
    let slack_cap = 4.0 * (v_all as f64 * m_bound + e as f64 * m_bound);
    let flow_cap = 2.0 * v_all as f64 * m_bound;
    let mut lower = vec![0.0; m_vars];
    let mut upper = Vec::with_capacity(m_vars);
    for arc in graph.arcs() {
        upper.push(arc.capacity as f64);
    }
    for _ in 0..2 * n_constraints {
        upper.push(slack_cap);
    }
    upper.push(flow_cap);
    // Slight negative lower bound is not allowed; keep exactly zero.
    lower.iter_mut().for_each(|l| *l = 0.0);

    // Demand vector b = 0.
    let b = vec![0.0; n_constraints];

    // Interior point: x = c/2, F = |V|·M, slacks chosen to satisfy the
    // equality constraints with a comfortable margin.
    let mut x0 = Vec::with_capacity(m_vars);
    for arc in graph.arcs() {
        x0.push(arc.capacity as f64 / 2.0);
    }
    // Residual r = F·e_t − B·(c/2) must equal y − z.
    let mut residual = vec![0.0; n_constraints];
    let f_init = v_all as f64 * m_bound;
    residual[sink_index] += f_init;
    for arc in graph.arcs() {
        let half = arc.capacity as f64 / 2.0;
        if let Some(h) = vertex_index[arc.to] {
            residual[h] -= half;
        }
        if let Some(t) = vertex_index[arc.from] {
            residual[t] += half;
        }
    }
    let base = slack_cap / 4.0;
    let mut y0 = vec![base; n_constraints];
    let mut z0 = vec![base; n_constraints];
    for j in 0..n_constraints {
        if residual[j] >= 0.0 {
            y0[j] += residual[j];
        } else {
            z0[j] -= residual[j];
        }
    }
    x0.extend(y0);
    x0.extend(z0);
    x0.push(f_init);

    let lp = LpInstance {
        a,
        b,
        c,
        lower,
        upper,
    };
    FlowLp {
        lp,
        interior_point: x0,
        edge_count: e,
        vertex_count: n_constraints,
        vertex_index,
        perturbation,
        lambda,
        flow_reward,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{generators, DiGraph};
    use bcc_linalg::vector;

    fn diamond() -> FlowInstance {
        let g = DiGraph::from_arcs(4, [(0, 1, 2, 1), (1, 3, 2, 1), (0, 2, 3, 5), (2, 3, 3, 5)]);
        FlowInstance::new(g, 0, 3)
    }

    #[test]
    fn dimensions_match_section_5() {
        let inst = diamond();
        let flow_lp = build_flow_lp(&inst, &FlowLpConfig::default());
        // |E| + 2(|V|−1) + 1 variables, |V|−1 constraints.
        assert_eq!(flow_lp.lp.m(), 4 + 2 * 3 + 1);
        assert_eq!(flow_lp.lp.n(), 3);
        assert_eq!(flow_lp.edge_count, 4);
        assert_eq!(flow_lp.vertex_count, 3);
        flow_lp.lp.validate();
    }

    #[test]
    fn interior_point_is_feasible_and_interior() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for trial in 0..10 {
            let inst = generators::random_flow_instance(7, 0.3, 5, &mut rng);
            let flow_lp = build_flow_lp(&inst, &FlowLpConfig::default());
            let x0 = &flow_lp.interior_point;
            assert!(flow_lp.lp.is_interior(x0), "trial {trial} not interior");
            let residual = flow_lp.lp.equality_residual(x0);
            assert!(
                vector::norm_inf(&residual) < 1e-9,
                "trial {trial} residual {residual:?}"
            );
        }
    }

    #[test]
    fn optimal_integral_flow_beats_other_feasible_flows_in_the_lp_objective() {
        // Embed the known optimum of the diamond instance (x = (2,2,3,3),
        // F = 5, slacks 0) and check it has lower LP objective than the
        // embedding of any other feasible integral flow.
        let inst = diamond();
        let flow_lp = build_flow_lp(&inst, &FlowLpConfig::default());
        let embed = |flow: &[i64], value: i64| -> Vec<f64> {
            let mut x: Vec<f64> = flow.iter().map(|&f| f as f64).collect();
            x.extend(vec![0.0; 2 * flow_lp.vertex_count]);
            x.push(value as f64);
            x
        };
        let optimal = embed(&[2, 2, 3, 3], 5);
        // The embedding satisfies the equality constraints.
        assert!(vector::norm_inf(&flow_lp.lp.equality_residual(&optimal)) < 1e-9);
        let suboptimal_value = embed(&[2, 2, 2, 2], 4); // smaller flow value
        let costlier = embed(&[1, 1, 3, 3], 4); // same value as above, higher cost
        let obj_opt = flow_lp.lp.objective(&optimal);
        assert!(obj_opt < flow_lp.lp.objective(&suboptimal_value));
        assert!(flow_lp.lp.objective(&suboptimal_value) < flow_lp.lp.objective(&costlier));
    }

    #[test]
    fn perturbation_is_small_and_positive() {
        let inst = diamond();
        let flow_lp = build_flow_lp(&inst, &FlowLpConfig::default());
        for &p in &flow_lp.perturbation {
            assert!(p > 0.0);
            assert!(p <= 0.5, "perturbation {p} must stay below 1/2");
        }
    }

    #[test]
    fn paper_constants_are_larger_than_laboratory_ones() {
        let inst = diamond();
        let lab = build_flow_lp(&inst, &FlowLpConfig::default());
        let paper = build_flow_lp(
            &inst,
            &FlowLpConfig {
                paper_constants: true,
                ..FlowLpConfig::default()
            },
        );
        assert!(paper.lambda > lab.lambda);
        assert!(paper.flow_reward > lab.flow_reward);
    }

    #[test]
    fn accessors_slice_the_solution_vector_correctly() {
        let inst = diamond();
        let flow_lp = build_flow_lp(&inst, &FlowLpConfig::default());
        let x0 = flow_lp.interior_point.clone();
        assert_eq!(flow_lp.edge_flows(&x0).len(), 4);
        let (y, z) = flow_lp.slacks(&x0);
        assert_eq!(y.len(), 3);
        assert_eq!(z.len(), 3);
        assert_eq!(flow_lp.flow_value(&x0), 4.0 * 5.0);
    }
}
