//! Gremban reduction: solving symmetric diagonally dominant (SDD) systems
//! with the Laplacian solver (used by Lemma 5.1 for the flow LP's
//! `AᵀDA` systems).
//!
//! Given an SDD matrix `M`, split it into its negative off-diagonal part
//! `M_n`, positive off-diagonal part `M_p`, the diagonal `C₁` of absolute
//! off-diagonal row sums and the excess diagonal `C₂ = diag(M) − C₁ ≥ 0`.
//! The `2n × 2n` matrix
//!
//! ```text
//! L = [ C₁ + C₂/2 + M_n      −C₂/2 − M_p    ]
//!     [ −C₂/2 − M_p          C₁ + C₂/2 + M_n ]
//! ```
//!
//! is a genuine graph Laplacian, and an (approximate) solution of
//! `L·[x₁; x₂] = [b; −b]` yields `x = (x₁ − x₂)/2` with `M x ≈ b`.
//! In the Broadcast Congested Clique, physical vertex `i` simulates both
//! virtual vertices `i` and `i + n`, doubling the round count of each step
//! (Section 5 of the paper).

use bcc_graph::Graph;
use bcc_runtime::{ModelConfig, Network};
use bcc_sparsifier::SparsifierConfig;

use crate::error::LaplacianError;
use crate::solver::{FactorScratch, LaplacianSolveStats, LaplacianSolver, ScratchArena};

/// A symmetric diagonally dominant matrix stored as symmetric COO triplets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SddMatrix {
    n: usize,
    /// Diagonal entries.
    diagonal: Vec<f64>,
    /// Strict upper-triangle off-diagonal entries `(i, j, value)` with `i < j`.
    off_diagonal: Vec<(usize, usize, f64)>,
}

/// Error returned when a matrix is not symmetric diagonally dominant.
#[derive(Debug, Clone, PartialEq)]
pub struct NotSddError(pub String);

impl std::fmt::Display for NotSddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not symmetric diagonally dominant: {}", self.0)
    }
}

impl std::error::Error for NotSddError {}

/// An off-diagonal triplet staged for [`SddMatrix::assemble`]: its entry
/// `(min(i, j), max(i, j))`, whether it came from the lower triangle, its
/// position among the triplets, and its value.
type Staged = (usize, usize, bool, usize, f64);

impl SddMatrix {
    /// Builds an SDD matrix from full symmetric triplets (both `(i, j)` and
    /// `(j, i)` may be present; they must agree). Diagonal dominance is
    /// validated.
    ///
    /// # Errors
    ///
    /// Returns [`NotSddError`] if the triplets are asymmetric or some row is
    /// not diagonally dominant.
    pub fn from_triplets(
        n: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, NotSddError> {
        let mut matrix = SddMatrix::default();
        matrix.assemble(n, triplets, &mut Vec::new(), &mut Vec::new())?;
        Ok(matrix)
    }

    /// The body of [`SddMatrix::from_triplets`], written over this matrix
    /// with the caller's staging and row-sum buffers: once all three have
    /// grown to a system's size, assembling another allocates nothing.
    ///
    /// Each entry sums its upper-triangle triplets, and apart from them its
    /// lower-triangle ones, in triplet order from `0.0`; the entries come
    /// out in row-major order. A lower sum stands in for a missing upper one
    /// and must otherwise agree with it.
    fn assemble(
        &mut self,
        n: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
        staged: &mut Vec<Staged>,
        off_sum: &mut Vec<f64>,
    ) -> Result<(), NotSddError> {
        self.n = n;
        self.diagonal.clear();
        self.diagonal.resize(n, 0.0);
        self.off_diagonal.clear();
        staged.clear();
        for (position, (i, j, v)) in triplets.into_iter().enumerate() {
            if i >= n || j >= n {
                return Err(NotSddError(format!("index ({i}, {j}) out of range")));
            }
            if i == j {
                self.diagonal[i] += v;
            } else {
                staged.push((i.min(j), i.max(j), i > j, position, v));
            }
        }
        // Positions are distinct, so the unstable sort is a total order.
        staged.sort_unstable_by_key(|&(i, j, lower, position, _)| (i, j, lower, position));
        for entry in staged.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (i, j) = (entry[0].0, entry[0].1);
            let (mut upper, mut lower) = (None, None);
            for &(_, _, is_lower, _, v) in entry {
                let sum: &mut f64 =
                    if is_lower { &mut lower } else { &mut upper }.get_or_insert(0.0);
                *sum += v;
            }
            let mut value = upper.unwrap_or(0.0);
            if let Some(v) = lower {
                if (value - v).abs() > 1e-9 * (1.0 + value.abs().max(v.abs())) {
                    if upper.is_some() {
                        return Err(NotSddError(format!(
                            "asymmetric entries at {:?}: {value} vs {v}",
                            (i, j)
                        )));
                    }
                    value = v;
                }
            }
            if value != 0.0 {
                self.off_diagonal.push((i, j, value));
            }
        }
        // Validate dominance, forgiving rounding relative to the row's scale
        // (an absolute slack would accept any row of small enough entries).
        off_sum.clear();
        off_sum.resize(n, 0.0);
        for &(i, j, v) in &self.off_diagonal {
            off_sum[i] += v.abs();
            off_sum[j] += v.abs();
        }
        for i in 0..n {
            let slack = 1e-9 * self.diagonal[i].abs().max(off_sum[i]);
            if self.diagonal[i] + slack < off_sum[i] {
                return Err(NotSddError(format!(
                    "row {i}: diagonal {} < off-diagonal sum {}",
                    self.diagonal[i], off_sum[i]
                )));
            }
        }
        Ok(())
    }

    /// Dimension of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Applies the matrix to a vector.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        let mut y: Vec<f64> = self.diagonal.iter().zip(x).map(|(d, xi)| d * xi).collect();
        for &(i, j, v) in &self.off_diagonal {
            y[i] += v * x[j];
            y[j] += v * x[i];
        }
        y
    }

    /// The excess diagonal `C₂(i,i) = M(i,i) − Σ_{j≠i} |M(i,j)|` (all entries
    /// are non-negative for an SDD matrix).
    pub fn excess_diagonal(&self) -> Vec<f64> {
        let mut excess = Vec::new();
        self.excess_diagonal_into(&mut excess);
        excess
    }

    /// [`SddMatrix::excess_diagonal`] written over `excess`.
    fn excess_diagonal_into(&self, excess: &mut Vec<f64>) {
        excess.clone_from(&self.diagonal);
        for &(i, j, v) in &self.off_diagonal {
            excess[i] -= v.abs();
            excess[j] -= v.abs();
        }
        excess.iter_mut().for_each(|e| *e = e.max(0.0));
    }

    /// The Gremban graph on `2n` virtual vertices whose Laplacian is `L` from
    /// the module documentation.
    pub fn gremban_graph(&self) -> Graph {
        let mut g = Graph::default();
        self.gremban_graph_into(&mut g, &mut Vec::new());
        g
    }

    /// [`SddMatrix::gremban_graph`] rebuilt in `g`, with `excess` holding the
    /// excess diagonal: no allocation once both have held a graph this size.
    fn gremban_graph_into(&self, g: &mut Graph, excess: &mut Vec<f64>) {
        let n = self.n;
        g.reset(2 * n);
        for &(i, j, v) in &self.off_diagonal {
            if v < 0.0 {
                g.add_edge(i, j, -v);
                g.add_edge(i + n, j + n, -v);
            } else if v > 0.0 {
                g.add_edge(i, j + n, v);
                g.add_edge(j, i + n, v);
            }
        }
        self.excess_diagonal_into(excess);
        for (i, &d) in excess.iter().enumerate() {
            if d > 1e-14 {
                g.add_edge(i, i + n, d / 2.0);
            }
        }
    }
}

/// How [`solve_sdd`] and [`solve_sdd_many`] realize the inner Laplacian
/// solve.
#[derive(Debug, Clone)]
pub enum SddSolveMode {
    /// The complete pipeline of Theorem 1.3: run the ad-hoc sparsifier on the
    /// Gremban graph, then preconditioned Chebyshev. Every round is charged.
    Full(SparsifierConfig),
    /// Skip the sparsifier computation and precondition with the (scaled)
    /// Gremban Laplacian itself (`κ = 3`), charging only the per-instance
    /// rounds of Theorem 1.3. This keeps large experiment sweeps tractable
    /// while exercising the identical communication pattern per instance.
    ExactPreconditioner,
}

/// Solves `M x = b` for an SDD matrix `M` via the Gremban reduction and the
/// Broadcast Congested Clique Laplacian solver (Lemma 5.1).
///
/// The virtual `2n`-vertex network is simulated by the `n` physical vertices;
/// the extra factor-of-two rounds are charged explicitly. A one-element
/// [`solve_sdd_many`].
///
/// # Errors
///
/// As for [`solve_sdd_many`].
pub fn solve_sdd(
    net: &mut Network,
    matrix: &SddMatrix,
    b: &[f64],
    epsilon: f64,
    mode: &SddSolveMode,
) -> Result<Vec<f64>, LaplacianError> {
    let mut solved = solve_sdd_many(net, matrix, &[b], epsilon, mode)?;
    Ok(solved.pop().expect("one solution per right-hand side"))
}

/// Solves `M x = b` for every `b` in `rhs`, sharing one Gremban graph and one
/// preconditioner (in [`SddSolveMode::Full`], one sparsifier run) across the
/// batch.
///
/// The right-hand sides `[b; −b]` are solved in lockstep by one
/// [`LaplacianSolver::try_solve_block_into`] on one virtual network. Each is
/// still charged exactly what its own [`solve_sdd`] call would charge, in
/// order: twice the virtual rounds of preprocessing plus its own solve, and
/// their bits. In the BCC every solve still pays for its preprocessing; only
/// the simulator stops repeating it. Solutions and ledgers are bit-identical
/// to solving the right-hand sides one at a time.
///
/// This runs [`SddWorkspace::solve`] on a fresh workspace: a caller that
/// solves one system after another keeps an [`SddWorkspace`] instead, which
/// refills the Gremban graph, the preconditioner and every buffer of the
/// last system in place and returns the same bits.
///
/// # Errors
///
/// * [`LaplacianError::DimensionMismatch`] — some `b` does not have length
///   `n` (checked before anything is charged).
/// * [`LaplacianError::InvalidEpsilon`] — `epsilon` is not positive, or is
///   NaN (checked before anything is charged; a larger `epsilon` than `1/2`
///   is clamped to `1/2`).
/// * [`LaplacianError::Disconnected`] — the Gremban graph is disconnected.
///   For the flow LP matrices of Section 5 the excess diagonal is strictly
///   positive, which makes it connected; a block-diagonal `M` does not.
pub fn solve_sdd_many<B: AsRef<[f64]>>(
    net: &mut Network,
    matrix: &SddMatrix,
    rhs: &[B],
    epsilon: f64,
    mode: &SddSolveMode,
) -> Result<Vec<Vec<f64>>, LaplacianError> {
    let mut reduction = GrembanReduction::default();
    reduction.solve(net, matrix, rhs, epsilon, mode)?;
    Ok(reduction.solutions())
}

/// The SDD systems of one caller, solved one after another ([`solve_sdd_many`]
/// per system) in buffers that each system refills in place of the last:
/// the matrix and its staging, the Gremban graph inside its Laplacian
/// solver, the preconditioner's dense `1.5·L` and factors, one virtual
/// network, the solve arena, and the block, solution and lane buffers.
/// Once they have grown to a system's size, assembling and solving another
/// of that size allocates only the solutions it returns.
///
/// Nothing kept changes a result: every system is assembled, reduced,
/// checked, preconditioned and solved anew, with the same arithmetic as
/// [`SddMatrix::from_triplets`] and [`solve_sdd_many`], so solutions and
/// charges are bit-identical to theirs. The virtual network accumulates the
/// systems' virtual rounds, of which each charge takes only its own
/// difference.
#[derive(Debug, Clone, Default)]
pub struct SddWorkspace {
    matrix: SddMatrix,
    staged: Vec<Staged>,
    off_sum: Vec<f64>,
    reduction: GrembanReduction,
}

impl SddWorkspace {
    /// Assembles the next system's matrix from symmetric triplets, as
    /// [`SddMatrix::from_triplets`] does.
    ///
    /// # Errors
    ///
    /// As for [`SddMatrix::from_triplets`]; the workspace then holds the
    /// empty `0 × 0` matrix until the next assembly succeeds, so a solve in
    /// between fails with [`LaplacianError::DimensionMismatch`].
    pub fn assemble(
        &mut self,
        n: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<(), NotSddError> {
        let assembled = self
            .matrix
            .assemble(n, triplets, &mut self.staged, &mut self.off_sum);
        if assembled.is_err() {
            self.matrix = SddMatrix::default();
        }
        assembled
    }

    /// Solves the assembled matrix for every `b` in `rhs`, as
    /// [`solve_sdd_many`] does; the solutions stay in the workspace until
    /// the next solve ([`SddWorkspace::solution`]).
    ///
    /// # Errors
    ///
    /// As for [`solve_sdd_many`].
    pub fn solve<B: AsRef<[f64]>>(
        &mut self,
        net: &mut Network,
        rhs: &[B],
        epsilon: f64,
        mode: &SddSolveMode,
    ) -> Result<(), LaplacianError> {
        self.reduction.solve(net, &self.matrix, rhs, epsilon, mode)
    }

    /// The solution of right-hand side `lane` of the last solve.
    ///
    /// # Panics
    ///
    /// Panics if the last solve had no right-hand side `lane`.
    pub fn solution(&self, lane: usize) -> Vec<f64> {
        self.reduction.solution(lane)
    }

    /// Every solution of the last solve, in right-hand side order.
    pub fn solutions(&self) -> Vec<Vec<f64>> {
        self.reduction.solutions()
    }
}

/// The body of [`solve_sdd_many`], with everything it builds kept for the
/// next system (see [`SddWorkspace`]).
#[derive(Debug, Clone)]
struct GrembanReduction {
    /// The Laplacian solver whose graph is the last Gremban graph.
    solver: LaplacianSolver,
    factor: FactorScratch,
    excess: Vec<f64>,
    virtual_net: Network,
    arena: ScratchArena,
    block: Vec<f64>,
    /// The last block's solutions, entry `i` of lane `j` at `i·lanes + j`.
    solution: Vec<f64>,
    lanes: Vec<LaplacianSolveStats>,
}

impl Default for GrembanReduction {
    fn default() -> Self {
        GrembanReduction {
            solver: LaplacianSolver::unfactored(Graph::default()),
            factor: FactorScratch::default(),
            excess: Vec::new(),
            virtual_net: Network::clique(ModelConfig::bcc(), 0),
            arena: ScratchArena::new(),
            block: Vec::new(),
            solution: Vec::new(),
            lanes: Vec::new(),
        }
    }
}

impl GrembanReduction {
    fn solve<B: AsRef<[f64]>>(
        &mut self,
        net: &mut Network,
        matrix: &SddMatrix,
        rhs: &[B],
        epsilon: f64,
        mode: &SddSolveMode,
    ) -> Result<(), LaplacianError> {
        let n = matrix.n();
        self.lanes.clear();
        if let Some(b) = rhs.iter().find(|b| b.as_ref().len() != n) {
            return Err(LaplacianError::DimensionMismatch {
                expected: n,
                actual: b.as_ref().len(),
            });
        }
        // Checked before `epsilon.min(0.5)` below, which would turn a NaN into ½.
        if epsilon.is_nan() || epsilon <= 0.0 {
            return Err(LaplacianError::InvalidEpsilon { epsilon });
        }
        matrix.gremban_graph_into(self.solver.graph_mut(), &mut self.excess);
        // The 2n virtual vertices live on a virtual network; physical vertex i
        // simulates virtual vertices i and i + n, so every virtual round costs
        // two physical rounds, charged below.
        let (preprocessing_rounds, preprocessing_bits) = match mode {
            SddSolveMode::Full(config) => {
                let mut preprocessing_net = Network::clique(net.config(), 2 * n);
                self.solver = LaplacianSolver::try_preprocess(
                    &mut preprocessing_net,
                    self.solver.graph(),
                    config,
                )?;
                let preprocessing = preprocessing_net.ledger();
                (preprocessing.total_rounds(), preprocessing.total_bits())
            }
            SddSolveMode::ExactPreconditioner => {
                self.solver.try_refit_exact(&mut self.factor)?;
                (0, 0)
            }
        };
        // The right-hand sides [b; −b] as one block: entry i of lane j at i·k + j.
        let lanes = rhs.len();
        self.block.clear();
        self.block.resize(2 * n * lanes, 0.0);
        for (j, b) in rhs.iter().enumerate() {
            for (i, &v) in b.as_ref().iter().enumerate() {
                self.block[i * lanes + j] = v;
                self.block[(i + n) * lanes + j] = -v;
            }
        }
        if (self.virtual_net.n(), self.virtual_net.config()) != (2 * n, net.config()) {
            self.virtual_net = Network::clique(net.config(), 2 * n);
        }
        self.solver.try_solve_block_into(
            &mut self.virtual_net,
            &self.block,
            lanes,
            epsilon.min(0.5),
            &mut self.arena,
            &mut self.solution,
            &mut self.lanes,
        )?;
        for lane in &self.lanes {
            net.begin_phase("sdd solve (gremban)");
            net.ledger_mut().charge(
                2 * (preprocessing_rounds + lane.rounds),
                preprocessing_bits + lane.bits,
            );
        }
        Ok(())
    }

    /// `x = (x₁ − x₂)/2` of lane `j` of the last block.
    fn solution(&self, j: usize) -> Vec<f64> {
        let lanes = self.lanes.len();
        assert!(j < lanes, "the last solve had {lanes} right-hand sides");
        let n = self.solution.len() / (2 * lanes);
        (0..n)
            .map(|i| (self.solution[i * lanes + j] - self.solution[(i + n) * lanes + j]) / 2.0)
            .collect()
    }

    fn solutions(&self) -> Vec<Vec<f64>> {
        (0..self.lanes.len()).map(|j| self.solution(j)).collect()
    }
}

/// Centralized exact SDD solve (dense), used as ground truth in tests.
pub fn exact_sdd_solve(matrix: &SddMatrix, b: &[f64]) -> Vec<f64> {
    let n = matrix.n();
    let mut dense = bcc_linalg::DenseMatrix::zeros(n, n);
    for (i, &d) in matrix.diagonal.iter().enumerate() {
        dense.add_to(i, i, d);
    }
    for &(i, j, v) in &matrix.off_diagonal {
        dense.add_to(i, j, v);
        dense.add_to(j, i, v);
    }
    dense
        .solve(b)
        .or_else(|| dense.solve_psd(b, false))
        .expect("SDD system is solvable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_linalg::vector;
    use bcc_runtime::ModelConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn strictly_dominant(n: usize, seed: u64) -> SddMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut triplets = Vec::new();
        let mut row_sum = vec![0.0; n];
        for i in 0..n {
            for j in (i + 1)..n {
                // Always keep the path i — i+1 so the sparsity graph (and its
                // Gremban double cover) is connected regardless of the seed.
                if j == i + 1 || rng.gen::<f64>() < 0.4 {
                    let sign: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    let v: f64 = sign * rng.gen_range(0.5..2.0);
                    triplets.push((i, j, v));
                    row_sum[i] += v.abs();
                    row_sum[j] += v.abs();
                }
            }
        }
        for i in 0..n {
            triplets.push((i, i, row_sum[i] + 1.0 + rng.gen::<f64>()));
        }
        SddMatrix::from_triplets(n, triplets).unwrap()
    }

    /// `from_triplets` as it was written with two `BTreeMap`s: each key sums
    /// its upper and its lower triplets in order from `0.0`, a lower sum
    /// fills a missing upper one or must agree with it, and the nonzero
    /// entries come out in key order.
    fn btree_reference(n: usize, triplets: &[(usize, usize, f64)]) -> Result<SddMatrix, String> {
        use std::collections::BTreeMap;
        let mut diagonal = vec![0.0; n];
        let (mut upper, mut lower) = (BTreeMap::new(), BTreeMap::new());
        for &(i, j, v) in triplets {
            if i == j {
                diagonal[i] += v;
            } else if i < j {
                *upper.entry((i, j)).or_insert(0.0) += v;
            } else {
                *lower.entry((j, i)).or_insert(0.0) += v;
            }
        }
        for (&key, &v) in &lower {
            let u: f64 = upper.get(&key).copied().unwrap_or(0.0);
            if (u - v).abs() > 1e-9 * (1.0 + u.abs().max(v.abs())) {
                if upper.contains_key(&key) {
                    return Err(format!("asymmetric entries at {key:?}: {u} vs {v}"));
                }
                upper.insert(key, v);
            }
        }
        let off_diagonal = upper
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|((i, j), v)| (i, j, v))
            .collect();
        Ok(SddMatrix {
            n,
            diagonal,
            off_diagonal,
        })
    }

    #[test]
    fn assembly_matches_the_btree_reference_bit_for_bit() {
        // Repeated entries from either triangle, in random order, with sums
        // that cancel, lower entries that agree with, fill in for or
        // contradict their upper ones, and diagonals large enough for the
        // matrix to be dominant; one workspace assembles every case.
        let mut workspace = SddWorkspace::default();
        let (mut matched, mut rejected) = (0, 0);
        for seed in 0..200 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(1..7usize);
            let mut triplets = Vec::new();
            for _ in 0..rng.gen_range(0..25usize) {
                let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let v: f64 = match rng.gen_range(0..4u32) {
                    0 => 0.5,
                    1 => -0.5,
                    2 => -1e-12,
                    _ => rng.gen::<f64>() * 2.0 - 1.0,
                };
                triplets.push((i, j, v));
                if i != j && rng.gen::<f64>() < 0.5 {
                    triplets.push((j, i, v));
                }
            }
            for i in 0..n {
                triplets.push((i, i, 10.0 + rng.gen::<f64>()));
            }
            let bits = |m: &SddMatrix| {
                let off: Vec<_> = m
                    .off_diagonal
                    .iter()
                    .map(|&(i, j, v)| (i, j, v.to_bits()))
                    .collect();
                (
                    m.n,
                    m.diagonal.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    off,
                )
            };
            match (
                btree_reference(n, &triplets),
                SddMatrix::from_triplets(n, triplets.clone()),
            ) {
                (Ok(expected), Ok(assembled)) => {
                    assert_eq!(bits(&assembled), bits(&expected), "seed {seed}");
                    workspace.assemble(n, triplets).expect("the same matrix");
                    assert_eq!(bits(&workspace.matrix), bits(&expected), "seed {seed}");
                    matched += 1;
                }
                (Err(expected), Err(NotSddError(message))) => {
                    assert_eq!(message, expected, "seed {seed}");
                    rejected += 1;
                }
                (expected, assembled) => panic!("seed {seed}: {expected:?} vs {assembled:?}"),
            }
        }
        assert!(
            matched > 50 && rejected > 10,
            "{matched} matched, {rejected} rejected"
        );
    }

    #[test]
    fn one_workspace_solves_a_sequence_like_fresh_calls() {
        // Systems of changing size in both modes, with a disconnected one
        // and a rejected right-hand side in between: every solution bit and
        // every charge equals a fresh solve_sdd_many's.
        let disconnected = SddMatrix::from_triplets(2, [(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let mut workspace = SddWorkspace::default();
        let mut fresh_net = Network::clique(ModelConfig::bcc(), 8);
        let mut net = fresh_net.clone();
        for (step, n) in [6, 4, 8, 2, 4, 6, 8].into_iter().enumerate() {
            let matrix = if n == 2 {
                disconnected.clone()
            } else {
                strictly_dominant(n, step as u64)
            };
            let full = SparsifierConfig::laboratory(2 * n, 4 * n * n, 0.5, step as u64)
                .with_t(4)
                .with_k(2);
            let mode = if step % 3 == 2 {
                SddSolveMode::Full(full)
            } else {
                SddSolveMode::ExactPreconditioner
            };
            let mut rng = ChaCha8Rng::seed_from_u64(100 + step as u64);
            let mut rhs: Vec<Vec<f64>> = (0..1 + step % 4 * 3)
                .map(|_| (0..n).map(|_| rng.gen::<f64>() - 0.5).collect())
                .collect();
            if step == 4 {
                rhs[0].push(0.0);
            }
            let expected = solve_sdd_many(&mut fresh_net, &matrix, &rhs, 1e-8, &mode);
            let mut triplets: Vec<_> = matrix.off_diagonal.clone();
            triplets.extend(matrix.diagonal.iter().enumerate().map(|(i, &d)| (i, i, d)));
            workspace.assemble(n, triplets).expect("an SDD matrix");
            let solved = workspace
                .solve(&mut net, &rhs, 1e-8, &mode)
                .map(|()| workspace.solutions());
            assert_eq!(solved.is_ok(), expected.is_ok(), "step {step}");
            match (solved, expected) {
                (Ok(solved), Ok(expected)) => {
                    for (x, y) in solved.iter().zip(&expected) {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(x), bits(y), "step {step}");
                    }
                }
                (solved, expected) => assert_eq!(solved.unwrap_err(), expected.unwrap_err()),
            }
            assert_eq!(net.ledger(), fresh_net.ledger(), "step {step}");
        }
    }

    #[test]
    fn rejects_non_dominant_matrices() {
        let err = SddMatrix::from_triplets(2, [(0, 0, 1.0), (1, 1, 1.0), (0, 1, -5.0)]);
        assert!(err.is_err());
        let err2 =
            SddMatrix::from_triplets(2, [(0, 1, 1.0), (1, 0, 2.0), (0, 0, 3.0), (1, 1, 3.0)]);
        assert!(err2.is_err());
    }

    #[test]
    fn dominance_slack_scales_with_the_row() {
        // Row 0 has diagonal 1e-10 against an off-diagonal sum of 2e-10, at
        // two scales; an absolute slack of 1e-9 accepted the small one.
        for scale in [1.0, 1e10] {
            let entries = [
                (0, 0, 1e-10),
                (0, 1, -2e-10),
                (1, 1, 1.0),
                (1, 2, -0.5),
                (2, 2, 1.0),
            ];
            let err = SddMatrix::from_triplets(3, entries.map(|(i, j, v)| (i, j, v * scale)))
                .expect_err("row 0 is not dominant");
            assert!(err.0.starts_with("row 0:"), "scale {scale}: {err}");
        }
        // Rounding within the slack is forgiven at either scale.
        for scale in [1e-12, 1.0, 1e12] {
            let rounded = (1.0 - 1e-12) * scale;
            let m = SddMatrix::from_triplets(2, [(0, 0, rounded), (1, 1, scale), (0, 1, -scale)]);
            assert!(m.is_ok(), "scale {scale}");
        }
    }

    #[test]
    fn gremban_graph_has_laplacian_structure() {
        let m = strictly_dominant(6, 1);
        let g = m.gremban_graph();
        assert_eq!(g.n(), 12);
        assert!(g.is_connected());
        // Applying the Gremban Laplacian to [x; -x] equals [Mx; -Mx].
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x: Vec<f64> = (0..6).map(|_| rng.gen::<f64>() - 0.5).collect();
        let mut stacked = x.clone();
        stacked.extend(x.iter().map(|v| -v));
        let ly = bcc_graph::laplacian::laplacian_apply(&g, &stacked);
        let mx = m.apply(&x);
        for i in 0..6 {
            assert!((ly[i] - mx[i]).abs() < 1e-9, "row {i}");
            assert!((ly[i + 6] + mx[i]).abs() < 1e-9, "row {}", i + 6);
        }
    }

    #[test]
    fn excess_diagonal_is_nonnegative() {
        let m = strictly_dominant(5, 3);
        assert!(m.excess_diagonal().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn sdd_solve_matches_exact_solution() {
        let m = strictly_dominant(8, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let x_true: Vec<f64> = (0..8).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = m.apply(&x_true);
        let exact = exact_sdd_solve(&m, &b);
        assert!(vector::approx_eq(&exact, &x_true, 1e-8));

        let mut net = Network::clique(ModelConfig::bcc(), 8);
        let approx = solve_sdd(&mut net, &m, &b, 1e-6, &SddSolveMode::ExactPreconditioner).unwrap();
        assert!(
            vector::approx_eq(&approx, &x_true, 1e-3),
            "{approx:?} vs {x_true:?}"
        );
        assert!(net.ledger().total_rounds() > 0);
    }

    #[test]
    fn sdd_solve_full_pipeline_on_small_instance() {
        let m = strictly_dominant(6, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let x_true: Vec<f64> = (0..6).map(|_| rng.gen::<f64>() - 0.5).collect();
        let b = m.apply(&x_true);
        let gremban = m.gremban_graph();
        let cfg = SparsifierConfig::laboratory(gremban.n(), gremban.m().max(2), 0.5, 9)
            .with_t(6)
            .with_k(2);
        let mut net = Network::clique(ModelConfig::bcc(), 6);
        let approx = solve_sdd(&mut net, &m, &b, 1e-5, &SddSolveMode::Full(cfg)).unwrap();
        assert!(
            vector::approx_eq(&approx, &x_true, 1e-2),
            "{approx:?} vs {x_true:?}"
        );
    }

    #[test]
    fn positive_off_diagonals_are_handled() {
        // M = [[3, 1], [1, 3]] has a positive off-diagonal entry.
        let m = SddMatrix::from_triplets(2, [(0, 0, 3.0), (1, 1, 3.0), (0, 1, 1.0)]).unwrap();
        let b = vec![4.0, 2.0];
        let exact = exact_sdd_solve(&m, &b);
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        let approx = solve_sdd(&mut net, &m, &b, 1e-6, &SddSolveMode::ExactPreconditioner).unwrap();
        assert!(vector::approx_eq(&approx, &exact, 1e-4));
    }

    #[test]
    fn a_disconnected_gremban_graph_is_a_typed_error() {
        // A diagonal M has no off-diagonal edges: its Gremban graph is the n
        // disjoint excess edges i — i + n.
        let m = SddMatrix::from_triplets(2, [(0, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let mut net = Network::clique(ModelConfig::bcc(), 2);
        for mode in [
            SddSolveMode::ExactPreconditioner,
            SddSolveMode::Full(SparsifierConfig::laboratory(4, 4, 0.5, 1)),
        ] {
            let err = solve_sdd(&mut net, &m, &[1.0, 1.0], 1e-6, &mode).unwrap_err();
            assert_eq!(err, LaplacianError::Disconnected);
        }
        assert_eq!(net.ledger().total_rounds(), 0);
    }

    #[test]
    fn a_non_positive_or_nan_epsilon_is_a_typed_error_before_any_charge() {
        let m = strictly_dominant(4, 9);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        for epsilon in [0.0, -1e-6, f64::NAN, f64::NEG_INFINITY] {
            for mode in [
                SddSolveMode::ExactPreconditioner,
                SddSolveMode::Full(SparsifierConfig::laboratory(8, 8, 0.5, 1)),
            ] {
                let err = solve_sdd(&mut net, &m, &[1.0; 4], epsilon, &mode).unwrap_err();
                let LaplacianError::InvalidEpsilon { epsilon: rejected } = err else {
                    panic!("epsilon {epsilon}: {err:?}");
                };
                assert_eq!(rejected.to_bits(), epsilon.to_bits());
            }
        }
        assert_eq!(net.ledger().total_rounds(), 0);
        assert_eq!(net.ledger().total_operations(), 0);
    }

    #[test]
    fn a_wrong_right_hand_side_length_is_a_typed_error_before_any_charge() {
        let m = strictly_dominant(4, 9);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        let rhs = [vec![1.0; 4], vec![1.0; 3]];
        let err = solve_sdd_many(&mut net, &m, &rhs, 1e-6, &SddSolveMode::ExactPreconditioner)
            .unwrap_err();
        assert_eq!(
            err,
            LaplacianError::DimensionMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert_eq!(net.ledger().total_rounds(), 0);
    }

    #[test]
    fn a_nan_right_hand_side_is_a_typed_error_before_any_charge() {
        let m = strictly_dominant(4, 9);
        let mut net = Network::clique(ModelConfig::bcc(), 4);
        for mode in [
            SddSolveMode::ExactPreconditioner,
            SddSolveMode::Full(SparsifierConfig::laboratory(8, 8, 0.5, 1)),
        ] {
            let err = solve_sdd(&mut net, &m, &[1.0, f64::NAN, 0.0, 2.0], 1e-6, &mode).unwrap_err();
            assert_eq!(err, LaplacianError::MagnitudeOverflow);
        }
        assert_eq!(net.ledger().total_rounds(), 0);
        assert_eq!(net.ledger().total_operations(), 0);
    }
}
