//! The Broadcast Congested Clique Laplacian solver (Section 3.3, Theorem 1.3).
//!
//! The solver has two stages:
//!
//! 1. **Preprocessing** — compute a `(1 ± 1/2)`-spectral sparsifier `H` of the
//!    input graph with the ad-hoc algorithm of Section 3.2. Because every
//!    sparsifier edge is explicitly broadcast during that algorithm, at the
//!    end *every vertex knows the entire sparsifier*, so any computation with
//!    `L_H` can subsequently be done internally for free.
//! 2. **Per-instance solve** — preconditioned Chebyshev iteration
//!    (Theorem 2.3 / Corollary 2.4) with `A = L_G`, `B = (1 + 1/2)·L_H`,
//!    `κ = 3`. Each iteration multiplies `L_G` by a vector — the only step
//!    that needs communication: every vertex broadcasts its coordinate
//!    (`O(log(nU/ε))` bits), then applies its Laplacian row locally — and
//!    solves one system in `L_H` internally.

use bcc_graph::{laplacian, Graph};
use bcc_linalg::{chebyshev, vector, DenseMatrix, FactoredPsd, SolveScratch};
use bcc_runtime::{payload, Network};
use bcc_sparsifier::{
    quality, sparsify_ad_hoc, try_sparsify_ad_hoc, SparsifierConfig, SparsifierError,
};

use crate::error::LaplacianError;

/// Result of one Laplacian solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LaplacianSolve {
    /// The approximate solution `y` with `‖x − y‖_{L_G} ≤ ε‖x‖_{L_G}`.
    pub solution: Vec<f64>,
    /// Chebyshev iterations performed (`O(log(1/ε))` by Corollary 2.4).
    pub iterations: usize,
    /// Rounds charged for this instance (excluding preprocessing).
    pub rounds: u64,
}

/// Lanes a block of right-hand sides is solved in lockstep, side by side:
/// the width of the flow pipeline's JL sketches
/// (`max_sketch_dimension = Some(10)` in `try_min_cost_max_flow_bcc`), so
/// that every Gram batch of Algorithm 6 is one group. The lockstep kernels
/// take it as a compile-time constant, which lets them keep each vertex's
/// lanes in registers; a block of any other width than one runs in groups
/// of this many, and one lane runs the one-lane instance of the same
/// kernels.
const LOCKSTEP_LANES: usize = 10;

/// Statistics of an in-place solve ([`LaplacianSolver::try_solve_into`], or
/// one lane of [`LaplacianSolver::try_solve_block_into`]); the solution
/// itself is written into the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplacianSolveStats {
    /// Chebyshev iterations performed.
    pub iterations: usize,
    /// Rounds charged for this instance (excluding preprocessing).
    pub rounds: u64,
    /// Bits charged for this instance (excluding preprocessing).
    pub bits: u64,
}

/// Per-worker reusable solve state: the [`SolveScratch`] work vectors of the
/// Chebyshev iteration plus a right-hand-side staging buffer, which holds a
/// block's lanes group by group. A worker that keeps one arena across
/// requests performs zero heap allocations per warm solve (buffers grow to
/// the largest block seen and stay there until [`ScratchArena::release`]).
#[derive(Debug, Clone, Default)]
pub struct ScratchArena {
    scratch: SolveScratch,
    rhs: Vec<f64>,
}

impl ScratchArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        ScratchArena::default()
    }

    /// An arena pre-sized for dimension `n`, so the first solve at that size
    /// already allocates nothing.
    pub fn with_dimension(n: usize) -> Self {
        ScratchArena {
            scratch: SolveScratch::with_dimension(n),
            rhs: Vec::with_capacity(n),
        }
    }

    /// The largest dimension the arena can serve without allocating.
    pub fn dimension_capacity(&self) -> usize {
        self.scratch.dimension_capacity().min(self.rhs.capacity())
    }

    /// Releases all buffer memory (shrink-on-idle for long-lived workers).
    pub fn release(&mut self) {
        self.scratch.release();
        self.rhs = Vec::new();
    }
}

/// The preprocessed solver state (Theorem 1.3).
#[derive(Debug, Clone)]
pub struct LaplacianSolver {
    graph: Graph,
    /// The preprocessing sparsifier `H`; `None` when the preconditioner is
    /// the graph itself, either by request
    /// ([`LaplacianSolver::try_exact_preconditioner`]) or because the
    /// sparsifier kept every edge at its weight.
    sparsifier: Option<Graph>,
    /// The preconditioner `(1 + 1/2)·L_H`, factored once at preprocessing
    /// time and solved internally by every vertex.
    factored: FactoredPsd,
    /// The condition number of the Chebyshev iteration, fixed at
    /// construction: the constant 3 when `H = G`, otherwise from the
    /// certificate of [`kappa_of`], an `O(n³)` eigensolve far too expensive
    /// to repeat per request.
    kappa: f64,
    preprocessing_rounds: u64,
    max_weight: f64,
}

/// `scale · L_G` as a dense matrix: each edge, in edge order, adds
/// `scale · w` to its two diagonal entries and `−scale · w` to its two
/// off-diagonal ones.
fn dense_laplacian(graph: &Graph, scale: f64) -> DenseMatrix {
    let mut l = DenseMatrix::zeros(graph.n(), graph.n());
    for e in graph.edges() {
        let w = scale * e.weight;
        l.add_to(e.u, e.u, w);
        l.add_to(e.v, e.v, w);
        l.add_to(e.u, e.v, -w);
        l.add_to(e.v, e.u, -w);
    }
    l
}

/// Factors the Chebyshev preconditioner `(1 + 1/2)·L_H` of `sparsifier`.
fn factor_preconditioner(sparsifier: &Graph) -> FactoredPsd {
    dense_laplacian(sparsifier, 1.5).factor_psd().expect(
        "L_H + λI with λ > 0 is a strictly diagonally dominant M-matrix for finite \
         weights, so no elimination pivot falls below the singularity cut-off",
    )
}

/// The relative condition number the Chebyshev iteration uses for the pair
/// `(graph, sparsifier)`; see [`LaplacianSolver::kappa`].
fn kappa_of(graph: &Graph, sparsifier: &Graph) -> f64 {
    let eps = quality::achieved_epsilon(graph, sparsifier);
    if !eps.is_finite() || eps >= 1.0 {
        // Degenerate sparsifier; fall back to a large but finite κ.
        return 100.0;
    }
    ((1.0 + eps) / (1.0 - eps)).max(3.0)
}

/// Checks that `graph` is connected and that `n · max_weight` is finite —
/// every solve's broadcast range is at least that product, so a graph
/// without it could solve no right-hand side — and returns the weight bound
/// `max(max_weight, 1)` the solves use.
fn validate_graph(graph: &Graph) -> Result<f64, LaplacianError> {
    if !graph.is_connected() {
        return Err(LaplacianError::Disconnected);
    }
    let max_weight = graph.max_weight().max(1.0);
    if (graph.n() as f64 * max_weight).is_finite() {
        Ok(max_weight)
    } else {
        Err(LaplacianError::MagnitudeOverflow)
    }
}

impl LaplacianSolver {
    /// Runs the preprocessing stage: a `(1 ± 1/2)`-spectral sparsifier of
    /// `graph` computed with `config`, charged on `net`.
    ///
    /// When the sparsifier returns `graph` edge for edge, the solver keeps
    /// one copy and κ is 3 with no further work. Only a sparsifier that
    /// thins or reweights `graph` pays for the uncharged `O(n³)` certificate
    /// of its quality that sets κ (see [`LaplacianSolver::kappa`]).
    ///
    /// # Errors
    ///
    /// * [`LaplacianError::Disconnected`] — the solver's error guarantee is
    ///   stated per connected component; callers should solve per component.
    /// * [`LaplacianError::NetworkSizeMismatch`] — `net` does not simulate one
    ///   processor per vertex.
    /// * [`LaplacianError::MagnitudeOverflow`] — `n · max_weight` is not a
    ///   finite `f64`, so no right-hand side could be solved, or the
    ///   sparsifier's reweighting overflows an edge weight (parallel edges
    ///   near `f64::MAX`).
    pub fn try_preprocess(
        net: &mut Network,
        graph: &Graph,
        config: &SparsifierConfig,
    ) -> Result<Self, LaplacianError> {
        if net.n() != graph.n() {
            return Err(LaplacianError::NetworkSizeMismatch {
                network: net.n(),
                graph: graph.n(),
            });
        }
        let max_weight = validate_graph(graph)?;
        let rounds_before = net.ledger().total_rounds();
        net.begin_phase("laplacian preprocessing");
        let sparsifier = match try_sparsify_ad_hoc(net, graph, config) {
            Ok(output) => output.sparsifier,
            // A connected graph without edges has at most one vertex; the
            // sparsifier runs on it all the same.
            Err(SparsifierError::EmptyGraph) => sparsify_ad_hoc(net, graph, config).sparsifier,
            Err(SparsifierError::NetworkSizeMismatch { network, graph }) => {
                return Err(LaplacianError::NetworkSizeMismatch { network, graph })
            }
            Err(SparsifierError::WeightOverflow) => return Err(LaplacianError::MagnitudeOverflow),
        };
        let preprocessing_rounds = net.ledger().total_rounds() - rounds_before;
        Ok(LaplacianSolver::with_preconditioner(
            graph,
            Some(sparsifier),
            max_weight,
            preprocessing_rounds,
        ))
    }

    /// Builds a solver whose "sparsifier" is the graph itself (no
    /// preprocessing rounds). Useful as a baseline and in tests: it makes the
    /// Chebyshev condition number exactly 3 with a perfect preconditioner,
    /// set without a certificate (see [`LaplacianSolver::kappa`]).
    ///
    /// # Errors
    ///
    /// * [`LaplacianError::Disconnected`] — the graph is disconnected.
    /// * [`LaplacianError::MagnitudeOverflow`] — `n · max_weight` is not a
    ///   finite `f64`.
    pub fn try_exact_preconditioner(graph: &Graph) -> Result<Self, LaplacianError> {
        let max_weight = validate_graph(graph)?;
        Ok(LaplacianSolver::with_preconditioner(
            graph, None, max_weight, 0,
        ))
    }

    /// The one constructor. `preconditioner` is the graph `H` whose
    /// `(1 + 1/2)·L_H` preconditions the iteration, `None` for `G` itself.
    ///
    /// An `H` equal to `G` as a [`Graph`] (the same edges in the same order,
    /// with the same weight bits) is not stored twice, and κ is set to 3
    /// without a certificate: every generalized eigenvalue of the pencil
    /// `(L_G, L_G)` is 1, so [`kappa_of`] could only return
    /// `max((1 + ε)/(1 − ε), 3) = 3` with `ε` the rounding error of the
    /// eigensolve. That holds, bit for bit, whenever the certificate reads
    /// `ε < 1/2`, which seeded tests pin on Gremban graphs with weights
    /// spanning `1e±12` and on graphs the sparsifier returns unchanged. Near
    /// `1e±16` the certificate can read `ε ≈ 1` from rounding alone and would
    /// have inflated κ; the constant is the sound value there too. Any other
    /// `H` keeps the certificate, the only guard of the iteration's soundness
    /// where the sparsifier thins `G`.
    fn with_preconditioner(
        graph: &Graph,
        preconditioner: Option<Graph>,
        max_weight: f64,
        preprocessing_rounds: u64,
    ) -> Self {
        let sparsifier = preconditioner.filter(|h| h != graph);
        LaplacianSolver {
            max_weight,
            kappa: sparsifier.as_ref().map_or(3.0, |h| kappa_of(graph, h)),
            factored: factor_preconditioner(sparsifier.as_ref().unwrap_or(graph)),
            graph: graph.clone(),
            sparsifier,
            preprocessing_rounds,
        }
    }

    /// The sparsifier computed during preprocessing (the graph itself for
    /// the exact preconditioner, and when the sparsifier returned it).
    pub fn sparsifier(&self) -> &Graph {
        self.sparsifier.as_ref().unwrap_or(&self.graph)
    }

    /// Rounds spent in preprocessing.
    pub fn preprocessing_rounds(&self) -> u64 {
        self.preprocessing_rounds
    }

    /// The spectral quality `ε` actually achieved by the preprocessing
    /// sparsifier (certificate, computed centrally; not charged).
    pub fn sparsifier_epsilon(&self) -> f64 {
        quality::achieved_epsilon(&self.graph, self.sparsifier())
    }

    /// The relative condition number `κ` used by the Chebyshev iteration.
    /// With a `(1 ± ε_H)` sparsifier this is `(1 + ε_H)/(1 − ε_H)`, the value
    /// Corollary 2.4 instantiates with `ε_H = 1/2` as `κ = 3`.
    ///
    /// When the preconditioner graph is `G` itself (the exact preconditioner,
    /// or a sparsifier that kept every edge at its weight), `L_H = L_G` and κ
    /// is 3 without a certificate. Otherwise the sparsifier's quality is
    /// certified once at preprocessing time, and if it is worse than
    /// `ε_H = 1/2`, the larger measured value is used so the iteration stays
    /// sound.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// Solves `L_G x = b` up to `‖x − y‖_{L_G} ≤ ε‖x‖_{L_G}` (Theorem 1.3).
    ///
    /// `b` must be orthogonal to the all-ones vector (a Laplacian system is
    /// only solvable for such right-hand sides); the method projects `b`
    /// accordingly and returns a mean-zero solution.
    ///
    /// # Errors
    ///
    /// * [`LaplacianError::InvalidEpsilon`] — `epsilon` outside `(0, 1/2]`.
    /// * [`LaplacianError::DimensionMismatch`] — `b` has the wrong length.
    /// * [`LaplacianError::MagnitudeOverflow`] — the broadcast range
    ///   `(‖b‖∞ + 1)·n·max_weight` of the mean-free `b` is not a finite
    ///   `f64`, which includes a `b` holding a NaN. Nothing is charged.
    pub fn try_solve(
        &self,
        net: &mut Network,
        b: &[f64],
        epsilon: f64,
    ) -> Result<LaplacianSolve, LaplacianError> {
        let mut arena = ScratchArena::new();
        self.try_solve_with(net, b, epsilon, &mut arena)
    }

    /// [`LaplacianSolver::try_solve`] over a caller-provided [`ScratchArena`]
    /// so the Chebyshev work vectors are reused across solves. Bit-identical
    /// to `try_solve`; only the solution vector itself is allocated.
    ///
    /// # Errors
    ///
    /// As for [`LaplacianSolver::try_solve`].
    pub fn try_solve_with(
        &self,
        net: &mut Network,
        b: &[f64],
        epsilon: f64,
        arena: &mut ScratchArena,
    ) -> Result<LaplacianSolve, LaplacianError> {
        let mut solution = Vec::new();
        let stats = self.try_solve_into(net, b, epsilon, arena, &mut solution)?;
        Ok(LaplacianSolve {
            solution,
            iterations: stats.iterations,
            rounds: stats.rounds,
        })
    }

    /// The fully in-place solve: writes the solution into `out` (reusing its
    /// capacity) and returns only the statistics. With a warm arena and a
    /// warm `out` buffer a solve performs **zero heap allocations**.
    /// Bit-identical to [`LaplacianSolver::try_solve`].
    ///
    /// # Errors
    ///
    /// As for [`LaplacianSolver::try_solve`].
    pub fn try_solve_into(
        &self,
        net: &mut Network,
        b: &[f64],
        epsilon: f64,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) -> Result<LaplacianSolveStats, LaplacianError> {
        let mut stats = None;
        self.try_solve_lanes_into(net, b, 1, epsilon, arena, out, |lane| stats = Some(lane))?;
        Ok(stats.expect("one lane solved"))
    }

    /// Solves `lanes` right-hand sides in lockstep, given as the interleaved
    /// block `b`, where entry `i` of lane `j` sits at `b[i·lanes + j]`. The
    /// solutions come back in `out` in the same layout and the per-lane
    /// statistics in `stats`, in lane order. A block of more than one lane
    /// runs in groups of ten, the width of the flow pipeline's JL sketches:
    /// one Chebyshev sweep per group, with one `L_G`-product and one
    /// preconditioner replay per iteration for all its lanes at once. A
    /// short last group repeats its last lane and drops the copies' results.
    ///
    /// Every lane is bit-identical to [`LaplacianSolver::try_solve_into`] on
    /// that lane alone, and `net` is charged exactly what those `lanes` calls
    /// in lane order would charge. With a warm arena and warm `out` and
    /// `stats` buffers it performs **zero heap allocations**.
    ///
    /// # Errors
    ///
    /// * [`LaplacianError::InvalidEpsilon`] — `epsilon` outside `(0, 1/2]`.
    /// * [`LaplacianError::DimensionMismatch`] — `b` does not hold
    ///   `n · lanes` entries.
    /// * [`LaplacianError::MagnitudeOverflow`] — the broadcast range of a
    ///   lane is not a finite `f64`, as for [`LaplacianSolver::try_solve`]
    ///   (a NaN in any lane included). Nothing is charged for any lane.
    pub fn try_solve_block_into(
        &self,
        net: &mut Network,
        b: &[f64],
        lanes: usize,
        epsilon: f64,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
        stats: &mut Vec<LaplacianSolveStats>,
    ) -> Result<(), LaplacianError> {
        stats.clear();
        self.try_solve_lanes_into(net, b, lanes, epsilon, arena, out, |lane| stats.push(lane))
    }

    /// The one solve behind both entry points; reports each lane's
    /// statistics to `on_lane`, in lane order. One lane runs the one-lane
    /// kernels, any other count groups of [`LOCKSTEP_LANES`].
    fn try_solve_lanes_into(
        &self,
        net: &mut Network,
        b: &[f64],
        lanes: usize,
        epsilon: f64,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
        on_lane: impl FnMut(LaplacianSolveStats),
    ) -> Result<(), LaplacianError> {
        if !(epsilon > 0.0 && epsilon <= 0.5) {
            return Err(LaplacianError::InvalidEpsilon { epsilon });
        }
        let n = self.graph.n();
        if b.len() != n * lanes {
            return Err(LaplacianError::DimensionMismatch {
                expected: n * lanes,
                actual: b.len(),
            });
        }
        if lanes == 1 {
            self.solve_in_groups::<1>(net, b, lanes, epsilon, arena, out, on_lane)
        } else {
            self.solve_in_groups::<LOCKSTEP_LANES>(net, b, lanes, epsilon, arena, out, on_lane)
        }
    }

    /// [`LaplacianSolver::try_solve_lanes_into`] on validated input, in
    /// groups of `L` lanes. Group `g` is staged in the arena as `n` rows of
    /// `L` entries, lanes `g·L, …, g·L + L − 1` of `b`, the last real lane
    /// standing in for lanes past `lanes`.
    fn solve_in_groups<const L: usize>(
        &self,
        net: &mut Network,
        b: &[f64],
        lanes: usize,
        epsilon: f64,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
        mut on_lane: impl FnMut(LaplacianSolveStats),
    ) -> Result<(), LaplacianError> {
        let n = self.graph.n();
        let groups = lanes.div_ceil(L);
        let group = |g: usize| g * n * L..(g + 1) * n * L;
        let ScratchArena { scratch, rhs } = arena;
        rhs.clear();
        rhs.resize(groups * n * L, 0.0);
        for g in 0..groups {
            let staged = &mut rhs[group(g)];
            for (row, source) in staged.chunks_exact_mut(L).zip(b.chunks_exact(lanes)) {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = source[(g * L + j).min(lanes - 1)];
                }
            }
            vector::remove_lane_means_in_place::<L>(staged);
        }
        // The widest lane bounds every lane's range; reject before charging.
        // Unlike `f64::max`, the fold keeps a NaN, which fails the check.
        let block_norm = rhs.iter().fold(0.0f64, |acc, v| {
            if v.is_nan() || v.abs() > acc {
                v.abs()
            } else {
                acc
            }
        });
        if !((block_norm + 1.0) * (n as f64) * self.max_weight).is_finite() {
            return Err(LaplacianError::MagnitudeOverflow);
        }
        let kappa = self.kappa();
        let iterations = chebyshev::chebyshev_iteration_count(kappa, epsilon);
        // Bits per broadcast coordinate: O(log(n·U/ε)).
        let resolution = (epsilon / (n.max(2) as f64)).min(0.5);
        for lane in 0..lanes {
            let norm_inf = rhs[group(lane / L)]
                .iter()
                .skip(lane % L)
                .step_by(L)
                .fold(0.0f64, |acc, v| acc.max(v.abs()));
            let magnitude = (norm_inf + 1.0) * (n as f64) * self.max_weight;
            let bits = u64::from(payload::bits_for_real(magnitude, resolution));
            // One coordinate broadcast per iteration (the L_G·vector
            // product); the preconditioner solve and vector updates are
            // local.
            let (rounds_before, bits_before) =
                (net.ledger().total_rounds(), net.ledger().total_bits());
            net.begin_phase("laplacian solve");
            net.share_scalars_repeated(bits, iterations as u64);
            on_lane(LaplacianSolveStats {
                iterations,
                rounds: net.ledger().total_rounds() - rounds_before,
                bits: net.ledger().total_bits() - bits_before,
            });
        }

        let (graph, factored) = (&self.graph, &self.factored);
        out.clear();
        out.resize(n * lanes, 0.0);
        for g in 0..groups {
            // The iteration's vector updates are elementwise and its scalars
            // depend only on κ and the step, so it runs unchanged on the
            // whole group.
            chebyshev::preconditioned_chebyshev_fixed_with(
                |x, product| laplacian::laplacian_apply_lanes_into::<L>(graph, x, product),
                |r, z| factored.solve_lanes_into::<L>(r, z, true),
                kappa,
                &rhs[group(g)],
                iterations,
                scratch,
            );
            vector::remove_lane_means_in_place::<L>(&mut scratch.x);
            let (first, width) = (g * L, L.min(lanes - g * L));
            for (solved, row) in scratch.x.chunks_exact(L).zip(out.chunks_exact_mut(lanes)) {
                row[first..][..width].copy_from_slice(&solved[..width]);
            }
        }
        Ok(())
    }

    /// The `L_G`-norm relative error `‖x⋆ − y‖_{L_G} / ‖x⋆‖_{L_G}` of a
    /// candidate solution `y` against the exact solution `x⋆` (computed
    /// centrally with a dense solve; used by tests and experiments).
    pub fn relative_error(&self, b: &[f64], y: &[f64]) -> f64 {
        let exact = exact_solve(&self.graph, b);
        let diff = vector::sub(&exact, y);
        let num = laplacian::laplacian_norm(&self.graph, &diff);
        let den = laplacian::laplacian_norm(&self.graph, &exact).max(1e-300);
        num / den
    }
}

/// Centralized exact (dense, regularized) solve of `L_G x = b` — the ground
/// truth baseline.
pub fn exact_solve(graph: &Graph, b: &[f64]) -> Vec<f64> {
    let l = dense_laplacian(graph, 1.0);
    let b = vector::remove_mean(b);
    l.solve_psd(&b, true)
        .expect("regularized Laplacian solve succeeds")
}

/// Centralized conjugate-gradient baseline (no preconditioner).
pub fn cg_baseline(graph: &Graph, b: &[f64], tolerance: f64) -> bcc_linalg::IterativeSolve {
    let b = vector::remove_mean(b);
    bcc_linalg::conjugate_gradient(
        |x| laplacian::laplacian_apply(graph, x),
        &b,
        None,
        tolerance,
        10 * graph.n().max(10),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::generators;
    use bcc_runtime::ModelConfig;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn bcc_net(n: usize) -> Network {
        Network::clique(ModelConfig::bcc(), n)
    }

    fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let raw: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        vector::remove_mean(&raw)
    }

    #[test]
    fn exact_preconditioner_reaches_requested_accuracy() {
        let g = generators::grid(4, 4);
        let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
        let b = random_rhs(g.n(), 1);
        let mut net = bcc_net(g.n());
        for eps in [0.5f64, 1e-2, 1e-6] {
            let solve = solver
                .try_solve(&mut net, &b, eps.min(0.5))
                .expect("a valid right-hand side");
            let err = solver.relative_error(&b, &solve.solution);
            assert!(err <= eps * 1.01, "eps {eps}: error {err}");
        }
    }

    #[test]
    fn iteration_count_grows_logarithmically_in_accuracy() {
        let g = generators::grid(3, 5);
        let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
        let b = random_rhs(g.n(), 2);
        let mut net = bcc_net(g.n());
        let coarse = solver
            .try_solve(&mut net, &b, 0.5)
            .expect("a valid right-hand side");
        let fine = solver
            .try_solve(&mut net, &b, 1e-8)
            .expect("a valid right-hand side");
        assert!(fine.iterations > coarse.iterations);
        // O(log(1/eps)): 1e-8 needs ~ 19/0.7 extra iterations over 0.5, i.e.
        // well under 10x.
        assert!(fine.iterations < 12 * coarse.iterations.max(1));
    }

    #[test]
    fn preprocessed_solver_works_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::random_connected(24, 0.4, 4, &mut rng);
        let cfg = SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 17)
            .with_t(8)
            .with_k(2);
        let mut net = bcc_net(g.n());
        let solver = LaplacianSolver::try_preprocess(&mut net, &g, &cfg)
            .expect("a connected graph on a matching network");
        assert!(solver.preprocessing_rounds() > 0);
        assert!(solver.sparsifier().is_connected());
        let b = random_rhs(g.n(), 4);
        let solve = solver
            .try_solve(&mut net, &b, 1e-4)
            .expect("a valid right-hand side");
        let err = solver.relative_error(&b, &solve.solution);
        assert!(err <= 1e-3, "error {err}");
        assert!(solve.rounds > 0);
    }

    #[test]
    fn a_graph_without_edges_is_its_own_sparsifier() {
        // Connected with no edges means at most one vertex. The sparsifier
        // still runs (and charges) on it, returns it unchanged, and κ is 3;
        // the certificate would read ε = ∞ on the zero Laplacian.
        for n in [0, 1] {
            let g = Graph::new(n);
            let cfg = SparsifierConfig::laboratory(n, 2, 0.5, 1);
            let mut net = bcc_net(n);
            let solver = LaplacianSolver::try_preprocess(&mut net, &g, &cfg)
                .expect("an edgeless connected graph");
            assert!(solver.preprocessing_rounds() > 0);
            assert!(solver.sparsifier() == &g);
            assert_eq!(solver.kappa(), 3.0);
            assert_eq!(solver.sparsifier_epsilon(), f64::INFINITY);
        }
    }

    #[test]
    fn solve_rounds_scale_with_log_accuracy_not_n() {
        let g = generators::complete(32);
        let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
        let b = random_rhs(g.n(), 5);
        let mut net = bcc_net(g.n());
        let before = net.ledger().total_rounds();
        let _ = solver
            .try_solve(&mut net, &b, 1e-4)
            .expect("a valid right-hand side");
        let rounds = net.ledger().total_rounds() - before;
        // Far below n (which a gather-everything approach would need m rounds for).
        assert!(rounds < 600, "rounds = {rounds}");
    }

    #[test]
    fn solution_is_mean_zero_and_matches_cg_baseline() {
        let g = generators::grid(4, 5);
        let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
        let b = random_rhs(g.n(), 6);
        let mut net = bcc_net(g.n());
        let solve = solver
            .try_solve(&mut net, &b, 1e-8)
            .expect("a valid right-hand side");
        assert!(solve.solution.iter().sum::<f64>().abs() < 1e-8);
        let cg = cg_baseline(&g, &b, 1e-10);
        assert!(cg.converged);
        assert!(vector::approx_eq(
            &solve.solution,
            &vector::remove_mean(&cg.solution),
            1e-4
        ));
    }

    #[test]
    fn exact_solve_satisfies_the_system() {
        let g = generators::cycle(7);
        let b = random_rhs(7, 7);
        let x = exact_solve(&g, &b);
        let lx = laplacian::laplacian_apply(&g, &x);
        assert!(vector::approx_eq(&lx, &b, 1e-7));
    }

    #[test]
    fn disconnected_graph_is_rejected() {
        let g = Graph::from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)]);
        assert_eq!(
            LaplacianSolver::try_exact_preconditioner(&g).unwrap_err(),
            LaplacianError::Disconnected
        );
    }

    #[test]
    fn epsilon_above_half_is_rejected() {
        let g = generators::cycle(5);
        let solver = LaplacianSolver::try_exact_preconditioner(&g).expect("a connected graph");
        let mut net = bcc_net(5);
        assert_eq!(
            solver.try_solve(&mut net, &[0.0; 5], 0.9).unwrap_err(),
            LaplacianError::InvalidEpsilon { epsilon: 0.9 }
        );
    }

    #[test]
    fn a_nan_right_hand_side_is_rejected_before_any_charge() {
        // `f64::max` drops NaN, so a range check built on it alone would
        // pass a NaN right-hand side on to an all-NaN "solution".
        let g = generators::grid(3, 3);
        let mut net = bcc_net(g.n());
        let solver = LaplacianSolver::try_preprocess(
            &mut net,
            &g,
            &SparsifierConfig::laboratory(g.n(), g.m(), 0.5, 7)
                .with_t(6)
                .with_k(2),
        )
        .expect("a connected graph");
        let mut b = random_rhs(g.n(), 3);
        b[4] = f64::NAN;
        let mut net = bcc_net(g.n());
        assert_eq!(
            solver.try_solve(&mut net, &b, 0.1).unwrap_err(),
            LaplacianError::MagnitudeOverflow
        );
        assert_eq!(net.ledger().total_rounds(), 0);

        // One NaN in lane 11 of 13: the second group of ten, so the check
        // must cover every group before the first lane is charged.
        let lanes = 13;
        let mut block = vec![0.0; g.n() * lanes];
        for lane in 0..lanes {
            for (i, v) in random_rhs(g.n(), 10 + lane as u64).into_iter().enumerate() {
                block[i * lanes + lane] = v;
            }
        }
        block[5 * lanes + 11] = f64::NAN;
        let (mut out, mut stats) = (Vec::new(), Vec::new());
        assert_eq!(
            solver
                .try_solve_block_into(
                    &mut net,
                    &block,
                    lanes,
                    0.1,
                    &mut ScratchArena::new(),
                    &mut out,
                    &mut stats,
                )
                .unwrap_err(),
            LaplacianError::MagnitudeOverflow
        );
        assert!(stats.is_empty());
        assert_eq!(net.ledger().total_rounds(), 0);

        // Finite input still solves.
        block[5 * lanes + 11] = 0.0;
        solver
            .try_solve_block_into(
                &mut net,
                &block,
                lanes,
                0.1,
                &mut ScratchArena::new(),
                &mut out,
                &mut stats,
            )
            .expect("a finite block");
        assert_eq!(stats.len(), lanes);
    }
}
