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
use bcc_sparsifier::{quality, sparsify_ad_hoc, SparsifierConfig, SparsifierOutput};

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

/// Statistics of an in-place solve ([`LaplacianSolver::try_solve_into`]);
/// the solution itself is written into the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplacianSolveStats {
    /// Chebyshev iterations performed.
    pub iterations: usize,
    /// Rounds charged for this instance (excluding preprocessing).
    pub rounds: u64,
}

/// Per-worker reusable solve state: the [`SolveScratch`] work vectors of the
/// Chebyshev iteration plus a right-hand-side staging buffer. A worker that
/// keeps one arena across requests performs zero heap allocations per warm
/// solve (buffers grow to the largest `n` seen and stay there until
/// [`ScratchArena::release`]).
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
    sparsifier: Graph,
    /// The preconditioner `(1 + 1/2)·L_H`, factored once at preprocessing
    /// time and solved internally by every vertex.
    factored: FactoredPsd,
    /// The condition number of the Chebyshev iteration, computed once at
    /// preprocessing time (for a sparsifier, the certificate behind it is an
    /// `O(n³)` eigensolve — far too expensive to repeat per request; for the
    /// exact preconditioner it is the constant 3).
    kappa: f64,
    preprocessing_rounds: u64,
    max_weight: f64,
}

/// Factors the Chebyshev preconditioner `(1 + 1/2)·L_H` of `sparsifier`.
fn factor_preconditioner(sparsifier: &Graph) -> FactoredPsd {
    let scaled = sparsifier.map_weights(|e| 1.5 * e.weight);
    DenseMatrix::from_rows(&laplacian::laplacian_dense(&scaled))
        .factor_psd()
        .expect(
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

impl LaplacianSolver {
    /// Runs the preprocessing stage: a `(1 ± 1/2)`-spectral sparsifier of
    /// `graph` computed with `config`, charged on `net`.
    ///
    /// # Errors
    ///
    /// * [`LaplacianError::Disconnected`] — the solver's error guarantee is
    ///   stated per connected component; callers should solve per component.
    /// * [`LaplacianError::NetworkSizeMismatch`] — `net` does not simulate one
    ///   processor per vertex.
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
        if !graph.is_connected() {
            return Err(LaplacianError::Disconnected);
        }
        let rounds_before = net.ledger().total_rounds();
        net.begin_phase("laplacian preprocessing");
        let SparsifierOutput { sparsifier, .. } = sparsify_ad_hoc(net, graph, config);
        let preprocessing_rounds = net.ledger().total_rounds() - rounds_before;
        Ok(LaplacianSolver {
            max_weight: graph.max_weight().max(1.0),
            kappa: kappa_of(graph, &sparsifier),
            factored: factor_preconditioner(&sparsifier),
            graph: graph.clone(),
            sparsifier,
            preprocessing_rounds,
        })
    }

    /// Builds a solver whose "sparsifier" is the graph itself (no
    /// preprocessing rounds). Useful as a baseline and in tests: it makes the
    /// Chebyshev condition number exactly 3 with a perfect preconditioner.
    ///
    /// κ is set to 3 without a certificate. Every generalized eigenvalue of
    /// the pencil `(L_G, L_G)` is 1, so `kappa_of(graph, graph)` could only
    /// return `max((1 + ε)/(1 − ε), 3) = 3` with `ε` the rounding error of
    /// the eigensolve; that holds, bit for bit, whenever the certificate
    /// reads `ε < 1/2`, which a seeded test pins on Gremban graphs with
    /// weights spanning `1e±12`. Near `1e±16` the certificate can read
    /// `ε ≈ 1` from rounding alone and would have inflated κ; the constant
    /// is the sound value there too.
    ///
    /// # Errors
    ///
    /// Returns [`LaplacianError::Disconnected`] for a disconnected graph.
    pub fn try_exact_preconditioner(graph: &Graph) -> Result<Self, LaplacianError> {
        if !graph.is_connected() {
            return Err(LaplacianError::Disconnected);
        }
        Ok(LaplacianSolver {
            max_weight: graph.max_weight().max(1.0),
            kappa: 3.0,
            factored: factor_preconditioner(graph),
            graph: graph.clone(),
            sparsifier: graph.clone(),
            preprocessing_rounds: 0,
        })
    }

    /// The sparsifier computed during preprocessing.
    pub fn sparsifier(&self) -> &Graph {
        &self.sparsifier
    }

    /// Rounds spent in preprocessing.
    pub fn preprocessing_rounds(&self) -> u64 {
        self.preprocessing_rounds
    }

    /// The spectral quality `ε` actually achieved by the preprocessing
    /// sparsifier (certificate, computed centrally; not charged).
    pub fn sparsifier_epsilon(&self) -> f64 {
        quality::achieved_epsilon(&self.graph, &self.sparsifier)
    }

    /// The relative condition number `κ` used by the Chebyshev iteration.
    /// With a `(1 ± ε_H)` sparsifier this is `(1 + ε_H)/(1 − ε_H)`, the value
    /// Corollary 2.4 instantiates with `ε_H = 1/2` as `κ = 3`; if the measured
    /// sparsifier quality is worse, the larger measured value is used so the
    /// iteration stays sound. Computed once at preprocessing time.
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
        if !(epsilon > 0.0 && epsilon <= 0.5) {
            return Err(LaplacianError::InvalidEpsilon { epsilon });
        }
        if b.len() != self.graph.n() {
            return Err(LaplacianError::DimensionMismatch {
                expected: self.graph.n(),
                actual: b.len(),
            });
        }
        Ok(self.solve_unchecked_into(net, b, epsilon, arena, out))
    }

    fn solve_unchecked_into(
        &self,
        net: &mut Network,
        b: &[f64],
        epsilon: f64,
        arena: &mut ScratchArena,
        out: &mut Vec<f64>,
    ) -> LaplacianSolveStats {
        let rounds_before = net.ledger().total_rounds();
        net.begin_phase("laplacian solve");

        let ScratchArena { scratch, rhs } = arena;
        rhs.clear();
        rhs.extend_from_slice(b);
        vector::remove_mean_in_place(rhs);
        let n = self.graph.n();
        // Bits per broadcast coordinate: O(log(n·U/ε)).
        let resolution = (epsilon / (n.max(2) as f64)).min(0.5);
        let magnitude = (vector::norm_inf(rhs) + 1.0) * (n as f64) * self.max_weight;
        let bits = u64::from(payload::bits_for_real(magnitude, resolution));

        let kappa = self.kappa();
        let iterations = chebyshev::chebyshev_iteration_count(kappa, epsilon);
        // Charge one coordinate broadcast per iteration (the L_G·vector
        // product); the preconditioner solve and vector updates are local.
        for _ in 0..iterations {
            net.share_scalars(bits);
        }

        let graph = &self.graph;
        let factored = &self.factored;
        chebyshev::preconditioned_chebyshev_fixed_with(
            |x, product| laplacian::laplacian_apply_into(graph, x, product),
            |r, z| factored.solve_into(r, z, true),
            kappa,
            rhs,
            iterations,
            scratch,
        );
        out.clear();
        out.extend_from_slice(&scratch.x);
        vector::remove_mean_in_place(out);
        LaplacianSolveStats {
            iterations,
            rounds: net.ledger().total_rounds() - rounds_before,
        }
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
    let l = DenseMatrix::from_rows(&laplacian::laplacian_dense(graph));
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
}
