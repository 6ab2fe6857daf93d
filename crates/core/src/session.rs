//! The `Session` pipeline API: typed, fallible, reusable entry points for the
//! paper's four theorems.
//!
//! A [`Session`] owns the execution environment — a [`ModelConfig`], a master
//! seed and a cumulative [`RoundReport`] — and serves requests:
//!
//! * [`Session::sparsify`] — Theorem 1.2 (Broadcast CONGEST);
//! * [`Session::laplacian`] — Theorem 1.3, split into a preprocessing stage
//!   ([`LaplacianRequest::preprocess`]) and arbitrarily many amortized solves
//!   ([`PreparedLaplacian::solve`], [`PreparedLaplacian::solve_many`]);
//! * [`Session::lp`] — Theorem 1.4;
//! * [`Session::min_cost_max_flow`] — Theorem 1.1.
//!
//! Every entry point validates its input and returns
//! `Result<Outcome<T>, Error>` — no panic is reachable from malformed input —
//! and every [`Outcome`] carries a structured [`RoundReport`] covering
//! exactly that request, so serving systems can meter communication cost by
//! summing outcome reports.
//!
//! [`GramChoice::Sdd`] routes the LP's inner solves through the
//! Gremban/Laplacian reduction, which requires `AᵀDA` to be symmetric
//! diagonally dominant (true for the flow LPs of Section 5). On an LP
//! without that structure the solve returns
//! `Error::Lp(LpError::GramSolve { .. })` — like every other malformed
//! input, a typed error rather than a panic — so [`GramChoice::Dense`]
//! remains the right default for general LPs.

use bcc_flow::{try_min_cost_max_flow_bcc, McmfOptions, McmfResult};
use bcc_graph::{FlowInstance, Graph};
use bcc_laplacian::{LaplacianSolve, LaplacianSolver, ScratchArena};
use bcc_lp::{try_lp_solve, DenseGramSolver, GramSolver, LpInstance, LpOptions, LpSolution};
use bcc_runtime::{ModelConfig, Network, RoundReport};
use bcc_sparsifier::{try_sparsify_ad_hoc, SparsifierConfig, SparsifierOutput};

use crate::error::Error;

/// The result of a pipeline request: the value plus the communication-cost
/// report of the run that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<T> {
    /// The computed result.
    pub value: T,
    /// Structured per-phase round accounting of the run.
    pub report: RoundReport,
}

impl<T> Outcome<T> {
    /// Maps the value, keeping the report.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        Outcome {
            value: f(self.value),
            report: self.report,
        }
    }
}

/// Builder of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    model: ModelConfig,
    seed: u64,
    epsilon: f64,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            model: ModelConfig::bcc(),
            seed: 2022,
            epsilon: 1e-6,
        }
    }
}

impl SessionBuilder {
    /// Sets the clique model configuration used by the Laplacian, LP and flow
    /// pipelines (default: the Broadcast Congested Clique).
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// Sets the master seed all pipelines derive their randomness from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the default solve accuracy `ε` (default `1e-6`).
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Session {
        Session {
            model: self.model,
            seed: self.seed,
            epsilon: self.epsilon,
            report: RoundReport::default(),
        }
    }
}

/// A reusable pipeline server for the paper's four theorems.
///
/// # Examples
///
/// ```
/// use bcc_core::Session;
///
/// let mut session = Session::builder().seed(42).build();
/// let graph = bcc_core::graph::generators::grid(4, 4);
///
/// // Theorem 1.3: preprocess once, solve many right-hand sides.
/// let mut prepared = session.laplacian(&graph).preprocess().unwrap();
/// let mut b = vec![0.0; graph.n()];
/// b[0] = 1.0;
/// b[15] = -1.0;
/// let solve = prepared.solve(&b).unwrap();
/// assert_eq!(solve.value.solution.len(), graph.n());
/// // The outcome's report covers this solve alone; the handle's cumulative
/// // report shows preprocessing charged exactly once underneath.
/// assert!(solve.report.has_phase("laplacian solve"));
/// assert!(prepared.preprocessing_report().total_rounds > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    model: ModelConfig,
    seed: u64,
    epsilon: f64,
    report: RoundReport,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Starts a builder with laboratory defaults (BCC model, seed 2022,
    /// `ε = 1e-6`).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A session with default configuration.
    pub fn new() -> Self {
        Session::default()
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The clique model configuration.
    pub fn model(&self) -> ModelConfig {
        self.model
    }

    /// The default solve accuracy.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Cumulative communication cost of every request this session served
    /// (prepared Laplacian handles contribute when they are
    /// [`PreparedLaplacian::finish`]ed back into the session).
    pub fn cumulative_report(&self) -> RoundReport {
        self.report.clone()
    }

    /// Adds the cost charged on `net` to this session and returns it.
    fn absorb(&mut self, net: &Network) -> RoundReport {
        let report = net.ledger().report().clone();
        self.report.add(&report);
        report
    }

    /// Merges an externally produced cost report into this session's
    /// cumulative report, phase by phase — the plumbing to account work a
    /// serving engine executed on worker sessions (e.g. a
    /// [`crate::stream::StreamReport`] total) against one serving session.
    pub fn absorb_report(&mut self, report: &RoundReport) {
        self.report.add(report);
    }

    // ------------------------------------------------------------------
    // Theorem 1.2 — spectral sparsification.
    // ------------------------------------------------------------------

    /// Computes a `(1 ± ε)`-spectral sparsifier of `graph` in the Broadcast
    /// CONGEST model (Theorem 1.2; the algorithm communicates over the edges
    /// of the input graph, so the model is fixed by the theorem).
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidEpsilon`] — `epsilon` is not positive and finite.
    /// * [`Error::Runtime`] — the graph's adjacency lists do not form a valid
    ///   topology.
    /// * [`Error::Sparsifier`] — the graph has no edges, or the
    ///   sparsifier's reweighting carries an edge weight past `f64::MAX`.
    pub fn sparsify(
        &mut self,
        graph: &Graph,
        epsilon: f64,
    ) -> Result<Outcome<SparsifierOutput>, Error> {
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(Error::InvalidEpsilon { epsilon });
        }
        let config = SparsifierConfig::laboratory(graph.n(), graph.m().max(2), epsilon, self.seed);
        let mut net = Network::on_graph(ModelConfig::broadcast_congest(), graph.adjacency_lists())?;
        let output = try_sparsify_ad_hoc(&mut net, graph, &config)?;
        let report = self.absorb(&net);
        Ok(Outcome {
            value: output,
            report,
        })
    }

    // ------------------------------------------------------------------
    // Theorem 1.3 — Laplacian solving.
    // ------------------------------------------------------------------

    /// Starts a Laplacian request on `graph` (Theorem 1.3). Returns a builder
    /// that preprocesses once and then serves arbitrarily many right-hand
    /// sides at `O(log(1/ε))` rounds each.
    pub fn laplacian<'a>(&self, graph: &'a Graph) -> LaplacianRequest<'a> {
        LaplacianRequest {
            graph,
            model: self.model,
            epsilon: self.laplacian_epsilon(),
            config: SparsifierConfig::laboratory(graph.n(), graph.m().max(2), 0.5, self.seed)
                .with_t(6)
                .with_k(2),
            exact_preconditioner: false,
        }
    }

    /// The accuracy a prepared Laplacian handle of this session solves at
    /// unless a solve names its own: the session's `ε`, at most `1/2`.
    pub(crate) fn laplacian_epsilon(&self) -> f64 {
        self.epsilon.min(0.5)
    }

    // ------------------------------------------------------------------
    // Theorem 1.4 — linear programming.
    // ------------------------------------------------------------------

    /// Solves `min { cᵀx : Aᵀx = b, l ≤ x ≤ u }` with the Lee–Sidford
    /// interior point method (Theorem 1.4).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Lp`] when the instance is malformed, the starting
    /// point is not strictly interior / not on the equality manifold, or the
    /// inner Gram oracle rejects a system ([`GramChoice::Sdd`] on an LP whose
    /// `AᵀDA` is not symmetric diagonally dominant).
    pub fn lp(
        &mut self,
        instance: &LpInstance,
        request: &LpRequest,
    ) -> Result<Outcome<LpSolution>, Error> {
        let mut net = Network::clique(self.model, instance.n().max(2));
        let gram = request.gram_solver();
        let solution = try_lp_solve(
            &mut net,
            instance,
            &request.x0,
            &request.options,
            gram.as_ref(),
        )?;
        let report = self.absorb(&net);
        Ok(Outcome {
            value: solution,
            report,
        })
    }

    // ------------------------------------------------------------------
    // Theorem 1.1 — minimum cost maximum flow.
    // ------------------------------------------------------------------

    /// Computes an exact minimum cost maximum flow (Theorem 1.1) with
    /// laboratory options derived from the session seed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Flow`] when the instance is empty, its LP encoding
    /// is rejected, or the LP's flow rounds to an infeasible one.
    pub fn min_cost_max_flow(
        &mut self,
        instance: &FlowInstance,
    ) -> Result<Outcome<McmfResult>, Error> {
        let options = McmfOptions {
            seed: self.seed,
            ..McmfOptions::default()
        };
        self.min_cost_max_flow_with(instance, &options)
    }

    /// [`Session::min_cost_max_flow`] with explicit [`McmfOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Flow`] when the instance is empty, its LP encoding
    /// is rejected, or the LP's flow rounds to an infeasible one.
    pub fn min_cost_max_flow_with(
        &mut self,
        instance: &FlowInstance,
        options: &McmfOptions,
    ) -> Result<Outcome<McmfResult>, Error> {
        let mut net = Network::clique(self.model, instance.graph.n());
        let result = try_min_cost_max_flow_bcc(&mut net, instance, options)?;
        let report = self.absorb(&net);
        Ok(Outcome {
            value: result,
            report,
        })
    }
}

/// How [`Session::lp`] solves the inner `(AᵀDA)⁻¹` systems.
#[derive(Debug, Clone)]
pub enum GramChoice {
    /// Centralized dense solves (every vertex knows `A`; free local
    /// computation, the laboratory default).
    Dense,
    /// The Gremban/Laplacian route of Lemma 5.1 at the given precision —
    /// requires `AᵀDA` to be symmetric diagonally dominant, as flow LPs are.
    Sdd {
        /// Relative accuracy of each SDD solve.
        precision: f64,
    },
}

/// Parameters of one [`Session::lp`] request.
#[derive(Debug, Clone)]
pub struct LpRequest {
    /// Strictly interior starting point with `Aᵀx₀ = b`.
    pub x0: Vec<f64>,
    /// Interior-point options (accuracy, weight strategy, path tuning).
    pub options: LpOptions,
    /// Inner linear-system solver.
    pub gram: GramChoice,
}

impl LpRequest {
    /// A request from a starting point and options, solving Gram systems
    /// centrally (the laboratory default).
    pub fn new(x0: Vec<f64>, options: LpOptions) -> Self {
        LpRequest {
            x0,
            options,
            gram: GramChoice::Dense,
        }
    }

    /// Routes the inner Gram solves through the Gremban/Laplacian reduction
    /// (Lemma 5.1).
    pub fn with_sdd_gram(mut self, precision: f64) -> Self {
        self.gram = GramChoice::Sdd { precision };
        self
    }

    fn gram_solver(&self) -> Box<dyn GramSolver> {
        match self.gram {
            GramChoice::Dense => Box::new(DenseGramSolver::new()),
            GramChoice::Sdd { precision } => Box::new(bcc_flow::SddGramSolver::new(precision)),
        }
    }
}

/// A Laplacian request being configured (Theorem 1.3). Created by
/// [`Session::laplacian`]; finish with [`LaplacianRequest::preprocess`].
#[derive(Debug, Clone)]
pub struct LaplacianRequest<'a> {
    graph: &'a Graph,
    model: ModelConfig,
    epsilon: f64,
    config: SparsifierConfig,
    exact_preconditioner: bool,
}

impl LaplacianRequest<'_> {
    /// Sets the per-solve accuracy `ε ∈ (0, 1/2]`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the preprocessing sparsifier parameters.
    pub fn config(mut self, config: SparsifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Skips sparsifier preprocessing and preconditions with the graph's own
    /// Laplacian (zero preprocessing rounds; baseline/testing mode).
    pub fn exact_preconditioner(mut self) -> Self {
        self.exact_preconditioner = true;
        self
    }

    /// Runs the preprocessing stage (a `(1 ± 1/2)`-spectral sparsifier every
    /// vertex learns in full) and returns the reusable solver handle. The
    /// preprocessing rounds are charged exactly once, no matter how many
    /// right-hand sides are solved afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Laplacian`] when the graph is disconnected.
    pub fn preprocess(self) -> Result<PreparedLaplacian, Error> {
        let mut net = Network::clique(self.model, self.graph.n());
        let solver = if self.exact_preconditioner {
            LaplacianSolver::try_exact_preconditioner(self.graph)?
        } else {
            LaplacianSolver::try_preprocess(&mut net, self.graph, &self.config)?
        };
        let preprocessing = net.ledger().report().clone();
        Ok(PreparedLaplacian {
            solver,
            model: self.model,
            report: preprocessing.clone(),
            preprocessing,
            epsilon: self.epsilon,
            solves: 0,
        })
    }
}

/// A preprocessed Laplacian solver (Theorem 1.3): one sparsifier, many
/// right-hand sides. Every solve runs on a fresh network and adds its cost
/// to the handle, so [`PreparedLaplacian::report`] shows the preprocessing
/// phases charged exactly once with per-solve rounds accumulating on top —
/// the amortization the theorem separates.
#[derive(Debug, Clone)]
pub struct PreparedLaplacian {
    solver: LaplacianSolver,
    model: ModelConfig,
    preprocessing: RoundReport,
    /// Preprocessing plus every solve so far.
    report: RoundReport,
    epsilon: f64,
    solves: u64,
}

impl PreparedLaplacian {
    /// Solves `L_G x = b` at the request's accuracy.
    ///
    /// The returned [`Outcome::report`] covers **this solve alone** (like
    /// every other `Session` outcome, so per-request metering sums cleanly);
    /// preprocessing lives in [`PreparedLaplacian::preprocessing_report`] and
    /// the cumulative [`PreparedLaplacian::report`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Laplacian`] when `b` has the wrong length or the
    /// accuracy is invalid.
    pub fn solve(&mut self, b: &[f64]) -> Result<Outcome<LaplacianSolve>, Error> {
        let epsilon = self.epsilon;
        self.solve_with_epsilon(b, epsilon)
    }

    /// Solves `L_G x = b` at an explicit accuracy `ε ∈ (0, 1/2]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Laplacian`] when `b` has the wrong length or the
    /// accuracy is invalid.
    pub fn solve_with_epsilon(
        &mut self,
        b: &[f64],
        epsilon: f64,
    ) -> Result<Outcome<LaplacianSolve>, Error> {
        let outcome = self.solve_shared(b, Some(epsilon), &mut ScratchArena::new())?;
        self.report.add(&outcome.report);
        self.solves += 1;
        Ok(outcome)
    }

    /// Solves one system per right-hand side, reusing the preprocessing
    /// across the whole batch (the key amortization for repeated traffic on a
    /// fixed graph) and solving the right-hand sides in lockstep
    /// ([`PreparedLaplacian::solve_lockstep`]). Each solve is bit-identical to
    /// its own [`PreparedLaplacian::solve`]. The returned [`Outcome::report`]
    /// covers the batch's solves alone; the cumulative
    /// [`PreparedLaplacian::report`] shows the preprocessing phases charged
    /// exactly once underneath them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Laplacian`] on the first malformed right-hand side;
    /// solves before it remain charged on [`PreparedLaplacian::report`].
    pub fn solve_many(
        &mut self,
        rhs_batch: &[Vec<f64>],
    ) -> Result<Outcome<Vec<LaplacianSolve>>, Error> {
        let mut report = RoundReport::default();
        let mut solutions = Vec::with_capacity(rhs_batch.len());
        for outcome in self.solve_lockstep(rhs_batch, None, &mut ScratchArena::new()) {
            let outcome = outcome?;
            self.report.add(&outcome.report);
            self.solves += 1;
            report.add(&outcome.report);
            solutions.push(outcome.value);
        }
        Ok(Outcome {
            report,
            value: solutions,
        })
    }

    /// Solves `L_G x = b` **without mutating this handle**: the solve runs on
    /// a fresh per-request network, as [`PreparedLaplacian::solve`]'s does,
    /// but its cost is not added to the handle, and it reuses the caller's
    /// [`ScratchArena`] work vectors. Many workers can serve solves from one
    /// shared prepared handle without cloning the preprocessing state per
    /// request. The one-lane case of [`PreparedLaplacian::solve_lockstep`].
    ///
    /// `epsilon` of `None` uses the request's configured accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Laplacian`] when `b` has the wrong length or the
    /// accuracy is invalid.
    pub fn solve_shared(
        &self,
        b: &[f64],
        epsilon: Option<f64>,
        arena: &mut ScratchArena,
    ) -> Result<Outcome<LaplacianSolve>, Error> {
        self.solve_lockstep(&[b], epsilon, arena)
            .pop()
            .expect("one result per right-hand side")
    }

    /// Solves one system per right-hand side in lockstep, **without mutating
    /// this handle** — the engines' hot path, where every request queued on
    /// one graph at one accuracy is solved as one block. Result `j` is
    /// exactly what [`PreparedLaplacian::solve_shared`] returns for `rhs[j]`
    /// alone, solution bits, iterations and report alike: each right-hand
    /// side is charged on its own fresh per-request network. A malformed
    /// right-hand side gets its own typed error and leaves the block,
    /// so it fails no other.
    ///
    /// `epsilon` of `None` uses the request's configured accuracy.
    pub fn solve_lockstep<B: AsRef<[f64]>>(
        &self,
        rhs: &[B],
        epsilon: Option<f64>,
        arena: &mut ScratchArena,
    ) -> Vec<Result<Outcome<LaplacianSolve>, Error>> {
        let (solver, epsilon) = (&self.solver, epsilon.unwrap_or(self.epsilon));
        let n = solver.sparsifier().n();
        let checked: Vec<_> = rhs
            .iter()
            .map(|b| solver.check_rhs(b.as_ref(), epsilon))
            .collect();
        // The accepted right-hand sides as one block: entry i of lane j at
        // i·lanes + j.
        let accepted: Vec<&[f64]> = rhs
            .iter()
            .zip(&checked)
            .filter(|(_, checked)| checked.is_ok())
            .map(|(b, _)| b.as_ref())
            .collect();
        let lanes = accepted.len();
        let mut block = vec![0.0; n * lanes];
        for (j, b) in accepted.iter().enumerate() {
            for (i, &v) in b.iter().enumerate() {
                block[i * lanes + j] = v;
            }
        }
        let mut nets: Vec<Network> = (0..lanes).map(|_| Network::clique(self.model, n)).collect();
        let (mut out, mut stats) = (Vec::new(), Vec::new());
        let solved = if lanes == 0 {
            Ok(())
        } else {
            solver.try_solve_block_into(
                nets.as_mut_slice(),
                &block,
                lanes,
                epsilon,
                arena,
                &mut out,
                &mut stats,
            )
        };
        let mut lane = 0..lanes;
        checked
            .into_iter()
            .map(|checked| {
                checked?;
                let j = lane.next().expect("one lane per accepted right-hand side");
                solved.clone()?;
                Ok(Outcome {
                    report: nets[j].ledger().report().clone(),
                    value: LaplacianSolve {
                        solution: out.iter().skip(j).step_by(lanes).copied().collect(),
                        iterations: stats[j].iterations,
                        rounds: stats[j].rounds,
                    },
                })
            })
            .collect()
    }

    /// The underlying solver state (sparsifier, κ, certificates).
    pub fn solver(&self) -> &LaplacianSolver {
        &self.solver
    }

    /// Number of right-hand sides solved so far.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Cumulative report of this handle: preprocessing charged once plus all
    /// solves so far.
    pub fn report(&self) -> &RoundReport {
        &self.report
    }

    /// Snapshot of the cost of the preprocessing stage alone, charged exactly
    /// once no matter how many solves follow.
    pub fn preprocessing_report(&self) -> &RoundReport {
        &self.preprocessing
    }

    /// Merges this handle's communication cost into `session`'s cumulative
    /// report and returns the handle's final report.
    pub fn finish(self, session: &mut Session) -> RoundReport {
        session.absorb_report(&self.report);
        self.report
    }
}
