//! Fault-tolerant solving: health-guarded solver runs plus a fallback
//! ladder.
//!
//! The plain solvers in [`crate::solver`] assume well-posed inputs and
//! well-behaved parameters. Production traces are messier: predictors
//! occasionally emit `NaN` execution times, barrier parameters get tuned
//! to the edge of numerical validity, and a diverging run silently
//! poisons everything downstream. [`RobustSolver`] wraps the existing
//! solvers with per-iterate health checks (finiteness, objective
//! divergence, stall and wall-clock budgets) and, on failure, walks a
//! configurable ladder of progressively more conservative methods:
//!
//! 1. the configured first-order solver with the caller's parameters
//!    ([`FallbackStage::Primary`]),
//! 2. the same solver with backed-off relaxation parameters — smaller
//!    smooth-max `β`, larger entropy `ρ`, softer barrier `ε`
//!    ([`FallbackStage::BackedOff`]),
//! 3. damped Newton on the barrier problem, skipped outside the convex
//!    sequential setting ([`FallbackStage::Newton`]),
//! 4. Euclidean PGD with conservative parameters
//!    ([`FallbackStage::EuclideanPgd`]),
//! 5. feasible greedy rounding — LPT assignment plus reliability and
//!    capacity repair, which always produces a 0/1 column-stochastic
//!    matching ([`FallbackStage::GreedyRounding`]).
//!
//! Every attempt is recorded in [`SolveDiagnostics`] so callers can see
//! the recovery path taken instead of just a final answer.
//!
//! [`RobustSolver::solve_cached`] additionally runs one seeded primary
//! attempt ahead of the cold ladder — from the caller's seed, a
//! [`crate::cache::WarmStartCache`] hit, or a repaired learned-dual
//! prediction — whose failure falls through to the exact cold path, so
//! a [`Seed`] can change only speed, never the answer.

use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::budget::Budget;
use crate::cache::{fingerprint, CacheOutcome, WarmStartCache, WarmStartEntry};
use crate::kkt::KktWorkspace;
use crate::learned::{predict_repaired, DualPredictor, RepairError};
use crate::objective::{self, BarrierKind, RelaxationParams};
use crate::problem::{Assignment, MatchingProblem};
use crate::seed::{Seed, SeedKind};
use crate::solver::{
    is_column_stochastic, solve_relaxed_from_guarded, solve_relaxed_newton_guarded, NewtonOptions,
    PgdWorkspace, ProjectionKind, RelaxedSolution, SolverOptions,
};
use mfcp_linalg::Matrix;

/// A rung of the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackStage {
    /// The configured first-order solver with the caller's parameters.
    Primary,
    /// The primary solver re-run with backed-off relaxation parameters.
    BackedOff,
    /// Damped Newton on the barrier problem (convex setting only).
    Newton,
    /// Euclidean-projection PGD with conservative parameters.
    EuclideanPgd,
    /// Greedy LPT rounding plus reliability/capacity repair.
    GreedyRounding,
}

impl FallbackStage {
    /// Every rung in declaration order, which is also the default ladder
    /// order.
    pub(crate) const ALL: [FallbackStage; 5] = [
        FallbackStage::Primary,
        FallbackStage::BackedOff,
        FallbackStage::Newton,
        FallbackStage::EuclideanPgd,
        FallbackStage::GreedyRounding,
    ];
}

impl fmt::Display for FallbackStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FallbackStage::Primary => "primary",
            FallbackStage::BackedOff => "backoff",
            FallbackStage::Newton => "newton",
            FallbackStage::EuclideanPgd => "euclidean-pgd",
            FallbackStage::GreedyRounding => "greedy-rounding",
        };
        f.write_str(name)
    }
}

/// Typed failure modes surfaced by [`RobustSolver`] instead of panics or
/// silent `NaN` propagation.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// The problem data or relaxation parameters failed validation.
    InvalidInput(String),
    /// An iterate or its objective became `NaN`/`±∞`.
    NonFinite {
        /// Stage that produced the non-finite value.
        stage: FallbackStage,
        /// Iteration at which it was detected.
        iteration: usize,
    },
    /// The objective rose far above the best value seen in this stage.
    Diverged {
        /// Diverging stage.
        stage: FallbackStage,
        /// Iteration at which divergence was detected.
        iteration: usize,
        /// Objective value at detection.
        objective: f64,
        /// Best objective seen before divergence.
        reference: f64,
    },
    /// No measurable objective improvement for the configured window
    /// while the step-change tolerance was still unmet.
    Stalled {
        /// Stalled stage.
        stage: FallbackStage,
        /// Iteration at which the stall was declared.
        iteration: usize,
    },
    /// The caller's per-request [`Budget`] expired mid-stage: its
    /// deadline passed or its cancel token fired. Unlike
    /// [`SolveError::WallBudget`] (the solver's own safety limit), this
    /// is the *request's* latency contract; the ladder responds by
    /// skipping straight to the greedy rung.
    DeadlineExceeded {
        /// Stage that was running when the budget expired.
        stage: FallbackStage,
        /// Iteration at which the expiry was observed.
        iteration: usize,
    },
    /// The shared wall-clock budget ran out mid-stage.
    WallBudget {
        /// Stage that exceeded the budget.
        stage: FallbackStage,
        /// Iteration at which the budget check fired.
        iteration: usize,
        /// Elapsed seconds since the solve started.
        elapsed_secs: f64,
    },
    /// The Newton KKT system was singular.
    SingularKkt {
        /// Stage running the Newton iteration.
        stage: FallbackStage,
        /// Iteration whose factorization failed.
        iteration: usize,
    },
    /// A stage returned an iterate whose columns left the simplex.
    OffSimplex {
        /// Offending stage.
        stage: FallbackStage,
    },
    /// Every zeroth-order perturbation sample produced a non-finite
    /// directional derivative (see
    /// [`crate::zeroth::estimate_gradient_checked`]).
    AllSamplesNonFinite {
        /// Number of samples attempted.
        samples: usize,
    },
    /// Every rung of the ladder failed; diagnostics record each attempt.
    Exhausted {
        /// Full per-stage record of the failed solve.
        diagnostics: Box<SolveDiagnostics>,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidInput(reason) => write!(f, "invalid input: {reason}"),
            SolveError::NonFinite { stage, iteration } => {
                write!(f, "{stage}: non-finite iterate at iteration {iteration}")
            }
            SolveError::Diverged {
                stage,
                iteration,
                objective,
                reference,
            } => write!(
                f,
                "{stage}: objective diverged at iteration {iteration} ({objective} vs best {reference})"
            ),
            SolveError::Stalled { stage, iteration } => {
                write!(f, "{stage}: stalled without progress at iteration {iteration}")
            }
            SolveError::DeadlineExceeded { stage, iteration } => {
                write!(
                    f,
                    "{stage}: request budget expired at iteration {iteration}"
                )
            }
            SolveError::WallBudget {
                stage,
                iteration,
                elapsed_secs,
            } => write!(
                f,
                "{stage}: wall-clock budget exhausted at iteration {iteration} after {elapsed_secs:.3}s"
            ),
            SolveError::SingularKkt { stage, iteration } => {
                write!(f, "{stage}: singular KKT system at iteration {iteration}")
            }
            SolveError::OffSimplex { stage } => {
                write!(f, "{stage}: result columns left the probability simplex")
            }
            SolveError::AllSamplesNonFinite { samples } => {
                write!(
                    f,
                    "all {samples} zeroth-order samples gave non-finite directional derivatives"
                )
            }
            SolveError::Exhausted { diagnostics } => {
                write!(f, "all fallback stages failed: {}", diagnostics.path())
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Per-iterate health thresholds applied by [`RobustSolver`].
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Objective-based checks run every this many iterations (finiteness
    /// of the iterate itself is checked on every iteration).
    pub check_every: usize,
    /// Declare divergence when the objective exceeds
    /// `best + slack + ratio·|best|`.
    pub divergence_ratio: f64,
    /// Additive part of the divergence threshold.
    pub divergence_slack: f64,
    /// Declare a stall after this many consecutive objective checks
    /// without relative improvement beyond [`HealthPolicy::stall_tol`].
    pub stall_checks: usize,
    /// Relative improvement below which a check counts as stalled.
    pub stall_tol: f64,
    /// Stall checks only count while the solver's step magnitude exceeds
    /// this floor — an iterate crawling toward its step-change tolerance
    /// is converging, not stalled; large steps with no objective
    /// improvement are an oscillation.
    pub stall_step_floor: f64,
    /// Shared wall-clock budget for the whole ladder; `None` disables
    /// the budget. Greedy rounding always runs regardless.
    pub wall_limit: Option<Duration>,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            check_every: 10,
            divergence_ratio: 5.0,
            divergence_slack: 5.0,
            stall_checks: 25,
            stall_tol: 1e-12,
            stall_step_floor: 1e-4,
            wall_limit: Some(Duration::from_secs(30)),
        }
    }
}

/// Parameter back-off schedule used by [`FallbackStage::BackedOff`] and,
/// at full strength, by the conservative fallback rungs.
#[derive(Debug, Clone, Copy)]
pub struct BackoffSchedule {
    /// Number of backed-off retries before moving down the ladder.
    pub retries: usize,
    /// Multiplicative shrink applied to the smooth-max sharpness `β`
    /// per retry.
    pub beta_factor: f64,
    /// Lower clamp for the backed-off `β`.
    pub beta_floor: f64,
    /// Multiplicative growth applied to the entropy weight `ρ` per
    /// retry (a larger `ρ` keeps the KKT system better conditioned).
    pub rho_factor: f64,
    /// `ρ` is raised to at least this value before growing.
    pub rho_floor: f64,
    /// Multiplicative growth applied to the log-barrier cutoff `ε` per
    /// retry (a softer barrier keeps gradients finite near the
    /// constraint boundary).
    pub eps_factor: f64,
    /// `ε` is raised to at least this value before growing.
    pub eps_floor: f64,
}

impl Default for BackoffSchedule {
    fn default() -> Self {
        BackoffSchedule {
            retries: 2,
            beta_factor: 0.5,
            beta_floor: 0.5,
            rho_factor: 4.0,
            rho_floor: 1e-3,
            eps_factor: 10.0,
            eps_floor: 1e-4,
        }
    }
}

impl BackoffSchedule {
    /// Relaxation parameters after `level` rounds of back-off
    /// (`level = 0` returns `params` unchanged).
    pub fn backed_off(&self, params: &RelaxationParams, level: usize) -> RelaxationParams {
        let mut out = *params;
        for _ in 0..level {
            out.beta = (out.beta * self.beta_factor).max(self.beta_floor);
            out.rho = out.rho.max(self.rho_floor) * self.rho_factor;
            if let BarrierKind::Log { eps } = out.barrier {
                let softened = (eps.max(self.eps_floor) * self.eps_factor).min(0.1);
                out.barrier = BarrierKind::Log { eps: softened };
            }
        }
        out
    }
}

/// Why the ladder skipped a rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The caller's per-request [`Budget`] had expired.
    RequestBudget,
    /// The ladder's own wall-clock limit
    /// ([`HealthPolicy::wall_limit`]) was spent.
    WallBudget,
    /// Newton needs the convex sequential setting; the problem has
    /// parallel speedup curves.
    NonConvex,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SkipReason::RequestBudget => "request budget expired",
            SkipReason::WallBudget => "wall-clock budget exhausted",
            SkipReason::NonConvex => {
                "parallel speedup curves: Newton needs the convex sequential setting"
            }
        })
    }
}

/// How a single ladder attempt ended.
#[derive(Debug, Clone)]
pub enum StageOutcome {
    /// The stage produced a healthy solution.
    Success,
    /// The stage aborted with a typed error.
    Failed(SolveError),
    /// The stage was not applicable and was skipped.
    Skipped(SkipReason),
}

impl StageOutcome {
    /// Counter-name suffixes, indexed by [`StageOutcome::index`].
    const LABELS: [&'static str; 3] = ["ok", "failed", "skipped"];

    fn index(&self) -> usize {
        match self {
            StageOutcome::Success => 0,
            StageOutcome::Failed(_) => 1,
            StageOutcome::Skipped(_) => 2,
        }
    }
}

/// Record of one attempt at one rung of the ladder.
#[derive(Debug, Clone)]
pub struct StageAttempt {
    /// The rung attempted.
    pub stage: FallbackStage,
    /// Retry index within the rung (only [`FallbackStage::BackedOff`]
    /// retries; every other rung uses `0`).
    pub retry: usize,
    /// Iterations the underlying solver performed.
    pub iterations: usize,
    /// Whether the underlying solver reported convergence.
    pub converged: bool,
    /// Final objective of the attempt, when one was computed.
    pub objective: Option<f64>,
    /// Wall-clock seconds spent in this attempt.
    pub elapsed_secs: f64,
    /// The kind of [`Seed`] the attempt started from; `None` for the
    /// uniform simplex point.
    pub seed: Option<SeedKind>,
    /// Outcome of the attempt.
    pub outcome: StageOutcome,
}

/// How a learned-dual prediction fared during one
/// [`RobustSolver::solve_cached`] call — the typed recovery
/// event for a bad model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionOutcome {
    /// The repaired prediction seeded the successful first attempt.
    Seeded,
    /// The raw prediction failed [`crate::learned::repair`] and never
    /// reached the solver; the cold ladder ran.
    Rejected(RepairError),
    /// The repaired prediction seeded an attempt that failed; the
    /// ladder fell through to the cold path (cost: exactly one rung).
    FellBack,
}

impl fmt::Display for PredictionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictionOutcome::Seeded => f.write_str("seeded"),
            PredictionOutcome::Rejected(err) => write!(f, "rejected ({err})"),
            PredictionOutcome::FellBack => f.write_str("fell-back"),
        }
    }
}

/// Diagnostics for a whole [`RobustSolver::solve`] call: every attempt in
/// order, whether recovery was needed, and total wall time.
#[derive(Debug, Clone)]
pub struct SolveDiagnostics {
    /// Every stage attempt, in execution order.
    pub attempts: Vec<StageAttempt>,
    /// True when at least one attempt failed before a later one
    /// succeeded (i.e. the ladder actually recovered something).
    pub recovered: bool,
    /// Total wall-clock seconds across all attempts.
    pub total_secs: f64,
    /// Warm-start cache outcome for this solve; `None` for plain
    /// [`RobustSolver::solve`] calls that never consulted a cache.
    pub cache: Option<CacheOutcome>,
    /// What happened to the learned-dual prediction, when a predictor
    /// was consulted and produced one; `None` when no prediction was
    /// attempted (no predictor, predictor abstained, or a cache hit
    /// pre-empted it).
    pub prediction: Option<PredictionOutcome>,
    /// Structured KKT factorizations performed during this solve (the
    /// Newton rung is currently the only in-solve KKT consumer).
    pub kkt_structured: u64,
    /// KKT factorizations that fell back to the dense LU path during
    /// this solve (non-positive `ρ`, near-active log barrier, or a
    /// structured factorization error).
    pub kkt_dense_fallbacks: u64,
}

impl SolveDiagnostics {
    /// Human-readable recovery path, e.g.
    /// `"primary x(non-finite) -> backoff#1 ok"`.
    pub fn path(&self) -> String {
        let mut parts = Vec::with_capacity(self.attempts.len());
        for a in &self.attempts {
            let mut label = if a.stage == FallbackStage::BackedOff {
                format!("{}#{}", a.stage, a.retry)
            } else {
                a.stage.to_string()
            };
            if let Some(kind) = a.seed {
                let prefix = match kind {
                    SeedKind::Cached => "warm",
                    SeedKind::Carried => "carried",
                    SeedKind::Predicted => "pred",
                };
                label = format!("{prefix}-{label}");
            }
            let mark = match &a.outcome {
                StageOutcome::Failed(err) => format!("x({})", short_reason(err)),
                other => StageOutcome::LABELS[other.index()].to_string(),
            };
            parts.push(format!("{label} {mark}"));
        }
        parts.join(" -> ")
    }

    /// Number of attempts that ended in [`StageOutcome::Failed`].
    pub fn failures(&self) -> usize {
        self.attempts
            .iter()
            .filter(|a| matches!(a.outcome, StageOutcome::Failed(_)))
            .count()
    }
}

fn short_reason(err: &SolveError) -> &'static str {
    match err {
        SolveError::InvalidInput(_) => "invalid-input",
        SolveError::NonFinite { .. } => "non-finite",
        SolveError::Diverged { .. } => "diverged",
        SolveError::Stalled { .. } => "stalled",
        SolveError::DeadlineExceeded { .. } => "deadline",
        SolveError::WallBudget { .. } => "wall-budget",
        SolveError::SingularKkt { .. } => "singular-kkt",
        SolveError::OffSimplex { .. } => "off-simplex",
        SolveError::AllSamplesNonFinite { .. } => "non-finite-samples",
        SolveError::Exhausted { .. } => "exhausted",
    }
}

/// A successful robust solve: the matching plus how it was obtained.
#[derive(Debug, Clone)]
pub struct RobustSolution {
    /// Column-stochastic matching (fractional, or 0/1 from the greedy
    /// rung).
    pub x: Matrix,
    /// Objective value of `x` (for the greedy rung, evaluated under the
    /// conservative backed-off parameters so it stays finite even when
    /// the caller's parameters are degenerate).
    pub objective: f64,
    /// The rung that produced the result.
    pub stage: FallbackStage,
    /// Discrete assignment, present when the greedy rung produced the
    /// result.
    pub assignment: Option<Assignment>,
    /// Full record of the recovery path.
    pub diagnostics: SolveDiagnostics,
}

/// The default rung order: primary, backed-off retries, Newton, Euclidean
/// PGD, greedy rounding.
pub fn default_ladder() -> Vec<FallbackStage> {
    FallbackStage::ALL.to_vec()
}

/// Fault-tolerant wrapper around the relaxed-matching solvers.
///
/// ```
/// use mfcp_linalg::Matrix;
/// use mfcp_optim::recovery::RobustSolver;
/// use mfcp_optim::{MatchingProblem, RelaxationParams};
///
/// let times = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
/// let rel = Matrix::filled(2, 2, 0.9);
/// let problem = MatchingProblem::new(times, rel, 0.8);
/// let sol = RobustSolver::new(RelaxationParams::default())
///     .solve(&problem)
///     .expect("healthy instance solves");
/// assert!(sol.objective.is_finite());
/// assert!(!sol.diagnostics.recovered);
/// ```
#[derive(Debug, Clone)]
pub struct RobustSolver {
    /// Relaxation parameters for the primary attempt.
    pub params: RelaxationParams,
    /// First-order solver options (projection kind, step size, budget).
    pub solver_opts: SolverOptions,
    /// Newton options for the [`FallbackStage::Newton`] rung.
    pub newton_opts: NewtonOptions,
    /// Health thresholds applied to every guarded stage.
    pub policy: HealthPolicy,
    /// Parameter back-off schedule.
    pub backoff: BackoffSchedule,
    /// Rung order; defaults to [`default_ladder`].
    pub ladder: Vec<FallbackStage>,
    /// Per-request solve budget (deadline and/or cancel token); defaults
    /// to [`Budget::unlimited`]. When the budget expires mid-solve the
    /// running stage aborts with [`SolveError::DeadlineExceeded`] and
    /// every remaining rung except greedy rounding is skipped, so an
    /// over-budget request still gets a feasible answer with bounded
    /// extra latency.
    pub budget: Budget,
}

impl RobustSolver {
    /// A robust solver with default options around `params`.
    pub fn new(params: RelaxationParams) -> Self {
        RobustSolver {
            params,
            solver_opts: SolverOptions::default(),
            newton_opts: NewtonOptions::default(),
            policy: HealthPolicy::default(),
            backoff: BackoffSchedule::default(),
            ladder: default_ladder(),
            budget: Budget::unlimited(),
        }
    }

    /// Returns a copy of this solver carrying `budget` (builder-style,
    /// for per-request daemons that share one configured solver).
    pub fn with_budget(&self, budget: Budget) -> Self {
        let mut solver = self.clone();
        solver.budget = budget;
        solver
    }

    /// The conservative parameters used by the fallback rungs (full
    /// back-off applied to the caller's parameters).
    pub fn safe_params(&self) -> RelaxationParams {
        self.backoff
            .backed_off(&self.params, self.backoff.retries.max(1))
    }

    /// Solves `problem`, walking the fallback ladder on failure.
    ///
    /// Returns the first healthy solution together with the full
    /// per-stage diagnostics, [`SolveError::InvalidInput`] when the
    /// problem data or parameters are malformed, or
    /// [`SolveError::Exhausted`] when every configured rung failed.
    pub fn solve(&self, problem: &MatchingProblem) -> Result<RobustSolution, SolveError> {
        let mut kkt_ws = KktWorkspace::default();
        self.solve_inner(problem, None, &mut kkt_ws)
    }

    /// Solves `problem` through `cache`, running one seeded primary
    /// attempt ahead of the cold ladder when a seed is available.
    ///
    /// Seed precedence is resolved here and nowhere else: the caller's
    /// `seed` (which skips the cache lookup, leaving
    /// [`SolveDiagnostics::cache`] `None`), then a valid cache entry under
    /// the problem's [`fingerprint`], then a `predictor` output that
    /// survives [`crate::learned::repair`] (a rejected one never reaches
    /// the solver), then the uniform point.
    ///
    /// A failed seeded attempt costs one rung and is booked by kind: a
    /// cached entry is evicted ([`CacheOutcome::Stale`]), a prediction is
    /// recorded as [`PredictionOutcome::FellBack`], and a carried seed
    /// leaves the cache alone. A successful predicted solve reports
    /// [`CacheOutcome::Predicted`]. Successful non-greedy solves store
    /// their optimum under the fingerprint.
    pub fn solve_cached(
        &self,
        problem: &MatchingProblem,
        cache: &mut WarmStartCache,
        mut seed: Option<Seed>,
        predictor: Option<&dyn DualPredictor>,
    ) -> Result<RobustSolution, SolveError> {
        validate_problem(problem)?;
        validate_params(&self.params)?;
        let (m, n) = (problem.clusters(), problem.tasks());
        let key = fingerprint(problem, &self.params);
        let mut outcome = None;
        let mut prediction = None;
        if seed.is_none() {
            let (found, hit) = cache.lookup(key, m, n);
            outcome = Some(found);
            seed = hit.map(|x| Seed {
                x,
                kind: SeedKind::Cached,
            });
        }
        if seed.is_none() {
            match predictor.and_then(|p| predict_repaired(p, problem, &self.params)) {
                Some(Ok(x)) => {
                    prediction = Some(PredictionOutcome::Seeded);
                    seed = Some(Seed {
                        x,
                        kind: SeedKind::Predicted,
                    });
                }
                Some(Err(err)) => {
                    mfcp_obs::trace::instant("learned.rejected", Some(key));
                    prediction = Some(PredictionOutcome::Rejected(err));
                }
                None => {}
            }
        }
        // Reuse the previous solve's factorization buffers for this
        // fingerprint, when the entry carries them.
        let mut kkt_ws = cache.take_kkt_workspace(key).unwrap_or_default();
        let mut result = self.solve_inner(problem, seed, &mut kkt_ws);
        let diagnostics = match &mut result {
            Ok(sol) => &mut sol.diagnostics,
            Err(SolveError::Exhausted { diagnostics }) => &mut **diagnostics,
            Err(_) => return result,
        };
        // The seeded attempt's kind and success, when it ran: a
        // budget-skipped or absent primary rung never runs it.
        let seeded = diagnostics.attempts.first().and_then(|a| {
            let ok = matches!(a.outcome, StageOutcome::Success);
            Some((a.seed?, ok))
        });
        match seeded {
            Some((SeedKind::Cached, false)) => {
                cache.note_stale(key);
                outcome = Some(CacheOutcome::Stale);
            }
            Some((SeedKind::Predicted, false)) => {
                mfcp_obs::counter("optim.learned.fallback").inc();
                prediction = Some(PredictionOutcome::FellBack);
            }
            Some((SeedKind::Predicted, true)) => outcome = Some(CacheOutcome::Predicted),
            // A failed carried seed touches no cache; its failure shows in
            // `optim.seed.carried.failed` only.
            Some((SeedKind::Carried, _)) | Some((SeedKind::Cached, true)) | None => {}
        }
        diagnostics.cache = outcome;
        diagnostics.prediction = prediction;
        // Greedy 0/1 vertices are poor seeds for multiplicative
        // mirror-descent updates; only cache fractional optima.
        if let Ok(sol) = &result {
            if sol.stage != FallbackStage::GreedyRounding {
                cache.store(
                    key,
                    WarmStartEntry::from_solution(problem, &self.params, &sol.x, sol.objective),
                );
                cache.restore_kkt_workspace(key, kkt_ws);
            }
        }
        result
    }

    fn solve_inner(
        &self,
        problem: &MatchingProblem,
        mut seed: Option<Seed>,
        kkt_ws: &mut KktWorkspace,
    ) -> Result<RobustSolution, SolveError> {
        let _span = mfcp_obs::span("robust_solve");
        mfcp_obs::counter("optim.robust.calls").inc();
        validate_problem(problem)?;
        validate_params(&self.params)?;
        let start = Instant::now();
        let convex = problem.speedup.iter().all(|c| c.is_trivial());
        let mut attempts: Vec<StageAttempt> = Vec::new();
        // One PGD workspace serves every first-order rung; the KKT
        // workspace (possibly carried over from a cached entry) serves
        // the Newton rung. Counter snapshots turn the workspace's
        // lifetime totals into per-solve diagnostics.
        let mut pgd_ws = PgdWorkspace::default();
        let kkt_base = (kkt_ws.structured_factors(), kkt_ws.dense_fallbacks());

        for &stage in &self.ladder {
            if stage != FallbackStage::GreedyRounding
                && (self.budget_spent(start) || self.budget.expired())
            {
                let reason = if self.budget.expired() {
                    SkipReason::RequestBudget
                } else {
                    SkipReason::WallBudget
                };
                push_skipped(&mut attempts, stage, reason);
                continue;
            }
            let found = match stage {
                FallbackStage::Primary => {
                    // One seeded attempt first, when the caller, the cache
                    // or a prediction supplied a seed; its failure falls
                    // through to the regular cold primary attempt and the
                    // rest of the ladder.
                    let (params, opts) = (self.params, self.solver_opts);
                    let mut attempt = |seed| {
                        self.try_pgd(
                            problem,
                            stage,
                            0,
                            params,
                            opts,
                            start,
                            seed,
                            &mut attempts,
                            &mut pgd_ws,
                        )
                    };
                    match seed.take() {
                        Some(seeded) => attempt(Some(seeded)).or_else(|| attempt(None)),
                        None => attempt(None),
                    }
                }
                FallbackStage::BackedOff => (1..=self.backoff.retries)
                    .take_while(|_| !(self.budget_spent(start) || self.budget.expired()))
                    .find_map(|retry| {
                        let params = self.backoff.backed_off(&self.params, retry);
                        self.try_pgd(
                            problem,
                            stage,
                            retry,
                            params,
                            self.solver_opts,
                            start,
                            None,
                            &mut attempts,
                            &mut pgd_ws,
                        )
                    }),
                FallbackStage::Newton if !convex => {
                    push_skipped(&mut attempts, stage, SkipReason::NonConvex);
                    continue;
                }
                FallbackStage::Newton => self.try_newton(problem, start, &mut attempts, kkt_ws),
                FallbackStage::EuclideanPgd => {
                    let mut opts = self.solver_opts;
                    opts.projection = ProjectionKind::Euclidean;
                    let params = self.safe_params();
                    self.try_pgd(
                        problem,
                        stage,
                        0,
                        params,
                        opts,
                        start,
                        None,
                        &mut attempts,
                        &mut pgd_ws,
                    )
                }
                FallbackStage::GreedyRounding => {
                    let t0 = Instant::now();
                    mfcp_obs::trace::begin(stage_trace_name(stage), None);
                    let mut asg = crate::exact::greedy_lpt(problem);
                    crate::rounding::repair_reliability(problem, &mut asg);
                    if problem.capacity.is_some() {
                        crate::rounding::repair_capacity(problem, &mut asg);
                    }
                    let x = asg.to_matrix(problem.clusters());
                    let objective = objective::value(problem, &self.safe_params(), &x);
                    let sol = RelaxedSolution {
                        x,
                        objective,
                        iterations: 0,
                        converged: true,
                    };
                    attempts.push(StageAttempt {
                        stage,
                        retry: 0,
                        iterations: 0,
                        converged: true,
                        objective: Some(objective),
                        elapsed_secs: t0.elapsed().as_secs_f64(),
                        seed: None,
                        outcome: StageOutcome::Success,
                    });
                    mfcp_obs::trace::end(stage_trace_name(stage), None);
                    record_attempt_metrics(attempts.last().expect("just pushed"));
                    return Ok(self.finish(
                        sol,
                        stage,
                        Some(asg),
                        attempts,
                        start,
                        kkt_delta(kkt_ws, kkt_base),
                    ));
                }
            };
            if let Some(sol) = found {
                let kkt = kkt_delta(kkt_ws, kkt_base);
                return Ok(self.finish(sol, stage, None, attempts, start, kkt));
            }
        }

        mfcp_obs::counter("optim.robust.exhausted").inc();
        let (kkt_structured, kkt_dense_fallbacks) = kkt_delta(kkt_ws, kkt_base);
        Err(SolveError::Exhausted {
            diagnostics: Box::new(SolveDiagnostics {
                recovered: false,
                total_secs: start.elapsed().as_secs_f64(),
                attempts,
                cache: None,
                prediction: None,
                kkt_structured,
                kkt_dense_fallbacks,
            }),
        })
    }

    fn budget_spent(&self, start: Instant) -> bool {
        self.policy
            .wall_limit
            .is_some_and(|limit| start.elapsed() >= limit)
    }

    /// Runs a guarded PGD attempt; records it and returns the solution
    /// on success.
    #[allow(clippy::too_many_arguments)]
    fn try_pgd(
        &self,
        problem: &MatchingProblem,
        stage: FallbackStage,
        retry: usize,
        params: RelaxationParams,
        opts: SolverOptions,
        start: Instant,
        seed: Option<Seed>,
        attempts: &mut Vec<StageAttempt>,
        pgd_ws: &mut PgdWorkspace,
    ) -> Option<RelaxedSolution> {
        let t0 = Instant::now();
        mfcp_obs::trace::begin(stage_trace_name(stage), Some(retry as u64));
        // The softened barrier cutoff is this ladder's μ-style continuation
        // knob; its per-attempt trajectory shows how far back-off had to go.
        if let BarrierKind::Log { eps } = params.barrier {
            mfcp_obs::histogram("optim.robust.barrier_eps").record(eps);
        }
        let mut guard = GuardRunner::new(problem, params, &self.policy, &self.budget, start, stage);
        let x0 = Seed::start(seed.as_ref(), problem.clusters(), problem.tasks());
        let result = solve_relaxed_from_guarded(
            problem,
            &params,
            &opts,
            x0,
            &mut |it, x, step| guard.check(it, x, step),
            pgd_ws,
        );
        self.record(stage, retry, t0, result, seed.map(|s| s.kind), attempts)
    }

    /// Runs the guarded Newton attempt with conservative parameters.
    fn try_newton(
        &self,
        problem: &MatchingProblem,
        start: Instant,
        attempts: &mut Vec<StageAttempt>,
        kkt_ws: &mut KktWorkspace,
    ) -> Option<RelaxedSolution> {
        let stage = FallbackStage::Newton;
        let params = self.safe_params();
        let t0 = Instant::now();
        mfcp_obs::trace::begin(stage_trace_name(stage), None);
        let mut guard = GuardRunner::new(problem, params, &self.policy, &self.budget, start, stage);
        let result = solve_relaxed_newton_guarded(
            problem,
            &params,
            &self.newton_opts,
            &mut |it, x, step| guard.check(it, x, step),
            kkt_ws,
        );
        self.record(stage, 0, t0, result, None, attempts)
    }

    /// Health-checks a finished attempt, records it, and returns the
    /// solution when it is usable.
    fn record(
        &self,
        stage: FallbackStage,
        retry: usize,
        t0: Instant,
        result: Result<RelaxedSolution, SolveError>,
        seed: Option<SeedKind>,
        attempts: &mut Vec<StageAttempt>,
    ) -> Option<RelaxedSolution> {
        let elapsed_secs = t0.elapsed().as_secs_f64();
        let iters = match &result {
            Ok(sol) => sol.iterations,
            Err(err) => error_iteration(err),
        };
        mfcp_obs::trace::end(stage_trace_name(stage), Some(iters as u64));
        match result {
            Ok(sol) => {
                let healthy =
                    sol.objective.is_finite() && sol.x.as_slice().iter().all(|v| v.is_finite());
                let on_simplex = healthy && is_column_stochastic(&sol.x, 1e-6);
                let outcome = if !healthy {
                    StageOutcome::Failed(SolveError::NonFinite {
                        stage,
                        iteration: sol.iterations,
                    })
                } else if !on_simplex {
                    StageOutcome::Failed(SolveError::OffSimplex { stage })
                } else {
                    StageOutcome::Success
                };
                let usable = matches!(outcome, StageOutcome::Success);
                attempts.push(StageAttempt {
                    stage,
                    retry,
                    iterations: sol.iterations,
                    converged: sol.converged,
                    objective: Some(sol.objective),
                    elapsed_secs,
                    seed,
                    outcome,
                });
                record_attempt_metrics(attempts.last().expect("just pushed"));
                usable.then_some(sol)
            }
            Err(err) => {
                attempts.push(StageAttempt {
                    stage,
                    retry,
                    iterations: error_iteration(&err),
                    converged: false,
                    objective: None,
                    elapsed_secs,
                    seed,
                    outcome: StageOutcome::Failed(err),
                });
                record_attempt_metrics(attempts.last().expect("just pushed"));
                None
            }
        }
    }

    fn finish(
        &self,
        sol: RelaxedSolution,
        stage: FallbackStage,
        assignment: Option<Assignment>,
        attempts: Vec<StageAttempt>,
        start: Instant,
        kkt: (u64, u64),
    ) -> RobustSolution {
        let recovered = attempts
            .iter()
            .any(|a| matches!(a.outcome, StageOutcome::Failed(_)));
        if recovered {
            mfcp_obs::counter("optim.robust.recovered").inc();
        }
        RobustSolution {
            x: sol.x,
            objective: sol.objective,
            stage,
            assignment,
            diagnostics: SolveDiagnostics {
                attempts,
                recovered,
                total_secs: start.elapsed().as_secs_f64(),
                cache: None,
                prediction: None,
                kkt_structured: kkt.0,
                kkt_dense_fallbacks: kkt.1,
            },
        }
    }
}

/// Per-solve deltas of a workspace's lifetime factorization counters
/// relative to the snapshot taken at the start of the solve.
fn kkt_delta(ws: &KktWorkspace, base: (u64, u64)) -> (u64, u64) {
    (
        ws.structured_factors().saturating_sub(base.0),
        ws.dense_fallbacks().saturating_sub(base.1),
    )
}

/// Records a rung the ladder skipped without running it.
fn push_skipped(attempts: &mut Vec<StageAttempt>, stage: FallbackStage, reason: SkipReason) {
    attempts.push(StageAttempt {
        stage,
        retry: 0,
        iterations: 0,
        converged: false,
        objective: None,
        elapsed_secs: 0.0,
        seed: None,
        outcome: StageOutcome::Skipped(reason),
    });
    record_attempt_metrics(attempts.last().expect("just pushed"));
}

/// Flight-recorder event name for a ladder stage. Attempts that actually
/// run emit a begin/end pair under this name; skipped stages emit an
/// instant, so the trace timeline shows where the ladder jumped.
fn stage_trace_name(stage: FallbackStage) -> &'static str {
    match stage {
        FallbackStage::Primary => "robust.primary",
        FallbackStage::BackedOff => "robust.backoff",
        FallbackStage::Newton => "robust.newton",
        FallbackStage::EuclideanPgd => "robust.euclidean-pgd",
        FallbackStage::GreedyRounding => "robust.greedy-rounding",
    }
}

/// Interned handles for the per-attempt counters, resolved once per
/// process: `optim.robust.stage.{stage}.{ok,failed,skipped}` indexed by
/// [`FallbackStage::ALL`] order, and `optim.seed.{kind}.{used,failed}`
/// indexed by [`SeedKind::ALL`] order. `Registry::reset` zeroes cells in
/// place, so the handles stay valid across resets.
struct AttemptCounters {
    attempts: mfcp_obs::Counter,
    stage: [[mfcp_obs::Counter; 3]; 5],
    seed: [[mfcp_obs::Counter; 2]; 3],
}

fn attempt_counters() -> &'static AttemptCounters {
    static COUNTERS: OnceLock<AttemptCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| AttemptCounters {
        attempts: mfcp_obs::counter("optim.robust.attempts"),
        stage: FallbackStage::ALL.map(|stage| {
            StageOutcome::LABELS
                .map(|outcome| mfcp_obs::counter(&format!("optim.robust.stage.{stage}.{outcome}")))
        }),
        seed: SeedKind::ALL.map(|kind| {
            ["used", "failed"].map(|what| mfcp_obs::counter(&format!("optim.seed.{kind}.{what}")))
        }),
    })
}

/// Feeds one finished [`StageAttempt`] into the observability registry:
/// the attempt counter, per-stage outcome counters, the seed counters of
/// a seeded attempt, and the wall-time / iteration histograms that the
/// `report` bin surfaces.
fn record_attempt_metrics(attempt: &StageAttempt) {
    if !mfcp_obs::enabled() {
        return;
    }
    let counters = attempt_counters();
    counters.attempts.inc();
    counters.stage[attempt.stage as usize][attempt.outcome.index()].inc();
    if let Some(kind) = attempt.seed {
        let [used, failed] = &counters.seed[kind as usize];
        used.inc();
        if !matches!(attempt.outcome, StageOutcome::Success) {
            failed.inc();
        }
    }
    if matches!(attempt.outcome, StageOutcome::Skipped(_)) {
        mfcp_obs::trace::instant(stage_trace_name(attempt.stage), Some(attempt.retry as u64));
    } else {
        mfcp_obs::histogram("optim.robust.attempt_secs").record(attempt.elapsed_secs);
        mfcp_obs::histogram("optim.robust.attempt_iters").record(attempt.iterations as f64);
    }
}

fn error_iteration(err: &SolveError) -> usize {
    match err {
        SolveError::NonFinite { iteration, .. }
        | SolveError::Diverged { iteration, .. }
        | SolveError::Stalled { iteration, .. }
        | SolveError::DeadlineExceeded { iteration, .. }
        | SolveError::WallBudget { iteration, .. }
        | SolveError::SingularKkt { iteration, .. } => *iteration,
        _ => 0,
    }
}

/// Per-iterate health state threaded through a guarded solver run.
struct GuardRunner<'a> {
    problem: &'a MatchingProblem,
    params: RelaxationParams,
    policy: &'a HealthPolicy,
    budget: &'a Budget,
    start: Instant,
    stage: FallbackStage,
    best: f64,
    stall_count: usize,
}

impl<'a> GuardRunner<'a> {
    fn new(
        problem: &'a MatchingProblem,
        params: RelaxationParams,
        policy: &'a HealthPolicy,
        budget: &'a Budget,
        start: Instant,
        stage: FallbackStage,
    ) -> Self {
        GuardRunner {
            problem,
            params,
            policy,
            budget,
            start,
            stage,
            best: f64::INFINITY,
            stall_count: 0,
        }
    }

    fn check(&mut self, iteration: usize, x: &Matrix, step: f64) -> Result<(), SolveError> {
        // The request budget is the tightest contract: checked first, on
        // every accepted iterate of both the PGD and Newton/KKT loops.
        if self.budget.expired() {
            return Err(SolveError::DeadlineExceeded {
                stage: self.stage,
                iteration,
            });
        }
        if x.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite {
                stage: self.stage,
                iteration,
            });
        }
        if let Some(limit) = self.policy.wall_limit {
            if self.start.elapsed() >= limit {
                return Err(SolveError::WallBudget {
                    stage: self.stage,
                    iteration,
                    elapsed_secs: self.start.elapsed().as_secs_f64(),
                });
            }
        }
        if iteration == 1 || iteration.is_multiple_of(self.policy.check_every.max(1)) {
            let obj = objective::value(self.problem, &self.params, x);
            if !obj.is_finite() {
                return Err(SolveError::NonFinite {
                    stage: self.stage,
                    iteration,
                });
            }
            if self.best.is_finite() {
                let ceiling = self.best
                    + self.policy.divergence_slack
                    + self.policy.divergence_ratio * self.best.abs();
                if obj > ceiling {
                    return Err(SolveError::Diverged {
                        stage: self.stage,
                        iteration,
                        objective: obj,
                        reference: self.best,
                    });
                }
                let improved = obj < self.best - self.policy.stall_tol * (1.0 + self.best.abs());
                if improved {
                    self.stall_count = 0;
                } else if step > self.policy.stall_step_floor {
                    // Sizable steps with no objective improvement: the
                    // iterate is bouncing, not converging.
                    self.stall_count += 1;
                    if self.stall_count > self.policy.stall_checks {
                        return Err(SolveError::Stalled {
                            stage: self.stage,
                            iteration,
                        });
                    }
                }
            }
            if obj < self.best {
                self.best = obj;
            }
        }
        Ok(())
    }
}

fn validate_problem(problem: &MatchingProblem) -> Result<(), SolveError> {
    let (m, n) = (problem.clusters(), problem.tasks());
    if m == 0 && n > 0 {
        return Err(SolveError::InvalidInput(format!(
            "{n} tasks but no clusters to place them on"
        )));
    }
    if problem.reliability.shape() != (m, n) {
        return Err(SolveError::InvalidInput(format!(
            "reliability shape {:?} does not match times shape {:?}",
            problem.reliability.shape(),
            (m, n)
        )));
    }
    if problem.speedup.len() != m {
        return Err(SolveError::InvalidInput(format!(
            "{} speedup curves for {m} clusters",
            problem.speedup.len()
        )));
    }
    if !problem.gamma.is_finite() {
        return Err(SolveError::InvalidInput(format!(
            "non-finite reliability threshold gamma = {}",
            problem.gamma
        )));
    }
    for i in 0..m {
        for j in 0..n {
            let t = problem.times[(i, j)];
            if !t.is_finite() || t < 0.0 {
                return Err(SolveError::InvalidInput(format!(
                    "times[({i}, {j})] = {t} (must be finite and non-negative)"
                )));
            }
            let a = problem.reliability[(i, j)];
            if !a.is_finite() || !(0.0..=1.0).contains(&a) {
                return Err(SolveError::InvalidInput(format!(
                    "reliability[({i}, {j})] = {a} (must be in [0, 1])"
                )));
            }
        }
    }
    if let Some(cap) = &problem.capacity {
        if cap.usage.shape() != (m, n) {
            return Err(SolveError::InvalidInput(format!(
                "capacity usage shape {:?} does not match {:?}",
                cap.usage.shape(),
                (m, n)
            )));
        }
        if cap.limits.len() != m {
            return Err(SolveError::InvalidInput(format!(
                "{} capacity limits for {m} clusters",
                cap.limits.len()
            )));
        }
        if cap
            .usage
            .as_slice()
            .iter()
            .any(|u| !u.is_finite() || *u < 0.0)
        {
            return Err(SolveError::InvalidInput(
                "capacity usage must be finite and non-negative".into(),
            ));
        }
        if cap.limits.iter().any(|l| !l.is_finite() || *l <= 0.0) {
            return Err(SolveError::InvalidInput(
                "capacity limits must be finite and positive".into(),
            ));
        }
    }
    Ok(())
}

fn validate_params(params: &RelaxationParams) -> Result<(), SolveError> {
    if !params.beta.is_finite() || params.beta <= 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "smooth-max beta = {} (must be finite and positive)",
            params.beta
        )));
    }
    if !params.lambda.is_finite() || params.lambda < 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "barrier weight lambda = {} (must be finite and non-negative)",
            params.lambda
        )));
    }
    if !params.rho.is_finite() || params.rho < 0.0 {
        return Err(SolveError::InvalidInput(format!(
            "entropy weight rho = {} (must be finite and non-negative)",
            params.rho
        )));
    }
    if let BarrierKind::Log { eps } = params.barrier {
        if !eps.is_finite() || eps < 0.0 {
            return Err(SolveError::InvalidInput(format!(
                "log-barrier eps = {eps} (must be finite and non-negative)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speedup::SpeedupCurve;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(seed: u64, m: usize, n: usize) -> MatchingProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.5..3.0));
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(0.7..1.0));
        MatchingProblem::new(t, a, 0.75)
    }

    /// A problem that is reliability-infeasible at the uniform starting
    /// point: with a zero-cutoff log barrier the very first gradient is
    /// `-∞` and the plain solver's iterates go `NaN` immediately.
    fn degenerate_barrier_setup() -> (MatchingProblem, RelaxationParams) {
        let t = Matrix::filled(2, 4, 1.0);
        let a = Matrix::filled(2, 4, 0.7);
        let problem = MatchingProblem::new(t, a, 0.95);
        let params = RelaxationParams {
            barrier: BarrierKind::Log { eps: 0.0 },
            ..Default::default()
        };
        (problem, params)
    }

    #[test]
    fn default_ladder_order_is_pinned() {
        // The Euclidean rung runs `safe_params()`, the last `BackedOff`
        // retry's parameters, under a different projection; a mirror-descent
        // rung there would repeat that retry exactly.
        let ladder = default_ladder();
        assert_eq!(
            ladder,
            vec![
                FallbackStage::Primary,
                FallbackStage::BackedOff,
                FallbackStage::Newton,
                FallbackStage::EuclideanPgd,
                FallbackStage::GreedyRounding,
            ]
        );
        let names: Vec<String> = ladder.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            names,
            [
                "primary",
                "backoff",
                "newton",
                "euclidean-pgd",
                "greedy-rounding"
            ]
        );
    }

    #[test]
    fn skip_reasons_display_their_text() {
        assert_eq!(
            SkipReason::RequestBudget.to_string(),
            "request budget expired"
        );
        assert_eq!(
            SkipReason::WallBudget.to_string(),
            "wall-clock budget exhausted"
        );
        let non_convex = "parallel speedup curves: Newton needs the convex sequential setting";
        assert_eq!(SkipReason::NonConvex.to_string(), non_convex);
    }

    #[test]
    fn healthy_problem_succeeds_on_primary() {
        let problem = random_problem(1, 3, 6);
        let mut solver = RobustSolver::new(RelaxationParams::default());
        // At the default lr = 0.8 mirror descent enters a large-step limit
        // cycle on this instance (which the stall guard rightly flags and
        // the ladder recovers from); lr = 0.3 converges monotonically.
        solver.solver_opts.lr = 0.3;
        let sol = solver.solve(&problem).expect("healthy instance solves");
        assert_eq!(
            sol.stage,
            FallbackStage::Primary,
            "path: {} | attempts: {:?}",
            sol.diagnostics.path(),
            sol.diagnostics.attempts
        );
        assert!(!sol.diagnostics.recovered);
        assert_eq!(sol.diagnostics.attempts.len(), 1);
        assert!(is_column_stochastic(&sol.x, 1e-6));
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn zero_eps_barrier_recovers_through_backoff() {
        let (problem, params) = degenerate_barrier_setup();
        // The unguarded solver silently returns a NaN matching here.
        let raw = crate::solver::solve_relaxed(&problem, &params, &SolverOptions::default());
        assert!(
            raw.x.as_slice().iter().any(|v| v.is_nan()),
            "setup must actually break the plain solver"
        );

        let sol = RobustSolver::new(params)
            .solve(&problem)
            .expect("ladder must recover");
        assert!(
            sol.diagnostics.recovered,
            "path: {}",
            sol.diagnostics.path()
        );
        assert_ne!(sol.stage, FallbackStage::Primary);
        assert!(is_column_stochastic(&sol.x, 1e-6));
        assert!(sol.x.as_slice().iter().all(|v| v.is_finite()));
        assert!(sol.objective.is_finite());
        // The primary attempt must be on record as a non-finite failure.
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(first.stage, FallbackStage::Primary);
        assert!(
            matches!(
                first.outcome,
                StageOutcome::Failed(SolveError::NonFinite { .. })
            ),
            "unexpected first outcome: {:?}",
            first.outcome
        );
    }

    #[test]
    fn nan_times_rejected_as_invalid_input() {
        let mut problem = random_problem(2, 2, 3);
        problem.times[(0, 0)] = f64::NAN;
        let err = RobustSolver::new(RelaxationParams::default())
            .solve(&problem)
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn nan_beta_rejected_as_invalid_input() {
        let problem = random_problem(3, 2, 3);
        let params = RelaxationParams {
            beta: f64::NAN,
            ..Default::default()
        };
        let err = RobustSolver::new(params).solve(&problem).unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn tasks_without_clusters_rejected() {
        let problem = MatchingProblem::new(Matrix::zeros(0, 3), Matrix::zeros(0, 3), 0.5);
        let err = RobustSolver::new(RelaxationParams::default())
            .solve(&problem)
            .unwrap_err();
        assert!(matches!(err, SolveError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn truncated_ladder_exhausts_with_diagnostics() {
        let (problem, params) = degenerate_barrier_setup();
        let mut solver = RobustSolver::new(params);
        solver.ladder = vec![FallbackStage::Primary];
        let err = solver.solve(&problem).unwrap_err();
        let SolveError::Exhausted { diagnostics } = err else {
            panic!("expected exhaustion, got {err}");
        };
        assert_eq!(diagnostics.attempts.len(), 1);
        assert_eq!(diagnostics.failures(), 1);
    }

    #[test]
    fn greedy_rung_alone_produces_feasible_assignment() {
        let problem = random_problem(4, 3, 7);
        let mut solver = RobustSolver::new(RelaxationParams::default());
        solver.ladder = vec![FallbackStage::GreedyRounding];
        let sol = solver.solve(&problem).expect("greedy rung is infallible");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        let asg = sol.assignment.expect("greedy rung returns an assignment");
        assert_eq!(asg.tasks(), 7);
        assert!(is_column_stochastic(&sol.x, 1e-12));
        assert!(sol.x.as_slice().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn newton_skipped_for_parallel_speedups() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Matrix::from_fn(2, 4, |_, _| rng.gen_range(0.5..2.0));
        let a = Matrix::from_fn(2, 4, |_, _| rng.gen_range(0.7..1.0));
        let problem =
            MatchingProblem::with_speedup(t, a, 0.95, vec![SpeedupCurve::paper_parallel(); 2]);
        let params = RelaxationParams {
            barrier: BarrierKind::Log { eps: 0.0 },
            ..Default::default()
        };
        // Skip the backed-off retries (which would already fix the broken
        // barrier) so the ladder actually reaches the Newton rung.
        let mut solver = RobustSolver::new(params);
        solver.ladder = vec![
            FallbackStage::Primary,
            FallbackStage::Newton,
            FallbackStage::GreedyRounding,
        ];
        let sol = solver
            .solve(&problem)
            .expect("ladder must not panic on the parallel setting");
        assert!(
            sol.diagnostics.attempts.iter().any(|a| {
                a.stage == FallbackStage::Newton && matches!(a.outcome, StageOutcome::Skipped(_))
            }),
            "Newton must be recorded as skipped, path: {}",
            sol.diagnostics.path()
        );
        assert!(is_column_stochastic(&sol.x, 1e-6));
    }

    #[test]
    fn empty_task_set_is_fine() {
        let problem = MatchingProblem::new(Matrix::zeros(2, 0), Matrix::zeros(2, 0), 0.5);
        let sol = RobustSolver::new(RelaxationParams::default())
            .solve(&problem)
            .expect("empty task set solves trivially");
        assert_eq!(sol.x.shape(), (2, 0));
    }

    #[test]
    fn backoff_schedule_softens_parameters() {
        let schedule = BackoffSchedule::default();
        let params = RelaxationParams {
            beta: 8.0,
            rho: 0.0,
            barrier: BarrierKind::Log { eps: 0.0 },
            ..Default::default()
        };
        let once = schedule.backed_off(&params, 1);
        assert!((once.beta - 4.0).abs() < 1e-12);
        assert!(once.rho > 0.0);
        let BarrierKind::Log { eps } = once.barrier else {
            panic!("barrier kind must be preserved");
        };
        assert!(eps > 0.0);
        // Floors hold under heavy back-off.
        let deep = schedule.backed_off(&params, 40);
        assert!(deep.beta >= schedule.beta_floor);
        let BarrierKind::Log { eps } = deep.barrier else {
            panic!("barrier kind must be preserved");
        };
        assert!(eps <= 0.1 + 1e-12);
    }

    #[test]
    fn diagnostics_path_is_readable() {
        let (problem, params) = degenerate_barrier_setup();
        let sol = RobustSolver::new(params).solve(&problem).unwrap();
        let path = sol.diagnostics.path();
        assert!(path.contains("primary x(non-finite)"), "path: {path}");
        assert!(path.contains("ok"), "path: {path}");
    }

    fn cached_solver() -> RobustSolver {
        let mut solver = RobustSolver::new(RelaxationParams::default());
        // Converge tightly so warm and cold land on the same unique
        // entropic optimum (the default budget of 400 iterations stops
        // short of the 1e-8 objective agreement these tests assert).
        solver.solver_opts.lr = 0.3;
        solver.solver_opts.max_iters = 20_000;
        solver.solver_opts.tol = 1e-12;
        solver
    }

    #[test]
    fn warm_cache_hit_matches_cold_solve() {
        let problem = random_problem(7, 3, 6);
        let solver = cached_solver();
        let cold = solver.solve(&problem).expect("cold solve");

        let mut cache = WarmStartCache::new();
        let first = solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("miss populates");
        assert_eq!(first.diagnostics.cache, Some(CacheOutcome::Miss));
        let warm = solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("hit solves");
        assert_eq!(warm.diagnostics.cache, Some(CacheOutcome::Hit));
        assert_eq!(warm.diagnostics.attempts[0].seed, Some(SeedKind::Cached));
        assert!(warm.diagnostics.path().starts_with("warm-primary"));
        assert!((warm.objective - cold.objective).abs() < 1e-8);
        // Warm convergence from (near) the optimum takes far fewer
        // iterations than the cold run.
        assert!(
            warm.diagnostics.attempts[0].iterations <= cold.diagnostics.attempts[0].iterations,
            "warm {} vs cold {}",
            warm.diagnostics.attempts[0].iterations,
            cold.diagnostics.attempts[0].iterations
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn poisoned_nan_duals_fall_back_to_cold() {
        let problem = random_problem(8, 3, 5);
        let solver = cached_solver();
        let mut cache = WarmStartCache::new();
        solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("populate");
        let key = fingerprint(&problem, &solver.params);
        cache.entry_mut(key).expect("entry exists").duals[0] = f64::NAN;

        let cold = solver.solve(&problem).expect("plain solve");
        let sol = solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("poisoned entry must not panic or fail the solve");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Stale));
        assert_eq!(
            sol.diagnostics.attempts[0].seed, None,
            "stale entry must be dropped before the solver runs"
        );
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn wrong_dimension_cached_assignment_falls_back_to_cold() {
        let problem = random_problem(9, 3, 5);
        let solver = cached_solver();
        let mut cache = WarmStartCache::new();
        solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("populate");
        let key = fingerprint(&problem, &solver.params);
        cache.entry_mut(key).expect("entry exists").x = Matrix::filled(2, 2, 0.5);

        let cold = solver.solve(&problem).expect("plain solve");
        let sol = solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("wrong-dimension entry must not panic");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Stale));
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn warm_divergence_falls_back_to_cold_ladder() {
        // The degenerate barrier breaks the warm attempt (the entry
        // itself validates fine), so the solver must record the warm
        // failure, mark the entry stale, and recover through the ladder
        // with the same answer as a plain solve.
        let (problem, params) = degenerate_barrier_setup();
        let solver = RobustSolver::new(params);
        let (m, n) = (problem.clusters(), problem.tasks());
        let mut cache = WarmStartCache::new();
        let key = fingerprint(&problem, &solver.params);
        cache.store(
            key,
            WarmStartEntry {
                x: crate::solver::uniform_init(m, n),
                objective: 1.0,
                duals: vec![0.0; n],
                kkt: None,
                stored_at: 0,
            },
        );

        let cold = solver.solve(&problem).expect("plain ladder recovers");
        let sol = solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("warm divergence must fall back, not fail");
        assert_eq!(sol.diagnostics.cache, Some(CacheOutcome::Stale));
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(
            first.seed,
            Some(SeedKind::Cached),
            "path: {}",
            sol.diagnostics.path()
        );
        assert!(
            matches!(first.outcome, StageOutcome::Failed(_)),
            "warm attempt must be on record as failed"
        );
        assert!(sol.diagnostics.recovered);
        assert_eq!(sol.stage, cold.stage);
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        assert_eq!(cache.stats().stale, 1);
        // The divergent entry was evicted and replaced by the recovered
        // solution, not left in place to diverge again.
        let entry = cache
            .entry_mut(key)
            .expect("recovered solve refreshed the entry");
        assert_eq!(entry.x.as_slice(), cold.x.as_slice());
    }

    #[test]
    fn greedy_results_are_not_cached() {
        let problem = random_problem(10, 3, 7);
        let mut solver = cached_solver();
        solver.ladder = vec![FallbackStage::GreedyRounding];
        let mut cache = WarmStartCache::new();
        solver
            .solve_cached(&problem, &mut cache, None, None)
            .expect("greedy rung is infallible");
        assert!(cache.is_empty(), "0/1 vertices must not be cached");
    }

    /// Serializes the tests that read global counters against the one
    /// that resets the registry.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn failed_carried_seed_leaves_the_cache_alone() {
        // The degenerate barrier breaks any seeded attempt. A carried
        // seed's failure is counted under its own kind; the cache is
        // neither consulted nor charged with a stale entry.
        let _guard = obs_lock();
        let (problem, params) = degenerate_barrier_setup();
        let solver = RobustSolver::new(params);
        let (m, n) = (problem.clusters(), problem.tasks());
        let key = fingerprint(&problem, &solver.params);
        let mut cache = WarmStartCache::new();
        cache.store(
            key,
            WarmStartEntry {
                x: crate::solver::uniform_init(m, n),
                objective: 1.0,
                duals: vec![0.0; n],
                kkt: None,
                stored_at: 0,
            },
        );
        let used = mfcp_obs::counter("optim.seed.carried.used");
        let failed = mfcp_obs::counter("optim.seed.carried.failed");
        let (used0, failed0) = (used.get(), failed.get());

        let cold = solver.solve(&problem).expect("plain ladder recovers");
        let seed = Seed {
            x: crate::solver::uniform_init(m, n),
            kind: SeedKind::Carried,
        };
        let sol = solver
            .solve_cached(&problem, &mut cache, Some(seed), None)
            .expect("carried-seed failure must fall back, not fail");
        let first = &sol.diagnostics.attempts[0];
        assert_eq!(first.seed, Some(SeedKind::Carried));
        assert!(matches!(first.outcome, StageOutcome::Failed(_)));
        assert!(sol.diagnostics.path().starts_with("carried-primary x("));
        assert_eq!(
            sol.diagnostics.cache, None,
            "a caller seed skips the lookup"
        );
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.x.as_slice(), cold.x.as_slice());
        let stats = cache.stats();
        assert_eq!((stats.stale, stats.hits, stats.misses), (0, 0, 0));
        assert_eq!(used.get() - used0, 1);
        assert_eq!(failed.get() - failed0, 1);
    }

    #[test]
    fn interned_attempt_counters_survive_registry_reset() {
        let _guard = obs_lock();
        let handle = &attempt_counters().stage[FallbackStage::GreedyRounding as usize][0];
        mfcp_obs::reset();
        let named = mfcp_obs::counter("optim.robust.stage.greedy-rounding.ok");
        let before = named.get();
        handle.inc();
        // Other tests may count greedy successes concurrently, but none
        // resets the registry, so the named cell moves by at least one.
        assert!(
            named.get() > before,
            "the interned handle must feed the named counter"
        );
    }

    #[test]
    fn expired_budget_degrades_to_greedy_deterministically() {
        let problem = random_problem(21, 3, 8);
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let solver = RobustSolver::new(RelaxationParams::default())
            .with_budget(Budget::unlimited().with_cancel(token));

        let sol = solver
            .solve(&problem)
            .expect("an expired budget still yields a feasible matching");
        assert_eq!(sol.stage, FallbackStage::GreedyRounding);
        assert!(is_column_stochastic(&sol.x, 1e-9));
        // Every optimizing rung must be on record as budget-skipped, not
        // silently dropped.
        let skipped: Vec<_> = sol
            .diagnostics
            .attempts
            .iter()
            .filter(|a| matches!(a.outcome, StageOutcome::Skipped(SkipReason::RequestBudget)))
            .collect();
        assert_eq!(skipped.len(), sol.diagnostics.attempts.len() - 1);

        // Degradation is deterministic: a second run under the same fired
        // token reproduces the assignment bit for bit.
        let again = solver.solve(&problem).expect("greedy rung is infallible");
        assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
        assert_eq!(again.x.as_slice(), sol.x.as_slice());
    }

    #[test]
    fn guard_reports_deadline_exceeded_mid_iteration() {
        let problem = random_problem(22, 2, 4);
        let params = RelaxationParams::default();
        let policy = HealthPolicy::default();
        let token = crate::budget::CancelToken::new();
        let budget = Budget::unlimited().with_cancel(token.clone());
        let mut guard = GuardRunner::new(
            &problem,
            params,
            &policy,
            &budget,
            Instant::now(),
            FallbackStage::Primary,
        );
        let x = crate::solver::uniform_init(problem.clusters(), problem.tasks());

        // Healthy while the token is quiet...
        guard.check(0, &x, 1.0).expect("live budget passes");
        // ...and a typed abort at the very next iterate once it fires.
        token.cancel();
        let err = guard.check(1, &x, 1.0).unwrap_err();
        match err {
            SolveError::DeadlineExceeded { stage, iteration } => {
                assert_eq!(stage, FallbackStage::Primary);
                assert_eq!(iteration, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(short_reason(&err), "deadline");
    }
}
