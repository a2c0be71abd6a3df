//! The relaxed cluster–task matching layer of MFCP.
//!
//! This crate implements §2 and §3.2–§3.4 of the paper:
//!
//! * [`MatchingProblem`] — the integer program of Eq. (2): assign each of
//!   `N` deep-learning tasks to one of `M` clusters, minimizing the
//!   makespan `max_i ζ_i(n_i)·xᵢᵀtᵢ` (Eq. 3 / Eq. 16) subject to the
//!   platform-wide reliability constraint `g(X, A) ≥ 0` (Eq. 4).
//! * [`objective`] — the continuous relaxation: log-sum-exp smoothing of
//!   the max (Eq. 8, Theorem 1), the logarithmic interior-point barrier
//!   (Eq. 9), the hard-penalty ablation (Table 1 row 2), the linear-cost
//!   ablation (Table 1 row 1), and an entropy regularizer that makes the
//!   relaxed optimum unique and interior (a standard DFL device; see
//!   DESIGN.md).
//! * [`solver`] — Algorithm 1: projected gradient descent over the product
//!   of per-task simplices, with mirror-descent (exponentiated-gradient),
//!   literal-paper-softmax and Euclidean projections.
//! * [`rounding`] — deployment-time rounding of the relaxed solution plus
//!   reliability repair and local search (§3.2: "rounded to produce
//!   discrete solutions").
//! * [`exact`] — a branch-and-bound solver for small instances, used as
//!   ground truth in tests and benches.
//! * [`kkt`] — implicit differentiation of the optimum through the KKT
//!   stationarity system (Eq. 14–15), the MFCP-AD gradient path.
//! * [`zeroth`] — the zeroth-order forward-gradient estimator of
//!   Algorithm 2 (lines 5–11), the MFCP-FG gradient path.
//! * [`recovery`] — fault-tolerant solving: health-guarded solver runs
//!   with a fallback ladder (backed-off parameters → Newton → PGD
//!   variants → greedy rounding) and per-stage diagnostics.
//! * [`cache`] — a fingerprint-keyed warm-start cache: successive solves
//!   of structurally identical problems seed PGD from the previous
//!   optimum instead of the uniform simplex point (see DESIGN.md,
//!   "Warm-start cache and batched solving").
//! * [`learned`] — learned dual predictions for *unseen* instances: a
//!   small `mfcp-nn` head maps structure-only problem features to
//!   per-column duals and a primal seed, with instance-robust
//!   feasibility repair before the seed reaches the ladder (see
//!   DESIGN.md, "Learned duals and instance-robust repair").
//! * [`seed`] — the one [`Seed`] type every non-uniform start goes
//!   through: a point plus its [`SeedKind`] (cached, carried or
//!   predicted), which fixes its interior blend and its failure
//!   bookkeeping in the ladder.
//! * [`budget`] — per-request deadlines and cooperative cancellation,
//!   checked on every guarded iterate so an online daemon can bound the
//!   latency of a single matching solve.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cache;
pub mod exact;
pub mod kkt;
pub mod learned;
pub mod objective;
pub mod problem;
pub mod recovery;
pub mod rounding;
pub mod seed;
pub mod solver;
pub mod speedup;
pub mod zeroth;

pub use budget::{Budget, CancelToken};
pub use cache::{
    CacheOutcome, CacheStats, KktStructure, WarmStartCache, WarmStartConfig, WarmStartEntry,
};
pub use kkt::{KktGradients, KktWorkspace};
pub use learned::{DualPrediction, DualPredictor, LearnedDualHead, RepairError};
pub use objective::{BarrierKind, CostKind, RelaxationParams};
pub use problem::{Assignment, CapacityConstraint, MatchingProblem};
pub use recovery::{
    BackoffSchedule, FallbackStage, HealthPolicy, PredictionOutcome, RobustSolution, RobustSolver,
    SkipReason, SolveDiagnostics, SolveError, StageAttempt, StageOutcome,
};
pub use seed::{Seed, SeedKind};
pub use solver::{NewtonOptions, PgdWorkspace, ProjectionKind, RelaxedSolution, SolverOptions};
pub use speedup::SpeedupCurve;
