//! Training pipelines: TSM's supervised baseline and MFCP's end-to-end
//! decision-focused loop (paper Fig. 3 / Algorithm 2).

use crate::methods::{EnsembleUcbPredictor, MfcpPredictor, TsmPredictor, UcbPredictor};
use crate::predictor::ClusterPredictor;
use mfcp_autodiff::Graph;
use mfcp_linalg::Matrix;
use mfcp_nn::{Adam, Loss, Optimizer};
use mfcp_optim::objective;
use mfcp_optim::solver::{solve_relaxed, solve_relaxed_from, SolverOptions};
use mfcp_optim::zeroth::{estimate_gradient, ZerothOrderOptions};
use mfcp_optim::{
    kkt, CacheStats, LearnedDualHead, MatchingProblem, RelaxationParams, RelaxedSolution, Seed,
    SeedKind, SpeedupCurve,
};
use mfcp_parallel::{par_map, solve_batch, ParallelConfig};
use mfcp_platform::dataset::PlatformDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};

/// Configuration for the supervised (MSE) predictor training used by TSM,
/// UCB, and MFCP's warm start.
#[derive(Debug, Clone)]
pub struct TsmTrainConfig {
    /// Hidden layer widths of both predictor networks.
    pub hidden: Vec<usize>,
    /// Training epochs (full passes over the training tasks).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Regression loss for the (log-)time head. Reliability always uses
    /// MSE (its targets are bounded frequencies).
    pub time_loss: Loss,
    /// Thread configuration: clusters train concurrently.
    pub parallel: ParallelConfig,
}

impl Default for TsmTrainConfig {
    fn default() -> Self {
        TsmTrainConfig {
            hidden: vec![32, 32],
            epochs: 300,
            lr: 0.01,
            batch_size: 32,
            time_loss: Loss::Mse,
            parallel: ParallelConfig::default(),
        }
    }
}

/// How MFCP obtains `dX*/dt̂` and `dX*/dâ`.
#[derive(Debug, Clone)]
pub enum GradientMode {
    /// Implicit KKT differentiation (MFCP-AD; convex case only).
    Analytic,
    /// Zeroth-order forward gradients (MFCP-FG; any case).
    ForwardGradient(ZerothOrderOptions),
}

/// Configuration for the end-to-end MFCP training loop.
#[derive(Debug, Clone)]
pub struct MfcpTrainConfig {
    /// Warm-start supervised phase (set `epochs: 0` to disable).
    pub warm_start: TsmTrainConfig,
    /// Number of decision-focused training rounds.
    pub rounds: usize,
    /// Tasks per sampled round (`N`).
    pub round_size: usize,
    /// Adam learning rate for the decision-focused phase.
    pub lr: f64,
    /// Reliability threshold `γ`.
    pub gamma: f64,
    /// Per-cluster speedup curves (empty → sequential execution).
    pub speedup: Vec<SpeedupCurve>,
    /// Relaxation hyper-parameters (β, λ, ρ, barrier, cost).
    pub relaxation: RelaxationParams,
    /// Algorithm 1 solver options.
    pub solver: SolverOptions,
    /// Gradient path: analytic (AD) or forward-gradient (FG).
    pub mode: GradientMode,
    /// Alternate ω/φ updates between rounds (paper §3.3: "we fix ω when
    /// optimizing φ, and fix φ when optimizing ω").
    pub alternating: bool,
    /// L2 cap on each injected decision gradient (per cluster per round).
    /// Near-vertex matchings produce occasional spiky implicit gradients;
    /// clipping keeps Adam from amplifying them into destructive steps.
    pub grad_clip: f64,
    /// Number of fixed validation rounds used for best-snapshot
    /// selection (0 disables validation and returns the final iterate).
    pub validation_rounds: usize,
    /// Validate (and possibly snapshot) every this many training rounds.
    pub validate_every: usize,
    /// Fraction of training tasks held out for validation. With
    /// capacity-limited predictors (which barely memorize), `0.0`
    /// validates on rounds drawn from the training tasks themselves and
    /// lets the warm start see all data; a positive fraction buys an
    /// unbiased validation signal at the cost of warm-start data.
    pub validation_split: f64,
    /// Weight of the MSE anchor blended into every decision update. The
    /// regret gradient only constrains predictions *at decision
    /// boundaries*; off those boundaries the networks are free to drift
    /// arbitrarily far from the measurements, which destroys
    /// generalization. A small pull toward the measured targets keeps the
    /// decision-focused phase on the data manifold (the standard
    /// regret + α·MSE composite loss of the DFL literature).
    pub mse_anchor: f64,
    /// Loss-spike guard: a round whose relaxed regret exceeds
    /// `spike_factor · |recent baseline| + spike_slack` (or is non-finite)
    /// is treated as a destroyed iterate — the predictors and optimizer
    /// states roll back to the last healthy snapshot and the round's
    /// update is skipped. Set to `f64::INFINITY` to disable.
    pub spike_factor: f64,
    /// Absolute slack added to the spike threshold so near-zero baselines
    /// (a well-trained predictor has regret ≈ 0) don't flag ordinary
    /// round-to-round sampling noise.
    pub spike_slack: f64,
    /// Write a checkpoint of all cluster predictors every this many
    /// rounds (0 disables). Requires [`MfcpTrainConfig::checkpoint_dir`].
    pub checkpoint_every: usize,
    /// Directory for periodic checkpoints; also the resume source when
    /// [`MfcpTrainConfig::resume`] is set.
    pub checkpoint_dir: Option<PathBuf>,
    /// Start from the predictors checkpointed in `checkpoint_dir`
    /// (skipping the supervised warm start) when a complete checkpoint is
    /// present; falls back to the normal warm start otherwise.
    pub resume: bool,
    /// Warm-start the round solves from a per-sample [`SolveCache`]:
    /// each solved task's assignment column is cached by global task
    /// index and spliced into the next round that samples the task.
    /// Task-level matching preferences drift slowly with the predictors,
    /// so a resampled task's previous column is an excellent PGD seed.
    /// Poisoned or aged-out cached columns fall back to a cold seed with
    /// a [`RecoveryEvent::StaleWarmStart`] — warm starts can change
    /// solve speed, never validity.
    pub solve_cache: bool,
    /// Train a run-local [`LearnedDualHead`] online from each round's
    /// measured solve: the per-column duals of `sol_true` are exactly
    /// what the learned warm-start path must predict for unseen
    /// siblings of the round's instance. The run-local head is dropped
    /// when training ends — its value is the recorded fit-loss
    /// telemetry and [`RecoveryEvent::BadDualSample`] events; use
    /// [`train_mfcp_with_dual_head`] to keep the trained head for
    /// serving.
    pub learned_duals: bool,
}

impl Default for MfcpTrainConfig {
    fn default() -> Self {
        MfcpTrainConfig {
            warm_start: TsmTrainConfig::default(),
            rounds: 160,
            round_size: 5,
            lr: 1e-3,
            gamma: 0.85,
            speedup: Vec::new(),
            relaxation: RelaxationParams::default(),
            solver: SolverOptions::default(),
            mode: GradientMode::Analytic,
            alternating: true,
            grad_clip: 2.0,
            validation_rounds: 12,
            validate_every: 10,
            validation_split: 0.0,
            mse_anchor: 0.3,
            spike_factor: 3.0,
            spike_slack: 0.02,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: false,
            solve_cache: false,
            learned_duals: false,
        }
    }
}

/// Rescales `v` in place so its L2 norm is at most `cap`; returns the
/// resulting norm. Vectors with negligible norm are zeroed (a dead zone:
/// plateau gradients carry no signal worth an optimizer step).
fn clip_l2(v: &mut [f64], cap: f64) -> f64 {
    let norm = mfcp_linalg::vector::norm2(v);
    if norm < 1e-12 {
        for x in v.iter_mut() {
            *x = 0.0;
        }
        return 0.0;
    }
    if norm > cap {
        let s = cap / norm;
        for x in v.iter_mut() {
            *x *= s;
        }
        return cap;
    }
    norm
}

/// True when every entry of every gradient tensor is finite. A single NaN
/// measurement (or an exploded activation) poisons Adam's moment estimates
/// permanently, so non-finite steps are dropped rather than applied.
fn grads_finite(grads: &[Matrix]) -> bool {
    grads
        .iter()
        .all(|g| g.as_slice().iter().all(|v| v.is_finite()))
}

/// Per-cluster decision gradients plus the (round-scaled) predictions
/// they were computed at: `(∂L/∂t̂, ∂L/∂â, t̂, â)`.
type ClusterGradients = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

/// A recovery action taken by the guarded training loop.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryEvent {
    /// A cluster produced no usable decision gradient this round (singular
    /// KKT system or non-finite zeroth-order estimate) and was skipped.
    SkippedCluster {
        /// Training round (0-based).
        round: usize,
        /// Cluster whose gradient was dropped.
        cluster: usize,
    },
    /// A gradient seed came out non-finite after pullback/clipping; the
    /// affected optimizer step was skipped.
    SkippedGradient {
        /// Training round (0-based).
        round: usize,
        /// Cluster whose step was skipped.
        cluster: usize,
    },
    /// The round loss spiked (or went non-finite); predictors and
    /// optimizer states were rolled back to the last healthy snapshot.
    Rollback {
        /// Training round (0-based).
        round: usize,
        /// The offending loss value (may be NaN/∞).
        loss: f64,
        /// The recent-loss baseline the spike was measured against.
        baseline: f64,
    },
    /// A periodic checkpoint was written to disk.
    Checkpoint {
        /// Training round (0-based) after which the checkpoint was taken.
        round: usize,
    },
    /// Training resumed from an on-disk checkpoint instead of the
    /// supervised warm start.
    Resumed,
    /// A cached warm-start state was poisoned (non-finite entries) or no
    /// longer matched the round's problem shape; the affected solve ran
    /// cold instead and the stale state was evicted.
    StaleWarmStart {
        /// Training round (0-based).
        round: usize,
        /// The cluster whose spliced-problem warm start went stale, or
        /// `None` when a shared (all-predicted / all-measured) round
        /// solve's cache entry did.
        cluster: Option<usize>,
    },
    /// A round's measured optimum was rejected as a dual-head training
    /// sample (shape mismatch, non-finite entries, or out-of-scale
    /// duals); the head's weights were left untouched for the round.
    BadDualSample {
        /// Training round (0-based).
        round: usize,
    },
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryEvent::SkippedCluster { round, cluster } => {
                write!(
                    f,
                    "round {round}: cluster {cluster} gradient unavailable, skipped"
                )
            }
            RecoveryEvent::SkippedGradient { round, cluster } => {
                write!(
                    f,
                    "round {round}: cluster {cluster} non-finite seed, step skipped"
                )
            }
            RecoveryEvent::Rollback {
                round,
                loss,
                baseline,
            } => {
                write!(
                    f,
                    "round {round}: loss {loss:.4} spiked past baseline {baseline:.4}, rolled back"
                )
            }
            RecoveryEvent::Checkpoint { round } => write!(f, "round {round}: checkpoint written"),
            RecoveryEvent::Resumed => write!(f, "resumed from checkpoint"),
            RecoveryEvent::StaleWarmStart { round, cluster } => match cluster {
                Some(i) => write!(
                    f,
                    "round {round}: cluster {i} warm-start state stale, solved cold"
                ),
                None => write!(
                    f,
                    "round {round}: shared-solve warm-start entry stale, solved cold"
                ),
            },
            RecoveryEvent::BadDualSample { round } => write!(
                f,
                "round {round}: measured optimum rejected as dual-head sample, head untouched"
            ),
        }
    }
}

/// Diagnostics from an MFCP training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Relaxed regret loss (Eq. 12's upper level) per round. Rounds that
    /// triggered a rollback record the observed (spiked) value.
    pub loss_history: Vec<f64>,
    /// Validation (discrete regret) at each validation checkpoint.
    pub validation_history: Vec<f64>,
    /// The round whose snapshot was ultimately returned.
    pub best_round: usize,
    /// Recovery actions, in the order they happened.
    pub recovery: Vec<RecoveryEvent>,
}

impl TrainReport {
    /// Number of loss-spike rollbacks that occurred during training.
    pub fn rollbacks(&self) -> usize {
        self.recovery
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::Rollback { .. }))
            .count()
    }

    /// Rounds (0-based) whose updates were rolled back.
    pub fn rolled_back_rounds(&self) -> Vec<usize> {
        self.recovery
            .iter()
            .filter_map(|e| match e {
                RecoveryEvent::Rollback { round, .. } => Some(*round),
                _ => None,
            })
            .collect()
    }
}

/// Writes every cluster predictor to `<dir>/cluster_<i>.mfcp` (creating
/// `dir` if needed). Each per-cluster file is written atomically
/// (temp-file + fsync + rename via [`mfcp_nn::persist::atomic_write`]),
/// so a crash mid-save never corrupts an existing file; the write is
/// still not atomic *across* clusters, and resume validates completeness
/// before using any of it.
pub fn write_checkpoint(dir: &Path, predictors: &[ClusterPredictor]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (i, p) in predictors.iter().enumerate() {
        mfcp_nn::persist::atomic_write(dir.join(format!("cluster_{i}.mfcp")), &p.to_document())
            .map_err(|e| match e {
                mfcp_nn::persist::PersistError::Io(io) => io,
                other => std::io::Error::other(other.to_string()),
            })?;
    }
    Ok(())
}

/// Loads a complete `clusters`-wide checkpoint written by
/// [`write_checkpoint`]; any missing or corrupt file fails the whole load.
pub fn load_checkpoint(
    dir: &Path,
    clusters: usize,
) -> Result<Vec<ClusterPredictor>, Box<dyn std::error::Error>> {
    let mut predictors = Vec::with_capacity(clusters);
    for i in 0..clusters {
        let text = std::fs::read_to_string(dir.join(format!("cluster_{i}.mfcp")))?;
        predictors.push(ClusterPredictor::from_document(&text)?);
    }
    Ok(predictors)
}

/// Discrete-regret validation: match each validation round with the
/// current predictors and compare makespans against the exact optimum on
/// the *measured* matrices.
fn validation_regret(
    predictors: &[ClusterPredictor],
    train: &PlatformDataset,
    times_scaled: &Matrix,
    val_rounds: &[Vec<usize>],
    cfg: &MfcpTrainConfig,
    speedup: &[SpeedupCurve],
) -> f64 {
    use mfcp_optim::exact::{solve_exact, ExactOptions};
    use mfcp_optim::rounding::solve_discrete;
    let m = train.clusters();
    let mut total = 0.0;
    for idx in val_rounds {
        let n = idx.len();
        let features =
            Matrix::from_fn(n, train.features.cols(), |r, c| train.features[(idx[r], c)]);
        let t_meas = Matrix::from_fn(m, n, |i, j| times_scaled[(i, idx[j])]);
        let a_meas = Matrix::from_fn(m, n, |i, j| train.reliability[(i, idx[j])]);
        let problem_true =
            MatchingProblem::with_speedup(t_meas, a_meas, cfg.gamma, speedup.to_vec());
        let (t_hat, a_hat) = predicted_matrices(predictors, &features);
        let scale = t_hat.mean().max(1e-9);
        let problem_pred = MatchingProblem::with_speedup(
            t_hat.scale(1.0 / scale),
            a_hat,
            cfg.gamma,
            speedup.to_vec(),
        );
        let assignment = solve_discrete(&problem_pred, &cfg.relaxation, &cfg.solver);
        let optimal = solve_exact(&problem_true, &ExactOptions::default());
        total += (assignment.makespan(&problem_true) - optimal.assignment.makespan(&problem_true))
            .max(0.0);
    }
    total / val_rounds.len().max(1) as f64
}

/// Trains one cluster's predictor pair by MSE. Time targets are given in
/// *scaled* units and regressed in log space (the time head predicts
/// `log t`).
fn train_cluster_supervised(
    features: &Matrix,
    times_scaled: &Matrix,
    reliability: &Matrix,
    cfg: &TsmTrainConfig,
    seed: u64,
) -> ClusterPredictor {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut predictor = ClusterPredictor::new(features.cols(), &cfg.hidden, &mut rng);
    let mut opt_t = Adam::new(cfg.lr);
    let mut opt_a = Adam::new(cfg.lr);
    let n = features.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let epoch_counter = mfcp_obs::counter("train.supervised.epochs");
    for _ in 0..cfg.epochs {
        epoch_counter.inc();
        mfcp_nn::data::shuffle(&mut order, &mut rng);
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let xb = Matrix::from_fn(chunk.len(), features.cols(), |r, c| features[(chunk[r], c)]);
            let tb = Matrix::from_fn(chunk.len(), 1, |r, _| {
                times_scaled[(chunk[r], 0)].max(1e-9).ln()
            });
            let ab = Matrix::from_fn(chunk.len(), 1, |r, _| reliability[(chunk[r], 0)]);

            let mut g = Graph::new();
            let xi = g.input(xb.clone());
            let pass = predictor.time_model.forward(&mut g, xi);
            let ti = g.input(tb);
            let loss = cfg.time_loss.build(&mut g, pass.output, ti);
            g.backward(loss);
            let grads = predictor.time_model.grads(&g, &pass);
            if grads_finite(&grads) {
                let mut params = predictor.time_model.params_mut();
                opt_t.step(&mut params, &grads);
            }

            let mut g = Graph::new();
            let xi = g.input(xb);
            let pass = predictor.rel_model.forward(&mut g, xi);
            let ai = g.input(ab);
            let loss = g.mse(pass.output, ai);
            g.backward(loss);
            let grads = predictor.rel_model.grads(&g, &pass);
            if grads_finite(&grads) {
                let mut params = predictor.rel_model.params_mut();
                opt_a.step(&mut params, &grads);
            }
        }
    }
    predictor
}

/// Trains the TSM baseline: per-cluster MSE predictors (clusters train in
/// parallel).
pub fn train_tsm(train: &PlatformDataset, cfg: &TsmTrainConfig, seed: u64) -> TsmPredictor {
    let m = train.clusters();
    let time_scale = train.times.mean().max(1e-9);
    let cluster_ids: Vec<usize> = (0..m).collect();
    let predictors = par_map(&cfg.parallel, &cluster_ids, |&i| {
        let data = train.cluster_data(i);
        let times_scaled = data.times.scale(1.0 / time_scale);
        train_cluster_supervised(
            &data.features,
            &times_scaled,
            &data.reliability,
            cfg,
            seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15),
        )
    });
    TsmPredictor {
        predictors,
        time_scale,
    }
}

/// Trains the ensemble UCB extension: `members` independently seeded TSM
/// fits wrapped in [`EnsembleUcbPredictor`].
pub fn train_ensemble_ucb(
    train: &PlatformDataset,
    cfg: &TsmTrainConfig,
    members: usize,
    kappa: f64,
    seed: u64,
) -> EnsembleUcbPredictor {
    assert!(members >= 1);
    let fits: Vec<TsmPredictor> = (0..members)
        .map(|e| train_tsm(train, cfg, seed.wrapping_add(1000 + e as u64)))
        .collect();
    EnsembleUcbPredictor::new(fits, kappa)
}

/// Trains the UCB baseline: TSM plus residual confidence widths.
pub fn train_ucb(
    train: &PlatformDataset,
    cfg: &TsmTrainConfig,
    kappa: f64,
    seed: u64,
) -> UcbPredictor {
    let tsm = train_tsm(train, cfg, seed);
    UcbPredictor::from_tsm(tsm, train, kappa)
}

/// Builds the per-cluster speedup vector for `m` clusters from a config
/// (empty config ⇒ sequential execution).
fn speedup_vec(cfg: &MfcpTrainConfig, m: usize) -> Vec<SpeedupCurve> {
    if cfg.speedup.is_empty() {
        vec![SpeedupCurve::None; m]
    } else {
        assert_eq!(cfg.speedup.len(), m, "one speedup curve per cluster");
        cfg.speedup.clone()
    }
}

/// Rounds a stored per-task column survives without being refreshed;
/// beyond this it is dropped as stale (the predictors have drifted too
/// far for the old assignment to be a useful seed).
const TASK_COLUMN_MAX_AGE: usize = 8;

/// True when `col` is a valid simplex column of height `m`.
fn valid_column(col: &[f64], m: usize) -> bool {
    col.len() == m
        && col.iter().all(|v| v.is_finite() && *v >= -1e-9)
        && (col.iter().sum::<f64>() - 1.0).abs() <= 1e-6
}

/// Per-task (per-sample) warm-start columns for one family of round
/// solves. Rounds resample task subsets, so whole solution matrices do
/// not transfer between rounds — but a task's *column* (its assignment
/// distribution) does: it is keyed here by global task index and spliced
/// into the next round that samples the task.
#[derive(Debug, Clone, Default)]
pub struct TaskColumns {
    /// `task index -> (round the column was stored at, column)`.
    cols: HashMap<usize, (usize, Vec<f64>)>,
}

/// What building a warm seed from [`TaskColumns`] found.
struct SeedOutcome {
    /// The carried seed (uniform columns for unseen tasks), or `None`
    /// when no sampled task had a usable cached column.
    seed: Option<Seed>,
    /// Sampled tasks with a valid cached column.
    hits: u64,
    /// Sampled tasks never seen (or aged out) by this family.
    misses: u64,
    /// Cached columns evicted as poisoned or past the staleness bound.
    stale: u64,
}

impl TaskColumns {
    /// Number of tasks with a cached column.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when no column is cached.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Inserts a raw column for `task` (stamped at round 0). Validation
    /// happens at seed time, so poisoned state injected here is detected
    /// and evicted on the next lookup — used by tests and by callers
    /// migrating state between cache instances.
    pub fn insert(&mut self, task: usize, column: Vec<f64>) {
        self.cols.insert(task, (0, column));
    }

    /// Builds a warm-start seed for the sampled tasks `idx` on `m`
    /// clusters, evicting any stale or poisoned columns encountered.
    ///
    /// `fallback` is a same-round solution of a nearby problem over the
    /// *same* task subset (e.g. the all-measured optimum when seeding a
    /// cluster's one-row-spliced solve): columns the cache cannot supply
    /// are taken from it instead of the uniform point, so the seed has
    /// full coverage even on the first round. Fallback columns are not
    /// counted as cache hits — the miss still records that the task's
    /// own column was absent.
    fn seed(
        &mut self,
        idx: &[usize],
        m: usize,
        round: usize,
        fallback: Option<&Matrix>,
    ) -> SeedOutcome {
        let uniform = 1.0 / m as f64;
        let fallback = fallback.filter(|f| f.rows() == m && f.cols() == idx.len());
        let mut x0 = Matrix::filled(m, idx.len(), uniform);
        let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
        for (j, &task) in idx.iter().enumerate() {
            let cached = match self.cols.get(&task) {
                None => {
                    misses += 1;
                    false
                }
                Some((stored_at, col)) => {
                    if round.saturating_sub(*stored_at) > TASK_COLUMN_MAX_AGE
                        || !valid_column(col, m)
                    {
                        self.cols.remove(&task);
                        stale += 1;
                        false
                    } else {
                        for (i, &v) in col.iter().enumerate() {
                            x0[(i, j)] = v.max(0.0);
                        }
                        hits += 1;
                        true
                    }
                }
            };
            if !cached {
                if let Some(f) = fallback {
                    for i in 0..m {
                        x0[(i, j)] = f[(i, j)].max(0.0);
                    }
                }
            }
        }
        SeedOutcome {
            seed: (hits > 0 || fallback.is_some()).then_some(Seed {
                x: x0,
                kind: SeedKind::Carried,
            }),
            hits,
            misses,
            stale,
        }
    }

    /// Stores the solved columns of `x` under the sampled task indices.
    fn store(&mut self, idx: &[usize], x: &Matrix, round: usize) {
        if x.rows() == 0 || x.cols() != idx.len() {
            return;
        }
        for (j, &task) in idx.iter().enumerate() {
            let col = x.col(j);
            if valid_column(&col, x.rows()) {
                self.cols.insert(task, (round, col));
            }
        }
    }
}

/// Cross-round (and cross-run) warm-start state for [`train_mfcp`]: one
/// [`TaskColumns`] family per distinct round-solve problem shape — the
/// shared all-predicted and all-measured solves plus each cluster's
/// spliced problem. Every cached column is re-validated before use; a
/// poisoned one triggers a cold seed plus a
/// [`RecoveryEvent::StaleWarmStart`], never a panic or a wrong answer.
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    /// Columns for the all-predicted shared solve.
    pub pred: TaskColumns,
    /// Columns for the all-measured shared solve.
    pub meas: TaskColumns,
    /// Columns for each cluster's spliced-prediction solve.
    pub clusters: Vec<TaskColumns>,
    /// Aggregate hit/miss/stale accounting across all families.
    pub stats: CacheStats,
}

impl SolveCache {
    /// An empty cache; fills lazily as training rounds complete.
    pub fn new() -> Self {
        SolveCache::default()
    }
}

/// Folds a [`SeedOutcome`]'s accounting into the cache stats and the
/// `cache.*` observability counters.
fn record_seed(outcome: &SeedOutcome, stats: &mut CacheStats) {
    stats.hits += outcome.hits;
    stats.misses += outcome.misses;
    stats.stale += outcome.stale;
    if outcome.hits > 0 {
        mfcp_obs::counter("cache.hit").add(outcome.hits);
    }
    if outcome.misses > 0 {
        mfcp_obs::counter("cache.miss").add(outcome.misses);
    }
    if outcome.stale > 0 {
        mfcp_obs::counter("cache.stale").add(outcome.stale);
        mfcp_obs::trace::instant("train.warm_stale", Some(outcome.stale));
    }
}

/// Solves one shared round problem through its [`TaskColumns`] family:
/// seeds Algorithm 1 from the cached per-task columns when any are
/// available, then stores the solved columns back. Returns the solution
/// and whether any cached column went stale (caller reports the event).
fn solve_family_warm(
    problem: &MatchingProblem,
    cfg: &MfcpTrainConfig,
    idx: &[usize],
    round: usize,
    family: &mut TaskColumns,
    stats: &mut CacheStats,
    fallback: Option<&Matrix>,
) -> (RelaxedSolution, bool) {
    let outcome = family.seed(idx, problem.clusters(), round, fallback);
    record_seed(&outcome, stats);
    let x0 = Seed::start(outcome.seed.as_ref(), problem.clusters(), problem.tasks());
    let sol = solve_relaxed_from(problem, &cfg.relaxation, &cfg.solver, x0);
    family.store(idx, &sol.x, round);
    (sol, outcome.stale > 0)
}

/// The end-to-end MFCP training loop (paper Fig. 3 / Algorithm 2).
///
/// Each round samples `N = round_size` tasks, and for each cluster `i`
/// splices that cluster's *predictions* into the otherwise-measured
/// matrices (Algorithm 2 line 3), solves the relaxed matching, forms the
/// regret gradient `∂L/∂X* = (1/N)·∇_X F(X, T, A)` under the measured
/// matrices, pulls it back to `∂L/∂t̂_i`, `∂L/∂â_i` through the matching
/// layer (analytically or by forward gradients), and finally
/// backpropagates into the predictor parameters.
///
/// With [`MfcpTrainConfig::solve_cache`] set, round solves warm-start
/// from a run-local [`SolveCache`]; use [`train_mfcp_with_cache`] to
/// carry that state across calls.
pub fn train_mfcp(
    train: &PlatformDataset,
    cfg: &MfcpTrainConfig,
    seed: u64,
) -> (MfcpPredictor, TrainReport) {
    if cfg.solve_cache {
        let mut cache = SolveCache::new();
        train_mfcp_impl(train, cfg, seed, Some(&mut cache), None)
    } else {
        train_mfcp_impl(train, cfg, seed, None, None)
    }
}

/// [`train_mfcp`] with caller-owned warm-start state, used regardless of
/// [`MfcpTrainConfig::solve_cache`]. Successive re-trainings on a live
/// platform (same cluster set, fresh measurements) can pass the same
/// `cache` so the first rounds of the next run already warm-start.
pub fn train_mfcp_with_cache(
    train: &PlatformDataset,
    cfg: &MfcpTrainConfig,
    seed: u64,
    cache: &mut SolveCache,
) -> (MfcpPredictor, TrainReport) {
    train_mfcp_impl(train, cfg, seed, Some(cache), None)
}

/// [`train_mfcp`] with a caller-owned [`LearnedDualHead`], trained
/// online from the duals of each round's measured solve (regardless of
/// [`MfcpTrainConfig::learned_duals`]). The head must be sized for the
/// dataset's cluster count. Successive re-trainings can pass the same
/// head so it keeps refining on fresh measurements; hand the trained
/// head to the serve daemon to seed newcomer columns on unseen
/// instances.
pub fn train_mfcp_with_dual_head(
    train: &PlatformDataset,
    cfg: &MfcpTrainConfig,
    seed: u64,
    head: &mut LearnedDualHead,
) -> (MfcpPredictor, TrainReport) {
    if cfg.solve_cache {
        let mut cache = SolveCache::new();
        train_mfcp_impl(train, cfg, seed, Some(&mut cache), Some(head))
    } else {
        train_mfcp_impl(train, cfg, seed, None, Some(head))
    }
}

fn train_mfcp_impl(
    train: &PlatformDataset,
    cfg: &MfcpTrainConfig,
    seed: u64,
    mut cache: Option<&mut SolveCache>,
    head: Option<&mut LearnedDualHead>,
) -> (MfcpPredictor, TrainReport) {
    let _span = mfcp_obs::span("train_mfcp");
    let m = train.clusters();
    assert!(
        train.len() >= cfg.round_size,
        "need at least one full round of tasks"
    );
    let mut local_head = if head.is_none() && cfg.learned_duals {
        Some(LearnedDualHead::new(m, seed.wrapping_add(0xD0A1)))
    } else {
        None
    };
    let mut head = head.or(local_head.as_mut());
    let speedup = speedup_vec(cfg, m);
    if let Some(c) = cache.as_deref_mut() {
        c.clusters.resize(m, TaskColumns::default());
    }

    // Hold out a validation slice for best-snapshot selection. Validating
    // on the fitting tasks is useless: the warm start memorizes their
    // measured values and can never be beaten there, while the decision
    // phase's gains only show on unseen tasks.
    let mut val_rng = StdRng::seed_from_u64(seed.wrapping_add(0x7A11));
    let use_validation = cfg.validation_rounds > 0;
    let use_split =
        use_validation && cfg.validation_split > 0.0 && train.len() >= 2 * cfg.round_size.max(4);
    let (fit, val) = if use_split {
        train.split(1.0 - cfg.validation_split, &mut val_rng)
    } else {
        (train.clone(), train.clone())
    };
    let fit = &fit;

    let mut report = TrainReport::default();

    // Phase 1: supervised warm start (standard DFL practice — start the
    // decision-focused phase from sensible point predictions), unless a
    // complete checkpoint is available to resume from. The time scale is
    // a dataset statistic, not a model parameter, so a resumed run
    // recomputes the same value the checkpointed run used.
    let resumed: Option<Vec<ClusterPredictor>> = if cfg.resume {
        cfg.checkpoint_dir
            .as_deref()
            .and_then(|dir| load_checkpoint(dir, m).ok())
    } else {
        None
    };
    let (time_scale, mut predictors) = match resumed {
        Some(predictors) => {
            report.recovery.push(RecoveryEvent::Resumed);
            (fit.times.mean().max(1e-9), predictors)
        }
        None => {
            let _warm_span = mfcp_obs::span("warm_start");
            let warm = train_tsm(fit, &cfg.warm_start, seed);
            (warm.time_scale, warm.predictors)
        }
    };

    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xDF));
    let mut opt_t: Vec<Adam> = (0..m).map(|_| Adam::new(cfg.lr)).collect();
    let mut opt_a: Vec<Adam> = (0..m).map(|_| Adam::new(cfg.lr)).collect();

    // All matching happens in scaled time units so β, λ, ρ are
    // well-conditioned regardless of the platform's absolute time scale.
    let times_scaled = fit.times.scale(1.0 / time_scale);
    let val_times_scaled = val.times.scale(1.0 / time_scale);

    // Fixed validation rounds: decision gradients are noisy (sampled
    // rounds, near-vertex solutions), so the final iterate is not
    // necessarily the best one.
    let val_rounds: Vec<Vec<usize>> = if use_validation {
        (0..cfg.validation_rounds)
            .map(|_| sample_round_indices(val.len(), cfg.round_size.min(val.len()), &mut val_rng))
            .collect()
    } else {
        Vec::new()
    };
    let mut best_score = if val_rounds.is_empty() {
        f64::INFINITY
    } else {
        let _val_span = mfcp_obs::span("validation");
        validation_regret(
            &predictors,
            &val,
            &val_times_scaled,
            &val_rounds,
            cfg,
            &speedup,
        )
    };
    let mut best_predictors = predictors.clone();
    let mut best_round = 0usize;
    report.validation_history.push(best_score);

    // Loss-spike guard state: a sliding window of recently accepted
    // losses forms the baseline, and `last_good` holds the newest
    // predictor + optimizer snapshot whose loss cleared the guard.
    // Optimizer states roll back together with the parameters — restoring
    // weights under stale Adam momentum would immediately replay the
    // destructive step.
    let spike_window = 8usize;
    let mut recent_losses: VecDeque<f64> = VecDeque::with_capacity(spike_window);
    let mut last_good = (predictors.clone(), opt_t.clone(), opt_a.clone());

    for round in 0..cfg.rounds {
        let _round_span = mfcp_obs::span("round");
        mfcp_obs::counter("train.rounds").inc();
        // ---- sample a round of N tasks --------------------------------
        let mut idx: Vec<usize> = (0..fit.len()).collect();
        mfcp_nn::data::shuffle(&mut idx, &mut rng);
        idx.truncate(cfg.round_size);
        let n = idx.len();
        let features = Matrix::from_fn(n, fit.features.cols(), |r, c| fit.features[(idx[r], c)]);
        // Per-round normalization: divide this round's times (measured
        // and predicted alike) by the round's mean measured time, so the
        // smooth-max temperature β sees O(1) values regardless of which
        // tasks were drawn. The normalizer depends only on measured data,
        // so it is a constant w.r.t. the predictor parameters.
        let data_ok = idx.iter().all(|&j| {
            (0..m).all(|i| {
                let t = times_scaled[(i, j)];
                let a = fit.reliability[(i, j)];
                t.is_finite() && t >= 0.0 && a.is_finite()
            })
        });
        // Corrupt measurements (a NaN probe, a wrapped timer) would trip
        // the matching layer's input asserts, so a poisoned round gets
        // bland finite stand-ins here and is rejected by the spike guard
        // below via a NaN loss — no update ever sees the bad data.
        let t_meas_raw = Matrix::from_fn(m, n, |i, j| {
            let v = times_scaled[(i, idx[j])];
            if v.is_finite() && v >= 0.0 {
                v
            } else {
                1.0
            }
        });
        let round_scale = t_meas_raw.mean().max(1e-9);
        let t_meas = t_meas_raw.scale(1.0 / round_scale);
        let a_meas = Matrix::from_fn(m, n, |i, j| {
            let v = fit.reliability[(i, idx[j])];
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.5
            }
        });
        let problem_true = MatchingProblem::with_speedup(
            t_meas.clone(),
            a_meas.clone(),
            cfg.gamma,
            speedup.clone(),
        );

        // ---- loss bookkeeping (all-clusters-predicted regret) ----------
        let (t_all, a_all) = predicted_matrices(&predictors, &features);
        let problem_all = MatchingProblem::with_speedup(
            t_all.scale(1.0 / round_scale),
            a_all,
            cfg.gamma,
            speedup.clone(),
        );
        let (sol_pred_all, sol_true) = if let Some(c) = cache.as_deref_mut() {
            // Measured solve first: its optimum backstops the per-cluster
            // seeds below (those problems differ from it in one row). The
            // all-predicted solve gets no fallback — early in training the
            // predicted matrices sit far from the measured ones, so the
            // measured optimum is a worse seed than uniform there; its own
            // family's cached columns cover it from the second round on.
            let (sol_true, stale_meas) = solve_family_warm(
                &problem_true,
                cfg,
                &idx,
                round,
                &mut c.meas,
                &mut c.stats,
                None,
            );
            let (sol_pred_all, stale_pred) = solve_family_warm(
                &problem_all,
                cfg,
                &idx,
                round,
                &mut c.pred,
                &mut c.stats,
                None,
            );
            if stale_pred || stale_meas {
                report.recovery.push(RecoveryEvent::StaleWarmStart {
                    round,
                    cluster: None,
                });
            }
            (sol_pred_all, sol_true)
        } else {
            (
                solve_relaxed(&problem_all, &cfg.relaxation, &cfg.solver),
                solve_relaxed(&problem_true, &cfg.relaxation, &cfg.solver),
            )
        };

        // ---- online dual-head training ---------------------------------
        // The measured optimum is ground truth for the learned-duals
        // warm-start path: its per-column duals are exactly what the head
        // must predict for unseen siblings of this round's instance.
        // `observe` rejects poisoned samples without touching the weights.
        if let Some(h) = head.as_deref_mut() {
            if h.observe(&problem_true, &cfg.relaxation, &sol_true.x)
                .is_none()
            {
                report.recovery.push(RecoveryEvent::BadDualSample { round });
            }
        }

        let loss = if data_ok {
            (objective::value(&problem_true, &cfg.relaxation, &sol_pred_all.x)
                - objective::value(&problem_true, &cfg.relaxation, &sol_true.x))
                / n as f64
        } else {
            f64::NAN
        };
        report.loss_history.push(loss);
        mfcp_obs::histogram("train.round.loss").record(loss);

        // ---- loss-spike guard ------------------------------------------
        // The loss is computed *before* this round's update, so a spike
        // indicts an earlier accepted step: restore the last snapshot
        // whose loss cleared the guard and sit this round out.
        let baseline = if recent_losses.is_empty() {
            f64::INFINITY
        } else {
            recent_losses.iter().sum::<f64>() / recent_losses.len() as f64
        };
        let spiked = !loss.is_finite()
            || (recent_losses.len() >= 3
                && loss > cfg.spike_factor * baseline.abs() + cfg.spike_slack);
        if spiked {
            mfcp_obs::counter("train.rollbacks").inc();
            mfcp_obs::trace::instant("train.rollback", Some(round as u64));
            report.recovery.push(RecoveryEvent::Rollback {
                round,
                loss,
                baseline,
            });
            predictors = last_good.0.clone();
            opt_t = last_good.1.clone();
            opt_a = last_good.2.clone();
        } else {
            if recent_losses.len() == spike_window {
                recent_losses.pop_front();
            }
            recent_losses.push_back(loss);
            last_good = (predictors.clone(), opt_t.clone(), opt_a.clone());
        }

        let update_time = !spiked && (!cfg.alternating || round % 2 == 0);
        let update_rel = !spiked && (!cfg.alternating || round % 2 == 1);

        // ---- per-cluster decision gradients (parallel) ------------------
        // Each cluster's matching solve and gradient pullback is
        // independent of the others (Algorithm 2 fixes all other rows at
        // measured values), so the expensive part fans out across batch
        // slots (panic-isolated: a poisoned slot becomes a SkippedCluster,
        // not a dead round); the optimizer steps below stay sequential.
        //
        // Build per-cluster warm seeds from each cluster family's cached
        // task columns, evicting any state that no longer validates.
        // Each cluster's spliced problem differs from `problem_true` in a
        // single row, so the measured optimum backstops any column the
        // cluster family cannot supply — full-coverage seeds from round
        // one onward.
        let use_cache = cache.is_some();
        let mut cluster_warm: Vec<Option<Seed>> = vec![None; m];
        if !spiked {
            if let Some(c) = cache.as_deref_mut() {
                for (i, slot) in cluster_warm.iter_mut().enumerate() {
                    let outcome = c.clusters[i].seed(&idx, m, round, Some(&sol_true.x));
                    record_seed(&outcome, &mut c.stats);
                    *slot = outcome.seed;
                    if outcome.stale > 0 {
                        report.recovery.push(RecoveryEvent::StaleWarmStart {
                            round,
                            cluster: Some(i),
                        });
                    }
                }
            }
        }
        let cluster_seeds: Vec<(usize, u64)> = (0..m).map(|i| (i, rng.gen::<u64>())).collect();
        let batch_out = if spiked {
            Vec::new() // rolled back: no updates this round
        } else {
            solve_batch(
                &ParallelConfig::default(),
                &cluster_seeds,
                |_, &(i, fg_seed)| {
                    let t_hat: Vec<f64> = predictors[i]
                        .predict_times(&features)
                        .into_iter()
                        .map(|v| v / round_scale)
                        .collect();
                    let a_hat: Vec<f64> = predictors[i]
                        .predict_reliability(&features)
                        .into_iter()
                        .map(|v| v.clamp(0.0, 1.0))
                        .collect();
                    let problem_pred = problem_true
                        .with_time_row(i, &t_hat)
                        .with_reliability_row(i, &a_hat);
                    let sol = solve_relaxed_from(
                        &problem_pred,
                        &cfg.relaxation,
                        &cfg.solver,
                        Seed::start(cluster_warm[i].as_ref(), m, n),
                    );
                    // Hand the optimum back even when the gradient below
                    // fails — it still seeds next round's solve (store
                    // validates column by column).
                    let keep_x = use_cache.then(|| sol.x.clone());

                    // ∂L/∂X* = (1/N)·∇_X F(X, T_meas, A_meas) at X = X*(T̂, Â).
                    let dl_dx = objective::grad_x(&problem_true, &cfg.relaxation, &sol.x)
                        .scale(1.0 / n as f64);

                    let grads = match &cfg.mode {
                        GradientMode::Analytic => {
                            // One KKT workspace per worker thread keeps the
                            // backward pass allocation-free across rounds
                            // without sharing mutable state between the
                            // batch closures.
                            thread_local! {
                                static KKT_WS: std::cell::RefCell<kkt::KktWorkspace> =
                                    std::cell::RefCell::new(kkt::KktWorkspace::new());
                            }
                            // A singular KKT system (a fully collapsed vertex
                            // solution) carries no usable gradient — skip the
                            // round for this cluster rather than aborting.
                            match KKT_WS.with(|ws| {
                                kkt::implicit_gradients_with(
                                    &problem_pred,
                                    &cfg.relaxation,
                                    &sol.x,
                                    &dl_dx,
                                    &mut ws.borrow_mut(),
                                )
                            }) {
                                Ok(g) => (g.dl_dt.row(i).to_vec(), g.dl_da.row(i).to_vec()),
                                Err(_) => return (None, keep_x),
                            }
                        }
                        GradientMode::ForwardGradient(zo) => {
                            let mut fg_rng = StdRng::seed_from_u64(fg_seed);
                            // Perturbed problems sit within O(δ) of the
                            // unperturbed optimum — share it as a common
                            // warm start across all S perturbation solves.
                            let carried = use_cache.then(|| Seed {
                                x: sol.x.clone(),
                                kind: SeedKind::Carried,
                            });
                            let x0 = Seed::start(carried.as_ref(), m, n);
                            let solve_t = |theta: &[f64]| {
                                let p = problem_pred.with_time_row(
                                    i,
                                    &theta.iter().map(|&v| v.max(1e-6)).collect::<Vec<_>>(),
                                );
                                solve_relaxed_from(&p, &cfg.relaxation, &cfg.solver, x0.clone()).x
                            };
                            let solve_a = |theta: &[f64]| {
                                let p = problem_pred.with_reliability_row(i, theta);
                                solve_relaxed_from(&p, &cfg.relaxation, &cfg.solver, x0.clone()).x
                            };
                            // estimate_gradient runs the S perturbation
                            // solves under the caller's `zo.parallel`
                            // directly: the probe directions are pre-drawn
                            // sequentially and the summation order is fixed,
                            // so the estimate is bitwise identical at any
                            // thread count.
                            let gt = if update_time {
                                estimate_gradient(&t_hat, &sol.x, &dl_dx, solve_t, zo, &mut fg_rng)
                            } else {
                                vec![0.0; n]
                            };
                            let ga = if update_rel {
                                estimate_gradient(&a_hat, &sol.x, &dl_dx, solve_a, zo, &mut fg_rng)
                            } else {
                                vec![0.0; n]
                            };
                            (gt, ga)
                        }
                    };
                    (Some((grads.0, grads.1, t_hat, a_hat)), keep_x)
                },
            )
        };
        // Unpack in slot order: refresh the per-cluster warm state and
        // fold panicked slots into the existing skipped-cluster path.
        let mut cluster_grads: Vec<Option<ClusterGradients>> = Vec::with_capacity(batch_out.len());
        for (i, slot) in batch_out.into_iter().enumerate() {
            match slot {
                Ok((grad, new_x)) => {
                    if let Some(c) = cache.as_deref_mut() {
                        if let Some(x) = new_x {
                            c.clusters[i].store(&idx, &x, round);
                        }
                    }
                    cluster_grads.push(grad);
                }
                Err(_slot_panic) => cluster_grads.push(None),
            }
        }

        // ---- sequential optimizer steps ---------------------------------
        for (i, cluster_grad) in cluster_grads.into_iter().enumerate() {
            let Some((dl_dt_i, dl_da_i, t_hat, a_hat)) = cluster_grad else {
                mfcp_obs::counter("train.skipped_clusters").inc();
                report
                    .recovery
                    .push(RecoveryEvent::SkippedCluster { round, cluster: i });
                continue;
            };

            if update_time {
                // Chain through the exponential head: out = log t̂, so
                // ∂L/∂out = ∂L/∂t̂ · t̂ (units cancel: t_hat is already in
                // round-scaled units, matching dl_dt_i). Blend in the MSE
                // anchor in log space: ∂/∂out mean((out − log t_meas)²).
                let mut seed: Vec<f64> = (0..n).map(|r| dl_dt_i[r] * t_hat[r]).collect();
                let clipped = clip_l2(&mut seed, cfg.grad_clip);
                mfcp_obs::histogram("train.grad_norm.time").record(clipped);
                if cfg.mse_anchor > 0.0 {
                    for (r, s) in seed.iter_mut().enumerate() {
                        let out = (t_hat[r] * round_scale).max(1e-12).ln();
                        let target = t_meas[(i, r)].max(1e-12).ln() + round_scale.ln();
                        *s += cfg.mse_anchor * 2.0 * (out - target) / n as f64;
                    }
                }
                if seed.iter().any(|v| !v.is_finite()) {
                    mfcp_obs::counter("train.skipped_gradients").inc();
                    report
                        .recovery
                        .push(RecoveryEvent::SkippedGradient { round, cluster: i });
                } else if clipped > 0.0 || cfg.mse_anchor > 0.0 {
                    let seed_grad = Matrix::from_fn(n, 1, |r, _| seed[r]);
                    let mut g = Graph::new();
                    let xi = g.input(features.clone());
                    let pass = predictors[i].time_model.forward(&mut g, xi);
                    g.backward_with_seed(pass.output, seed_grad);
                    let grads = predictors[i].time_model.grads(&g, &pass);
                    let mut params = predictors[i].time_model.params_mut();
                    opt_t[i].step(&mut params, &grads);
                }
            }
            if update_rel {
                let mut seed: Vec<f64> = dl_da_i.clone();
                let clipped = clip_l2(&mut seed, cfg.grad_clip);
                mfcp_obs::histogram("train.grad_norm.rel").record(clipped);
                if cfg.mse_anchor > 0.0 {
                    for (r, s) in seed.iter_mut().enumerate() {
                        *s += cfg.mse_anchor * 2.0 * (a_hat[r] - a_meas[(i, r)]) / n as f64;
                    }
                }
                if seed.iter().any(|v| !v.is_finite()) {
                    mfcp_obs::counter("train.skipped_gradients").inc();
                    report
                        .recovery
                        .push(RecoveryEvent::SkippedGradient { round, cluster: i });
                } else if clipped > 0.0 || cfg.mse_anchor > 0.0 {
                    let seed_grad = Matrix::from_fn(n, 1, |r, _| seed[r]);
                    let mut g = Graph::new();
                    let xi = g.input(features.clone());
                    let pass = predictors[i].rel_model.forward(&mut g, xi);
                    g.backward_with_seed(pass.output, seed_grad);
                    let grads = predictors[i].rel_model.grads(&g, &pass);
                    let mut params = predictors[i].rel_model.params_mut();
                    opt_a[i].step(&mut params, &grads);
                }
            }
        }

        // ---- periodic checkpoint ---------------------------------------
        if cfg.checkpoint_every > 0 && (round + 1) % cfg.checkpoint_every == 0 {
            if let Some(dir) = &cfg.checkpoint_dir {
                let _ckpt_span = mfcp_obs::span("checkpoint");
                let started = std::time::Instant::now();
                if write_checkpoint(dir, &predictors).is_ok() {
                    mfcp_obs::counter("train.checkpoints").inc();
                    mfcp_obs::histogram("train.checkpoint_secs").record_duration(started.elapsed());
                    report.recovery.push(RecoveryEvent::Checkpoint { round });
                }
            }
        }

        // ---- best-snapshot validation ----------------------------------
        let last = round + 1 == cfg.rounds;
        if !val_rounds.is_empty() && ((round + 1) % cfg.validate_every.max(1) == 0 || last) {
            let score = {
                let _val_span = mfcp_obs::span("validation");
                validation_regret(
                    &predictors,
                    &val,
                    &val_times_scaled,
                    &val_rounds,
                    cfg,
                    &speedup,
                )
            };
            mfcp_obs::histogram("train.validation.regret").record(score);
            report.validation_history.push(score);
            if score < best_score {
                best_score = score;
                best_predictors = predictors.clone();
                best_round = round + 1;
            }
        }
    }

    if !val_rounds.is_empty() {
        predictors = best_predictors;
        report.best_round = best_round;
    }

    (
        MfcpPredictor {
            predictors,
            time_scale,
            variant: match cfg.mode {
                GradientMode::Analytic => "MFCP-AD".into(),
                GradientMode::ForwardGradient(_) => "MFCP-FG".into(),
            },
        },
        report,
    )
}

/// Stacks per-cluster predictions (scaled time units) into matrices.
fn predicted_matrices(predictors: &[ClusterPredictor], features: &Matrix) -> (Matrix, Matrix) {
    let m = predictors.len();
    let n = features.rows();
    let mut t = Matrix::zeros(m, n);
    let mut a = Matrix::zeros(m, n);
    for (i, p) in predictors.iter().enumerate() {
        let ti = p.predict_times(features);
        let ai = p.predict_reliability(features);
        for j in 0..n {
            t[(i, j)] = ti[j].max(1e-6);
            a[(i, j)] = ai[j].clamp(0.0, 1.0);
        }
    }
    (t, a)
}

/// A tiny deterministic helper for picking distinct round indices in
/// benches and tests.
pub fn sample_round_indices(total: usize, round_size: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..total).collect();
    mfcp_nn::data::shuffle(&mut idx, rng);
    idx.truncate(round_size.min(total));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcp_platform::dataset::NoiseConfig;
    use mfcp_platform::embedding::FeatureEmbedder;
    use mfcp_platform::settings::{ClusterPool, Setting};
    use mfcp_platform::task::TaskGenerator;

    fn dataset(n: usize, seed: u64) -> PlatformDataset {
        let model = ClusterPool::standard().setting(Setting::A);
        let mut rng = StdRng::seed_from_u64(seed);
        PlatformDataset::generate(
            &model,
            &FeatureEmbedder::default_platform(),
            &TaskGenerator::default(),
            n,
            &NoiseConfig::default(),
            &mut rng,
        )
    }

    fn quick_tsm_cfg() -> TsmTrainConfig {
        TsmTrainConfig {
            hidden: vec![24],
            epochs: 120,
            lr: 0.01,
            batch_size: 16,
            ..Default::default()
        }
    }

    #[test]
    fn tsm_learns_better_than_mean_predictor() {
        let train = dataset(80, 1);
        let test = dataset(40, 2);
        let tsm = train_tsm(&train, &quick_tsm_cfg(), 7);
        let (t_hat, _) = tsm.matrices(&test.features);
        // Compare against predicting the per-cluster mean (TAM's view).
        let mut mse_tsm = 0.0;
        let mut mse_mean = 0.0;
        for i in 0..3 {
            let mean_i = train.times.row(i).iter().sum::<f64>() / train.len() as f64;
            for j in 0..test.len() {
                let truth = test.true_times[(i, j)];
                mse_tsm += (t_hat[(i, j)] - truth).powi(2);
                mse_mean += (mean_i - truth).powi(2);
            }
        }
        assert!(
            mse_tsm < mse_mean * 0.8,
            "TSM should clearly beat the constant predictor: {mse_tsm} vs {mse_mean}"
        );
    }

    #[test]
    fn tsm_deterministic_under_seed() {
        let train = dataset(30, 3);
        let a = train_tsm(&train, &quick_tsm_cfg(), 11);
        let b = train_tsm(&train, &quick_tsm_cfg(), 11);
        let (ta, _) = a.matrices(&train.features);
        let (tb, _) = b.matrices(&train.features);
        assert!(ta.approx_eq(&tb, 1e-12));
    }

    #[test]
    fn ucb_has_positive_widths_after_training() {
        let train = dataset(40, 4);
        let ucb = train_ucb(&train, &quick_tsm_cfg(), 1.0, 13);
        assert!(ucb.time_std.iter().all(|&s| s > 0.0));
        assert!(ucb.rel_std.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn dual_head_trains_online_from_measured_solves() {
        let train = dataset(40, 21);
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 12,
            round_size: 5,
            mode: GradientMode::Analytic,
            ..Default::default()
        };
        let mut head = LearnedDualHead::new(train.clusters(), 99);
        let (_, report) = train_mfcp_with_dual_head(&train, &cfg, 23, &mut head);
        let rejected = report
            .recovery
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::BadDualSample { .. }))
            .count();
        // Every round's measured optimum either trained the head or left
        // a typed rejection event — none vanish silently.
        assert_eq!(head.observations() as usize + rejected, cfg.rounds);
        assert_eq!(rejected, 0, "clean synthetic data must never reject");
        assert!(head.ready(), "12 observations clear the readiness bar");

        // The config flag exercises the same path with a run-local head.
        let flag_cfg = MfcpTrainConfig {
            learned_duals: true,
            rounds: 3,
            ..cfg
        };
        let (_, flag_report) = train_mfcp(&train, &flag_cfg, 23);
        assert_eq!(flag_report.loss_history.len(), 3);
    }

    #[test]
    fn mfcp_ad_training_runs_and_reduces_regret_loss() {
        let train = dataset(60, 5);
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 40,
            round_size: 5,
            lr: 3e-3,
            gamma: 0.8,
            mode: GradientMode::Analytic,
            ..Default::default()
        };
        let (pred, report) = train_mfcp(&train, &cfg, 17);
        assert_eq!(pred.variant, "MFCP-AD");
        assert_eq!(report.loss_history.len(), 40);
        assert!(report.loss_history.iter().all(|l| l.is_finite()));
        // Sampled-round regret is heavy-tailed — a hard draw can spike an
        // order of magnitude above the median regardless of predictor
        // quality — and the spike guard records exactly which rounds it
        // rejected (their updates never happened). Judge training health
        // on the accepted trajectory: it must not drift upward.
        let rolled: std::collections::HashSet<usize> =
            report.rolled_back_rounds().into_iter().collect();
        let accepted: Vec<f64> = report
            .loss_history
            .iter()
            .enumerate()
            .filter(|(r, _)| !rolled.contains(r))
            .map(|(_, &l)| l)
            .collect();
        assert!(
            accepted.len() >= 20,
            "guard should accept most rounds: {} of 40 ({:?})",
            accepted.len(),
            report.recovery
        );
        let q = accepted.len() / 4;
        let early: f64 = accepted[..q].iter().sum::<f64>() / q as f64;
        let late: f64 = accepted[accepted.len() - q..].iter().sum::<f64>() / q as f64;
        assert!(
            late <= early + 0.05,
            "accepted regret loss should not blow up: early {early}, late {late}"
        );
    }

    /// End-to-end gradient check of the full MFCP-AD chain:
    /// dL/dω = dL/dX* · dX*/dt̂ (KKT) · dt̂/dout (exp head) · dout/dω
    /// against central differences of the actual pipeline loss.
    #[test]
    fn decision_gradient_chain_matches_finite_differences() {
        use mfcp_optim::objective;
        let train = dataset(12, 99);
        let m = train.clusters();
        let n = 5;
        let gamma = 0.8;
        let relaxation = RelaxationParams::default();
        let solver = SolverOptions {
            max_iters: 20_000,
            tol: 1e-14,
            ..Default::default()
        };
        let idx: Vec<usize> = (0..n).collect();
        let features =
            Matrix::from_fn(n, train.features.cols(), |r, c| train.features[(idx[r], c)]);
        let time_scale = train.times.mean();
        let t_meas = Matrix::from_fn(m, n, |i, j| train.times[(i, idx[j])] / time_scale);
        let a_meas = Matrix::from_fn(m, n, |i, j| train.reliability[(i, idx[j])]);
        let problem_true = MatchingProblem::new(t_meas, a_meas, gamma);

        let mut rng = StdRng::seed_from_u64(5);
        let predictor = ClusterPredictor::new(train.features.cols(), &[8], &mut rng);
        let cluster = 0usize;

        // The pipeline loss as a function of the time model's parameters.
        let loss_of = |p: &ClusterPredictor| -> f64 {
            let t_hat = p.predict_times(&features);
            let a_hat: Vec<f64> = p
                .predict_reliability(&features)
                .into_iter()
                .map(|v| v.clamp(0.0, 1.0))
                .collect();
            let problem_pred = problem_true
                .with_time_row(cluster, &t_hat)
                .with_reliability_row(cluster, &a_hat);
            let sol = solve_relaxed(&problem_pred, &relaxation, &solver);
            objective::value(&problem_true, &relaxation, &sol.x) / n as f64
        };

        // Analytic chain.
        let t_hat = predictor.predict_times(&features);
        let a_hat: Vec<f64> = predictor
            .predict_reliability(&features)
            .into_iter()
            .map(|v| v.clamp(0.0, 1.0))
            .collect();
        let problem_pred = problem_true
            .with_time_row(cluster, &t_hat)
            .with_reliability_row(cluster, &a_hat);
        let sol = solve_relaxed(&problem_pred, &relaxation, &solver);
        let dl_dx = objective::grad_x(&problem_true, &relaxation, &sol.x).scale(1.0 / n as f64);
        let grads = kkt::implicit_gradients(&problem_pred, &relaxation, &sol.x, &dl_dx).unwrap();
        let dl_dt_row = grads.dl_dt.row(cluster).to_vec();
        let seed_grad = Matrix::from_fn(n, 1, |r, _| dl_dt_row[r] * t_hat[r]);
        let mut g = Graph::new();
        let xi = g.input(features.clone());
        let pass = predictor.time_model.forward(&mut g, xi);
        g.backward_with_seed(pass.output, seed_grad);
        let analytic = predictor.time_model.grads(&g, &pass);

        // Check a handful of parameters of each tensor numerically.
        let h = 1e-5;
        let mut checked = 0;
        for (pi, g_tensor) in analytic.iter().enumerate() {
            for &(r, c) in &[(0usize, 0usize)] {
                if r >= g_tensor.rows() || c >= g_tensor.cols() {
                    continue;
                }
                let mut p_plus = predictor.clone();
                p_plus.time_model.params_mut()[pi][(r, c)] += h;
                let mut p_minus = predictor.clone();
                p_minus.time_model.params_mut()[pi][(r, c)] -= h;
                let numeric = (loss_of(&p_plus) - loss_of(&p_minus)) / (2.0 * h);
                let a = g_tensor[(r, c)];
                assert!(
                    (a - numeric).abs() < 5e-3 * (1.0 + numeric.abs().max(a.abs())),
                    "param tensor {pi} entry ({r},{c}): analytic {a} vs numeric {numeric}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 3, "checked too few parameters");
    }

    #[test]
    fn mfcp_fg_training_runs() {
        let train = dataset(50, 6);
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 10,
            round_size: 5,
            lr: 3e-3,
            gamma: 0.8,
            mode: GradientMode::ForwardGradient(ZerothOrderOptions {
                delta: 0.05,
                samples: 4,
                parallel: ParallelConfig::default(),
            }),
            ..Default::default()
        };
        let (pred, report) = train_mfcp(&train, &cfg, 19);
        assert_eq!(pred.variant, "MFCP-FG");
        assert_eq!(report.loss_history.len(), 10);
        // Predictions remain valid after decision-focused updates.
        let (t, a) = predicted_matrices(&pred.predictors, &train.features);
        assert!(t.as_slice().iter().all(|&v| v > 0.0 && v.is_finite()));
        assert!(a.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn mfcp_fg_supports_parallel_speedup_curves() {
        let train = dataset(40, 7);
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 6,
            round_size: 5,
            gamma: 0.8,
            speedup: vec![SpeedupCurve::paper_parallel(); 3],
            mode: GradientMode::ForwardGradient(ZerothOrderOptions {
                delta: 0.05,
                samples: 4,
                parallel: ParallelConfig::default(),
            }),
            ..Default::default()
        };
        let (_pred, report) = train_mfcp(&train, &cfg, 23);
        assert!(report.loss_history.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn nan_poisoned_round_rolls_back_instead_of_diverging() {
        let mut train = dataset(12, 31);
        // One corrupted measurement: any round that samples task 3 sees a
        // NaN execution time, so its regret loss is NaN and the guard must
        // roll the iterate back rather than let Adam ingest NaN gradients.
        train.times[(0, 3)] = f64::NAN;
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 12,
            round_size: 6,
            gamma: 0.8,
            validation_rounds: 0,
            ..Default::default()
        };
        let (pred, report) = train_mfcp(&train, &cfg, 41);
        assert!(
            report.rollbacks() >= 1,
            "expected at least one rollback: {:?}",
            report.recovery
        );
        let (t, a) = predicted_matrices(&pred.predictors, &train.features);
        assert!(t.as_slice().iter().all(|v| v.is_finite() && *v > 0.0));
        assert!(a.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn tight_spike_guard_triggers_rollbacks() {
        let train = dataset(40, 9);
        // With the threshold at exactly the recent mean, ordinary
        // round-to-round sampling noise counts as a spike, so the guard
        // machinery must fire and training must still finish cleanly.
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 20,
            round_size: 5,
            gamma: 0.8,
            validation_rounds: 0,
            spike_factor: 1.0,
            spike_slack: 0.0,
            ..Default::default()
        };
        let (_pred, report) = train_mfcp(&train, &cfg, 3);
        assert!(
            report.rollbacks() >= 1,
            "mean-level threshold should flag sampling noise: {:?}",
            report.recovery
        );
        assert_eq!(report.loss_history.len(), 20);
        assert_eq!(report.rolled_back_rounds().len(), report.rollbacks());
    }

    #[test]
    fn checkpoint_and_resume_round_trip() {
        let train = dataset(30, 8);
        let dir = std::env::temp_dir().join("mfcp_train_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 6,
            round_size: 5,
            gamma: 0.8,
            validation_rounds: 0,
            checkpoint_every: 3,
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let (_pred, report) = train_mfcp(&train, &cfg, 29);
        assert!(report
            .recovery
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Checkpoint { .. })));
        let loaded = load_checkpoint(&dir, train.clusters()).expect("checkpoint loads");
        assert_eq!(loaded.len(), train.clusters());

        // Resuming skips the warm start and starts from the checkpoint.
        let resume_cfg = MfcpTrainConfig {
            rounds: 2,
            resume: true,
            ..cfg.clone()
        };
        let (pred2, report2) = train_mfcp(&train, &resume_cfg, 29);
        assert!(report2.recovery.contains(&RecoveryEvent::Resumed));
        let (t, _) = predicted_matrices(&pred2.predictors, &train.features);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_cache_training_hits_and_stays_healthy() {
        // 5-of-8 task rounds: any two rounds overlap in at least two
        // tasks (pigeonhole), so warm hits are guaranteed from round 1.
        let train = dataset(8, 14);
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 8,
            round_size: 5,
            gamma: 0.8,
            validation_rounds: 0,
            solve_cache: true,
            ..Default::default()
        };
        let mut cache = SolveCache::new();
        let (pred, report) = train_mfcp_with_cache(&train, &cfg, 15, &mut cache);
        assert!(report.loss_history.iter().all(|l| l.is_finite()));
        assert!(
            cache.stats.hits >= 2 * 7 * 2,
            "resampled tasks must hit their cached columns: {:?}",
            cache.stats
        );
        assert_eq!(cache.clusters.len(), train.clusters());
        assert!(!cache.pred.is_empty() && !cache.meas.is_empty());
        assert!(cache.clusters.iter().all(|f| !f.is_empty()));
        let (t, a) = predicted_matrices(&pred.predictors, &train.features);
        assert!(t.as_slice().iter().all(|&v| v > 0.0 && v.is_finite()));
        assert!(a.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn poisoned_cluster_warm_state_goes_stale_not_wrong() {
        let train = dataset(12, 21);
        let cfg = MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 3,
            round_size: 5,
            gamma: 0.8,
            validation_rounds: 0,
            solve_cache: true,
            ..Default::default()
        };
        let mut cache = SolveCache::new();
        // Poison every task's cached column in every cluster family:
        // NaN entries AND the wrong height at once.
        cache.clusters = vec![TaskColumns::default(); train.clusters()];
        for family in cache.clusters.iter_mut() {
            for task in 0..train.len() {
                family.insert(task, vec![f64::NAN; 1]);
            }
        }
        let (_pred, report) = train_mfcp_with_cache(&train, &cfg, 33, &mut cache);
        let stale_clusters: Vec<_> = report
            .recovery
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    RecoveryEvent::StaleWarmStart {
                        round: 0,
                        cluster: Some(_)
                    }
                )
            })
            .collect();
        assert_eq!(
            stale_clusters.len(),
            train.clusters(),
            "every poisoned cluster family must report stale state: {:?}",
            report.recovery
        );
        // One eviction per sampled task per cluster family in round 0.
        assert!(cache.stats.stale >= (5 * train.clusters()) as u64);
        assert!(report.loss_history.iter().all(|l| l.is_finite()));
        // The poisoned columns were replaced by real solutions.
        assert!(cache.clusters.iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn fg_gradients_identical_under_one_and_many_threads() {
        // Regression for the forced-sequential perturbation solves: the
        // caller's `parallel` config must be respected AND must not change
        // the FG estimates — probe directions are pre-drawn sequentially
        // and the summation order is fixed, so the whole training
        // trajectory is bitwise reproducible at any thread count.
        let train = dataset(30, 12);
        let mk = |threads: usize| MfcpTrainConfig {
            warm_start: quick_tsm_cfg(),
            rounds: 6,
            round_size: 5,
            gamma: 0.8,
            validation_rounds: 0,
            mode: GradientMode::ForwardGradient(ZerothOrderOptions {
                delta: 0.05,
                samples: 4,
                parallel: if threads == 1 {
                    ParallelConfig::sequential()
                } else {
                    ParallelConfig::with_threads(threads)
                },
            }),
            ..Default::default()
        };
        let (p1, r1) = train_mfcp(&train, &mk(1), 77);
        let (p4, r4) = train_mfcp(&train, &mk(4), 77);
        assert_eq!(r1.loss_history.len(), r4.loss_history.len());
        for (a, b) in r1.loss_history.iter().zip(&r4.loss_history) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "loss history must be bit-identical across thread counts"
            );
        }
        let (t1, _) = predicted_matrices(&p1.predictors, &train.features);
        let (t4, _) = predicted_matrices(&p4.predictors, &train.features);
        assert_eq!(t1.as_slice(), t4.as_slice());
    }

    #[test]
    fn sample_round_indices_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let idx = sample_round_indices(20, 5, &mut rng);
        assert_eq!(idx.len(), 5);
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 5);
        // Clamps when asking for more than available.
        assert_eq!(sample_round_indices(3, 10, &mut rng).len(), 3);
    }
}
