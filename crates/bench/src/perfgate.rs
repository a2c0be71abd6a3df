//! Continuous benchmark gate behind the `perfgate` binary.
//!
//! Runs a fixed suite of tier-1 workloads — an MFCP-AD solve, an MFCP-FG
//! solve, one guarded training round, a fault-injected replay, the
//! warm-started MFCP-AD solve (`solve_warm`), a batched relaxed-solve
//! fan-out (`batch_solve`), a head-to-head
//! of the structured vs dense implicit-gradient paths (`kkt_grad`),
//! an online-serving trace replay with one kill/restore cycle
//! (`serve_replay`), the blocked-vs-scalar Cholesky kernel comparison
//! (`chol_blocked`), the live ops surface — endpoint
//! latency over every `mfcp_obs::http` route plus a serve-replay
//! overhead A/B with the ops server on vs off (`obs_http`) — and the
//! learned-duals head-to-head on unseen instances: predict-seeded vs
//! cold vs cache-warm solves with a not-worse-than-cold tripwire
//! (`learned_duals`) — each repeated `runs` times, and emits a
//! schema-stable JSON report (`BENCH_perfgate.json` at the repo root):
//! median/p95 wall time per suite, the deterministic observability
//! counters and histogram quantiles from the final run, and enough
//! environment metadata to interpret a number before comparing it.
//!
//! Sub-millisecond suites are timed with batched repetition: each run
//! executes the workload `inner_reps` times (see the `SUITES` table) and
//! reports elapsed-over-reps, so the gate measures a multi-millisecond
//! window instead of scheduler noise.
//!
//! `--check` mode reads a checked-in baseline (`bench/baseline.json`),
//! compares suite-by-suite, and exits nonzero on regression:
//!
//! * `median_wall_secs` gates with a noise-tolerant relative threshold
//!   (default 25%, `--tolerance` overrides, and a baseline may pin a
//!   per-metric threshold in its `"thresholds"` map);
//! * counter metrics gate on *increases* only (more solver attempts,
//!   more rollbacks, more re-matches than the baseline is a regression;
//!   fewer is an improvement);
//! * `hist.*` quantile metrics are informational — bucket resolution and
//!   scheduling noise make them poor gates.
//!
//! Everything is hand-rolled JSON validated by [`mfcp_obs::json`]; there
//! is no serde in this workspace.

use crate::batch::{build_round_problems, solve_rounds, BatchWorkloadConfig};
use crate::report::{fault_stage, training_stage, ReportConfig};
use mfcp_core::train::{train_mfcp, GradientMode, MfcpTrainConfig, TsmTrainConfig};
use mfcp_linalg::lu::Lu;
use mfcp_linalg::qr::Qr;
use mfcp_linalg::{Cholesky, Matrix};
use mfcp_obs::json::{self, Json};
use mfcp_optim::kkt::{self, KktWorkspace};
use mfcp_optim::zeroth::ZerothOrderOptions;
use mfcp_optim::{
    CacheOutcome, LearnedDualHead, MatchingProblem, RelaxationParams, RobustSolver, SolverOptions,
    WarmStartCache,
};
use mfcp_parallel::ParallelConfig;
use mfcp_platform::dataset::{NoiseConfig, PlatformDataset};
use mfcp_platform::embedding::FeatureEmbedder;
use mfcp_platform::settings::{ClusterPool, Setting};
use mfcp_platform::stream::{generate_trace, TraceConfig};
use mfcp_platform::task::TaskGenerator;
use mfcp_serve::{replay_with_kills, DaemonConfig, MatrixSource};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Report schema version; bump on any field rename or semantic change.
pub const SCHEMA_VERSION: u64 = 1;

/// Default relative regression threshold (25%).
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Size knobs for one perfgate pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfgateConfig {
    /// Timed repetitions per suite (median over these).
    pub runs: usize,
    /// Tasks per generated dataset / fault round.
    pub tasks: usize,
    /// Decision-focused training rounds in the solve suites.
    pub rounds: usize,
    /// Base RNG seed (suites derive their own sub-seeds).
    pub seed: u64,
}

impl Default for PerfgateConfig {
    fn default() -> Self {
        PerfgateConfig {
            runs: 3,
            tasks: 12,
            rounds: 3,
            seed: 7,
        }
    }
}

impl PerfgateConfig {
    fn report_cfg(&self) -> ReportConfig {
        ReportConfig {
            tasks: self.tasks,
            rounds: self.rounds,
            seed: self.seed,
        }
    }
}

/// One suite's aggregated timings plus the final run's metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    /// Suite name (stable across versions; baseline keys match on it).
    pub name: String,
    /// Per-run wall times, in run order.
    pub wall_secs: Vec<f64>,
    /// Median of `wall_secs`.
    pub median_wall_secs: f64,
    /// 95th percentile of `wall_secs` (max for small run counts).
    pub p95_wall_secs: f64,
    /// Observability counters (`name -> value`) and histogram quantiles
    /// (`hist.<name>.p50` / `.p95`) from the final run.
    pub metrics: BTreeMap<String, f64>,
}

/// A full perfgate pass: config echo, environment, and per-suite results.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfgateReport {
    /// Schema version of the serialized form.
    pub schema_version: u64,
    /// Seconds since the Unix epoch when the report was produced.
    pub created_unix: u64,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Available parallelism on the producing machine.
    pub threads: u64,
    /// The config the pass ran with.
    pub config: PerfgateConfig,
    /// Suite results in fixed suite order.
    pub suites: Vec<SuiteResult>,
    /// Optional per-metric tolerance overrides, keyed
    /// `"<suite>.<metric>"`. Only meaningful on a baseline.
    pub thresholds: BTreeMap<String, f64>,
}

/// One gate failure found by [`PerfgateReport::compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Suite the metric belongs to.
    pub suite: String,
    /// Metric name (`median_wall_secs` or a counter name).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change `(current - baseline) / baseline`.
    pub rel_change: f64,
    /// Tolerance the change was gated against.
    pub tolerance: f64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{}: {:.6} -> {:.6} (+{:.1}%, tolerance {:.0}%)",
            self.suite,
            self.metric,
            self.baseline,
            self.current,
            self.rel_change * 100.0,
            self.tolerance * 100.0
        )
    }
}

// ---------------------------------------------------------------------
// Suites
// ---------------------------------------------------------------------

fn tiny_dataset(cfg: &PerfgateConfig, salt: u64) -> PlatformDataset {
    let model = ClusterPool::standard().setting(Setting::A);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(salt));
    PlatformDataset::generate(
        &model,
        &FeatureEmbedder::bottlenecked_platform(),
        &TaskGenerator::default(),
        cfg.tasks.max(8),
        &NoiseConfig::default(),
        &mut rng,
    )
}

fn solve_train_cfg(cfg: &PerfgateConfig, mode: GradientMode) -> MfcpTrainConfig {
    MfcpTrainConfig {
        warm_start: TsmTrainConfig {
            hidden: vec![8],
            epochs: 20,
            ..Default::default()
        },
        // Full-population rounds over enough of them for the predictors to
        // settle: every round re-solves the same task set (shuffled), which
        // is the slowly-drifting re-solve regime the warm-start cache is
        // built for — and the regime where `solve_warm` vs `solve_ad` is a
        // pure measurement of the cache, not of round-composition churn.
        rounds: cfg.rounds.max(6),
        round_size: cfg.tasks.max(8),
        gamma: 0.8,
        validation_rounds: 0,
        mode,
        // Run-to-convergence solver (the deployed `ExperimentSetup` regime)
        // rather than the 400-iteration default cap: iteration counts must
        // respond to solve difficulty for the warm-start suite to measure
        // anything — a capped solver burns the same budget cold or warm.
        // lr 0.2 keeps mirror descent monotone on these instances; at the
        // default 0.8 several solves limit-cycle above the tolerance and
        // burn `max_iters` no matter where they start.
        solver: SolverOptions {
            max_iters: 20_000,
            tol: 1e-8,
            lr: 0.2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// MFCP-AD: decision-focused rounds with analytic KKT gradients. This is
/// the tier-1 hot path — PGD solves plus implicit differentiation.
fn suite_solve_ad(cfg: &PerfgateConfig) {
    let data = tiny_dataset(cfg, 11);
    let train_cfg = solve_train_cfg(cfg, GradientMode::Analytic);
    let _ = train_mfcp(&data, &train_cfg, cfg.seed.wrapping_add(1));
}

/// MFCP-FG: the same rounds with zeroth-order forward gradients, which
/// multiplies the solve count by the perturbation sample count.
fn suite_solve_fg(cfg: &PerfgateConfig) {
    let data = tiny_dataset(cfg, 13);
    let zeroth = ZerothOrderOptions {
        delta: 0.05,
        samples: 4,
        parallel: ParallelConfig::default(),
    };
    let mut train_cfg = solve_train_cfg(cfg, GradientMode::ForwardGradient(zeroth));
    // FG multiplies the solve count by ~2·samples per cluster; keep this
    // suite at the smaller round shape so it tracks the FG machinery's
    // cost without dominating the gate's wall time.
    train_cfg.rounds = cfg.rounds.max(1);
    train_cfg.round_size = 4;
    let _ = train_mfcp(&data, &train_cfg, cfg.seed.wrapping_add(2));
}

/// One guarded training round with a poisoned sample and a checkpoint —
/// the rollback/checkpoint machinery, not just the solver.
fn suite_train_round(cfg: &PerfgateConfig) {
    training_stage(&cfg.report_cfg());
}

/// Fault-injected replay: outage + stragglers over a discrete matching.
fn suite_fault_replay(cfg: &PerfgateConfig) {
    fault_stage(&cfg.report_cfg());
}

/// Warm-started MFCP-AD: byte-identical workload to `solve_ad` except the
/// round solves seed from a [`mfcp_core::train::SolveCache`]. The gap
/// between this suite's median and `solve_ad`'s is the warm-start payoff.
fn suite_solve_warm(cfg: &PerfgateConfig) {
    let data = tiny_dataset(cfg, 11);
    let mut train_cfg = solve_train_cfg(cfg, GradientMode::Analytic);
    train_cfg.solve_cache = true;
    let _ = train_mfcp(&data, &train_cfg, cfg.seed.wrapping_add(1));
}

/// Batched relaxed solves over structurally identical round problems
/// through `solve_batch` (deterministic ordering, per-slot isolation).
fn suite_batch_solve(cfg: &PerfgateConfig) {
    let bcfg = BatchWorkloadConfig {
        tasks: cfg.tasks.max(8) * 2,
        seed: cfg.seed.wrapping_add(17),
        ..Default::default()
    };
    let problems = build_round_problems(&bcfg);
    let _ = solve_rounds(&problems, &ParallelConfig::default());
}

/// Implicit KKT gradients head-to-head: the structured Woodbury/Schur
/// elimination against the dense saddle-LU oracle on one deterministic
/// interior instance. Per-call wall times land in the
/// `kkt.grad.structured_secs` / `kkt.grad.dense_secs` histograms; the
/// ratio of their medians is the structured-elimination speedup.
fn suite_kkt_grad(cfg: &PerfgateConfig) {
    const M: usize = 10;
    const STRUCTURED_REPS: usize = 8;
    const DENSE_REPS: usize = 2;
    // N scales with the task knob so tiny smoke configs stay cheap in
    // debug builds; the default config (tasks = 12) lands exactly on the
    // Table-1 scale M = 10, N = 100 where the dense saddle system is
    // (MN + N) x (MN + N) = 1100 x 1100.
    let n = (cfg.tasks * 100).div_ceil(12).min(100);
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(23));
    let times = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.5..3.0));
    let rel = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.8..0.999));
    let problem = MatchingProblem::new(times, rel, 0.5);
    let mut x = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.1..1.0));
    for j in 0..n {
        let col: f64 = (0..M).map(|i| x[(i, j)]).sum();
        for i in 0..M {
            x[(i, j)] /= col;
        }
    }
    let dl_dx = Matrix::from_fn(M, n, |_, _| rng.gen_range(-1.0..1.0));
    let params = RelaxationParams::default();
    let structured_h = mfcp_obs::histogram("kkt.grad.structured_secs");
    let dense_h = mfcp_obs::histogram("kkt.grad.dense_secs");
    let mut ws = KktWorkspace::new();
    // Size the workspace outside the timed reps so they measure the
    // steady-state reuse regime training rounds run in.
    kkt::implicit_gradients_with(&problem, &params, &x, &dl_dx, &mut ws)
        .expect("interior instance must factor");
    for _ in 0..STRUCTURED_REPS {
        let t0 = Instant::now();
        let grads = kkt::implicit_gradients_with(&problem, &params, &x, &dl_dx, &mut ws)
            .expect("interior instance must factor");
        structured_h.record_duration(t0.elapsed());
        assert!(grads.dl_dt[(0, 0)].is_finite());
    }
    assert_eq!(
        ws.dense_fallbacks(),
        0,
        "the structured reps must not silently measure the dense fallback"
    );
    for _ in 0..DENSE_REPS {
        let t0 = Instant::now();
        let grads = kkt::implicit_gradients_dense(&problem, &params, &x, &dl_dx)
            .expect("dense oracle must solve");
        dense_h.record_duration(t0.elapsed());
        assert!(grads.dl_dt[(0, 0)].is_finite());
    }
}

/// Online serving: replay a short synthetic trace through the exchange
/// daemon, with one snapshot/kill/restore cycle at the halfway mark so
/// the gate also times crash recovery. Latency percentiles surface as
/// `hist.serve.match_latency_secs.*` and the shed/deadline-miss
/// counters gate on increases like every other counter. The
/// bit-identity of the chaotic run is asserted by the serve crate's
/// differential tests; here we only keep the serving loop fast.
fn suite_serve_replay(cfg: &PerfgateConfig) {
    let trace = generate_trace(&TraceConfig {
        seed: cfg.seed.wrapping_add(23),
        duration_secs: 1800.0,
        mean_interarrival_secs: 60.0,
        mean_service_secs: 600.0,
        ..TraceConfig::default()
    });
    let config = DaemonConfig::default();
    let source = || MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A));
    let dir = std::env::temp_dir().join(format!("mfcp_perfgate_serve_{}", std::process::id()));
    let outcome = replay_with_kills(&trace, &config, source, &dir, &[trace.len() / 2])
        .expect("serve replay with one kill/restore");
    std::fs::remove_dir_all(&dir).ok();
    assert!(outcome.counters.resolves > 0);
    assert!(outcome.last.is_some());
}

/// Blocked vs scalar Cholesky head-to-head. The default config lands on
/// the acceptance scale `N = 2000`; smoke configs ramp linearly so the
/// cubic kernel stays cheap in debug builds. Per-kernel wall times land
/// in the `chol.blocked_secs` / `chol.scalar_secs` histograms (ratio of
/// medians = blocked-kernel speedup).
fn suite_chol_blocked(cfg: &PerfgateConfig) {
    let n = if cfg.tasks >= 12 {
        2000
    } else {
        32 * cfg.tasks.max(1)
    };
    let a = bench_spd(n, 0);
    let blocked_h = mfcp_obs::histogram("chol.blocked_secs");
    let scalar_h = mfcp_obs::histogram("chol.scalar_secs");
    let mut blocked = Cholesky::empty();
    // Size the factor storage outside the timed reps: the gate measures
    // the steady-state refactor-reuse regime.
    blocked.refactor(&a).expect("benchmark matrix is SPD");
    let mut blocked_best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        blocked.refactor(&a).expect("benchmark matrix is SPD");
        let dt = t0.elapsed().as_secs_f64();
        blocked_h.record(dt);
        blocked_best = blocked_best.min(dt);
    }
    let mut scalar = Cholesky::empty();
    scalar.refactor_scalar(&a).expect("benchmark matrix is SPD");
    let t0 = Instant::now();
    scalar.refactor_scalar(&a).expect("benchmark matrix is SPD");
    let scalar_secs = t0.elapsed().as_secs_f64();
    scalar_h.record(scalar_secs);
    if n >= 2000 {
        // Tripwire for the blocked kernel's raison d'être (measured
        // ~3.8x on the baseline machine; asserted with margin for noisy
        // runners). Only meaningful at the release-scale config — debug
        // builds and tiny sizes measure overhead, not the kernel.
        let ratio = scalar_secs / blocked_best;
        assert!(
            ratio >= 2.5,
            "blocked Cholesky speedup collapsed: {ratio:.2}x at n = {n}"
        );
    }
    // SIMD dispatch delta: re-run the blocked kernel with the scalar
    // arm pinned and publish the ratio (informational gauge). Both arms
    // compute bit-identical factors, so this isolates pure kernel
    // throughput. Under `MFCP_SIMD=scalar` the ratio sits at ~1.
    mfcp_linalg::simd::force_scalar(true);
    let t0 = Instant::now();
    blocked.refactor(&a).expect("benchmark matrix is SPD");
    let scalar_arm_secs = t0.elapsed().as_secs_f64();
    mfcp_linalg::simd::force_scalar(false);
    mfcp_obs::gauge("chol.simd_speedup").set(scalar_arm_secs / blocked_best.max(1e-12));
}

/// Deterministic, well-conditioned SPD matrix for the Cholesky suite:
/// off-diagonal amplitude scales as `1/n` so the unit-ish diagonal
/// dominates at every size.
fn bench_spd(n: usize, salt: usize) -> Matrix {
    let amp = 0.5 / n as f64;
    let mut a = Matrix::from_fn(n, n, |i, j| {
        ((((i * 31 + j * 17 + salt * 7) % 13) as f64 * 0.05).sin()) * amp
    });
    for i in 0..n {
        for j in 0..i {
            let s = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = s;
            a[(j, i)] = s;
        }
        a[(i, i)] = 2.0 + (i % 5) as f64 * 0.1;
    }
    a
}

/// Deterministic non-symmetric, comfortably non-singular matrix for the
/// LU/QR suites (diagonally dominant with one symmetry-breaking entry).
fn bench_general(n: usize, salt: usize) -> Matrix {
    let mut a = bench_spd(n, salt);
    if n > 1 {
        a[(0, n - 1)] += 0.7;
    }
    a
}

/// Blocked vs unblocked LU head-to-head. The default config lands on the
/// acceptance scale `N = 2000`; smoke configs ramp linearly. Both paths
/// run the same fused per-element arithmetic and produce bit-identical
/// factors (pinned by the linalg differential suite), so the ratio
/// isolates the panel + register-tile blocking win. Per-path wall times
/// land in `lu.blocked_secs` / `lu.scalar_secs`.
fn suite_lu_blocked(cfg: &PerfgateConfig) {
    let n = if cfg.tasks >= 12 {
        2000
    } else {
        32 * cfg.tasks.max(1)
    };
    let a = bench_general(n, 0);
    let blocked_h = mfcp_obs::histogram("lu.blocked_secs");
    let scalar_h = mfcp_obs::histogram("lu.scalar_secs");
    let mut blocked = Lu::empty();
    // Size the factor storage outside the timed reps (steady-state
    // refactor-reuse regime, same protocol as `chol_blocked`).
    blocked
        .refactor(&a)
        .expect("benchmark matrix is non-singular");
    let mut blocked_best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        blocked
            .refactor(&a)
            .expect("benchmark matrix is non-singular");
        let dt = t0.elapsed().as_secs_f64();
        blocked_h.record(dt);
        blocked_best = blocked_best.min(dt);
    }
    let mut scalar = Lu::empty();
    scalar
        .refactor_scalar(&a)
        .expect("benchmark matrix is non-singular");
    let t0 = Instant::now();
    scalar
        .refactor_scalar(&a)
        .expect("benchmark matrix is non-singular");
    let scalar_secs = t0.elapsed().as_secs_f64();
    scalar_h.record(scalar_secs);
    if n >= 2000 {
        // Tripwire for the blocked elimination (measured ~4x on the
        // baseline machine; asserted with margin for noisy runners).
        let ratio = scalar_secs / blocked_best;
        assert!(
            ratio >= 2.0,
            "blocked LU speedup collapsed: {ratio:.2}x at n = {n}"
        );
    }
}

/// Blocked (compact-WY) vs unblocked Householder QR head-to-head at the
/// acceptance scale `N = 2000`. The unblocked reference applies
/// reflectors through strided column operations that are cache-hostile
/// at this size (~35x slower than the WY form), so its wall time is
/// measured once per process and reused across perfgate runs — the
/// blocked timings stay per-run. Wall times land in `qr.blocked_secs` /
/// `qr.scalar_secs`.
fn suite_qr_blocked(cfg: &PerfgateConfig) {
    let n = if cfg.tasks >= 12 {
        2000
    } else {
        32 * cfg.tasks.max(1)
    };
    let a = bench_general(n, 1);
    let blocked_h = mfcp_obs::histogram("qr.blocked_secs");
    let scalar_h = mfcp_obs::histogram("qr.scalar_secs");
    let mut blocked = Qr::empty();
    blocked.refactor(&a).expect("benchmark matrix is full-rank");
    let mut blocked_best = f64::INFINITY;
    for _ in 0..2 {
        let t0 = Instant::now();
        blocked.refactor(&a).expect("benchmark matrix is full-rank");
        let dt = t0.elapsed().as_secs_f64();
        blocked_h.record(dt);
        blocked_best = blocked_best.min(dt);
    }
    static SCALAR_SECS: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
    let mut cache = SCALAR_SECS.lock().unwrap();
    let scalar_secs = match cache.iter().find(|(sn, _)| *sn == n) {
        Some(&(_, secs)) => secs,
        None => {
            let mut scalar = Qr::empty();
            let t0 = Instant::now();
            scalar
                .refactor_scalar(&a)
                .expect("benchmark matrix is full-rank");
            let secs = t0.elapsed().as_secs_f64();
            cache.push((n, secs));
            secs
        }
    };
    drop(cache);
    scalar_h.record(scalar_secs);
    if n >= 2000 {
        // Tripwire for the compact-WY rewrite; the margin is enormous
        // because the unblocked reference's strided traversal collapses
        // at release scale.
        let ratio = scalar_secs / blocked_best;
        assert!(
            ratio >= 2.0,
            "blocked QR speedup collapsed: {ratio:.2}x at n = {n}"
        );
    }
}

/// Learned-duals warm start head-to-head on *unseen* instances. A
/// [`LearnedDualHead`] is trained by observing cold-solved siblings of
/// a drifted convex family, then each held-out sibling is solved three
/// ways: cold (uniform seed), predict-seeded (fresh cache each time, so
/// only the head can help), and cache-warm (a drifted sibling's cached
/// optimum). Per-path iteration counts and wall times land in the
/// `learned.{cold,pred,warm}_iters` / `learned.{cold,pred,warm}_secs`
/// histograms and the iteration speedup in `gauge.learned.iter_speedup`.
/// Tripwires: every predict-seeded solve must report
/// [`CacheOutcome::Predicted`] and match the cold objective to `1e-8`;
/// at the default scale the deterministic iteration counts must show
/// predict-seeded ≥ 1.2× faster than cold, and (release builds only)
/// predict-seeded wall time must not be worse than cold.
fn suite_learned_duals(cfg: &PerfgateConfig) {
    const M: usize = 3;
    let full_scale = cfg.tasks >= 12;
    let n = cfg.tasks.max(4);
    let params = RelaxationParams {
        rho: 0.05,
        ..Default::default()
    };
    // Step tolerance 1e-8 (not the differential suite's 1e-12): both
    // paths still land well inside the 1e-8 objective-gap bar (the
    // entropic objective is flat to ~ρ·dist² around the optimum), but
    // the seed's head start is not drowned by the deep-tolerance tail
    // that every start pays identically — at 1e-12 even a perfect seed
    // saves under 5% of the iterations.
    let mut solver = RobustSolver::new(params);
    solver.solver_opts = SolverOptions {
        max_iters: 20_000,
        tol: 1e-8,
        lr: 0.1,
        ..Default::default()
    };
    solver.policy.stall_checks = usize::MAX;

    // One base instance; siblings drift the data ±1% around it. The
    // family mimics successive exchange rounds: same structure,
    // slightly different measurements, optima that cluster.
    let seed0 = cfg.seed.wrapping_add(31);
    let mut rng = StdRng::seed_from_u64(seed0);
    let t_base = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.7..1.8));
    let a_base = Matrix::from_fn(M, n, |_, _| rng.gen_range(0.75..1.0));
    let sibling = |k: u64| {
        let mut rng = StdRng::seed_from_u64(seed0.wrapping_add(1 + k));
        let t = Matrix::from_fn(M, n, |i, j| {
            t_base[(i, j)] * (1.0 + 0.01 * rng.gen_range(-1.0..1.0))
        });
        let a = Matrix::from_fn(M, n, |i, j| {
            (a_base[(i, j)] * (1.0 + 0.01 * rng.gen_range(-1.0..1.0))).clamp(0.0, 1.0)
        });
        MatchingProblem::new(t, a, 0.6)
    };

    // Train the head on cold-solved siblings (never the eval ones).
    let (train_count, epochs) = if full_scale { (24, 1500) } else { (6, 30) };
    let mut head = LearnedDualHead::new(M, seed0);
    let train: Vec<(MatchingProblem, Matrix)> = (0..train_count)
        .map(|k| {
            let p = sibling(k);
            let x = solver.solve(&p).expect("train solve").x;
            (p, x)
        })
        .collect();
    for _ in 0..epochs {
        for (p, x) in &train {
            head.observe(p, &params, x);
        }
    }
    assert!(head.ready(), "training must clear the readiness bar");

    let cold_iters_h = mfcp_obs::histogram("learned.cold_iters");
    let pred_iters_h = mfcp_obs::histogram("learned.pred_iters");
    let warm_iters_h = mfcp_obs::histogram("learned.warm_iters");
    let cold_secs_h = mfcp_obs::histogram("learned.cold_secs");
    let pred_secs_h = mfcp_obs::histogram("learned.pred_secs");
    let warm_secs_h = mfcp_obs::histogram("learned.warm_secs");

    let iters_of = |sol: &mfcp_optim::RobustSolution| -> usize {
        sol.diagnostics.attempts.iter().map(|a| a.iterations).sum()
    };

    let (mut cold_total, mut pred_total) = (0usize, 0usize);
    let (mut cold_wall, mut pred_wall) = (0.0f64, 0.0f64);
    for k in 0..4u64 {
        let p = sibling(1000 + k);

        let t0 = Instant::now();
        let cold = solver.solve(&p).expect("cold solve");
        let secs = t0.elapsed().as_secs_f64();
        cold_secs_h.record(secs);
        cold_wall += secs;
        cold_iters_h.record(iters_of(&cold) as f64);
        cold_total += iters_of(&cold);

        // Predict-seeded, fresh cache: the head is the only seed source.
        let mut cache = WarmStartCache::new();
        let t0 = Instant::now();
        let pred = solver
            .solve_cached(&p, &mut cache, None, Some(&head))
            .expect("predicted solve");
        let secs = t0.elapsed().as_secs_f64();
        pred_secs_h.record(secs);
        pred_wall += secs;
        pred_iters_h.record(iters_of(&pred) as f64);
        pred_total += iters_of(&pred);
        assert_eq!(
            pred.diagnostics.cache,
            Some(CacheOutcome::Predicted),
            "a ready head on an in-family instance must seed the solve"
        );
        assert!(
            (cold.objective - pred.objective).abs() <= 1e-8,
            "predicted solve off the cold objective: {} vs {}",
            pred.objective,
            cold.objective
        );

        // Cache-warm: a drifted sibling's optimum under the shared
        // structural fingerprint (the existing warm-start baseline).
        let mut warm_cache = WarmStartCache::new();
        let _ = solver
            .solve_cached(&sibling(2000 + k), &mut warm_cache, None, None)
            .expect("sibling solve populates the cache");
        let t0 = Instant::now();
        let warm = solver
            .solve_cached(&p, &mut warm_cache, None, None)
            .expect("warm solve");
        warm_secs_h.record(t0.elapsed().as_secs_f64());
        warm_iters_h.record(iters_of(&warm) as f64);
        assert_eq!(warm.diagnostics.cache, Some(CacheOutcome::Hit));
    }
    mfcp_obs::gauge("learned.iter_speedup").set(cold_total as f64 / pred_total.max(1) as f64);

    if full_scale {
        // Iteration counts are deterministic, so this tripwire holds in
        // every build profile: the acceptance bar is ≥1.2× fewer PGD
        // iterations than cold on unseen instances.
        assert!(
            5 * cold_total >= 6 * pred_total,
            "predict-seeded speedup below 1.2x: {cold_total} cold iters vs {pred_total} predicted"
        );
        if !cfg!(debug_assertions) {
            assert!(
                pred_wall < cold_wall,
                "predict-seeded wall time worse than cold: {pred_wall:.4}s vs {cold_wall:.4}s"
            );
        }
    }
}

/// Live ops surface costs, both sides of it: (a) request latency for
/// every `mfcp_obs::http` endpoint against a populated registry, landing
/// in the `obs_http.request_secs` histogram plus a per-endpoint counter;
/// (b) a serve-replay overhead A/B — the same short trace replayed with
/// the ops surface off and on (`obs_http.replay_off_secs` /
/// `obs_http.replay_on_secs`), with a release-build tripwire holding the
/// enabled run inside the 5% overhead budget DESIGN.md records.
fn suite_obs_http(cfg: &PerfgateConfig) {
    // --- endpoint latency over a populated registry ---
    let series = Arc::new(mfcp_obs::TimeSeries::new(
        mfcp_obs::TimeSeriesConfig::default(),
    ));
    mfcp_obs::counter("obs_http.bench.events").add(41);
    mfcp_obs::gauge("obs_http.bench.level").set(3.5);
    let h_seed = mfcp_obs::histogram("obs_http.bench.lat");
    for i in 0..64 {
        h_seed.record(0.001 * (1 + i % 7) as f64);
    }
    series.sample_now();
    mfcp_obs::counter("obs_http.bench.events").add(17);
    series.sample_now();
    let server =
        mfcp_obs::ObsServer::start(mfcp_obs::HttpConfig::default(), Some(Arc::clone(&series)))
            .expect("ops server binds an ephemeral port");
    let addr = server.local_addr();
    let h_request = mfcp_obs::histogram("obs_http.request_secs");
    const ENDPOINT_REPS: usize = 8;
    for path in [
        "/healthz",
        "/metrics",
        "/metrics.txt",
        "/slo",
        "/trace",
        "/timeseries?window=32",
        "/dashboard",
    ] {
        for _ in 0..ENDPOINT_REPS {
            let t0 = Instant::now();
            let reply = http_get(addr, path);
            h_request.record_duration(t0.elapsed());
            assert!(
                reply.starts_with("HTTP/1.1 200"),
                "{path} did not answer 200: {reply}"
            );
        }
        mfcp_obs::counter("obs_http.requests").inc();
    }
    drop(server);

    // --- serving overhead A/B: ops surface off vs on ---
    let trace = generate_trace(&TraceConfig {
        seed: cfg.seed.wrapping_add(31),
        // Long enough that the serving loop dominates the measurement:
        // at the serve_replay suite's 30-event scale the replay is ~5 ms
        // and the ops surface's fixed per-process costs (sampler ticks,
        // allocator state) masquerade as double-digit relative overhead.
        duration_secs: 7200.0,
        mean_interarrival_secs: 30.0,
        mean_service_secs: 900.0,
        ..TraceConfig::default()
    });
    let source = || MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A));
    let off_h = mfcp_obs::histogram("obs_http.replay_off_secs");
    let on_h = mfcp_obs::histogram("obs_http.replay_on_secs");
    let (mut off_best, mut on_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        for enabled in [false, true] {
            let config = DaemonConfig {
                metrics_addr: enabled.then(|| "127.0.0.1:0".to_string()),
                ..DaemonConfig::default()
            };
            let mut daemon = mfcp_serve::ExchangeDaemon::new(config, source());
            assert_eq!(daemon.ops_addr().is_some(), enabled);
            let t0 = Instant::now();
            let outcome = mfcp_serve::replay(&mut daemon, &trace);
            let dt = t0.elapsed().as_secs_f64();
            assert!(outcome.counters.resolves > 0);
            if enabled {
                on_h.record(dt);
                on_best = on_best.min(dt);
            } else {
                off_h.record(dt);
                off_best = off_best.min(dt);
            }
        }
    }
    // Min-of-3 is robust to scheduler noise, but a ~240 ms replay on a
    // single-core runner still jitters a few percent run to run, so the
    // in-suite tripwire sits at 3x the 5% budget: it catches a real
    // collapse (per-event locking, a hot sampler loop) without flaking
    // on scheduler noise. The <5% budget itself is held by the measured
    // medians recorded in DESIGN.md ("Live ops surface"). Only
    // meaningful in release at the default scale — debug builds and
    // smoke configs measure constant costs, not the serving loop.
    if !cfg!(debug_assertions) && cfg.tasks >= 12 {
        let overhead = on_best / off_best - 1.0;
        assert!(
            overhead < 0.15,
            "ops surface overhead collapsed past 3x the 5% budget: {:.1}% \
             ({on_best:.4}s on vs {off_best:.4}s off)",
            overhead * 100.0
        );
    }
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect ops server");
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: perfgate\r\n\r\n").as_bytes())
        .expect("send request");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

type SuiteFn = fn(&PerfgateConfig);

/// Suite table: `(name, inner_reps, workload)`. `inner_reps` is the
/// batched-repetition count: each timed run executes the workload that
/// many times and divides the elapsed wall by it, so a sub-millisecond
/// suite (`fault_replay`) gates on a stable multi-millisecond
/// measurement window instead of scheduler noise. Counters in such a
/// suite accumulate across the inner reps; the
/// baseline is recorded the same way, so comparisons stay consistent.
const SUITES: [(&str, usize, SuiteFn); 13] = [
    ("solve_ad", 1, suite_solve_ad),
    ("solve_fg", 1, suite_solve_fg),
    ("train_round", 1, suite_train_round),
    ("fault_replay", 16, suite_fault_replay),
    ("solve_warm", 1, suite_solve_warm),
    ("batch_solve", 1, suite_batch_solve),
    ("kkt_grad", 1, suite_kkt_grad),
    ("serve_replay", 1, suite_serve_replay),
    ("chol_blocked", 1, suite_chol_blocked),
    ("lu_blocked", 1, suite_lu_blocked),
    ("qr_blocked", 1, suite_qr_blocked),
    ("obs_http", 1, suite_obs_http),
    ("learned_duals", 1, suite_learned_duals),
];

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn median(sorted: &[f64]) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

fn metrics_from(snap: &mfcp_obs::Snapshot) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, v) in &snap.counters {
        out.insert(name.clone(), *v as f64);
    }
    for (name, v) in &snap.gauges {
        if v.is_finite() {
            out.insert(format!("gauge.{name}"), *v);
        }
    }
    for (name, h) in &snap.histograms {
        for (label, q) in [("p50", 0.5), ("p95", 0.95)] {
            let v = h.quantile(q);
            if v.is_finite() {
                out.insert(format!("hist.{name}.{label}"), v);
            }
        }
    }
    out
}

/// Runs every suite `cfg.runs` times and aggregates. When `trace_sink`
/// is provided, the flight-recorder contents of the final `train_round`
/// run are exported as Chrome trace JSON into it.
pub fn run_perfgate(cfg: &PerfgateConfig, mut trace_sink: Option<&mut String>) -> PerfgateReport {
    let runs = cfg.runs.max(1);
    let mut suites = Vec::with_capacity(SUITES.len());
    for (name, inner_reps, workload) in SUITES {
        let inner_reps = inner_reps.max(1);
        let mut wall_secs = Vec::with_capacity(runs);
        let mut metrics = BTreeMap::new();
        for run in 0..runs {
            mfcp_obs::set_enabled(true);
            mfcp_obs::reset();
            let t0 = Instant::now();
            for _ in 0..inner_reps {
                workload(cfg);
            }
            wall_secs.push(t0.elapsed().as_secs_f64() / inner_reps as f64);
            if run + 1 == runs {
                metrics = metrics_from(&mfcp_obs::snapshot());
                if name == "train_round" {
                    if let Some(sink) = trace_sink.as_deref_mut() {
                        *sink = mfcp_obs::trace::drain().to_chrome_json();
                    }
                }
            }
        }
        let mut sorted = wall_secs.clone();
        sorted.sort_by(f64::total_cmp);
        suites.push(SuiteResult {
            name: name.to_string(),
            median_wall_secs: median(&sorted),
            p95_wall_secs: percentile(&sorted, 0.95),
            wall_secs,
            metrics,
        });
    }
    PerfgateReport {
        schema_version: SCHEMA_VERSION,
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        os: std::env::consts::OS.to_string(),
        arch: std::env::consts::ARCH.to_string(),
        threads: std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1),
        config: cfg.clone(),
        suites,
        thresholds: BTreeMap::new(),
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

impl PerfgateReport {
    /// Serializes the report as schema-stable JSON (keys in fixed order,
    /// suites in suite order, metric maps sorted by name).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"created_unix\": {},", self.created_unix);
        let _ = writeln!(
            out,
            "  \"env\": {{\"os\": {}, \"arch\": {}, \"threads\": {}}},",
            json::escape(&self.os),
            json::escape(&self.arch),
            self.threads
        );
        let _ = writeln!(
            out,
            "  \"config\": {{\"runs\": {}, \"tasks\": {}, \"rounds\": {}, \"seed\": {}}},",
            self.config.runs, self.config.tasks, self.config.rounds, self.config.seed
        );
        out.push_str("  \"thresholds\": {");
        for (i, (k, v)) in self.thresholds.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json::escape(k), json::number(*v));
        }
        out.push_str("},\n");
        out.push_str("  \"suites\": [\n");
        for (i, s) in self.suites.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json::escape(&s.name));
            let _ = writeln!(out, "      \"runs\": {},", s.wall_secs.len());
            let _ = writeln!(
                out,
                "      \"median_wall_secs\": {},",
                json::number(s.median_wall_secs)
            );
            let _ = writeln!(
                out,
                "      \"p95_wall_secs\": {},",
                json::number(s.p95_wall_secs)
            );
            let walls: Vec<String> = s.wall_secs.iter().map(|w| json::number(*w)).collect();
            let _ = writeln!(out, "      \"wall_secs\": [{}],", walls.join(", "));
            out.push_str("      \"metrics\": {");
            for (j, (k, v)) in s.metrics.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\n        {}: {}", json::escape(k), json::number(*v));
            }
            if !s.metrics.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n");
            out.push_str(if i + 1 == self.suites.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Deserializes a report (or baseline) previously written by
    /// [`PerfgateReport::to_json`]. Unknown keys are ignored so a newer
    /// binary can read an older baseline.
    pub fn from_json(doc: &Json) -> Result<PerfgateReport, String> {
        let num = |j: Option<&Json>, what: &str| -> Result<f64, String> {
            j.and_then(Json::as_f64)
                .ok_or_else(|| format!("missing or non-numeric {what}"))
        };
        let schema_version = num(doc.get("schema_version"), "schema_version")? as u64;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {schema_version} (expected {SCHEMA_VERSION})"
            ));
        }
        let env = doc.get("env");
        let config = doc.get("config");
        let mut thresholds = BTreeMap::new();
        if let Some(t) = doc.get("thresholds").and_then(Json::as_object) {
            for (k, v) in t {
                thresholds.insert(
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| format!("threshold {k} not numeric"))?,
                );
            }
        }
        let mut suites = Vec::new();
        for (i, s) in doc
            .get("suites")
            .and_then(Json::as_array)
            .ok_or("missing suites array")?
            .iter()
            .enumerate()
        {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("suite {i}: missing name"))?
                .to_string();
            let wall_secs: Vec<f64> = s
                .get("wall_secs")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default();
            let mut metrics = BTreeMap::new();
            if let Some(m) = s.get("metrics").and_then(Json::as_object) {
                for (k, v) in m {
                    metrics.insert(
                        k.clone(),
                        v.as_f64()
                            .ok_or_else(|| format!("suite {name}: metric {k} not numeric"))?,
                    );
                }
            }
            suites.push(SuiteResult {
                median_wall_secs: num(s.get("median_wall_secs"), "median_wall_secs")?,
                p95_wall_secs: num(s.get("p95_wall_secs"), "p95_wall_secs")?,
                name,
                wall_secs,
                metrics,
            });
        }
        Ok(PerfgateReport {
            schema_version,
            created_unix: num(doc.get("created_unix"), "created_unix").unwrap_or(0.0) as u64,
            os: env
                .and_then(|e| e.get("os"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            arch: env
                .and_then(|e| e.get("arch"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            threads: env
                .and_then(|e| e.get("threads"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
            config: PerfgateConfig {
                runs: num(config.and_then(|c| c.get("runs")), "config.runs")? as usize,
                tasks: num(config.and_then(|c| c.get("tasks")), "config.tasks")? as usize,
                rounds: num(config.and_then(|c| c.get("rounds")), "config.rounds")? as usize,
                seed: num(config.and_then(|c| c.get("seed")), "config.seed")? as u64,
            },
            suites,
            thresholds,
        })
    }

    /// Gates `self` (the current run) against `baseline`. Returns every
    /// violation found; empty means the gate passes.
    ///
    /// * `median_wall_secs` fails when it grew more than the tolerance.
    /// * Counter metrics fail on relative *increase* beyond the
    ///   tolerance; a baseline value of zero cannot gate relatively and
    ///   is skipped. `hist.*` and `gauge.*` metrics are informational
    ///   only.
    /// * Tolerance per metric: `baseline.thresholds["<suite>.<metric>"]`
    ///   when present, else `default_tolerance`.
    /// * A suite present in the baseline but missing here is a violation
    ///   (the gate must not silently shrink its coverage).
    pub fn compare(&self, baseline: &PerfgateReport, default_tolerance: f64) -> Vec<Violation> {
        let tol_for = |suite: &str, metric: &str| -> f64 {
            baseline
                .thresholds
                .get(&format!("{suite}.{metric}"))
                .copied()
                .unwrap_or(default_tolerance)
        };
        let mut violations = Vec::new();
        for base in &baseline.suites {
            let Some(cur) = self.suites.iter().find(|s| s.name == base.name) else {
                violations.push(Violation {
                    suite: base.name.clone(),
                    metric: "missing_suite".into(),
                    baseline: 1.0,
                    current: 0.0,
                    rel_change: -1.0,
                    tolerance: 0.0,
                });
                continue;
            };
            let mut gate = |metric: &str, base_v: f64, cur_v: f64| {
                if base_v <= 0.0 || !base_v.is_finite() || !cur_v.is_finite() {
                    return;
                }
                let rel = (cur_v - base_v) / base_v;
                let tol = tol_for(&base.name, metric);
                if rel > tol {
                    violations.push(Violation {
                        suite: base.name.clone(),
                        metric: metric.to_string(),
                        baseline: base_v,
                        current: cur_v,
                        rel_change: rel,
                        tolerance: tol,
                    });
                }
            };
            gate(
                "median_wall_secs",
                base.median_wall_secs,
                cur.median_wall_secs,
            );
            for (name, base_v) in &base.metrics {
                // Histogram quantiles and gauge levels are informational:
                // bucket resolution / end-of-run levels are poor gates.
                if name.starts_with("hist.") || name.starts_with("gauge.") {
                    continue;
                }
                if let Some(cur_v) = cur.metrics.get(name) {
                    gate(name, *base_v, *cur_v);
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "full-scale probe for tuning the learned_duals tripwire"]
    fn learned_duals_full_scale_probe() {
        suite_learned_duals(&PerfgateConfig::default());
    }

    fn small_report() -> PerfgateReport {
        let mut metrics = BTreeMap::new();
        metrics.insert("optim.robust.attempts".to_string(), 10.0);
        metrics.insert("train.rollbacks".to_string(), 1.0);
        metrics.insert("hist.train.round.loss.p50".to_string(), 0.25);
        metrics.insert("gauge.serve.queue.pending".to_string(), 4.0);
        PerfgateReport {
            schema_version: SCHEMA_VERSION,
            created_unix: 1_700_000_000,
            os: "linux".into(),
            arch: "x86_64".into(),
            threads: 8,
            config: PerfgateConfig::default(),
            suites: vec![SuiteResult {
                name: "solve_ad".into(),
                wall_secs: vec![0.5, 0.4, 0.6],
                median_wall_secs: 0.5,
                p95_wall_secs: 0.6,
                metrics,
            }],
            thresholds: BTreeMap::new(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = small_report();
        assert!(r.compare(&r, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn injected_slowdown_fails_check() {
        let base = small_report();
        let mut slow = base.clone();
        slow.suites[0].median_wall_secs *= 2.0; // +100% >> 25%
        let violations = slow.compare(&base, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "median_wall_secs");
        assert!(violations[0].rel_change > 0.9);
        // The other direction (a speedup) is not a violation.
        assert!(base.compare(&slow, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn counter_regressions_gate_but_hist_quantiles_do_not() {
        let base = small_report();
        let mut cur = base.clone();
        *cur.suites[0]
            .metrics
            .get_mut("optim.robust.attempts")
            .unwrap() = 20.0;
        *cur.suites[0]
            .metrics
            .get_mut("hist.train.round.loss.p50")
            .unwrap() = 100.0;
        *cur.suites[0]
            .metrics
            .get_mut("gauge.serve.queue.pending")
            .unwrap() = 100.0;
        let violations = cur.compare(&base, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].metric, "optim.robust.attempts");
    }

    #[test]
    fn per_metric_threshold_overrides_default() {
        let mut base = small_report();
        base.thresholds
            .insert("solve_ad.median_wall_secs".to_string(), 3.0);
        let mut cur = base.clone();
        cur.suites[0].median_wall_secs *= 2.0;
        // +100% clears the 300% override even though it fails the default.
        assert!(cur.compare(&base, DEFAULT_TOLERANCE).is_empty());
        base.thresholds.clear();
        assert!(!cur.compare(&base, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn missing_suite_is_a_violation() {
        let base = small_report();
        let mut cur = base.clone();
        cur.suites.clear();
        let violations = cur.compare(&base, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].metric, "missing_suite");
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut r = small_report();
        r.thresholds.insert("solve_ad.median_wall_secs".into(), 0.5);
        let json_text = r.to_json();
        let doc = json::parse(&json_text).unwrap_or_else(|e| panic!("{e}\n{json_text}"));
        let back = PerfgateReport::from_json(&doc).expect("deserializes");
        assert_eq!(back.suites, r.suites);
        assert_eq!(back.thresholds, r.thresholds);
        assert_eq!(back.config.runs, r.config.runs);
        assert_eq!(back.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut r = small_report();
        r.schema_version = SCHEMA_VERSION + 1;
        let doc = json::parse(&r.to_json()).unwrap();
        assert!(PerfgateReport::from_json(&doc).is_err());
    }

    /// End-to-end smoke at the smallest sizes: every suite produces a
    /// median and at least one metric, and the report's JSON parses.
    #[test]
    fn tiny_pass_covers_every_suite() {
        let cfg = PerfgateConfig {
            runs: 1,
            tasks: 6,
            rounds: 1,
            seed: 3,
        };
        let mut trace = String::new();
        let report = run_perfgate(&cfg, Some(&mut trace));
        assert_eq!(report.suites.len(), 13);
        for s in &report.suites {
            assert!(s.median_wall_secs.is_finite() && s.median_wall_secs >= 0.0);
            assert!(!s.metrics.is_empty(), "suite {} has no metrics", s.name);
        }
        assert!(
            report.suites[2].metrics.contains_key("train.rounds"),
            "train_round suite records training counters"
        );
        let doc = json::parse(&report.to_json()).expect("report JSON is valid");
        assert!(PerfgateReport::from_json(&doc).is_ok());
        // The train_round trace export is valid Chrome trace JSON.
        let trace_doc = json::parse(&trace).expect("trace JSON is valid");
        assert!(trace_doc.get("traceEvents").is_some());
    }
}
