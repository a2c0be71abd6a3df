//! The long-running exchange daemon.
//!
//! [`ExchangeDaemon`] consumes [`ExchangeEvent`]s in order and keeps a
//! current matching over the active task set:
//!
//! * **Arrivals** pass admission control (bounded pending queue plus a
//!   platform-capacity bound) or are shed; admitted tasks buffer in the
//!   pending queue until the next resolve.
//! * **Departures** and **cluster outage events** change the structure
//!   of the matching and trigger an immediate re-solve; arrivals batch
//!   up to [`DaemonConfig::resolve_batch`] before triggering one.
//! * **Resolves** run [`RobustSolver::solve_cached`] with the previous
//!   assignment carried onto the current task set as an explicit
//!   [`SeedKind::Carried`] seed: surviving tasks keep their columns, new
//!   tasks start uniform (or from a repaired dual-head prediction). The
//!   seed is a pure function of the problem and the last matching and is
//!   passed straight to the solver; the [`WarmStartCache`] only ever
//!   holds optima the ladder actually produced.
//! * A per-resolve [`Budget`] deadline cooperatively cancels the
//!   optimizing rungs mid-iteration when the request blows its latency
//!   budget; the greedy rung still runs, so every resolve produces a
//!   feasible matching (`serve.deadline_miss` counts the degradations).
//! * Under overload (pending at or past
//!   [`DaemonConfig::degrade_watermark`]) the resolve skips straight to
//!   the greedy-only ladder to drain the backlog quickly.
//!
//! The daemon is deliberately single-threaded and wall-clock-free
//! except for the optional deadline: given the same trace it performs
//! the same solves in the same order, which is what makes the
//! kill/resume differential test meaningful.
//!
//! Cluster outages are modeled as a multiplicative slowdown on the
//! downed cluster's row of the time matrix rather than removing the
//! row: the problem keeps its shape (and therefore its structural
//! cache fingerprint), and the optimizer routes around the penalized
//! cluster on its own.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mfcp_core::predictor::ClusterPredictor;
use mfcp_linalg::Matrix;
use mfcp_optim::cache::validate_warm;
use mfcp_optim::learned::predict_repaired;
use mfcp_optim::{
    Budget, DualPredictor, FallbackStage, LearnedDualHead, MatchingProblem, RelaxationParams,
    RobustSolver, Seed, SeedKind, SkipReason, SolveDiagnostics, SolveError, StageOutcome,
    WarmStartCache,
};
use mfcp_platform::prelude::{FeatureEmbedder, PerfModel};
use mfcp_platform::stream::ExchangeEvent;
use mfcp_platform::task::TaskSpec;

use crate::state::{
    read_snapshot, write_snapshot, ExchangeState, LastSolution, ServeCounters, SnapshotError,
    PREDICTOR_DIR,
};

/// Where the daemon gets its time/reliability matrices.
pub enum MatrixSource {
    /// The platform's ground-truth performance model (simulation mode).
    GroundTruth(PerfModel),
    /// Trained per-cluster predictors over embedded task features
    /// (deployment mode; these are what the snapshot checkpoints).
    Learned {
        /// One predictor per cluster.
        predictors: Vec<ClusterPredictor>,
        /// The feature embedding the predictors were trained on.
        embedder: FeatureEmbedder,
    },
}

impl MatrixSource {
    /// Number of clusters this source predicts for.
    pub fn clusters(&self) -> usize {
        match self {
            MatrixSource::GroundTruth(model) => model.len(),
            MatrixSource::Learned { predictors, .. } => predictors.len(),
        }
    }

    /// Builds the `(time, reliability)` matrices for `specs`.
    fn matrices(&self, specs: &[TaskSpec]) -> (Matrix, Matrix) {
        match self {
            MatrixSource::GroundTruth(model) => {
                (model.time_matrix(specs), model.reliability_matrix(specs))
            }
            MatrixSource::Learned {
                predictors,
                embedder,
            } => {
                let features = embedder.embed_batch(specs);
                let m = predictors.len();
                let n = specs.len();
                let mut t = Matrix::zeros(m, n);
                let mut a = Matrix::zeros(m, n);
                for (i, p) in predictors.iter().enumerate() {
                    let ti = p.predict_times(&features);
                    let ai = p.predict_reliability(&features);
                    for j in 0..n {
                        t[(i, j)] = ti[j].max(1e-6);
                        a[(i, j)] = ai[j].clamp(0.0, 1.0);
                    }
                }
                (t, a)
            }
        }
    }
}

/// Tuning knobs for the daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Relaxation parameters for the matching solves.
    pub params: RelaxationParams,
    /// Platform-wide reliability threshold γ.
    pub gamma: f64,
    /// Admission bound on the pending queue; arrivals beyond it shed.
    pub max_pending: usize,
    /// Admission bound on total load (active + pending); arrivals
    /// beyond it shed. This is the platform-at-capacity backstop that
    /// keeps the matching problem itself bounded.
    pub max_load: usize,
    /// Number of buffered arrivals that triggers a resolve.
    pub resolve_batch: usize,
    /// Pending length at which resolves degrade to the greedy-only
    /// ladder (catch-up mode under overload).
    pub degrade_watermark: usize,
    /// Per-resolve wall-clock deadline. `None` disables the deadline —
    /// required for bit-for-bit differential tests, since wall time is
    /// inherently nondeterministic.
    pub deadline: Option<Duration>,
    /// Multiplier applied to a downed cluster's execution times.
    pub outage_slowdown: f64,
    /// Bind address for the live ops surface (`mfcp_obs::http`), e.g.
    /// `127.0.0.1:9184`; `None` (the default) disables it. The server
    /// and its sampler only *read* registry atomics — solver state is
    /// untouched, so enabling it keeps replays bit-identical (the chaos
    /// suite asserts this).
    pub metrics_addr: Option<String>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            params: RelaxationParams::default(),
            gamma: 0.75,
            max_pending: 32,
            max_load: 256,
            resolve_batch: 8,
            degrade_watermark: 24,
            deadline: None,
            outage_slowdown: 1e4,
            metrics_addr: None,
        }
    }
}

/// The daemon's live ops surface: the embedded HTTP server plus the
/// background registry sampler feeding its rolling windows. Field order
/// is drop order — the HTTP server stops answering before the sampler
/// stops ticking, so no request ever reads a dead sampler's window.
struct LiveOps {
    server: mfcp_obs::ObsServer,
    _sampler: mfcp_obs::SamplerHandle,
}

impl LiveOps {
    /// Sampling interval for the daemon's rolling windows: fine enough
    /// that a 60-tick window is ~15 s of history, coarse enough that a
    /// tick is noise next to a resolve.
    const SAMPLE_INTERVAL: Duration = Duration::from_millis(250);

    fn start(addr: &str) -> Option<LiveOps> {
        let series = std::sync::Arc::new(mfcp_obs::TimeSeries::new(mfcp_obs::TimeSeriesConfig {
            interval: Self::SAMPLE_INTERVAL,
            capacity: 480,
        }));
        let sampler = series.start();
        let cfg = mfcp_obs::HttpConfig {
            addr: addr.to_string(),
            ..mfcp_obs::HttpConfig::default()
        };
        match mfcp_obs::ObsServer::start(cfg, Some(series)) {
            Ok(server) => Some(LiveOps {
                server,
                _sampler: sampler,
            }),
            Err(e) => {
                // The ops surface is auxiliary: a bind failure (port in
                // use, bad address) must not take the exchange down.
                mfcp_obs::counter("serve.ops_bind_error").inc();
                eprintln!("serve: ops server failed to bind {addr}: {e}");
                None
            }
        }
    }
}

/// The online exchange daemon. See the module docs for the event-loop
/// semantics and [`crate::state`] for what snapshots persist.
pub struct ExchangeDaemon {
    config: DaemonConfig,
    source: MatrixSource,
    solver: RobustSolver,
    cache: WarmStartCache,
    // Frozen at attach time: the online loop never trains it, so a
    // restored daemon with the same head replays bit-identically.
    dual_head: Option<LearnedDualHead>,
    state: ExchangeState,
    // Obs handles resolved once; per-event cost is an atomic op.
    c_admitted: mfcp_obs::Counter,
    c_shed: mfcp_obs::Counter,
    c_deadline_miss: mfcp_obs::Counter,
    c_resolves: mfcp_obs::Counter,
    c_degraded: mfcp_obs::Counter,
    h_latency: mfcp_obs::Histogram,
    h_batch: mfcp_obs::Histogram,
    g_pending: mfcp_obs::Gauge,
    g_active: mfcp_obs::Gauge,
    g_cache_entries: mfcp_obs::Gauge,
    g_cache_evictions: mfcp_obs::Gauge,
    ops: Option<LiveOps>,
}

impl ExchangeDaemon {
    /// A fresh daemon with empty state.
    pub fn new(config: DaemonConfig, source: MatrixSource) -> Self {
        let mut solver = RobustSolver::new(config.params);
        // The default lr is tuned for offline training batches; the
        // online loop favors the conservative step that converges
        // monotonically on small streaming instances.
        solver.solver_opts.lr = 0.3;
        let ops = config.metrics_addr.as_deref().and_then(LiveOps::start);
        ExchangeDaemon {
            config,
            source,
            solver,
            cache: WarmStartCache::new(),
            dual_head: None,
            state: ExchangeState::default(),
            c_admitted: mfcp_obs::counter("serve.admitted"),
            c_shed: mfcp_obs::counter("serve.shed"),
            c_deadline_miss: mfcp_obs::counter("serve.deadline_miss"),
            c_resolves: mfcp_obs::counter("serve.resolves"),
            c_degraded: mfcp_obs::counter("serve.degraded"),
            h_latency: mfcp_obs::histogram("serve.match_latency_secs"),
            h_batch: mfcp_obs::histogram("serve.resolve_batch_size"),
            g_pending: mfcp_obs::gauge("serve.queue.pending"),
            g_active: mfcp_obs::gauge("serve.active_tasks"),
            g_cache_entries: mfcp_obs::gauge("serve.cache.entries"),
            g_cache_evictions: mfcp_obs::gauge("serve.cache.evictions"),
            ops,
        }
    }

    /// Attaches a trained [`LearnedDualHead`] (typically from
    /// [`mfcp_core::train::train_mfcp_with_dual_head`]). The daemon
    /// treats the head as frozen — it predicts seeds for newcomer
    /// columns and first resolves but is never trained online, so two
    /// daemons holding the same head stay bit-identical. Heads are not
    /// part of snapshots; re-attach after [`ExchangeDaemon::restore`].
    pub fn with_dual_head(mut self, head: LearnedDualHead) -> Self {
        self.dual_head = Some(head);
        self
    }

    /// The attached dual head, if any.
    pub fn dual_head(&self) -> Option<&LearnedDualHead> {
        self.dual_head.as_ref()
    }

    /// The bound address of the live ops surface, when
    /// [`DaemonConfig::metrics_addr`] was set and the bind succeeded
    /// (resolves a port-`0` request to the actual port).
    pub fn ops_addr(&self) -> Option<std::net::SocketAddr> {
        self.ops.as_ref().map(|o| o.server.local_addr())
    }

    /// Number of trace events applied so far.
    pub fn cursor(&self) -> u64 {
        self.state.cursor
    }

    /// SLO counters accumulated so far.
    pub fn counters(&self) -> ServeCounters {
        self.state.counters
    }

    /// The current matching, if one has been solved.
    pub fn last_solution(&self) -> Option<&LastSolution> {
        self.state.last.as_ref()
    }

    /// Live warm-start cache statistics (`entries`, `hits`, `stale`,
    /// `evictions`) for health monitoring.
    pub fn cache_stats(&self) -> mfcp_optim::CacheStats {
        self.cache.stats()
    }

    /// Current pending-queue length.
    pub fn pending_len(&self) -> usize {
        self.state.pending.len()
    }

    /// Applies one event, advancing the cursor and resolving when the
    /// event calls for it.
    pub fn apply(&mut self, event: &ExchangeEvent) {
        self.state.cursor += 1;
        match event {
            ExchangeEvent::Arrival { task_id, spec } => {
                mfcp_obs::trace::instant("serve.arrival", Some(*task_id));
                let load = self.state.active.len() + self.state.pending.len();
                if self.state.pending.len() >= self.config.max_pending
                    || load >= self.config.max_load
                {
                    self.state.counters.shed += 1;
                    self.c_shed.inc();
                    mfcp_obs::trace::instant("serve.shed", Some(*task_id));
                } else {
                    self.state.pending.push_back((*task_id, spec.clone()));
                    self.state.counters.admitted += 1;
                    self.c_admitted.inc();
                    let depth = self.state.pending.len() as u64;
                    self.state.counters.max_pending_seen =
                        self.state.counters.max_pending_seen.max(depth);
                    if self.state.pending.len() >= self.config.resolve_batch {
                        self.resolve();
                    }
                }
            }
            ExchangeEvent::Departure { task_id } => {
                mfcp_obs::trace::instant("serve.departure", Some(*task_id));
                let was_active = self.state.active.remove(task_id).is_some();
                self.state.pending.retain(|(id, _)| id != task_id);
                if was_active {
                    // The freed slot changes the optimum; rebalance now.
                    self.resolve();
                }
            }
            ExchangeEvent::ClusterDown { cluster } => {
                mfcp_obs::trace::instant("serve.cluster_down", Some(*cluster as u64));
                self.state.down.insert(*cluster);
                self.resolve();
            }
            ExchangeEvent::ClusterUp { cluster } => {
                mfcp_obs::trace::instant("serve.cluster_up", Some(*cluster as u64));
                self.state.down.remove(cluster);
                self.resolve();
            }
        }
        // Levels, not counts: published once per event after the queues
        // settle, so the sampler's rings see consistent depths.
        self.g_pending.set(self.state.pending.len() as f64);
        self.g_active.set(self.state.active.len() as f64);
    }

    /// Flushes any buffered arrivals with a final resolve. Call at end
    /// of trace (replay does).
    pub fn finish(&mut self) {
        if !self.state.pending.is_empty() {
            self.resolve();
        }
    }

    /// Drains pending into active and re-solves the matching. Returns the
    /// solve's diagnostics, or `None` when the active set is empty.
    fn resolve(&mut self) -> Option<SolveDiagnostics> {
        let backlog = self.state.pending.len();
        let degraded = backlog >= self.config.degrade_watermark;
        while let Some((id, spec)) = self.state.pending.pop_front() {
            self.state.active.insert(id, spec);
        }
        if self.state.active.is_empty() {
            self.state.last = None;
            return None;
        }

        let ids: Vec<u64> = self.state.active.keys().copied().collect();
        let specs: Vec<TaskSpec> = self.state.active.values().cloned().collect();
        let (mut t, a) = self.source.matrices(&specs);
        for &cluster in &self.state.down {
            if cluster < t.rows() {
                for j in 0..t.cols() {
                    t[(cluster, j)] *= self.config.outage_slowdown;
                }
            }
        }
        let problem = MatchingProblem::new(t, a, self.config.gamma);

        let seed = self.carried_seed(&problem, &ids);

        let mut solver = match self.config.deadline {
            Some(limit) => self.solver.with_budget(Budget::with_deadline(limit)),
            None => self.solver.clone(),
        };
        if degraded {
            solver.ladder = vec![FallbackStage::GreedyRounding];
            self.state.counters.degraded += 1;
            self.c_degraded.inc();
        }

        let started = Instant::now();
        mfcp_obs::trace::begin("serve.resolve", Some(self.state.counters.resolves));
        // With a dual head attached, a resolve without a carried seed
        // that finds no usable cache entry (first solve, restart with a
        // cold cache) seeds from predicted duals instead of the uniform
        // simplex point.
        let predictor = self.dual_head.as_ref().map(|h| h as &dyn DualPredictor);
        let result = solver.solve_cached(&problem, &mut self.cache, seed, predictor);
        mfcp_obs::trace::end("serve.resolve", Some(self.state.counters.resolves));
        let elapsed = started.elapsed();
        self.h_latency.record_duration(elapsed);
        self.h_batch.record(backlog as f64);
        self.state.counters.resolves += 1;
        self.c_resolves.inc();
        self.cache.advance_generation();
        let cache = self.cache.stats();
        self.g_cache_entries.set(cache.entries as f64);
        self.g_cache_evictions.set(cache.evicted as f64);

        match result {
            Ok(sol) => {
                let missed = sol.diagnostics.attempts.iter().any(|att| {
                    matches!(
                        att.outcome,
                        StageOutcome::Failed(SolveError::DeadlineExceeded { .. })
                            | StageOutcome::Skipped(SkipReason::RequestBudget)
                    )
                });
                if missed {
                    self.state.counters.deadline_miss += 1;
                    self.c_deadline_miss.inc();
                    mfcp_obs::trace::instant("serve.deadline_miss", None);
                }
                self.state.last = Some(LastSolution {
                    ids,
                    x: sol.x,
                    objective: sol.objective,
                });
                Some(sol.diagnostics)
            }
            Err(e) => {
                // The greedy rung is infallible, so this is a config
                // error (e.g. an empty ladder). Keep the previous
                // matching rather than serving nothing.
                mfcp_obs::counter("serve.solve_error").inc();
                mfcp_obs::trace::instant("serve.solve_error", None);
                debug_assert!(false, "resolve failed: {e}");
                None
            }
        }
    }

    /// The previous assignment carried onto the current task set, as a
    /// [`SeedKind::Carried`] seed. Surviving tasks keep their columns;
    /// new tasks take predicted-dual columns when a dual head is attached
    /// (repaired onto the simplex, uniform on rejection) and uniform
    /// `1/m` otherwise. `None` before the first matching, after a change
    /// of cluster pool, or when the spliced point fails validation.
    fn carried_seed(&self, problem: &MatchingProblem, ids: &[u64]) -> Option<Seed> {
        let last = self.state.last.as_ref()?;
        let (m, n) = (problem.clusters(), problem.tasks());
        if last.x.rows() != m {
            return None;
        }
        let old_col: BTreeMap<u64, usize> = last
            .ids
            .iter()
            .enumerate()
            .map(|(j, id)| (*id, j))
            .collect();
        let newcomers = ids.iter().filter(|id| !old_col.contains_key(id)).count();
        let predicted = if newcomers > 0 {
            self.predicted_newcomer_seed(problem)
        } else {
            None
        };
        if predicted.is_some() {
            mfcp_obs::counter("serve.predicted_seed_cols").add(newcomers as u64);
        }
        let uniform = 1.0 / m as f64;
        let x = Matrix::from_fn(m, n, |i, j| match old_col.get(&ids[j]) {
            Some(&jj) => last.x[(i, jj)],
            None => match &predicted {
                Some(px) => px[(i, j)],
                None => uniform,
            },
        });
        validate_warm(&x, m, n).then_some(Seed {
            x,
            kind: SeedKind::Carried,
        })
    }

    /// A repaired predicted primal for the current problem, used to
    /// seed newcomer columns. `None` when no head is attached, the head
    /// abstains, or the repair kernel rejects the prediction (the
    /// newcomers then fall back to the uniform seed).
    fn predicted_newcomer_seed(&self, problem: &MatchingProblem) -> Option<Matrix> {
        let head = self.dual_head.as_ref()?;
        match predict_repaired(head, problem, &self.solver.params)? {
            Ok(x) => Some(x),
            Err(_) => {
                mfcp_obs::counter("serve.predicted_seed_rejected").inc();
                None
            }
        }
    }

    /// Writes a crash-consistent snapshot of the full exchange state
    /// into `dir` (document plus, in learned mode, the predictor
    /// checkpoint).
    pub fn snapshot(&self, dir: &Path) -> Result<(), SnapshotError> {
        let predictor_count = match &self.source {
            MatrixSource::GroundTruth(_) => 0,
            MatrixSource::Learned { predictors, .. } => {
                mfcp_core::train::write_checkpoint(&dir.join(PREDICTOR_DIR), predictors)?;
                predictors.len()
            }
        };
        write_snapshot(dir, &self.state, &self.cache, predictor_count)?;
        mfcp_obs::counter("serve.snapshots").inc();
        mfcp_obs::trace::instant("serve.snapshot", Some(self.state.cursor));
        Ok(())
    }

    /// Restores a daemon from a snapshot directory.
    ///
    /// `source` supplies the static serving configuration (ground-truth
    /// model or embedder); when the snapshot carries a predictor
    /// checkpoint, the predictors inside `source` are replaced by the
    /// checkpointed ones, so the restored daemon predicts with exactly
    /// the weights it was killed with.
    pub fn restore(
        dir: &Path,
        config: DaemonConfig,
        source: MatrixSource,
    ) -> Result<Self, SnapshotError> {
        let mut daemon = ExchangeDaemon::new(config, source);
        let (state, cache, predictor_count) = read_snapshot(dir, &daemon.cache)?;
        if predictor_count > 0 {
            let MatrixSource::Learned { predictors, .. } = &mut daemon.source else {
                return Err(SnapshotError::Format(
                    "snapshot carries a predictor checkpoint but the daemon \
                     was restored with a ground-truth source"
                        .into(),
                ));
            };
            *predictors =
                mfcp_core::train::load_checkpoint(&dir.join(PREDICTOR_DIR), predictor_count)
                    .map_err(|e| SnapshotError::Format(e.to_string()))?;
        }
        if state
            .last
            .as_ref()
            .is_some_and(|l| l.x.rows() != daemon.source.clusters())
        {
            return Err(SnapshotError::Format(
                "snapshot assignment does not match the cluster pool".into(),
            ));
        }
        daemon.state = state;
        daemon.cache = cache;
        mfcp_obs::counter("serve.restores").inc();
        mfcp_obs::trace::instant("serve.restore", Some(daemon.state.cursor));
        Ok(daemon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfcp_optim::cache::fingerprint;
    use mfcp_platform::prelude::{ClusterPool, Setting};
    use mfcp_platform::task::{Corpus, TaskFamily};

    fn daemon(config: DaemonConfig) -> ExchangeDaemon {
        let source = MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A));
        ExchangeDaemon::new(config, source)
    }

    fn arrive(daemon: &mut ExchangeDaemon, ids: std::ops::Range<u64>) {
        for id in ids {
            daemon.apply(&ExchangeEvent::Arrival {
                task_id: id,
                spec: TaskSpec {
                    family: TaskFamily::Cnn,
                    corpus: Corpus::Cifar10,
                    depth: 4 + (id as usize % 8),
                    width: 64,
                    batch_size: 128,
                },
            });
        }
    }

    /// The cache key of an `n`-task resolve: the fingerprint is
    /// structural, so any problem of the daemon's shape shares it.
    fn key_for(daemon: &ExchangeDaemon, n: usize) -> u64 {
        let m = daemon.source.clusters();
        let shape = MatchingProblem::new(
            Matrix::zeros(m, n),
            Matrix::zeros(m, n),
            daemon.config.gamma,
        );
        fingerprint(&shape, &daemon.solver.params)
    }

    #[test]
    fn degraded_resolve_caches_nothing() {
        // A normal 2-task resolve, then a greedy-only 6-task resolve (the
        // backlog reaches the watermark). Greedy results are never cached,
        // and the carried seed never enters the cache, so the 6-task
        // fingerprint must have no entry: nothing in the cache (or in a
        // snapshot of it) may claim an optimum the ladder never produced.
        let mut daemon = daemon(DaemonConfig {
            resolve_batch: 4,
            degrade_watermark: 4,
            ..DaemonConfig::default()
        });
        arrive(&mut daemon, 0..2);
        daemon.finish();
        assert_eq!(daemon.counters().degraded, 0);
        let solved = key_for(&daemon, 2);
        assert!(
            daemon.cache.entry_mut(solved).is_some(),
            "a real optimum is cached"
        );

        arrive(&mut daemon, 2..6);
        assert_eq!(
            daemon.counters().degraded,
            1,
            "the 6-task resolve ran greedy-only"
        );
        assert_eq!(daemon.last_solution().map(|l| l.ids.len()), Some(6));
        let degraded = key_for(&daemon, 6);
        assert!(
            daemon.cache.entry_mut(degraded).is_none(),
            "a degraded resolve must leave no cache entry"
        );
        assert_eq!(daemon.cache_stats().entries, 1);
    }

    #[test]
    fn resolve_runs_the_carried_seed_first() {
        let mut daemon = daemon(DaemonConfig {
            resolve_batch: 1_000,
            ..DaemonConfig::default()
        });
        arrive(&mut daemon, 0..3);
        let first = daemon.resolve().expect("three active tasks");
        assert_eq!(
            first.attempts[0].seed, None,
            "no previous matching to carry"
        );
        assert_eq!(first.cache, Some(mfcp_optim::CacheOutcome::Miss));

        arrive(&mut daemon, 3..5);
        let second = daemon.resolve().expect("five active tasks");
        assert_eq!(second.attempts[0].seed, Some(SeedKind::Carried));
        assert!(
            second.path().starts_with("carried-primary"),
            "{}",
            second.path()
        );
        assert_eq!(second.cache, None, "a carried seed skips the cache lookup");
        let stats = daemon.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.stale), (0, 1, 0));
    }
}
