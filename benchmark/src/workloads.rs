//! The four workloads: two serving replays and two decision-focused
//! training runs, each driven through the program's public APIs.
//!
//! A workload's *panel* is the fixed work one seed defines: one event
//! trace for the serve workloads, a few datasets for the training ones.
//! Every output that can be checked for equality (final matchings,
//! counters, regret bits, predictor documents) is a function of the panel
//! alone, so repeating the panel must reproduce the same digest.

use std::time::Instant;

use mfcp_bench::ExperimentSetup;
use mfcp_core::eval::evaluate_method;
use mfcp_core::methods::{MfcpPredictor, PerformancePredictor};
use mfcp_core::train::{train_mfcp, GradientMode, MfcpTrainConfig};
use mfcp_linalg::Matrix;
use mfcp_optim::solver::is_column_stochastic;
use mfcp_optim::SpeedupCurve;
use mfcp_platform::dataset::PlatformDataset;
use mfcp_platform::prelude::{ClusterPool, Setting};
use mfcp_platform::stream::{generate_trace, ExchangeEvent, TraceConfig, TraceEvent};
use mfcp_platform::task::TaskSpec;
use mfcp_serve::{DaemonConfig, ExchangeDaemon, MatrixSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::digest::Digest;

/// Resolves a serve panel must contain, so that p99 has ten samples
/// beyond it.
pub const MIN_RESOLVES: u64 = 1000;

/// Column-stochasticity tolerance of the served-matching check.
const STOCHASTIC_TOL: f64 = 1e-6;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson replay at moderate load.
    ServeSteady,
    /// Poisson replay pinned at the admission bound, frequent outages.
    ServeOverload,
    /// Table 1 setup, MFCP-AD.
    TrainAd,
    /// Table 2 setup, MFCP-FG.
    TrainFg,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSteady,
        Workload::ServeOverload,
        Workload::TrainAd,
        Workload::TrainFg,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSteady => "serve_steady",
            Workload::ServeOverload => "serve_overload",
            Workload::TrainAd => "train_ad",
            Workload::TrainFg => "train_fg",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this is a serving workload.
    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeSteady | Workload::ServeOverload)
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Counts of checked operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
}

impl Checks {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

// ---------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------

/// The trace shape of a serve workload.
pub fn trace_config(workload: Workload, seed: u64) -> TraceConfig {
    match workload {
        // ~85 active tasks at resolve time, three outages of about an hour.
        Workload::ServeSteady => TraceConfig {
            seed,
            duration_secs: 24_000.0,
            mean_interarrival_secs: 10.0,
            mean_service_secs: 900.0,
            ..TraceConfig::default()
        },
        // Offered load ~450 against max_load 256: about a third of the
        // arrivals shed, and fifteen ~600 s outages.
        Workload::ServeOverload => TraceConfig {
            seed,
            duration_secs: 9_000.0,
            mean_interarrival_secs: 4.0,
            mean_service_secs: 1_800.0,
            outages: 15,
            mean_outage_secs: 600.0,
            ..TraceConfig::default()
        },
        _ => unreachable!("not a serve workload"),
    }
}

/// The ground-truth Setting A platform (M = 3) every serve run uses.
pub fn serve_source() -> MatrixSource {
    MatrixSource::GroundTruth(ClusterPool::standard().setting(Setting::A))
}

/// Generates the trace and constructs a daemon, timing both; returns the
/// trace and the setup time in seconds. Each replay constructs its own
/// daemon, so this one only measures the cost.
pub fn serve_setup(workload: Workload, seed: u64) -> (Vec<TraceEvent>, f64) {
    let t0 = Instant::now();
    let trace = generate_trace(&trace_config(workload, seed));
    let daemon = ExchangeDaemon::new(DaemonConfig::default(), serve_source());
    let secs = t0.elapsed().as_secs_f64();
    drop(daemon);
    (trace, secs)
}

/// What one replay of a serve panel produced.
#[derive(Debug, Clone, Default)]
pub struct ReplayOut {
    /// Events applied.
    pub events: u64,
    /// Wall time of every `apply`/`finish` call that resolved, ms.
    pub resolve_ms: Vec<f64>,
    /// Summed wall time of every `apply`/`finish` call, s.
    pub call_secs: f64,
    /// Sum of `last_solution().objective` over resolves.
    pub objective_sum: f64,
    /// Active task count after each resolve.
    pub active: Vec<usize>,
    /// The daemon's final counters.
    pub resolves: u64,
    /// Arrivals shed.
    pub shed: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Per-resolve output checks plus `serve.solve_error`.
    pub checks: Checks,
    /// Digest of the final matching and counters.
    pub digest: Digest,
}

/// Totals over the replays of one panel.
#[derive(Debug, Clone, Default)]
pub struct ServeTotals {
    /// Events applied.
    pub events: u64,
    /// Resolves.
    pub resolves: u64,
    /// Arrivals shed.
    pub shed: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Sum of served objectives over resolves.
    pub objective_sum: f64,
    /// Active task count after each resolve.
    pub active: Vec<usize>,
}

impl ServeTotals {
    /// Sums `replays`.
    pub fn of(replays: &[ReplayOut]) -> ServeTotals {
        let mut t = ServeTotals::default();
        for r in replays {
            t.events += r.events;
            t.resolves += r.resolves;
            t.shed += r.shed;
            t.admitted += r.admitted;
            t.objective_sum += r.objective_sum;
            t.active.extend_from_slice(&r.active);
        }
        t
    }

    /// Mean served objective over resolves.
    pub fn served_objective(&self) -> f64 {
        self.objective_sum / self.resolves.max(1) as f64
    }

    /// Median active task count at resolve time.
    pub fn median_active(&self) -> usize {
        let mut a = self.active.clone();
        a.sort_unstable();
        a.get(a.len() / 2).copied().unwrap_or(1).max(1)
    }
}

/// Checks one served matching: shape, finiteness, column sums.
fn served_matching_ok(daemon: &ExchangeDaemon) -> bool {
    let Some(last) = daemon.last_solution() else {
        return false;
    };
    let x = &last.x;
    x.rows() == 3
        && x.cols() == last.ids.len()
        && last.objective.is_finite()
        && x.as_slice().iter().all(|v| v.is_finite())
        && is_column_stochastic(x, STOCHASTIC_TOL)
}

/// Replays `trace` closed-loop through `daemon`: each event is applied
/// after the previous call returns. With `traced`, each call runs inside
/// a `bench.apply` / `bench.finish` span.
pub fn replay(daemon: &mut ExchangeDaemon, trace: &[TraceEvent], traced: bool) -> ReplayOut {
    let solve_errors = mfcp_obs::counter("serve.solve_error");
    let errors_before = solve_errors.get();
    let mut out = ReplayOut::default();
    let call = |daemon: &mut ExchangeDaemon, event: Option<&ExchangeEvent>, out: &mut ReplayOut| {
        let before = daemon.counters().resolves;
        let t0 = Instant::now();
        match event {
            Some(ev) => {
                let _span = traced.then(|| mfcp_obs::span("bench.apply"));
                daemon.apply(ev);
            }
            None => {
                let _span = traced.then(|| mfcp_obs::span("bench.finish"));
                daemon.finish();
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        out.call_secs += dt;
        if daemon.counters().resolves > before {
            out.resolve_ms.push(dt * 1e3);
            out.checks.record(served_matching_ok(daemon));
            if let Some(last) = daemon.last_solution() {
                out.objective_sum += last.objective;
                out.active.push(last.ids.len());
            }
        }
    };
    for ev in trace {
        call(daemon, Some(&ev.event), &mut out);
        out.events += 1;
    }
    call(daemon, None, &mut out);
    let errors = solve_errors.get() - errors_before;
    out.checks.attempted += errors;
    out.checks.failed += errors;

    let c = daemon.counters();
    out.resolves = c.resolves;
    out.shed = c.shed;
    out.admitted = c.admitted;
    let d = &mut out.digest;
    if let Some(last) = daemon.last_solution() {
        d.u64(last.ids.len() as u64);
        for &id in &last.ids {
            d.u64(id);
        }
        d.f64(last.objective);
        for &v in last.x.as_slice() {
            d.f64(v);
        }
    }
    for v in [
        c.admitted,
        c.shed,
        c.deadline_miss,
        c.resolves,
        c.degraded,
        c.max_pending_seen,
    ] {
        d.u64(v);
    }
    out
}

/// The first `n` arriving task specs of a trace (cycled if short).
pub fn trace_specs(trace: &[TraceEvent], n: usize) -> Vec<TaskSpec> {
    let all: Vec<&TaskSpec> = trace
        .iter()
        .filter_map(|e| match &e.event {
            ExchangeEvent::Arrival { spec, .. } => Some(spec),
            _ => None,
        })
        .collect();
    (0..n).map(|i| all[i % all.len()].clone()).collect()
}

// ---------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------

/// Traces or datasets per panel.
pub fn panel_size(workload: Workload) -> usize {
    match workload {
        Workload::ServeSteady => 2,
        Workload::ServeOverload => 1,
        Workload::TrainAd => 5,
        Workload::TrainFg => 2,
    }
}

/// The experiment setup of a training workload.
pub fn experiment(workload: Workload) -> (ExperimentSetup, bool) {
    match workload {
        // The paper's Table 1 setup.
        Workload::TrainAd => (ExperimentSetup::default(), false),
        // The paper's Table 2 setup: parallel execution, N = 10, 160 rounds.
        Workload::TrainFg => (
            ExperimentSetup {
                round_size: 10,
                speedup: Some(SpeedupCurve::paper_parallel()),
                eval_rounds: 25,
                mfcp_rounds: 160,
                ..ExperimentSetup::default()
            },
            true,
        ),
        _ => unreachable!("not a training workload"),
    }
}

/// One training unit's inputs.
pub struct TrainInputs {
    /// Dataset seed.
    pub seed: u64,
    /// Training split.
    pub train: PlatformDataset,
    /// Held-out split.
    pub test: PlatformDataset,
    /// MFCP training configuration.
    pub cfg: MfcpTrainConfig,
}

/// Generates one unit's datasets and config; returns them and the setup
/// time in seconds.
pub fn train_setup(workload: Workload, seed: u64) -> (TrainInputs, f64) {
    let (setup, fg) = experiment(workload);
    let t0 = Instant::now();
    let (train, test) = setup.datasets(seed);
    let mode = if fg {
        GradientMode::ForwardGradient(setup.zeroth_options())
    } else {
        GradientMode::Analytic
    };
    let cfg = setup.mfcp_config(train.clusters(), mode);
    let secs = t0.elapsed().as_secs_f64();
    (
        TrainInputs {
            seed,
            train,
            test,
            cfg,
        },
        secs,
    )
}

/// What one training unit produced.
#[derive(Debug, Clone)]
pub struct TrainOut {
    /// Wall time of `train_mfcp`, s.
    pub train_secs: f64,
    /// Decision-focused rounds run.
    pub rounds: usize,
    /// Held-out mean regret against exact branch-and-bound.
    pub regret: f64,
    /// `TrainReport::best_round`.
    pub best_round: usize,
    /// `TrainReport::rollbacks()`.
    pub rollbacks: usize,
    /// Regret, predictor and round checks.
    pub checks: Checks,
    /// Digest of the regret bits and the predictor document.
    pub digest: Digest,
}

fn predictions_finite(pred: &MfcpPredictor, features: &Matrix) -> bool {
    let (t, a) = pred.predict(features);
    t.as_slice()
        .iter()
        .chain(a.as_slice())
        .all(|v| v.is_finite())
}

/// Trains MFCP on one unit and evaluates it on the held-out split, as
/// `ExperimentSetup::run_method_seed` does. With `traced`, the two calls
/// run inside `bench.train_mfcp` / `bench.evaluate` spans.
pub fn train_unit(workload: Workload, inputs: &TrainInputs, traced: bool) -> TrainOut {
    let (setup, _) = experiment(workload);
    let t0 = Instant::now();
    let (pred, report) = {
        let _span = traced.then(|| mfcp_obs::span("bench.train_mfcp"));
        train_mfcp(&inputs.train, &inputs.cfg, inputs.seed.wrapping_add(101))
    };
    let train_secs = t0.elapsed().as_secs_f64();
    let scores = {
        let _span = traced.then(|| mfcp_obs::span("bench.evaluate"));
        let opts = setup.eval_options(inputs.test.clusters());
        let mut rng = StdRng::seed_from_u64(inputs.seed.wrapping_add(707));
        evaluate_method(&pred, &inputs.test, &opts, &mut rng)
    };
    let regret = scores.regret.mean();
    let doc = pred.to_document();
    let mut checks = Checks::default();
    checks.record(regret.is_finite() && regret >= 0.0);
    checks.record(predictions_finite(&pred, &inputs.test.features));
    checks.record(MfcpPredictor::from_document(&doc).is_ok_and(|p| p.to_document() == doc));
    checks.record(report.loss_history.len() == inputs.cfg.rounds);
    let mut digest = Digest::default();
    digest.f64(regret).str(&doc).u64(report.best_round as u64);
    TrainOut {
        train_secs,
        rounds: report.loss_history.len(),
        regret,
        best_round: report.best_round,
        rollbacks: report.rollbacks(),
        checks,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_eq!(mix(1, 0), mix(1, 0));
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
    }

    #[test]
    fn a_short_training_unit_is_checked_and_repeatable() {
        let run = || {
            let (mut inputs, _) = train_setup(Workload::TrainAd, mix(5, 0));
            inputs.cfg.rounds = 3;
            inputs.cfg.warm_start.epochs = 5;
            train_unit(Workload::TrainAd, &inputs, false)
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.checks,
            Checks {
                attempted: 4,
                failed: 0
            }
        );
        assert_eq!(a.rounds, 3);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.regret.to_bits(), b.regret.to_bits());
    }

    #[test]
    fn a_short_replay_is_checked_and_repeatable() {
        let trace = generate_trace(&TraceConfig {
            seed: 3,
            duration_secs: 600.0,
            mean_interarrival_secs: 20.0,
            mean_service_secs: 300.0,
            ..TraceConfig::default()
        });
        let run = || {
            let mut d = ExchangeDaemon::new(DaemonConfig::default(), serve_source());
            replay(&mut d, &trace, false)
        };
        let (a, b) = (run(), run());
        assert!(a.resolves > 0);
        assert_eq!(a.checks.failed, 0);
        assert_eq!(a.checks.attempted, a.resolves);
        assert_eq!(a.resolve_ms.len() as u64, a.resolves);
        assert_eq!(a.digest, b.digest);
        let (ta, tb) = (ServeTotals::of(&[a]), ServeTotals::of(&[b]));
        assert_eq!(
            ta.served_objective().to_bits(),
            tb.served_objective().to_bits()
        );
    }
}
