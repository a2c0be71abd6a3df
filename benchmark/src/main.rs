//! MFCP benchmark: serving replay and decision-focused training, measured
//! end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <serve_steady|serve_overload|train_ad|train_fg> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's panel (see `workloads`) with `mfcp_obs`
//! in its default state, repeating training units while `--seconds`
//! allows, and prints the end-to-end metrics. `--trace 1` runs the panel once
//! untraced and once traced (benchmark spans on, a flight-recorder ring
//! large enough for the whole pass), then prints the per-layer metrics
//! and writes the ledger and the Chrome trace under `.bench_out/`.
//! Either way the last line of stdout is the JSON result.

mod digest;
mod ledger;
mod probes;
mod report;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use mfcp_platform::stream::TraceEvent;
use mfcp_serve::{DaemonConfig, ExchangeDaemon};

use crate::digest::Digest;
use crate::ledger::{intervals, Ledger, PASS_SPAN};
use crate::report::{counter, hist_q, self_time_layers, LedgerInputs, Metrics, STAGES};
use crate::stats::{median, Latency, Ratio};
use crate::workloads::{
    mix, panel_size, replay, serve_setup, serve_source, trace_specs, train_setup, train_unit,
    Checks, ReplayOut, ServeTotals, TrainInputs, TrainOut, Workload, MIN_RESOLVES,
};

/// Passes over a training panel per timed run, at most. Keeping the
/// number of `train_mfcp` calls under 20 keeps the tail rule on the
/// maximum however fast the machine is.
const MAX_CYCLES: usize = 3;

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Flight-recorder ring capacity (events per thread) of the traced pass.
const TRACE_CAPACITY: usize = 1 << 22;

/// The solver's strided per-iteration flight-recorder marker.
const PGD_ITER: &str = "pgd.iter";

/// Where runs leave ledgers, Chrome traces and output digests.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str =
    "usage: mfcp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")? as f64,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The fixed work one seed defines.
enum Panel {
    /// Event traces, each replayed through a fresh daemon.
    Serve(Vec<Vec<TraceEvent>>),
    /// Datasets, each trained on and evaluated once.
    Train(Vec<TrainInputs>),
}

/// Builds the panel, timing [`SETUP_REPS`] setups.
fn build_panel(w: Workload, seed: u64) -> (Panel, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    if w.is_serve() {
        let traces: Vec<Vec<TraceEvent>> = (0..panel_size(w) as u64)
            .map(|k| {
                let (trace, secs) = serve_setup(w, mix(seed, k));
                setup_s.push(secs);
                trace
            })
            .collect();
        while setup_s.len() < SETUP_REPS {
            setup_s.push(serve_setup(w, mix(seed, 0)).1);
        }
        return (Panel::Serve(traces), setup_s);
    }
    let units: Vec<TrainInputs> = (0..panel_size(w) as u64)
        .map(|k| {
            let (inputs, secs) = train_setup(w, mix(seed, k));
            setup_s.push(secs);
            inputs
        })
        .collect();
    while setup_s.len() < SETUP_REPS {
        setup_s.push(train_setup(w, units[0].seed).1);
    }
    (Panel::Train(units), setup_s)
}

/// One pass over the panel.
struct PassOut {
    wall_s: f64,
    serve: Vec<ReplayOut>,
    train: Vec<TrainOut>,
    checks: Checks,
    digest: Digest,
}

fn run_pass(w: Workload, panel: &Panel, traced: bool) -> PassOut {
    let t0 = Instant::now();
    let pass_span = traced.then(|| mfcp_obs::span(PASS_SPAN));
    let (serve, train) = match panel {
        Panel::Serve(traces) => {
            let replays = traces
                .iter()
                .map(|trace| {
                    let mut daemon = {
                        let _span = traced.then(|| mfcp_obs::span("bench.setup"));
                        ExchangeDaemon::new(DaemonConfig::default(), serve_source())
                    };
                    replay(&mut daemon, trace, traced)
                })
                .collect();
            (replays, Vec::new())
        }
        Panel::Train(units) => (
            Vec::new(),
            units.iter().map(|u| train_unit(w, u, traced)).collect(),
        ),
    };
    drop(pass_span);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut checks = Checks::default();
    let mut digest = Digest::default();
    for s in &serve {
        checks.merge(s.checks);
        digest.u64(s.digest.value());
    }
    for t in &train {
        checks.merge(t.checks);
        digest.u64(t.digest.value());
    }
    PassOut {
        wall_s,
        serve,
        train,
        checks,
        digest,
    }
}

/// Peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Compares `digest` with the one an earlier run of the same build and
/// seed stored, storing it if none exists. `false` means the two runs
/// disagree.
fn matches_stored_digest(w: Workload, seed: u64, digest: &Digest) -> bool {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos() as u64);
            let mut d = Digest::default();
            d.u64(m.len()).u64(mtime);
            d.hex()
        })
        .unwrap_or_default();
    let path = Path::new(OUT_DIR)
        .join("digests")
        .join(format!("{}-{seed}-{build}.txt", w.name()));
    match std::fs::read_to_string(&path) {
        Ok(stored) => stored.trim() == digest.hex(),
        Err(_) => {
            let _ = std::fs::create_dir_all(path.parent().expect("has a parent"));
            let _ = std::fs::write(&path, digest.hex());
            true
        }
    }
}

/// Every resolve's latency across `replays`, ms.
fn resolve_ms(replays: &[ReplayOut]) -> Vec<f64> {
    replays
        .iter()
        .flat_map(|r| r.resolve_ms.iter().copied())
        .collect()
}

/// The run's verdict and metrics.
struct Outcome {
    checks: Checks,
    metrics: Metrics,
}

/// Whether to start another unit: stop once the next one (estimated from
/// the mean so far) would end more than half a unit past the budget.
fn another_unit(started: Instant, units: usize, budget_s: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    let per = elapsed / units.max(1) as f64;
    elapsed + per / 2.0 < budget_s
}

fn timed_run(args: &Args) -> Outcome {
    let w = args.workload;
    let (panel, setup_s) = build_panel(w, args.seed);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup_s), "s");
    let started = Instant::now();
    let panel_digest;
    match &panel {
        Panel::Serve(_) => {
            let pass = run_pass(w, &panel, false);
            checks.merge(pass.checks);
            panel_digest = pass.digest;
            let totals = ServeTotals::of(&pass.serve);
            if totals.resolves < MIN_RESOLVES {
                // The trace shape no longer yields enough resolves for p99.
                checks.attempted += 1;
                checks.failed += 1;
            }
            let l = Latency::of(&resolve_ms(&pass.serve));
            let call_s: f64 = pass.serve.iter().map(|r| r.call_secs).sum();
            let newton: u64 = ["ok", "failed"]
                .iter()
                .map(|o| mfcp_obs::counter(&format!("optim.robust.stage.newton.{o}")).get())
                .sum();
            println!(
                "{} seed {}: {} traces, {:.1} events/s, {} resolves, {} Newton attempts, {} shed, latency n={} p50 {:.3} ms {} {:.3} ms, served objective {:.6}, digest {}",
                w.name(),
                args.seed,
                panel_size(w),
                totals.events as f64 / call_s,
                totals.resolves,
                newton,
                totals.shed,
                l.n,
                l.p50,
                l.tail_label(),
                l.tail,
                totals.served_objective(),
                panel_digest.hex()
            );
            metrics.push("latency_ms.p50", l.p50, "ms");
        }
        Panel::Train(units) => {
            let mut outs: Vec<TrainOut> = Vec::new();
            let mut firsts: Vec<Digest> = Vec::new();
            loop {
                let k = outs.len() % units.len();
                let out = train_unit(w, &units[k], false);
                checks.merge(out.checks);
                if let Some(first) = firsts.get(k) {
                    checks.attempted += 1;
                    checks.failed += u64::from(*first != out.digest);
                } else {
                    firsts.push(out.digest);
                }
                outs.push(out);
                let done = outs.len() >= MAX_CYCLES * units.len()
                    || !another_unit(started, outs.len(), args.seconds);
                if outs.len() >= units.len() && done {
                    break;
                }
            }
            let mut d = Digest::default();
            for f in &firsts {
                d.u64(f.value());
            }
            panel_digest = d;
            let ms: Vec<f64> = outs.iter().map(|o| o.train_secs * 1e3).collect();
            let rounds: usize = outs.iter().map(|o| o.rounds).sum();
            let secs: f64 = outs.iter().map(|o| o.train_secs).sum();
            let l = Latency::of(&ms);
            let regrets: Vec<String> = outs[..units.len()]
                .iter()
                .map(|o| format!("{:.4}", o.regret))
                .collect();
            println!(
                "{} seed {}: {} train_mfcp calls over {} datasets, {:.2} rounds/s, train_s n={} p50 {:.3} s {} {:.3} s, regret per dataset [{}], digest {}",
                w.name(),
                args.seed,
                outs.len(),
                units.len(),
                rounds as f64 / secs,
                l.n,
                l.p50 / 1e3,
                l.tail_label(),
                l.tail / 1e3,
                regrets.join(", "),
                panel_digest.hex()
            );
            metrics.push("latency_ms.p50", l.p50, "ms");
        }
    }
    checks.attempted += 1;
    if !matches_stored_digest(w, args.seed, &panel_digest) {
        eprintln!(
            "digest {} differs from an earlier run of this seed",
            panel_digest.hex()
        );
        checks.failed += 1;
    }
    Outcome { checks, metrics }
}

fn traced_run(args: &Args) -> Outcome {
    let w = args.workload;
    let (panel, _) = build_panel(w, args.seed);
    let threads = mfcp_parallel::default_threads();
    // Each pass runs on a fresh thread, so the traced pass's ring is
    // created after the capacity is raised.
    let on_thread =
        |traced: bool| std::thread::scope(|s| s.spawn(|| run_pass(w, &panel, traced)).join());
    let plain = on_thread(false).expect("untraced pass panicked");
    let plain_rss_mb = peak_rss_mb();
    mfcp_obs::reset();
    mfcp_obs::trace::set_thread_capacity(TRACE_CAPACITY);
    let traced = on_thread(true).expect("traced pass panicked");
    let snap = mfcp_obs::snapshot();

    let (matrix_specs, kkt_specs) = match &panel {
        Panel::Serve(traces) => {
            let n = ServeTotals::of(&traced.serve).median_active();
            (trace_specs(&traces[0], n), trace_specs(&traces[0], 5))
        }
        Panel::Train(units) => {
            let n = units[0].cfg.round_size;
            (
                units[0].train.tasks[..n].to_vec(),
                units[0].train.tasks[..5].to_vec(),
            )
        }
    };
    let matrix_us = probes::matrix_build_us(&matrix_specs);
    let kkt_us = probes::kkt_grad_us(&kkt_specs);
    let trace = mfcp_obs::trace::drain();

    let mut checks = Checks::default();
    checks.merge(plain.checks);
    checks.merge(traced.checks);
    checks.attempted += 2;
    checks.failed += u64::from(traced.digest != plain.digest);
    checks.failed += u64::from(!matches_stored_digest(w, args.seed, &plain.digest));
    let ledger = match intervals(&trace.events).and_then(|ivs| Ledger::from_intervals(&ivs)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("trace could not be rebuilt: {e}");
            checks.attempted += 1;
            checks.failed += 1;
            Ledger::default()
        }
    };

    let mut m = Metrics::default();
    let c = |name: &str| counter(&snap, name) as f64;
    let totals = ServeTotals::of(&traced.serve);
    let (events, resolves, admitted, shed) =
        (totals.events, totals.resolves, totals.admitted, totals.shed);
    let objective = totals.served_objective();
    m.push("serve.events", events as f64, "count");
    m.push("serve.resolves", resolves as f64, "count");
    m.push("serve.arrivals", (admitted + shed) as f64, "count");
    m.push("serve.shed", shed as f64, "count");
    m.push("optim.robust.calls", c("optim.robust.calls"), "count");
    m.push("optim.robust.attempts", c("optim.robust.attempts"), "count");
    m.push("optim.cache.hit", c("cache.hit"), "count");
    m.push("optim.cache.stale", c("cache.stale"), "count");
    for s in STAGES {
        for outcome in ["ok", "failed"] {
            m.push(
                format!("optim.stage.{s}.{outcome}"),
                c(&format!("optim.robust.stage.{s}.{outcome}")),
                "count",
            );
        }
    }
    m.push("optim.solve.calls", c("optim.solve.calls"), "count");
    m.push("kkt.factor.structured", c("kkt.structured"), "count");
    m.push("kkt.factor.dense", c("kkt.dense_fallback"), "count");
    m.push("linalg.simd.avx2", c("linalg.simd.avx2"), "count");
    m.push("linalg.simd.scalar", c("linalg.simd.scalar"), "count");
    m.push("train.rounds", c("train.rounds"), "count");
    m.push("train.rollbacks", c("train.rollbacks"), "count");
    m.push("parallel.scoped.calls", c("parallel.scoped.calls"), "count");
    m.push("obs.trace_dropped", trace.dropped as f64, "count");
    m.push(
        "optim.attempt_iters.p50",
        hist_q(&snap, "optim.robust.attempt_iters", 0.5),
        "iters",
    );
    m.push(
        "optim.attempt_iters.p95",
        hist_q(&snap, "optim.robust.attempt_iters", 0.95),
        "iters",
    );
    m.push(
        "optim.solve.iters.p50",
        hist_q(&snap, "optim.solve.iters", 0.5),
        "iters",
    );
    m.push(
        "parallel.scoped.items.p50",
        hist_q(&snap, "parallel.scoped.items", 0.5),
        "items",
    );

    let units = traced.train.len().max(1) as f64;
    let regret = traced.train.iter().map(|t| t.regret).sum::<f64>() / units;
    let best_round = traced
        .train
        .iter()
        .map(|t| t.best_round as f64)
        .sum::<f64>()
        / units;
    m.push("serve.served_objective", objective, "objective");
    m.push("train.regret", regret, "makespan");
    m.push("train.best_round", best_round, "round");

    let train_wall_ns = ledger.span("bench.train_mfcp").ns as f64;
    let ratios: Vec<(&str, Ratio)> = vec![
        (
            "serve.shed_frac",
            Ratio {
                num: shed as f64,
                den: (admitted + shed) as f64,
            },
        ),
        (
            "optim.cache.stale_frac",
            Ratio {
                num: c("cache.stale"),
                den: c("cache.hit"),
            },
        ),
        (
            "optim.ladder.useful_frac",
            Ratio {
                num: c("optim.robust.calls"),
                den: c("optim.robust.attempts"),
            },
        ),
        (
            "train.rollback_frac",
            Ratio {
                num: c("train.rollbacks"),
                den: c("train.rounds"),
            },
        ),
        (
            "parallel.busy_frac",
            Ratio {
                num: ledger.worker_train_solve_ns as f64 * 1e-9,
                den: train_wall_ns * 1e-9 * threads as f64,
            },
        ),
        (
            "error_frac",
            Ratio {
                num: checks.failed as f64,
                den: checks.attempted as f64,
            },
        ),
        (
            "obs.trace_overhead_frac",
            Ratio {
                num: traced.wall_s - plain.wall_s,
                den: plain.wall_s,
            },
        ),
    ];
    for (name, r) in &ratios {
        m.push(*name, r.value(), "frac");
    }
    let wall_ns = traced.wall_s * 1e9;
    let mut named = 0u64;
    for layer in self_time_layers() {
        let ns = ledger.self_ns(&layer);
        named += ns;
        m.push(
            format!("layer.{layer}.self_frac"),
            ns as f64 / wall_ns,
            "frac",
        );
    }
    m.push(
        "layer.unattributed.self_frac",
        (wall_ns - named as f64) / wall_ns,
        "frac",
    );
    m.push("platform.matrix_build_us", matrix_us, "us");
    m.push("kkt.grad_us", kkt_us, "us");
    let ops = if w.is_serve() {
        ServeTotals::of(&plain.serve).events as f64
    } else {
        plain.train.iter().map(|t| t.rounds as f64).sum()
    };
    let plain_latency = if w.is_serve() {
        Latency::of(&resolve_ms(&plain.serve))
    } else {
        Latency::of(
            &plain
                .train
                .iter()
                .map(|t| t.train_secs * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    m.push("latency_ms.tail", plain_latency.tail, "ms");
    m.push("ops_per_s", ops / plain.wall_s, "1/s");
    m.push("peak_rss_mb", plain_rss_mb, "MB");
    m.push("obs.traced_wall_s", traced.wall_s, "s");
    m.push("obs.untraced_wall_s", plain.wall_s, "s");

    let mut notes: Vec<(String, String)> = vec![
        ("digest".into(), plain.digest.hex()),
        (
            "untraced latency".into(),
            format!(
                "n={} p50 {:.3} ms, {} {:.3} ms",
                plain_latency.n,
                plain_latency.p50,
                plain_latency.tail_label(),
                plain_latency.tail
            ),
        ),
        (
            "platform.matrix_build_us".into(),
            format!("{matrix_us:.3} (N={})", matrix_specs.len()),
        ),
        (
            "kkt.grad_us".into(),
            format!("{kkt_us:.3} (M=3, N={})", kkt_specs.len()),
        ),
        ("obs.trace_dropped".into(), trace.dropped.to_string()),
        ("trace events".into(), trace.events.len().to_string()),
        (
            "pgd.iter markers".into(),
            format!(
                "{} (left out of the written Chrome trace)",
                trace.events.iter().filter(|e| e.name == PGD_ITER).count()
            ),
        ),
        (
            "checks (failed/attempted)".into(),
            format!("{}/{}", checks.failed, checks.attempted),
        ),
    ];
    if resolves > 0 {
        notes.push((
            "serve.served_objective".into(),
            format!("{objective:.6} over {resolves} resolves"),
        ));
        notes.push((
            "median active tasks".into(),
            totals.median_active().to_string(),
        ));
    }
    for (k, t) in traced.train.iter().enumerate() {
        notes.push((
            format!("dataset {k}"),
            format!(
                "regret {:.6} best_round {} rollbacks {} train {:.3} s",
                t.regret, t.best_round, t.rollbacks, t.train_secs
            ),
        ));
    }
    let text = report::ledger_text(&LedgerInputs {
        workload: w.name(),
        seed: args.seed,
        snap: &snap,
        ledger: &ledger,
        traced_wall_s: traced.wall_s,
        untraced_wall_s: plain.wall_s,
        resolves,
        threads,
        ratios: &ratios,
        notes: &notes,
    });
    print!("{text}");
    let stem = PathBuf::from(OUT_DIR).join(format!("{}-seed{}", w.name(), args.seed));
    // The strided per-iteration solver markers are nearly all of the
    // events; the written trace keeps spans, ladder stages and every other
    // marker.
    let mut chrome = trace;
    chrome.events.retain(|e| e.name != PGD_ITER);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(stem.with_extension("ledger.txt"), &text))
        .and_then(|()| std::fs::write(stem.with_extension("trace.json"), chrome.to_chrome_json()));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", stem.display());
    }
    Outcome { checks, metrics: m }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mfcp-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let Checks { attempted, failed } = outcome.checks;
    println!(
        "{}",
        report::result_line(failed == 0, attempted, failed, &outcome.metrics)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail_quantile;

    #[test]
    fn training_runs_report_the_maximum_as_tail() {
        for w in [Workload::TrainAd, Workload::TrainFg] {
            assert_eq!(tail_quantile(MAX_CYCLES * panel_size(w)), None);
        }
    }
}
