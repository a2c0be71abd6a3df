//! Metric lists, the result line, and the per-layer ledger.

use std::fmt::Write as _;

use mfcp_obs::Snapshot;

use crate::ledger::Ledger;
use crate::stats::Ratio;

/// One named, unit-carrying metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// A JSON number: shortest round-trip form, `null` if not finite.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:?}")
    }
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Ladder stages in ladder order, as the program names them.
pub const STAGES: [&str; 6] = [
    "primary",
    "backoff",
    "newton",
    "mirror-descent",
    "euclidean-pgd",
    "greedy-rounding",
];

/// Layers reported as a share of the traced wall time. Whatever the
/// ledger attributes to none of them is the unattributed remainder.
pub fn self_time_layers() -> Vec<String> {
    let mut layers: Vec<String> = ["setup", "serve", "optim.ladder", "optim.learned"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    layers.extend(STAGES.iter().map(|s| format!("optim.stage.{s}")));
    layers.extend(
        [
            "optim.solve",
            "train",
            "train.round",
            "train.warm_start",
            "train.validation",
            "train.checkpoint",
            "core.eval",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    layers
}

/// Counter value, 0 when never registered.
pub fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Histogram quantile, 0 when the histogram is empty or absent.
pub fn hist_q(snap: &Snapshot, name: &str, q: f64) -> f64 {
    snap.histograms
        .get(name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.quantile(q))
}

/// Histogram sample count, 0 when absent.
pub fn hist_n(snap: &Snapshot, name: &str) -> u64 {
    snap.histograms.get(name).map_or(0, |h| h.count)
}

/// Everything the traced run measured, for the ledger text.
pub struct LedgerInputs<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Run seed.
    pub seed: u64,
    /// Registry snapshot taken right after the traced pass.
    pub snap: &'a Snapshot,
    /// Self times of the traced pass.
    pub ledger: &'a Ledger,
    /// Wall time of the traced pass, s.
    pub traced_wall_s: f64,
    /// Wall time of the same panel untraced, s.
    pub untraced_wall_s: f64,
    /// Resolves in the traced pass (0 for training).
    pub resolves: u64,
    /// Worker threads `par_map` forks.
    pub threads: usize,
    /// Ratio lines computed by the caller, printed with their base.
    pub ratios: &'a [(&'a str, Ratio)],
    /// Extra `name value` lines (probes, quality, digests).
    pub notes: &'a [(String, String)],
}

/// Renders the per-layer ledger of one traced run.
pub fn ledger_text(li: &LedgerInputs<'_>) -> String {
    let mut out = String::new();
    let wall_ns = li.traced_wall_s * 1e9;
    let _ = writeln!(out, "# ledger {} seed {}", li.workload, li.seed);
    let _ = writeln!(
        out,
        "traced wall {:.3} s; untraced wall {:.3} s; overhead {}",
        li.traced_wall_s,
        li.untraced_wall_s,
        Ratio {
            num: li.traced_wall_s - li.untraced_wall_s,
            den: li.untraced_wall_s,
        }
    );
    let _ = writeln!(out, "\n## self time by layer (pass thread)");
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>8} {:>9}",
        "layer", "self_ms", "share", "spans"
    );
    let mut named = 0u64;
    for layer in self_time_layers() {
        let t = li.ledger.layers.get(&layer).copied().unwrap_or_default();
        named += t.ns;
        let _ = writeln!(
            out,
            "{:<28} {:>12.3} {:>8.4} {:>9}",
            layer,
            t.ms(),
            t.ns as f64 / wall_ns,
            t.count
        );
    }
    let rest = wall_ns - named as f64;
    let _ = writeln!(
        out,
        "{:<28} {:>12.3} {:>8.4} {:>9}",
        "unattributed",
        rest * 1e-6,
        rest / wall_ns,
        "-"
    );
    for (layer, t) in &li.ledger.layers {
        if layer == "bench.loop" || layer.starts_with("other.") {
            let _ = writeln!(out, "  of which {:<19} {:>12.3}", layer, t.ms());
        }
    }
    let _ = writeln!(
        out,
        "  of which outside the pass span {:>8.3}",
        (wall_ns - li.ledger.pass_ns as f64) * 1e-6
    );
    let _ = writeln!(
        out,
        "{:<28} {:>12.3}  (layers on the pass thread sum to the pass span: {:.3} ms)",
        "sum = traced wall",
        wall_ns * 1e-6,
        li.ledger.attributed_ns() as f64 * 1e-6
    );

    let _ = writeln!(out, "\n## worker threads (self time)");
    if li.ledger.workers.is_empty() {
        let _ = writeln!(out, "(none)");
    }
    for (layer, t) in &li.ledger.workers {
        let _ = writeln!(out, "{:<28} {:>12.3} {:>9}", layer, t.ms(), t.count);
    }

    let per = |ns: u64, n: u64| {
        if n == 0 {
            0.0
        } else {
            ns as f64 * 1e-6 / n as f64
        }
    };
    let l = li.ledger;
    let _ = writeln!(out, "\n## per-operation times");
    if li.resolves > 0 {
        let apply_self = l.self_ns("serve");
        let _ = writeln!(
            out,
            "serve.apply_self_ms per resolve   {:.4}  ({:.3} ms / {} resolves)",
            per(apply_self, li.resolves),
            apply_self as f64 * 1e-6,
            li.resolves
        );
        let ladder = l.span("robust_solve");
        let _ = writeln!(
            out,
            "optim.ladder.ms_per_resolve      {:.4}  ({:.3} ms / {} resolves)",
            per(ladder.ns, li.resolves),
            ladder.ms(),
            li.resolves
        );
    }
    for s in STAGES {
        let t = l.span(&format!("robust.{s}"));
        let _ = writeln!(
            out,
            "optim.stage.{s}: ok {} failed {} skipped {} ms {:.3} ({} timed attempts)",
            counter(li.snap, &format!("optim.robust.stage.{s}.ok")),
            counter(li.snap, &format!("optim.robust.stage.{s}.failed")),
            counter(li.snap, &format!("optim.robust.stage.{s}.skipped")),
            t.ms(),
            t.count
        );
    }
    let solve_main = l.span("solve_relaxed");
    let solve_workers = l.workers.get("optim.solve").copied().unwrap_or_default();
    let _ = writeln!(
        out,
        "optim.solve.ms {:.3} over {} spans ({:.3} ms on the pass thread, {:.3} ms on workers)",
        solve_main.ms() + solve_workers.ms(),
        solve_main.count + solve_workers.count,
        solve_main.ms(),
        solve_workers.ms()
    );
    let _ = writeln!(
        out,
        "optim.solve.calls {}  optim.solve.iters p50 {} (n={})  optim.attempt_iters p50 {} p95 {} (n={})",
        counter(li.snap, "optim.solve.calls"),
        hist_q(li.snap, "optim.solve.iters", 0.5),
        hist_n(li.snap, "optim.solve.iters"),
        hist_q(li.snap, "optim.robust.attempt_iters", 0.5),
        hist_q(li.snap, "optim.robust.attempt_iters", 0.95),
        hist_n(li.snap, "optim.robust.attempt_iters"),
    );
    let round = l.span("round");
    if round.count > 0 {
        let _ = writeln!(
            out,
            "train.round_ms {:.4} per round; train.round_self_ms {:.4} per round ({} rounds)",
            per(round.ns, round.count),
            per(l.self_ns("train.round"), round.count),
            round.count
        );
        for (name, leaf) in [
            ("train.warm_start_ms", "warm_start"),
            ("train.validation_ms", "validation"),
        ] {
            let t = l.span(leaf);
            let _ = writeln!(out, "{name} {:.3} total over {} spans", t.ms(), t.count);
        }
    }
    let _ = writeln!(
        out,
        "kkt.factor structured {} dense {}; linalg.simd avx2 {} scalar {}; parallel.scoped calls {} items p50 {}; threads {}",
        counter(li.snap, "kkt.structured"),
        counter(li.snap, "kkt.dense_fallback"),
        counter(li.snap, "linalg.simd.avx2"),
        counter(li.snap, "linalg.simd.scalar"),
        counter(li.snap, "parallel.scoped.calls"),
        hist_q(li.snap, "parallel.scoped.items", 0.5),
        li.threads
    );

    let _ = writeln!(out, "\n## ratios (num/den = value)");
    for (name, r) in li.ratios {
        let _ = writeln!(out, "{name:<28} {r}");
    }
    let _ = writeln!(out, "\n## notes");
    for (k, v) in li.notes {
        let _ = writeln!(out, "{k:<28} {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_strict_json_with_full_digits() {
        let mut m = Metrics::default();
        m.push("latency_ms.p50", 1.203_456_789_012_3, "ms");
        m.push("setup_s", 0.000_812_7, "s");
        m.push("serve.resolves", 1234.0, "count");
        let line = result_line(true, 1000, 0, &m);
        let parsed = mfcp_obs::json::parse(&line).expect("valid JSON");
        let _ = parsed;
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(line.contains("\"latency_ms.p50\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0008127, \"unit\": \"s\"}"));
        assert!(line.contains("\"serve.resolves\": {\"value\": 1234, \"unit\": \"count\"}"));
    }

    #[test]
    fn self_time_layers_are_unique() {
        let layers = self_time_layers();
        let mut sorted = layers.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), layers.len());
        assert!(layers.contains(&"optim.stage.newton".to_string()));
    }
}
