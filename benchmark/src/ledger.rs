//! Self time per layer from the flight recorder's begin/end events.
//!
//! Spans and the ladder's `robust.<stage>` begin/end pairs are rebuilt
//! into one interval tree per thread. An interval's self time is its
//! duration minus the part of it that its child intervals cover. Each
//! interval is mapped to a layer by its leaf name; on the thread that ran
//! the measured pass, the layers' self times add up to the pass span.
//! Intervals on other threads (`par_map` workers start with an empty span
//! path, so their spans are roots) are summed separately as worker time.

use std::collections::{BTreeMap, HashMap};

use mfcp_obs::trace::{EventKind, TraceEvent};

/// Name of the span that wraps one measured pass.
pub const PASS_SPAN: &str = "bench.pass";

/// One closed begin/end pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Recording thread.
    pub tid: u64,
    /// Last component of the event name (`a/b/c` → `c`).
    pub leaf: String,
    /// Begin timestamp, ns.
    pub start: u64,
    /// End timestamp, ns.
    pub end: u64,
    /// Index of the enclosing interval on the same thread.
    pub parent: Option<usize>,
    /// Duration minus the union of the children's extents, ns.
    pub self_ns: u64,
}

impl Interval {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Rebuilds the interval trees. Fails on an end without a matching begin
/// or a begin left open, which happens when the ring dropped events.
pub fn intervals(events: &[TraceEvent]) -> Result<Vec<Interval>, String> {
    let mut out: Vec<Interval> = Vec::new();
    let mut stacks: HashMap<u64, Vec<(usize, &str)>> = HashMap::new();
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => {
                out.push(Interval {
                    tid: e.tid,
                    leaf: e.name.rsplit('/').next().unwrap_or("").to_string(),
                    start: e.t_ns,
                    end: e.t_ns,
                    parent: stack.last().map(|&(i, _)| i),
                    self_ns: 0,
                });
                stack.push((out.len() - 1, e.name.as_str()));
            }
            EventKind::End => match stack.pop() {
                Some((i, name)) if name == e.name => out[i].end = e.t_ns,
                Some((_, name)) => {
                    return Err(format!("thread {}: end of {} inside {name}", e.tid, e.name))
                }
                None => return Err(format!("thread {}: end of {} with no begin", e.tid, e.name)),
            },
            EventKind::Instant => {}
        }
    }
    if let Some((tid, stack)) = stacks.iter().find(|(_, s)| !s.is_empty()) {
        return Err(format!(
            "thread {tid}: {} left open",
            stack[stack.len() - 1].1
        ));
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); out.len()];
    for iv in &out {
        if let Some(p) = iv.parent {
            children[p].push((iv.start, iv.end));
        }
    }
    for (iv, kids) in out.iter_mut().zip(children.iter_mut()) {
        iv.self_ns = iv.dur().saturating_sub(covered(iv.start, iv.end, kids));
    }
    Ok(out)
}

/// Length of the union of `spans`, clipped to `[lo, hi]`.
pub fn covered(lo: u64, hi: u64, spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in spans.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The layer an interval's self time belongs to, by its leaf name.
pub fn layer_of(leaf: &str) -> String {
    let layer = match leaf {
        PASS_SPAN => "bench.loop",
        "bench.setup" => "setup",
        "bench.apply" | "bench.finish" | "serve.resolve" => "serve",
        "robust_solve" => "optim.ladder",
        "learned.predict" => "optim.learned",
        "solve_relaxed" => "optim.solve",
        "bench.train_mfcp" | "train_mfcp" => "train",
        "round" => "train.round",
        "warm_start" => "train.warm_start",
        "validation" => "train.validation",
        "checkpoint" => "train.checkpoint",
        "bench.evaluate" => "core.eval",
        other => {
            return match other.strip_prefix("robust.") {
                Some(stage) => format!("optim.stage.{stage}"),
                None => format!("other.{other}"),
            }
        }
    };
    layer.to_string()
}

/// Time and call count of one layer or span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Summed ns.
    pub ns: u64,
    /// Intervals summed.
    pub count: u64,
}

impl Tally {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.count += 1;
    }

    /// Summed time in ms.
    pub fn ms(&self) -> f64 {
        self.ns as f64 * 1e-6
    }
}

/// Per-layer self time of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Duration of the pass span, ns.
    pub pass_ns: u64,
    /// Self time by layer on the pass thread.
    pub layers: BTreeMap<String, Tally>,
    /// Whole duration by leaf name on the pass thread (the span itself,
    /// children included).
    pub spans: BTreeMap<String, Tally>,
    /// Self time by layer on every other thread, bench-owned roots
    /// (probes) excluded.
    pub workers: BTreeMap<String, Tally>,
    /// Worker-root `solve_relaxed` time that started inside a
    /// `bench.train_mfcp` span, ns.
    pub worker_train_solve_ns: u64,
}

impl Ledger {
    /// Builds the ledger of the (single) pass span in `ivs`.
    pub fn from_intervals(ivs: &[Interval]) -> Result<Ledger, String> {
        let pass = ivs
            .iter()
            .position(|iv| iv.leaf == PASS_SPAN)
            .ok_or("no pass span in the trace")?;
        let main = ivs[pass].tid;
        let mut ledger = Ledger {
            pass_ns: ivs[pass].dur(),
            ..Ledger::default()
        };
        let root_of = |mut i: usize| {
            while let Some(p) = ivs[i].parent {
                i = p;
            }
            i
        };
        let train_windows: Vec<(u64, u64)> = ivs
            .iter()
            .filter(|iv| iv.tid == main && iv.leaf == "bench.train_mfcp")
            .map(|iv| (iv.start, iv.end))
            .collect();
        for (i, iv) in ivs.iter().enumerate() {
            let layer = layer_of(&iv.leaf);
            if iv.tid == main {
                if root_of(i) == pass {
                    ledger.layers.entry(layer).or_default().add(iv.self_ns);
                    ledger
                        .spans
                        .entry(iv.leaf.clone())
                        .or_default()
                        .add(iv.dur());
                }
            } else if !ivs[root_of(i)].leaf.starts_with("bench.") {
                ledger.workers.entry(layer).or_default().add(iv.self_ns);
                let in_train = train_windows
                    .iter()
                    .any(|&(s, e)| iv.start >= s && iv.start < e);
                if iv.parent.is_none() && iv.leaf == "solve_relaxed" && in_train {
                    ledger.worker_train_solve_ns += iv.dur();
                }
            }
        }
        Ok(ledger)
    }

    /// Self time of `layer` on the pass thread, ns (0 when idle).
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layers.get(layer).map_or(0, |t| t.ns)
    }

    /// Whole-span time and count of `leaf` on the pass thread.
    pub fn span(&self, leaf: &str) -> Tally {
        self.spans.get(leaf).copied().unwrap_or_default()
    }

    /// Summed self time of every layer; equals `pass_ns`.
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().map(|t| t.ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, tid: u64, t_ns: u64, kind: EventKind, name: &str) -> TraceEvent {
        TraceEvent {
            seq,
            t_ns,
            tid,
            kind,
            name: name.to_string(),
            arg: None,
        }
    }

    /// Builds a stream from `(tid, t, kind, name)` rows in sequence order.
    fn stream(rows: &[(u64, u64, EventKind, &str)]) -> Vec<TraceEvent> {
        rows.iter()
            .enumerate()
            .map(|(i, &(tid, t, k, n))| ev(i as u64, tid, t, k, n))
            .collect()
    }

    use EventKind::{Begin as B, End as E, Instant as I};

    #[test]
    fn self_time_subtracts_nested_children() {
        // pass [0,100] ⊃ apply [10,60] ⊃ robust_solve [20,50] ⊃ robust.primary [25,45]
        let evs = stream(&[
            (1, 0, B, "bench.pass"),
            (1, 10, B, "bench.pass/bench.apply"),
            (1, 20, B, "bench.pass/bench.apply/robust_solve"),
            (1, 25, B, "robust.primary"),
            (1, 30, I, "pgd.iter"),
            (1, 45, E, "robust.primary"),
            (1, 50, E, "bench.pass/bench.apply/robust_solve"),
            (1, 60, E, "bench.pass/bench.apply"),
            (1, 100, E, "bench.pass"),
        ]);
        let ivs = intervals(&evs).unwrap();
        let by_leaf = |l: &str| ivs.iter().find(|iv| iv.leaf == l).unwrap().self_ns;
        assert_eq!(by_leaf("bench.pass"), 50);
        assert_eq!(by_leaf("bench.apply"), 20);
        assert_eq!(by_leaf("robust_solve"), 10);
        assert_eq!(by_leaf("robust.primary"), 20);
        let ledger = Ledger::from_intervals(&ivs).unwrap();
        assert_eq!(ledger.pass_ns, 100);
        assert_eq!(ledger.attributed_ns(), ledger.pass_ns);
        assert_eq!(ledger.self_ns("serve"), 20);
        assert_eq!(ledger.self_ns("optim.ladder"), 10);
        assert_eq!(ledger.self_ns("optim.stage.primary"), 20);
        assert_eq!(ledger.span("robust_solve").ns, 30);
    }

    #[test]
    fn worker_roots_do_not_reduce_the_callers_self_time() {
        // The round on thread 1 waits while two workers solve; their spans
        // are roots on threads 2 and 3, so the round keeps its full self
        // time and the workers' time is tallied apart.
        let evs = stream(&[
            (1, 0, B, "bench.pass"),
            (1, 0, B, "bench.pass/bench.train_mfcp"),
            (1, 5, B, "bench.pass/bench.train_mfcp/train_mfcp"),
            (1, 10, B, "bench.pass/bench.train_mfcp/train_mfcp/round"),
            (2, 12, B, "solve_relaxed"),
            (3, 13, B, "solve_relaxed"),
            (2, 30, E, "solve_relaxed"),
            (3, 35, E, "solve_relaxed"),
            (
                1,
                40,
                B,
                "bench.pass/bench.train_mfcp/train_mfcp/round/solve_relaxed",
            ),
            (
                1,
                50,
                E,
                "bench.pass/bench.train_mfcp/train_mfcp/round/solve_relaxed",
            ),
            (1, 60, E, "bench.pass/bench.train_mfcp/train_mfcp/round"),
            (1, 70, E, "bench.pass/bench.train_mfcp/train_mfcp"),
            (1, 70, E, "bench.pass/bench.train_mfcp"),
            (1, 80, E, "bench.pass"),
            // A probe after the pass, on another thread, is not a worker.
            (4, 90, B, "bench.probe.kkt_grad"),
            (4, 95, E, "bench.probe.kkt_grad"),
        ]);
        let ledger = Ledger::from_intervals(&intervals(&evs).unwrap()).unwrap();
        assert_eq!(ledger.self_ns("train.round"), 40);
        assert_eq!(ledger.self_ns("optim.solve"), 10);
        assert_eq!(ledger.self_ns("train"), 5 + 15);
        assert_eq!(ledger.self_ns("bench.loop"), 10);
        assert_eq!(ledger.attributed_ns(), 80);
        assert_eq!(ledger.workers["optim.solve"].ns, 18 + 22);
        assert_eq!(ledger.workers["optim.solve"].count, 2);
        assert_eq!(ledger.worker_train_solve_ns, 40);
        assert!(!ledger.workers.contains_key("other.bench.probe.kkt_grad"));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let mut spans = [(10, 30), (20, 40), (50, 200)];
        assert_eq!(covered(0, 100, &mut spans), 30 + 50);
    }

    #[test]
    fn broken_pairs_are_reported() {
        let orphan = stream(&[(1, 0, E, "robust.newton")]);
        assert!(intervals(&orphan).is_err());
        let open = stream(&[(1, 0, B, "bench.pass")]);
        assert!(intervals(&open).is_err());
        let crossed = stream(&[(1, 0, B, "a"), (1, 1, B, "a/b"), (1, 2, E, "a")]);
        assert!(intervals(&crossed).is_err());
    }

    #[test]
    fn layers_follow_leaf_names() {
        assert_eq!(
            layer_of("robust.mirror-descent"),
            "optim.stage.mirror-descent"
        );
        assert_eq!(layer_of("serve.resolve"), "serve");
        assert_eq!(layer_of("round"), "train.round");
        assert_eq!(layer_of("solve_sharded"), "other.solve_sharded");
    }
}
