//! End-to-end flight-recorder check: a real training round must leave a
//! trace that exports as loadable Chrome trace-event JSON.

use mfcp_bench::report::{run_report, ReportConfig};
use mfcp_obs::json::{self, Json};

#[test]
fn training_round_trace_exports_as_chrome_json() {
    let cfg = ReportConfig {
        tasks: 8,
        rounds: 2,
        seed: 5,
    };
    mfcp_obs::trace::set_recording(true);
    let _snap = run_report(&cfg);
    let trace = mfcp_obs::trace::drain();
    assert!(
        !trace.events.is_empty(),
        "a full workload pass must leave flight-recorder events"
    );

    let chrome = trace.to_chrome_json();
    let doc = json::parse(&chrome).unwrap_or_else(|e| panic!("invalid Chrome JSON: {e}"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every event row carries the fields a trace viewer requires, and
    // every ph is one of the kinds the exporter emits.
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(
            matches!(ph, "B" | "E" | "i" | "M"),
            "unexpected phase {ph:?}"
        );
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").is_some());
        if ph != "M" {
            assert!(e.get("ts").and_then(Json::as_f64).is_some());
        }
    }

    // The workload's known hot paths all surface by name: training
    // rounds (span-emitted), solver ladder attempts, PGD markers, and
    // fault-replay attempts.
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for expected in [
        "round",
        "robust.primary",
        "pgd.iter",
        "fault.attempt",
        "simulate_with_faults",
    ] {
        assert!(
            names.iter().any(|n| n.contains(expected)),
            "expected an event matching {expected:?} in the trace, got names like {:?}",
            &names[..names.len().min(40)]
        );
    }

    // B/E events balance per tid after the exporter's re-balancing pass.
    use std::collections::HashMap;
    let mut depth: HashMap<String, i64> = HashMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        let tid = format!("{:?}", e.get("tid"));
        match ph {
            "B" => *depth.entry(tid).or_insert(0) += 1,
            "E" => {
                let d = depth.entry(tid.clone()).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E without a matching B on tid {tid}");
            }
            _ => {}
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "unbalanced B/E on tid {tid}");
    }
}
