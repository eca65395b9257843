//! Self-test: at the tiny scale every workload completes without a failed
//! operation and emits every metric `BENCHMARK.json` names, in both modes.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml` (a debug build works but is slow).

use perfbench::{Options, Outcome, Scale, Workload};

/// The metric names `BENCHMARK.json` lists under `key`, in order.
fn listed(json: &str, key: &str, next: Option<&str>) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let end = next.map_or(json.len(), |n| {
        start + json[start..].find(&format!("\"{n}\"")).expect("next key")
    });
    json[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names = |trace| -> Vec<String> {
        Outcome::metric_list(trace)
            .into_iter()
            .map(|(n, _)| n)
            .collect()
    };
    assert_eq!(
        listed(&json, "workloads", Some("end_to_end")),
        Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect::<Vec<_>>()
    );
    assert_eq!(listed(&json, "end_to_end", Some("per_layer")), names(false));
    assert_eq!(listed(&json, "per_layer", None), names(true));
}

#[test]
fn every_workload_emits_every_metric_at_tiny_size() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 0.3,
                trace,
                scale: Scale::Tiny,
            };
            let out = perfbench::run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            let what = format!("{} trace={trace}", workload.name());
            assert!(out.attempted > 0, "{what}: nothing attempted");
            assert_eq!(out.failed, 0, "{what}: failures {:?}", out.failures);
            let line = out.result_json(trace);
            for (name, unit) in Outcome::metric_list(trace) {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{what}: {name} missing from {line}"));
                assert!(line[at..].contains(&format!("\"unit\": \"{unit}\"")));
                if !trace {
                    let values = &out.e2e;
                    let v = values.get(&name).copied().unwrap_or(0.0);
                    assert!(v > 0.0 && v.is_finite(), "{what}: {name} = {v}");
                }
            }
            assert!(line.starts_with("{\"correct\": true, "), "{what}: {line}");
        }
    }
}
