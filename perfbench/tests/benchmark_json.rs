//! `BENCHMARK.json` at the repository root declares exactly the workloads
//! and metrics this benchmark reports, with the same units.

use accrel_perfbench::workloads::{Workload, END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

#[test]
fn every_declared_name_is_reported_and_every_reported_name_declared() {
    let json = benchmark_json();
    let declared = json.matches("\"name\":").count();
    let workloads = ["guided-mix", "flood-chain", "serving-e5"];
    assert_eq!(
        declared,
        workloads.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for name in workloads {
        assert!(Workload::parse(name).is_some(), "{name} is not a workload");
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} undeclared"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} ({unit}) undeclared");
    }
}
