//! The committed `BENCHMARK.json` is generated from the metric table and
//! stays inside the limits of the benchmark contract.

use lamassu_benchmark::metrics::{benchmark_json, END_TO_END, PER_LAYER};
use lamassu_benchmark::schedule::WorkloadId;
use lamassu_benchmark::suite::RUN_SECONDS;
use std::collections::HashSet;

fn name_ok(name: &str) -> bool {
    let first = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(RUN_SECONDS),
        "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
    );
    assert!(committed.len() <= 64 * 1024);
}

#[test]
fn names_units_and_bounds_are_within_the_contract() {
    let mut seen = HashSet::new();
    for w in WorkloadId::ALL {
        assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
        assert!(
            w.why().len() <= 200 && !w.why().contains(['\n', '"']),
            "{}",
            w.name()
        );
        assert_eq!(WorkloadId::from_name(w.name()), Some(w));
    }
    assert!((2..=8).contains(&WorkloadId::ALL.len()));
    for m in &END_TO_END {
        assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}", m.name);
        assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for m in &PER_LAYER {
        assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{}", m.name);
        assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
        assert!(!m.moves.is_empty(), "{}", m.name);
    }
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!((1..=60).contains(&RUN_SECONDS));
}
