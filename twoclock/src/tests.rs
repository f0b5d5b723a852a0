//! The benchmark's own tests: metric names, the output checks against
//! doctored reports, and report digests across thread counts.

use crate::checks::{check_serve, report_json};
use crate::layers::LAYER_METRICS;
use crate::metrics::{fnv1a64, valid_metric_name};
use crate::workloads::{setup_serve, ServeParams, Workload};
use crate::E2E_METRICS;
use meadow::core::ServeOutcome;
use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ZipfLengths};
use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct BenchmarkFile {
    workloads: Vec<WorkloadDef>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

#[derive(Debug, Deserialize)]
struct WorkloadDef {
    name: String,
}

#[derive(Debug, Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
    better: String,
}

fn benchmark_file() -> BenchmarkFile {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn metric_names_are_valid_and_unique() {
    let names = E2E_METRICS.iter().map(|&(n, _)| n).chain(LAYER_METRICS.iter().map(|l| l.name));
    let mut seen = std::collections::HashSet::new();
    for name in names {
        assert!(valid_metric_name(name), "{name}");
        assert!(seen.insert(name), "duplicate {name}");
    }
}

#[test]
fn benchmark_file_matches_the_code() {
    let file = benchmark_file();
    let workloads: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    let e2e: Vec<(&str, &str)> =
        file.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
    assert_eq!(e2e, E2E_METRICS);
    let layers: Vec<(&str, &str, &str)> = file
        .per_layer
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
        .collect();
    let expected: Vec<(&str, &str, &str)> =
        LAYER_METRICS.iter().map(|l| (l.name, l.unit, l.better)).collect();
    assert_eq!(layers, expected);
}

/// `serve_scale` shrunk to 3,000 requests: still overload, LRU eviction
/// and SLO rejections, so every checked law has cases on both sides.
fn small_scale() -> ServeParams {
    ServeParams { requests: 3_000, ..Workload::ServeScale.serve_params().expect("serving") }
}

/// `hetero_fleet` shrunk to the tiny decoder: placement, migration and the
/// per-chip fan-out all run.
fn small_fleet() -> ServeParams {
    let lengths = ZipfLengths {
        prompt_min: 16,
        prompt_max: 40,
        generate_min: 4,
        generate_max: 16,
        exponent: 1.1,
    };
    ServeParams {
        model: presets::tiny_decoder(),
        requests: 300,
        rate_per_sec: 2_000.0,
        lengths,
        ..Workload::HeteroFleet.serve_params().expect("serving")
    }
}

fn serve(p: &ServeParams, threads: usize) -> (ArrivalTrace, ServeOutcome) {
    let setup = setup_serve(p, threads).expect("valid set-up");
    let trace = p.trace(7).expect("valid trace");
    let outcome = setup.spec.run(&setup.engine, &trace).expect("serve succeeds");
    (trace, outcome)
}

/// Applies `doctor` to the single-chip report and expects the checks to
/// reject it with a message containing `why`.
fn rejects(doctor: impl Fn(&mut meadow::core::ServeReport), why: &str) {
    let p = small_scale();
    let (trace, mut outcome) = serve(&p, 1);
    check_serve(&trace, &outcome, p.budget_bytes()).expect("the real report passes");
    let ServeOutcome::Single(report) = &mut outcome else { panic!("one chip") };
    doctor(report);
    let err = check_serve(&trace, &outcome, p.budget_bytes()).expect_err("doctored report");
    assert!(err.contains(why), "{err:?} should mention {why:?}");
}

#[test]
fn checks_reject_a_dropped_trace() {
    rejects(|r| drop(r.traces.remove(0)), "traces for");
}

#[test]
fn checks_reject_an_inflated_token_count() {
    rejects(|r| r.total_generated_tokens += 1, "report generated");
    rejects(
        |r| {
            let t = r.traces.iter_mut().find(|t| !t.rejected).expect("a served request");
            t.generated_tokens += 1;
        },
        "asked for",
    );
}

#[test]
fn checks_reject_other_broken_laws() {
    rejects(|r| r.peak_kv_bytes = u64::MAX, "budget");
    rejects(|r| r.requests += 1, "requests");
    rejects(
        |r| {
            let t = r.traces.iter_mut().find(|t| !t.rejected).expect("a served request");
            t.first_token_ms = t.arrival_ms - 1.0;
        },
        "out of order",
    );
    rejects(
        |r| {
            let t = r.traces.iter_mut().find(|t| t.rejected).expect("a rejected request");
            t.rejected = false;
        },
        "asked for",
    );
    rejects(|r| r.traces[1].id = r.traces[0].id, "two traces");
}

#[test]
fn report_digests_match_at_one_and_two_threads() {
    for p in [small_scale(), small_fleet()] {
        let digests: Vec<u64> = [1, 2]
            .into_iter()
            .map(|threads| {
                let (trace, outcome) = serve(&p, threads);
                check_serve(&trace, &outcome, p.budget_bytes()).expect("checks pass");
                fnv1a64(report_json(&outcome).expect("serializes").as_bytes())
            })
            .collect();
        assert_eq!(digests[0], digests[1], "fleet={}", p.fleet);
    }
}

#[test]
fn small_fleet_exercises_the_cluster_layer() {
    let (_, outcome) = serve(&small_fleet(), 2);
    let ServeOutcome::Cluster(c) = outcome else { panic!("a fleet serves as a cluster") };
    assert_eq!(c.chips, 4);
    // Affinity skews every request onto the two ZCU102 chips.
    let assigned: Vec<u64> = c.per_chip.iter().map(|chip| chip.assigned_requests).collect();
    assert_eq!(assigned[2] + assigned[3], 0, "{assigned:?}");
}
