//! Property and golden suite for the cluster serving API: single-chip
//! degeneracy (a 1-chip cluster reproduces `serve` bit-exactly), request
//! conservation across chips, per-chip budget safety, migration-vs-spill
//! traffic ordering, `MEADOW_THREADS` bit-identity, and a byte-stable
//! `ClusterReport` golden snapshot.

mod common;

use common::{requests_from_seed, serve};
use meadow::core::cluster::{
    Cluster, ClusterConfig, ClusterReport, LeastLoadedKv, LeastLoadedWeighted, RoundRobin,
    SessionAffinity, ToLeastLoaded,
};
use meadow::core::serve::{KvPolicy, ServeConfig};
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::dataflow::ExecutionPlan;
use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ServeRequest};
use meadow::packing::PackingLevel;
use meadow::tensor::parallel::ExecConfig;
use proptest::prelude::*;
use std::path::PathBuf;

fn engine() -> MeadowEngine {
    MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
}

/// Up to 5 requests with ragged lengths and staggered arrivals.
fn staggered_trace(seed: u64, n: usize) -> ArrivalTrace {
    requests_from_seed(seed, n, 24, 8, 0.5)
}

/// A budget between "largest single request" and "everything at once":
/// exercises admission and eviction without making any request unservable.
fn contended_budget(trace: &ArrivalTrace) -> u64 {
    let model = presets::tiny_decoder();
    let single_max = trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
    single_max + (trace.total_peak_kv_bytes(&model) - single_max) / 4
}

fn placement_config(idx: u8, chips: usize, serve: ServeConfig) -> ClusterConfig {
    let builder = ClusterConfig::builder().chips(chips).serve(serve);
    match idx % 3 {
        0 => builder.placement(RoundRobin),
        1 => builder.placement(LeastLoadedKv),
        _ => builder.placement(SessionAffinity),
    }
    .build()
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance criterion: a 1-chip cluster with round-robin placement
    /// and no migration reproduces the single-chip `serve` output
    /// bit-exactly — report and serialized bytes alike.
    #[test]
    fn one_chip_cluster_reproduces_serve_bit_exactly(
        seed in 0u64..500,
        n in 1usize..6,
        paged in any::<bool>(),
    ) {
        let trace = staggered_trace(seed, n);
        let mut config = ServeConfig::default()
            .with_budget(contended_budget(&trace))
            .with_max_batch(2);
        if paged {
            config = config.with_policy(KvPolicy::PagedLru).with_page_bytes(256);
        }
        let e = engine();
        let single = serve(&e, &trace, &config).unwrap();
        let cluster_config =
            ClusterConfig::builder().chips(1).serve(config).placement(RoundRobin).build().unwrap();
        let report = Cluster::new(e, cluster_config).serve(&trace).unwrap();
        prop_assert_eq!(report.chips, 1);
        prop_assert_eq!(report.migrated_out_bytes, 0);
        prop_assert_eq!(&report.per_chip[0].report, &single);
        prop_assert_eq!(
            report.per_chip[0].report.to_json().unwrap(),
            single.to_json().unwrap()
        );
    }

    /// Conservation across chips: every request lands on exactly one chip,
    /// finishes exactly once with the requested token count, and the
    /// cluster totals are the per-chip sums.
    #[test]
    fn requests_are_conserved_across_chips(
        seed in 0u64..500,
        n in 1usize..6,
        chips in 1usize..5,
        placement_idx in 0u8..3,
    ) {
        let trace = staggered_trace(seed, n);
        let serve_config = ServeConfig::default().with_budget(contended_budget(&trace));
        let config = placement_config(placement_idx, chips, serve_config);
        let report = Cluster::new(engine(), config).serve(&trace).unwrap();
        prop_assert_eq!(report.chips, chips);
        prop_assert_eq!(report.requests, n);
        let placed: u64 = report.per_chip.iter().map(|c| c.assigned_requests).sum();
        prop_assert_eq!(placed as usize, n);
        // Every id appears exactly once across the chips, fully served.
        let mut seen: Vec<u32> = Vec::new();
        for chip in &report.per_chip {
            prop_assert_eq!(chip.report.traces.len() as u64, chip.assigned_requests);
            for t in &chip.report.traces {
                prop_assert!(!seen.contains(&t.id), "request {} served twice", t.id);
                seen.push(t.id);
            }
        }
        prop_assert_eq!(seen.len(), n);
        for req in &trace.requests {
            let t = report.trace(req.id).unwrap();
            prop_assert_eq!(t.generated_tokens, req.generate_tokens);
        }
        let total: u64 = trace.requests.iter().map(|r| r.generate_tokens as u64).sum();
        prop_assert_eq!(report.total_generated_tokens, total);
        let chip_tokens: u64 =
            report.per_chip.iter().map(|c| c.report.total_generated_tokens).sum();
        prop_assert_eq!(chip_tokens, total);
    }

    /// Per-chip budget safety: no chip's peak KV residency ever exceeds
    /// the per-chip budget, under any placement, with or without
    /// migration (parked remote bytes count against the *donor's* slack,
    /// which is carved out of its budget headroom).
    #[test]
    fn per_chip_budgets_are_never_exceeded(
        seed in 0u64..500,
        n in 1usize..6,
        chips in 1usize..4,
        placement_idx in 0u8..3,
        migrate in any::<bool>(),
    ) {
        let trace = staggered_trace(seed, n);
        let budget = contended_budget(&trace);
        let serve_config = ServeConfig::default()
            .with_budget(budget)
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(128);
        let builder = ClusterConfig::builder().chips(chips).serve(serve_config);
        let builder = match placement_idx % 3 {
            0 => builder.placement(RoundRobin),
            1 => builder.placement(LeastLoadedKv),
            _ => builder.placement(SessionAffinity),
        };
        let config = if migrate { builder.migration(ToLeastLoaded) } else { builder }
            .build()
            .unwrap();
        let report = Cluster::new(engine(), config).serve(&trace).unwrap();
        for chip in &report.per_chip {
            prop_assert!(
                chip.report.peak_kv_bytes <= budget,
                "chip {} peak {} exceeds budget {}",
                chip.chip,
                chip.report.peak_kv_bytes,
                budget
            );
        }
    }

    /// Acceptance criterion: under `LeastLoadedKv` placement, cross-chip
    /// migration traffic never exceeds the DRAM spill traffic the same
    /// cluster produces with migration disabled — migration only ever
    /// *replaces* spill transfers. Arrivals all land at t=0 so both runs
    /// make identical scheduling decisions and the byte accounting is
    /// exactly conserved.
    #[test]
    fn migration_traffic_is_bounded_by_spill_traffic(
        seed in 0u64..500,
        n in 2usize..6,
        chips in 2usize..4,
    ) {
        let trace = requests_from_seed(seed, n, 24, 8, 0.0);
        let serve_config = ServeConfig::default()
            .with_budget(contended_budget(&trace))
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(256)
            .with_max_batch(1);
        let run = |migrate: bool| {
            let builder =
                ClusterConfig::builder().chips(chips).serve(serve_config).placement(LeastLoadedKv);
            let config =
                if migrate { builder.migration(ToLeastLoaded) } else { builder }.build().unwrap();
            Cluster::new(engine(), config).serve(&trace).unwrap()
        };
        let without = run(false);
        let with = run(true);
        prop_assert_eq!(without.migrated_out_bytes, 0);
        prop_assert!(
            with.migrated_out_bytes <= without.dram_kv_bytes,
            "migrated {} exceeds the spill it replaces {}",
            with.migrated_out_bytes,
            without.dram_kv_bytes
        );
        // Byte conservation: every byte either still spills to DRAM or
        // moved over the NoC (out at eviction, back at reload).
        prop_assert_eq!(
            with.dram_kv_bytes + with.migrated_out_bytes + with.reloaded_remote_bytes,
            without.dram_kv_bytes
        );
        prop_assert_eq!(with.total_generated_tokens, without.total_generated_tokens);
    }

    /// Acceptance criterion: the `ClusterReport` — including its
    /// serialized bytes — is bit-identical across `MEADOW_THREADS`
    /// settings (the per-chip fan-out is order-preserving and each chip's
    /// simulation is deterministic).
    #[test]
    fn cluster_report_is_bit_identical_across_threads(
        seed in 0u64..200,
        n in 1usize..5,
        chips in 1usize..4,
        migrate in any::<bool>(),
    ) {
        let trace = staggered_trace(seed, n);
        let serve_config = ServeConfig::default()
            .with_budget(contended_budget(&trace))
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(256);
        let build = |threads: usize| {
            let e = MeadowEngine::new(
                EngineConfig::zcu102(presets::tiny_decoder(), 12.0)
                    .with_exec(ExecConfig::with_threads(threads)),
            )
            .unwrap();
            let builder = ClusterConfig::builder()
                .chips(chips)
                .serve(serve_config)
                .placement(SessionAffinity);
            let config =
                if migrate { builder.migration(ToLeastLoaded) } else { builder }.build().unwrap();
            Cluster::new(e, config)
        };
        let reference = build(1).serve(&trace).unwrap();
        for threads in [2usize, 4, 8] {
            let report = build(threads).serve(&trace).unwrap();
            prop_assert_eq!(&report, &reference, "threads {}", threads);
            prop_assert_eq!(
                report.to_json().unwrap(),
                reference.to_json().unwrap(),
                "serialized bytes, threads {}",
                threads
            );
        }
    }

    /// Heterogeneity degeneracy: a `chip_specs` list of all-equal specs
    /// is bit-identical — report and serialized bytes — to the replica
    /// path `.chips(n)` with the same engine, under every placement.
    #[test]
    fn homogeneous_chip_specs_match_the_replica_path_bit_exactly(
        seed in 0u64..200,
        n in 1usize..6,
        chips in 1usize..4,
        placement_idx in 0u8..3,
    ) {
        let trace = staggered_trace(seed, n);
        let serve_config = ServeConfig::default().with_budget(contended_budget(&trace));
        let spec = EngineConfig::zcu102(presets::tiny_decoder(), 12.0);
        let build = |hetero: bool| {
            let builder = ClusterConfig::builder().serve(serve_config);
            let builder = if hetero {
                builder.chip_specs(vec![spec.clone(); chips])
            } else {
                builder.chips(chips)
            };
            match placement_idx % 3 {
                0 => builder.placement(RoundRobin),
                1 => builder.placement(LeastLoadedKv),
                _ => builder.placement(SessionAffinity),
            }
            .build()
            .unwrap()
        };
        let replica = Cluster::new(engine(), build(false)).serve(&trace).unwrap();
        let mut hetero = Cluster::new(engine(), build(true)).serve(&trace).unwrap();
        // The spec path additionally reports per-chip utilization; strip
        // it to compare the shared accounting bit-exactly.
        for chip in &hetero.per_chip {
            prop_assert!(chip.utilization.is_some());
        }
        for chip in &mut hetero.per_chip {
            chip.utilization = None;
        }
        prop_assert_eq!(&hetero, &replica);
        prop_assert_eq!(hetero.to_json().unwrap(), replica.to_json().unwrap());
    }

    /// Placement degeneracy: on a homogeneous fleet every chip's
    /// throughput score is equal, so `LeastLoadedWeighted` routes exactly
    /// like `LeastLoadedKv` and the two reports differ only in the
    /// placement name.
    #[test]
    fn weighted_placement_degenerates_to_least_loaded_kv_when_homogeneous(
        seed in 0u64..200,
        n in 1usize..6,
        chips in 1usize..4,
    ) {
        let trace = staggered_trace(seed, n);
        let serve_config = ServeConfig::default().with_budget(contended_budget(&trace));
        let run = |weighted: bool| {
            let builder = ClusterConfig::builder().chips(chips).serve(serve_config);
            let config = if weighted {
                builder.placement(LeastLoadedWeighted)
            } else {
                builder.placement(LeastLoadedKv)
            }
            .build()
            .unwrap();
            Cluster::new(engine(), config).serve(&trace).unwrap()
        };
        let mut weighted = run(true);
        let kv = run(false);
        prop_assert_eq!(&weighted.placement, "least-loaded-weighted");
        weighted.placement = kv.placement.clone();
        prop_assert_eq!(&weighted, &kv);
    }
}

/// The pinned cluster scenario: the serve-golden arrival set with sticky
/// affinity hints skewing 6 of 8 requests onto chip 0 of a 2-chip
/// cluster, paged eviction under a tight budget, and NoC migration into
/// chip 1's headroom — placement, eviction, page-granular migration,
/// remote reload *and* residual DRAM spill (the headroom is smaller than
/// the spill demand) all land in the snapshot.
fn golden_cluster_report() -> ClusterReport {
    let requests: Vec<ServeRequest> = [
        (0u32, 0.0f64, 16usize, 8usize),
        (1, 0.0, 24, 4),
        (2, 0.01, 8, 6),
        (3, 0.015, 31, 2),
        (4, 0.02, 4, 8),
        (5, 0.03, 12, 5),
        (6, 0.05, 20, 3),
        (7, 0.08, 6, 7),
    ]
    .into_iter()
    .map(|(id, arrival, prompt, generate)| {
        ServeRequest::new(id, arrival, prompt, generate).with_affinity(u32::from(id >= 6))
    })
    .collect();
    let trace = ArrivalTrace::new(requests);
    let budget = 6144u64;
    let serve_config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    let config = ClusterConfig::builder()
        .chips(2)
        .serve(serve_config)
        .placement(SessionAffinity)
        .migration(ToLeastLoaded)
        .build()
        .unwrap();
    let report = Cluster::new(engine(), config).serve(&trace).unwrap();
    assert!(report.migration_events > 0, "the golden scenario must exercise migration");
    assert!(report.dram_kv_bytes > 0, "the golden scenario must still spill");
    report
}

#[test]
fn cluster_report_is_byte_stable() {
    let got = golden_cluster_report().to_json().unwrap() + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cluster_zcu102.json");
    if std::env::var_os("MEADOW_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "ClusterReport diverged from the committed snapshot; if the change is intentional, \
         regenerate with MEADOW_UPDATE_GOLDEN=1 cargo test --test cluster_invariants"
    );
}

/// Engine sharing: `build` constructs each chip's engine once and reuses
/// packing statistics between chips with the same model, packing
/// configuration and packing level. Every node must still equal a fresh
/// engine of its own spec — apart from the thread budget the cluster
/// assigns — so the sharing key never hands one plan's statistics to
/// another.
#[test]
fn chip_engines_equal_fresh_engines_of_their_specs() {
    let model = presets::tiny_decoder();
    let naive = EngineConfig {
        plan: ExecutionPlan { packing: Some(PackingLevel::Naive), ..ExecutionPlan::meadow() },
        ..EngineConfig::zcu102(model.clone(), 12.0)
    };
    let specs = vec![
        EngineConfig::zcu102(model.clone(), 12.0),
        EngineConfig::zcu102_little(model.clone(), 6.0),
        EngineConfig::gemm_baseline(model.clone(), 12.0),
        naive.clone(),
        EngineConfig::gemm_baseline(model.clone(), 6.0),
        naive,
        EngineConfig::zcu102(model, 12.0),
    ];
    let config = ClusterConfig::builder().chip_specs(specs.clone()).build().unwrap();
    let cluster = Cluster::new(engine(), config);
    assert_eq!(cluster.chips(), specs.len());
    for (node, spec) in cluster.nodes().iter().zip(specs) {
        let fresh = MeadowEngine::new(spec).unwrap();
        let got = node.engine();
        let exec = fresh.config().exec;
        assert_eq!(got.config().clone().with_exec(exec), *fresh.config(), "chip {}", node.chip());
        assert_eq!(got.packing_stats(), fresh.packing_stats(), "chip {}", node.chip());
    }
}

/// The pinned heterogeneous scenario: two fast ZCU102 chips and one
/// LITTLE chip (half the PEs, half the bandwidth) under the same
/// constrained paged budget as the replica golden, with weighted
/// placement skewing load toward the fast chips and NoC migration
/// parking evicted pages in whoever has headroom — per-chip utilization,
/// the throughput-score-weighted routing and the migration accounting
/// all land in the snapshot.
fn golden_hetero_report() -> ClusterReport {
    let requests: Vec<ServeRequest> = [
        (0u32, 0.0f64, 16usize, 8usize),
        (1, 0.0, 24, 4),
        (2, 0.01, 8, 6),
        (3, 0.015, 31, 2),
        (4, 0.02, 4, 8),
        (5, 0.03, 12, 5),
        (6, 0.05, 20, 3),
        (7, 0.08, 6, 7),
    ]
    .into_iter()
    .map(|(id, arrival, prompt, generate)| ServeRequest::new(id, arrival, prompt, generate))
    .collect();
    let trace = ArrivalTrace::new(requests);
    let serve_config = ServeConfig::default()
        .with_budget(7168)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    let model = presets::tiny_decoder();
    let config = ClusterConfig::builder()
        .chip_specs(vec![
            EngineConfig::zcu102(model.clone(), 12.0),
            EngineConfig::zcu102(model.clone(), 12.0),
            EngineConfig::zcu102_little(model, 6.0),
        ])
        .serve(serve_config)
        .placement(LeastLoadedWeighted)
        .migration(ToLeastLoaded)
        .build()
        .unwrap();
    let report = Cluster::new(engine(), config).serve(&trace).unwrap();
    assert_eq!(report.chips, 3);
    assert_eq!(report.placement, "least-loaded-weighted");
    assert!(report.migration_events > 0, "the hetero golden must exercise migration");
    for chip in &report.per_chip {
        let u = chip.utilization.expect("hetero runs report per-chip utilization");
        assert!((0.0..=1.0).contains(&u));
    }
    report
}

#[test]
fn hetero_cluster_report_is_byte_stable() {
    let got = golden_hetero_report().to_json().unwrap() + "\n";
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_hetero_zcu102.json");
    if std::env::var_os("MEADOW_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "heterogeneous ClusterReport diverged from the committed snapshot; if the change is \
         intentional, regenerate with MEADOW_UPDATE_GOLDEN=1 cargo test --test cluster_invariants"
    );
}
