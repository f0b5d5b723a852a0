//! Property suite for the cluster serving API: single-chip
//! degeneracy (a 1-chip cluster reproduces `serve` bit-exactly), request
//! conservation across chips, per-chip budget safety, migration-vs-spill
//! traffic ordering, `MEADOW_THREADS` bit-identity, and per-chip engine
//! sharing. The cluster golden snapshots live in `tests/serve_golden.rs`.

mod common;

use common::{requests_from_seed, serve, tiny_engine};
use meadow::core::cluster::{
    ClusterReport, LeastLoadedKv, LeastLoadedWeighted, RoundRobin, SessionAffinity, ToLeastLoaded,
};
use meadow::core::serve::{KvPolicy, ServeConfig};
use meadow::core::spec::{ServeSpec, ServeSpecBuilder};
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::dataflow::ExecutionPlan;
use meadow::models::presets;
use meadow::models::workload::ArrivalTrace;
use meadow::packing::PackingLevel;
use meadow::tensor::parallel::ExecConfig;
use proptest::prelude::*;

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

/// Runs a cluster-mode spec on `engine` over `trace`.
fn serve_cluster(engine: &MeadowEngine, spec: &ServeSpec, trace: &ArrivalTrace) -> ClusterReport {
    spec.run(engine, trace).unwrap().into_cluster().expect("a cluster-mode spec")
}

/// Sets the `idx`-th of the three replica placement policies.
fn with_placement(builder: ServeSpecBuilder, idx: u8) -> ServeSpecBuilder {
    match idx % 3 {
        0 => builder.placement(RoundRobin),
        1 => builder.placement(LeastLoadedKv),
        _ => builder.placement(SessionAffinity),
    }
}

fn placement_config(idx: u8, chips: usize, serve: ServeConfig) -> ServeSpec {
    with_placement(ServeSpec::builder().chips(chips).config(serve), idx).build().unwrap()
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
        let e = tiny_engine();
        let single = serve(&e, &trace, &config).unwrap();
        let spec =
            ServeSpec::builder().chips(1).config(config).placement(RoundRobin).build().unwrap();
        let report = serve_cluster(&e, &spec, &trace);
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
        let spec = placement_config(placement_idx, chips, serve_config);
        let report = serve_cluster(&tiny_engine(), &spec, &trace);
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
        let builder =
            with_placement(ServeSpec::builder().chips(chips).config(serve_config), placement_idx);
        let spec = if migrate { builder.migration(ToLeastLoaded) } else { builder }
            .build()
            .unwrap();
        let report = serve_cluster(&tiny_engine(), &spec, &trace);
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
                ServeSpec::builder().chips(chips).config(serve_config).placement(LeastLoadedKv);
            let spec =
                if migrate { builder.migration(ToLeastLoaded) } else { builder }.build().unwrap();
            serve_cluster(&tiny_engine(), &spec, &trace)
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
        let builder =
            ServeSpec::builder().chips(chips).config(serve_config).placement(SessionAffinity);
        let spec =
            if migrate { builder.migration(ToLeastLoaded) } else { builder }.build().unwrap();
        let run = |threads: usize| {
            let e = MeadowEngine::new(
                EngineConfig::zcu102(presets::tiny_decoder(), 12.0)
                    .with_exec(ExecConfig::with_threads(threads)),
            )
            .unwrap();
            serve_cluster(&e, &spec, &trace)
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            let report = run(threads);
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
            let builder = ServeSpec::builder().config(serve_config);
            let builder = if hetero {
                builder.chip_specs(vec![spec.clone(); chips])
            } else {
                builder.chips(chips)
            };
            with_placement(builder, placement_idx).build().unwrap()
        };
        let replica = serve_cluster(&tiny_engine(), &build(false), &trace);
        let mut hetero = serve_cluster(&tiny_engine(), &build(true), &trace);
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
            let builder = ServeSpec::builder().chips(chips).config(serve_config);
            let spec = if weighted {
                builder.placement(LeastLoadedWeighted)
            } else {
                builder.placement(LeastLoadedKv)
            }
            .build()
            .unwrap();
            serve_cluster(&tiny_engine(), &spec, &trace)
        };
        let mut weighted = run(true);
        let kv = run(false);
        prop_assert_eq!(&weighted.placement, "least-loaded-weighted");
        weighted.placement = kv.placement.clone();
        prop_assert_eq!(&weighted, &kv);
    }
}

/// Engine sharing: `build` constructs each chip's engine once and reuses
/// packing statistics between chips with the same model, packing
/// configuration and packing level. Every chip's engine must still equal a
/// fresh engine of its own spec — apart from the thread budget a run
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
    let fleet = ServeSpec::builder().chip_specs(specs.clone()).build().unwrap();
    let engines = fleet.chip_engines().expect("a chip_specs spec carries its engines");
    assert_eq!(engines.len(), specs.len());
    for (chip, (got, spec)) in engines.iter().zip(specs).enumerate() {
        let fresh = MeadowEngine::new(spec).unwrap();
        let exec = fresh.config().exec;
        assert_eq!(got.config().clone().with_exec(exec), *fresh.config(), "chip {chip}");
        assert_eq!(got.packing_stats(), fresh.packing_stats(), "chip {chip}");
    }
}
