//! Negative-path coverage for the serving stack: every typed
//! [`ServeError`] variant must be reachable through the public front door
//! ([`ServeSpec::builder`] and the `ServeConfig` builders), and its
//! `Display` rendering must stay stable — the strings are part of the
//! diagnostic contract (they land in logs, CI output and the repro
//! harness), so changing one is an API change, not a cosmetic edit.

mod common;

use common::tiny_engine;
use meadow::core::cluster::PrefillDecodeSplit;
use meadow::core::serve::{AdmissionPolicy, KvPolicy, ServeConfig, ServeError, SpecDecode};
use meadow::core::spec::ServeSpec;
use meadow::core::{CoreError, EngineConfig};
use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ServeRequest};
use meadow::models::{KvCompression, KvLayout};
use meadow::sim::noc::NocConfig;

/// Builds a spec expected to fail validation, returning the build error.
fn build_err(config: ServeConfig) -> ServeError {
    ServeSpec::builder().config(config).build().unwrap_err()
}

#[test]
fn zero_max_batch_is_rejected_at_build() {
    let err = build_err(ServeConfig::default().with_max_batch(0));
    assert_eq!(err, ServeError::ZeroMaxBatch);
    assert_eq!(err.to_string(), "max_batch must step at least one session per tick");
}

#[test]
fn zero_page_bytes_is_rejected_at_build() {
    let err = build_err(ServeConfig::default().with_policy(KvPolicy::PagedLru).with_page_bytes(0));
    assert_eq!(err, ServeError::ZeroPageBytes);
    assert_eq!(err.to_string(), "PagedLru needs a non-zero page size");
}

#[test]
fn non_finite_slo_is_rejected_at_build() {
    let err = build_err(
        ServeConfig::default()
            .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: f64::NAN }),
    );
    assert!(matches!(err, ServeError::InvalidSlo { ttft_slo_ms } if ttft_slo_ms.is_nan()));
    let err = build_err(
        ServeConfig::default().with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: -1.0 }),
    );
    assert_eq!(err, ServeError::InvalidSlo { ttft_slo_ms: -1.0 });
    assert_eq!(err.to_string(), "ttft_slo_ms must be finite and non-negative, got -1");
}

#[test]
fn zero_chips_is_rejected_at_build() {
    let err = ServeSpec::builder().chips(0).build().unwrap_err();
    assert_eq!(err, ServeError::ZeroChips);
    assert_eq!(err.to_string(), "a cluster needs at least one chip");
}

#[test]
fn invalid_speculation_is_rejected_at_build() {
    let spec = SpecDecode { draft_len: 0, acceptance: 0.5, draft_cost_ratio: 0.5 };
    let err = build_err(ServeConfig::default().with_speculation(spec));
    assert_eq!(
        err,
        ServeError::InvalidSpeculation { draft_len: 0, acceptance: 0.5, draft_cost_ratio: 0.5 }
    );
    assert_eq!(
        err.to_string(),
        "speculation needs draft_len >= 1, acceptance in [0, 1], a finite non-negative \
         draft_cost_ratio and draft_len * draft_cost_ratio <= 1024, got (0, 0.5, 0.5)"
    );
}

/// Typical speculation: 4 draft tokens at 0.3 of a step each.
const SPEC: SpecDecode = SpecDecode { draft_len: 4, acceptance: 0.5, draft_cost_ratio: 0.3 };

/// Checks that `bad` fails the build with its own parameters in the error.
/// A flush charges `step × draft_len × draft_cost_ratio` cycles, so a draft
/// cost past [`SpecDecode::MAX_DRAFT_COST`] could overflow the cycle count
/// and, in a release build, wrap the TBT series.
fn assert_speculation_rejected(bad: SpecDecode) {
    let err = build_err(ServeConfig::default().with_speculation(bad));
    let SpecDecode { draft_len, acceptance, draft_cost_ratio } = bad;
    assert_eq!(err, ServeError::InvalidSpeculation { draft_len, acceptance, draft_cost_ratio });
}

#[test]
fn overflowing_draft_len_is_rejected_at_build() {
    assert_speculation_rejected(SpecDecode { draft_len: usize::MAX, ..SPEC });
    assert_speculation_rejected(SpecDecode { draft_len: 2049, draft_cost_ratio: 0.5, ..SPEC });
}

#[test]
fn overflowing_draft_cost_ratio_is_rejected_at_build() {
    assert_speculation_rejected(SpecDecode { draft_cost_ratio: f64::MAX, ..SPEC });
}

#[test]
fn speculation_in_use_and_at_the_cap_builds() {
    let build = |spec| ServeSpec::builder().config(ServeConfig::default().with_speculation(spec));
    for draft_len in 1..=16 {
        for draft_cost_ratio in [0.1, 0.25, 0.3, 0.5] {
            assert!(build(SpecDecode { draft_len, draft_cost_ratio, ..SPEC }).build().is_ok());
        }
    }
    let at_cap = build(SpecDecode { draft_len: 2048, draft_cost_ratio: 0.5, ..SPEC }).build();
    let trace = ArrivalTrace::uniform(2, 0.0, 8, 4);
    let report = at_cap.unwrap().run(&tiny_engine(), &trace).unwrap().into_single().unwrap();
    assert_eq!(report.total_generated_tokens, 8);
}

#[test]
fn structurally_invalid_kv_layouts_are_rejected_at_build() {
    let err =
        build_err(ServeConfig::default().with_kv_layout(KvLayout::GroupedHeads { kv_heads: 0 }));
    assert_eq!(
        err,
        ServeError::InvalidKvLayout {
            reason: "GroupedHeads needs at least one kv head".to_string(),
        }
    );
    assert_eq!(err.to_string(), "invalid KV layout: GroupedHeads needs at least one kv head");

    let err = build_err(
        ServeConfig::default().with_kv_layout(KvLayout::SlidingWindow { window: 0, sinks: 4 }),
    );
    assert_eq!(
        err.to_string(),
        "invalid KV layout: SlidingWindow needs a window of at least one token"
    );

    let err = build_err(
        ServeConfig::default().with_kv_compression(KvCompression::VedaVote { keep_ratio: 0.0 }),
    );
    assert_eq!(err.to_string(), "invalid KV layout: VedaVote keep_ratio must be in (0, 1], got 0");

    let err = build_err(
        ServeConfig::default().with_kv_compression(KvCompression::VedaVote { keep_ratio: 1.5 }),
    );
    assert_eq!(
        err.to_string(),
        "invalid KV layout: VedaVote keep_ratio must be in (0, 1], got 1.5"
    );
}

/// `kv_heads` must divide the model's head count — a constraint only the
/// engine's model can check, so it surfaces at run time, not build time.
#[test]
fn model_incompatible_kv_layout_is_rejected_at_run() {
    // tiny_decoder has 4 heads; 3 does not divide it.
    let spec = ServeSpec::builder()
        .config(ServeConfig::default().with_kv_layout(KvLayout::GroupedHeads { kv_heads: 3 }))
        .build()
        .expect("the structural checks cannot see the model");
    let err = spec.run(&tiny_engine(), &ArrivalTrace::uniform(2, 0.0, 16, 4)).unwrap_err();
    let CoreError::Serve(err) = err else { panic!("expected a serve error, got {err:?}") };
    assert!(matches!(&err, ServeError::InvalidKvLayout { .. }), "got {err:?}");
    assert_eq!(
        err.to_string(),
        "invalid KV layout: invalid model config `kv_heads`: 3 must divide the model's 4 heads"
    );
}

#[test]
fn oversized_request_is_rejected_at_run() {
    let spec = ServeSpec::builder().config(ServeConfig::default().with_budget(1)).build().unwrap();
    let err = spec.run(&tiny_engine(), &ArrivalTrace::uniform(1, 0.0, 16, 4)).unwrap_err();
    let CoreError::Serve(err) = err else { panic!("expected a serve error, got {err:?}") };
    let ServeError::RequestExceedsBudget { id, peak_bytes, budget_bytes } = err else {
        panic!("expected RequestExceedsBudget, got {err:?}");
    };
    assert_eq!((id, budget_bytes), (0, 1));
    assert_eq!(
        err.to_string(),
        format!("request 0 needs {peak_bytes} KV bytes alone, per-chip budget is 1")
    );
    // A cluster run names the first offender in trace order, wherever
    // placement put it: round robin sends request 1 to chip 1 and request
    // 2 to chip 0.
    let fits = ServeRequest::new(0, 0.0, 16, 4);
    let budget = fits.peak_kv_bytes(&presets::tiny_decoder());
    let trace = ArrivalTrace::new(vec![
        fits,
        ServeRequest::new(1, 0.0, 32, 4),
        ServeRequest::new(2, 0.0, 32, 4),
    ]);
    let spec = ServeSpec::builder()
        .chips(2)
        .config(ServeConfig::default().with_budget(budget))
        .build()
        .unwrap();
    let err = spec.run(&tiny_engine(), &trace).unwrap_err();
    assert!(
        matches!(err, CoreError::Serve(ServeError::RequestExceedsBudget { id: 1, .. })),
        "got {err:?}"
    );
}

/// Compression shrinks the admission precheck too: a request that cannot
/// fit densely is admissible once token eviction halves its footprint.
#[test]
fn compression_relaxes_the_admission_precheck() {
    let model = presets::tiny_decoder();
    let peak = ServeRequest::new(0, 0.0, 16, 4).peak_kv_bytes(&model);
    // Half a dense peak: the dense run cannot admit the request at all,
    // the keep-half run can.
    let config = ServeConfig::default().with_budget(peak / 2);
    let trace = ArrivalTrace::uniform(1, 0.0, 16, 4);
    let dense = ServeSpec::builder().config(config).build().unwrap();
    assert!(matches!(
        dense.run(&tiny_engine(), &trace),
        Err(CoreError::Serve(ServeError::RequestExceedsBudget { .. }))
    ));
    let compressed = ServeSpec::builder()
        .config(config.with_kv_compression(KvCompression::VedaVote { keep_ratio: 0.5 }))
        .build()
        .unwrap();
    let report = compressed.run(&tiny_engine(), &trace).unwrap().into_single().unwrap();
    assert_eq!(report.rejected_requests, 0);
    assert_eq!(report.total_generated_tokens, 4);
}

#[test]
fn zero_weight_budget_is_rejected_at_build() {
    let err = build_err(ServeConfig::default().with_weight_budget(0));
    assert_eq!(err, ServeError::ZeroWeightBudget);
    assert_eq!(
        err.to_string(),
        "a zero weight budget cannot hold any model; leave it unset instead"
    );
}

/// A non-zero budget that still cannot hold one model is a constraint
/// only the engine's model can check, so it surfaces at run time.
#[test]
fn weight_budget_smaller_than_one_model_is_rejected_at_run() {
    let weight_bytes = presets::tiny_decoder().total_weight_bytes();
    let spec = ServeSpec::builder()
        .config(ServeConfig::default().with_weight_budget(1))
        .build()
        .expect("the structural checks cannot see the model");
    let err = spec.run(&tiny_engine(), &ArrivalTrace::uniform(1, 0.0, 16, 4)).unwrap_err();
    let CoreError::Serve(err) = err else { panic!("expected a serve error, got {err:?}") };
    assert_eq!(err, ServeError::WeightBudgetTooSmall { budget_bytes: 1, weight_bytes });
    assert_eq!(
        err.to_string(),
        format!("weight budget 1 cannot hold a single model's {weight_bytes} weight bytes")
    );
}

/// Without a weight budget there is no tenancy: the chip serves only its
/// one permanently-resident model 0, and any other `model_id` is a typed
/// run-time error rather than a silently ignored tag.
#[test]
fn unknown_model_without_a_weight_budget_is_rejected_at_run() {
    let mut trace = ArrivalTrace::uniform(2, 0.0, 16, 4);
    trace.requests[1] = trace.requests[1].with_model(3);
    let spec = ServeSpec::builder().config(ServeConfig::default()).build().unwrap();
    let err = spec.run(&tiny_engine(), &trace).unwrap_err();
    let CoreError::Serve(err) = err else { panic!("expected a serve error, got {err:?}") };
    assert_eq!(err, ServeError::UnknownModel { model_id: 3 });
    assert_eq!(
        err.to_string(),
        "request targets model 3 but the chip serves only the resident model 0; set a weight \
         budget to enable multi-model tenancy"
    );
    // The same trace is servable once a budget turns tenancy on.
    let tenant = ServeSpec::builder()
        .config(
            ServeConfig::default()
                .with_weight_budget(presets::tiny_decoder().total_weight_bytes())
                .with_weight_streaming(true),
        )
        .build()
        .unwrap();
    let report = tenant.run(&tiny_engine(), &trace).unwrap().into_single().unwrap();
    assert_eq!(report.weights.unwrap().models, 2);
}

#[test]
fn empty_chip_specs_are_rejected_at_build() {
    let err = ServeSpec::builder().chip_specs(vec![]).build().unwrap_err();
    assert_eq!(err, ServeError::EmptyChipSpecs);
    assert_eq!(err.to_string(), "chip_specs needs at least one per-chip engine spec");
}

#[test]
fn mismatched_chip_specs_and_chips_are_rejected_at_build() {
    let spec = EngineConfig::zcu102(presets::tiny_decoder(), 12.0);
    let err =
        ServeSpec::builder().chips(3).chip_specs(vec![spec.clone(), spec]).build().unwrap_err();
    assert_eq!(err, ServeError::ChipSpecCountMismatch { specs: 2, chips: 3 });
    assert_eq!(
        err.to_string(),
        "chip_specs lists 2 chips but chips(3) was also set; size the cluster with one of them, \
         not both"
    );
}

#[test]
fn invalid_chip_spec_is_rejected_at_build() {
    let good = EngineConfig::zcu102(presets::tiny_decoder(), 12.0);
    let bad = EngineConfig::zcu102(presets::tiny_decoder(), 0.0);
    let err = ServeSpec::builder().chip_specs(vec![good, bad]).build().unwrap_err();
    let ServeError::InvalidChipSpec { chip, .. } = &err else {
        panic!("expected InvalidChipSpec, got {err:?}");
    };
    assert_eq!(*chip, 1);
    assert!(err.to_string().starts_with("chip spec 1 is invalid: "), "got {err}");
}

#[test]
fn mixed_model_chip_specs_are_rejected_at_build() {
    let a = EngineConfig::zcu102(presets::tiny_decoder(), 12.0);
    let b = EngineConfig::zcu102(presets::opt_125m(), 12.0);
    let err = ServeSpec::builder().chip_specs(vec![a, b]).build().unwrap_err();
    assert_eq!(
        err,
        ServeError::InvalidChipSpec {
            chip: 1,
            reason: "all chips of a cluster must serve the same model architecture".to_string(),
        }
    );
}

#[test]
fn wrong_sized_link_hops_are_rejected_at_build() {
    let err = ServeSpec::builder().chips(3).link_hops(vec![1]).build().unwrap_err();
    assert_eq!(err, ServeError::InvalidLinkHops { got: 1, expected: 2 });
    assert_eq!(
        err.to_string(),
        "link hop costs cover 1 links but the cluster's linear interconnect has 2"
    );
}

#[test]
fn zero_cost_link_is_rejected_at_build() {
    // Accepted, a zero-cost link between two distinct chips would hand a
    // prefill's KV cache to the decode chip for 0 link bytes and 0 cycles.
    let zcu = EngineConfig::zcu102(presets::tiny_decoder(), 12.0);
    let err = ServeSpec::builder()
        .chip_specs(vec![zcu.clone(), zcu])
        .link_hops(vec![0])
        .phases(PrefillDecodeSplit { prefill_chips: 1 })
        .build()
        .unwrap_err();
    assert!(matches!(err, ServeError::InvalidInterconnect { .. }), "got {err:?}");
    assert_eq!(
        err.to_string(),
        "invalid interconnect: link 0 costs zero hops, which makes transfers free"
    );
}

#[test]
fn overflowing_link_costs_are_rejected_at_build() {
    // Accepted, the hop sum between chips 0 and 2 would overflow a u32.
    let err = ServeSpec::builder().chips(3).link_hops(vec![u32::MAX, 1]).build().unwrap_err();
    assert!(matches!(err, ServeError::InvalidInterconnect { .. }), "got {err:?}");
    assert_eq!(err.to_string(), "invalid interconnect: link hop costs sum past u32::MAX");
}

#[test]
fn noc_without_links_or_bandwidth_is_rejected_at_build() {
    // Accepted, every run would fail building the NoC — even on one chip.
    let no_bandwidth = NocConfig { link_bytes_per_cycle: 0, ..NocConfig::default() };
    let err = ServeSpec::builder().noc(no_bandwidth).build().unwrap_err();
    assert!(matches!(err, ServeError::InvalidInterconnect { .. }), "got {err:?}");
    assert_eq!(
        err.to_string(),
        "invalid interconnect: invalid configuration `link_bytes_per_cycle`: must be non-zero"
    );
    let no_links = NocConfig { links: 0, ..NocConfig::default() };
    let err = ServeSpec::builder().chips(2).noc(no_links).build().unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid interconnect: invalid configuration `links`: must be non-zero"
    );
}

#[test]
fn infeasible_slo_is_a_typed_planner_error() {
    use meadow::core::capacity::{CapacityPlanner, PaletteMix, SloTarget};
    let slo = SloTarget { p95_ttft_ms: 0.001, max_rejected_fraction: None };
    let mix = PaletteMix::new("big", vec![EngineConfig::zcu102(presets::tiny_decoder(), 12.0)]);
    let err = CapacityPlanner::new(ServeConfig::default(), slo)
        .max_chips(2)
        .plan(&ArrivalTrace::uniform(8, 0.0, 16, 4), &[mix])
        .unwrap_err();
    let CoreError::Serve(err) = err else { panic!("expected a serve error, got {err:?}") };
    let ServeError::InfeasibleSlo { p95_ttft_ms, max_chips, best_p95_ms } = &err else {
        panic!("expected InfeasibleSlo, got {err:?}");
    };
    assert_eq!((*p95_ttft_ms, *max_chips), (0.001, 2));
    assert!(*best_p95_ms > 0.0);
    assert_eq!(
        err.to_string(),
        format!(
            "no fleet of up to 2 chips meets p95 TTFT <= 0.001 ms; best probed fleet achieved \
             {best_p95_ms} ms"
        )
    );
}
