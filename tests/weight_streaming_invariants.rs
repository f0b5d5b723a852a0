//! Invariant/property tier for the weight-residency state machine: cold
//! starts, per-layer weight streaming with prefetch overlap, and
//! multi-model LRU tenancy.
//!
//! The contracts pinned here:
//!
//! * **Degeneracy identities** — leaving the weight budget unset (the
//!   unbounded single-model case: the chip's model is permanently
//!   resident for free) serializes not a single new byte, so every
//!   pre-residency report stays bit-exact; and the overlap formula with
//!   zero-latency loads collapses to the resident compute time.
//! * **Cold ≥ warm** — a cold chip's TTFT dominates the warm identity's
//!   on identical requests, and the streaming-overlap TTFT lands strictly
//!   between warm and the sequential full-load stall.
//! * **Byte conservation** — every weight byte crossing DRAM is exactly
//!   one model load (`loads × model_weight_bytes`), through arbitrary
//!   evict/re-stream churn; eviction itself writes nothing back.
//! * **Event == Tick** — the event core reproduces, byte for byte, the
//!   report digests the retired per-tick core recorded over the whole
//!   residency matrix (models × budgets × streaming × KV policies).
//! * **Cluster aggregation** — a budgeted cluster's aggregate weight
//!   counters are exactly the sums of its chips'.
//! * **Overlap formula** — `pipelined_cold_finish` matches a brute-force
//!   two-resource (load channel + compute pipeline) schedule and sits in
//!   `[max(Σload, Σcompute), Σload + Σcompute]`.

mod common;

use common::{fnv1a64, requests_from_seed, serve, spread_models, tiny_engine};
use meadow::core::cluster::RoundRobin;
use meadow::core::serve::{pipelined_cold_finish, KvPolicy, ServeConfig, ServeReport};
use meadow::core::spec::ServeSpec;
use meadow::models::presets;
use meadow::models::workload::ArrivalTrace;
use meadow::sim::{Cycles, TrafficClass};
use proptest::collection::vec;
use proptest::prelude::*;

/// Brute-force reference for the EdgeFlow-style overlap: the load channel
/// streams layers back to back, and layer `l`'s compute starts once both
/// its own load and layer `l-1`'s compute have finished. Independent
/// reimplementation as an explicit event walk over both resources.
fn brute_force_schedule(load: &[u64], compute: &[u64]) -> u64 {
    let layers = load.len().max(compute.len());
    let mut load_channel_free = 0u64;
    let mut compute_free = 0u64;
    for l in 0..layers {
        let load_done = load_channel_free + load.get(l).copied().unwrap_or(0);
        load_channel_free = load_done;
        let start = load_done.max(compute_free);
        compute_free = start + compute.get(l).copied().unwrap_or(0);
    }
    compute_free
}

/// No weight budget is the unbounded single-model identity: the report
/// carries no weight summary, no per-trace cold/warm tags, and its JSON
/// contains no trace of the feature — which is why the four pre-residency
/// goldens stay byte-stable.
#[test]
fn unset_budget_serializes_the_pre_residency_identity() {
    let trace = ArrivalTrace::uniform(2, 0.0, 16, 4);
    let report = serve(&tiny_engine(), &trace, &ServeConfig::default()).unwrap();
    assert!(report.weights.is_none());
    assert!(report.traces.iter().all(|t| t.cold_start.is_none()));
    let json = report.to_json().unwrap();
    assert!(!json.contains("weights"), "identity JSON must not mention weights");
    assert!(!json.contains("cold_start"), "identity JSON must not tag traces");
    // And a pre-residency report (no such fields at all) still parses.
    let reparsed: ServeReport = serde_json::from_str(&json).unwrap();
    assert_eq!(reparsed, report);
}

/// Every point of the residency matrix — models × budgets × streaming ×
/// KV policies — each serving its own seeded trace of 1–15 requests.
fn residency_matrix() -> Vec<(ArrivalTrace, ServeConfig)> {
    let model = presets::tiny_decoder();
    let mut points = Vec::new();
    for models in 1..=3u32 {
        for budget_models in 1..=2u64 {
            for streaming in [false, true] {
                for policy in [KvPolicy::Fifo, KvPolicy::Lru, KvPolicy::PagedLru] {
                    let i = points.len() as u64;
                    let n = 1 + (i * 7 % 15) as usize;
                    let trace =
                        spread_models(requests_from_seed(13 + 97 * i, n, 24, 8, 0.5), models);
                    let config = ServeConfig::default()
                        .with_weight_budget(budget_models * model.total_weight_bytes())
                        .with_weight_streaming(streaming)
                        .with_policy(policy)
                        .with_max_batch(4);
                    points.push((trace, config));
                }
            }
        }
    }
    points
}

/// FNV-1a/64 digests of the serialized reports the retired per-tick scan
/// core served at each point of [`residency_matrix`], in order.
const RESIDENCY_ORACLE: &str = "\
    36cee6a4677acf8e a60a2ae14f700552 dfcbdb6349faa6b3 79ede0a59d66f7d9 f9695712c0d7669d \
    22bc00dcb8e7e550 364d5efb5c6e0ff8 46fc4025021c3437 5275349f0fbb26ea 795af737f15d7edf \
    0e0141f9af2adbd3 500d7f2ee51da7c4 c37dcd3980396ca4 440086982ceef428 5ce320ed14aa028f \
    748bb806ba8d2b57 03e3d6ac310b21e8 fd7f713ad4ab4601 86ce89d1ad6f4f78 e31d92befdf5cc00 \
    29e8b322a3e4db60 b2df8be8e4baa2ad 7397bb83b456131b 1236e9bb0ac3d3cd 54ff0db1f783cdd0 \
    59f2d5dbf7685b66 b0ba8c4f26f0b26d e05704d7aed4f513 d87076fce146a214 0acb0ec3e3ea9177 \
    55f412ea25b2d9d0 9e1235cf4139c92a 25c2756e01192250 1f05e4c75ae0cf35 4da81ff0cf0f5fd1 \
    36d1977a37e441d1";

/// Event == Tick bit-exactly over the residency matrix: the event core
/// reproduces every report digest the per-tick oracle recorded.
#[test]
fn cores_agree_over_the_residency_matrix() {
    let engine = tiny_engine();
    let got: Vec<String> = residency_matrix()
        .iter()
        .map(|(trace, config)| fnv1a64(&serve(&engine, trace, config).unwrap().to_json().unwrap()))
        .collect();
    let want: Vec<&str> = RESIDENCY_ORACLE.split_whitespace().collect();
    assert_eq!(got, want, "the event core left the tick oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The overlap formula equals the brute-force two-resource schedule
    /// and respects its bounds: at least each pipeline alone, at most
    /// their sum, and exactly the compute pipeline when loads are free
    /// (the streamed-equals-resident degeneracy).
    #[test]
    fn overlap_formula_matches_brute_force_and_bounds(
        load in vec(0u64..2_000, 0..12),
        compute in vec(0u64..2_000, 0..12),
    ) {
        let lc: Vec<Cycles> = load.iter().map(|&c| Cycles(c)).collect();
        let cc: Vec<Cycles> = compute.iter().map(|&c| Cycles(c)).collect();
        let piped = pipelined_cold_finish(&lc, &cc).get();
        prop_assert_eq!(piped, brute_force_schedule(&load, &compute));
        let load_sum: u64 = load.iter().sum();
        let compute_sum: u64 = compute.iter().sum();
        prop_assert!(piped >= load_sum, "pipelined {piped} < load pipeline {load_sum}");
        prop_assert!(piped >= compute_sum, "pipelined {piped} < compute pipeline {compute_sum}");
        prop_assert!(
            piped <= load_sum + compute_sum,
            "pipelined {piped} > sequential {}",
            load_sum + compute_sum
        );
        // Zero-latency loads: streaming is indistinguishable from resident.
        let free: Vec<Cycles> = load.iter().map(|_| Cycles::ZERO).collect();
        prop_assert_eq!(pipelined_cold_finish(&free, &cc).get(), compute_sum);
    }

    /// The cold-start TTFT ladder on one request: warm < streamed cold <
    /// sequential cold, for any request shape. Streaming overlap hides
    /// load latency behind compute without ever beating residency, and
    /// both cold runs move identical weight bytes.
    #[test]
    fn cold_ttft_ladder_is_strict_for_any_request_shape(
        prompt in 1usize..32,
        generate in 1usize..8,
    ) {
        let e = tiny_engine();
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(1, 0.0, prompt, generate);
        let budget = ServeConfig::default().with_weight_budget(model.total_weight_bytes());
        let warm = serve(&e, &trace, &ServeConfig::default()).unwrap();
        let sequential = serve(&e, &trace, &budget).unwrap();
        let streamed = serve(&e, &trace, &budget.with_weight_streaming(true)).unwrap();
        let (w, s, q) = (
            warm.traces[0].ttft_ms(),
            streamed.traces[0].ttft_ms(),
            sequential.traces[0].ttft_ms(),
        );
        prop_assert!(w < s, "streamed cold {s} must exceed warm {w}");
        prop_assert!(s < q, "streamed cold {s} must undercut sequential cold {q}");
        prop_assert_eq!(
            streamed.ledger.bytes(TrafficClass::Weights),
            sequential.ledger.bytes(TrafficClass::Weights)
        );
    }

    /// Identical requests, one cold chip: the first (cold) session's TTFT
    /// dominates the later warm one's, and the report's per-class
    /// summaries agree with the traces.
    #[test]
    fn cold_ttft_dominates_warm_on_identical_requests(
        prompt in 1usize..32,
        generate in 1usize..8,
        streaming in any::<bool>(),
    ) {
        let model = presets::tiny_decoder();
        // Spaced so the second request prefills alone on a now-warm chip.
        let trace = ArrivalTrace::uniform(2, 10_000.0, prompt, generate);
        let config = ServeConfig::default()
            .with_weight_budget(model.total_weight_bytes())
            .with_weight_streaming(streaming);
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        let weights = report.weights.unwrap();
        prop_assert_eq!(weights.cold_requests, 1);
        prop_assert_eq!(report.traces[0].cold_start, Some(true));
        prop_assert_eq!(report.traces[1].cold_start, Some(false));
        let (cold, warm) = (report.traces[0].ttft_ms(), report.traces[1].ttft_ms());
        prop_assert!(cold > warm, "cold TTFT {cold} must exceed warm TTFT {warm}");
        prop_assert_eq!(weights.cold_ttft.p50_ms, cold);
        prop_assert_eq!(weights.warm_ttft.p50_ms, warm);
    }

    /// Weight-byte conservation through arbitrary evict/re-stream churn:
    /// every DRAM weight byte belongs to exactly one whole-model load,
    /// eviction writes nothing back, and the load/eviction ledger closes
    /// (models still resident = loads − evictions, within the budget).
    #[test]
    fn weight_bytes_are_conserved_through_churn(
        seed in 0u64..1_000,
        n in 2usize..16,
        models in 1u32..4,
        budget_models in 1u64..3,
        streaming in any::<bool>(),
        policy_idx in 0u8..3,
    ) {
        let model = presets::tiny_decoder();
        let trace = spread_models(requests_from_seed(seed, n, 24, 8, 0.5), models);
        let config = ServeConfig::default()
            .with_weight_budget(budget_models * model.total_weight_bytes())
            .with_weight_streaming(streaming)
            .with_policy(match policy_idx % 3 {
                0 => KvPolicy::Fifo,
                1 => KvPolicy::Lru,
                _ => KvPolicy::PagedLru,
            })
            .with_max_batch(2);
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        let weights = report.weights.unwrap();
        prop_assert_eq!(weights.models, models.min(n as u32) as usize);
        prop_assert_eq!(weights.model_weight_bytes, model.total_weight_bytes());
        // Conservation: bytes == loads × model bytes == loads × Σ layers.
        prop_assert_eq!(weights.weight_bytes, weights.weight_loads * model.total_weight_bytes());
        prop_assert_eq!(
            weights.weight_bytes,
            weights.weight_loads * model.layer_weight_bytes() * model.layers as u64
        );
        prop_assert_eq!(report.ledger.bytes(TrafficClass::Weights), weights.weight_bytes);
        // The residency ledger closes: what streamed in and never left is
        // still resident, bounded by the budget; every distinct model
        // loaded at least once.
        let resident = weights.weight_loads - weights.weight_evictions;
        prop_assert!(resident >= 1 && resident <= budget_models);
        prop_assert!(weights.weight_loads >= weights.models as u64);
        // Cold starts are per-session, at most one per request.
        prop_assert!(weights.cold_requests <= n as u64);
    }

    /// The cluster front door carries the residency matrix too: the
    /// aggregate weight summary's churn counters are the per-chip sums.
    #[test]
    fn cluster_cores_agree_with_multi_model_weights(
        seed in 0u64..1_000,
        n in 1usize..16,
        chips in 1usize..4,
        models in 1u32..3,
        streaming in any::<bool>(),
    ) {
        let model = presets::tiny_decoder();
        let engine = tiny_engine();
        let trace = spread_models(requests_from_seed(seed, n, 24, 8, 0.5), models);
        let config = ServeConfig::default()
            .with_weight_budget(model.total_weight_bytes())
            .with_weight_streaming(streaming)
            .with_max_batch(4);
        let report = ServeSpec::builder()
            .chips(chips)
            .placement(RoundRobin)
            .config(config)
            .build()
            .unwrap()
            .run(&engine, &trace)
            .unwrap()
            .into_cluster()
            .unwrap();
        let agg = report.weights.expect("budgeted runs aggregate a weight summary");
        let per_chip: Vec<_> =
            report.per_chip.iter().filter_map(|c| c.report.weights).collect();
        prop_assert_eq!(agg.weight_loads, per_chip.iter().map(|w| w.weight_loads).sum::<u64>());
        prop_assert_eq!(
            agg.weight_evictions,
            per_chip.iter().map(|w| w.weight_evictions).sum::<u64>()
        );
        prop_assert_eq!(agg.weight_bytes, per_chip.iter().map(|w| w.weight_bytes).sum::<u64>());
        prop_assert_eq!(
            agg.cold_requests,
            per_chip.iter().map(|w| w.cold_requests).sum::<u64>()
        );
    }
}
