//! Property suite for prefill/decode disaggregation and speculative
//! decoding: the `Colocated` degeneracy (a disaggregated run under the
//! default phase placement reproduces the same spec's cluster run without
//! phases bit-exactly),
//! token-for-token service equality of split vs colocated serving,
//! acceptance-1.0 speculation bit-identity, exact KV-handoff byte
//! conservation, and `MEADOW_THREADS` bit-identity of the `DisaggReport`.

mod common;

use common::{requests_from_seed, tiny_engine};
use meadow::core::cluster::{
    ClusterReport, Colocated, DisaggReport, LeastLoadedKv, PrefillDecodeSplit, RoundRobin,
    SessionAffinity,
};
use meadow::core::serve::{KvPolicy, ServeConfig, SpecDecode};
use meadow::core::spec::{ServeSpec, ServeSpecBuilder};
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::models::presets;
use meadow::models::workload::ArrivalTrace;
use meadow::sim::noc::NocConfig;
use meadow::tensor::parallel::ExecConfig;
use proptest::prelude::*;

/// Up to 5 requests with ragged lengths and staggered arrivals.
fn staggered_trace(seed: u64, n: usize) -> ArrivalTrace {
    requests_from_seed(seed, n, 24, 8, 0.5)
}

/// A budget between "largest single request" and "everything at once".
fn contended_budget(trace: &ArrivalTrace) -> u64 {
    let model = presets::tiny_decoder();
    let single_max = trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
    single_max + (trace.total_peak_kv_bytes(&model) - single_max) / 4
}

/// Runs a cluster-mode spec over `trace`.
fn serve_cluster(builder: ServeSpecBuilder, trace: &ArrivalTrace) -> ClusterReport {
    let outcome = builder.build().unwrap().run(&tiny_engine(), trace).unwrap();
    outcome.into_cluster().expect("cluster mode")
}

/// Runs a disaggregated spec on `engine` over `trace`.
fn serve_disagg(engine: &MeadowEngine, spec: &ServeSpec, trace: &ArrivalTrace) -> DisaggReport {
    spec.run(engine, trace).unwrap().into_disaggregated().expect("phases are set")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance criterion: under the default `Colocated` phase
    /// placement, a disaggregated run degenerates to the same spec's
    /// cluster run without phases bit-exactly — the prefill stage carries
    /// the identical report (and serialized bytes), no decode stage
    /// exists, and no handoff traffic ever touches the NoC.
    #[test]
    fn colocated_disagg_reproduces_serve_bit_exactly(
        seed in 0u64..500,
        n in 1usize..6,
        chips in 1usize..4,
        placement_idx in 0u8..3,
        paged in any::<bool>(),
    ) {
        let trace = staggered_trace(seed, n);
        let mut serve_config = ServeConfig::default()
            .with_budget(contended_budget(&trace))
            .with_max_batch(2);
        if paged {
            serve_config = serve_config.with_policy(KvPolicy::PagedLru).with_page_bytes(256);
        }
        let build = || {
            let builder = ServeSpec::builder().chips(chips).config(serve_config);
            match placement_idx % 3 {
                0 => builder.placement(RoundRobin),
                1 => builder.placement(LeastLoadedKv),
                _ => builder.placement(SessionAffinity),
            }
        };
        let baseline = serve_cluster(build(), &trace);
        let colocated = build().phases(Colocated).build().unwrap();
        let disagg = serve_disagg(&tiny_engine(), &colocated, &trace);
        prop_assert_eq!(&disagg.prefill_stage, &baseline);
        prop_assert_eq!(
            disagg.prefill_stage.to_json().unwrap(),
            baseline.to_json().unwrap()
        );
        prop_assert!(disagg.decode_stage.is_none());
        prop_assert_eq!(disagg.split_requests, 0);
        prop_assert_eq!(disagg.handoff.split_requests, 0);
        prop_assert_eq!(disagg.handoff.handoff_bytes, 0);
        prop_assert_eq!(disagg.handoff.noc_link_bytes, 0);
        prop_assert_eq!(disagg.total_generated_tokens, baseline.total_generated_tokens);
        prop_assert_eq!(disagg.makespan_ms, baseline.makespan_ms);
    }

    /// Token-for-token service equality: with unbounded budgets (no
    /// eviction, no reload stalls) every request's own prefill latency and
    /// per-token decode latencies are bit-equal between a colocated run
    /// and a disaggregated split — the handoff moves the work, it never
    /// changes it.
    #[test]
    fn split_serving_matches_colocated_token_for_token(
        seed in 0u64..500,
        n in 1usize..6,
        decode_chips in 1usize..3,
    ) {
        let trace = staggered_trace(seed, n);
        let chips = 1 + decode_chips;
        let colocated = serve_cluster(ServeSpec::builder().chips(chips), &trace);
        let split = serve_disagg(
            &tiny_engine(),
            &ServeSpec::builder()
                .chips(chips)
                .phases(PrefillDecodeSplit { prefill_chips: 1 })
                .build()
                .unwrap(),
            &trace,
        );
        prop_assert_eq!(split.split_requests as usize, n);
        let decode_stage = split.decode_stage.as_ref().unwrap();
        for req in &trace.requests {
            let base = colocated.trace(req.id).unwrap();
            let pre = split.prefill_stage.trace(req.id).unwrap();
            let dec = decode_stage.trace(req.id).unwrap();
            prop_assert_eq!(pre.prefill_ms, base.prefill_ms, "request {}", req.id);
            prop_assert_eq!(pre.generated_tokens, 0);
            prop_assert_eq!(&dec.tbt_ms, &base.tbt_ms, "request {}", req.id);
            prop_assert_eq!(dec.generated_tokens, req.generate_tokens);
        }
    }

    /// Absolute-clock check for a solo request on an (effectively) free
    /// NoC: the split run finishes exactly one handoff later than the
    /// colocated run — no hidden cost appears or disappears at the phase
    /// boundary. (Exactly zero handoff is impossible: a non-empty
    /// transfer always costs at least one link cycle.)
    #[test]
    fn solo_split_finish_is_colocated_finish_plus_handoff(
        seed in 0u64..500,
    ) {
        let trace = staggered_trace(seed, 1);
        let fast_noc = NocConfig { link_bytes_per_cycle: u64::MAX, links: 196 };
        let colocated = serve_cluster(ServeSpec::builder().chips(2).noc(fast_noc), &trace);
        let split = serve_disagg(
            &tiny_engine(),
            &ServeSpec::builder()
                .chips(2)
                .noc(fast_noc)
                .phases(PrefillDecodeSplit { prefill_chips: 1 })
                .build()
                .unwrap(),
            &trace,
        );
        let id = trace.requests[0].id;
        let base = colocated.trace(id).unwrap();
        let s = split.summary(id).unwrap();
        prop_assert!(s.handoff_ms > 0.0, "a non-empty transfer costs at least one cycle");
        let drift = (s.finish_ms - s.handoff_ms - base.finish_ms).abs();
        prop_assert!(
            drift < 1e-9,
            "split finish {} != colocated finish {} + handoff {}",
            s.finish_ms,
            base.finish_ms,
            s.handoff_ms
        );
        prop_assert_eq!(s.ttft_ms, base.ttft_ms());
    }

    /// Acceptance criterion: speculative decoding with acceptance 1.0
    /// never flushes a draft, so the whole cluster run — report and
    /// serialized bytes — is bit-identical to the baseline decode loop.
    #[test]
    fn full_acceptance_speculation_is_bit_identical(
        seed in 0u64..500,
        n in 1usize..6,
        chips in 1usize..4,
        draft_len in 1usize..16,
    ) {
        let trace = staggered_trace(seed, n);
        let build = |spec: Option<SpecDecode>| {
            let mut serve_config = ServeConfig::default()
                .with_budget(contended_budget(&trace))
                .with_policy(KvPolicy::PagedLru)
                .with_page_bytes(256);
            if let Some(spec) = spec {
                serve_config = serve_config.with_speculation(spec);
            }
            ServeSpec::builder().chips(chips).config(serve_config).placement(LeastLoadedKv)
        };
        let spec = SpecDecode { draft_len, acceptance: 1.0, draft_cost_ratio: 0.5 };
        let baseline = serve_cluster(build(None), &trace);
        let accepted = serve_cluster(build(Some(spec)), &trace);
        prop_assert_eq!(&accepted, &baseline);
        prop_assert_eq!(accepted.to_json().unwrap(), baseline.to_json().unwrap());
    }

    /// Exact handoff conservation: the payload bytes equal the sum of the
    /// split requests' prompt KV (each handed off exactly once), and the
    /// link-level bytes equal payload × hop distance, request by request.
    #[test]
    fn handoff_bytes_conserve_exactly(
        seed in 0u64..500,
        n in 1usize..6,
        prefill_chips in 1usize..3,
        decode_chips in 1usize..3,
    ) {
        let model = presets::tiny_decoder();
        let trace = staggered_trace(seed, n);
        let spec = ServeSpec::builder()
            .chips(prefill_chips + decode_chips)
            .phases(PrefillDecodeSplit { prefill_chips })
            .build()
            .unwrap();
        let report = serve_disagg(&tiny_engine(), &spec, &trace);
        // Queue admission (the default) never rejects: every request
        // splits and hands off.
        prop_assert_eq!(report.split_requests as usize, n);
        prop_assert_eq!(report.handoff.split_requests as usize, n);
        let mut payload = 0u64;
        let mut link = 0u64;
        for req in &trace.requests {
            let s = report.summary(req.id).unwrap();
            prop_assert!(s.prefill_chip < prefill_chips);
            prop_assert!(s.decode_chip >= prefill_chips);
            let bytes = req.prompt_kv_bytes(&model);
            payload += bytes;
            link += bytes * (s.decode_chip - s.prefill_chip) as u64;
        }
        prop_assert_eq!(report.handoff.handoff_bytes, payload);
        prop_assert_eq!(report.handoff.noc_link_bytes, link);
        prop_assert_eq!(report.total_generated_tokens,
            trace.requests.iter().map(|r| r.generate_tokens as u64).sum::<u64>());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance criterion: the `DisaggReport` — including its
    /// serialized bytes — is bit-identical across `MEADOW_THREADS`.
    #[test]
    fn disagg_report_is_bit_identical_across_threads(
        seed in 0u64..200,
        n in 1usize..5,
        decode_chips in 1usize..3,
        speculate in any::<bool>(),
    ) {
        let trace = staggered_trace(seed, n);
        let mut serve_config = ServeConfig::default();
        if speculate {
            serve_config = serve_config.with_speculation(SpecDecode {
                draft_len: 4,
                acceptance: 0.6,
                draft_cost_ratio: 0.5,
            });
        }
        let spec = ServeSpec::builder()
            .chips(1 + decode_chips)
            .config(serve_config)
            .phases(PrefillDecodeSplit { prefill_chips: 1 })
            .build()
            .unwrap();
        let run = |threads: usize| {
            let e = MeadowEngine::new(
                EngineConfig::zcu102(presets::tiny_decoder(), 12.0)
                    .with_exec(ExecConfig::with_threads(threads)),
            )
            .unwrap();
            serve_disagg(&e, &spec, &trace)
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
}
