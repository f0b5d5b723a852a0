//! Property suite for the multi-session serving simulator: conservation,
//! KV-budget safety, eviction accounting, paging invariants (budget
//! safety at page granularity, whole-cache degeneracy, traffic ordering)
//! and the solo-equivalence contract (an unbounded budget reproduces
//! exactly the per-token latencies of independent `InferenceSession`s).

mod common;

use common::{requests_from_seed as seeded, serve, tiny_engine};
use meadow::core::serve::{AdmissionPolicy, KvPolicy, ServeConfig};
use meadow::core::session::InferenceSession;
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ServeRequest};
use meadow::sim::TrafficClass;
use proptest::prelude::*;

/// Up to 5 requests with ragged prompts/generation lengths and staggered
/// arrivals.
fn requests_from_seed(seed: u64, n: usize) -> ArrivalTrace {
    seeded(seed, n, 24, 8, 0.5)
}

fn policy_from(idx: u8) -> KvPolicy {
    match idx % 3 {
        0 => KvPolicy::Fifo,
        1 => KvPolicy::Lru,
        _ => KvPolicy::PagedLru,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every request finishes exactly once with exactly the
    /// requested number of tokens, under any policy (whole-cache or paged)
    /// and a safe budget.
    #[test]
    fn tokens_are_conserved(seed in 0u64..1000, n in 1usize..6, policy_idx in 0u8..3) {
        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n);
        // A budget between "largest single request" and "everything at
        // once" exercises admission without making any request unservable.
        let single_max =
            trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
        let budget = single_max + (trace.total_peak_kv_bytes(&model) - single_max) / 2;
        let config = ServeConfig::default()
            .with_budget(budget)
            .with_policy(policy_from(policy_idx))
            .with_page_bytes(256);
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        prop_assert_eq!(report.requests, n);
        prop_assert_eq!(report.traces.len(), n);
        for (req, t) in trace.requests.iter().zip(&report.traces) {
            prop_assert_eq!(t.id, req.id);
            prop_assert_eq!(t.generated_tokens, req.generate_tokens);
            prop_assert_eq!(t.tbt_ms.len(), req.generate_tokens);
            prop_assert!(t.finish_ms >= t.first_token_ms);
            prop_assert!(t.first_token_ms >= req.arrival_ms);
            prop_assert!(t.queue_wait_ms >= 0.0);
        }
        let total: u64 = trace.requests.iter().map(|r| r.generate_tokens as u64).sum();
        prop_assert_eq!(report.total_generated_tokens, total);
    }

    /// The KV budget is never exceeded at any step (the report's peak is
    /// the max over every tick's residency), for whole-cache and paged
    /// policies alike — paged residency counts reserved page frames, not
    /// just loaded data.
    #[test]
    fn kv_budget_is_never_exceeded(seed in 0u64..1000, n in 1usize..6, policy_idx in 0u8..3) {
        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n);
        let single_max =
            trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
        let config = ServeConfig::default()
            .with_budget(single_max)
            .with_policy(policy_from(policy_idx))
            .with_page_bytes(128);
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        prop_assert!(
            report.peak_kv_bytes <= single_max,
            "peak {} exceeds budget {}",
            report.peak_kv_bytes,
            single_max
        );
    }

    /// No eviction can occur when the budget fits every session's peak
    /// simultaneously, and the KvCache migration ledger stays empty.
    #[test]
    fn fitting_budget_never_evicts(seed in 0u64..1000, n in 1usize..6, policy_idx in 0u8..3) {
        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n);
        let config = ServeConfig::default()
            .with_budget(trace.total_peak_kv_bytes(&model))
            .with_policy(policy_from(policy_idx))
            .with_page_bytes(256);
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        prop_assert_eq!(report.total_evictions, 0);
        prop_assert_eq!(report.total_page_spills, 0);
        prop_assert_eq!(report.total_page_faults, 0);
        prop_assert_eq!(report.ledger.bytes(TrafficClass::KvCache), 0);
        prop_assert!(report.traces.iter().all(|t| t.evictions == 0));
    }

    /// Whole-cache degeneracy: with `page_bytes` covering every session's
    /// peak cache, `PagedLru` reproduces whole-cache `Lru` bit-exactly —
    /// same traces, same ledger, same makespan, same evictions (PR 3's
    /// spill behavior is the one-page-per-session special case of paging).
    #[test]
    fn paged_with_whole_cache_pages_matches_lru_exactly(
        seed in 0u64..1000,
        n in 1usize..6,
        cap in prop_oneof![Just(2usize), Just(3), Just(usize::MAX)],
    ) {
        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n);
        let single_max =
            trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
        let base = ServeConfig::default().with_budget(single_max).with_max_batch(cap);
        let e = tiny_engine();
        let lru = serve(&e, &trace, &base.with_policy(KvPolicy::Lru)).unwrap();
        let paged = serve(
            &e,
            &trace,
            &base.with_policy(KvPolicy::PagedLru).with_page_bytes(single_max),
        )
        .unwrap();
        prop_assert_eq!(&paged.traces, &lru.traces);
        prop_assert_eq!(&paged.ledger, &lru.ledger);
        prop_assert_eq!(paged.total_evictions, lru.total_evictions);
        prop_assert_eq!(paged.peak_kv_bytes, lru.peak_kv_bytes);
        prop_assert_eq!(paged.makespan_ms, lru.makespan_ms);
        prop_assert_eq!(paged.ticks, lru.ticks);
        prop_assert_eq!(paged.p50_latency_ms, lru.p50_latency_ms);
        prop_assert_eq!(paged.p95_latency_ms, lru.p95_latency_ms);
    }

    /// Load shedding conserves what it keeps: rejected + completed spans
    /// the whole trace, rejected requests generate nothing, and completed
    /// ones still get their full token count.
    #[test]
    fn rejection_partitions_the_trace(
        seed in 0u64..1000,
        n in 1usize..6,
        slo_us in 1u64..2000,
        policy_idx in 0u8..3,
    ) {
        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n);
        let single_max =
            trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
        let config = ServeConfig::default()
            .with_budget(single_max)
            .with_policy(policy_from(policy_idx))
            .with_page_bytes(256)
            .with_admission(AdmissionPolicy::RejectAfter {
                ttft_slo_ms: slo_us as f64 / 1e3,
            });
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        let rejected = report.traces.iter().filter(|t| t.rejected).count();
        prop_assert_eq!(rejected as u64, report.rejected_requests);
        let mut expected = 0u64;
        for (req, t) in trace.requests.iter().zip(&report.traces) {
            if t.rejected {
                prop_assert_eq!(t.generated_tokens, 0);
                prop_assert!(t.tbt_ms.is_empty());
                prop_assert_eq!(t.final_kv_bytes, 0);
            } else {
                prop_assert_eq!(t.generated_tokens, req.generate_tokens);
                expected += req.generate_tokens as u64;
            }
        }
        prop_assert_eq!(report.total_generated_tokens, expected);
    }

    /// FIFO and LRU are policies over *placement*, not *work*: both must
    /// serve every request to completion with identical token counts.
    #[test]
    fn fifo_and_lru_generate_identical_token_counts(seed in 0u64..1000, n in 2usize..6) {
        let model = presets::tiny_decoder();
        let trace = requests_from_seed(seed, n);
        let single_max =
            trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
        let base = ServeConfig::default().with_budget(single_max).with_max_batch(2);
        let e = tiny_engine();
        let fifo = serve(&e, &trace, &base.with_policy(KvPolicy::Fifo)).unwrap();
        let lru = serve(&e, &trace, &base.with_policy(KvPolicy::Lru)).unwrap();
        prop_assert_eq!(fifo.total_generated_tokens, lru.total_generated_tokens);
        for (f, l) in fifo.traces.iter().zip(&lru.traces) {
            prop_assert_eq!(f.generated_tokens, l.generated_tokens);
        }
    }
}

/// Acceptance criterion: a budget smaller than total demand completes all
/// requests with at least one eviction.
#[test]
fn constrained_budget_completes_with_evictions() {
    let model = presets::tiny_decoder();
    let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
    let single = ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model);
    assert!(2 * single < trace.total_peak_kv_bytes(&model));
    for policy in [KvPolicy::Fifo, KvPolicy::Lru] {
        let config = ServeConfig::default().with_budget(2 * single).with_policy(policy);
        let report = serve(&tiny_engine(), &trace, &config).unwrap();
        assert_eq!(report.total_generated_tokens, 32, "{policy:?}");
        assert!(report.total_evictions > 0, "{policy:?} must evict under pressure");
        assert!(report.peak_kv_bytes <= 2 * single);
        assert!(report.ledger.bytes(TrafficClass::KvCache) > 0);
    }
}

/// Cross-case the matrix never pinned deterministically: `PagedLru`
/// eviction *and* `RejectAfter` shedding firing on the same run. Page
/// spills must not wedge admission into rejecting everything, rejection
/// must not leak zombie pages into the budget accounting, and the
/// served/shed partition must still conserve tokens.
#[test]
fn paged_lru_with_slo_rejection_evicts_and_partitions() {
    let model = presets::tiny_decoder();
    let trace = ArrivalTrace::new(vec![
        ServeRequest::new(0, 0.0, 16, 8),
        ServeRequest::new(1, 0.0, 24, 4),
        ServeRequest::new(2, 0.01, 8, 6),
        ServeRequest::new(3, 0.015, 31, 2),
        ServeRequest::new(4, 0.02, 4, 8),
        ServeRequest::new(5, 0.03, 12, 5),
        ServeRequest::new(6, 0.05, 20, 3),
        ServeRequest::new(7, 0.08, 6, 7),
    ]);
    // 1.5 peak sessions of room and a sub-millisecond SLO: evictions,
    // page spills and rejections all fire on this trace.
    let budget = 3 * ServeRequest::new(0, 0.0, 31, 2).peak_kv_bytes(&model) / 2;
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(4)
        .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.4 });
    let report = serve(&tiny_engine(), &trace, &config).unwrap();
    assert!(report.total_evictions > 0, "the cross-case must evict");
    assert!(report.total_page_spills > 0, "the cross-case must peel pages");
    assert!(report.rejected_requests > 0, "the cross-case must shed load");
    assert!(
        (report.rejected_requests as usize) < trace.requests.len(),
        "the cross-case must also serve"
    );
    assert!(report.peak_kv_bytes <= budget);
    let mut expected = 0u64;
    for (req, t) in trace.requests.iter().zip(&report.traces) {
        if t.rejected {
            assert_eq!(t.generated_tokens, 0);
            assert_eq!(t.final_kv_bytes, 0);
        } else {
            assert_eq!(t.generated_tokens, req.generate_tokens);
            expected += req.generate_tokens as u64;
        }
    }
    assert_eq!(report.total_generated_tokens, expected);
}

/// Acceptance criterion: with an unbounded budget, every request's prefill
/// and per-token service latencies are bit-identical to an independent
/// `InferenceSession` walking the same request on the same engine.
#[test]
fn unbounded_budget_matches_independent_sessions() {
    let e = tiny_engine();
    let trace = ArrivalTrace::new(vec![
        ServeRequest::new(0, 0.0, 16, 8),
        ServeRequest::new(1, 0.0, 7, 5),
        ServeRequest::new(2, 2.0, 31, 3),
        ServeRequest::new(3, 2.0, 1, 6),
    ]);
    for policy in [KvPolicy::Fifo, KvPolicy::Lru, KvPolicy::PagedLru] {
        let config = ServeConfig::unbounded().with_policy(policy).with_page_bytes(256);
        let report = serve(&e, &trace, &config).unwrap();
        assert_eq!(report.total_evictions, 0, "{policy:?}");
        assert_eq!(report.total_page_faults, 0, "{policy:?}");
        for req in &trace.requests {
            let mut solo = InferenceSession::start(&e, req.prompt_tokens).unwrap();
            solo.generate(req.generate_tokens).unwrap();
            let solo = solo.finish();
            let served = report.trace(req.id).unwrap();
            assert_eq!(served.prefill_ms, solo.ttft_ms, "{policy:?} request {} prefill", req.id);
            assert_eq!(served.tbt_ms, solo.tbt_ms, "{policy:?} request {} TBT series", req.id);
            assert_eq!(served.final_kv_bytes, solo.final_kv_bytes);
        }
    }
}

/// Acceptance criterion: under a moderately constrained budget with a
/// batch cap, page-granular eviction moves strictly fewer
/// `TrafficClass::KvCache` bytes than whole-cache spill — it peels only
/// the overflow instead of thrashing entire caches.
#[test]
fn paged_eviction_moves_fewer_bytes_than_whole_cache() {
    let model = presets::tiny_decoder();
    let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
    let single = ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model);
    let base = ServeConfig::default().with_budget(5 * single / 2).with_max_batch(2);
    let e = tiny_engine();
    let whole = serve(&e, &trace, &base.with_policy(KvPolicy::Lru)).unwrap();
    let paged =
        serve(&e, &trace, &base.with_policy(KvPolicy::PagedLru).with_page_bytes(256)).unwrap();
    assert!(whole.total_evictions > 0, "the scenario must exercise eviction");
    assert!(paged.total_page_spills > 0 && paged.total_page_faults > 0);
    let (w, p) =
        (whole.ledger.bytes(TrafficClass::KvCache), paged.ledger.bytes(TrafficClass::KvCache));
    assert!(p < w, "paged migration {p} must undercut whole-cache {w}");
    // Both still generate every token.
    assert_eq!(whole.total_generated_tokens, 32);
    assert_eq!(paged.total_generated_tokens, 32);
}

/// Livelock regression: when every active session completes while demoted
/// sessions still hold unspilled pages, the head-of-line request must not
/// be blocked by those pages — they are reclaimable on demand, and
/// counting them against admission once wedged the scheduler forever
/// (empty step set → no eviction pass → clock never advances).
#[test]
fn paged_zombie_pages_never_wedge_admission() {
    let trace = ArrivalTrace::new(vec![
        ServeRequest::new(0, 0.0, 41, 11),
        ServeRequest::new(1, 0.1, 12, 8),
        ServeRequest::new(2, 0.22, 35, 1),
        ServeRequest::new(3, 0.33, 36, 11),
        ServeRequest::new(4, 0.45, 26, 14),
    ]);
    let config = ServeConfig::default()
        .with_budget(8049)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(64)
        .with_max_batch(2);
    let report = serve(&tiny_engine(), &trace, &config).unwrap();
    assert_eq!(report.total_generated_tokens, 11 + 8 + 1 + 11 + 14);
    assert!(report.peak_kv_bytes <= 8049);
}

/// A seeded Poisson trace replays deterministically end to end: the same
/// seed produces the same trace, and serving it twice produces the same
/// report byte for byte.
#[test]
fn poisson_serving_is_seed_deterministic() {
    use meadow::models::workload::ZipfLengths;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let lengths = ZipfLengths {
        prompt_min: 4,
        prompt_max: 24,
        generate_min: 2,
        generate_max: 8,
        exponent: 1.2,
    };
    let make =
        || ArrivalTrace::open_loop(6, 20_000.0, &lengths, &mut StdRng::seed_from_u64(11)).unwrap();
    let trace = make();
    assert_eq!(trace, make(), "seeded generator must replay");
    let model = presets::tiny_decoder();
    let single_max = trace.requests.iter().map(|r| r.peak_kv_bytes(&model)).max().unwrap();
    let config = ServeConfig::default()
        .with_budget(single_max)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256);
    let e = tiny_engine();
    let a = serve(&e, &trace, &config).unwrap();
    let b = serve(&e, &make(), &config).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
}

/// Under contention the evicted session pays a KV reload on its next step,
/// so its TBT series dominates the solo series entry-for-entry.
#[test]
fn reload_penalties_only_ever_add_latency() {
    let e = tiny_engine();
    let model = presets::tiny_decoder();
    let trace = ArrivalTrace::uniform(3, 0.0, 16, 8);
    let single = ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model);
    let config = ServeConfig::default().with_budget(single + single / 2);
    let report = serve(&e, &trace, &config).unwrap();
    assert!(report.total_evictions > 0);
    for req in &trace.requests {
        let mut solo = InferenceSession::start(&e, req.prompt_tokens).unwrap();
        solo.generate(req.generate_tokens).unwrap();
        let solo = solo.finish();
        let served = report.trace(req.id).unwrap();
        for (k, (s, ref_ms)) in served.tbt_ms.iter().zip(&solo.tbt_ms).enumerate() {
            assert!(s >= ref_ms, "request {} token {k}: {s} < {ref_ms}", req.id);
        }
    }
}

/// Page frames are counted, never allocated, so a page size far below any
/// cache is just fine-grained accounting: 200 OPT-125M requests of
/// 512 + 128 tokens at 1-byte pages would be 2.4 × 10⁹ frames. Unbounded,
/// nothing is evicted, no tail page is partial, and the run serves exactly
/// what whole-cache `Lru` serves.
#[test]
fn one_byte_pages_serve_like_whole_cache_lru() {
    let e = MeadowEngine::new(EngineConfig::zcu102(presets::opt_125m(), 12.0)).unwrap();
    let trace = ArrivalTrace::uniform(200, 0.0, 512, 128);
    let base = ServeConfig::unbounded().with_page_bytes(1);
    let paged = serve(&e, &trace, &base.with_policy(KvPolicy::PagedLru)).unwrap();
    let lru = serve(&e, &trace, &base.with_policy(KvPolicy::Lru)).unwrap();
    assert_eq!(paged.total_generated_tokens, 25_600);
    assert_eq!(paged.kv_frag_peak_bytes, 0);
    assert_eq!(paged.traces, lru.traces);
}
