//! Serving artifacts: multi-session continuous batching on the ZCU102
//! under KV-cache budgets. Not paper figures; see the ROADMAP's serving
//! north star. Each artifact states its trace, budget and spec list once,
//! runs the specs through the unified [`ServeSpec`] front door on one
//! engine (`plan_capacity` through the capacity planner), and asserts the
//! contract it exists to demonstrate before it returns its table, so
//! every `repro` run checks every contract:
//!
//! * `serve` (whole-cache FIFO/LRU budget sweep): the constrained budget
//!   forces evictions that the fit-all budget never needs;
//! * `serve_paged` (paged vs whole-cache eviction on an open-loop
//!   Poisson/Zipf workload, with SLO-aware admission): page-granular
//!   eviction moves strictly less KV traffic than whole-cache spill;
//! * `serve_kvcomp` (KV layouts and VEDA-style token eviction under a
//!   fixed budget): every keep ratio below 1 sheds fewer requests than the
//!   dense oracle in fewer bytes, and keep 1.0 reproduces the oracle;
//! * `serve_cluster` (session-pool sharding across simulated chips):
//!   sharding beats one chip on p95 latency, and NoC migration cuts the
//!   DRAM spill of sticky placement;
//! * `serve_hetero` (big/LITTLE fleets of equal compute): weighted
//!   placement beats round-robin on the mixed fleet's p95 latency;
//! * `plan_capacity` (the SLO-driven capacity planner): every plan is
//!   minimal, and the tight SLO needs a larger fleet than the loose one;
//! * `serve_disagg` (prefill/decode splits and speculative decoding):
//!   every split trades decode pace for TTFT, acceptance 1.0 reproduces
//!   the colocated baseline, and lower acceptance only slows it down;
//! * `serve_coldstart` (weight residency): streaming cold TTFT lands
//!   strictly between the resident and the sequential-load rung.

use crate::{Artifact, ReproContext};
use meadow_core::baselines::Baseline;
use meadow_core::capacity::{CapacityPlanner, PaletteMix, SloTarget};
use meadow_core::cluster::{
    Colocated, LeastLoadedKv, LeastLoadedWeighted, PrefillDecodeSplit, RoundRobin, SessionAffinity,
    ToLeastLoaded,
};
use meadow_core::report::{fmt_ms, Table};
use meadow_core::serve::{AdmissionPolicy, KvPolicy, ServeConfig, ServeReport, SpecDecode};
use meadow_core::spec::{ServeOutcome, ServeSpec, ServeSpecBuilder};
use meadow_core::{CoreError, EngineConfig};
use meadow_models::presets;
use meadow_models::workload::{ArrivalTrace, ServeRequest, ZipfLengths};
use meadow_models::{KvCompression, KvLayout, TransformerConfig};
use meadow_sim::TrafficClass;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MB: f64 = (1 << 20) as f64;
const KB: f64 = 1024.0;

/// A seed-pinned open-loop trace: `n` Poisson arrivals at `rate_per_sec`
/// with Zipf(1.1) prompt and generation lengths in the given inclusive
/// ranges (mostly short requests, a heavy tail of long ones), so each
/// artifact reproduces byte for byte.
fn zipf_trace(
    n: usize,
    rate_per_sec: f64,
    (prompt_min, prompt_max): (usize, usize),
    (generate_min, generate_max): (usize, usize),
    seed: u64,
) -> ArrivalTrace {
    let lengths = ZipfLengths { prompt_min, prompt_max, generate_min, generate_max, exponent: 1.1 };
    ArrivalTrace::open_loop(n, rate_per_sec, &lengths, &mut StdRng::seed_from_u64(seed))
        .expect("workload parameters are valid")
}

/// The budget rule: `num/den` of the trace's total peak KV demand on
/// `model`, but never below the largest request's peak, so every request
/// stays servable.
fn kv_budget(trace: &ArrivalTrace, model: &TransformerConfig, num: u64, den: u64) -> u64 {
    let single_max = trace.requests.iter().map(|r| r.peak_kv_bytes(model)).max().unwrap_or(0);
    (num * trace.total_peak_kv_bytes(model) / den).max(single_max)
}

/// Builds the MEADOW engine for `model` at 12 Gbps once, then builds and
/// runs each labelled spec on `trace` in order and unwraps its outcome
/// with `into` (the report shape every spec of the list selects).
fn sweep<L, R>(
    ctx: &ReproContext,
    model: &TransformerConfig,
    trace: &ArrivalTrace,
    into: fn(ServeOutcome) -> Option<R>,
    specs: Vec<(L, ServeSpecBuilder)>,
) -> Result<Vec<(L, R)>, CoreError> {
    let engine = ctx.engine(Baseline::Meadow, model, 12.0)?;
    let mut runs = Vec::with_capacity(specs.len());
    for (label, builder) in specs {
        let outcome = builder.build()?.run(&engine, trace)?;
        runs.push((label, into(outcome).expect("the spec selects this report shape")));
    }
    Ok(runs)
}

/// `serve`: p50/p95 latency, throughput, evictions and KV migration traffic
/// for FIFO vs LRU across KV budgets (unbounded / fit-all / constrained).
///
/// # Errors
///
/// Propagates engine and serving errors.
///
/// # Panics
///
/// Panics unless the constrained budget forces evictions and the fit-all
/// budget forces none — KV residency as the binding constraint is the
/// contract this artifact exists to demonstrate.
pub fn serve_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::opt_125m();
    // Staggered arrivals on the scale of OPT-125M decode steps (several
    // ms), mixing summarization-style requests (long prompt, short
    // generation) with chat-style ones (short prompt, long generation —
    // cheap to admit, but their KV caches grow several MB while resident,
    // which is what forces evictions under a tight budget).
    let trace = ArrivalTrace::new(vec![
        ServeRequest::new(0, 0.0, 256, 48),
        ServeRequest::new(1, 0.0, 16, 256),
        ServeRequest::new(2, 10.0, 8, 192),
        ServeRequest::new(3, 15.0, 256, 32),
        ServeRequest::new(4, 20.0, 24, 224),
        ServeRequest::new(5, 40.0, 96, 96),
        ServeRequest::new(6, 60.0, 12, 256),
        ServeRequest::new(7, 90.0, 224, 64),
    ]);
    let total_peak = trace.total_peak_kv_bytes(&model);
    // A third of total demand (but always one full session) forces the
    // scheduler to juggle residency.
    let constrained = kv_budget(&trace, &model, 1, 3);
    let budgets: [(&str, Option<u64>); 3] =
        [("unbounded", None), ("fit-all", Some(total_peak)), ("constrained", Some(constrained))];
    let mut specs = Vec::new();
    for policy in [KvPolicy::Fifo, KvPolicy::Lru] {
        for (label, budget) in budgets {
            let mut config = ServeConfig::default().with_policy(policy).with_max_batch(4);
            config.kv_budget_bytes = budget;
            specs.push(((policy, label, budget), ServeSpec::builder().config(config)));
        }
    }
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_single, specs)?;
    let mut table = Table::new([
        "policy",
        "budget",
        "budget_mb",
        "p50_ms",
        "p95_ms",
        "tok_per_s",
        "evictions",
        "peak_kv_mb",
        "kv_migration_mb",
    ]);
    let (mut constrained_evictions, mut fit_all_evictions, mut unbounded_tps) = (0, 0, 0.0);
    for ((policy, label, budget), report) in &runs {
        match *label {
            "constrained" => constrained_evictions += report.total_evictions,
            "fit-all" => fit_all_evictions += report.total_evictions,
            _ => unbounded_tps = report.tokens_per_sec,
        }
        table.row([
            format!("{policy:?}"),
            label.to_string(),
            budget.map_or("inf".to_string(), |b| format!("{:.1}", b as f64 / MB)),
            fmt_ms(report.p50_latency_ms),
            fmt_ms(report.p95_latency_ms),
            format!("{:.1}", report.tokens_per_sec),
            report.total_evictions.to_string(),
            format!("{:.2}", report.peak_kv_bytes as f64 / MB),
            format!("{:.2}", report.ledger.bytes(TrafficClass::KvCache) as f64 / MB),
        ]);
    }
    assert!(
        constrained_evictions > 0 && fit_all_evictions == 0,
        "the constrained budget must force evictions ({constrained_evictions}) that the fit-all \
         budget never needs ({fit_all_evictions})"
    );
    Ok(Artifact {
        id: "serve",
        paper_claim: "beyond the paper: VEDA/EdgeFlow-style multi-request serving — KV residency is the binding constraint on a fixed edge memory budget",
        table,
        notes: vec![
            format!(
                "8 requests, OPT-125M @ 12 Gbps, batch cap 4; constrained budget {:.1} MB of {:.1} MB total demand",
                constrained as f64 / MB,
                total_peak as f64 / MB
            ),
            format!(
                "unbounded-budget throughput {unbounded_tps:.1} tok/s; constrained run evicts {constrained_evictions} times (FIFO+LRU)"
            ),
        ],
    })
}

/// `serve_paged`: page-granular vs whole-cache eviction on an open-loop
/// workload — migration traffic, page-fault counts, fragmentation and
/// SLO-rejection behavior across admission policies.
///
/// # Errors
///
/// Propagates engine and serving errors.
///
/// # Panics
///
/// Panics unless, under the queueing admission, `PagedLru` moves strictly
/// fewer `TrafficClass::KvCache` bytes than whole-cache `Lru` under the
/// same budget (with both runs actually evicting) — that is the contract
/// this artifact exists to demonstrate.
pub fn serve_paged_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::opt_125m();
    let trace = zipf_trace(16, 40.0, (16, 256), (16, 192), 2025);
    // Two fifths of total demand (but always one full session) and a
    // tight batch cap: deep enough contention that both policies must
    // evict repeatedly, with enough idle residency that partial spills
    // pay off.
    let (budget, max_batch) = (kv_budget(&trace, &model, 2, 5), 2);
    let page_bytes = 64 << 10;
    let slo_ms = 400.0;
    let mut specs = Vec::new();
    for policy in [KvPolicy::Lru, KvPolicy::PagedLru] {
        for admission in
            [AdmissionPolicy::Queue, AdmissionPolicy::RejectAfter { ttft_slo_ms: slo_ms }]
        {
            let config = ServeConfig::default()
                .with_budget(budget)
                .with_policy(policy)
                .with_page_bytes(page_bytes)
                .with_max_batch(max_batch)
                .with_admission(admission);
            specs.push(((policy, admission), ServeSpec::builder().config(config)));
        }
    }
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_single, specs)?;
    let mut table = Table::new([
        "policy",
        "admission",
        "budget_mb",
        "p50_ms",
        "p95_ms",
        "tok_per_s",
        "evictions",
        "page_spills",
        "page_faults",
        "rejected",
        "kv_migration_mb",
        "frag_peak_kb",
    ]);
    for ((policy, admission), report) in &runs {
        table.row([
            format!("{policy:?}"),
            match admission {
                AdmissionPolicy::Queue => "queue".to_string(),
                AdmissionPolicy::RejectAfter { .. } => format!("slo{slo_ms:.0}ms"),
            },
            format!("{:.1}", budget as f64 / MB),
            fmt_ms(report.p50_latency_ms),
            fmt_ms(report.p95_latency_ms),
            format!("{:.1}", report.tokens_per_sec),
            report.total_evictions.to_string(),
            report.total_page_spills.to_string(),
            report.total_page_faults.to_string(),
            report.rejected_requests.to_string(),
            format!("{:.2}", report.ledger.bytes(TrafficClass::KvCache) as f64 / MB),
            format!("{:.1}", report.kv_frag_peak_bytes as f64 / KB),
        ]);
    }
    // The queueing rows: whole-cache, then paged.
    let [whole, _, paged, _] = [0, 1, 2, 3].map(|i| &runs[i].1);
    let whole_migration = whole.ledger.bytes(TrafficClass::KvCache);
    let paged_migration = paged.ledger.bytes(TrafficClass::KvCache);
    assert!(
        paged_migration < whole_migration,
        "paged KV migration {paged_migration} B must undercut whole-cache {whole_migration} B"
    );
    assert!(whole.total_evictions > 0, "the workload must exercise eviction");
    assert!(paged.total_page_spills > 0, "paged eviction must spill pages");
    Ok(Artifact {
        id: "serve_paged",
        paper_claim: "beyond the paper: vLLM/VEDA-style paged KV allocation — page-granular eviction moves less DRAM traffic than whole-cache spill under the same budget",
        table,
        notes: vec![
            format!(
                "16 open-loop requests (Poisson 40 req/s, Zipf lengths), OPT-125M @ 12 Gbps, batch cap {max_batch}, {} KiB pages",
                page_bytes >> 10
            ),
            format!(
                "KV migration under the queueing admission: whole-cache {:.2} MB vs paged {:.2} MB ({:.1}x less)",
                whole_migration as f64 / MB,
                paged_migration as f64 / MB,
                whole_migration as f64 / paged_migration as f64
            ),
        ],
    })
}

/// `serve_kvcomp`: token-level KV compression under a fixed dense-sized
/// budget — layout sharing (GQA, sliding window) and VEDA-style vote-based
/// token eviction at descending keep ratios, against the dense oracle.
/// Reports the capacity side (admissions, evictions, final KV bytes) and
/// the tail-latency side (p95) together with the retained attention mass,
/// the accuracy proxy each keep ratio trades away.
///
/// # Errors
///
/// Propagates engine and serving errors.
///
/// # Panics
///
/// Panics unless the dense oracle sheds load and every VEDA keep ratio
/// below 1 sheds strictly fewer requests, holds strictly fewer bytes than
/// the dense accounting of its own sessions and retains at least its keep
/// ratio of attention mass, while keep 1.0 reproduces the dense run
/// bit-exactly up to its KV summary — the contract this artifact exists
/// to demonstrate.
pub fn serve_kvcomp_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::opt_125m();
    let trace = zipf_trace(16, 80.0, (32, 256), (32, 192), 31_337);
    // The budget is the control variable: a quarter of total dense demand
    // (but always one full dense cache) for every row, so any extra
    // admissions or lower residency pressure are attributable to the
    // smaller per-token KV footprint alone.
    let (budget, max_batch) = (kv_budget(&trace, &model, 1, 4), 2);
    let points = [
        ("dense", KvLayout::Dense, KvCompression::None),
        ("gqa-4", KvLayout::GroupedHeads { kv_heads: 4 }, KvCompression::None),
        ("window-64+4", KvLayout::SlidingWindow { window: 64, sinks: 4 }, KvCompression::None),
        ("veda-1.00", KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 1.0 }),
        ("veda-0.75", KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 0.75 }),
        ("veda-0.50", KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 0.5 }),
        ("veda-0.25", KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 0.25 }),
    ];
    let specs = points
        .into_iter()
        .map(|(label, layout, compression)| {
            let config = ServeConfig::default()
                .with_budget(budget)
                .with_policy(KvPolicy::Lru)
                .with_max_batch(max_batch)
                .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 400.0 })
                .with_kv_layout(layout)
                .with_kv_compression(compression);
            ((label, compression), ServeSpec::builder().config(config))
        })
        .collect();
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_single, specs)?;
    let mut table = Table::new([
        "layout",
        "keep",
        "p50_ms",
        "p95_ms",
        "tok_per_s",
        "admitted",
        "rejected",
        "evictions",
        "final_kv_mb",
        "dense_kv_mb",
        "retained_mass",
    ]);
    let dense = &runs[0].1;
    let dense_bytes: u64 = dense.traces.iter().map(|t| t.final_kv_bytes).sum();
    let mut best = ("dense", u64::MAX, u64::MAX); // (label, rejected, final bytes)
    for ((label, compression), report) in &runs {
        let final_bytes: u64 = report.traces.iter().map(|t| t.final_kv_bytes).sum();
        let (dense_final, mass) = match report.kv {
            Some(kv) => (kv.dense_final_kv_bytes, kv.retained_attention_mass),
            None => (final_bytes, 1.0),
        };
        if report.rejected_requests < best.1
            || (report.rejected_requests == best.1 && final_bytes < best.2)
        {
            best = (label, report.rejected_requests, final_bytes);
        }
        let keep = match compression {
            KvCompression::VedaVote { keep_ratio } => format!("{keep_ratio:.2}"),
            KvCompression::None => "1.00".to_string(),
        };
        table.row([
            label.to_string(),
            keep,
            fmt_ms(report.p50_latency_ms),
            fmt_ms(report.p95_latency_ms),
            format!("{:.1}", report.tokens_per_sec),
            (report.requests as u64 - report.rejected_requests).to_string(),
            report.rejected_requests.to_string(),
            report.total_evictions.to_string(),
            format!("{:.2}", final_bytes as f64 / MB),
            format!("{:.2}", dense_final as f64 / MB),
            format!("{mass:.4}"),
        ]);
    }
    assert!(dense.rejected_requests > 0, "the dense oracle must be budget-bound");
    for ((label, compression), report) in &runs {
        let KvCompression::VedaVote { keep_ratio } = *compression else { continue };
        let kv = report.kv.expect("a compressed run attaches its KV summary");
        if keep_ratio == 1.0 {
            // The degeneracy point: identical scheduling, identical bytes;
            // only the (informational) KV summary differs.
            assert_eq!(kv.retained_attention_mass, 1.0, "{label}");
            assert_eq!(kv.final_kv_bytes, kv.dense_final_kv_bytes, "{label}");
            assert_eq!(&ServeReport { kv: None, ..report.clone() }, dense, "{label}");
            continue;
        }
        // More admitted sessions under the same budget (the sum of the
        // admitted traces' bytes is *not* comparable across the runs —
        // the compressed run completes sessions the dense one shed), in
        // strictly fewer bytes than the dense accounting of the *same*
        // admitted sessions.
        assert!(
            report.rejected_requests < dense.rejected_requests,
            "{label}: rejected {} !< dense {}",
            report.rejected_requests,
            dense.rejected_requests
        );
        assert!(
            kv.final_kv_bytes < kv.dense_final_kv_bytes,
            "{label}: compressed bytes {} !< dense accounting {}",
            kv.final_kv_bytes,
            kv.dense_final_kv_bytes
        );
        let mass = kv.retained_attention_mass;
        assert!(mass < 1.0 && mass >= keep_ratio * (1.0 - 1e-9), "{label}: retained mass {mass}");
    }
    Ok(Artifact {
        id: "serve_kvcomp",
        paper_claim: "beyond the paper: VEDA-style token-level KV compression — dropping low-vote tokens shrinks per-session KV residency, so a fixed budget admits more sessions and evicts less, at a measured retained-attention-mass cost",
        table,
        notes: vec![
            format!(
                "16 open-loop requests (Poisson 80 req/s, Zipf lengths), OPT-125M @ 12 Gbps, batch cap {max_batch}, fixed budget {:.1} MB, TTFT SLO 400 ms",
                budget as f64 / MB
            ),
            format!(
                "dense oracle: {} rejected, {:.2} MB final KV; best sweep point {} ({} rejected, {:.2} MB)",
                dense.rejected_requests,
                dense_bytes as f64 / MB,
                best.0,
                best.1,
                best.2 as f64 / MB
            ),
        ],
    })
}

/// `serve_cluster`: session-pool sharding across 4 simulated chips —
/// placement policies (round-robin vs least-loaded vs sticky affinity)
/// against the single-chip baseline, and NoC-charged cross-chip KV
/// migration vs DRAM spill under the same per-chip budget.
///
/// # Errors
///
/// Propagates engine, cluster-construction and serving errors.
///
/// # Panics
///
/// Panics unless least-loaded sharding across 4 chips beats one chip on
/// p95 latency under the same per-chip budget, and, under sticky affinity,
/// NoC migration fires and strictly cuts the DRAM KV spill while serving
/// every token — the contract this artifact exists to demonstrate.
pub fn serve_cluster_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::opt_125m();
    // 5 sticky "users" (affinity hints `id % 5` — the multi-turn
    // conversations `SessionAffinity` keeps chip-local).
    let mut trace = zipf_trace(24, 60.0, (16, 256), (16, 192), 4242);
    for r in &mut trace.requests {
        *r = r.with_affinity(r.id % 5);
    }
    // A sixth of total demand (but always one full session), so
    // affinity-skewed chips overflow while balanced ones keep headroom.
    let budget = kv_budget(&trace, &model, 1, 6);
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(64 << 10)
        .with_max_batch(2);
    let chips = |n: usize| ServeSpec::builder().chips(n).config(config);
    let specs = vec![
        (1, chips(1).placement(RoundRobin)),
        (4, chips(4).placement(RoundRobin)),
        (4, chips(4).placement(LeastLoadedKv)),
        (4, chips(4).placement(SessionAffinity)),
        (4, chips(4).placement(LeastLoadedKv).migration(ToLeastLoaded)),
        (4, chips(4).placement(SessionAffinity).migration(ToLeastLoaded)),
    ];
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_cluster, specs)?;
    let mut table = Table::new([
        "chips",
        "placement",
        "migration",
        "p50_ms",
        "p95_ms",
        "tok_per_s",
        "evictions",
        "imbalance",
        "dram_kv_mb",
        "migrated_mb",
        "noc_link_mb",
    ]);
    for (chips, report) in &runs {
        let evictions: u64 = report.per_chip.iter().map(|c| c.report.total_evictions).sum();
        table.row([
            chips.to_string(),
            report.placement.clone(),
            report.migration.clone(),
            fmt_ms(report.p50_latency_ms),
            fmt_ms(report.p95_latency_ms),
            format!("{:.1}", report.tokens_per_sec),
            evictions.to_string(),
            format!("{:.2}", report.kv_imbalance),
            format!("{:.2}", report.dram_kv_bytes as f64 / MB),
            format!("{:.2}", report.migrated_out_bytes as f64 / MB),
            format!("{:.2}", report.noc_link_bytes as f64 / MB),
        ]);
    }
    let [single, _, sharded, sticky, _, migrated] = [0, 1, 2, 3, 4, 5].map(|i| &runs[i].1);
    assert!(
        sharded.p95_latency_ms < single.p95_latency_ms,
        "sharded p95 {} !< single-chip p95 {}",
        sharded.p95_latency_ms,
        single.p95_latency_ms
    );
    assert!(sticky.dram_kv_bytes > 0, "the workload must spill under affinity skew");
    assert!(migrated.migrated_out_bytes > 0, "migration must fire");
    assert!(
        migrated.dram_kv_bytes < sticky.dram_kv_bytes,
        "migration spill {} !< no-migration spill {}",
        migrated.dram_kv_bytes,
        sticky.dram_kv_bytes
    );
    assert_eq!(migrated.total_generated_tokens, sticky.total_generated_tokens);
    let sharded_p95 =
        runs[1..4].iter().map(|(_, r)| r.p95_latency_ms).fold(f64::INFINITY, f64::min);
    Ok(Artifact {
        id: "serve_cluster",
        paper_claim: "beyond the paper: EdgeProfiler-style multi-chip serving — sharding the session pool relieves the per-chip KV budget, and NoC migration to underloaded chips replaces DRAM spill",
        table,
        notes: vec![
            format!(
                "24 open-loop requests (Poisson 60 req/s, Zipf lengths, 5 sticky users), OPT-125M @ 12 Gbps, per-chip budget {:.1} MB, 64 KiB pages",
                budget as f64 / MB
            ),
            format!(
                "p95 latency: 1 chip {:.1} ms vs best 4-chip placement {:.1} ms ({:.1}x)",
                single.p95_latency_ms,
                sharded_p95,
                single.p95_latency_ms / sharded_p95
            ),
            format!(
                "sticky-affinity DRAM KV traffic (spill+reload): {:.2} MB without migration vs {:.2} MB with ({:.2} MB rerouted over the NoC)",
                sticky.dram_kv_bytes as f64 / MB,
                migrated.dram_kv_bytes as f64 / MB,
                migrated.migrated_out_bytes as f64 / MB
            ),
        ],
    })
}

/// `serve_hetero`: heterogeneous big/LITTLE serving — a homogeneous
/// three-big-chip fleet against a 2 big + 2 LITTLE fleet with the *same
/// total compute*, under speed-oblivious round-robin and throughput-aware
/// weighted placement. On the mixed fleet, weighted placement must beat
/// round-robin on p95 latency: round-robin hands the LITTLE chips as many
/// sessions as the big ones and the tail forms there.
///
/// # Errors
///
/// Propagates engine, cluster-construction and serving errors.
///
/// # Panics
///
/// Panics if weighted placement fails to beat round-robin on the mixed
/// fleet's p95 latency, if the two placements serve different token
/// counts there, or if a chip reports no utilization or one outside
/// `[0, 1]` — the contract this artifact exists to demonstrate.
pub fn serve_hetero_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    // The tiny model keeps the artifact fast: every fleet builds one
    // engine per chip spec, so the packing-stat cost scales with fleet
    // size — and the placement contract this artifact pins is
    // model-independent. Steps are tens of microseconds, so the Poisson
    // rate is scaled to keep a queue resident.
    let model = presets::tiny_decoder();
    let trace = zipf_trace(24, 2_000.0, (8, 32), (4, 16), 9090);
    let budget = kv_budget(&trace, &model, 1, 4);
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    // Equal total compute: three big chips (96 PEs @ 12 Gbps each) against
    // two big plus two LITTLE chips (48 PEs @ 6 Gbps each) — 3 × 614.4
    // GMACs = 2 × 614.4 + 2 × 307.2.
    let big = EngineConfig::zcu102(model.clone(), 12.0);
    let little = EngineConfig::zcu102_little(model.clone(), 6.0);
    let fleets = [
        ("3xbig", vec![big.clone(), big.clone(), big.clone()]),
        ("2big+2little", vec![big.clone(), big, little.clone(), little]),
    ];
    let mut specs = Vec::new();
    for (name, fleet) in fleets {
        let spec = || ServeSpec::builder().chip_specs(fleet.clone()).config(config);
        specs.push((name, spec().placement(RoundRobin)));
        specs.push((name, spec().placement(LeastLoadedWeighted)));
    }
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_cluster, specs)?;
    let mut table = Table::new([
        "fleet",
        "placement",
        "p50_ms",
        "p95_ms",
        "tok_per_s",
        "imbalance",
        "util_min",
        "util_max",
        "evictions",
    ]);
    for (fleet, report) in &runs {
        let utils: Vec<f64> = report
            .per_chip
            .iter()
            .map(|c| c.utilization.expect("fleet runs attach per-chip utilization"))
            .collect();
        assert!(utils.iter().all(|u| (0.0..=1.0).contains(u)), "{fleet} utilization {utils:?}");
        let util_min = utils.iter().copied().fold(f64::INFINITY, f64::min);
        let util_max = utils.iter().copied().fold(0.0f64, f64::max);
        let evictions: u64 = report.per_chip.iter().map(|c| c.report.total_evictions).sum();
        table.row([
            fleet.to_string(),
            report.placement.clone(),
            fmt_ms(report.p50_latency_ms),
            fmt_ms(report.p95_latency_ms),
            format!("{:.1}", report.tokens_per_sec),
            format!("{:.2}", report.kv_imbalance),
            format!("{util_min:.2}"),
            format!("{util_max:.2}"),
            evictions.to_string(),
        ]);
    }
    let [big_rr, big_weighted, mixed_rr, mixed_weighted] = [0, 1, 2, 3].map(|i| &runs[i].1);
    assert!(
        mixed_weighted.p95_latency_ms < mixed_rr.p95_latency_ms,
        "weighted placement p95 {} must beat round-robin p95 {} on the mixed fleet",
        mixed_weighted.p95_latency_ms,
        mixed_rr.p95_latency_ms
    );
    assert_eq!(mixed_weighted.total_generated_tokens, mixed_rr.total_generated_tokens);
    let homogeneous_p95 = big_rr.p95_latency_ms.min(big_weighted.p95_latency_ms);
    Ok(Artifact {
        id: "serve_hetero",
        paper_claim: "beyond the paper: big/LITTLE heterogeneous serving — at equal total compute, speed-oblivious round-robin lets the tail form on the slow chips; throughput-weighted placement reclaims it",
        table,
        notes: vec![
            format!(
                "24 open-loop requests (Poisson 2000 req/s, Zipf lengths), tiny decoder, per-chip budget {:.1} KB; fleets hold total compute fixed (3 x 614.4 GMACs vs 2 x 614.4 + 2 x 307.2)",
                budget as f64 / KB
            ),
            format!(
                "mixed-fleet p95: round-robin {} vs weighted {} ({:.2}x); best homogeneous p95 {}",
                fmt_ms(mixed_rr.p95_latency_ms),
                fmt_ms(mixed_weighted.p95_latency_ms),
                mixed_rr.p95_latency_ms / mixed_weighted.p95_latency_ms,
                fmt_ms(homogeneous_p95)
            ),
        ],
    })
}

/// The `plan_capacity` SLO ladder: p95 TTFT targets from tight to loose,
/// in milliseconds on the tiny decoder's microsecond-scale steps. The
/// tight point sits between the one-chip and two-chip p95 on the artifact
/// workload, so it genuinely forces fleet growth; the loose point is met
/// by a single chip.
const PLAN_CAPACITY_SLOS: [f64; 2] = [0.1, 0.2];

/// `plan_capacity`: the capacity planner sizing the minimal fleet for
/// each point of an SLO ladder, over a homogeneous big-chip palette and a
/// big/LITTLE mix. Every row re-asserts the planner's minimality contract
/// in the artifact itself: the chosen fleet meets the SLO and the
/// fleet-minus-one probe on its ladder misses it.
///
/// # Errors
///
/// Propagates engine, planner and serving errors.
///
/// # Panics
///
/// Panics if a plan violates the minimality contract, or if the tight SLO
/// point fails to require a larger fleet than the loose one — those are
/// the properties this artifact exists to demonstrate.
pub fn plan_capacity_artifact(_ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::tiny_decoder();
    // A rate that overloads a single chip, so the SLO ladder genuinely
    // forces fleet growth.
    let trace = zipf_trace(32, 50_000.0, (8, 32), (4, 16), 31337);
    let mixes = [
        PaletteMix::new("big", vec![EngineConfig::zcu102(model.clone(), 12.0)]),
        PaletteMix::new(
            "big-little",
            vec![
                EngineConfig::zcu102(model.clone(), 12.0),
                EngineConfig::zcu102_little(model.clone(), 6.0),
            ],
        ),
    ];
    let mut table = Table::new([
        "slo_p95_ttft_ms",
        "mix",
        "chips",
        "fleet",
        "p95_ttft_ms",
        "margin_ms",
        "rejected_frac",
        "probes",
    ]);
    let mut chips_at = Vec::new(); // (slo, minimal chips across mixes)
    for slo_ms in PLAN_CAPACITY_SLOS {
        let slo = SloTarget { p95_ttft_ms: slo_ms, max_rejected_fraction: None };
        let planner =
            CapacityPlanner::new(ServeConfig::default().with_max_batch(2), slo).max_chips(8);
        let plan = planner.plan(&trace, &mixes)?;
        let mut min_chips = usize::MAX;
        for mix_plan in &plan.plans {
            assert!(
                mix_plan.p95_ttft_ms <= slo_ms,
                "plan for {} at SLO {slo_ms} ms misses it: p95 {} ms",
                mix_plan.mix,
                mix_plan.p95_ttft_ms
            );
            if mix_plan.chips > 1 {
                let below = mix_plan
                    .probes
                    .iter()
                    .find(|p| p.chips == mix_plan.chips - 1)
                    .expect("the ladder records the fleet-minus-one probe");
                assert!(
                    !below.meets_slo,
                    "fleet-minus-one ({} chips of {}) must miss SLO {slo_ms} ms",
                    below.chips, mix_plan.mix
                );
            }
            min_chips = min_chips.min(mix_plan.chips);
            table.row([
                format!("{slo_ms:.1}"),
                mix_plan.mix.clone(),
                mix_plan.chips.to_string(),
                mix_plan.fleet.join("+"),
                fmt_ms(mix_plan.p95_ttft_ms),
                fmt_ms(mix_plan.slo_margin_ms),
                format!("{:.2}", mix_plan.rejected_fraction),
                mix_plan.probes.len().to_string(),
            ]);
        }
        chips_at.push((slo_ms, min_chips));
    }
    let (tight, loose) = (chips_at[0].1, chips_at[chips_at.len() - 1].1);
    assert!(
        tight > loose,
        "the tight SLO point must need a larger fleet: {tight} chips !> {loose}"
    );
    Ok(Artifact {
        id: "plan_capacity",
        paper_claim: "beyond the paper: SLO-driven capacity planning — binary-search the minimal chip fleet whose simulated p95 TTFT meets each SLO point, with the fleet-minus-one probe pinning minimality",
        table,
        notes: vec![
            "32 open-loop requests (Poisson 50000 req/s, Zipf lengths), tiny decoder, batch cap 2, weighted placement; planner caps the search at 8 chips".to_string(),
            format!(
                "minimal fleet: {} chips at the {:.1} ms SLO vs {} at {:.1} ms — every row's ladder shows fleet-minus-one missing",
                tight,
                chips_at[0].0,
                loose,
                chips_at[chips_at.len() - 1].0
            ),
        ],
    })
}

/// `serve_disagg`: prefill/decode disaggregation on a 4-chip cluster
/// under heavy Poisson load — colocated serving vs 1+3 and 2+2
/// prefill/decode splits (the TTFT / decode-pace trade-off, with the KV
/// handoff charged on the NoC), plus a speculative-decoding acceptance
/// sweep on the colocated baseline.
///
/// # Errors
///
/// Propagates engine, cluster-construction and serving errors.
///
/// # Panics
///
/// Panics unless every split hands off every request, beats colocated
/// serving on p95 TTFT and is strictly slower in p95 decode pace while
/// serving every token, and unless speculation at acceptance 1.0
/// reproduces the colocated report bit-exactly and lower acceptance never
/// shortens the makespan — the contract this artifact exists to
/// demonstrate.
pub fn serve_disagg_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::opt_125m();
    // Heavy load (150 req/s — arrivals far outpace service) with
    // decode-heavy lengths (every request generates at least 96 tokens).
    // Long mandatory generations under a contended KV budget are what make
    // phase placement matter: on a colocated chip every resident decode
    // holds its cache for hundreds of milliseconds, so freshly arrived
    // prompts block at admission and TTFT balloons; a dedicated prefill
    // pool releases each prompt's KV the moment it is computed and drains
    // arrivals as fast as it can prefill them, and the decode pool pays
    // for it in pace.
    let trace = zipf_trace(24, 150.0, (32, 192), (96, 256), 777);
    // A contended per-chip KV budget of one peak cache (the budget rule's
    // floor; ~2 resident peak caches) is what makes phase placement
    // matter: on a colocated chip admission blocks while long decodes hold
    // their KV, whereas prefill-only legs release theirs the moment the
    // prompt is computed.
    let config =
        ServeConfig::default().with_budget(kv_budget(&trace, &model, 0, 1)).with_max_batch(2);
    let four = |config: ServeConfig| ServeSpec::builder().chips(4).config(config);
    let mut specs = vec![
        (("colocated", None), four(config).phases(Colocated)),
        (("split-1+3", None), four(config).phases(PrefillDecodeSplit { prefill_chips: 1 })),
        (("split-2+2", None), four(config).phases(PrefillDecodeSplit { prefill_chips: 2 })),
    ];
    for acceptance in [1.0, 0.8, 0.5] {
        let spec = SpecDecode { draft_len: 4, acceptance, draft_cost_ratio: 0.5 };
        specs.push((
            ("colocated", Some(spec)),
            four(config.with_speculation(spec)).phases(Colocated),
        ));
    }
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_disaggregated, specs)?;
    let mut table = Table::new([
        "mode",
        "spec_accept",
        "p50_ttft_ms",
        "p95_ttft_ms",
        "p50_tbt_ms",
        "p95_tbt_ms",
        "makespan_ms",
        "tok_per_s",
        "split_reqs",
        "handoff_mb",
        "noc_link_mb",
    ]);
    for ((mode, spec), report) in &runs {
        table.row([
            mode.to_string(),
            spec.map_or("off".to_string(), |s| format!("{:.1}", s.acceptance)),
            fmt_ms(report.p50_ttft_ms),
            fmt_ms(report.p95_ttft_ms),
            fmt_ms(report.p50_tbt_ms),
            fmt_ms(report.p95_tbt_ms),
            fmt_ms(report.makespan_ms),
            format!("{:.1}", report.tokens_per_sec),
            report.split_requests.to_string(),
            format!("{:.2}", report.handoff.handoff_bytes as f64 / MB),
            format!("{:.2}", report.handoff.noc_link_bytes as f64 / MB),
        ]);
    }
    let colocated = &runs[0].1;
    let splits = || runs[1..3].iter().map(|(_, r)| r);
    for ((mode, _), split) in &runs[1..3] {
        assert_eq!(split.split_requests as usize, trace.requests.len(), "{mode}");
        assert!(split.handoff.handoff_bytes > 0, "{mode} must hand KV off");
        assert!(
            split.p95_ttft_ms < colocated.p95_ttft_ms,
            "{mode} p95 TTFT {} !< colocated {}",
            split.p95_ttft_ms,
            colocated.p95_ttft_ms
        );
        assert!(
            split.p95_tbt_ms > colocated.p95_tbt_ms,
            "{mode} p95 decode pace {} !> colocated {}",
            split.p95_tbt_ms,
            colocated.p95_tbt_ms
        );
        assert_eq!(split.total_generated_tokens, colocated.total_generated_tokens, "{mode}");
    }
    assert_eq!(&runs[3].1, colocated, "speculation at acceptance 1.0 must reproduce the baseline");
    let makespans: Vec<f64> = runs[3..].iter().map(|(_, r)| r.makespan_ms).collect();
    assert!(
        makespans.windows(2).all(|w| w[0] <= w[1]),
        "lower acceptance must never shorten the makespan: {makespans:?}"
    );
    let best_split_ttft = splits().map(|r| r.p95_ttft_ms).fold(f64::INFINITY, f64::min);
    let worst_split_pace = splits().map(|r| r.p95_tbt_ms).fold(0.0f64, f64::max);
    Ok(Artifact {
        id: "serve_disagg",
        paper_claim: "beyond the paper: DistServe/Splitwise-style prefill-decode disaggregation — a dedicated prefill pool cuts tail TTFT under heavy load, paying for it in decode pace (KV handoff over the NoC plus a smaller decode pool)",
        table,
        notes: vec![
            "24 open-loop requests (Poisson 150 req/s, decode-heavy Zipf lengths), OPT-125M @ 12 Gbps, 4 chips, batch cap 2, per-chip KV budget = one peak cache".to_string(),
            format!(
                "p95 TTFT: colocated {:.1} ms vs best split {:.1} ms ({:.1}x); p95 decode pace: colocated {:.2} ms/tok vs worst split {:.2} ms/tok",
                colocated.p95_ttft_ms,
                best_split_ttft,
                colocated.p95_ttft_ms / best_split_ttft,
                colocated.p95_tbt_ms,
                worst_split_pace
            ),
            "speculation rows: acceptance 1.0 reproduces the baseline bit-exactly; lower acceptance pays the draft-flush penalty in decode pace".to_string(),
        ],
    })
}

/// `serve_coldstart`: the cold-start TTFT ladder — a permanently-resident
/// chip vs a cold chip loading all weights up front vs a cold chip
/// streaming per-layer loads overlapped with compute (EdgeFlow-style:
/// cold TTFT ≈ max(load pipeline, compute pipeline) instead of their
/// sum).
///
/// # Errors
///
/// Propagates engine and serving errors.
///
/// # Panics
///
/// Panics if the TTFT ladder inverts (streaming must land strictly
/// between the resident and the sequential-load rung), or unless both
/// cold modes load the full model once, move identical weight bytes and
/// serve only request 0 cold — the contract this artifact exists to
/// demonstrate.
pub fn serve_coldstart_artifact(ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let model = presets::opt_125m();
    // One summarization-style request at t=0 hits a cold chip; four
    // chat-style requests arrive after the weight load has drained, so
    // they prefill against a warm chip. The ladder compares request 0's
    // TTFT across residency modes; the late arrivals pin the warm class
    // inside the same budgeted run.
    let trace = ArrivalTrace::new(vec![
        ServeRequest::new(0, 0.0, 256, 48),
        ServeRequest::new(1, 150.0, 16, 64),
        ServeRequest::new(2, 160.0, 8, 48),
        ServeRequest::new(3, 175.0, 24, 56),
        ServeRequest::new(4, 190.0, 12, 64),
    ]);
    let weight_budget = model.total_weight_bytes();
    let resident = ServeConfig::default().with_max_batch(4);
    let cold =
        |streaming| resident.with_weight_budget(weight_budget).with_weight_streaming(streaming);
    let specs = vec![
        ("resident", ServeSpec::builder().config(resident)),
        ("cold-sequential", ServeSpec::builder().config(cold(false))),
        ("cold-streaming", ServeSpec::builder().config(cold(true))),
    ];
    let runs = sweep(ctx, &model, &trace, ServeOutcome::into_single, specs)?;
    let mut table = Table::new([
        "mode",
        "cold_ttft_ms",
        "warm_p50_ttft_ms",
        "weight_mb",
        "weight_loads",
        "cold_requests",
    ]);
    for (label, report) in &runs {
        // Request 0 is the ladder rung; the late arrivals are the warm
        // class in every mode (the resident run is all-warm by definition).
        let mut warm: Vec<f64> = report.traces[1..].iter().map(|t| t.ttft_ms()).collect();
        warm.sort_by(f64::total_cmp);
        let (loads, cold_requests) =
            report.weights.map_or((0, 0), |w| (w.weight_loads, w.cold_requests));
        table.row([
            label.to_string(),
            fmt_ms(report.traces[0].ttft_ms()),
            fmt_ms(warm[warm.len() / 2]),
            format!("{:.1}", report.ledger.bytes(TrafficClass::Weights) as f64 / MB),
            loads.to_string(),
            cold_requests.to_string(),
        ]);
    }
    let [warm, sequential, streamed] = [0, 1, 2].map(|i| runs[i].1.traces[0].ttft_ms());
    assert!(
        warm < streamed && streamed < sequential,
        "the cold-start ladder must order warm {warm} < streamed {streamed} < sequential \
         {sequential}"
    );
    for (label, report) in &runs[1..] {
        let weights = report.weights.expect("budgeted runs attach a weight summary");
        assert_eq!(weights.cold_requests, 1, "{label}: only request 0 hits the cold chip");
        assert_eq!(weights.weight_bytes, weight_budget, "{label}: one full-model load");
    }
    // Overlap hides latency; it never skips traffic.
    let weight_traffic = |i: usize| runs[i].1.ledger.bytes(TrafficClass::Weights);
    assert_eq!(weight_traffic(1), weight_traffic(2), "both cold modes move the same weight bytes");
    Ok(Artifact {
        id: "serve_coldstart",
        paper_claim: "beyond the paper: EdgeFlow-style pipelined weight streaming — overlapping each layer's load with the previous layer's compute makes cold-start TTFT max(load, compute) instead of load + compute",
        table,
        notes: vec![
            format!(
                "OPT-125M @ 12 Gbps, {:.1} MB of weights; chips start cold when a weight budget is set, and prefill may begin once layer 0 lands",
                weight_budget as f64 / MB
            ),
            format!(
                "request 0 TTFT: resident {}, streaming-overlap {}, sequential load {} — overlap hides {:.1}% of the full-load stall",
                fmt_ms(warm),
                fmt_ms(streamed),
                fmt_ms(sequential),
                100.0 * (sequential - streamed) / (sequential - warm)
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Runs an artifact, which asserts its own contract, and compares its
    /// CSV with the bytes recorded under `tests/golden/repro/`. After an
    /// intentional change, regenerate with
    /// `MEADOW_UPDATE_GOLDEN=1 cargo test -p meadow-bench --lib figs_serve`.
    fn assert_csv_golden(generate: fn(&ReproContext) -> Result<Artifact, CoreError>) {
        let artifact = generate(&ReproContext::new()).unwrap();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro");
        let path = artifact.csv_path(&dir);
        if std::env::var_os("MEADOW_UPDATE_GOLDEN").is_some() {
            artifact.table.write_csv(&path).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        assert_eq!(artifact.table.to_csv(), want, "{} diverged from its golden CSV", artifact.id);
    }

    #[test]
    fn serve_artifact_generates() {
        assert_csv_golden(serve_artifact);
    }

    #[test]
    fn serve_paged_artifact_generates() {
        assert_csv_golden(serve_paged_artifact);
    }

    #[test]
    fn serve_kvcomp_artifact_generates() {
        assert_csv_golden(serve_kvcomp_artifact);
    }

    #[test]
    fn serve_cluster_artifact_generates() {
        assert_csv_golden(serve_cluster_artifact);
    }

    #[test]
    fn serve_hetero_artifact_generates() {
        assert_csv_golden(serve_hetero_artifact);
    }

    #[test]
    fn plan_capacity_artifact_generates() {
        assert_csv_golden(plan_capacity_artifact);
    }

    #[test]
    fn serve_disagg_artifact_generates() {
        assert_csv_golden(serve_disagg_artifact);
    }

    #[test]
    fn serve_coldstart_artifact_generates() {
        assert_csv_golden(serve_coldstart_artifact);
    }
}
