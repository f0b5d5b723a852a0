//! Golden-report suite: six serving scenarios must produce byte-stable
//! reports, so scheduler refactors cannot silently change serving numbers.
//! Every scenario serves the pinned 8-request trace on the tiny-decoder
//! ZCU102 engine and compares its serialized report with a snapshot under
//! `tests/golden/`: whole-cache (`serve_zcu102.json`), paged with load
//! shedding (`serve_paged_zcu102.json`), grouped-heads + VEDA compression
//! (`serve_kvcomp_zcu102.json`), multi-model weight streaming
//! (`serve_multimodel_zcu102.json`), the 2-chip migration cluster
//! (`cluster_zcu102.json`) and the big/LITTLE migration cluster
//! (`serve_hetero_zcu102.json`).
//!
//! The whole pipeline is deterministic integer-cycle arithmetic converted
//! to f64 at fixed points, and the vendored serde_json prints floats with
//! Rust's shortest round-trip formatting — so the serialized report is
//! stable down to the byte. To refresh the snapshots after an *intentional*
//! change:
//!
//! ```sh
//! MEADOW_UPDATE_GOLDEN=1 cargo test --test serve_golden
//! ```

mod common;

use common::{golden_trace, serve, spread_models, tiny_engine};
use meadow::core::cluster::{ClusterReport, LeastLoadedWeighted, SessionAffinity, ToLeastLoaded};
use meadow::core::serve::{AdmissionPolicy, KvPolicy, ServeConfig};
use meadow::core::spec::{ServeSpec, ServeSpecBuilder};
use meadow::core::EngineConfig;
use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ServeRequest};
use meadow::models::{KvCompression, KvLayout};
use std::path::PathBuf;

/// Compares a serialized report with the committed snapshot `name`, or
/// rewrites the snapshot under `MEADOW_UPDATE_GOLDEN=1`.
fn assert_byte_stable(name: &str, json: String) {
    let got = json + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var_os("MEADOW_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "the report diverged from the committed snapshot {name}; if the change is \
         intentional, regenerate with MEADOW_UPDATE_GOLDEN=1 cargo test --test serve_golden"
    );
}

/// KV room for `num/den` peak caches of the trace's largest session.
fn peak_caches(num: u64, den: u64) -> u64 {
    num * ServeRequest::new(0, 0.0, 31, 2).peak_kv_bytes(&presets::tiny_decoder()) / den
}

/// Runs a cluster-mode spec on `trace`.
fn serve_cluster(spec: ServeSpecBuilder, trace: &ArrivalTrace) -> ClusterReport {
    let outcome = spec.build().unwrap().run(&tiny_engine(), trace).unwrap();
    outcome.into_cluster().expect("a cluster-mode spec")
}

/// The whole-cache scenario: a budget sized to force evictions and a batch
/// cap so the scheduler exercises idle-resident sessions.
#[test]
fn serve_report_is_byte_stable() {
    // Room for ~2 peak sessions: admission, eviction and reload all fire.
    let config = ServeConfig::default()
        .with_budget(peak_caches(2, 1))
        .with_policy(KvPolicy::Fifo)
        .with_max_batch(4);
    let report = serve(&tiny_engine(), &golden_trace(), &config).unwrap();
    assert!(report.total_evictions > 0, "the golden scenario must exercise eviction");
    assert_byte_stable("serve_zcu102.json", report.to_json().unwrap());
}

/// The paged scenario: `PagedLru` with small pages, a tighter budget and
/// SLO-aware admission, so page spills, faults, fragmentation accounting
/// and rejection all land in the snapshot.
#[test]
fn paged_serve_report_is_byte_stable() {
    // 1.5 peak sessions of room: page spills, faults, fragmentation and at
    // least one SLO rejection all fire on this trace.
    let config = ServeConfig::default()
        .with_budget(peak_caches(3, 2))
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(4)
        .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.4 });
    let report = serve(&tiny_engine(), &golden_trace(), &config).unwrap();
    assert!(report.total_page_spills > 0, "the paged scenario must peel pages");
    assert!(report.rejected_requests > 0, "the paged scenario must shed load");
    assert_byte_stable("serve_paged_zcu102.json", report.to_json().unwrap());
}

/// The compression scenario: a grouped-heads layout *and* VEDA token
/// eviction, with whole-cache LRU and SLO-aware admission — the `kv`
/// summary block (layout, compression, retained attention mass,
/// dense-vs-actual bytes) and the compressed per-trace byte accounting all
/// land in the snapshot.
#[test]
fn kvcomp_serve_report_is_byte_stable() {
    // Compressed sessions are roughly a quarter the dense size (half the
    // KV heads, half the tokens kept), so half a dense peak cache holds
    // about two of them: eviction and reload still churn at the
    // compressed scale.
    let config = ServeConfig::default()
        .with_budget(peak_caches(1, 2))
        .with_policy(KvPolicy::Lru)
        .with_max_batch(4)
        .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.4 })
        .with_kv_layout(KvLayout::GroupedHeads { kv_heads: 2 })
        .with_kv_compression(KvCompression::VedaVote { keep_ratio: 0.5 });
    let report = serve(&tiny_engine(), &golden_trace(), &config).unwrap();
    assert!(report.total_evictions > 0, "the compressed scenario must exercise eviction");
    let kv = report.kv.expect("a non-dense run attaches its KV summary");
    assert!(kv.final_kv_bytes < kv.dense_final_kv_bytes, "compression must shrink the snapshot");
    assert!(kv.retained_attention_mass < 1.0);
    assert_byte_stable("serve_kvcomp_zcu102.json", report.to_json().unwrap());
}

/// The multi-model scenario: the trace split across 2 models churning
/// under a one-model weight budget with streaming overlap, so cold starts,
/// per-layer load pipelining, LRU model eviction and the cold/warm TTFT
/// split all land in the snapshot.
#[test]
fn multimodel_serve_report_is_byte_stable() {
    // Room for exactly one model's weights: every model switch evicts the
    // resident model and re-streams the other.
    let config = ServeConfig::default()
        .with_weight_budget(presets::tiny_decoder().total_weight_bytes())
        .with_weight_streaming(true)
        .with_max_batch(4);
    let report = serve(&tiny_engine(), &spread_models(golden_trace(), 2), &config).unwrap();
    let weights = report.weights.expect("a budgeted run attaches its weight summary");
    assert_eq!(weights.models, 2);
    assert!(weights.weight_evictions > 0, "a one-model budget must churn");
    assert!(weights.cold_requests > 0, "the scenario must exercise cold starts");
    assert!(
        weights.cold_ttft.p50_ms > weights.warm_ttft.p50_ms,
        "cold starts must cost TTFT in the snapshot"
    );
    assert_byte_stable("serve_multimodel_zcu102.json", report.to_json().unwrap());
}

/// The cluster scenario: sticky affinity hints skew 6 of 8 requests onto
/// chip 0 of a 2-chip cluster, paged eviction runs under a tight budget,
/// and NoC migration moves into chip 1's headroom — placement, eviction,
/// page-granular migration, remote reload *and* residual DRAM spill (the
/// headroom is smaller than the spill demand) all land in the snapshot.
#[test]
fn cluster_report_is_byte_stable() {
    let mut trace = golden_trace();
    for r in &mut trace.requests {
        *r = r.with_affinity(u32::from(r.id >= 6));
    }
    let config = ServeConfig::default()
        .with_budget(6144)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    let spec = ServeSpec::builder()
        .chips(2)
        .config(config)
        .placement(SessionAffinity)
        .migration(ToLeastLoaded);
    let report = serve_cluster(spec, &trace);
    assert!(report.migration_events > 0, "the golden scenario must exercise migration");
    assert!(report.dram_kv_bytes > 0, "the golden scenario must still spill");
    assert_byte_stable("cluster_zcu102.json", report.to_json().unwrap());
}

/// The heterogeneous scenario: two fast ZCU102 chips and one LITTLE chip
/// (half the PEs, half the bandwidth) under a constrained paged budget,
/// with weighted placement skewing load toward the fast chips and NoC
/// migration parking evicted pages in whoever has headroom — per-chip
/// utilization, the throughput-score-weighted routing and the migration
/// accounting all land in the snapshot.
#[test]
fn hetero_cluster_report_is_byte_stable() {
    let model = presets::tiny_decoder();
    let config = ServeConfig::default()
        .with_budget(7168)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    let spec = ServeSpec::builder()
        .chip_specs(vec![
            EngineConfig::zcu102(model.clone(), 12.0),
            EngineConfig::zcu102(model.clone(), 12.0),
            EngineConfig::zcu102_little(model, 6.0),
        ])
        .config(config)
        .placement(LeastLoadedWeighted)
        .migration(ToLeastLoaded);
    let report = serve_cluster(spec, &golden_trace());
    assert_eq!(report.chips, 3);
    assert_eq!(report.placement, "least-loaded-weighted");
    assert!(report.migration_events > 0, "the hetero golden must exercise migration");
    for chip in &report.per_chip {
        let u = chip.utilization.expect("hetero runs report per-chip utilization");
        assert!((0.0..=1.0).contains(&u));
    }
    assert_byte_stable("serve_hetero_zcu102.json", report.to_json().unwrap());
}
