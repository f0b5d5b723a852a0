//! Golden-trace test: a fixed 8-request arrival trace on the ZCU102 config
//! must produce a byte-stable `ServeReport`, so scheduler refactors cannot
//! silently change serving numbers.
//!
//! The whole pipeline is deterministic integer-cycle arithmetic converted
//! to f64 at fixed points, and the vendored serde_json prints floats with
//! Rust's shortest round-trip formatting — so the serialized report is
//! stable down to the byte. To refresh the snapshot after an *intentional*
//! change:
//!
//! ```sh
//! MEADOW_UPDATE_GOLDEN=1 cargo test --test serve_golden
//! ```

mod common;

use common::serve;
use meadow::core::serve::{AdmissionPolicy, KvPolicy, ServeConfig};
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::models::presets;
use meadow::models::workload::{ArrivalTrace, ServeRequest};
use meadow::models::{KvCompression, KvLayout};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// The pinned arrival set: 8 staggered requests with ragged
/// prompt/generation lengths; arrival spacing is on the scale of a tick
/// (tens of µs on the tiny model) so sessions genuinely overlap.
fn golden_trace() -> ArrivalTrace {
    ArrivalTrace::new(vec![
        ServeRequest::new(0, 0.0, 16, 8),
        ServeRequest::new(1, 0.0, 24, 4),
        ServeRequest::new(2, 0.01, 8, 6),
        ServeRequest::new(3, 0.015, 31, 2),
        ServeRequest::new(4, 0.02, 4, 8),
        ServeRequest::new(5, 0.03, 12, 5),
        ServeRequest::new(6, 0.05, 20, 3),
        ServeRequest::new(7, 0.08, 6, 7),
    ])
}

/// The whole-cache scenario: a budget sized to force evictions and a batch
/// cap so the scheduler exercises idle-resident sessions.
fn golden_report() -> String {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    let model = presets::tiny_decoder();
    // Room for ~2 peak sessions: admission, eviction and reload all fire.
    let budget = 2 * ServeRequest::new(0, 0.0, 31, 2).peak_kv_bytes(&model);
    let config =
        ServeConfig::default().with_budget(budget).with_policy(KvPolicy::Fifo).with_max_batch(4);
    let report = serve(&engine, &golden_trace(), &config).unwrap();
    assert!(report.total_evictions > 0, "the golden scenario must exercise eviction");
    report.to_json().unwrap() + "\n"
}

/// The paged scenario: same trace under `PagedLru` with small pages, a
/// tighter budget and SLO-aware admission, so page spills, faults,
/// fragmentation accounting and rejection all land in the snapshot.
fn golden_paged_report() -> String {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    let model = presets::tiny_decoder();
    // 1.5 peak sessions of room: page spills, faults, fragmentation and at
    // least one SLO rejection all fire on this trace.
    let budget = 3 * ServeRequest::new(0, 0.0, 31, 2).peak_kv_bytes(&model) / 2;
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(4)
        .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.4 });
    let report = serve(&engine, &golden_trace(), &config).unwrap();
    assert!(report.total_page_spills > 0, "the paged scenario must peel pages");
    assert!(report.rejected_requests > 0, "the paged scenario must shed load");
    report.to_json().unwrap() + "\n"
}

/// The compression scenario: the same trace under a grouped-heads layout
/// *and* VEDA token eviction, with whole-cache LRU and SLO-aware
/// admission — the `kv` summary block (layout, compression, retained
/// attention mass, dense-vs-actual bytes) and the compressed per-trace
/// byte accounting all land in the snapshot.
fn golden_kvcomp_report() -> String {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    let model = presets::tiny_decoder();
    // Compressed sessions are roughly a quarter the dense size (half the
    // KV heads, half the tokens kept), so half a dense peak cache holds
    // about two of them: eviction and reload still churn at the
    // compressed scale.
    let budget = ServeRequest::new(0, 0.0, 31, 2).peak_kv_bytes(&model) / 2;
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::Lru)
        .with_max_batch(4)
        .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.4 })
        .with_kv_layout(KvLayout::GroupedHeads { kv_heads: 2 })
        .with_kv_compression(KvCompression::VedaVote { keep_ratio: 0.5 });
    let report = serve(&engine, &golden_trace(), &config).unwrap();
    assert!(report.total_evictions > 0, "the compressed scenario must exercise eviction");
    let kv = report.kv.expect("a non-dense run attaches its KV summary");
    assert!(kv.final_kv_bytes < kv.dense_final_kv_bytes, "compression must shrink the snapshot");
    assert!(kv.retained_attention_mass < 1.0);
    report.to_json().unwrap() + "\n"
}

/// The multi-model scenario: the same trace split across 2 models
/// churning under a one-model weight budget with streaming overlap, so
/// cold starts, per-layer load pipelining, LRU model eviction and the
/// cold/warm TTFT split all land in the snapshot.
fn golden_multimodel_report() -> String {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    let model = presets::tiny_decoder();
    let mut trace = golden_trace();
    for (i, r) in trace.requests.iter_mut().enumerate() {
        *r = r.with_model(i as u32 % 2);
    }
    // Room for exactly one model's weights: every model switch evicts the
    // resident model and re-streams the other.
    let config = ServeConfig::default()
        .with_weight_budget(model.total_weight_bytes())
        .with_weight_streaming(true)
        .with_max_batch(4);
    let report = serve(&engine, &trace, &config).unwrap();
    let weights = report.weights.expect("a budgeted run attaches its weight summary");
    assert_eq!(weights.models, 2);
    assert!(weights.weight_evictions > 0, "a one-model budget must churn");
    assert!(weights.cold_requests > 0, "the scenario must exercise cold starts");
    assert!(
        weights.cold_ttft.p50_ms > weights.warm_ttft.p50_ms,
        "cold starts must cost TTFT in the snapshot"
    );
    report.to_json().unwrap() + "\n"
}

fn assert_byte_stable(name: &str, got: String) {
    let path = golden_path(name);
    if std::env::var_os("MEADOW_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "ServeReport diverged from the committed snapshot {name}; if the change is \
         intentional, regenerate with MEADOW_UPDATE_GOLDEN=1 cargo test --test serve_golden"
    );
}

#[test]
fn serve_report_is_byte_stable() {
    assert_byte_stable("serve_zcu102.json", golden_report());
}

#[test]
fn paged_serve_report_is_byte_stable() {
    assert_byte_stable("serve_paged_zcu102.json", golden_paged_report());
}

#[test]
fn kvcomp_serve_report_is_byte_stable() {
    assert_byte_stable("serve_kvcomp_zcu102.json", golden_kvcomp_report());
}

#[test]
fn multimodel_serve_report_is_byte_stable() {
    assert_byte_stable("serve_multimodel_zcu102.json", golden_multimodel_report());
}
