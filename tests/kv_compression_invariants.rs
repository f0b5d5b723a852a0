//! Invariant tier for the KV layout/compression seam.
//!
//! The seam's contract is *degeneracy*: every layout has a setting that
//! collapses to the dense full-length cache, and at that setting the
//! serving stack must be bit-identical to the pre-seam behavior — same
//! schedule, same bytes, same report JSON (up to the informational `kv`
//! summary block, which only non-dense runs attach). Away from the
//! degenerate points, compressed byte accounting must stay *conservative*:
//! never above the dense accounting of the same context, never created or
//! destroyed by eviction/reload, and always an exact multiple of the
//! layout's per-token footprint. The property section pins the
//! `KvSizer` formulas against brute-force per-token sums and the
//! retained-attention-mass bound `mass ∈ [keep_ratio·(1-ε), 1]`. On every
//! layout/compression point the event-driven scheduler must also reproduce
//! the report digests the retired per-tick scan core recorded.

mod common;

use common::{fnv1a64, serve};
use meadow::core::serve::{KvPolicy, ServeConfig, ServeReport};
use meadow::core::{EngineConfig, MeadowEngine};
use meadow::models::presets;
use meadow::models::workload::{kv_cache_total_bytes, ArrivalTrace, KvSizer, ServeRequest};
use meadow::models::{KvCompression, KvLayout};
use proptest::prelude::*;

fn engine() -> MeadowEngine {
    MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
}

/// The pinned arrival set of the golden suite: 8 staggered requests with
/// ragged lengths, overlapping on the tick scale.
fn trace() -> ArrivalTrace {
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

/// A contended whole-cache configuration (evictions fire on the trace).
fn contended_config() -> ServeConfig {
    let model = presets::tiny_decoder();
    let budget = 2 * ServeRequest::new(0, 0.0, 31, 2).peak_kv_bytes(&model);
    ServeConfig::default().with_budget(budget).with_policy(KvPolicy::Lru).with_max_batch(4)
}

fn run(config: ServeConfig) -> ServeReport {
    serve(&engine(), &trace(), &config).unwrap()
}

/// Degenerate settings of every layout/compression axis: each must
/// reproduce the dense run exactly. `tiny_decoder` has 4 heads and
/// `max_seq = 64`, so `kv_heads = 4` shares nothing and any
/// `window + sinks ≥ 64` covers every reachable context.
fn degenerate_points() -> [(KvLayout, KvCompression); 4] {
    [
        (KvLayout::GroupedHeads { kv_heads: 4 }, KvCompression::None),
        (KvLayout::SlidingWindow { window: 64, sinks: 0 }, KvCompression::None),
        (KvLayout::SlidingWindow { window: 61, sinks: 3 }, KvCompression::None),
        (KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 1.0 }),
    ]
}

#[test]
fn explicit_dense_is_the_default_and_attaches_no_summary() {
    let dense = run(contended_config());
    assert!(dense.total_evictions > 0, "the scenario must exercise eviction");
    assert!(dense.kv.is_none(), "dense runs must not attach a KV summary");
    let explicit = run(contended_config()
        .with_kv_layout(KvLayout::Dense)
        .with_kv_compression(KvCompression::None));
    assert_eq!(explicit, dense);
}

#[test]
fn degenerate_layouts_reproduce_dense_bit_for_bit() {
    let dense = run(contended_config());
    for (layout, compression) in degenerate_points() {
        let mut report =
            run(contended_config().with_kv_layout(layout).with_kv_compression(compression));
        let kv = report.kv.take().unwrap_or_else(|| {
            panic!("{layout:?}/{compression:?} must attach its (degenerate) KV summary")
        });
        assert_eq!(kv.retained_attention_mass, 1.0, "{layout:?}/{compression:?}");
        assert_eq!(kv.final_kv_bytes, kv.dense_final_kv_bytes, "{layout:?}/{compression:?}");
        assert_eq!(report, dense, "{layout:?}/{compression:?} diverged from the dense oracle");
    }
}

/// Non-degenerate settings: grouped heads, a binding window, and token
/// eviction — alone and combined.
fn compressed_points() -> [(KvLayout, KvCompression); 4] {
    [
        (KvLayout::GroupedHeads { kv_heads: 1 }, KvCompression::None),
        (KvLayout::SlidingWindow { window: 8, sinks: 2 }, KvCompression::None),
        (KvLayout::Dense, KvCompression::VedaVote { keep_ratio: 0.5 }),
        (KvLayout::GroupedHeads { kv_heads: 2 }, KvCompression::VedaVote { keep_ratio: 0.75 }),
    ]
}

#[test]
fn compressed_bytes_never_exceed_dense_and_sum_into_the_summary() {
    let model = presets::tiny_decoder();
    for (layout, compression) in compressed_points() {
        let report =
            run(contended_config().with_kv_layout(layout).with_kv_compression(compression));
        let kv = report.kv.expect("non-dense runs attach a KV summary");
        let mut dense_sum = 0u64;
        let mut actual_sum = 0u64;
        for t in &report.traces {
            assert!(!t.rejected);
            let dense_bytes = kv_cache_total_bytes(&model, t.prompt_tokens + t.generated_tokens);
            assert!(
                t.final_kv_bytes <= dense_bytes,
                "{layout:?}/{compression:?} request {}: {} bytes exceeds dense {}",
                t.id,
                t.final_kv_bytes,
                dense_bytes
            );
            dense_sum += dense_bytes;
            actual_sum += t.final_kv_bytes;
        }
        assert_eq!(kv.dense_final_kv_bytes, dense_sum, "{layout:?}/{compression:?}");
        assert_eq!(kv.final_kv_bytes, actual_sum, "{layout:?}/{compression:?}");
        assert!(kv.final_kv_bytes < kv.dense_final_kv_bytes, "{layout:?}/{compression:?}");
    }
}

/// Eviction and reload move a session's cache out of and back into the
/// budget; they must neither create nor destroy bytes. Every final byte
/// count must equal the sizer's closed-form recomputation of the same
/// context — under a budget tight enough that whole-cache spills and
/// reloads churn throughout the run.
#[test]
fn spill_and_reload_conserve_compressed_bytes_exactly() {
    let model = presets::tiny_decoder();
    for (layout, compression) in compressed_points() {
        let sizer = KvSizer::new(&model, layout, compression).unwrap();
        // ~1.5 peak *compressed* sessions of room: residency churns at the
        // compressed scale.
        let budget = (3 * sizer.bytes(33)) / 2;
        let config = ServeConfig::default()
            .with_budget(budget)
            .with_policy(KvPolicy::Lru)
            .with_max_batch(4)
            .with_kv_layout(layout)
            .with_kv_compression(compression);
        let report = serve(&engine(), &trace(), &config).unwrap();
        assert!(
            report.total_evictions > 0,
            "{layout:?}/{compression:?}: the squeezed budget must churn"
        );
        assert!(report.peak_kv_bytes <= budget, "{layout:?}/{compression:?}");
        for t in &report.traces {
            assert_eq!(
                t.final_kv_bytes,
                sizer.bytes(t.prompt_tokens + t.generated_tokens),
                "{layout:?}/{compression:?} request {}: spill/reload must conserve bytes",
                t.id
            );
        }
    }
}

/// FNV-1a/64 digests of the serialized reports the retired per-tick scan
/// core served under `contended_config()` on each of `compressed_points()`,
/// then each of `degenerate_points()`.
const COMPRESSED_ORACLE: &str = "\
    080c99a41ae4e8b7 220e2db058c17baa 6b6a50bc9bb08e21 a3440061a5145928 \
    ebcb458e2eceeec4 25ed832166ca331e a31d79cfc4dc07ac 598dac2bb5bd95f1";

/// The event-driven core stays bit-identical to the per-tick oracle on
/// every layout/compression point: it reproduces each recorded report
/// digest (the scheduler contract does not bend for the seam).
#[test]
fn scheduler_cores_agree_on_every_compressed_point() {
    let engine = engine();
    let trace = trace();
    let got: Vec<String> = compressed_points()
        .into_iter()
        .chain(degenerate_points())
        .map(|(layout, compression)| {
            let config = contended_config().with_kv_layout(layout).with_kv_compression(compression);
            fnv1a64(&serve(&engine, &trace, &config).unwrap().to_json().unwrap())
        })
        .collect();
    let want: Vec<&str> = COMPRESSED_ORACLE.split_whitespace().collect();
    assert_eq!(got, want, "the event core left the tick oracle");
}

/// Brute-force per-token reference for the sliding-window keep rule:
/// token `j` of a length-`len` context survives as an attention sink or
/// inside the recency window.
fn sliding_kept(window: usize, sinks: usize, len: usize) -> usize {
    (0..len).filter(|&j| j < sinks || j + window >= len).count()
}

/// Brute-force reference for the VEDA vote model (sink + recency
/// U-shape): the mass of the `kept` highest-vote tokens.
fn veda_mass(len: usize, kept: usize) -> f64 {
    let votes: Vec<f64> =
        (0..len).map(|j| 1.0 / (j as f64 + 1.0) + 1.0 / ((len - j) as f64)).collect();
    let total: f64 = votes.iter().sum();
    let mut sorted = votes;
    sorted.sort_by(|a, b| b.total_cmp(a));
    let retained: f64 = sorted[..kept].iter().sum();
    (retained / total).min(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense bytes are the pre-seam identity for every context length.
    #[test]
    fn dense_sizer_matches_the_preseam_formula(len in 0usize..=512) {
        let model = presets::tiny_decoder();
        let sizer = KvSizer::dense(&model);
        prop_assert_eq!(sizer.bytes(len), kv_cache_total_bytes(&model, len));
        prop_assert_eq!(sizer.tokens_kept(len), len);
        prop_assert_eq!(sizer.retained_attention_mass(len), 1.0);
    }

    /// Grouped-heads bytes equal the brute-force per-token sum
    /// `len × 2 × head_dim × kv_heads × layers`, and scale the dense
    /// footprint by exactly `kv_heads / n_heads`.
    #[test]
    fn grouped_heads_bytes_match_brute_force(
        len in 0usize..=512,
        kv_heads_idx in 0usize..3,
    ) {
        let kv_heads = [1usize, 2, 4][kv_heads_idx];
        let model = presets::tiny_decoder();
        let layout = KvLayout::GroupedHeads { kv_heads };
        let sizer = KvSizer::new(&model, layout, KvCompression::None).unwrap();
        let head_dim = model.head_dim();
        let per_token = 2 * (head_dim * kv_heads * model.layers) as u64;
        prop_assert_eq!(sizer.bytes(len), len as u64 * per_token);
        prop_assert_eq!(
            sizer.bytes(len) * model.heads as u64,
            kv_cache_total_bytes(&model, len) * kv_heads as u64
        );
    }

    /// Sliding-window token counts equal the brute-force keep-rule count,
    /// bytes are an exact multiple of the dense per-token footprint, and
    /// the count is monotone in the context length (the add-only paging
    /// contract).
    #[test]
    fn sliding_window_matches_brute_force_and_is_monotone(
        window in 1usize..=96,
        sinks in 0usize..=8,
        len in 0usize..=256,
    ) {
        let model = presets::tiny_decoder();
        let layout = KvLayout::SlidingWindow { window, sinks };
        let sizer = KvSizer::new(&model, layout, KvCompression::None).unwrap();
        let kept = sliding_kept(window, sinks, len);
        prop_assert_eq!(sizer.tokens_kept(len), kept);
        prop_assert_eq!(sizer.bytes(len), kept as u64 * sizer.bytes_per_token());
        if len > 0 {
            prop_assert!(sizer.tokens_kept(len) >= sizer.tokens_kept(len - 1));
        }
    }

    /// VEDA keeps `ceil(keep_ratio · len)` tokens (never zero for a
    /// non-empty context), and its retained attention mass lands in
    /// `[keep_ratio · (1 - ε), 1]` — the kept tokens are the
    /// highest-voted, so the mass can only beat the uniform share.
    #[test]
    fn veda_mass_is_bounded_below_by_the_keep_ratio(
        keep_percent in 1u32..=100,
        len in 0usize..=256,
    ) {
        let keep_ratio = f64::from(keep_percent) / 100.0;
        let model = presets::tiny_decoder();
        let compression = KvCompression::VedaVote { keep_ratio };
        let sizer = KvSizer::new(&model, KvLayout::Dense, compression).unwrap();
        let kept = sizer.tokens_kept(len);
        if len == 0 {
            prop_assert_eq!(kept, 0);
        } else {
            prop_assert_eq!(kept, ((keep_ratio * len as f64).ceil() as usize).clamp(1, len));
        }
        let mass = sizer.retained_attention_mass(len);
        prop_assert!(mass <= 1.0, "mass {} above 1", mass);
        prop_assert!(
            mass >= keep_ratio * (1.0 - 1e-9),
            "mass {} below keep ratio {}",
            mass,
            keep_ratio
        );
    }

    /// The serving-side mass matches the brute-force vote model token for
    /// token, on every context length.
    #[test]
    fn veda_mass_matches_the_brute_force_vote_model(
        keep_percent in 1u32..=100,
        len in 1usize..=128,
    ) {
        let keep_ratio = f64::from(keep_percent) / 100.0;
        let model = presets::tiny_decoder();
        let compression = KvCompression::VedaVote { keep_ratio };
        let sizer = KvSizer::new(&model, KvLayout::Dense, compression).unwrap();
        let kept = sizer.tokens_kept(len);
        let got = sizer.retained_attention_mass(len);
        let want = veda_mass(len, kept);
        prop_assert!(
            (got - want).abs() < 1e-12,
            "mass {} vs brute force {} (len {}, kept {})",
            got,
            want,
            len,
            kept
        );
    }

    /// Compression composes with layouts: for any layout, VEDA bytes are
    /// `tokens_kept × bytes_per_token` with the structural count applied
    /// first, and never exceed the uncompressed layout bytes.
    #[test]
    fn veda_composes_with_layouts_and_stays_below_them(
        keep_percent in 1u32..=100,
        len in 0usize..=256,
        layout_idx in 0usize..3,
    ) {
        let keep_ratio = f64::from(keep_percent) / 100.0;
        let model = presets::tiny_decoder();
        let layout = match layout_idx {
            0 => KvLayout::Dense,
            1 => KvLayout::GroupedHeads { kv_heads: 2 },
            _ => KvLayout::SlidingWindow { window: 16, sinks: 2 },
        };
        let plain = KvSizer::new(&model, layout, KvCompression::None).unwrap();
        let veda =
            KvSizer::new(&model, layout, KvCompression::VedaVote { keep_ratio }).unwrap();
        prop_assert_eq!(veda.bytes(len), veda.tokens_kept(len) as u64 * veda.bytes_per_token());
        prop_assert!(veda.bytes(len) <= plain.bytes(len));
        prop_assert!(veda.tokens_kept(len) <= plain.tokens_kept(len));
    }
}
