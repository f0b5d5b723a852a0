//! End-to-end engine workflows across every baseline and model preset:
//! construction, measurement, report consistency and failure paths.

use meadow::core::accuracy::verify_model_lossless;
use meadow::core::baselines::Baseline;
use meadow::core::{CoreError, EngineConfig, MeadowEngine};
use meadow::dataflow::ExecutionPlan;
use meadow::models::weights::ModelPackingStats;
use meadow::models::{presets, TransformerConfig};
use meadow::packing::{PackingConfig, PackingLevel};
use meadow::sim::Cycles;

#[test]
fn every_baseline_runs_on_every_decoder_preset() {
    for model in [presets::tiny_decoder(), presets::opt_125m()] {
        for baseline in Baseline::comparison_set() {
            let engine = baseline.engine(model.clone(), 6.0).unwrap();
            let prefill = engine.prefill_latency(32).unwrap();
            let decode = engine.decode_latency(32, 4).unwrap();
            assert!(prefill.cycles > Cycles::ZERO, "{} {}", model.name, baseline.name());
            assert!(decode.cycles > Cycles::ZERO);
            assert!(decode.cycles < prefill.cycles, "decode must be cheaper than prefill");
        }
    }
}

#[test]
fn report_totals_match_layer_sums() {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    let r = engine.prefill_latency(16).unwrap();
    let layer_sum: Cycles = r.layers.iter().map(|l| l.makespan()).sum();
    assert_eq!(layer_sum, r.cycles);
    assert_eq!(r.layers.len(), 2);
}

#[test]
fn ledger_matches_report_components_for_gemm() {
    // For the sequential GEMM baseline, the ledger's fetch/store cycle
    // attribution must equal the per-op component totals.
    let engine =
        MeadowEngine::new(EngineConfig::gemm_baseline(presets::tiny_decoder(), 12.0)).unwrap();
    let r = engine.prefill_latency(16).unwrap();
    let (f, _, s) = r.components();
    assert_eq!(r.ledger.fetch_cycles(), f);
    assert_eq!(r.ledger.store_cycles(), s);
}

#[test]
fn workload_validation_propagates() {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    assert!(engine.prefill_latency(0).is_err());
    assert!(engine.prefill_latency(10_000).is_err());
    assert!(engine.decode_latency(0, 1).is_err());
    assert!(engine.decode_latency(16, 0).is_err());
    assert!(engine.end_to_end_latency(16, 0).is_err());
}

#[test]
fn packing_stats_are_exposed_and_match_plan() {
    let meadow = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    assert!(meadow.packing_stats().is_some());
    let gemm =
        MeadowEngine::new(EngineConfig::gemm_baseline(presets::tiny_decoder(), 12.0)).unwrap();
    assert!(gemm.packing_stats().is_none());
}

#[test]
fn injected_stats_must_match_plan() {
    let tiny = presets::tiny_decoder();
    let config = EngineConfig::zcu102(tiny.clone(), 12.0);
    assert!(MeadowEngine::with_packing_stats(config.clone(), None).is_err());
    let gemm = EngineConfig::gemm_baseline(tiny.clone(), 12.0);
    assert!(MeadowEngine::with_packing_stats(gemm.clone(), None).is_ok());
    let stats = |model: &TransformerConfig, level| {
        ModelPackingStats::compute(model, &PackingConfig::default(), level).unwrap()
    };
    let fitting = stats(&tiny, PackingLevel::FrequencyAware);
    let engine = MeadowEngine::with_packing_stats(config.clone(), Some(fitting.clone())).unwrap();
    assert_eq!(engine.packing_stats(), MeadowEngine::new(config.clone()).unwrap().packing_stats());
    let naive = EngineConfig {
        plan: ExecutionPlan { packing: Some(PackingLevel::Naive), ..config.plan },
        ..config.clone()
    };
    let wider = TransformerConfig { d_model: 64, ffn_dim: 128, ..tiny.clone() };
    let deeper = TransformerConfig { layers: tiny.layers + 1, ..tiny.clone() };
    let shallower = TransformerConfig { layers: tiny.layers - 1, ..tiny.clone() };
    let unfit = [
        // Another level's sizes for this plan's level.
        (naive.clone(), fitting.clone()),
        // Statistics handed to a plan that packs nothing.
        (gemm, fitting.clone()),
        // Another model's matrices: other shapes, a missing layer, an extra one.
        (config.clone(), stats(&wider, PackingLevel::FrequencyAware)),
        (EngineConfig::zcu102(deeper, 12.0), fitting.clone()),
        (EngineConfig::zcu102(shallower, 12.0), fitting),
    ];
    for (config, stats) in unfit {
        let err = MeadowEngine::with_packing_stats(config, Some(stats)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { param: "packing_stats", .. }), "{err}");
    }
    assert!(
        MeadowEngine::with_packing_stats(naive, Some(stats(&tiny, PackingLevel::Naive))).is_ok()
    );
}

#[test]
fn vit_presets_run_both_plans() {
    for model in [presets::tiny_vit(), presets::deit_s()] {
        let gemm = MeadowEngine::new(EngineConfig::gemm_baseline(model.clone(), 6.0)).unwrap();
        let meadow = MeadowEngine::new(EngineConfig::zcu102(model, 6.0)).unwrap();
        let g = gemm.vit_inference_latency().unwrap();
        let m = meadow.vit_inference_latency().unwrap();
        assert!(m.cycles < g.cycles);
    }
}

#[test]
fn whole_tiny_model_is_lossless_end_to_end() {
    let report =
        verify_model_lossless(&presets::tiny_decoder(), &PackingConfig::default(), usize::MAX)
            .unwrap();
    assert!(report.all_exact, "{:?}", report.failures);
    assert_eq!(report.matrices_checked, 36);
}

#[test]
fn decode_latency_is_stable_across_repeated_measurement() {
    let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
    let a = engine.decode_latency(16, 2).unwrap();
    let b = engine.decode_latency(16, 2).unwrap();
    assert_eq!(a, b, "measurement must be deterministic");
}
