//! Vision-transformer inference with MEADOW (§6.6, Fig. 13).
//!
//! ViTs process all image tokens together — structurally the prefill stage
//! of an LLM — so the combined TPHS/GEMM dataflow and weight packing apply
//! unchanged. [`vit_speedup`] measures MEADOW against the GEMM baseline for
//! one DeiT model at one bandwidth.

use crate::engine::{vit_tokens, EngineConfig, MeadowEngine};
use crate::error::CoreError;
use meadow_models::TransformerConfig;
use serde::{Deserialize, Serialize};

/// MEADOW-vs-GEMM comparison for one ViT at one bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VitComparison {
    /// Model name.
    pub model: String,
    /// Bandwidth in Gbps.
    pub bandwidth_gbps: f64,
    /// GEMM-baseline inference latency in ms.
    pub gemm_ms: f64,
    /// MEADOW inference latency in ms.
    pub meadow_ms: f64,
    /// Speedup (GEMM ÷ MEADOW).
    pub speedup: f64,
}

/// Measures one ViT model under both execution plans.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for non-ViT configs and propagates
/// engine errors.
pub fn vit_speedup(
    model: &TransformerConfig,
    bandwidth_gbps: f64,
) -> Result<VitComparison, CoreError> {
    // Check the model kind before paying for two engine builds.
    vit_tokens(model)?;
    let gemm = MeadowEngine::new(EngineConfig::gemm_baseline(model.clone(), bandwidth_gbps))?;
    let meadow = MeadowEngine::new(EngineConfig::zcu102(model.clone(), bandwidth_gbps))?;
    let g = gemm.vit_inference_latency()?.total_ms();
    let m = meadow.vit_inference_latency()?.total_ms();
    Ok(VitComparison {
        model: model.name.clone(),
        bandwidth_gbps,
        gemm_ms: g,
        meadow_ms: m,
        speedup: g / m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;

    #[test]
    fn deit_models_speed_up_in_the_paper_band() {
        // Fig. 13: 1.5–1.6× lower inference latency across bandwidths.
        for model in [presets::deit_s(), presets::deit_b()] {
            for bw in [3.0, 12.0] {
                let c = vit_speedup(&model, bw).unwrap();
                assert!(
                    (1.2..=2.2).contains(&c.speedup),
                    "{} @ {bw} Gbps: speedup {}",
                    c.model,
                    c.speedup
                );
            }
        }
    }

    #[test]
    fn decoder_lm_rejected() {
        let err = vit_speedup(&presets::opt_125m(), 12.0).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig { param: "model", .. }), "{err}");
    }

    #[test]
    fn comparison_fields_consistent() {
        let c = vit_speedup(&presets::tiny_vit(), 6.0).unwrap();
        assert!((c.speedup - c.gemm_ms / c.meadow_ms).abs() < 1e-12);
        assert_eq!(c.model, "tiny-vit");
    }
}
