//! Model presets used in the paper's evaluation.

use crate::config::{ModelKind, TransformerConfig};
use meadow_tensor::activations::Activation;

/// OPT-125M: 12 layers, d=768, 12 heads, FFN 3072, ReLU (Zhang et al. 2022).
pub fn opt_125m() -> TransformerConfig {
    TransformerConfig {
        name: "OPT-125M".to_string(),
        layers: 12,
        d_model: 768,
        heads: 12,
        ffn_dim: 3072,
        vocab: 50272,
        max_seq: 2048,
        activation: Activation::Relu,
        kind: ModelKind::DecoderLm,
    }
}

/// OPT-1.3B: 24 layers, d=2048, 32 heads, FFN 8192, ReLU.
pub fn opt_1_3b() -> TransformerConfig {
    TransformerConfig {
        name: "OPT-1.3B".to_string(),
        layers: 24,
        d_model: 2048,
        heads: 32,
        ffn_dim: 8192,
        vocab: 50272,
        max_seq: 2048,
        activation: Activation::Relu,
        kind: ModelKind::DecoderLm,
    }
}

/// DeiT-S: 12 layers, d=384, 6 heads, FFN 1536, GELU, 197 tokens at 224².
pub fn deit_s() -> TransformerConfig {
    TransformerConfig {
        name: "DeiT-S".to_string(),
        layers: 12,
        d_model: 384,
        heads: 6,
        ffn_dim: 1536,
        vocab: 0,
        max_seq: 197,
        activation: Activation::Gelu,
        kind: ModelKind::VisionTransformer { tokens: 197 },
    }
}

/// DeiT-B: 12 layers, d=768, 12 heads, FFN 3072, GELU, 197 tokens.
pub fn deit_b() -> TransformerConfig {
    TransformerConfig {
        name: "DeiT-B".to_string(),
        layers: 12,
        d_model: 768,
        heads: 12,
        ffn_dim: 3072,
        vocab: 0,
        max_seq: 197,
        activation: Activation::Gelu,
        kind: ModelKind::VisionTransformer { tokens: 197 },
    }
}

/// A deliberately tiny decoder for functional equivalence tests
/// (2 layers, d=32, 4 heads, FFN 64).
pub fn tiny_decoder() -> TransformerConfig {
    TransformerConfig {
        name: "tiny-decoder".to_string(),
        layers: 2,
        d_model: 32,
        heads: 4,
        ffn_dim: 64,
        vocab: 256,
        max_seq: 64,
        activation: Activation::Relu,
        kind: ModelKind::DecoderLm,
    }
}

/// A tiny vision transformer for tests (2 layers, d=32, 4 heads, 10 tokens).
pub fn tiny_vit() -> TransformerConfig {
    TransformerConfig {
        name: "tiny-vit".to_string(),
        layers: 2,
        d_model: 32,
        heads: 4,
        ffn_dim: 64,
        vocab: 0,
        max_seq: 10,
        activation: Activation::Gelu,
        kind: ModelKind::VisionTransformer { tokens: 10 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for c in [opt_125m(), opt_1_3b(), deit_s(), deit_b(), tiny_decoder(), tiny_vit()] {
            c.validate().unwrap_or_else(|e| panic!("{}: {e}", c.name));
        }
    }

    #[test]
    fn opt_family_sizes_are_ordered() {
        assert!(opt_125m().total_weight_bytes() < opt_1_3b().total_weight_bytes());
    }

    #[test]
    fn parameter_counts_are_plausible() {
        // OPT-125M decoder weights: 12 layers × 12·768² ≈ 85 MB of INT8.
        let c = opt_125m();
        let mb = c.total_weight_bytes() as f64 / (1 << 20) as f64;
        assert!((80.0..90.0).contains(&mb), "{mb} MB");
        // OPT-1.3B: 24 × 12·2048² ≈ 1.2 GB.
        let c = opt_1_3b();
        let gb = c.total_weight_bytes() as f64 / (1 << 30) as f64;
        assert!((1.0..1.4).contains(&gb), "{gb} GB");
    }

    #[test]
    fn deit_b_matches_opt125m_body() {
        // DeiT-B and OPT-125M share the 12×768×12 geometry.
        let a = deit_b();
        let b = opt_125m();
        assert_eq!(a.layer_weight_bytes(), b.layer_weight_bytes());
        assert_ne!(a.kind, b.kind);
    }
}
