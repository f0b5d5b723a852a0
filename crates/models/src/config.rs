//! Transformer architecture descriptions.

use crate::error::ModelError;
use meadow_tensor::activations::Activation;
use serde::{Deserialize, Serialize};

/// Whether the model is a decoder LM (prefill + decode, KV cache) or an
/// encoder-style vision transformer (single prefill-like pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Autoregressive decoder language model (OPT family).
    DecoderLm,
    /// Vision transformer with a fixed token count per image (DeiT family).
    VisionTransformer {
        /// Tokens per image (patches + class token); 197 for DeiT at 224².
        tokens: usize,
    },
}

/// The six weight matrices of one transformer layer, in execution order.
///
/// Matrices are stored `(out_features × in_features)` row-major with the
/// inner-product dimension along the columns — the layout §5.1 chunks along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MatrixKind {
    /// Query projection `W_Q` (D × D).
    Query,
    /// Key projection `W_K` (D × D).
    Key,
    /// Value projection `W_V` (D × D).
    Value,
    /// Attention output projection (D × D).
    Proj,
    /// First MLP matrix (FFN × D) — "MLP1" in the paper.
    MlpUp,
    /// Second MLP matrix (D × FFN).
    MlpDown,
}

impl MatrixKind {
    /// All kinds in execution order.
    pub fn all() -> [MatrixKind; 6] {
        [
            MatrixKind::Query,
            MatrixKind::Key,
            MatrixKind::Value,
            MatrixKind::Proj,
            MatrixKind::MlpUp,
            MatrixKind::MlpDown,
        ]
    }

    /// Whether this matrix belongs to the attention block (vs the MLP).
    pub(crate) fn is_attention(self) -> bool {
        !matches!(self, MatrixKind::MlpUp | MatrixKind::MlpDown)
    }
}

/// Physical layout of the per-session KV cache.
///
/// The layout decides how many bytes one cached token costs and which token
/// positions are materialized at all. `Dense` is the degeneracy oracle: every
/// other layout (and [`KvCompression`] model) collapses to it at its identity
/// parameter point, and serving reports under `Dense` are bit-identical to
/// the pre-seam accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KvLayout {
    /// Full-length dense cache: every token stores all `heads` K/V heads
    /// (`2·d_model` bytes per token per layer). Today's behavior.
    #[default]
    Dense,
    /// Grouped-query / multi-query attention: `kv_heads` shared K/V heads
    /// instead of `heads`, shrinking per-token bytes by `kv_heads / heads`.
    /// `kv_heads == heads` degenerates to [`KvLayout::Dense`];
    /// `kv_heads == 1` is MQA.
    GroupedHeads {
        /// Number of shared K/V heads; must divide the model's head count.
        kv_heads: usize,
    },
    /// Sliding-window attention with attention sinks: only the first
    /// `sinks` tokens plus the trailing `window` tokens stay resident.
    /// `window >= max_seq` degenerates to [`KvLayout::Dense`].
    SlidingWindow {
        /// Trailing tokens kept resident.
        window: usize,
        /// Leading "sink" tokens always kept resident.
        sinks: usize,
    },
}

/// Token-level KV eviction model applied on top of a [`KvLayout`].
///
/// Compression is a deterministic, RNG-free accounting model: it decides how
/// many token slots survive at each context length and what fraction of
/// attention mass those survivors retain, without simulating per-head scores.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum KvCompression {
    /// No token-level eviction; the layout's residency is kept as-is.
    #[default]
    None,
    /// VEDA-style vote eviction: each token position `j` in a context of
    /// length `L` gets a deterministic vote `w_j = 1/(j+1) + 1/(L-j)`
    /// (sink + recency U-shape), and only the `ceil(keep_ratio·L)`
    /// highest-vote tokens stay resident at each step boundary.
    /// `keep_ratio == 1.0` degenerates to [`KvCompression::None`].
    VedaVote {
        /// Fraction of tokens kept, in `(0, 1]`.
        keep_ratio: f64,
    },
}

/// Architecture of a transformer evaluated by MEADOW.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Human-readable model name ("OPT-125M", "DeiT-S", ...).
    pub name: String,
    /// Number of decoder/encoder layers.
    pub layers: usize,
    /// Model (embedding) dimension `D`.
    pub d_model: usize,
    /// Number of attention heads `H`.
    pub heads: usize,
    /// MLP hidden dimension.
    pub ffn_dim: usize,
    /// Vocabulary size (decoder LMs; 0 for ViTs).
    pub vocab: usize,
    /// Maximum sequence length the KV cache is provisioned for.
    pub max_seq: usize,
    /// MLP activation function.
    pub activation: Activation,
    /// Decoder LM or vision transformer.
    pub kind: ModelKind,
}

impl TransformerConfig {
    /// Per-head dimension `HD = D / H`.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.heads
    }

    /// `(rows, cols)` = `(out_features, in_features)` of one weight matrix.
    pub fn matrix_dims(&self, kind: MatrixKind) -> (usize, usize) {
        match kind {
            MatrixKind::Query | MatrixKind::Key | MatrixKind::Value | MatrixKind::Proj => {
                (self.d_model, self.d_model)
            }
            MatrixKind::MlpUp => (self.ffn_dim, self.d_model),
            MatrixKind::MlpDown => (self.d_model, self.ffn_dim),
        }
    }

    /// Raw INT8 bytes of one weight matrix.
    pub fn matrix_bytes(&self, kind: MatrixKind) -> u64 {
        let (r, c) = self.matrix_dims(kind);
        (r * c) as u64
    }

    /// Raw INT8 bytes of all weight matrices in one layer
    /// (`4·D² + 2·D·FFN`).
    pub fn layer_weight_bytes(&self) -> u64 {
        MatrixKind::all().iter().map(|&k| self.matrix_bytes(k)).sum()
    }

    /// Raw INT8 bytes of all layers' weights.
    pub fn total_weight_bytes(&self) -> u64 {
        self.layer_weight_bytes() * self.layers as u64
    }

    /// Multiply-accumulate count for one full layer at `tokens` tokens of
    /// context `context` (projections + attention scores + context·V +
    /// MLP). For prefill, `tokens == context`; for one decode step,
    /// `tokens == 1` with `context` the KV length.
    pub fn layer_macs(&self, tokens: usize, context: usize) -> u64 {
        let t = tokens as u64;
        let ctx = context as u64;
        let d = self.d_model as u64;
        let f = self.ffn_dim as u64;
        let proj = 4 * t * d * d; // Q, K, V, Proj
        let attn = 2 * t * ctx * d; // QKᵀ and SM·V across all heads
        let mlp = 2 * t * d * f;
        proj + attn + mlp
    }

    /// Validates the architecture.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero dims, a head count that
    /// does not divide `d_model`, or a ViT with zero tokens.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.layers == 0 {
            return Err(ModelError::InvalidConfig { param: "layers", reason: "zero".into() });
        }
        if self.d_model == 0 {
            return Err(ModelError::InvalidConfig { param: "d_model", reason: "zero".into() });
        }
        if self.heads == 0 {
            return Err(ModelError::InvalidConfig { param: "heads", reason: "zero".into() });
        }
        if !self.d_model.is_multiple_of(self.heads) {
            return Err(ModelError::InvalidConfig {
                param: "heads",
                reason: format!("{} does not divide d_model {}", self.heads, self.d_model),
            });
        }
        if self.ffn_dim == 0 {
            return Err(ModelError::InvalidConfig { param: "ffn_dim", reason: "zero".into() });
        }
        if let ModelKind::VisionTransformer { tokens } = self.kind {
            if tokens == 0 {
                return Err(ModelError::InvalidConfig {
                    param: "tokens",
                    reason: "vision transformer needs at least one token".into(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn opt125m_shapes() {
        let c = presets::opt_125m();
        assert_eq!(c.head_dim(), 64);
        assert_eq!(c.matrix_dims(MatrixKind::Query), (768, 768));
        assert_eq!(c.matrix_dims(MatrixKind::MlpUp), (3072, 768));
        assert_eq!(c.matrix_dims(MatrixKind::MlpDown), (768, 3072));
        // 12 D² bytes per layer.
        assert_eq!(c.layer_weight_bytes(), 12 * 768 * 768);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn macs_formula() {
        let c = presets::opt_125m();
        // One token, context 1: 4D² + 2D + 2DF.
        let d = 768u64;
        let f = 3072u64;
        assert_eq!(c.layer_macs(1, 1), 4 * d * d + 2 * d + 2 * d * f);
        // Prefill scales linearly in tokens (quadratic term via context).
        assert_eq!(c.layer_macs(512, 512), 512 * (4 * d * d + 2 * d * f) + 2 * 512 * 512 * d);
    }

    #[test]
    fn validation_catches_bad_heads() {
        let mut c = presets::opt_125m();
        c.heads = 7;
        assert!(c.validate().is_err());
        c.heads = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn vit_token_validation() {
        let mut c = presets::deit_s();
        assert!(c.validate().is_ok());
        c.kind = ModelKind::VisionTransformer { tokens: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn matrix_kind_partition() {
        let attn: Vec<_> = MatrixKind::all().into_iter().filter(|k| k.is_attention()).collect();
        assert_eq!(attn.len(), 4);
    }
}
