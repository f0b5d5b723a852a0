//! Prefill / decode workload descriptors, KV-cache sizing, and the serving
//! workload model.
//!
//! Three layers build on each other:
//!
//! * [`PrefillWorkload`] / [`DecodeWorkload`] describe a single measured
//!   step (the TTFT and TBT probes of the paper's §6.1), with
//!   [`kv_cache_total_bytes`] sizing the cache a context occupies.
//! * [`ServeRequest`] wraps a whole generation request — arrival time,
//!   prompt, tokens to generate — and [`ArrivalTrace`] groups them into
//!   the input of the serving simulator
//!   (`meadow_core::serve`).
//! * The **open-loop generators** synthesize realistic traces: Poisson
//!   arrivals ([`ArrivalTrace::poisson`]) model independent users hitting
//!   the chip at a fixed offered rate regardless of completion (open loop,
//!   unlike a closed-loop benchmark that waits for responses), and
//!   [`ZipfLengths`] adds the heavy-tailed prompt/output-length mix of
//!   real chat traffic ([`ArrivalTrace::open_loop`]). Both are
//!   seed-deterministic: the same seed reproduces the same trace byte for
//!   byte.
//!
//! # Examples
//!
//! ```
//! use meadow_models::workload::ArrivalTrace;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), meadow_models::ModelError> {
//! // 8 requests at an offered load of 50 req/s, fixed 128/32 lengths.
//! let mut rng = StdRng::seed_from_u64(7);
//! let trace = ArrivalTrace::poisson(8, 50.0, 128, 32, &mut rng)?;
//! assert_eq!(trace.requests.len(), 8);
//! // Arrivals are non-decreasing and the same seed replays exactly.
//! assert!(trace.requests.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
//! let mut rng2 = StdRng::seed_from_u64(7);
//! assert_eq!(trace, ArrivalTrace::poisson(8, 50.0, 128, 32, &mut rng2)?);
//! # Ok(())
//! # }
//! ```

use crate::config::{KvCompression, KvLayout, ModelKind, TransformerConfig};
use crate::error::ModelError;
use crate::synthetic::ZipfSampler;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A prefill request: the whole prompt is processed in one batch, producing
/// the first token (the TTFT measurement of §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefillWorkload {
    /// Number of prompt tokens.
    pub prompt_tokens: usize,
}

impl PrefillWorkload {
    /// Creates a prefill workload.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero tokens or a prompt
    /// longer than the model's provisioned maximum.
    pub fn new(config: &TransformerConfig, prompt_tokens: usize) -> Result<Self, ModelError> {
        if prompt_tokens == 0 {
            return Err(ModelError::InvalidConfig {
                param: "prompt_tokens",
                reason: "zero".into(),
            });
        }
        if prompt_tokens > config.max_seq {
            return Err(ModelError::InvalidConfig {
                param: "prompt_tokens",
                reason: format!("{prompt_tokens} exceeds max_seq {}", config.max_seq),
            });
        }
        Ok(Self { prompt_tokens })
    }
}

/// A decode step: predict the `token_index`-th generated token after a
/// prefill of `prefill_tokens` (the TBT measurement of §6.1: "the latency of
/// generating the Nth token after the LLM has produced N−1 tokens").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DecodeWorkload {
    /// Tokens processed at prefill.
    pub prefill_tokens: usize,
    /// Index (1-based) of the generated token being measured.
    pub token_index: usize,
}

impl DecodeWorkload {
    /// Creates a decode workload.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero indices, a ViT config
    /// (ViTs have no decode phase), or a context beyond `max_seq`.
    pub fn new(
        config: &TransformerConfig,
        prefill_tokens: usize,
        token_index: usize,
    ) -> Result<Self, ModelError> {
        if let ModelKind::VisionTransformer { .. } = config.kind {
            return Err(ModelError::InvalidConfig {
                param: "kind",
                reason: "vision transformers have no decode stage".into(),
            });
        }
        if prefill_tokens == 0 || token_index == 0 {
            return Err(ModelError::InvalidConfig {
                param: "decode",
                reason: "prefill_tokens and token_index must be at least 1".into(),
            });
        }
        let w = Self { prefill_tokens, token_index };
        if w.context_len() > config.max_seq {
            return Err(ModelError::InvalidConfig {
                param: "token_index",
                reason: format!("context {} exceeds max_seq {}", w.context_len(), config.max_seq),
            });
        }
        Ok(w)
    }

    /// KV-cache length visible to this step: the prompt plus all previously
    /// generated tokens.
    pub fn context_len(&self) -> usize {
        self.prefill_tokens + self.token_index - 1
    }
}

/// KV-cache bytes per layer at a given context length (K and V, INT8).
fn kv_cache_layer_bytes(config: &TransformerConfig, context_len: usize) -> u64 {
    2 * (context_len * config.d_model) as u64
}

/// KV-cache bytes for the whole model.
pub fn kv_cache_total_bytes(config: &TransformerConfig, context_len: usize) -> u64 {
    kv_cache_layer_bytes(config, context_len) * config.layers as u64
}

/// Deterministic vote of token position `j` in a context of length `len`:
/// `1/(j+1) + 1/(len-j)` — large for early (sink) and recent tokens, the
/// U-shape VEDA-style eviction exploits.
fn token_vote(j: usize, len: usize) -> f64 {
    1.0 / (j as f64 + 1.0) + 1.0 / ((len - j) as f64)
}

/// KV accounting for one `(model, layout, compression)` triple: how many
/// bytes a context of a given length occupies, how many token slots stay
/// resident, and what fraction of attention mass the survivors retain.
///
/// All serving-side KV byte math goes through this seam instead of calling
/// [`kv_cache_total_bytes`] directly. For `KvLayout::Dense` +
/// `KvCompression::None` the products are identical `u64` expressions, so
/// dense accounting is bit-exact with the pre-seam code.
///
/// [`KvSizer::bytes`] and [`KvSizer::tokens_kept`] are monotone
/// nondecreasing in the context length, which keeps a paged session's
/// frame count from shrinking as it steps and spill/reload deltas
/// non-negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvSizer {
    layout: KvLayout,
    compression: KvCompression,
    /// Whole-model bytes one resident token costs (all layers, K and V).
    bytes_per_token: u64,
}

impl KvSizer {
    /// Builds a sizer, validating the layout/compression against the model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when `kv_heads` is zero, does
    /// not divide the model's head count, or exceeds it; when `window` is
    /// zero; or when `keep_ratio` is not in `(0, 1]`.
    pub fn new(
        config: &TransformerConfig,
        layout: KvLayout,
        compression: KvCompression,
    ) -> Result<Self, ModelError> {
        let bytes_per_token = match layout {
            KvLayout::Dense | KvLayout::SlidingWindow { .. } => {
                if let KvLayout::SlidingWindow { window, .. } = layout {
                    if window == 0 {
                        return Err(ModelError::InvalidConfig {
                            param: "window",
                            reason: "sliding window must keep at least one trailing token".into(),
                        });
                    }
                }
                2 * config.d_model as u64 * config.layers as u64
            }
            KvLayout::GroupedHeads { kv_heads } => {
                if kv_heads == 0 {
                    return Err(ModelError::InvalidConfig {
                        param: "kv_heads",
                        reason: "zero".into(),
                    });
                }
                if kv_heads > config.heads || !config.heads.is_multiple_of(kv_heads) {
                    return Err(ModelError::InvalidConfig {
                        param: "kv_heads",
                        reason: format!(
                            "{kv_heads} must divide the model's {} heads",
                            config.heads
                        ),
                    });
                }
                2 * (config.head_dim() * kv_heads) as u64 * config.layers as u64
            }
        };
        if let KvCompression::VedaVote { keep_ratio } = compression {
            if !keep_ratio.is_finite() || keep_ratio <= 0.0 || keep_ratio > 1.0 {
                return Err(ModelError::InvalidConfig {
                    param: "keep_ratio",
                    reason: format!("must be in (0, 1], got {keep_ratio}"),
                });
            }
        }
        Ok(Self { layout, compression, bytes_per_token })
    }

    /// The dense, uncompressed sizer — bit-exact with
    /// [`kv_cache_total_bytes`].
    pub fn dense(config: &TransformerConfig) -> Self {
        Self::new(config, KvLayout::Dense, KvCompression::None)
            .expect("dense layout is always valid")
    }

    /// The layout this sizer accounts for.
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// The compression model this sizer accounts for.
    pub fn compression(&self) -> KvCompression {
        self.compression
    }

    /// Whole-model bytes one resident token costs.
    pub fn bytes_per_token(&self) -> u64 {
        self.bytes_per_token
    }

    /// Whether this sizer is the dense identity (no layout sharing, no
    /// compression) and therefore bit-exact with the pre-seam accounting.
    pub fn is_dense(&self) -> bool {
        self.layout == KvLayout::Dense && self.compression == KvCompression::None
    }

    /// Token positions structurally resident under the layout alone (before
    /// compression) at context length `context_len`.
    fn structural_tokens(&self, context_len: usize) -> usize {
        match self.layout {
            KvLayout::Dense | KvLayout::GroupedHeads { .. } => context_len,
            KvLayout::SlidingWindow { window, sinks } => context_len.min(window + sinks),
        }
    }

    /// Token slots resident at context length `context_len` after layout
    /// and compression. Monotone nondecreasing in `context_len`.
    pub fn tokens_kept(&self, context_len: usize) -> usize {
        let structural = self.structural_tokens(context_len);
        match self.compression {
            KvCompression::None => structural,
            KvCompression::VedaVote { keep_ratio } => {
                if structural == 0 {
                    0
                } else {
                    // ceil(keep_ratio·t), at least one token, never more
                    // than the structurally resident set.
                    ((keep_ratio * structural as f64).ceil() as usize).clamp(1, structural)
                }
            }
        }
    }

    /// KV-cache bytes a context of `context_len` tokens occupies.
    pub fn bytes(&self, context_len: usize) -> u64 {
        self.tokens_kept(context_len) as u64 * self.bytes_per_token
    }

    /// Fraction of total attention-vote mass retained by the resident
    /// tokens at context length `context_len`, in `[0, 1]`; the accuracy
    /// proxy reported alongside latency. `1.0` for empty contexts and for
    /// the dense identity.
    pub fn retained_attention_mass(&self, context_len: usize) -> f64 {
        if context_len == 0 || self.tokens_kept(context_len) == context_len {
            return 1.0;
        }
        let total: f64 = (0..context_len).map(|j| token_vote(j, context_len)).sum();
        // Structurally resident positions under the layout.
        let mut resident: Vec<f64> = match self.layout {
            KvLayout::Dense | KvLayout::GroupedHeads { .. } => {
                (0..context_len).map(|j| token_vote(j, context_len)).collect()
            }
            KvLayout::SlidingWindow { window, sinks } => (0..context_len)
                .filter(|&j| j < sinks || j + window >= context_len)
                .map(|j| token_vote(j, context_len))
                .collect(),
        };
        let kept = self.tokens_kept(context_len);
        if kept < resident.len() {
            // VEDA vote eviction: keep the highest-vote survivors. Votes are
            // finite, so total_cmp gives a deterministic descending order.
            resident.sort_by(|a, b| b.total_cmp(a));
            resident.truncate(kept);
        }
        (resident.iter().sum::<f64>() / total).min(1.0)
    }
}

/// One generation request in a multi-session serving trace: it arrives at
/// `arrival_ms`, carries a prompt and asks for a fixed number of generated
/// tokens (a closed-loop benchmark request, not an open-ended chat).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-chosen request identifier (unique within a trace).
    pub id: u32,
    /// Arrival time on the serving clock, in ms.
    pub arrival_ms: f64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Tokens to generate after prefill (at least 1).
    pub generate_tokens: usize,
    /// Chip-affinity hint for cluster placement: a sticky routing key (e.g.
    /// the user or conversation a multi-turn request belongs to). Policies
    /// that honor it (`SessionAffinity`) route equal hints to the same
    /// chip, `hint % chips`; `None` falls back to hashing the request id.
    /// Single-chip serving ignores it. Defaults to `None` when absent from
    /// serialized data, so pre-cluster request JSON still deserializes.
    #[serde(default)]
    pub affinity: Option<u32>,
    /// The model this request targets in a multi-model (tenancy) run.
    /// `None` means the default model 0. Only meaningful when the serving
    /// config declares a weight budget (which turns on weight-residency
    /// modeling); a single-model chip rejects any other model id. Defaults
    /// to `None` when absent from serialized data, so pre-tenancy request
    /// JSON still deserializes.
    #[serde(default)]
    pub model_id: Option<u32>,
}

impl ServeRequest {
    /// Creates a request with no chip-affinity hint and the default model.
    pub fn new(id: u32, arrival_ms: f64, prompt_tokens: usize, generate_tokens: usize) -> Self {
        Self { id, arrival_ms, prompt_tokens, generate_tokens, affinity: None, model_id: None }
    }

    /// The same request carrying a chip-affinity hint for
    /// affinity-respecting cluster placement.
    pub fn with_affinity(self, affinity: u32) -> Self {
        Self { affinity: Some(affinity), ..self }
    }

    /// The same request targeting `model_id` in a multi-model run.
    pub fn with_model(self, model_id: u32) -> Self {
        Self { model_id: Some(model_id), ..self }
    }

    /// The model this request targets: the explicit id, or 0 (the default
    /// resident model) when no id was set.
    pub fn model(&self) -> u32 {
        self.model_id.unwrap_or(0)
    }

    /// Context length after the last generated token (prompt + generated);
    /// the request's KV cache peaks at this length.
    pub fn final_context_len(&self) -> usize {
        self.prompt_tokens + self.generate_tokens
    }

    /// Peak KV-cache bytes this request will hold on `config`.
    pub fn peak_kv_bytes(&self, config: &TransformerConfig) -> u64 {
        kv_cache_total_bytes(config, self.final_context_len())
    }

    /// KV-cache bytes the prompt alone occupies on `config` — what prefill
    /// produces, and therefore the payload of a prefill→decode KV handoff
    /// when the two phases run on different chips (disaggregated serving).
    pub fn prompt_kv_bytes(&self, config: &TransformerConfig) -> u64 {
        kv_cache_total_bytes(config, self.prompt_tokens)
    }

    /// Validates the request against a model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for a non-finite or negative
    /// arrival time, zero generated tokens, or a prompt/context that the
    /// prefill and decode workload constructors reject.
    pub fn validate(&self, config: &TransformerConfig) -> Result<(), ModelError> {
        if !self.arrival_ms.is_finite() || self.arrival_ms < 0.0 {
            return Err(ModelError::InvalidConfig {
                param: "arrival_ms",
                reason: format!("must be finite and non-negative, got {}", self.arrival_ms),
            });
        }
        if self.generate_tokens == 0 {
            return Err(ModelError::InvalidConfig {
                param: "generate_tokens",
                reason: "must generate at least one token".into(),
            });
        }
        PrefillWorkload::new(config, self.prompt_tokens)?;
        // Validates the deepest decode step (kind, context vs max_seq).
        DecodeWorkload::new(config, self.prompt_tokens, self.generate_tokens)?;
        Ok(())
    }
}

/// Zipf-distributed prompt/output lengths for open-loop trace synthesis.
///
/// Real chat traffic is heavy-tailed: most prompts and completions are
/// short, a few are very long. Lengths are drawn from `min..=max` with
/// rank-`k` probability proportional to `1 / (k+1)^exponent` (rank 0 =
/// `min`), so `min` is the mode and mass decays toward `max`; a larger
/// exponent concentrates more of the traffic at the short end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZipfLengths {
    /// Shortest (and most frequent) prompt length.
    pub prompt_min: usize,
    /// Longest prompt length.
    pub prompt_max: usize,
    /// Shortest (and most frequent) generation length.
    pub generate_min: usize,
    /// Longest generation length.
    pub generate_max: usize,
    /// Zipf exponent shared by both distributions (must be finite and
    /// positive; around 1.0–1.5 matches observed chat mixes).
    pub exponent: f64,
}

impl ZipfLengths {
    /// Validates the ranges and exponent.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero minimums, inverted
    /// ranges, or a non-finite or non-positive exponent.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.prompt_min == 0 || self.generate_min == 0 {
            return Err(ModelError::InvalidConfig {
                param: "zipf_lengths",
                reason: "prompt_min and generate_min must be at least 1".into(),
            });
        }
        if self.prompt_max < self.prompt_min || self.generate_max < self.generate_min {
            return Err(ModelError::InvalidConfig {
                param: "zipf_lengths",
                reason: "max lengths must not be below their minimums".into(),
            });
        }
        // ZipfSampler re-validates, but failing here names the right knob.
        if !self.exponent.is_finite() || self.exponent <= 0.0 {
            return Err(ModelError::InvalidConfig {
                param: "zipf_lengths",
                reason: format!("exponent must be finite and positive, got {}", self.exponent),
            });
        }
        Ok(())
    }
}

/// An ordered set of [`ServeRequest`]s — the input to the serving simulator.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ArrivalTrace {
    /// The requests, in caller order (the simulator sorts by arrival time).
    pub requests: Vec<ServeRequest>,
}

impl ArrivalTrace {
    /// Wraps an explicit request list.
    pub fn new(requests: Vec<ServeRequest>) -> Self {
        Self { requests }
    }

    /// A deterministic open-loop trace: `n` requests with ids `0..n`,
    /// arriving every `spacing_ms`, all with the same prompt/generation
    /// lengths.
    pub fn uniform(
        n: usize,
        spacing_ms: f64,
        prompt_tokens: usize,
        generate_tokens: usize,
    ) -> Self {
        Self {
            requests: (0..n)
                .map(|i| {
                    ServeRequest::new(
                        i as u32,
                        i as f64 * spacing_ms,
                        prompt_tokens,
                        generate_tokens,
                    )
                })
                .collect(),
        }
    }

    /// An open-loop Poisson trace with fixed lengths: `n` requests with ids
    /// `0..n` whose interarrival gaps are exponentially distributed at an
    /// offered load of `rate_per_sec` requests per second, independent of
    /// completions (the harder, more realistic counterpart of a closed-loop
    /// benchmark that waits between requests).
    ///
    /// Deterministic for a given seeded rng state — see the
    /// [module docs](self) for a replay example.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when `rate_per_sec` is not
    /// finite and positive.
    pub fn poisson<R: Rng>(
        n: usize,
        rate_per_sec: f64,
        prompt_tokens: usize,
        generate_tokens: usize,
        rng: &mut R,
    ) -> Result<Self, ModelError> {
        Self::poisson_with(n, rate_per_sec, rng, |_| (prompt_tokens, generate_tokens))
    }

    /// Shared arrival engine of the open-loop generators: Poisson gaps at
    /// `rate_per_sec`, with per-request lengths drawn by `lengths` (the
    /// rng is handed to the closure *after* the gap draw, so fixed- and
    /// sampled-length traces share one arrival stream definition).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when `rate_per_sec` is not
    /// finite and positive.
    fn poisson_with<R: Rng>(
        n: usize,
        rate_per_sec: f64,
        rng: &mut R,
        mut lengths: impl FnMut(&mut R) -> (usize, usize),
    ) -> Result<Self, ModelError> {
        if !rate_per_sec.is_finite() || rate_per_sec <= 0.0 {
            return Err(ModelError::InvalidConfig {
                param: "rate_per_sec",
                reason: format!("must be finite and positive, got {rate_per_sec}"),
            });
        }
        let mut now = 0.0;
        let requests = (0..n)
            .map(|i| {
                // One exponential gap in ms by inverse CDF: u ∈ [0, 1), so
                // 1-u ∈ (0, 1] and the log is finite and non-positive.
                let u: f64 = rng.gen();
                now += -(1.0 - u).ln() / rate_per_sec * 1e3;
                let (prompt, generate) = lengths(rng);
                ServeRequest::new(i as u32, now, prompt, generate)
            })
            .collect();
        Ok(Self { requests })
    }

    /// An open-loop trace combining Poisson arrivals with Zipf-distributed
    /// prompt/output lengths — the full synthetic serving workload
    /// (arrival process from [`ArrivalTrace::poisson`], length mix from
    /// [`ZipfLengths`]). Deterministic for a given seeded rng state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for an invalid rate (see
    /// [`ArrivalTrace::poisson`]) or length configuration (see
    /// [`ZipfLengths::validate`]).
    pub fn open_loop<R: Rng>(
        n: usize,
        rate_per_sec: f64,
        lengths: &ZipfLengths,
        rng: &mut R,
    ) -> Result<Self, ModelError> {
        lengths.validate()?;
        let prompt =
            ZipfSampler::new(lengths.prompt_max - lengths.prompt_min + 1, lengths.exponent)?;
        let generate =
            ZipfSampler::new(lengths.generate_max - lengths.generate_min + 1, lengths.exponent)?;
        Self::poisson_with(n, rate_per_sec, rng, |rng| {
            (lengths.prompt_min + prompt.sample(rng), lengths.generate_min + generate.sample(rng))
        })
    }

    /// Validates every request and checks id uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for duplicate ids and
    /// propagates per-request validation errors.
    pub fn validate(&self, config: &TransformerConfig) -> Result<(), ModelError> {
        let mut ids: Vec<u32> = self.requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(ModelError::InvalidConfig {
                param: "requests",
                reason: "request ids must be unique within a trace".into(),
            });
        }
        for r in &self.requests {
            r.validate(config)?;
        }
        Ok(())
    }

    /// Sum of peak KV-cache bytes over all requests: the budget at which no
    /// eviction can ever be needed even if every session is resident at its
    /// deepest context simultaneously.
    pub fn total_peak_kv_bytes(&self, config: &TransformerConfig) -> u64 {
        self.requests.iter().map(|r| r.peak_kv_bytes(config)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn prefill_validation() {
        let c = presets::opt_125m();
        assert!(PrefillWorkload::new(&c, 512).is_ok());
        assert!(PrefillWorkload::new(&c, 0).is_err());
        assert!(PrefillWorkload::new(&c, 4096).is_err());
    }

    #[test]
    fn decode_context_arithmetic() {
        let c = presets::opt_125m();
        let w = DecodeWorkload::new(&c, 512, 64).unwrap();
        // Paper: predicting the 64th token after 512 prefill → context 575.
        assert_eq!(w.context_len(), 575);
        let w = DecodeWorkload::new(&c, 512, 1).unwrap();
        assert_eq!(w.context_len(), 512);
    }

    #[test]
    fn decode_validation() {
        let c = presets::opt_125m();
        assert!(DecodeWorkload::new(&c, 0, 1).is_err());
        assert!(DecodeWorkload::new(&c, 512, 0).is_err());
        assert!(DecodeWorkload::new(&c, 2048, 64).is_err());
        assert!(DecodeWorkload::new(&presets::deit_s(), 10, 1).is_err());
    }

    #[test]
    fn kv_cache_sizes() {
        let c = presets::opt_125m();
        // 2 × 512 × 768 = 768 KiB per layer.
        assert_eq!(kv_cache_layer_bytes(&c, 512), 2 * 512 * 768);
        assert_eq!(kv_cache_total_bytes(&c, 512), 12 * 2 * 512 * 768);
    }

    #[test]
    fn serve_request_validation() {
        let c = presets::tiny_decoder();
        assert!(ServeRequest::new(0, 0.0, 16, 8).validate(&c).is_ok());
        assert!(ServeRequest::new(0, -1.0, 16, 8).validate(&c).is_err());
        assert!(ServeRequest::new(0, f64::NAN, 16, 8).validate(&c).is_err());
        assert!(ServeRequest::new(0, 0.0, 0, 8).validate(&c).is_err());
        assert!(ServeRequest::new(0, 0.0, 16, 0).validate(&c).is_err());
        // max_seq = 64: a 60-token prompt supports 5 generated tokens
        // (context 64 on the last step) but not 6.
        assert!(ServeRequest::new(0, 0.0, 60, 5).validate(&c).is_ok());
        assert!(ServeRequest::new(0, 0.0, 60, 6).validate(&c).is_err());
        // Vision transformers have no decode stage to serve.
        assert!(ServeRequest::new(0, 0.0, 5, 1).validate(&presets::tiny_vit()).is_err());
    }

    #[test]
    fn serve_request_kv_arithmetic() {
        let c = presets::tiny_decoder();
        let r = ServeRequest::new(3, 1.5, 16, 8);
        assert_eq!(r.final_context_len(), 24);
        assert_eq!(r.peak_kv_bytes(&c), kv_cache_total_bytes(&c, 24));
    }

    #[test]
    fn affinity_hint_defaults_off_and_survives_validation() {
        let c = presets::tiny_decoder();
        let r = ServeRequest::new(3, 0.0, 16, 8);
        assert_eq!(r.affinity, None);
        let sticky = r.with_affinity(7);
        assert_eq!(sticky.affinity, Some(7));
        assert_eq!((sticky.id, sticky.prompt_tokens), (3, 16));
        sticky.validate(&c).unwrap();
    }

    #[test]
    fn pre_affinity_request_json_still_deserializes() {
        // Serialized requests from before the affinity hint existed carry
        // no `affinity` key; `#[serde(default)]` must fill in `None`.
        let legacy = r#"{"id":1,"arrival_ms":0.5,"prompt_tokens":4,"generate_tokens":2}"#;
        let parsed: ServeRequest = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed, ServeRequest::new(1, 0.5, 4, 2));
        assert_eq!(parsed.affinity, None);
        // The round trip of a hinted request keeps the hint.
        let hinted = ServeRequest::new(2, 0.0, 8, 3).with_affinity(9);
        let json = serde_json::to_string(&hinted).unwrap();
        assert_eq!(serde_json::from_str::<ServeRequest>(&json).unwrap(), hinted);
    }

    #[test]
    fn model_id_defaults_off_and_survives_validation() {
        let c = presets::tiny_decoder();
        let r = ServeRequest::new(3, 0.0, 16, 8);
        assert_eq!(r.model_id, None);
        assert_eq!(r.model(), 0);
        let tenant = r.with_model(2);
        assert_eq!(tenant.model_id, Some(2));
        assert_eq!(tenant.model(), 2);
        assert_eq!((tenant.id, tenant.prompt_tokens), (3, 16));
        tenant.validate(&c).unwrap();
        // Pre-tenancy JSON without the key deserializes to None.
        let legacy = r#"{"id":1,"arrival_ms":0.5,"prompt_tokens":4,"generate_tokens":2}"#;
        let parsed: ServeRequest = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.model_id, None);
        let json = serde_json::to_string(&tenant).unwrap();
        assert_eq!(serde_json::from_str::<ServeRequest>(&json).unwrap(), tenant);
    }

    #[test]
    fn poisson_trace_is_seed_deterministic_and_ordered() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = ArrivalTrace::poisson(16, 100.0, 24, 8, &mut StdRng::seed_from_u64(3)).unwrap();
        let b = ArrivalTrace::poisson(16, 100.0, 24, 8, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(a, b, "same seed must replay the same trace");
        let c = ArrivalTrace::poisson(16, 100.0, 24, 8, &mut StdRng::seed_from_u64(4)).unwrap();
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.requests.len(), 16);
        assert!(a.requests.windows(2).all(|w| w[0].arrival_ms <= w[1].arrival_ms));
        assert!(a.requests.iter().all(|r| r.arrival_ms >= 0.0 && r.arrival_ms.is_finite()));
        a.validate(&presets::tiny_decoder()).unwrap();
        // At 100 req/s the mean gap is 10 ms; 16 gaps land within a loose
        // order-of-magnitude envelope around 160 ms.
        let last = a.requests.last().unwrap().arrival_ms;
        assert!(last > 16.0 && last < 1600.0, "implausible makespan {last}");
    }

    #[test]
    fn poisson_rejects_bad_rates() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ArrivalTrace::poisson(4, 0.0, 8, 2, &mut rng).is_err());
        assert!(ArrivalTrace::poisson(4, -5.0, 8, 2, &mut rng).is_err());
        assert!(ArrivalTrace::poisson(4, f64::NAN, 8, 2, &mut rng).is_err());
        assert!(ArrivalTrace::poisson(0, 10.0, 8, 2, &mut rng).unwrap().requests.is_empty());
    }

    #[test]
    fn open_loop_trace_respects_length_bounds_and_skew() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let lengths = ZipfLengths {
            prompt_min: 4,
            prompt_max: 32,
            generate_min: 2,
            generate_max: 16,
            exponent: 1.2,
        };
        let t =
            ArrivalTrace::open_loop(200, 50.0, &lengths, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(t.requests.len(), 200);
        for r in &t.requests {
            assert!((4..=32).contains(&r.prompt_tokens));
            assert!((2..=16).contains(&r.generate_tokens));
        }
        // Zipf skew: the shortest prompt rank dominates any single long one.
        let short = t.requests.iter().filter(|r| r.prompt_tokens == 4).count();
        let long = t.requests.iter().filter(|r| r.prompt_tokens == 32).count();
        assert!(short > long, "rank-0 count {short} should beat tail count {long}");
        let replay =
            ArrivalTrace::open_loop(200, 50.0, &lengths, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(t, replay);
    }

    #[test]
    fn zipf_lengths_validation() {
        let ok = ZipfLengths {
            prompt_min: 1,
            prompt_max: 8,
            generate_min: 1,
            generate_max: 4,
            exponent: 1.0,
        };
        assert!(ok.validate().is_ok());
        assert!(ZipfLengths { prompt_min: 0, ..ok }.validate().is_err());
        assert!(ZipfLengths { generate_min: 0, ..ok }.validate().is_err());
        assert!(ZipfLengths { prompt_max: 0, ..ok }.validate().is_err());
        assert!(ZipfLengths { generate_max: 0, ..ok }.validate().is_err());
        assert!(ZipfLengths { exponent: 0.0, ..ok }.validate().is_err());
        assert!(ZipfLengths { exponent: f64::NAN, ..ok }.validate().is_err());
        // A degenerate single-rank range is legal (fixed lengths).
        assert!(ZipfLengths { prompt_max: 1, generate_max: 1, ..ok }.validate().is_ok());
    }

    #[test]
    fn arrival_trace_uniform_and_validation() {
        let c = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 2.5, 16, 8);
        assert_eq!(trace.requests.len(), 4);
        assert_eq!(trace.requests[3].id, 3);
        assert_eq!(trace.requests[3].arrival_ms, 7.5);
        trace.validate(&c).unwrap();
        assert_eq!(trace.total_peak_kv_bytes(&c), 4 * kv_cache_total_bytes(&c, 24));
        let dup = ArrivalTrace::new(vec![
            ServeRequest::new(1, 0.0, 8, 2),
            ServeRequest::new(1, 1.0, 8, 2),
        ]);
        assert!(dup.validate(&c).is_err());
    }
}
