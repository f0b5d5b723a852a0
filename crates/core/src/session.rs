//! Streaming inference sessions: prefill once, then decode token by token
//! with a growing KV cache.
//!
//! [`MeadowEngine::end_to_end_latency`] integrates decode cost analytically
//! (exact for the linear-in-context TBT model). `InferenceSession` instead
//! *walks* the generation loop step by step, which is what a serving stack
//! on the device would observe: per-token latencies, cumulative time,
//! KV-cache growth and the final tokens/second.
//!
//! One session is also the *reference semantics* of the multi-session
//! scheduler: single-chip [`ServeSpec`](crate::spec::ServeSpec) serving
//! with an unbounded budget reproduces each request's
//! [`SessionTrace::ttft_ms`] and [`SessionTrace::tbt_ms`] bit-for-bit (the
//! `tests/serve_invariants.rs` solo-equivalence contract), so everything
//! the serving layer adds — queueing, batching, paged eviction — is
//! measurable as a delta against this walk.
//!
//! # Examples
//!
//! ```
//! use meadow_core::session::InferenceSession;
//! use meadow_core::{EngineConfig, MeadowEngine};
//! use meadow_models::presets;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
//! let mut session = InferenceSession::start(&engine, 16)?;
//! session.generate(8)?;
//! let trace = session.finish();
//! assert_eq!(trace.tbt_ms.len(), 8);
//! assert!(trace.tbt_is_monotone(), "the KV cache only grows");
//! # Ok(())
//! # }
//! ```

use crate::engine::MeadowEngine;
use crate::error::CoreError;
use meadow_models::workload::KvSizer;
use serde::{Deserialize, Serialize};

/// Which part of a session's lifetime one serving leg covers.
///
/// A session's reference walk is prefill once, then decode token by token
/// (see [`InferenceSession`]). Disaggregated serving
/// ([`Cluster::serve_disaggregated`](crate::cluster::Cluster::serve_disaggregated))
/// may split that walk across chips: the prefill leg runs on one chip, the
/// KV cache hands off over the NoC, and the decode leg resumes on another.
/// `Full` is the colocated default — both phases on one chip — and is what
/// every pre-disaggregation serving path uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SessionPhase {
    /// Prefill and decode both run on this chip (colocated serving).
    #[default]
    Full,
    /// Only the prefill runs here: the leg finishes once the prompt's KV
    /// cache (and first token) are produced, and the cache leaves over the
    /// NoC.
    PrefillOnly,
    /// Only the decode runs here: the session starts already prefilled,
    /// its prompt KV delivered by the handoff, and generates every token.
    DecodeOnly,
}

impl SessionPhase {
    /// Whether a leg of this phase begins with its prompt KV already
    /// present (a decode-only leg resumes a prefill that ran elsewhere,
    /// delivered over the NoC handoff).
    pub fn starts_prefilled(self) -> bool {
        self == SessionPhase::DecodeOnly
    }

    /// Whether a leg of this phase is complete once its prefill step has
    /// produced the prompt KV and first token (the cache then leaves over
    /// the NoC; the disaggregation driver charges the handoff).
    pub fn finishes_at_prefill(self) -> bool {
        self == SessionPhase::PrefillOnly
    }
}

/// Latency trace of one generation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// Prompt length.
    pub prompt_tokens: usize,
    /// TTFT in ms.
    pub ttft_ms: f64,
    /// Per-generated-token latency in ms (index 0 = first generated token).
    pub tbt_ms: Vec<f64>,
    /// KV-cache bytes at the end of generation.
    pub final_kv_bytes: u64,
}

impl SessionTrace {
    /// Total request latency in ms.
    pub fn total_ms(&self) -> f64 {
        self.ttft_ms + self.tbt_ms.iter().sum::<f64>()
    }

    /// Steady-state decode throughput in tokens/second.
    pub fn decode_tokens_per_sec(&self) -> f64 {
        let decode_ms: f64 = self.tbt_ms.iter().sum();
        if decode_ms <= 0.0 {
            return 0.0;
        }
        self.tbt_ms.len() as f64 / (decode_ms / 1e3)
    }

    /// Whether per-token latency is non-decreasing (it must be: the KV cache
    /// only grows).
    ///
    /// Traces with fewer than two tokens are vacuously monotone; any NaN
    /// entry makes the trace non-monotone (NaN would otherwise slip through
    /// the pairwise comparison when it sits in the first window slot).
    pub fn tbt_is_monotone(&self) -> bool {
        if self.tbt_ms.iter().any(|t| t.is_nan()) {
            return false;
        }
        if self.tbt_ms.len() < 2 {
            return true;
        }
        self.tbt_ms.windows(2).all(|w| w[1] >= w[0] - 1e-9)
    }
}

/// A stateful generation session over an engine.
#[derive(Debug, Clone)]
pub struct InferenceSession<'a> {
    engine: &'a MeadowEngine,
    prompt_tokens: usize,
    generated: usize,
    ttft_ms: f64,
    tbt_ms: Vec<f64>,
    /// KV accounting seam: decides how many bytes the final context costs.
    /// [`InferenceSession::start`] uses the dense identity (bit-exact with
    /// the pre-seam `kv_cache_total_bytes`); compressed layouts come in via
    /// [`InferenceSession::start_with_kv`].
    sizer: KvSizer,
}

impl<'a> InferenceSession<'a> {
    /// Starts a session by running the prefill pass, with dense KV
    /// accounting.
    ///
    /// # Errors
    ///
    /// Propagates workload validation and executor errors.
    pub fn start(engine: &'a MeadowEngine, prompt_tokens: usize) -> Result<Self, CoreError> {
        let sizer = KvSizer::dense(&engine.config().model);
        Self::start_with_kv(engine, prompt_tokens, sizer)
    }

    /// Starts a session whose KV bytes are accounted through `sizer`
    /// (layout sharing and/or token-level compression). Latency is
    /// unaffected — only the byte accounting routes through the seam.
    ///
    /// # Errors
    ///
    /// Propagates workload validation and executor errors.
    pub fn start_with_kv(
        engine: &'a MeadowEngine,
        prompt_tokens: usize,
        sizer: KvSizer,
    ) -> Result<Self, CoreError> {
        let ttft = engine.prefill_latency(prompt_tokens)?;
        Ok(Self {
            engine,
            prompt_tokens,
            generated: 0,
            ttft_ms: ttft.total_ms(),
            tbt_ms: Vec::new(),
            sizer,
        })
    }

    /// Tokens generated so far.
    pub fn generated(&self) -> usize {
        self.generated
    }

    /// Current context length (prompt + generated).
    pub fn context_len(&self) -> usize {
        self.prompt_tokens + self.generated
    }

    /// Generates one more token, returning its latency in ms.
    ///
    /// # Errors
    ///
    /// Propagates workload validation errors (e.g. exceeding `max_seq`).
    pub fn step(&mut self) -> Result<f64, CoreError> {
        let tbt = self.engine.decode_latency(self.prompt_tokens, self.generated + 1)?;
        self.generated += 1;
        let ms = tbt.total_ms();
        self.tbt_ms.push(ms);
        Ok(ms)
    }

    /// Generates `n` tokens.
    ///
    /// # Errors
    ///
    /// Propagates step errors (generation stops at the first failure).
    pub fn generate(&mut self, n: usize) -> Result<(), CoreError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Finishes the session, returning its trace.
    pub fn finish(self) -> SessionTrace {
        SessionTrace {
            prompt_tokens: self.prompt_tokens,
            ttft_ms: self.ttft_ms,
            final_kv_bytes: self.sizer.bytes(self.context_len()),
            tbt_ms: self.tbt_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use meadow_models::presets;

    fn engine() -> MeadowEngine {
        MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
    }

    #[test]
    fn session_walks_the_generation_loop() {
        let engine = engine();
        let mut session = InferenceSession::start(&engine, 16).unwrap();
        session.generate(8).unwrap();
        assert_eq!(session.generated(), 8);
        assert_eq!(session.context_len(), 24);
        let trace = session.finish();
        assert_eq!(trace.tbt_ms.len(), 8);
        assert!(trace.total_ms() > trace.ttft_ms);
        assert!(trace.decode_tokens_per_sec() > 0.0);
        assert!(trace.tbt_is_monotone(), "KV growth must not shrink TBT: {:?}", trace.tbt_ms);
        assert_eq!(trace.final_kv_bytes, (2 * 24 * 32 * 2) as u64);
    }

    #[test]
    fn session_respects_max_seq() {
        let engine = engine();
        let mut session = InferenceSession::start(&engine, 60).unwrap();
        // max_seq = 64: the 5th generated token sees context 64 (still
        // provisioned); the 6th would need context 65 and must fail.
        session.generate(5).unwrap();
        assert!(session.step().is_err());
    }

    #[test]
    fn trace_matches_analytic_end_to_end() {
        // The trapezoid integration in `end_to_end_latency` must agree with
        // the walked sum (TBT is linear in context).
        let engine = engine();
        let analytic = engine.end_to_end_latency(16, 8).unwrap();
        let mut session = InferenceSession::start(&engine, 16).unwrap();
        session.generate(8).unwrap();
        let walked = session.finish();
        let rel = (analytic.total_ms - walked.total_ms()).abs() / walked.total_ms();
        assert!(rel < 0.02, "analytic {} vs walked {}", analytic.total_ms, walked.total_ms());
    }

    #[test]
    fn empty_session_trace() {
        let engine = engine();
        let session = InferenceSession::start(&engine, 8).unwrap();
        let trace = session.finish();
        assert!(trace.tbt_ms.is_empty());
        assert_eq!(trace.decode_tokens_per_sec(), 0.0);
        assert!(trace.tbt_is_monotone());
    }

    #[test]
    fn tbt_monotone_edge_cases() {
        let trace = |tbt_ms: Vec<f64>| SessionTrace {
            prompt_tokens: 4,
            ttft_ms: 1.0,
            tbt_ms,
            final_kv_bytes: 0,
        };
        // Empty and single-token traces are vacuously monotone.
        assert!(trace(vec![]).tbt_is_monotone());
        assert!(trace(vec![2.5]).tbt_is_monotone());
        assert!(trace(vec![f64::INFINITY]).tbt_is_monotone());
        // Ordinary cases, including the 1e-9 jitter tolerance.
        assert!(trace(vec![1.0, 1.0, 2.0]).tbt_is_monotone());
        assert!(trace(vec![1.0, 1.0 - 1e-12]).tbt_is_monotone());
        assert!(!trace(vec![2.0, 1.0]).tbt_is_monotone());
        // NaN anywhere poisons the trace, wherever it sits in the windows.
        assert!(!trace(vec![f64::NAN]).tbt_is_monotone());
        assert!(!trace(vec![1.0, f64::NAN]).tbt_is_monotone());
        assert!(!trace(vec![f64::NAN, 1.0, 2.0]).tbt_is_monotone());
    }
}
