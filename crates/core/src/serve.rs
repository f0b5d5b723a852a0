//! Multi-session serving simulator with KV-cache memory accounting.
//!
//! [`InferenceSession`](crate::session::InferenceSession) walks one request
//! at a time; a deployed edge accelerator instead serves many concurrent
//! sessions contending for one KV-cache memory budget. This module holds
//! the per-chip serving loop that runs an [`ArrivalTrace`] of requests
//! through a single [`MeadowEngine`] under a continuous-batching
//! scheduler, and the [`ServeConfig`] and [`ServeReport`] it speaks. Every
//! run enters through the one front door,
//! [`ServeSpec`](crate::spec::ServeSpec), whether it serves one chip, a
//! cluster or a disaggregated fleet. Each tick:
//!
//! * **Admission** is head-of-line in arrival order: a request is admitted
//!   only when its next step's KV cache fits alongside every resident
//!   session's, against an explicit per-chip budget
//!   ([`ServeConfig::kv_budget_bytes`], sized with
//!   [`kv_cache_total_bytes`]). Under
//!   [`AdmissionPolicy::RejectAfter`], requests that out-wait their TTFT
//!   SLO are shed from the queue instead of queueing forever.
//! * **Batching** interleaves prefill and decode steps: the tick pipelines
//!   the batch through the model's layers like a flow shop (stages =
//!   decoder layers, items = per-session steps, via
//!   [`flow_shop_completion_times`]), so the tick costs far less than the
//!   sum of its steps while every step is still measured with the exact
//!   [`MeadowEngine::prefill_latency`]/[`MeadowEngine::decode_latency`]
//!   machinery.
//! * **Eviction** frees residency when the growing caches of admitted
//!   sessions overflow the budget, under a [`KvPolicy`]:
//!   [`KvPolicy::Fifo`]/[`KvPolicy::Lru`] spill a victim session's *whole*
//!   cache, while [`KvPolicy::PagedLru`] peels fixed-size pages off the
//!   stalest session one at a time (see
//!   [`kv_pages`](crate::kv_pages)), moving only the bytes the tick
//!   actually needs. Spills and reloads are charged on the engine's DRAM
//!   channel per page under
//!   [`TrafficClass::KvCache`](meadow_sim::TrafficClass), on top of the
//!   per-step attention traffic.
//!
//! The output is a per-request [`ServeTrace`] (queue wait, TTFT, TBT
//! series, evictions) and an aggregate [`ServeReport`] (p50/p95 latency,
//! tokens/sec, peak KV residency, migration traffic, page-fault and
//! rejection counts, fragmentation). Both are deterministic —
//! bit-identical across `MEADOW_THREADS` settings — and a run with an
//! unbounded budget reproduces exactly the per-token service latencies of
//! independent sessions (the `tests/serve_invariants.rs` contract). With
//! `page_bytes` at least as large as every session's peak cache,
//! `PagedLru` degenerates to whole-cache `Lru` bit-exactly.
//!
//! # Examples
//!
//! Serve an open-loop Poisson trace under a paged KV budget with SLO-aware
//! admission:
//!
//! ```
//! use meadow_core::serve::{AdmissionPolicy, KvPolicy, ServeConfig};
//! use meadow_core::spec::ServeSpec;
//! use meadow_core::{EngineConfig, MeadowEngine};
//! use meadow_models::presets;
//! use meadow_models::workload::ArrivalTrace;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
//! let mut rng = StdRng::seed_from_u64(42);
//! let trace = ArrivalTrace::poisson(6, 2000.0, 16, 8, &mut rng)?;
//! let config = ServeConfig::default()
//!     .with_budget(2 * trace.requests[0].peak_kv_bytes(&presets::tiny_decoder()))
//!     .with_policy(KvPolicy::PagedLru)
//!     .with_page_bytes(1024)
//!     .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 50.0 });
//! let spec = ServeSpec::builder().config(config).build()?;
//! let report = spec.run(&engine, &trace)?.into_single().expect("one chip");
//! assert_eq!(report.requests, 6);
//! assert_eq!(report.total_generated_tokens + 8 * report.rejected_requests, 48);
//! # Ok(())
//! # }
//! ```

use crate::cluster::MigrationCtx;
use crate::engine::{MeadowEngine, StepShape};
use crate::error::CoreError;
use crate::events::{EventQueue, ReadyOrder, StepCache};
use crate::kv_pages::KvPageAllocator;
use crate::session::SessionPhase;
use meadow_dataflow::pipeline::flow_shop_completion_times;
use meadow_dataflow::LayerLatency;
use meadow_models::workload::{kv_cache_total_bytes, ArrivalTrace, KvSizer, ServeRequest};
use meadow_models::{KvCompression, KvLayout, TransformerConfig};
use meadow_sim::{Cycles, DramModel, TrafficClass, TrafficLedger};
use meadow_tensor::parallel::par_map;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Typed rejection of an invalid serving or cluster configuration.
///
/// Construction-time validation (`ServeConfig::validate`,
/// `ClusterConfigBuilder::build`) and the serve entry points return these
/// instead of silently misbehaving, wrapped as
/// [`CoreError::Serve`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// `max_batch == 0`: the scheduler could never step a session.
    ZeroMaxBatch,
    /// [`KvPolicy::PagedLru`] with `page_bytes == 0`: no page to peel.
    ZeroPageBytes,
    /// An [`AdmissionPolicy::RejectAfter`] SLO that is not finite and
    /// non-negative.
    InvalidSlo {
        /// The rejected SLO value.
        ttft_slo_ms: f64,
    },
    /// A cluster with no chips to place sessions on.
    ZeroChips,
    /// A request whose peak KV cache exceeds the per-chip budget on its
    /// own — it could never be admitted.
    RequestExceedsBudget {
        /// Request identifier.
        id: u32,
        /// The request's peak KV-cache bytes.
        peak_bytes: u64,
        /// The configured per-chip budget.
        budget_bytes: u64,
    },
    /// A placement policy routed a request to a chip the cluster does not
    /// have.
    PlacementOutOfRange {
        /// The chip index the policy returned.
        chip: usize,
        /// The number of chips in the cluster.
        chips: usize,
    },
    /// A [`SpecDecode`] configuration with a non-sensical parameter: zero
    /// draft length, an acceptance rate outside `[0, 1]`, or a non-finite
    /// or negative draft cost ratio.
    InvalidSpeculation {
        /// The rejected draft length.
        draft_len: usize,
        /// The rejected acceptance rate.
        acceptance: f64,
        /// The rejected draft cost ratio.
        draft_cost_ratio: f64,
    },
    /// Disaggregated serving routed both a prefill-stage and a
    /// decode-stage leg onto the same chip: the two stages simulate
    /// independently, so one chip cannot host both without double-booking
    /// its timeline. Phase placements must keep the pools disjoint.
    PhaseOverlap {
        /// The chip that received legs from both stages.
        chip: usize,
    },
    /// A [`KvLayout`]/[`KvCompression`] combination that is structurally
    /// invalid (zero `kv_heads`, zero `window`, a `keep_ratio` outside
    /// `(0, 1]`) or incompatible with the model (`kv_heads` must divide
    /// the model's head count).
    InvalidKvLayout {
        /// Why the layout was rejected.
        reason: String,
    },
    /// `weight_budget_bytes == Some(0)`: a zero weight budget could never
    /// hold any model's weights, so no request could ever step. Leave the
    /// budget `None` to keep weight-residency modeling off instead.
    ZeroWeightBudget,
    /// A weight budget smaller than one model's weights: even an empty
    /// chip could never finish streaming a model in, so no request could
    /// ever run.
    WeightBudgetTooSmall {
        /// The configured weight budget.
        budget_bytes: u64,
        /// One model's total weight bytes on this engine.
        weight_bytes: u64,
    },
    /// A request targets a model other than the default model 0 while
    /// weight-residency modeling is off (no weight budget): without a
    /// budget the chip permanently holds exactly one resident model, so
    /// other model ids are unservable.
    UnknownModel {
        /// The model id the request asked for.
        model_id: u32,
    },
    /// `chip_specs` was given an empty list: a heterogeneous cluster still
    /// needs at least one chip spec.
    EmptyChipSpecs,
    /// Both `chip_specs` and `chips(n)` were set with disagreeing counts —
    /// the two are mutually exclusive ways of sizing the cluster.
    ChipSpecCountMismatch {
        /// Number of per-chip engine specs.
        specs: usize,
        /// The explicitly requested chip count.
        chips: usize,
    },
    /// One per-chip engine spec could not build a valid engine (bad
    /// bandwidth, invalid chip geometry) or disagrees with the other specs
    /// on the model architecture (a cluster serves one model; chips differ
    /// in speed, not in what they run).
    InvalidChipSpec {
        /// Index of the offending spec.
        chip: usize,
        /// Why it was rejected.
        reason: String,
    },
    /// Per-link NoC hop costs whose length does not match the cluster's
    /// linear interconnect (`chips - 1` links between adjacent chips).
    InvalidLinkHops {
        /// Number of link costs provided.
        got: usize,
        /// Number of links the cluster has.
        expected: usize,
    },
    /// The capacity planner exhausted its chip budget without meeting the
    /// SLO: even the largest allowed fleet missed the p95 TTFT target (or
    /// the rejection-rate cap).
    InfeasibleSlo {
        /// The p95 TTFT target, in ms.
        p95_ttft_ms: f64,
        /// The largest fleet size the planner was allowed to probe.
        max_chips: usize,
        /// The best p95 TTFT any probed fleet achieved, in ms.
        best_p95_ms: f64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::ZeroMaxBatch => {
                write!(f, "max_batch must step at least one session per tick")
            }
            ServeError::ZeroPageBytes => write!(f, "PagedLru needs a non-zero page size"),
            ServeError::InvalidSlo { ttft_slo_ms } => {
                write!(f, "ttft_slo_ms must be finite and non-negative, got {ttft_slo_ms}")
            }
            ServeError::ZeroChips => write!(f, "a cluster needs at least one chip"),
            ServeError::RequestExceedsBudget { id, peak_bytes, budget_bytes } => write!(
                f,
                "request {id} needs {peak_bytes} KV bytes alone, per-chip budget is {budget_bytes}"
            ),
            ServeError::PlacementOutOfRange { chip, chips } => {
                write!(f, "placement routed a request to chip {chip} of a {chips}-chip cluster")
            }
            ServeError::InvalidSpeculation { draft_len, acceptance, draft_cost_ratio } => write!(
                f,
                "speculation needs draft_len >= 1, acceptance in [0, 1] and a finite \
                 non-negative draft_cost_ratio, got ({draft_len}, {acceptance}, \
                 {draft_cost_ratio})"
            ),
            ServeError::PhaseOverlap { chip } => write!(
                f,
                "phase placement routed both prefill-stage and decode-stage legs to chip {chip}; \
                 the stage pools must be disjoint"
            ),
            ServeError::InvalidKvLayout { reason } => {
                write!(f, "invalid KV layout: {reason}")
            }
            ServeError::ZeroWeightBudget => {
                write!(f, "a zero weight budget cannot hold any model; leave it unset instead")
            }
            ServeError::WeightBudgetTooSmall { budget_bytes, weight_bytes } => write!(
                f,
                "weight budget {budget_bytes} cannot hold a single model's {weight_bytes} \
                 weight bytes"
            ),
            ServeError::UnknownModel { model_id } => write!(
                f,
                "request targets model {model_id} but the chip serves only the resident model 0; \
                 set a weight budget to enable multi-model tenancy"
            ),
            ServeError::EmptyChipSpecs => {
                write!(f, "chip_specs needs at least one per-chip engine spec")
            }
            ServeError::ChipSpecCountMismatch { specs, chips } => write!(
                f,
                "chip_specs lists {specs} chips but chips({chips}) was also set; size the \
                 cluster with one of them, not both"
            ),
            ServeError::InvalidChipSpec { chip, reason } => {
                write!(f, "chip spec {chip} is invalid: {reason}")
            }
            ServeError::InvalidLinkHops { got, expected } => write!(
                f,
                "link hop costs cover {got} links but the cluster's linear interconnect has \
                 {expected}"
            ),
            ServeError::InfeasibleSlo { p95_ttft_ms, max_chips, best_p95_ms } => write!(
                f,
                "no fleet of up to {max_chips} chips meets p95 TTFT <= {p95_ttft_ms} ms; best \
                 probed fleet achieved {best_p95_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Eviction policy for the serving KV-cache pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KvPolicy {
    /// Evict the session (re)admitted longest ago, spilling its whole cache.
    Fifo,
    /// Evict the session stepped longest ago, spilling its whole cache.
    Lru,
    /// Evict at page granularity: peel [`ServeConfig::page_bytes`]-sized
    /// pages off the least recently stepped session until the tick fits,
    /// instead of spilling whole caches (see [`crate::kv_pages`]).
    PagedLru,
}

/// What happens to requests the budget cannot admit yet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Queue head-of-line until the budget has room (possibly forever on an
    /// overloaded chip).
    #[default]
    Queue,
    /// Shed load: a request still waiting for its *first* admission after
    /// `ttft_slo_ms` on the serving clock is rejected — it can no longer
    /// meet its time-to-first-token SLO, so the scheduler stops spending
    /// budget on it. Already-admitted sessions are never shed.
    RejectAfter {
        /// TTFT service-level objective in milliseconds.
        ttft_slo_ms: f64,
    },
}

/// Speculative-decoding model for the per-tick scheduler: a draft model
/// proposes `draft_len` tokens per verify round and the target engine
/// verifies them in one memory-bound pass.
///
/// The scheduler models the *cost* side of speculation deterministically
/// (no RNG, so reports stay bit-identical across runs and threads). Each
/// decode step is one verify round; drafting is pipelined into the verify
/// pass's memory-bound shadow, so an **accepted** round costs exactly the
/// baseline decode step. Misses are charged through a per-session credit
/// accumulator: every round adds `1 - acceptance` of a miss, and whenever
/// the credit reaches one, a *flush* fires — the wasted draft work
/// (`draft_len × draft_cost_ratio` of the step's own cycles) is charged to
/// the step like a KV reload, landing in its TBT and the tick makespan.
///
/// `acceptance == 1.0` therefore never accumulates credit and degenerates
/// **bit-exactly** to the baseline decode loop — the contract
/// `tests/disagg_invariants.rs` pins.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpecDecode {
    /// Tokens the draft model proposes per verify round (at least 1).
    pub draft_len: usize,
    /// Probability a verify round accepts its whole draft, in `[0, 1]`;
    /// applied as a deterministic per-round miss credit, not sampled.
    pub acceptance: f64,
    /// Cost of drafting one token relative to a target decode step (e.g.
    /// 0.3 for a draft model ~3× smaller); only *wasted* draft work is
    /// charged, on flush.
    pub draft_cost_ratio: f64,
}

impl SpecDecode {
    /// Validates the speculation parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidSpeculation`] for a zero draft length,
    /// an acceptance rate outside `[0, 1]`, or a non-finite or negative
    /// draft cost ratio.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad_acceptance =
            !self.acceptance.is_finite() || !(0.0..=1.0).contains(&self.acceptance);
        let bad_ratio = !self.draft_cost_ratio.is_finite() || self.draft_cost_ratio < 0.0;
        if self.draft_len == 0 || bad_acceptance || bad_ratio {
            return Err(ServeError::InvalidSpeculation {
                draft_len: self.draft_len,
                acceptance: self.acceptance,
                draft_cost_ratio: self.draft_cost_ratio,
            });
        }
        Ok(())
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Per-chip KV-cache memory budget in bytes (`None` = unbounded). Every
    /// request's peak KV cache must fit the budget on its own.
    pub kv_budget_bytes: Option<u64>,
    /// Eviction policy when resident caches overflow the budget.
    pub policy: KvPolicy,
    /// Maximum sessions stepped per scheduler tick (continuous-batching
    /// batch size). Admitted sessions beyond the cap stay resident but
    /// idle; the least recently stepped sessions are scheduled first.
    pub max_batch: usize,
    /// Admission behavior for requests the budget keeps waiting.
    pub admission: AdmissionPolicy,
    /// Page size for [`KvPolicy::PagedLru`] spill/reload granularity, in
    /// bytes (ignored by the whole-cache policies).
    pub page_bytes: u64,
    /// Speculative-decoding cost model (`None` = plain autoregressive
    /// decode). Missing from pre-speculation serialized configs, so old
    /// JSON still deserializes.
    #[serde(default)]
    pub speculation: Option<SpecDecode>,
    /// Physical KV-cache layout every session's byte accounting uses
    /// ([`KvLayout::Dense`] = today's full-length caches, bit-identical to
    /// the pre-seam scheduler). Missing from pre-layout serialized
    /// configs, so old JSON still deserializes.
    #[serde(default)]
    pub kv_layout: KvLayout,
    /// Token-level KV eviction model layered on the layout
    /// ([`KvCompression::None`] = keep every resident token). Missing from
    /// pre-compression serialized configs, so old JSON still deserializes.
    #[serde(default)]
    pub kv_compression: KvCompression,
    /// Per-chip model-weight budget in bytes — the single switch for
    /// weight-residency modeling. `None` (the default) keeps every model
    /// permanently resident for free, bit-identical to the pre-residency
    /// scheduler; `Some(b)` starts the chip cold (no weights on chip), and
    /// every model load streams through the DRAM channel under
    /// [`TrafficClass::Weights`](meadow_sim::TrafficClass), with LRU model
    /// eviction when a new model's weights must fit. Missing from
    /// pre-residency serialized configs, so old JSON still deserializes.
    #[serde(default)]
    pub weight_budget_bytes: Option<u64>,
    /// Cold-load cost model when weight-residency modeling is on: `false`
    /// (the default) stalls the cold step for the full sequential weight
    /// load; `true` overlaps each layer's compute with the next layer's
    /// load (EdgeFlow-style per-layer streaming), so the cold step pays
    /// `max(load pipeline, compute pipeline)` instead of their sum. The
    /// ledger bytes are identical either way — only the stall differs.
    /// Ignored (and harmless) without a weight budget.
    #[serde(default)]
    pub weight_streaming: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            kv_budget_bytes: None,
            policy: KvPolicy::Fifo,
            max_batch: usize::MAX,
            admission: AdmissionPolicy::Queue,
            page_bytes: Self::DEFAULT_PAGE_BYTES,
            speculation: None,
            kv_layout: KvLayout::Dense,
            kv_compression: KvCompression::None,
            weight_budget_bytes: None,
            weight_streaming: false,
        }
    }
}

impl ServeConfig {
    /// Default [`ServeConfig::page_bytes`]: 16 KiB, a few decode steps'
    /// worth of KV growth on an OPT-125M-class model.
    pub const DEFAULT_PAGE_BYTES: u64 = 16 << 10;

    /// Unbounded KV budget (no eviction can occur).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// The same configuration with a finite KV budget.
    pub fn with_budget(self, kv_budget_bytes: u64) -> Self {
        Self { kv_budget_bytes: Some(kv_budget_bytes), ..self }
    }

    /// The same configuration with a different eviction policy.
    pub fn with_policy(self, policy: KvPolicy) -> Self {
        Self { policy, ..self }
    }

    /// The same configuration with a batch-size cap.
    pub fn with_max_batch(self, max_batch: usize) -> Self {
        Self { max_batch, ..self }
    }

    /// The same configuration with a different admission policy.
    pub fn with_admission(self, admission: AdmissionPolicy) -> Self {
        Self { admission, ..self }
    }

    /// The same configuration with a different [`KvPolicy::PagedLru`] page
    /// size.
    pub fn with_page_bytes(self, page_bytes: u64) -> Self {
        Self { page_bytes, ..self }
    }

    /// The same configuration with a speculative-decoding cost model.
    pub fn with_speculation(self, speculation: SpecDecode) -> Self {
        Self { speculation: Some(speculation), ..self }
    }

    /// The same configuration with a different KV-cache layout.
    pub fn with_kv_layout(self, kv_layout: KvLayout) -> Self {
        Self { kv_layout, ..self }
    }

    /// The same configuration with a token-level KV compression model.
    pub fn with_kv_compression(self, kv_compression: KvCompression) -> Self {
        Self { kv_compression, ..self }
    }

    /// The same configuration with a finite per-chip model-weight budget,
    /// turning on weight-residency modeling (cold starts, streamed loads,
    /// LRU model eviction).
    pub fn with_weight_budget(self, weight_budget_bytes: u64) -> Self {
        Self { weight_budget_bytes: Some(weight_budget_bytes), ..self }
    }

    /// The same configuration with per-layer streamed (overlapped) cold
    /// weight loads instead of a sequential load stall. Only meaningful
    /// together with [`ServeConfig::with_weight_budget`].
    pub fn with_weight_streaming(self, weight_streaming: bool) -> Self {
        Self { weight_streaming, ..self }
    }

    /// Construction-time validation: rejects a zero `max_batch`, a zero
    /// `page_bytes` under [`KvPolicy::PagedLru`], and a non-finite or
    /// negative [`AdmissionPolicy::RejectAfter`] SLO with a typed
    /// [`ServeError`]. The cluster builder (`ClusterConfigBuilder::build`,
    /// and so [`ServeSpecBuilder::build`](crate::spec::ServeSpecBuilder::build))
    /// calls this, so a bad configuration fails loudly at the seam instead
    /// of misbehaving mid-run.
    ///
    /// # Errors
    ///
    /// Returns the first [`ServeError`] the configuration violates.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::ZeroMaxBatch);
        }
        if self.policy == KvPolicy::PagedLru && self.page_bytes == 0 {
            return Err(ServeError::ZeroPageBytes);
        }
        if let AdmissionPolicy::RejectAfter { ttft_slo_ms } = self.admission {
            if !ttft_slo_ms.is_finite() || ttft_slo_ms < 0.0 {
                return Err(ServeError::InvalidSlo { ttft_slo_ms });
            }
        }
        if let Some(spec) = self.speculation {
            spec.validate()?;
        }
        match self.kv_layout {
            KvLayout::GroupedHeads { kv_heads: 0 } => {
                return Err(ServeError::InvalidKvLayout {
                    reason: "GroupedHeads needs at least one kv head".into(),
                });
            }
            KvLayout::SlidingWindow { window: 0, .. } => {
                return Err(ServeError::InvalidKvLayout {
                    reason: "SlidingWindow needs a window of at least one token".into(),
                });
            }
            _ => {}
        }
        if let KvCompression::VedaVote { keep_ratio } = self.kv_compression {
            if !keep_ratio.is_finite() || keep_ratio <= 0.0 || keep_ratio > 1.0 {
                return Err(ServeError::InvalidKvLayout {
                    reason: format!("VedaVote keep_ratio must be in (0, 1], got {keep_ratio}"),
                });
            }
        }
        if self.weight_budget_bytes == Some(0) {
            return Err(ServeError::ZeroWeightBudget);
        }
        Ok(())
    }
}

/// Builds the [`KvSizer`] a serving run accounts KV bytes with, mapping
/// model incompatibility (e.g. `kv_heads` not dividing the model's head
/// count) to a typed [`ServeError::InvalidKvLayout`].
pub(crate) fn kv_sizer(
    model: &TransformerConfig,
    config: &ServeConfig,
) -> Result<KvSizer, ServeError> {
    KvSizer::new(model, config.kv_layout, config.kv_compression)
        .map_err(|e| ServeError::InvalidKvLayout { reason: e.to_string() })
}

/// Serving-side record of one completed (or rejected) request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeTrace {
    /// Request identifier.
    pub id: u32,
    /// Prompt length.
    pub prompt_tokens: usize,
    /// Tokens generated (the requested count, or zero when rejected).
    pub generated_tokens: usize,
    /// Arrival time on the serving clock, in ms.
    pub arrival_ms: f64,
    /// Whether admission shed this request
    /// ([`AdmissionPolicy::RejectAfter`]); a rejected trace generates no
    /// tokens and its latency fields stay zero.
    pub rejected: bool,
    /// Arrival → first admission (or rejection), in ms.
    pub queue_wait_ms: f64,
    /// Own prefill service latency in ms — comparable to
    /// [`SessionTrace::ttft_ms`](crate::session::SessionTrace) and
    /// independent of batching.
    pub prefill_ms: f64,
    /// Wall-clock time the first token completed, in ms.
    pub first_token_ms: f64,
    /// Wall-clock time the last token completed, in ms.
    pub finish_ms: f64,
    /// Own per-token service latency in ms, including KV reload penalties
    /// after eviction (index 0 = first generated token).
    pub tbt_ms: Vec<f64>,
    /// Times this session was evicted (demoted from the scheduled set;
    /// under `PagedLru` its pages then spill lazily, page by page).
    pub evictions: u32,
    /// KV-cache bytes at the end of generation (zero when rejected).
    pub final_kv_bytes: u64,
    /// Whether this request's prefill paid a cold-start weight load (its
    /// model was not resident when the prefill stepped). `Some` only when
    /// weight-residency modeling is on, and omitted from the serialized
    /// JSON otherwise, so pre-residency reports stay byte-stable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cold_start: Option<bool>,
}

impl ServeTrace {
    /// Arrival → last token, in ms (what the user experienced).
    pub fn total_latency_ms(&self) -> f64 {
        self.finish_ms - self.arrival_ms
    }

    /// Arrival → first token, in ms (the serving-side TTFT: queue wait plus
    /// batched prefill completion).
    pub fn ttft_ms(&self) -> f64 {
        self.first_token_ms - self.arrival_ms
    }
}

/// KV layout/compression accounting of one serving run, attached to
/// [`ServeReport::kv`] (and aggregated into `ClusterReport::kv`) whenever
/// the run used a non-dense layout or token-level compression. Absent —
/// and absent from the serialized JSON — for dense uncompressed runs, so
/// every pre-seam report stays byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvSummary {
    /// KV-cache layout the run accounted with.
    pub layout: KvLayout,
    /// Token-level compression model the run accounted with.
    pub compression: KvCompression,
    /// Context-length-weighted mean of the per-request retained attention
    /// mass over completed requests, in `[0, 1]` (1.0 when nothing
    /// completed) — the accuracy proxy reported alongside latency.
    pub retained_attention_mass: f64,
    /// Final KV bytes the completed requests would have occupied under a
    /// dense full-length layout.
    pub dense_final_kv_bytes: u64,
    /// Final KV bytes they actually occupied under this layout/compression.
    pub final_kv_bytes: u64,
}

/// Weight-residency accounting of one serving run, attached to
/// [`ServeReport::weights`] (and aggregated into `ClusterReport::weights`)
/// whenever the run declared a weight budget. Absent — and absent from the
/// serialized JSON — otherwise, so every pre-residency report stays
/// byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightSummary {
    /// The per-chip weight budget the run enforced.
    pub weight_budget_bytes: u64,
    /// Whether cold loads streamed per layer (overlapped with compute).
    pub streaming: bool,
    /// Distinct models the trace requested.
    pub models: usize,
    /// One model's total weight bytes on this engine.
    pub model_weight_bytes: u64,
    /// Total weight bytes streamed on chip
    /// ([`TrafficClass::Weights`](meadow_sim::TrafficClass)) — exactly
    /// `weight_loads × model_weight_bytes`.
    pub weight_bytes: u64,
    /// Model load events: cold starts plus re-streams after eviction.
    pub weight_loads: u64,
    /// Residency churn: models evicted to make room for another's weights.
    pub weight_evictions: u64,
    /// Completed requests whose prefill paid a cold-start weight load.
    pub cold_requests: u64,
    /// TTFT percentiles over completed cold-start requests.
    pub cold_ttft: LatencySummary,
    /// TTFT percentiles over completed warm requests.
    pub warm_ttft: LatencySummary,
}

/// Aggregate result of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Eviction policy used.
    pub policy: KvPolicy,
    /// Admission policy used.
    pub admission: AdmissionPolicy,
    /// KV budget in bytes (`None` = unbounded).
    pub kv_budget_bytes: Option<u64>,
    /// Page size configured for [`KvPolicy::PagedLru`].
    pub page_bytes: u64,
    /// Batch-size cap used.
    pub max_batch: usize,
    /// Number of requests in the trace (completed + rejected).
    pub requests: usize,
    /// Requests shed by [`AdmissionPolicy::RejectAfter`].
    pub rejected_requests: u64,
    /// Total tokens generated across all completed requests.
    pub total_generated_tokens: u64,
    /// Scheduler ticks executed.
    pub ticks: u64,
    /// Wall-clock end of the run on the serving clock, in ms.
    pub makespan_ms: f64,
    /// Generated-token throughput over the whole run.
    pub tokens_per_sec: f64,
    /// Median completed-request latency (arrival → last token), in ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile completed-request latency, in ms.
    pub p95_latency_ms: f64,
    /// Peak simultaneous KV-cache residency in bytes.
    pub peak_kv_bytes: u64,
    /// Total session evictions: how many times a session lost its
    /// residency in the scheduled set. Under `PagedLru` the eviction is
    /// counted at demotion — the pages themselves spill lazily afterwards
    /// (possibly never, if the pressure passes), tracked separately in
    /// [`ServeReport::total_page_spills`].
    pub total_evictions: u64,
    /// Pages written out by `PagedLru` eviction (zero for the whole-cache
    /// policies, which account whole spills under
    /// [`ServeReport::total_evictions`]).
    pub total_page_spills: u64,
    /// Pages read back by `PagedLru` before a step could run.
    pub total_page_faults: u64,
    /// Peak internal fragmentation under `PagedLru`: bytes reserved in
    /// partially filled tail pages that hold no KV data (zero for the
    /// whole-cache policies).
    pub kv_frag_peak_bytes: u64,
    /// DRAM traffic of the whole run: per-step fetch/compute/store classes
    /// plus serving-level
    /// [`TrafficClass::KvCache`](meadow_sim::TrafficClass) migration.
    pub ledger: TrafficLedger,
    /// KV layout/compression accounting — `Some` only when the run used a
    /// non-dense layout or token-level compression, and omitted from the
    /// serialized JSON otherwise (pre-seam reports stay byte-stable).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kv: Option<KvSummary>,
    /// Weight-residency accounting — `Some` only when the run declared a
    /// weight budget, and omitted from the serialized JSON otherwise
    /// (pre-residency reports stay byte-stable).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub weights: Option<WeightSummary>,
    /// Per-request traces, in the input trace's request order.
    pub traces: Vec<ServeTrace>,
}

impl ServeReport {
    /// Looks up a trace by request id.
    pub fn trace(&self, id: u32) -> Option<&ServeTrace> {
        self.traces.iter().find(|t| t.id == id)
    }

    /// Pretty JSON for artifacts and golden snapshots.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors from the vendored serde_json.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// Scheduler-internal state of one request.
#[derive(Debug, Clone)]
struct Session {
    req: ServeRequest,
    /// Which part of the request's lifetime this leg simulates.
    phase: SessionPhase,
    generated: usize,
    prefilled: bool,
    /// Decode-only legs start with their prompt KV already delivered (the
    /// handoff charged it on the NoC); the first paged admission loads it
    /// without a DRAM fault.
    kv_preloaded: bool,
    /// Deterministic speculative-decoding miss credit: grows by
    /// `1 - acceptance` per verify round, flushes at 1.0.
    spec_miss_credit: f64,
    rejected: bool,
    evictions: u32,
    /// Sequence number of the most recent (re)admission.
    admission_seq: u64,
    /// Tick of the most recent step (0 = never stepped).
    last_step_tick: u64,
    /// Set at first admission (or at rejection).
    queue_wait_ms: Option<f64>,
    /// Whole-cache mode: KV bytes spilled at the last eviction, to reload
    /// on re-admission.
    spilled_kv_bytes: u64,
    /// Whole-cache mode: KV bytes to reload before the next step.
    pending_reload_bytes: u64,
    /// Paged mode: logical KV bytes whose page frames are currently held
    /// (residency the budget accounts; page-aligned except when fully
    /// resident).
    held_bytes: u64,
    /// Paged mode: prefix of the KV data that is physically on chip
    /// (`loaded <= held`; the `[loaded, kv)` suffix is off chip awaiting
    /// reload).
    loaded_bytes: u64,
    prefill_ms: f64,
    first_token_ms: f64,
    finish_ms: f64,
    tbt_ms: Vec<f64>,
    /// The prefill step paid a cold-start weight load (weight-residency
    /// modeling only; later re-streams at decode count as churn, not
    /// coldness).
    cold_start: bool,
}

impl Session {
    fn new(req: ServeRequest, phase: SessionPhase) -> Self {
        Self {
            req,
            phase,
            generated: 0,
            // A decode-only leg resumes a prefill that already ran
            // elsewhere: its prompt KV is logically present from the start.
            prefilled: phase.starts_prefilled(),
            kv_preloaded: phase.starts_prefilled(),
            spec_miss_credit: 0.0,
            rejected: false,
            evictions: 0,
            admission_seq: 0,
            last_step_tick: 0,
            queue_wait_ms: None,
            spilled_kv_bytes: 0,
            pending_reload_bytes: 0,
            held_bytes: 0,
            loaded_bytes: 0,
            prefill_ms: 0.0,
            first_token_ms: 0.0,
            finish_ms: 0.0,
            tbt_ms: Vec::new(),
            cold_start: false,
        }
    }

    /// Logical KV bytes the session's processed tokens occupy (prompt +
    /// generated so far; nothing before prefill), under the run's KV
    /// layout/compression.
    fn kv_bytes(&self, sizer: &KvSizer) -> u64 {
        if self.prefilled {
            sizer.bytes(self.req.prompt_tokens + self.generated)
        } else {
            0
        }
    }

    /// KV bytes the session will hold after its next step (prefill writes
    /// the whole prompt's keys/values; each decode step appends one token).
    fn next_kv(&self, sizer: &KvSizer) -> u64 {
        if self.prefilled {
            sizer.bytes(self.req.prompt_tokens + self.generated + 1)
        } else {
            sizer.bytes(self.req.prompt_tokens)
        }
    }

    fn victim_key(&self, policy: KvPolicy) -> (u64, u64, u32) {
        match policy {
            KvPolicy::Fifo => (self.admission_seq, self.last_step_tick, self.req.id),
            KvPolicy::Lru | KvPolicy::PagedLru => {
                (self.last_step_tick, self.admission_seq, self.req.id)
            }
        }
    }
}

/// Nearest-rank percentile of a sorted sample (0 for an empty one).
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[idx - 1]
}

/// Latency percentiles of one sample population, computed by this single
/// shared helper everywhere the serving stack reports them (per-chip
/// serve, cluster aggregation, disaggregated TTFT/pace summaries) so the
/// semantics — nearest-rank percentiles over a `total_cmp`-sorted sample,
/// zero for an empty one — cannot drift between the three paths.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median (nearest-rank p50), in ms.
    pub p50_ms: f64,
    /// Nearest-rank 95th percentile, in ms.
    pub p95_ms: f64,
}

impl LatencySummary {
    /// Summarizes a sample, sorting it internally (`total_cmp`, so NaN
    /// cannot poison the order).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self::from_sorted(&samples)
    }

    /// Summarizes an already-sorted sample.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        Self { p50_ms: percentile(sorted, 0.5), p95_ms: percentile(sorted, 0.95) }
    }
}

/// Charges one KV-cache spill, preferring cross-chip migration when a
/// cluster [`MigrationCtx`] accepts the bytes and falling back to the
/// chip's DRAM channel ([`DramModel::transfer_kv_cache`]) otherwise. With
/// no migration context this is exactly the single-chip spill arithmetic.
fn charge_spill(
    dram: &mut DramModel,
    migration: &mut Option<&mut MigrationCtx<'_>>,
    session: u32,
    bytes: u64,
    granularity: Option<u64>,
) -> Cycles {
    if let Some(ctx) = migration.as_deref_mut() {
        if let Some(cycles) = ctx.park(session, bytes) {
            return cycles;
        }
    }
    dram.transfer_kv_cache(bytes, granularity)
}

/// Charges one KV-cache reload: bytes parked on a remote chip come back
/// over the cluster NoC first, the rest from DRAM.
fn charge_reload(
    dram: &mut DramModel,
    migration: &mut Option<&mut MigrationCtx<'_>>,
    session: u32,
    bytes: u64,
    granularity: Option<u64>,
) -> Cycles {
    let mut cycles = Cycles::ZERO;
    let mut rest = bytes;
    if let Some(ctx) = migration.as_deref_mut() {
        let (noc_cycles, pulled) = ctx.pull_back(session, bytes);
        cycles += noc_cycles;
        rest -= pulled;
    }
    if rest > 0 {
        cycles += dram.transfer_kv_cache(rest, granularity);
    }
    cycles
}

/// Residency state of one model's weights on a chip (`ChipNode`'s weight
/// state machine, materialized per run by the serving loop exactly like
/// the per-run KV state):
///
/// ```text
///            load layer 0..L             last layer lands
/// Evicted ───────────────────▶ Streaming { layers_loaded } ───▶ Resident
///    ▲                                                             │
///    └──────────────── LRU eviction (free: read-only) ◀────────────┘
/// ```
///
/// Every model starts `Evicted` (a cold chip holds no weights); a load
/// walks `Streaming { layers_loaded: 0..layers }` while each layer's bytes
/// stream in over DRAM, and eviction writes nothing back — weights are
/// read-only, so dropping them only costs the eventual re-stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeightResidency {
    /// Every layer's weights are on chip.
    Resident,
    /// A load is in flight: layers `0..layers_loaded` have landed.
    Streaming {
        /// Layers already on chip.
        layers_loaded: usize,
    },
    /// No weights on chip (the initial state, and the post-eviction one).
    Evicted,
}

impl WeightResidency {
    /// Whether the model's weights are usable (fully resident or currently
    /// streaming in for the step that triggered the load).
    fn holds_weights(self) -> bool {
        !matches!(self, WeightResidency::Evicted)
    }
}

/// Completion time of a cold start whose per-layer weight loads overlap
/// the compute pipeline (EdgeFlow-style): layer `l`'s compute may begin
/// once its weights have landed *and* layer `l-1` has finished, so
///
/// ```text
/// finish[l] = max(finish[l-1], load[0] + … + load[l]) + compute[l]
/// ```
///
/// and the cold step costs `max(load pipeline, compute pipeline)`-ish
/// rather than their sum: the result is at least `Σ load` and at least
/// `Σ compute`, and at most `Σ load + Σ compute`. Zero-latency loads make
/// it exactly the warm compute time — the streamed-equals-resident
/// degeneracy. Mismatched lengths treat the missing entries as zero.
pub fn pipelined_cold_finish(load: &[Cycles], compute: &[Cycles]) -> Cycles {
    let layers = load.len().max(compute.len());
    let mut load_prefix = 0u64;
    let mut finish = 0u64;
    for l in 0..layers {
        load_prefix += load.get(l).map_or(0, |c| c.get());
        finish = finish.max(load_prefix) + compute.get(l).map_or(0, |c| c.get());
    }
    Cycles(finish)
}

/// Slot of one model in a chip's [`WeightSet`].
#[derive(Debug, Clone, Copy)]
struct ModelSlot {
    residency: WeightResidency,
    /// Monotone last-use sequence number (strict LRU victim order).
    use_seq: u64,
}

/// Per-run weight-residency tracker: the budgeted set of models whose
/// weights are on chip, with strict-LRU eviction and per-layer load
/// charging through the chip's DRAM channel, driven in step order.
struct WeightSet {
    budget_bytes: u64,
    streaming: bool,
    layers: usize,
    layer_bytes: u64,
    model_bytes: u64,
    slots: BTreeMap<u32, ModelSlot>,
    use_seq: u64,
    resident_bytes: u64,
    loads: u64,
    evictions: u64,
}

impl WeightSet {
    /// Builds the tracker for a run, or `None` when the config declares no
    /// weight budget (modeling off: the chip's one model is permanently
    /// resident for free).
    fn for_run(config: &ServeConfig, model: &TransformerConfig) -> Option<Self> {
        let budget_bytes = config.weight_budget_bytes?;
        Some(Self {
            budget_bytes,
            streaming: config.weight_streaming,
            layers: model.layers,
            layer_bytes: model.layer_weight_bytes(),
            model_bytes: model.total_weight_bytes(),
            slots: BTreeMap::new(),
            use_seq: 0,
            resident_bytes: 0,
            loads: 0,
            evictions: 0,
        })
    }

    /// Makes `model_id`'s weights resident for a step whose per-layer
    /// compute row is `compute`, returning the stall the step must absorb
    /// before its first layer and whether a load happened (a cold start
    /// for the stepping session). A hit only refreshes the LRU sequence; a
    /// miss evicts least-recently-used models until the new one fits, then
    /// streams every layer through the DRAM channel — the stall is the
    /// full sequential load, or the pipelined overhang over the warm
    /// compute time when streaming is on.
    fn ensure_resident(
        &mut self,
        dram: &mut DramModel,
        model_id: u32,
        compute: &[Cycles],
    ) -> (Cycles, bool) {
        self.use_seq += 1;
        let seq = self.use_seq;
        if let Some(slot) = self.slots.get_mut(&model_id) {
            if slot.residency.holds_weights() {
                slot.use_seq = seq;
                return (Cycles::ZERO, false);
            }
        }
        // LRU model eviction until the new weights fit. Free: weights are
        // read-only, so nothing is written back — the cost is the churn
        // counted here and the eventual re-stream.
        while self.resident_bytes + self.model_bytes > self.budget_bytes {
            let victim = self
                .slots
                .iter()
                .filter(|(id, slot)| **id != model_id && slot.residency.holds_weights())
                .min_by_key(|(id, slot)| (slot.use_seq, **id))
                .map(|(id, _)| *id)
                .expect("the budget precheck guarantees one model always fits");
            self.slots.get_mut(&victim).expect("found above").residency = WeightResidency::Evicted;
            self.resident_bytes -= self.model_bytes;
            self.evictions += 1;
        }
        // Stream the layers in, charging each on the DRAM channel; the
        // slot walks Streaming { layers_loaded } layer by layer.
        let slot = self
            .slots
            .entry(model_id)
            .or_insert(ModelSlot { residency: WeightResidency::Evicted, use_seq: seq });
        slot.use_seq = seq;
        let mut load = Vec::with_capacity(self.layers);
        for layers_loaded in 0..self.layers {
            slot.residency = WeightResidency::Streaming { layers_loaded };
            load.push(dram.transfer_weights(self.layer_bytes));
        }
        slot.residency = WeightResidency::Resident;
        self.resident_bytes += self.model_bytes;
        self.loads += 1;
        let stall = if self.streaming {
            let warm: u64 = compute.iter().map(|c| c.get()).sum();
            Cycles(pipelined_cold_finish(&load, compute).get() - warm)
        } else {
            Cycles(load.iter().map(|c| c.get()).sum())
        };
        (stall, true)
    }
}

/// Run-start validation of the weight-residency configuration against the
/// engine's model and the trace: a budget must hold at least one model
/// ([`ServeError::WeightBudgetTooSmall`]), and without a budget every
/// request must target the default resident model 0
/// ([`ServeError::UnknownModel`]).
fn validate_weights(
    config: &ServeConfig,
    model: &TransformerConfig,
    trace: &ArrivalTrace,
) -> Result<(), ServeError> {
    match config.weight_budget_bytes {
        Some(budget_bytes) => {
            let weight_bytes = model.total_weight_bytes();
            if budget_bytes < weight_bytes {
                return Err(ServeError::WeightBudgetTooSmall { budget_bytes, weight_bytes });
            }
        }
        None => {
            if let Some(r) = trace.requests.iter().find(|r| r.model() != 0) {
                return Err(ServeError::UnknownModel { model_id: r.model() });
            }
        }
    }
    Ok(())
}

/// Aggregate counters the serving loop hands to [`finalize_report`].
struct SchedTotals {
    ticks: u64,
    makespan_ms: f64,
    peak_kv: u64,
    frag_peak: u64,
    total_evictions: u64,
    page_spills: u64,
    page_faults: u64,
    rejected: u64,
    weight_loads: u64,
    weight_evictions: u64,
}

/// Folds final session state into the [`ServeReport`]: the traces in input
/// order, the latency sort and the [`LatencySummary`] percentiles.
fn finalize_report(
    config: &ServeConfig,
    model: &TransformerConfig,
    sizer: &KvSizer,
    sessions: &[Session],
    ledger: TrafficLedger,
    totals: SchedTotals,
) -> ServeReport {
    let traces: Vec<ServeTrace> = sessions
        .iter()
        .map(|s| ServeTrace {
            id: s.req.id,
            prompt_tokens: s.req.prompt_tokens,
            generated_tokens: s.generated,
            arrival_ms: s.req.arrival_ms,
            rejected: s.rejected,
            queue_wait_ms: s.queue_wait_ms.unwrap_or(0.0),
            prefill_ms: s.prefill_ms,
            first_token_ms: s.first_token_ms,
            finish_ms: s.finish_ms,
            tbt_ms: s.tbt_ms.clone(),
            evictions: s.evictions,
            // Prompt plus tokens actually generated: equals
            // `final_context_len()` for full and decode legs, and the
            // prompt alone for a prefill-only leg (its handoff payload).
            final_kv_bytes: if s.rejected {
                0
            } else {
                sizer.bytes(s.req.prompt_tokens + s.generated)
            },
            cold_start: config.weight_budget_bytes.is_some().then_some(s.cold_start),
        })
        .collect();
    let kv = kv_summary(model, sizer, sessions);
    let weights = weight_summary(config, model, sessions, &ledger, &totals);
    let total_generated: u64 = traces.iter().map(|t| t.generated_tokens as u64).sum();
    let latency = LatencySummary::from_samples(
        traces.iter().filter(|t| !t.rejected).map(ServeTrace::total_latency_ms).collect(),
    );
    let tokens_per_sec = if totals.makespan_ms > 0.0 {
        total_generated as f64 / (totals.makespan_ms / 1e3)
    } else {
        0.0
    };
    ServeReport {
        policy: config.policy,
        admission: config.admission,
        kv_budget_bytes: config.kv_budget_bytes,
        page_bytes: config.page_bytes,
        max_batch: config.max_batch,
        requests: sessions.len(),
        rejected_requests: totals.rejected,
        total_generated_tokens: total_generated,
        ticks: totals.ticks,
        makespan_ms: totals.makespan_ms,
        tokens_per_sec,
        p50_latency_ms: latency.p50_ms,
        p95_latency_ms: latency.p95_ms,
        peak_kv_bytes: totals.peak_kv,
        total_evictions: totals.total_evictions,
        total_page_spills: totals.page_spills,
        total_page_faults: totals.page_faults,
        kv_frag_peak_bytes: totals.frag_peak,
        ledger,
        kv,
        weights,
        traces,
    }
}

/// Builds the [`WeightSummary`] of a run, or `None` when no weight budget
/// is set (the permanently-resident identity, whose reports must stay
/// byte-stable with the pre-residency scheduler). Cold and warm TTFT are
/// summarized separately over non-rejected sessions, split by whether the
/// session's first prefill step had to stream its model's weights in.
fn weight_summary(
    config: &ServeConfig,
    model: &TransformerConfig,
    sessions: &[Session],
    ledger: &TrafficLedger,
    totals: &SchedTotals,
) -> Option<WeightSummary> {
    let weight_budget_bytes = config.weight_budget_bytes?;
    let mut cold: Vec<f64> = Vec::new();
    let mut warm: Vec<f64> = Vec::new();
    for s in sessions.iter().filter(|s| !s.rejected) {
        let ttft = s.first_token_ms - s.req.arrival_ms;
        if s.cold_start {
            cold.push(ttft);
        } else {
            warm.push(ttft);
        }
    }
    let cold_requests = cold.len() as u64;
    let mut models: Vec<u32> = sessions.iter().map(|s| s.req.model()).collect();
    models.sort_unstable();
    models.dedup();
    Some(WeightSummary {
        weight_budget_bytes,
        streaming: config.weight_streaming,
        models: models.len(),
        model_weight_bytes: model.total_weight_bytes(),
        weight_bytes: ledger.bytes(TrafficClass::Weights),
        weight_loads: totals.weight_loads,
        weight_evictions: totals.weight_evictions,
        cold_requests,
        cold_ttft: LatencySummary::from_samples(cold),
        warm_ttft: LatencySummary::from_samples(warm),
    })
}

/// Builds the [`KvSummary`] of a run, or `None` for the dense identity
/// (whose reports must stay byte-stable with the pre-seam scheduler).
/// The retained mass is the context-length-weighted mean over completed
/// sessions — pure arithmetic on final session state, so every
/// `MEADOW_THREADS` setting agrees bit-exactly.
fn kv_summary(
    model: &TransformerConfig,
    sizer: &KvSizer,
    sessions: &[Session],
) -> Option<KvSummary> {
    if sizer.is_dense() {
        return None;
    }
    let mut dense_bytes = 0u64;
    let mut actual_bytes = 0u64;
    let mut mass_weighted = 0.0f64;
    let mut tokens = 0u64;
    for s in sessions.iter().filter(|s| !s.rejected) {
        let ctx = s.req.prompt_tokens + s.generated;
        dense_bytes += kv_cache_total_bytes(model, ctx);
        actual_bytes += sizer.bytes(ctx);
        mass_weighted += sizer.retained_attention_mass(ctx) * ctx as f64;
        tokens += ctx as u64;
    }
    let retained_attention_mass = if tokens == 0 { 1.0 } else { mass_weighted / tokens as f64 };
    Some(KvSummary {
        layout: sizer.layout(),
        compression: sizer.compression(),
        retained_attention_mass,
        dense_final_kv_bytes: dense_bytes,
        final_kv_bytes: actual_bytes,
    })
}

/// The per-chip serving loop behind
/// [`Cluster::serve`](crate::cluster::Cluster::serve) and
/// [`Cluster::serve_disaggregated`](crate::cluster::Cluster::serve_disaggregated),
/// and so behind every [`ServeSpec`](crate::spec::ServeSpec) run: runs
/// `trace` on one engine, optionally parking spilled KV bytes on remote
/// chips through a cluster [`MigrationCtx`] instead of DRAM.
///
/// `phases` (aligned with `trace.requests`; `None` = all
/// [`SessionPhase::Full`]) lets disaggregated serving run partial legs:
/// a `PrefillOnly` leg finishes once its prompt KV and first token are
/// produced, a `DecodeOnly` leg starts already prefilled with its prompt
/// KV delivered (the caller charges the handoff on the cluster NoC).
///
/// Each scheduler iteration (a tick) steps one batch, and simulated time
/// jumps by the batch makespan, or to the next arrival when the chip
/// idles. An iteration costs `O(batch · log n)`, not `O(resident
/// sessions)`:
///
/// * Arrival and SLO-deadline events live in binary min-heaps
///   ([`EventQueue`]); deadline events are keyed by *arrival* time (the
///   SLO is one constant per run, so deadline order equals arrival order)
///   and a request is shed once `now - arrival > slo`. Shed requests stay
///   in the wait deque as tombstones, skipped at the head, instead of an
///   `O(n)` `retain`.
/// * The step/victim order lives in [`ReadyOrder`] indexes maintained
///   incrementally (one in LRU order, one in FIFO order when that policy
///   needs it) instead of a per-iteration clone-and-sort.
/// * The budget sums (`Σ next_kv` for admission, stepping + idle + zombie
///   demand for eviction) are running `u64` totals — exact, because
///   unsigned sums are order-independent — with per-session sizes cached
///   and refreshed at each state change.
/// * Step measurements are memoized by the measured step shape
///   `(tokens_new, context)` ([`StepCache`]): the engine's latency model
///   is a pure function of it — every call builds a fresh DRAM channel —
///   so a cache hit (errors included) is bit-identical to re-measuring,
///   and decode steps of different requests at the same context share
///   one measurement. Misses fan out through an order-preserving parallel
///   map, preserving `MEADOW_THREADS` bit-identity.
///
/// Sessions live in one arena (`Vec<Session>`, indexed by the trace
/// order) and the per-iteration scratch buffers are reused across
/// iterations, so steady-state scheduling allocates only when the batch
/// shape grows. `tests/oracle_digests.rs` pins the reports to a retired
/// per-tick scan implementation's, case by case, on a fixed corpus that
/// crosses every feature axis.
#[allow(clippy::too_many_lines)]
pub(crate) fn serve_on_chip(
    engine: &MeadowEngine,
    trace: &ArrivalTrace,
    config: &ServeConfig,
    phases: Option<&[SessionPhase]>,
    mut migration: Option<&mut MigrationCtx<'_>>,
) -> Result<ServeReport, CoreError> {
    let model = &engine.config().model;
    trace.validate(model)?;
    config.validate()?;
    let sizer = kv_sizer(model, config)?;
    let paged = config.policy == KvPolicy::PagedLru;
    if let Some(budget) = config.kv_budget_bytes {
        for r in &trace.requests {
            let peak = sizer.bytes(r.final_context_len());
            if peak > budget {
                return Err(ServeError::RequestExceedsBudget {
                    id: r.id,
                    peak_bytes: peak,
                    budget_bytes: budget,
                }
                .into());
            }
        }
    }
    validate_weights(config, model, trace)?;
    let mut weights = WeightSet::for_run(config, model);

    let clock = engine.config().chip.clock;
    let exec = engine.config().exec;
    // Serving-level channel for KV spill/reload migration; per-step
    // attention traffic is ledgered inside each LatencyReport.
    let mut kv_dram = engine.fresh_dram()?;
    let mut ledger = TrafficLedger::new();
    // The page pool tracks identity and fragmentation; the loop below
    // enforces the byte budget so all three policies share one accounting
    // scheme (and `peak_kv_bytes <= budget` holds exactly, not
    // page-rounded). Sized for every session resident at its peak at once
    // — per session, because each partially filled tail page burns a frame
    // — which no reachable allocation exceeds.
    let mut pages: Option<KvPageAllocator> = if paged {
        let frames: u64 = trace
            .requests
            .iter()
            .map(|r| sizer.bytes(r.final_context_len()).div_ceil(config.page_bytes))
            .sum();
        Some(KvPageAllocator::new(frames.max(1) as usize, config.page_bytes)?)
    } else {
        None
    };
    let page_bytes = config.page_bytes;

    let n = trace.requests.len();
    debug_assert!(phases.is_none_or(|p| p.len() == n), "phases must align with the trace");
    // Session arena, indexed by trace order for the whole run.
    let mut sessions: Vec<Session> = trace
        .requests
        .iter()
        .enumerate()
        .map(|(idx, &r)| Session::new(r, phases.map_or(SessionPhase::Full, |p| p[idx])))
        .collect();
    // id → arena index, built once (lookups only, so map order never
    // influences the schedule).
    let id2idx: HashMap<u32, usize> =
        sessions.iter().enumerate().map(|(i, s)| (s.req.id, i)).collect();

    // Arrival events pop in arrival order, ties broken by id for
    // determinism.
    let mut arrivals = EventQueue::with_capacity(n);
    for (i, s) in sessions.iter().enumerate() {
        arrivals.push(s.req.arrival_ms, s.req.id, i);
    }
    let slo = match config.admission {
        AdmissionPolicy::RejectAfter { ttft_slo_ms } => Some(ttft_slo_ms),
        AdmissionPolicy::Queue => None,
    };
    let mut deadlines = EventQueue::with_capacity(if slo.is_some() { n } else { 0 });

    // Wait queue with tombstones: shed requests stay in the deque and are
    // skipped at the head; `wait_live` counts the live ones and `in_wait`
    // answers the paged zombie-ownership test in O(1).
    let mut wait: VecDeque<usize> = VecDeque::new();
    let mut in_wait = vec![false; n];
    let mut wait_live = 0usize;

    // Resident sessions in step/LRU-victim order; the FIFO index is
    // maintained only when that policy orders victims differently.
    let mut ready = ReadyOrder::default();
    let mut fifo = ReadyOrder::default();
    let use_fifo = config.policy == KvPolicy::Fifo;

    // Cached per-session KV sizes and the running budget sums. The caches
    // are initialized from the *constructed* sessions: a decode-only leg
    // starts prefilled, with its prompt KV logically present.
    let mut resident_kv: Vec<u64> = sessions.iter().map(|s| s.kv_bytes(&sizer)).collect();
    let mut next_kv: Vec<u64> = sessions.iter().map(|s| s.next_kv(&sizer)).collect();
    // Σ next_kv / Σ resident_kv over resident (ready) sessions, including
    // this iteration's finishers until the peak snapshot.
    let mut active_next_sum = 0u64;
    let mut active_resident_sum = 0u64;
    // Paged residency: Σ held_bytes over resident sessions and over
    // demoted zombies whose pages have not been peeled yet.
    let mut active_held_sum = 0u64;
    let mut wait_held_sum = 0u64;

    // `step_epoch[i] == tick` marks membership in the current step set,
    // so victim scans skip it without an auxiliary set.
    let mut step_epoch = vec![0u64; n];

    let mut cache = StepCache::new();

    let mut now = 0.0_f64;
    let mut tick: u64 = 0;
    let mut admission_counter: u64 = 0;
    let mut peak_kv: u64 = 0;
    let mut frag_peak: u64 = 0;
    let mut total_evictions: u64 = 0;
    let mut page_spills: u64 = 0;
    let mut page_faults: u64 = 0;
    let mut rejected: u64 = 0;
    let mut settled = 0usize;

    // Scratch buffers reused across iterations (no per-tick churn).
    let mut step_set: Vec<usize> = Vec::new();
    let mut reload_cycles: Vec<Cycles> = Vec::new();
    let mut step_shapes: Vec<Result<StepShape, CoreError>> = Vec::new();
    let mut miss_shapes: Vec<StepShape> = Vec::new();
    let mut matrix: Vec<Vec<Cycles>> = Vec::new();
    let mut solo_ms: Vec<f64> = Vec::new();
    let mut finished: Vec<usize> = Vec::new();

    while settled < n {
        tick += 1;
        // Idle chip: jump straight to the next arrival event.
        if ready.is_empty() && wait_live == 0 {
            if let Some(next_ms) = arrivals.peek_time() {
                now = now.max(next_ms);
            }
        }
        // Arrival events at or before `now` enter the wait queue.
        while arrivals.peek_time().is_some_and(|t| t <= now) {
            let (_, i) = arrivals.pop().expect("peeked above");
            wait.push_back(i);
            in_wait[i] = true;
            wait_live += 1;
            if slo.is_some() {
                deadlines.push(sessions[i].req.arrival_ms, sessions[i].req.id, i);
            }
        }
        // Deadline events: shed every request whose TTFT SLO lapsed
        // before first admission. Admitted sessions drop their stale
        // deadline silently — their work is already sunk, never shed.
        if let Some(ttft_slo_ms) = slo {
            while let Some((arrival_ms, i)) = deadlines.peek() {
                if sessions[i].queue_wait_ms.is_some() {
                    deadlines.pop();
                    continue;
                }
                if now - arrival_ms <= ttft_slo_ms {
                    // Earliest deadline not lapsed: none after it has.
                    break;
                }
                deadlines.pop();
                let s = &mut sessions[i];
                s.rejected = true;
                s.queue_wait_ms = Some(now - s.req.arrival_ms);
                rejected += 1;
                settled += 1;
                in_wait[i] = false;
                wait_live -= 1;
            }
        }
        // Head-of-line admission: the head joins when its next step fits
        // alongside every resident session's next step (the running
        // Σ next_kv: conservative, all of them may grow this tick).
        // Demoted sessions' unspilled pages deliberately do NOT count: the
        // enforcement loop below reclaims them first, and counting them
        // could wedge the scheduler — a blocked head with no stepping
        // session never advances the clock, so the pages never free.
        while let Some(&head) = wait.front() {
            if sessions[head].rejected {
                // Tombstone left by a deadline event.
                wait.pop_front();
                continue;
            }
            let projected = active_next_sum + next_kv[head];
            if config.kv_budget_bytes.is_some_and(|b| projected > b) {
                break;
            }
            wait.pop_front();
            in_wait[head] = false;
            wait_live -= 1;
            admission_counter += 1;
            let s = &mut sessions[head];
            s.admission_seq = admission_counter;
            if s.queue_wait_ms.is_none() {
                s.queue_wait_ms = Some(now - s.req.arrival_ms);
            }
            if let Some(pool) = pages.as_mut() {
                // Re-admission reserves frames for the whole cache up
                // front; a zombie's still-held pages move from the wait
                // sum back to the active sum.
                let kv = resident_kv[head];
                wait_held_sum -= s.held_bytes;
                s.held_bytes = kv;
                active_held_sum += kv;
                pool.grow(
                    s.req.id,
                    pool.pages_for(kv),
                    (s.last_step_tick, s.admission_seq, s.req.id),
                )
                .expect("pool is sized for the whole trace");
                if std::mem::take(&mut s.kv_preloaded) {
                    // Decode-only leg: prompt KV arrived over the NoC
                    // handoff, so the first admission loads fault-free.
                    s.loaded_bytes = kv;
                }
            } else {
                s.pending_reload_bytes = s.spilled_kv_bytes;
                s.spilled_kv_bytes = 0;
            }
            active_next_sum += next_kv[head];
            active_resident_sum += resident_kv[head];
            ready.insert((s.last_step_tick, s.admission_seq, s.req.id));
            if use_fifo {
                fifo.insert((s.admission_seq, s.last_step_tick, s.req.id));
            }
        }
        // Step-set selection: the first `max_batch` sessions in ready
        // order — least recently stepped first, deterministic tie-breaks —
        // without cloning or sorting the resident set.
        step_set.clear();
        step_set.extend(ready.iter().take(config.max_batch).map(|&(_, _, id)| id2idx[&id]));
        if step_set.is_empty() {
            // Only reachable when load shedding emptied the queue with no
            // resident work; the next iteration jumps to the next arrival.
            continue;
        }
        let mut step_next = 0u64;
        let mut step_resident = 0u64;
        for &i in &step_set {
            step_epoch[i] = tick;
            step_next += next_kv[i];
            step_resident += resident_kv[i];
        }
        // Budget enforcement: evict until the tick fits, idle sessions
        // first (freeing them costs no progress), then the step set. The
        // demand — stepping sessions grown, idle caches and, in paged mode,
        // demoted sessions' unspilled pages — comes O(1) from running sums.
        let mut spill_cycles = Cycles::ZERO;
        if let Some(budget) = config.kv_budget_bytes {
            loop {
                let zombie_held = if paged { wait_held_sum } else { 0 };
                let needed = step_next + (active_resident_sum - step_resident) + zombie_held;
                if needed <= budget {
                    break;
                }
                if let Some(pool) = pages.as_mut() {
                    // Lazy page-granular spill: first peel pages that
                    // demoted sessions left behind (stalest owner first);
                    // once none remain, demote the whole-cache victim —
                    // without spilling anything yet. Demotion is what
                    // throttles the multiprogramming level (the session
                    // stops being scheduled, exactly like whole-cache
                    // eviction, so paging cannot thrash the step set);
                    // peeling is what bounds the traffic (only the bytes
                    // the tick actually needs ever move).
                    let zombie_page = pool.lru_page(|sid| in_wait[id2idx[&sid]]);
                    if let Some((_, owner)) = zombie_page {
                        let victim = id2idx[&owner];
                        let s = &mut sessions[victim];
                        let frames = pool.session_pages(owner) as u64;
                        let tail_start = (frames - 1) * page_bytes;
                        // Only the valid, on-chip bytes of the tail page
                        // move; reserved-but-unloaded frames free silently
                        // (their data never came back on chip).
                        let write = s.loaded_bytes.saturating_sub(tail_start);
                        if write > 0 {
                            spill_cycles +=
                                charge_spill(&mut kv_dram, &mut migration, owner, write, None);
                            page_spills += 1;
                        }
                        pool.evict_tail(owner);
                        wait_held_sum -= s.held_bytes - tail_start;
                        s.held_bytes = tail_start;
                        s.loaded_bytes = s.loaded_bytes.min(tail_start);
                    } else {
                        // First resident session in LRU order that is not
                        // stepping and still holds pages, located by an
                        // ordered walk instead of a full scan.
                        let idle_victim = ready
                            .iter()
                            .map(|&(_, _, id)| id2idx[&id])
                            .find(|&i| step_epoch[i] != tick && sessions[i].held_bytes > 0);
                        if let Some(victim) = idle_victim {
                            let s = &mut sessions[victim];
                            ready.remove(&(s.last_step_tick, s.admission_seq, s.req.id));
                            active_next_sum -= next_kv[victim];
                            active_resident_sum -= resident_kv[victim];
                            // Demoted without spilling: its pages become
                            // zombie residency until lazily peeled.
                            active_held_sum -= s.held_bytes;
                            wait_held_sum += s.held_bytes;
                            if s.prefilled {
                                total_evictions += 1;
                                s.evictions += 1;
                            }
                            wait.push_back(victim);
                            in_wait[victim] = true;
                            wait_live += 1;
                        } else {
                            // No idle cache left: demote a stepping
                            // session, spilling eagerly (it was about to
                            // run). Under PagedLru the victim key is the
                            // ready key, so the minimum is the step set's
                            // first remaining member.
                            let victim = *step_set
                                .first()
                                .expect("an over-budget tick always has a stepping session");
                            step_set.remove(0);
                            let s = &mut sessions[victim];
                            ready.remove(&(s.last_step_tick, s.admission_seq, s.req.id));
                            step_next -= next_kv[victim];
                            step_resident -= resident_kv[victim];
                            active_next_sum -= next_kv[victim];
                            active_resident_sum -= resident_kv[victim];
                            if s.prefilled {
                                total_evictions += 1;
                                s.evictions += 1;
                            }
                            if s.loaded_bytes > 0 {
                                spill_cycles += charge_spill(
                                    &mut kv_dram,
                                    &mut migration,
                                    s.req.id,
                                    s.loaded_bytes,
                                    Some(page_bytes),
                                );
                                page_spills += pool.pages_for(s.loaded_bytes) as u64;
                            }
                            pool.release(s.req.id);
                            active_held_sum -= s.held_bytes;
                            s.held_bytes = 0;
                            s.loaded_bytes = 0;
                            wait.push_back(victim);
                            in_wait[victim] = true;
                            wait_live += 1;
                        }
                    }
                } else {
                    // Whole-cache victim: first non-stepping resident
                    // session with a cache, in victim-key order (the FIFO
                    // index when that policy differs from LRU), falling
                    // back to the step set's minimum.
                    let victim_order = if use_fifo { &fifo } else { &ready };
                    let victim = victim_order
                        .iter()
                        .map(|&(_, _, id)| id2idx[&id])
                        .find(|&i| step_epoch[i] != tick && resident_kv[i] > 0)
                        .unwrap_or_else(|| {
                            // Evicting the last stepping session is
                            // impossible: a single next step always fits
                            // (validated above).
                            step_set
                                .iter()
                                .copied()
                                .min_by_key(|&i| sessions[i].victim_key(config.policy))
                                .expect("an over-budget tick always has an evictable session")
                        });
                    if let Some(pos) = step_set.iter().position(|&i| i == victim) {
                        step_set.remove(pos);
                        step_next -= next_kv[victim];
                        step_resident -= resident_kv[victim];
                    }
                    let s = &mut sessions[victim];
                    ready.remove(&(s.last_step_tick, s.admission_seq, s.req.id));
                    if use_fifo {
                        fifo.remove(&(s.admission_seq, s.last_step_tick, s.req.id));
                    }
                    active_next_sum -= next_kv[victim];
                    active_resident_sum -= resident_kv[victim];
                    if s.prefilled {
                        // Only a session that actually holds (or owes) a
                        // cache counts as evicted; preempting an
                        // unprefilled session spills nothing.
                        total_evictions += 1;
                        s.evictions += 1;
                        if s.pending_reload_bytes > 0 {
                            // Evicted again before reloading: nothing to
                            // write out.
                            s.spilled_kv_bytes = s.pending_reload_bytes;
                            s.pending_reload_bytes = 0;
                        } else {
                            let bytes = resident_kv[victim];
                            spill_cycles +=
                                charge_spill(&mut kv_dram, &mut migration, s.req.id, bytes, None);
                            s.spilled_kv_bytes = bytes;
                        }
                    }
                    wait.push_back(victim);
                    in_wait[victim] = true;
                    wait_live += 1;
                }
            }
        }
        debug_assert!(!step_set.is_empty(), "a tick with work must step a session");
        // Reload spilled caches for sessions about to step; paged mode
        // also reserves the frames the step's KV growth will fill.
        reload_cycles.clear();
        for &i in &step_set {
            if let Some(pool) = pages.as_mut() {
                let s = &mut sessions[i];
                let existing = resident_kv[i];
                pool.grow(s.req.id, pool.pages_for(next_kv[i]), (tick, s.admission_seq, s.req.id))
                    .expect("pool is sized for the whole trace");
                let fault = existing - s.loaded_bytes;
                if fault > 0 {
                    reload_cycles.push(charge_reload(
                        &mut kv_dram,
                        &mut migration,
                        s.req.id,
                        fault,
                        Some(page_bytes),
                    ));
                    page_faults += fault.div_ceil(page_bytes);
                    s.loaded_bytes = existing;
                } else {
                    reload_cycles.push(Cycles::ZERO);
                }
            } else {
                let bytes = std::mem::take(&mut sessions[i].pending_reload_bytes);
                reload_cycles.push(if bytes > 0 {
                    charge_reload(&mut kv_dram, &mut migration, sessions[i].req.id, bytes, None)
                } else {
                    Cycles::ZERO
                });
            }
        }
        // Measure each *distinct* step shape once. The engine's latency
        // model is a pure function of (tokens new, context) — every call
        // builds a fresh DRAM channel — so a cached result (errors
        // included) is bit-identical to re-measuring. The misses fan out
        // on the engine's execution policy through an order-preserving
        // parallel map, so the run is bit-identical across thread counts.
        step_shapes.clear();
        miss_shapes.clear();
        for &i in &step_set {
            let shape = step_shape(engine, &sessions[i]);
            if let Ok(shape) = shape {
                if !cache.contains(shape) && !miss_shapes.contains(&shape) {
                    miss_shapes.push(shape);
                }
            }
            step_shapes.push(shape);
        }
        if !miss_shapes.is_empty() {
            let measured = par_map(&miss_shapes, &exec, |&shape| engine.measure(shape));
            for (&shape, result) in miss_shapes.iter().zip(measured) {
                cache.insert(shape, result);
            }
        }
        matrix.clear();
        solo_ms.clear();
        for (pos, &i) in step_set.iter().enumerate() {
            let measured =
                step_shapes[pos].as_ref().map(|&shape| cache.get(shape).expect("measured above"));
            let report = match measured {
                Ok(Ok(report)) => report,
                // The first failing step in step order propagates.
                Ok(Err(e)) | Err(e) => return Err(e.clone()),
            };
            let mut row: Vec<Cycles> = report.layers.iter().map(LayerLatency::makespan).collect();
            let mut stall = reload_cycles[pos];
            // Weight residency: the stepping session's model must be on
            // chip. A hit is free; a miss streams every layer through the
            // DRAM channel (evicting LRU models as needed) and stalls the
            // step — the full sequential load, or only the pipelined
            // overhang beyond the compute row when streaming overlap is
            // on. A load at a session's first prefill step is a cold
            // start; later re-streams are residency churn.
            if let Some(ws) = weights.as_mut() {
                let (wstall, was_cold) =
                    ws.ensure_resident(&mut kv_dram, sessions[i].req.model(), &row);
                stall += wstall;
                if was_cold && !sessions[i].prefilled {
                    sessions[i].cold_start = true;
                }
            }
            // Speculative decoding: each decode step is one verify round.
            // Accepted rounds ride in the verify pass's memory-bound shadow
            // for free; the deterministic miss credit fires a flush every
            // `1 / (1 - acceptance)` rounds, charging the wasted draft work
            // up front like a reload. At acceptance 1.0 the credit never
            // grows and this block is arithmetic-free — the bit-exact
            // degeneracy contract.
            if let Some(spec) = config.speculation {
                let s = &mut sessions[i];
                if s.prefilled {
                    s.spec_miss_credit += 1.0 - spec.acceptance;
                    if s.spec_miss_credit >= 1.0 {
                        s.spec_miss_credit -= 1.0;
                        let step: u64 = row.iter().map(|c| c.get()).sum();
                        let waste =
                            (step as f64 * spec.draft_len as f64 * spec.draft_cost_ratio).round();
                        stall += Cycles(waste as u64);
                    }
                }
            }
            // The reload (and any speculation flush) must land before the
            // first layer can run.
            row[0] += stall;
            solo_ms.push(report.total_ms() + clock.to_ms(stall));
            ledger.merge(&report.ledger);
            matrix.push(row);
        }
        // Continuous batching: the batch pipelines through the layers like
        // a flow shop; spills occupy the channel before the batch starts.
        let finishes = flow_shop_completion_times(&matrix);
        let tick_cycles = spill_cycles + finishes.last().copied().unwrap_or(Cycles::ZERO);
        finished.clear();
        for ((&i, &finish), own_ms) in step_set.iter().zip(&finishes).zip(solo_ms.drain(..)) {
            let s = &mut sessions[i];
            // Re-key the ordered indexes for the new step tick.
            ready.remove(&(s.last_step_tick, s.admission_seq, s.req.id));
            if use_fifo {
                fifo.remove(&(s.admission_seq, s.last_step_tick, s.req.id));
            }
            s.last_step_tick = tick;
            let done_ms = now + clock.to_ms(spill_cycles + finish);
            let mut is_done = false;
            if s.prefilled {
                s.generated += 1;
                s.tbt_ms.push(own_ms);
                if s.generated == s.req.generate_tokens {
                    s.finish_ms = done_ms;
                    is_done = true;
                }
            } else {
                s.prefilled = true;
                s.prefill_ms = own_ms;
                s.first_token_ms = done_ms;
                if s.phase.finishes_at_prefill() {
                    s.finish_ms = done_ms;
                    is_done = true;
                }
            }
            // Refresh the cached sizes and running sums; finishers keep
            // counting until the peak snapshot below.
            let new_resident = s.kv_bytes(&sizer);
            let new_next = s.next_kv(&sizer);
            active_resident_sum = active_resident_sum - resident_kv[i] + new_resident;
            active_next_sum = active_next_sum - next_kv[i] + new_next;
            resident_kv[i] = new_resident;
            next_kv[i] = new_next;
            if paged {
                // The step's KV writes land as measured attention
                // traffic; residency grows in place.
                active_held_sum = active_held_sum - s.held_bytes + new_resident;
                s.held_bytes = new_resident;
                s.loaded_bytes = new_resident;
            }
            if is_done {
                finished.push(i);
            } else {
                ready.insert((tick, s.admission_seq, s.req.id));
                if use_fifo {
                    fifo.insert((s.admission_seq, tick, s.req.id));
                }
            }
        }
        // Residency peaks at tick end, before completed caches are freed;
        // paged residency also counts zombie pages. Both are the running
        // sums — no scan.
        let resident = if paged { active_held_sum + wait_held_sum } else { active_resident_sum };
        peak_kv = peak_kv.max(resident);
        if let Some(pool) = pages.as_ref() {
            // Every frame is owned by a resident or demoted session and
            // each owner's held bytes fit its frames, so pool occupancy
            // minus total held bytes equals the per-session frag sum.
            frag_peak = frag_peak.max(pool.frag_total_bytes(active_held_sum + wait_held_sum));
            debug_assert!(pool.conserves_pages(), "page tables must conserve the pool");
        }
        for &i in &finished {
            active_resident_sum -= resident_kv[i];
            active_next_sum -= next_kv[i];
            if let Some(pool) = pages.as_mut() {
                let s = &mut sessions[i];
                pool.release(s.req.id);
                active_held_sum -= s.held_bytes;
                s.held_bytes = 0;
                s.loaded_bytes = 0;
            }
        }
        settled += finished.len();
        now += clock.to_ms(tick_cycles);
    }

    ledger.merge(kv_dram.ledger());
    let totals = SchedTotals {
        ticks: tick,
        makespan_ms: now,
        peak_kv,
        frag_peak,
        total_evictions,
        page_spills,
        page_faults,
        rejected,
        weight_loads: weights.as_ref().map_or(0, |ws| ws.loads),
        weight_evictions: weights.as_ref().map_or(0, |ws| ws.evictions),
    };
    Ok(finalize_report(config, model, &sizer, &sessions, ledger, totals))
}

/// Memo key of one session's next step: the shape
/// `decode_latency(prompt, generated + 1)` / `prefill_latency(prompt)`
/// would measure, validated the same way.
fn step_shape(engine: &MeadowEngine, s: &Session) -> Result<StepShape, CoreError> {
    if s.prefilled {
        engine.decode_shape(s.req.prompt_tokens, s.generated + 1)
    } else {
        engine.prefill_shape(s.req.prompt_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::spec::ServeSpec;
    use meadow_models::presets;
    use meadow_sim::TrafficClass;

    fn engine() -> MeadowEngine {
        MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
    }

    /// Serves `trace` on one chip through the [`ServeSpec`] front door.
    fn serve(
        engine: &MeadowEngine,
        trace: &ArrivalTrace,
        config: &ServeConfig,
    ) -> Result<ServeReport, CoreError> {
        let spec = ServeSpec::builder().config(*config).build()?;
        Ok(spec.run(engine, trace)?.into_single().expect("one chip, no cluster policies"))
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let report = serve(&engine(), &ArrivalTrace::default(), &ServeConfig::default()).unwrap();
        assert_eq!(report.requests, 0);
        assert_eq!(report.total_generated_tokens, 0);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.makespan_ms, 0.0);
        assert_eq!(report.tokens_per_sec, 0.0);
        assert!(report.traces.is_empty());
    }

    #[test]
    fn single_request_completes() {
        let trace = ArrivalTrace::uniform(1, 0.0, 16, 8);
        let report = serve(&engine(), &trace, &ServeConfig::default()).unwrap();
        assert_eq!(report.requests, 1);
        assert_eq!(report.total_generated_tokens, 8);
        assert_eq!(report.total_evictions, 0);
        assert_eq!(report.rejected_requests, 0);
        let t = &report.traces[0];
        assert_eq!(t.generated_tokens, 8);
        assert_eq!(t.tbt_ms.len(), 8);
        assert_eq!(t.queue_wait_ms, 0.0);
        assert!(!t.rejected);
        assert!(t.first_token_ms > 0.0);
        assert!(t.finish_ms > t.first_token_ms);
        assert!(report.makespan_ms >= t.finish_ms);
        assert_eq!(t.final_kv_bytes, kv_cache_total_bytes(&presets::tiny_decoder(), 24));
        // One session alone: 1 prefill tick + 8 decode ticks.
        assert_eq!(report.ticks, 9);
    }

    #[test]
    fn batched_run_is_cheaper_than_sequential_makespan() {
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 4);
        let report = serve(&engine(), &trace, &ServeConfig::default()).unwrap();
        let sequential: f64 =
            report.traces.iter().map(|t| t.prefill_ms + t.tbt_ms.iter().sum::<f64>()).sum();
        assert!(
            report.makespan_ms < sequential,
            "pipelined {} !< sequential {}",
            report.makespan_ms,
            sequential
        );
        // But no faster than the slowest single chain.
        assert!(report.makespan_ms > report.traces[0].prefill_ms);
    }

    #[test]
    fn constrained_budget_evicts_but_completes() {
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
        // Room for roughly two peak sessions: forces contention.
        let budget = 2 * ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model);
        let config = ServeConfig::default().with_budget(budget);
        let report = serve(&engine(), &trace, &config).unwrap();
        assert_eq!(report.total_generated_tokens, 4 * 8);
        assert!(report.total_evictions > 0, "budget {budget} should force evictions");
        assert!(report.peak_kv_bytes <= budget);
        assert!(report.ledger.bytes(TrafficClass::KvCache) > 0);
    }

    #[test]
    fn paged_policy_completes_under_pressure_with_page_metrics() {
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
        let budget = 2 * ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model);
        let config = ServeConfig::default()
            .with_budget(budget)
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(256);
        let report = serve(&engine(), &trace, &config).unwrap();
        assert_eq!(report.total_generated_tokens, 4 * 8);
        assert!(report.peak_kv_bytes <= budget);
        assert!(report.total_page_spills > 0, "pressure must peel pages");
        assert!(report.total_page_faults > 0, "peeled pages must fault back");
        assert!(report.ledger.bytes(TrafficClass::KvCache) > 0);
    }

    #[test]
    fn paged_moves_fewer_migration_bytes_than_whole_cache() {
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
        // Budget slightly under total demand, with a batch cap rotating
        // idle sessions through the pool: whole-cache eviction thrashes
        // entire caches to make a single step's room, paged eviction peels
        // only the overflow.
        let budget = 5 * ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model) / 2;
        let e = engine();
        let base = ServeConfig::default().with_budget(budget).with_max_batch(2);
        let whole = serve(&e, &trace, &base.with_policy(KvPolicy::Lru)).unwrap();
        let paged =
            serve(&e, &trace, &base.with_policy(KvPolicy::PagedLru).with_page_bytes(256)).unwrap();
        assert!(whole.total_evictions > 0);
        assert!(
            paged.ledger.bytes(TrafficClass::KvCache) < whole.ledger.bytes(TrafficClass::KvCache),
            "paged {} !< whole {}",
            paged.ledger.bytes(TrafficClass::KvCache),
            whole.ledger.bytes(TrafficClass::KvCache)
        );
    }

    #[test]
    fn reject_after_sheds_load_under_pressure() {
        let model = presets::tiny_decoder();
        // Simultaneous arrivals against a one-session budget: later requests
        // blow any tight TTFT SLO while the first one decodes.
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 32);
        let single = ServeRequest::new(0, 0.0, 16, 32).peak_kv_bytes(&model);
        let config = ServeConfig::default()
            .with_budget(single)
            .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 0.05 });
        let report = serve(&engine(), &trace, &config).unwrap();
        assert!(report.rejected_requests > 0, "pressure must shed load");
        assert!(report.rejected_requests < 4, "the head request always runs");
        let done: u64 =
            report.traces.iter().filter(|t| !t.rejected).map(|t| t.generated_tokens as u64).sum();
        assert_eq!(report.total_generated_tokens, done);
        for t in report.traces.iter().filter(|t| t.rejected) {
            assert_eq!(t.generated_tokens, 0);
            assert_eq!(t.final_kv_bytes, 0);
            assert_eq!(t.finish_ms, 0.0);
        }
    }

    #[test]
    fn queue_admission_never_rejects() {
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
        let single = ServeRequest::new(0, 0.0, 16, 8).peak_kv_bytes(&model);
        let report = serve(&engine(), &trace, &ServeConfig::default().with_budget(single)).unwrap();
        assert_eq!(report.rejected_requests, 0);
        assert_eq!(report.total_generated_tokens, 32);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let e = engine();
        let trace = ArrivalTrace::uniform(2, 0.0, 16, 8);
        assert!(serve(&e, &trace, &ServeConfig::default().with_max_batch(0)).is_err());
        // Budget smaller than a single request's peak KV can never serve it.
        assert!(serve(&e, &trace, &ServeConfig::default().with_budget(1)).is_err());
        // A paged pool needs non-zero pages, and SLOs must be sane.
        assert!(serve(
            &e,
            &trace,
            &ServeConfig::default().with_policy(KvPolicy::PagedLru).with_page_bytes(0)
        )
        .is_err());
        assert!(serve(
            &e,
            &trace,
            &ServeConfig::default()
                .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: f64::NAN })
        )
        .is_err());
        assert!(serve(
            &e,
            &trace,
            &ServeConfig::default()
                .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: -1.0 })
        )
        .is_err());
        let dup = ArrivalTrace::new(vec![
            ServeRequest::new(7, 0.0, 8, 2),
            ServeRequest::new(7, 0.0, 8, 2),
        ]);
        assert!(serve(&e, &dup, &ServeConfig::default()).is_err());
    }

    #[test]
    fn staggered_arrivals_wait_in_order() {
        let trace = ArrivalTrace::new(vec![
            ServeRequest::new(0, 0.0, 16, 2),
            ServeRequest::new(1, 1e6, 16, 2),
        ]);
        let report = serve(&engine(), &trace, &ServeConfig::default()).unwrap();
        let late = report.trace(1).unwrap();
        // The late request arrives after the first finished: no queueing.
        assert_eq!(late.queue_wait_ms, 0.0);
        assert!(late.first_token_ms >= 1e6);
        assert!(report.trace(0).unwrap().finish_ms < 1e6);
    }

    #[test]
    fn max_batch_cap_still_serves_everyone() {
        let trace = ArrivalTrace::uniform(5, 0.0, 8, 3);
        let capped = ServeConfig::default().with_max_batch(2);
        let report = serve(&engine(), &trace, &capped).unwrap();
        assert_eq!(report.total_generated_tokens, 15);
        assert!(report.ticks > 5, "a cap of 2 needs more ticks than uncapped");
    }

    #[test]
    fn report_round_trips_through_json() {
        let trace = ArrivalTrace::uniform(2, 0.5, 8, 2);
        let config = ServeConfig::default()
            .with_budget(1 << 20)
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(512)
            .with_admission(AdmissionPolicy::RejectAfter { ttft_slo_ms: 1e6 });
        let report = serve(&engine(), &trace, &config).unwrap();
        let json = report.to_json().unwrap();
        let parsed: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.95), 4.0);
    }

    #[test]
    fn speculation_validation_rejects_bad_configs() {
        let ok = SpecDecode { draft_len: 4, acceptance: 0.7, draft_cost_ratio: 0.25 };
        assert!(ok.validate().is_ok());
        let cases = [
            SpecDecode { draft_len: 0, ..ok },
            SpecDecode { acceptance: -0.1, ..ok },
            SpecDecode { acceptance: 1.1, ..ok },
            SpecDecode { acceptance: f64::NAN, ..ok },
            SpecDecode { draft_cost_ratio: -0.5, ..ok },
            SpecDecode { draft_cost_ratio: f64::INFINITY, ..ok },
        ];
        for bad in cases {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
            // The serving entry point rejects it too.
            let trace = ArrivalTrace::uniform(1, 0.0, 8, 2);
            let config = ServeConfig::default().with_speculation(bad);
            assert!(serve(&engine(), &trace, &config).is_err());
        }
    }

    #[test]
    fn full_acceptance_speculation_is_bit_identical_to_baseline() {
        let e = engine();
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 8);
        let base = ServeConfig::default().with_max_batch(2);
        let baseline = serve(&e, &trace, &base).unwrap();
        let spec = SpecDecode { draft_len: 8, acceptance: 1.0, draft_cost_ratio: 0.5 };
        let accepted = serve(&e, &trace, &base.with_speculation(spec)).unwrap();
        assert_eq!(baseline, accepted, "acceptance 1.0 must never flush a draft");
        assert_eq!(baseline.to_json().unwrap(), accepted.to_json().unwrap());
    }

    #[test]
    fn lower_acceptance_slows_decode_monotonically() {
        let e = engine();
        let trace = ArrivalTrace::uniform(3, 0.0, 16, 12);
        let base = ServeConfig::default();
        let spec = |acceptance: f64| SpecDecode { draft_len: 4, acceptance, draft_cost_ratio: 0.5 };
        let mut prev_makespan = serve(&e, &trace, &base).unwrap().makespan_ms;
        for acceptance in [0.9, 0.5, 0.1] {
            let report = serve(&e, &trace, &base.with_speculation(spec(acceptance))).unwrap();
            assert!(
                report.makespan_ms >= prev_makespan,
                "acceptance {acceptance} makespan {} regressed below {prev_makespan}",
                report.makespan_ms
            );
            // The flush penalty rides own-service decode latency, not TTFT.
            assert_eq!(report.total_generated_tokens, 3 * 12);
            prev_makespan = report.makespan_ms;
        }
        // And a flush really happened at low acceptance.
        let flushed = serve(&e, &trace, &base.with_speculation(spec(0.1))).unwrap();
        let clean = serve(&e, &trace, &base).unwrap();
        assert!(flushed.makespan_ms > clean.makespan_ms, "misses must cost cycles");
    }

    #[test]
    fn pipelined_cold_finish_bounds_and_degeneracies() {
        let load = [Cycles(10), Cycles(10), Cycles(10)];
        let compute = [Cycles(4), Cycles(4), Cycles(4)];
        // Hand-walked: finishes at 14, 24, 34 — load-bound throughout.
        assert_eq!(pipelined_cold_finish(&load, &compute), Cycles(34));
        // Compute-bound: the first load hides everything after it.
        let slow = [Cycles(100), Cycles(100), Cycles(100)];
        assert_eq!(pipelined_cold_finish(&load, &slow), Cycles(310));
        // Degeneracies: zero loads = pure compute, zero compute = pure load.
        assert_eq!(pipelined_cold_finish(&[], &compute), Cycles(12));
        assert_eq!(pipelined_cold_finish(&load, &[]), Cycles(30));
    }

    #[test]
    fn cold_start_stalls_the_first_step_and_charges_weight_traffic() {
        let e = engine();
        let model = presets::tiny_decoder();
        // Spaced far enough apart that request 1 prefills alone on a warm
        // chip — the within-batch case would smear the cold stall onto the
        // sibling through the flow shop.
        let trace = ArrivalTrace::uniform(2, 1000.0, 16, 4);
        let warm = serve(&e, &trace, &ServeConfig::default()).unwrap();
        let cold_config = ServeConfig::default().with_weight_budget(model.total_weight_bytes());
        let cold = serve(&e, &trace, &cold_config).unwrap();
        let weights = cold.weights.expect("a weight budget must yield a summary");
        // One model, one load, no churn; every weight byte crossed DRAM
        // exactly once and is layer-exact.
        assert_eq!((weights.models, weights.weight_loads, weights.weight_evictions), (1, 1, 0));
        assert_eq!(weights.weight_bytes, model.total_weight_bytes());
        assert_eq!(weights.weight_bytes, model.layer_weight_bytes() * model.layers as u64);
        assert_eq!(cold.ledger.bytes(TrafficClass::Weights), weights.weight_bytes);
        assert_eq!(warm.ledger.bytes(TrafficClass::Weights), 0);
        // Only the session whose step triggered the load is cold; its
        // sibling in the same first batch finds the weights resident.
        assert_eq!(weights.cold_requests, 1);
        let cold_traces: Vec<bool> = cold.traces.iter().map(|t| t.cold_start.unwrap()).collect();
        assert_eq!(cold_traces.iter().filter(|&&c| c).count(), 1);
        // The load stalls only the cold session: its TTFT strictly
        // exceeds the permanently-resident identity's, while the warm
        // follow-up matches it exactly (the weights are resident by then).
        assert!(weights.cold_ttft.p50_ms > weights.warm_ttft.p50_ms);
        assert!(cold.traces[0].ttft_ms() > warm.traces[0].ttft_ms());
        assert_eq!(cold.traces[1].ttft_ms(), warm.traces[1].ttft_ms());
        assert!(warm.weights.is_none(), "no budget must serialize no summary");
    }

    #[test]
    fn streaming_overlap_lands_between_warm_and_sequential() {
        let e = engine();
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(1, 0.0, 16, 4);
        let warm = serve(&e, &trace, &ServeConfig::default()).unwrap();
        let budget = ServeConfig::default().with_weight_budget(model.total_weight_bytes());
        let sequential = serve(&e, &trace, &budget).unwrap();
        let streamed = serve(&e, &trace, &budget.with_weight_streaming(true)).unwrap();
        let warm_ttft = warm.traces[0].ttft_ms();
        let seq_ttft = sequential.traces[0].ttft_ms();
        let stream_ttft = streamed.traces[0].ttft_ms();
        assert!(
            warm_ttft < stream_ttft && stream_ttft < seq_ttft,
            "overlap must land strictly between warm {warm_ttft} and sequential {seq_ttft}, \
             got {stream_ttft}"
        );
        // Identical bytes moved either way — overlap hides latency, it
        // does not skip traffic.
        assert_eq!(
            streamed.ledger.bytes(TrafficClass::Weights),
            sequential.ledger.bytes(TrafficClass::Weights)
        );
    }

    #[test]
    fn lru_eviction_churns_two_models_through_a_one_model_budget() {
        let e = engine();
        let model = presets::tiny_decoder();
        let mut trace = ArrivalTrace::uniform(4, 0.0, 16, 4);
        for (i, r) in trace.requests.iter_mut().enumerate() {
            *r = r.with_model((i % 2) as u32);
        }
        // Room for exactly one model: every model switch re-streams.
        let config =
            ServeConfig::default().with_weight_budget(model.total_weight_bytes()).with_max_batch(1);
        let report = serve(&e, &trace, &config).unwrap();
        let weights = report.weights.unwrap();
        assert_eq!(weights.models, 2);
        assert!(weights.weight_evictions > 0, "a one-model budget must churn");
        assert_eq!(weights.weight_loads, weights.weight_evictions + 1);
        // Byte conservation through churn: exactly one model's weights
        // per load, nothing written back on evict.
        assert_eq!(weights.weight_bytes, weights.weight_loads * model.total_weight_bytes());
        assert_eq!(report.ledger.bytes(TrafficClass::Weights), weights.weight_bytes);
    }
}
