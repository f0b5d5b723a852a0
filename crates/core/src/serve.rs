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
//!   cache, while [`KvPolicy::PagedLru`] demotes the stalest session and
//!   then peels fixed-size pages off demoted sessions one at a time,
//!   moving only the bytes the tick actually needs. A session holding `b`
//!   bytes owns `b.div_ceil(page_bytes)` page frames; frames are counted,
//!   never named. Spills and reloads are charged on the engine's DRAM
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

// The root `clippy.toml` caps functions at 150 lines, which keeps the chip
// loop split into one method per decision.
#![warn(clippy::too_many_lines)]

use crate::cluster::MigrationCtx;
use crate::engine::{LatencyReport, MeadowEngine, StepShape};
use crate::error::CoreError;
use crate::session::SessionPhase;
use meadow_dataflow::pipeline::flow_shop_completion_times;
use meadow_dataflow::LayerLatency;
use meadow_models::workload::{kv_cache_total_bytes, ArrivalTrace, KvSizer, ServeRequest};
use meadow_models::{KvCompression, KvLayout, TransformerConfig};
use meadow_sim::{Cycles, DramModel, TrafficClass, TrafficLedger};
use meadow_tensor::parallel::par_map;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Typed rejection of an invalid serving or cluster configuration.
///
/// Construction-time validation ([`ServeConfig::validate`] and
/// [`ServeSpecBuilder::build`](crate::spec::ServeSpecBuilder::build)) and
/// [`ServeSpec::run`](crate::spec::ServeSpec::run) return these instead of
/// silently misbehaving, wrapped as [`CoreError::Serve`] at run time.
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
    /// A [`SpecDecode`] configuration with a non-sensical parameter: zero
    /// draft length, an acceptance rate outside `[0, 1]`, a non-finite or
    /// negative draft cost ratio, or a draft cost above
    /// [`SpecDecode::MAX_DRAFT_COST`].
    InvalidSpeculation {
        /// The rejected draft length.
        draft_len: usize,
        /// The rejected acceptance rate.
        acceptance: f64,
        /// The rejected draft cost ratio.
        draft_cost_ratio: f64,
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
    /// An interconnect that cannot charge a transfer honestly: a link
    /// costing zero hops (transfers between distinct chips would be free),
    /// per-link costs whose sum overflows a `u32` hop count, or a NoC with
    /// no links or no link bandwidth (every run would fail building it).
    InvalidInterconnect {
        /// Why the interconnect was rejected.
        reason: String,
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
            ServeError::InvalidSpeculation { draft_len, acceptance, draft_cost_ratio } => write!(
                f,
                "speculation needs draft_len >= 1, acceptance in [0, 1], a finite \
                 non-negative draft_cost_ratio and draft_len * draft_cost_ratio <= {}, got \
                 ({draft_len}, {acceptance}, {draft_cost_ratio})",
                SpecDecode::MAX_DRAFT_COST
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
            ServeError::InvalidInterconnect { reason } => {
                write!(f, "invalid interconnect: {reason}")
            }
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
    /// Evict at page granularity: demote the least recently stepped
    /// session, then peel [`ServeConfig::page_bytes`]-sized pages off the
    /// stalest demoted session, tail page first, until the tick fits,
    /// instead of spilling whole caches.
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
    /// The largest draft cost, `draft_len × draft_cost_ratio`, that
    /// [`validate`](Self::validate) accepts: one flush wastes that many of
    /// the step's own cycles. The longest step any preset measures (an
    /// OPT-1.3B GEMM-baseline prefill of 2,048 tokens at 1 Gbps) is under
    /// 2³⁵ cycles, so a flush stays under 2⁴⁵ cycles, far inside a `u64`
    /// cycle count.
    pub const MAX_DRAFT_COST: f64 = 1024.0;

    /// Validates the speculation parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidSpeculation`] for a zero draft length,
    /// an acceptance rate outside `[0, 1]`, a non-finite or negative draft
    /// cost ratio, or a draft cost above [`Self::MAX_DRAFT_COST`].
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad_acceptance =
            !self.acceptance.is_finite() || !(0.0..=1.0).contains(&self.acceptance);
        let bad_ratio = !self.draft_cost_ratio.is_finite() || self.draft_cost_ratio < 0.0;
        let bad_cost = self.draft_len as f64 * self.draft_cost_ratio > Self::MAX_DRAFT_COST;
        if self.draft_len == 0 || bad_acceptance || bad_ratio || bad_cost {
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
    /// [`ServeError`].
    /// [`ServeSpecBuilder::build`](crate::spec::ServeSpecBuilder::build)
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

/// Run-start validation of `trace` against the run's model and `config`,
/// made once per [`ServeSpec`](crate::spec::ServeSpec) run before any chip
/// runs, and the [`KvSizer`] every chip then accounts KV bytes with:
///
/// * the trace itself ([`ArrivalTrace::validate`]);
/// * the KV layout against the model ([`ServeError::InvalidKvLayout`],
///   e.g. `kv_heads` not dividing the model's head count);
/// * every request's peak KV against the per-chip budget
///   ([`ServeError::RequestExceedsBudget`] names the first offender in
///   trace order);
/// * the weight-residency configuration: a budget must hold at least one
///   model ([`ServeError::WeightBudgetTooSmall`]), and without a budget
///   every request must target the default resident model 0
///   ([`ServeError::UnknownModel`]).
pub(crate) fn validate_run(
    config: &ServeConfig,
    model: &TransformerConfig,
    trace: &ArrivalTrace,
) -> Result<KvSizer, CoreError> {
    trace.validate(model)?;
    let sizer = KvSizer::new(model, config.kv_layout, config.kv_compression)
        .map_err(|e| ServeError::InvalidKvLayout { reason: e.to_string() })?;
    if let Some(budget_bytes) = config.kv_budget_bytes {
        for r in &trace.requests {
            let peak_bytes = sizer.bytes(r.final_context_len());
            if peak_bytes > budget_bytes {
                let id = r.id;
                return Err(
                    ServeError::RequestExceedsBudget { id, peak_bytes, budget_bytes }.into()
                );
            }
        }
    }
    match config.weight_budget_bytes {
        Some(budget_bytes) => {
            let weight_bytes = model.total_weight_bytes();
            if budget_bytes < weight_bytes {
                return Err(ServeError::WeightBudgetTooSmall { budget_bytes, weight_bytes }.into());
            }
        }
        None => {
            if let Some(r) = trace.requests.iter().find(|r| r.model() != 0) {
                return Err(ServeError::UnknownModel { model_id: r.model() }.into());
            }
        }
    }
    Ok(sizer)
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
    pub(crate) fn total_latency_ms(&self) -> f64 {
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
    /// Paged mode: logical KV bytes the session holds on chip, in
    /// `held_bytes.div_ceil(page_bytes)` frames (residency the budget
    /// accounts; page-aligned except when fully resident).
    held_bytes: u64,
    /// Prefix of the KV data that is physically on chip (none or all of it
    /// under the whole-cache policies); the `[loaded, kv)` suffix is off
    /// chip awaiting reload.
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
    fn new(req: ServeRequest, phase: SessionPhase, sizer: &KvSizer) -> Self {
        let mut session = Self {
            req,
            phase,
            generated: 0,
            // A decode-only leg resumes a prefill that already ran
            // elsewhere: its prompt KV is logically present from the start.
            prefilled: phase.starts_prefilled(),
            spec_miss_credit: 0.0,
            rejected: false,
            evictions: 0,
            admission_seq: 0,
            last_step_tick: 0,
            queue_wait_ms: None,
            held_bytes: 0,
            loaded_bytes: 0,
            prefill_ms: 0.0,
            first_token_ms: 0.0,
            finish_ms: 0.0,
            tbt_ms: Vec::new(),
            cold_start: false,
        };
        // That prompt KV is also on chip already (the caller charged the
        // handoff on the NoC), so the first admission loads it fault-free.
        session.loaded_bytes = session.kv_bytes(sizer);
        session
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

    /// Whether the leg is complete: a prefill-only leg once prefilled, any
    /// other once every requested token is generated.
    fn is_done(&self) -> bool {
        self.prefilled
            && (self.phase.finishes_at_prefill() || self.generated == self.req.generate_tokens)
    }

    /// Key of arena entry `i` in the ready (step and LRU-victim) order.
    fn ready_key(&self, i: usize) -> ReadyKey {
        (self.last_step_tick, self.admission_seq, i)
    }

    /// Key of arena entry `i` in the FIFO victim order.
    fn fifo_key(&self, i: usize) -> ReadyKey {
        (self.admission_seq, self.last_step_tick, i)
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
    fn from_sorted(sorted: &[f64]) -> Self {
        Self { p50_ms: percentile(sorted, 0.5), p95_ms: percentile(sorted, 0.95) }
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

/// Per-run weight-residency tracker: the budgeted set of models whose
/// weights are on chip, with strict-LRU eviction and per-layer load
/// charging through the chip's DRAM channel, driven in step order.
///
/// ```text
///          ensure_resident: stream layers 0..L
/// evicted ─────────────────────────────────────▶ resident
///    ▲                                               │
///    └──────── LRU eviction (free: read-only) ◀──────┘
/// ```
///
/// Every model starts evicted (a cold chip holds no weights), and eviction
/// writes nothing back — weights are read-only, so dropping them only
/// costs the eventual re-stream.
struct WeightSet {
    budget_bytes: u64,
    streaming: bool,
    layers: usize,
    layer_bytes: u64,
    model_bytes: u64,
    /// Resident models: id → monotone last-use sequence number (strict LRU
    /// victim order).
    resident: BTreeMap<u32, u64>,
    use_seq: u64,
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
            resident: BTreeMap::new(),
            use_seq: 0,
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
        if let Some(use_seq) = self.resident.get_mut(&model_id) {
            *use_seq = self.use_seq;
            return (Cycles::ZERO, false);
        }
        // LRU model eviction until the new weights fit. Free: weights are
        // read-only, so nothing is written back — the cost is the churn
        // counted here and the eventual re-stream.
        while (self.resident.len() as u64 + 1) * self.model_bytes > self.budget_bytes {
            let (&victim, _) = self
                .resident
                .iter()
                .min_by_key(|&(&id, &use_seq)| (use_seq, id))
                .expect("the budget precheck guarantees one model always fits");
            self.resident.remove(&victim);
            self.evictions += 1;
        }
        self.resident.insert(model_id, self.use_seq);
        let load: Vec<Cycles> =
            (0..self.layers).map(|_| dram.transfer_weights(self.layer_bytes)).collect();
        self.loads += 1;
        let stall = if self.streaming {
            let warm: u64 = compute.iter().map(|c| c.get()).sum();
            Cycles(pipelined_cold_finish(&load, compute).get() - warm)
        } else {
            Cycles(load.iter().map(|c| c.get()).sum())
        };
        (stall, true)
    }

    /// The run's [`WeightSummary`]. Cold and warm TTFT are summarized
    /// separately over non-rejected sessions, split by whether the
    /// session's first prefill step had to stream its model's weights in.
    fn summary(&self, sessions: &[Session], ledger: &TrafficLedger) -> WeightSummary {
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
        let mut models: Vec<u32> = sessions.iter().map(|s| s.req.model()).collect();
        models.sort_unstable();
        models.dedup();
        WeightSummary {
            weight_budget_bytes: self.budget_bytes,
            streaming: self.streaming,
            models: models.len(),
            model_weight_bytes: self.model_bytes,
            weight_bytes: ledger.bytes(TrafficClass::Weights),
            weight_loads: self.loads,
            weight_evictions: self.evictions,
            cold_requests: cold.len() as u64,
            cold_ttft: LatencySummary::from_samples(cold),
            warm_ttft: LatencySummary::from_samples(warm),
        }
    }
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

/// Request indices in arrival order, ties broken by id: the order
/// placement routes requests in and the order a chip's arrivals enter its
/// wait queue.
pub(crate) fn arrival_order(trace: &ArrivalTrace) -> Vec<usize> {
    let mut order: Vec<usize> = (0..trace.requests.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&trace.requests[a], &trace.requests[b]);
        a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id))
    });
    order
}

/// Scheduling key of one session: `(last step tick, admission sequence,
/// arena index)` — the step-set order and the LRU victim order. The
/// admission sequence is unique among resident and demoted sessions, so
/// the index only names the session and never decides an order.
type ReadyKey = (u64, u64, usize);

/// Ordered index over sessions. One instance keyed by the ready key serves
/// step selection (a prefix walk) and LRU victims (an in-order scan that
/// skips the step set); a second keyed by `(admission sequence, last step
/// tick, index)` serves FIFO victims; a third holds the demoted sessions
/// that still own `PagedLru` frames, stalest first. No per-tick
/// clone-and-sort.
#[derive(Debug, Default)]
struct ReadyOrder {
    set: BTreeSet<ReadyKey>,
}

impl ReadyOrder {
    fn insert(&mut self, key: ReadyKey) {
        let fresh = self.set.insert(key);
        debug_assert!(fresh, "ready keys embed the unique arena index");
    }

    fn remove(&mut self, key: &ReadyKey) {
        let existed = self.set.remove(key);
        debug_assert!(existed, "removed sessions must be indexed");
    }

    fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    fn first(&self) -> Option<&ReadyKey> {
        self.set.first()
    }

    /// Sessions in key order (ascending — least recently stepped first
    /// under the ready key).
    fn iter(&self) -> impl Iterator<Item = &ReadyKey> {
        self.set.iter()
    }
}

/// The per-chip serving loop behind every
/// [`ServeSpec`](crate::spec::ServeSpec) run, single-chip, cluster or
/// disaggregated: runs `trace` on one engine, parking spilled KV bytes on
/// remote chips through the cluster's [`MigrationCtx`] when its policy
/// migrates, and on DRAM otherwise.
///
/// `phases` (aligned with `trace.requests`) lets disaggregated serving run
/// partial legs: a `PrefillOnly` leg finishes once its prompt KV and first
/// token are produced, a `DecodeOnly` leg starts already prefilled with
/// its prompt KV delivered (the caller charges the handoff on the cluster
/// NoC). The trace, the budgets and `sizer` come from [`validate_run`],
/// so nothing is checked again here.
///
/// The run itself is a [`ChipLoop`].
pub(crate) fn serve_on_chip(
    engine: &MeadowEngine,
    trace: &ArrivalTrace,
    config: &ServeConfig,
    sizer: &KvSizer,
    phases: &[SessionPhase],
    migration: &mut MigrationCtx,
) -> Result<ServeReport, CoreError> {
    debug_assert_eq!(phases.len(), trace.requests.len(), "phases must align with the trace");
    ChipLoop::new(engine, trace, config, *sizer, phases, migration)?.run()
}

/// The state of one chip's serving run, stepped one scheduler iteration (a
/// tick) at a time by [`ChipLoop::run`], with one method per decision.
///
/// Each tick steps one batch, and simulated time jumps by the batch
/// makespan, or to the next arrival when the chip idles. A tick costs
/// `O(batch · log n)`, not `O(resident sessions)`:
///
/// * Every arrival is known when the run starts, so arrivals enter the
///   wait queue through a cursor over [`arrival_order`]. The TTFT SLO is
///   one constant per run and requests enter in arrival order, so their
///   deadlines fall due in that same order: a FIFO queue holds them, and a
///   request is shed once `now - arrival > slo` (evaluated against the
///   original arrival time, never a differently rounded `arrival + slo`).
///   Shed requests stay in the wait deque as tombstones, skipped at the
///   head, instead of an `O(n)` `retain`.
/// * The step/victim order lives in [`ReadyOrder`] indexes keyed by arena
///   index and maintained incrementally (one in LRU order, one in FIFO
///   order when that policy needs it, one over paged zombies) instead of a
///   per-tick clone-and-sort.
/// * The budget sums (`Σ next_kv` for admission, stepping + idle + zombie
///   demand for eviction) are running `u64` totals — exact, because
///   unsigned sums are order-independent — with per-session sizes cached
///   and refreshed at each state change.
/// * Step measurements are memoized by the measured step shape
///   `(tokens_new, context)`: `(p, p)` for a `p`-token prefill and
///   `(1, p + i - 1)` for the `i`-th decode step. The engine's latency
///   model is a pure function of it — every call builds a fresh DRAM
///   channel — so a memo hit (errors included) is bit-identical to
///   re-measuring, and decode steps of different requests at the same
///   context share one measurement. The memo keeps only what a tick reads
///   of it, a [`StepCost`], and drops the per-op report. Misses fan out
///   through an order-preserving parallel map, preserving
///   `MEADOW_THREADS` bit-identity.
///
/// `PagedLru` frames are counted, not named: a session holding `b` bytes
/// owns `b.div_ceil(page_bytes)` frames, so one running `frames_held` sum
/// gives fragmentation. Every frame a session owns is as stale as the
/// session (attention reads the whole cache each step), so pages are
/// peeled in the demoted sessions' order, tail first, which keeps a
/// session's held bytes a page-aligned prefix.
///
/// Step completion is the one event that is not known in advance: the
/// batch's flow-shop makespan decides the next time the scheduler wakes.
/// Eviction spills, KV reloads and speculative-decoding flushes complete
/// *within* the step that needs them (the cost model charges them as
/// stalls ahead of the first layer), and a disaggregated handoff is an
/// ordinary arrival of the decode stage at `prefill finish + handoff
/// latency`.
///
/// Sessions live in one arena (`Vec<Session>`, indexed by the trace
/// order) and the per-tick scratch buffers are reused across ticks, so
/// steady-state scheduling allocates only when the batch shape grows.
/// Debug builds audit the running sums and indexes after every tick.
/// `tests/oracle_digests.rs` pins the reports to a retired per-tick scan
/// implementation's, case by case, on a fixed corpus that crosses every
/// feature axis.
struct ChipLoop<'a> {
    engine: &'a MeadowEngine,
    config: &'a ServeConfig,
    sizer: KvSizer,
    paged: bool,
    use_fifo: bool,
    migration: &'a mut MigrationCtx,
    weights: Option<WeightSet>,
    /// Serving-level channel for KV spill/reload migration and weight
    /// loads; per-step attention traffic is ledgered inside each
    /// [`StepCost`].
    kv_dram: DramModel,
    ledger: TrafficLedger,
    sessions: Vec<Session>,
    arrivals: Vec<usize>,
    next_arrival: usize,
    /// Waiting requests in deadline order, which is arrival order.
    deadlines: VecDeque<usize>,
    /// Wait queue with tombstones: shed requests stay in the deque and are
    /// skipped at the head; `wait_live` counts the live ones.
    wait: VecDeque<usize>,
    wait_live: usize,
    /// Resident sessions in step/LRU-victim order, and in FIFO victim
    /// order (maintained only when that policy orders victims differently).
    ready: ReadyOrder,
    fifo: ReadyOrder,
    /// `PagedLru`: demoted sessions that still hold frames, keyed by their
    /// ready key at demotion — the order their pages are peeled in.
    zombies: ReadyOrder,
    /// Cached per-session KV sizes, initialized from the *constructed*
    /// sessions: a decode-only leg starts prefilled, with its prompt KV
    /// logically present.
    resident_kv: Vec<u64>,
    next_kv: Vec<u64>,
    /// Σ next_kv / Σ resident_kv over resident (ready) sessions, including
    /// this tick's finishers until the peak snapshot.
    active_next_sum: u64,
    active_resident_sum: u64,
    /// `PagedLru` residency: Σ held bytes over resident sessions and over
    /// zombies, and Σ held frames over every session.
    active_held_sum: u64,
    wait_held_sum: u64,
    frames_held: u64,
    /// `step_epoch[i] == tick` marks membership in the current step set,
    /// so victim scans skip it without an auxiliary set.
    step_epoch: Vec<u64>,
    /// Step costs by step shape: `memo` maps a shape to its slot in
    /// `costs`. The key deliberately omits the chip: the memo lives and
    /// dies inside one `ChipLoop`, so it is private to one chip's engine.
    /// That scoping is load-bearing for heterogeneous fleets — the same
    /// shape measures differently on a big chip than on a LITTLE one, so a
    /// memo shared across chips would silently serve one chip's latencies
    /// to another. Never hoist this memo above the per-chip serving loop.
    memo: HashMap<StepShape, usize>,
    costs: Vec<Result<StepCost, CoreError>>,
    now: f64,
    tick: u64,
    admission_counter: u64,
    settled: usize,
    peak_kv: u64,
    frag_peak: u64,
    total_evictions: u64,
    page_spills: u64,
    page_faults: u64,
    rejected: u64,
    /// This tick's step set, its Σ next_kv / Σ resident_kv, and the spill
    /// cycles that occupy the channel before the batch starts.
    step_set: Vec<usize>,
    step_next: u64,
    step_resident: u64,
    spill_cycles: Cycles,
    // Scratch buffers reused across ticks (no per-tick churn).
    reload_cycles: Vec<Cycles>,
    /// Each stepping session's slot in `costs`, or its shape's error.
    step_costs: Vec<Result<usize, CoreError>>,
    miss_shapes: Vec<StepShape>,
    /// The tick's flow-shop matrix: its first `step_set.len()` rows, which
    /// keep their allocations from tick to tick.
    matrix: Vec<Vec<Cycles>>,
    solo_ms: Vec<f64>,
    finished: Vec<usize>,
}

impl<'a> ChipLoop<'a> {
    fn new(
        engine: &'a MeadowEngine,
        trace: &ArrivalTrace,
        config: &'a ServeConfig,
        sizer: KvSizer,
        phases: &[SessionPhase],
        migration: &'a mut MigrationCtx,
    ) -> Result<Self, CoreError> {
        let sessions: Vec<Session> = trace
            .requests
            .iter()
            .zip(phases)
            .map(|(&r, &phase)| Session::new(r, phase, &sizer))
            .collect();
        let n = sessions.len();
        Ok(Self {
            engine,
            config,
            sizer,
            paged: config.policy == KvPolicy::PagedLru,
            use_fifo: config.policy == KvPolicy::Fifo,
            migration,
            weights: WeightSet::for_run(config, &engine.config().model),
            kv_dram: engine.fresh_dram()?,
            ledger: TrafficLedger::new(),
            resident_kv: sessions.iter().map(|s| s.kv_bytes(&sizer)).collect(),
            next_kv: sessions.iter().map(|s| s.next_kv(&sizer)).collect(),
            sessions,
            arrivals: arrival_order(trace),
            next_arrival: 0,
            deadlines: VecDeque::new(),
            wait: VecDeque::new(),
            wait_live: 0,
            ready: ReadyOrder::default(),
            fifo: ReadyOrder::default(),
            zombies: ReadyOrder::default(),
            active_next_sum: 0,
            active_resident_sum: 0,
            active_held_sum: 0,
            wait_held_sum: 0,
            frames_held: 0,
            step_epoch: vec![0; n],
            memo: HashMap::new(),
            costs: Vec::new(),
            now: 0.0,
            tick: 0,
            admission_counter: 0,
            settled: 0,
            peak_kv: 0,
            frag_peak: 0,
            total_evictions: 0,
            page_spills: 0,
            page_faults: 0,
            rejected: 0,
            step_set: Vec::new(),
            step_next: 0,
            step_resident: 0,
            spill_cycles: Cycles::ZERO,
            reload_cycles: Vec::new(),
            step_costs: Vec::new(),
            miss_shapes: Vec::new(),
            matrix: Vec::new(),
            solo_ms: Vec::new(),
            finished: Vec::new(),
        })
    }

    /// Runs ticks until every request has finished or been shed.
    fn run(mut self) -> Result<ServeReport, CoreError> {
        while self.settled < self.sessions.len() {
            self.tick += 1;
            self.arrive();
            self.shed_lapsed();
            self.admit();
            // An empty step set is only reachable when load shedding
            // emptied the queue with no resident work; the next tick jumps
            // to the next arrival.
            if self.pick_step_set() {
                self.enforce_budget();
                self.reload();
                self.measure()?;
                self.commit_step();
                self.record_peak();
                self.release_finishers();
            }
            if cfg!(debug_assertions) {
                self.audit();
            }
        }
        self.ledger.merge(self.kv_dram.ledger());
        Ok(self.into_report())
    }

    /// The TTFT SLO past which never-admitted requests are shed.
    fn slo(&self) -> Option<f64> {
        match self.config.admission {
            AdmissionPolicy::RejectAfter { ttft_slo_ms } => Some(ttft_slo_ms),
            AdmissionPolicy::Queue => None,
        }
    }

    /// Arrivals at or before `now` enter the wait queue; an idle chip first
    /// jumps straight to the next arrival.
    fn arrive(&mut self) {
        if self.ready.is_empty() && self.wait_live == 0 {
            if let Some(&i) = self.arrivals.get(self.next_arrival) {
                self.now = self.now.max(self.sessions[i].req.arrival_ms);
            }
        }
        let track_deadlines = self.slo().is_some();
        while let Some(&i) = self.arrivals.get(self.next_arrival) {
            if self.sessions[i].req.arrival_ms > self.now {
                break;
            }
            self.next_arrival += 1;
            self.wait.push_back(i);
            self.wait_live += 1;
            if track_deadlines {
                self.deadlines.push_back(i);
            }
        }
    }

    /// Sheds every request whose TTFT SLO lapsed before first admission.
    /// Admitted sessions drop their stale deadline silently — their work is
    /// already sunk, never shed.
    fn shed_lapsed(&mut self) {
        let Some(ttft_slo_ms) = self.slo() else { return };
        while let Some(&i) = self.deadlines.front() {
            let s = &mut self.sessions[i];
            if s.queue_wait_ms.is_some() {
                self.deadlines.pop_front();
                continue;
            }
            if self.now - s.req.arrival_ms <= ttft_slo_ms {
                // Earliest deadline not lapsed: none after it has.
                break;
            }
            self.deadlines.pop_front();
            s.rejected = true;
            s.queue_wait_ms = Some(self.now - s.req.arrival_ms);
            self.rejected += 1;
            self.settled += 1;
            self.wait_live -= 1;
        }
    }

    /// Head-of-line admission: the head joins when its next step fits
    /// alongside every resident session's next step (the running
    /// Σ next_kv: conservative, all of them may grow this tick). Demoted
    /// sessions' unpeeled pages deliberately do NOT count: budget
    /// enforcement reclaims them first, and counting them could wedge the
    /// scheduler — a blocked head with no stepping session never advances
    /// the clock, so the pages never free.
    fn admit(&mut self) {
        while let Some(&head) = self.wait.front() {
            if self.sessions[head].rejected {
                // Tombstone left by a lapsed deadline.
                self.wait.pop_front();
                continue;
            }
            let projected = self.active_next_sum + self.next_kv[head];
            if self.config.kv_budget_bytes.is_some_and(|b| projected > b) {
                break;
            }
            self.wait.pop_front();
            self.wait_live -= 1;
            if self.paged {
                // Re-admission holds the whole cache up front; a zombie's
                // unpeeled pages move from the wait sum back to the active
                // sum.
                let (held, kv) = (self.sessions[head].held_bytes, self.resident_kv[head]);
                if held > 0 {
                    self.zombies.remove(&self.sessions[head].ready_key(head));
                }
                self.wait_held_sum -= held;
                self.active_held_sum += kv;
                self.set_held(head, kv);
            }
            self.admission_counter += 1;
            let s = &mut self.sessions[head];
            s.admission_seq = self.admission_counter;
            if s.queue_wait_ms.is_none() {
                s.queue_wait_ms = Some(self.now - s.req.arrival_ms);
            }
            self.active_next_sum += self.next_kv[head];
            self.active_resident_sum += self.resident_kv[head];
            self.join_ready(head);
        }
    }

    /// Step-set selection: the first `max_batch` sessions in ready order —
    /// least recently stepped first, deterministic tie-breaks — without
    /// cloning or sorting the resident set. Returns whether any session
    /// steps this tick.
    fn pick_step_set(&mut self) -> bool {
        self.step_set.clear();
        self.step_set.extend(self.ready.iter().take(self.config.max_batch).map(|&(_, _, i)| i));
        self.step_next = 0;
        self.step_resident = 0;
        for &i in &self.step_set {
            self.step_epoch[i] = self.tick;
            self.step_next += self.next_kv[i];
            self.step_resident += self.resident_kv[i];
        }
        !self.step_set.is_empty()
    }

    /// Budget enforcement: evict until the tick fits, idle sessions first
    /// (freeing them costs no progress), then the step set. The demand —
    /// stepping sessions grown, idle caches and demoted sessions' unpeeled
    /// pages (zero outside `PagedLru`) — comes O(1) from running sums.
    fn enforce_budget(&mut self) {
        self.spill_cycles = Cycles::ZERO;
        let Some(budget) = self.config.kv_budget_bytes else { return };
        while self.step_next + (self.active_resident_sum - self.step_resident) + self.wait_held_sum
            > budget
        {
            if self.paged {
                self.peel_or_demote();
            } else {
                self.evict_whole_cache();
            }
        }
        debug_assert!(!self.step_set.is_empty(), "a tick with work must step a session");
    }

    /// The next session to demote: the first resident session in victim
    /// order (the FIFO index under `Fifo`, else the ready index) that is
    /// not stepping and holds a cache, else the step set's minimum in that
    /// order. Evicting the last stepping session is impossible: a single
    /// next step always fits (validated at run start).
    fn pick_victim(&self) -> usize {
        let order = if self.use_fifo { &self.fifo } else { &self.ready };
        order
            .iter()
            .map(|&(_, _, i)| i)
            .find(|&i| self.step_epoch[i] != self.tick && self.resident_kv[i] > 0)
            .unwrap_or_else(|| {
                self.step_set
                    .iter()
                    .copied()
                    .min_by_key(|&i| {
                        let s = &self.sessions[i];
                        if self.use_fifo {
                            s.fifo_key(i)
                        } else {
                            s.ready_key(i)
                        }
                    })
                    .expect("an over-budget tick always has an evictable session")
            })
    }

    /// Whole-cache eviction (`Fifo`/`Lru`): demote the victim and spill its
    /// whole cache. A session evicted again before reloading, or preempted
    /// before its prefill, has nothing on chip to write out.
    fn evict_whole_cache(&mut self) {
        let victim = self.pick_victim();
        self.demote(victim);
        let s = &mut self.sessions[victim];
        let (id, bytes) = (s.req.id, std::mem::take(&mut s.loaded_bytes));
        if bytes > 0 {
            self.charge_spill(id, bytes, None);
        }
    }

    /// `PagedLru` eviction, a lazy page-granular spill: first peel pages
    /// that demoted sessions left behind (stalest owner first); once none
    /// remain, demote the victim — without spilling anything yet, unless
    /// it was about to step. Demotion is what throttles the
    /// multiprogramming level (the session stops being scheduled, exactly
    /// like whole-cache eviction, so paging cannot thrash the step set);
    /// peeling is what bounds the traffic (only the bytes the tick
    /// actually needs ever move).
    fn peel_or_demote(&mut self) {
        if let Some(&(_, _, zombie)) = self.zombies.first() {
            self.peel_tail_page(zombie);
            return;
        }
        let victim = self.pick_victim();
        let stepping = self.step_epoch[victim] == self.tick;
        self.demote(victim);
        let s = &self.sessions[victim];
        if !stepping {
            // Its pages become zombie residency until lazily peeled.
            self.wait_held_sum += s.held_bytes;
            self.zombies.insert(s.ready_key(victim));
            return;
        }
        // No idle cache left: a stepping session spills eagerly.
        let (id, loaded, page_bytes) = (s.req.id, s.loaded_bytes, self.config.page_bytes);
        if loaded > 0 {
            self.charge_spill(id, loaded, Some(page_bytes));
            self.page_spills += loaded.div_ceil(page_bytes);
        }
        self.release_frames(victim);
    }

    /// Peels zombie `victim`'s tail frame. Only the valid, on-chip bytes of
    /// the tail move; reserved-but-unloaded bytes free silently (their data
    /// never came back on chip).
    fn peel_tail_page(&mut self, victim: usize) {
        let page_bytes = self.config.page_bytes;
        let s = &self.sessions[victim];
        let (held, id, key) = (s.held_bytes, s.req.id, s.ready_key(victim));
        let tail_start = (held.div_ceil(page_bytes) - 1) * page_bytes;
        let write = s.loaded_bytes.saturating_sub(tail_start);
        if write > 0 {
            self.charge_spill(id, write, None);
            self.page_spills += 1;
        }
        if tail_start == 0 {
            self.zombies.remove(&key);
        }
        self.wait_held_sum -= held - tail_start;
        self.set_held(victim, tail_start);
        let s = &mut self.sessions[victim];
        s.loaded_bytes = s.loaded_bytes.min(tail_start);
    }

    /// Demotion bookkeeping shared by every policy: session `i` leaves the
    /// step set (when stepping), the ready/FIFO index and the active sums,
    /// counts an eviction when it holds (or owes) a cache, and rejoins the
    /// wait queue.
    fn demote(&mut self, i: usize) {
        if self.step_epoch[i] == self.tick {
            let pos = self.step_set.iter().position(|&j| j == i).expect("stepping this tick");
            self.step_set.remove(pos);
            self.step_next -= self.next_kv[i];
            self.step_resident -= self.resident_kv[i];
        }
        self.leave_ready(i);
        self.active_next_sum -= self.next_kv[i];
        self.active_resident_sum -= self.resident_kv[i];
        let s = &mut self.sessions[i];
        self.active_held_sum -= s.held_bytes;
        if s.prefilled {
            self.total_evictions += 1;
            s.evictions += 1;
        }
        self.wait.push_back(i);
        self.wait_live += 1;
    }

    /// Charges one KV-cache spill ahead of this tick's batch, preferring
    /// cross-chip migration when the cluster's [`MigrationCtx`] accepts
    /// the bytes and falling back to the chip's DRAM channel
    /// ([`DramModel::transfer_kv_cache`]) otherwise. Under
    /// [`NoMigration`](crate::cluster::NoMigration) this is exactly the
    /// single-chip spill arithmetic.
    fn charge_spill(&mut self, id: u32, bytes: u64, granularity: Option<u64>) {
        let parked = self.migration.park(id, bytes);
        self.spill_cycles +=
            parked.unwrap_or_else(|| self.kv_dram.transfer_kv_cache(bytes, granularity));
    }

    /// Reloads, for each session about to step, the `[loaded, kv)` suffix
    /// of its cache that a spill or peel left off chip: bytes parked on a
    /// remote chip come back over the cluster NoC first, the rest from
    /// DRAM (page by page under `PagedLru`).
    fn reload(&mut self) {
        let page_bytes = self.paged.then_some(self.config.page_bytes);
        self.reload_cycles.clear();
        for &i in &self.step_set {
            let s = &mut self.sessions[i];
            let fault = self.resident_kv[i] - s.loaded_bytes;
            s.loaded_bytes = self.resident_kv[i];
            let mut cycles = Cycles::ZERO;
            if fault > 0 {
                let (noc_cycles, pulled) = self.migration.pull_back(s.req.id, fault);
                cycles += noc_cycles;
                let rest = fault - pulled;
                if rest > 0 {
                    cycles += self.kv_dram.transfer_kv_cache(rest, page_bytes);
                }
                self.page_faults += page_bytes.map_or(0, |p| fault.div_ceil(p));
            }
            self.reload_cycles.push(cycles);
        }
    }

    /// Measures each *distinct* step shape once and builds the tick's
    /// flow-shop rows. The engine's latency model is a pure function of
    /// (tokens new, context) — every call builds a fresh DRAM channel — so
    /// a memoized [`StepCost`] (errors included) is bit-identical to
    /// re-measuring. Each step looks its shape up once; the misses fan out
    /// on the engine's execution policy through an order-preserving
    /// parallel map, so the run is bit-identical across thread counts.
    ///
    /// # Errors
    ///
    /// The first failing step in step order propagates.
    fn measure(&mut self) -> Result<(), CoreError> {
        self.step_costs.clear();
        self.miss_shapes.clear();
        for &i in &self.step_set {
            let slot = step_shape(self.engine, &self.sessions[i]).map(|shape| {
                // A miss takes the slot its measurement will be pushed to.
                *self.memo.entry(shape).or_insert_with(|| {
                    self.miss_shapes.push(shape);
                    self.costs.len() + self.miss_shapes.len() - 1
                })
            });
            self.step_costs.push(slot);
        }
        if !self.miss_shapes.is_empty() {
            let engine = self.engine;
            self.costs.extend(par_map(&self.miss_shapes, &engine.config().exec, |&shape| {
                engine.measure(shape).map(StepCost::of)
            }));
        }
        let clock = self.engine.config().chip.clock;
        self.solo_ms.clear();
        for (pos, &i) in self.step_set.iter().enumerate() {
            let cost = match &self.step_costs[pos] {
                Ok(slot) => self.costs[*slot].as_ref().map_err(CoreError::clone)?,
                Err(e) => return Err(e.clone()),
            };
            if pos == self.matrix.len() {
                self.matrix.push(Vec::new());
            }
            let row = &mut self.matrix[pos];
            row.clear();
            row.extend_from_slice(&cost.layers);
            let mut stall = self.reload_cycles[pos];
            let s = &mut self.sessions[i];
            // Weight residency: the stepping session's model must be on
            // chip. A hit is free; a miss streams every layer through the
            // DRAM channel (evicting LRU models as needed) and stalls the
            // step — the full sequential load, or only the pipelined
            // overhang beyond the compute row when streaming overlap is
            // on. A load at a session's first prefill step is a cold
            // start; later re-streams are residency churn.
            if let Some(ws) = self.weights.as_mut() {
                let (wstall, was_cold) = ws.ensure_resident(&mut self.kv_dram, s.req.model(), row);
                stall += wstall;
                if was_cold && !s.prefilled {
                    s.cold_start = true;
                }
            }
            // Speculative decoding: each decode step is one verify round.
            // Accepted rounds ride in the verify pass's memory-bound shadow
            // for free; the deterministic miss credit fires a flush every
            // `1 / (1 - acceptance)` rounds, charging the wasted draft work
            // up front like a reload. At acceptance 1.0 the credit never
            // grows and this block is arithmetic-free — the bit-exact
            // degeneracy contract.
            if let Some(spec) = self.config.speculation.filter(|_| s.prefilled) {
                s.spec_miss_credit += 1.0 - spec.acceptance;
                if s.spec_miss_credit >= 1.0 {
                    s.spec_miss_credit -= 1.0;
                    let step: u64 = row.iter().map(|c| c.get()).sum();
                    let waste =
                        (step as f64 * spec.draft_len as f64 * spec.draft_cost_ratio).round();
                    stall += Cycles(waste as u64);
                }
            }
            // The reload (and any speculation flush) must land before the
            // first layer can run.
            row[0] += stall;
            self.solo_ms.push(cost.ms + clock.to_ms(stall));
            self.ledger.merge(&cost.ledger);
        }
        Ok(())
    }

    /// Continuous batching: the batch pipelines through the layers like a
    /// flow shop, and spills occupy the channel before it starts. Each
    /// stepping session takes its step (the prefill or one decode token),
    /// is re-keyed for the new step tick, and refreshes its cached sizes
    /// and the running sums; finishers keep counting until the peak
    /// snapshot. The clock then advances past the tick.
    fn commit_step(&mut self) {
        let clock = self.engine.config().chip.clock;
        let finishes = flow_shop_completion_times(&self.matrix[..self.step_set.len()]);
        self.finished.clear();
        for (pos, &finish) in finishes.iter().enumerate() {
            let i = self.step_set[pos];
            self.leave_ready(i);
            let done_ms = self.now + clock.to_ms(self.spill_cycles + finish);
            let own_ms = self.solo_ms[pos];
            let s = &mut self.sessions[i];
            s.last_step_tick = self.tick;
            if s.prefilled {
                s.generated += 1;
                s.tbt_ms.push(own_ms);
            } else {
                s.prefilled = true;
                s.prefill_ms = own_ms;
                s.first_token_ms = done_ms;
            }
            let done = s.is_done();
            if done {
                s.finish_ms = done_ms;
            }
            let (resident, next) = (s.kv_bytes(&self.sizer), s.next_kv(&self.sizer));
            self.active_resident_sum = self.active_resident_sum - self.resident_kv[i] + resident;
            self.active_next_sum = self.active_next_sum - self.next_kv[i] + next;
            self.resident_kv[i] = resident;
            self.next_kv[i] = next;
            // The step's KV writes land as measured attention traffic;
            // residency grows in place.
            s.loaded_bytes = resident;
            if self.paged {
                self.active_held_sum = self.active_held_sum - s.held_bytes + resident;
                self.set_held(i, resident);
            }
            if done {
                self.finished.push(i);
            } else {
                self.join_ready(i);
            }
        }
        let tick_cycles = self.spill_cycles + finishes.last().copied().unwrap_or(Cycles::ZERO);
        self.now += clock.to_ms(tick_cycles);
    }

    /// Residency peaks at tick end, before completed caches are freed;
    /// paged residency also counts zombie pages, and its fragmentation is
    /// the held frames' bytes beyond the held bytes. All are running sums
    /// — no scan.
    fn record_peak(&mut self) {
        if self.paged {
            let held = self.active_held_sum + self.wait_held_sum;
            self.peak_kv = self.peak_kv.max(held);
            self.frag_peak = self.frag_peak.max(self.frames_held * self.config.page_bytes - held);
        } else {
            self.peak_kv = self.peak_kv.max(self.active_resident_sum);
        }
    }

    /// Finished sessions leave the running sums and free their frames.
    fn release_finishers(&mut self) {
        for pos in 0..self.finished.len() {
            let i = self.finished[pos];
            self.active_resident_sum -= self.resident_kv[i];
            self.active_next_sum -= self.next_kv[i];
            if self.paged {
                self.active_held_sum -= self.sessions[i].held_bytes;
                self.release_frames(i);
            }
        }
        self.settled += self.finished.len();
    }

    /// Session `i` joins the ready index (and the FIFO index).
    fn join_ready(&mut self, i: usize) {
        let s = &self.sessions[i];
        self.ready.insert(s.ready_key(i));
        if self.use_fifo {
            self.fifo.insert(s.fifo_key(i));
        }
    }

    /// Session `i` leaves the ready index (and the FIFO index); call
    /// before its key fields change.
    fn leave_ready(&mut self, i: usize) {
        let s = &self.sessions[i];
        self.ready.remove(&s.ready_key(i));
        if self.use_fifo {
            self.fifo.remove(&s.fifo_key(i));
        }
    }

    /// `PagedLru`: sets session `i`'s held bytes, keeping `frames_held` —
    /// Σ `held.div_ceil(page_bytes)` over every session — in step. The
    /// caller moves the bytes between the held sums.
    fn set_held(&mut self, i: usize, bytes: u64) {
        let page_bytes = self.config.page_bytes;
        let s = &mut self.sessions[i];
        self.frames_held =
            self.frames_held + bytes.div_ceil(page_bytes) - s.held_bytes.div_ceil(page_bytes);
        s.held_bytes = bytes;
    }

    /// `PagedLru`: frees every frame of session `i` (on completion or an
    /// eager spill); its data is no longer on chip.
    fn release_frames(&mut self, i: usize) {
        self.set_held(i, 0);
        self.sessions[i].loaded_bytes = 0;
    }

    /// Debug-build audit after every tick: recomputes the five running
    /// sums, `wait_live` and the ready, FIFO and zombie index memberships
    /// from the sessions, and asserts that the incremental bookkeeping
    /// matches them.
    fn audit(&self) {
        let mut waiting = vec![false; self.sessions.len()];
        for &i in self.wait.iter().filter(|&&i| !self.sessions[i].rejected) {
            assert!(!waiting[i], "session {i} is queued twice");
            waiting[i] = true;
        }
        let (mut ready, mut fifo, mut zombies) = (Vec::new(), Vec::new(), Vec::new());
        let [mut next, mut resident, mut held, mut wait_held, mut frames] = [0u64; 5];
        for (i, s) in self.sessions.iter().enumerate() {
            if self.paged {
                frames += s.held_bytes.div_ceil(self.config.page_bytes);
            }
            if waiting[i] {
                wait_held += s.held_bytes;
                if s.held_bytes > 0 {
                    zombies.push(s.ready_key(i));
                }
            } else if s.queue_wait_ms.is_some() && !s.rejected && !s.is_done() {
                if self.paged {
                    assert_eq!(s.held_bytes, self.resident_kv[i], "session {i} is partly held");
                }
                next += self.next_kv[i];
                resident += self.resident_kv[i];
                held += s.held_bytes;
                ready.push(s.ready_key(i));
                if self.use_fifo {
                    fifo.push(s.fifo_key(i));
                }
            }
        }
        for keys in [&mut ready, &mut fifo, &mut zombies] {
            keys.sort_unstable();
        }
        assert!(self.ready.iter().eq(&ready), "ready index drifted");
        assert!(self.fifo.iter().eq(&fifo), "FIFO index drifted");
        assert!(self.zombies.iter().eq(&zombies), "zombie index drifted");
        assert_eq!(self.wait_live, waiting.iter().filter(|&&w| w).count(), "wait_live drifted");
        assert_eq!(
            [
                self.active_next_sum,
                self.active_resident_sum,
                self.active_held_sum,
                self.wait_held_sum,
                self.frames_held,
            ],
            [next, resident, held, wait_held, frames],
            "running sums drifted"
        );
    }

    /// Folds final session state into the [`ServeReport`]: the traces in
    /// input order (each session's TBT series moves into its trace), the
    /// latency sort and the [`LatencySummary`] percentiles.
    fn into_report(self) -> ServeReport {
        let config = self.config;
        let model = &self.engine.config().model;
        let kv = kv_summary(model, &self.sizer, &self.sessions);
        // `None` without a weight budget: the permanently-resident
        // identity, whose reports stay byte-stable.
        let weights = self.weights.as_ref().map(|ws| ws.summary(&self.sessions, &self.ledger));
        let requests = self.sessions.len();
        let traces: Vec<ServeTrace> = self
            .sessions
            .into_iter()
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
                tbt_ms: s.tbt_ms,
                evictions: s.evictions,
                // Prompt plus tokens actually generated: equals
                // `final_context_len()` for full and decode legs, and the
                // prompt alone for a prefill-only leg (its handoff payload).
                final_kv_bytes: if s.rejected {
                    0
                } else {
                    self.sizer.bytes(s.req.prompt_tokens + s.generated)
                },
                cold_start: config.weight_budget_bytes.is_some().then_some(s.cold_start),
            })
            .collect();
        let total_generated: u64 = traces.iter().map(|t| t.generated_tokens as u64).sum();
        let latency = LatencySummary::from_samples(
            traces.iter().filter(|t| !t.rejected).map(ServeTrace::total_latency_ms).collect(),
        );
        let tokens_per_sec =
            if self.now > 0.0 { total_generated as f64 / (self.now / 1e3) } else { 0.0 };
        ServeReport {
            policy: config.policy,
            admission: config.admission,
            kv_budget_bytes: config.kv_budget_bytes,
            page_bytes: config.page_bytes,
            max_batch: config.max_batch,
            requests,
            rejected_requests: self.rejected,
            total_generated_tokens: total_generated,
            ticks: self.tick,
            makespan_ms: self.now,
            tokens_per_sec,
            p50_latency_ms: latency.p50_ms,
            p95_latency_ms: latency.p95_ms,
            peak_kv_bytes: self.peak_kv,
            total_evictions: self.total_evictions,
            total_page_spills: self.page_spills,
            total_page_faults: self.page_faults,
            kv_frag_peak_bytes: self.frag_peak,
            ledger: self.ledger,
            kv,
            weights,
            traces,
        }
    }
}

/// What the chip loop reads of one measured step shape: each layer's
/// makespan (the step's flow-shop row), the step's own latency and its DRAM
/// traffic. The per-op [`LatencyReport`] it is built from is dropped.
struct StepCost {
    layers: Vec<Cycles>,
    ms: f64,
    ledger: TrafficLedger,
}

impl StepCost {
    fn of(report: LatencyReport) -> Self {
        Self {
            layers: report.layers.iter().map(LayerLatency::makespan).collect(),
            ms: report.total_ms(),
            ledger: report.ledger,
        }
    }
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
    fn ready_order_walks_step_order() {
        let mut r = ReadyOrder::default();
        r.insert((3, 1, 10));
        r.insert((1, 2, 11));
        r.insert((1, 1, 12));
        let ids: Vec<usize> = r.iter().map(|&(_, _, i)| i).collect();
        // Sorted by (last_step_tick, admission_seq, arena index).
        assert_eq!(ids, vec![12, 11, 10]);
        r.remove(&(1, 2, 11));
        assert!(!r.is_empty());
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
