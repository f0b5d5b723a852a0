//! The MEADOW framework: the paper's primary contribution assembled from the
//! workspace substrates.
//!
//! * [`engine`] — [`MeadowEngine`]: configure a chip, model, bandwidth and
//!   execution plan; measure TTFT (prefill), TBT (decode) and end-to-end
//!   latency with full fetch/compute/store breakdowns and traffic ledgers.
//! * [`baselines`] — the prior-work execution models of Table 2 (CTA token
//!   compression, FlightLLM N:M sparsity) re-implemented on the MEADOW
//!   architecture, plus the GEMM baseline.
//! * [`planner`] — the GEMM-vs-TPHS dataflow chooser over (bandwidth, PE)
//!   design points (Fig. 12a).
//! * [`roofline`] — roofline model and per-dataflow operating points
//!   (Fig. 12b).
//! * [`serve`] — the multi-session serving simulator: continuous batching
//!   of many requests on one engine under an explicit KV-cache memory
//!   budget with FIFO/LRU whole-cache eviction or paged (vLLM-style)
//!   eviction, SLO-aware admission, and a deterministic
//!   speculative-decoding model ([`SpecDecode`]).
//! * [`cluster`] — the cluster serving API: shard the session pool across
//!   N simulated chips behind one arrival stream, with pluggable
//!   [`PlacementPolicy`] routing, per-chip page pools,
//!   [`MigrationPolicy`]-driven cross-chip KV migration charged on the
//!   NoC model, and [`PhasePlacement`]-driven prefill/decode
//!   disaggregation with the prompt-KV handoff charged per hop.
//! * [`capacity`] — the capacity planner: binary-search the minimal chip
//!   fleet (per candidate palette mix) that meets a p95-TTFT/rejection
//!   SLO for a workload, each probe a deterministic [`ServeSpec`] run.
//! * [`kv_pages`] — the paged KV-cache allocator behind
//!   [`serve::KvPolicy::PagedLru`]: fixed-size pages, a free list,
//!   per-session page tables and page-LRU victim metadata.
//! * [`vit`] — the DeiT vision-transformer inference path (Fig. 13).
//! * [`accuracy`] — lossless-ness verification: bit-exact pack→unpack round
//!   trips over whole model weight sets (the reproduction's stand-in for
//!   the paper's "approximation-less" accuracy claim).
//! * [`report`] — table formatting and CSV emission for the repro harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod baselines;
pub mod capacity;
pub mod cluster;
pub mod engine;
pub mod error;
pub(crate) mod events;
pub mod kv_pages;
pub mod planner;
pub mod report;
pub mod roofline;
pub mod serve;
pub mod session;
pub mod spec;
pub mod vit;

pub use capacity::{CapacityPlan, CapacityPlanner, MixPlan, PaletteMix, ProbePoint, SloTarget};
pub use cluster::{
    throughput_score_milli, Cluster, ClusterConfig, ClusterReport, Colocated, DisaggReport,
    HandoffStats, LeastLoadedKv, LeastLoadedWeighted, MigrationPolicy, NoMigration,
    PhaseAssignment, PhasePlacement, PlacementPolicy, PrefillDecodeSplit, RequestSummary,
    RoundRobin, SessionAffinity, ToLeastLoaded,
};
pub use engine::{EngineConfig, LatencyReport, MeadowEngine};
pub use error::CoreError;
pub use kv_pages::KvPageAllocator;
pub use serve::{
    AdmissionPolicy, KvPolicy, LatencySummary, ServeConfig, ServeError, ServeReport, ServeTrace,
    SpecDecode,
};
pub use session::SessionPhase;
pub use spec::{ServeOutcome, ServeSpec, ServeSpecBuilder};
