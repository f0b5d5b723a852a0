//! Cluster serving: shard the session pool across simulated chips.
//!
//! One edge chip saturates quickly — the ROADMAP's serving north star is a
//! *cluster* of MEADOW chips behind a single arrival stream. This module
//! owns that layer's policies and reports; every run enters through
//! [`ServeSpec`], whose builder validates the chip count, the per-chip
//! [`ServeConfig`](crate::serve::ServeConfig), the policies and the
//! interconnect with a typed [`ServeError`](crate::serve::ServeError)
//! instead of misbehaving mid-run.
//!
//! Each policy is a `Copy` enum whose variants are also importable from
//! this module (`cluster::LeastLoadedKv`), so a spec takes them by value:
//!
//! * [`PlacementPolicy`] routes each arriving request to a chip —
//!   [`RoundRobin`], [`LeastLoadedKv`] (fewest assigned peak-KV bytes),
//!   [`LeastLoadedWeighted`] (the same, normalized by each chip's
//!   analytical throughput score) and [`SessionAffinity`] (sticky routing
//!   by the request's `affinity` hint).
//! * [`MigrationPolicy`] decides whether an evicted session's KV bytes
//!   *migrate* to an underloaded chip's spare budget instead of spilling
//!   to DRAM. Migration is charged per hop on the cluster's [`Noc`] model
//!   (store-and-forward over a linear chip-to-chip interconnect whose
//!   hop cost between two chips is the sum of the per-link costs between
//!   them, one hop per link unless
//!   [`link_hops`](crate::spec::ServeSpecBuilder::link_hops) says
//!   otherwise), and the bytes come back over the same path when the
//!   session reloads.
//! * [`PhasePlacement`] may split a request's prefill and decode across
//!   chips, handing the prompt KV off over the same NoC ([`DisaggReport`]).
//!
//! Each chip's KV residency, DRAM traffic ledger and weight-residency
//! state are materialized per run inside its serving loop and land in its
//! [`ServeReport`]. Each donor chip's headroom (budget minus the peak
//! demand placement assigned it) is **statically partitioned** among the
//! other chips before the per-chip loops fan out, so chips simulate
//! independently — in parallel via [`ExecConfig`] — and the
//! [`ClusterReport`] stays bit-identical across `MEADOW_THREADS`. That is
//! an analytical bound in the EdgeProfiler style, not a dynamic coherence
//! protocol: a donor can never be oversubscribed, at the cost of some
//! headroom going unused.
//!
//! A one-chip cluster with [`RoundRobin`] placement and [`NoMigration`]
//! reproduces single-chip serving bit-exactly — a single-chip
//! [`ServeSpec`] run is literally that cluster — so all pre-cluster
//! goldens and invariants carry over unchanged
//! (`tests/cluster_invariants.rs`).
//!
//! # Examples
//!
//! Serve an arrival trace on a 2-chip cluster with least-loaded placement
//! and NoC-charged migration, then on three round-robin chips:
//!
//! ```
//! use meadow_core::cluster::{LeastLoadedKv, RoundRobin, ToLeastLoaded};
//! use meadow_core::serve::{KvPolicy, ServeConfig};
//! use meadow_core::spec::ServeSpec;
//! use meadow_core::{EngineConfig, MeadowEngine};
//! use meadow_models::presets;
//! use meadow_models::workload::ArrivalTrace;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
//! let trace = ArrivalTrace::uniform(6, 0.0, 16, 8);
//! let spec = ServeSpec::builder()
//!     .chips(2)
//!     .config(
//!         ServeConfig::default()
//!             .with_budget(3 * trace.requests[0].peak_kv_bytes(&presets::tiny_decoder()))
//!             .with_policy(KvPolicy::PagedLru)
//!             .with_page_bytes(512),
//!     )
//!     .placement(LeastLoadedKv)
//!     .migration(ToLeastLoaded)
//!     .build()?;
//! let report = spec.run(&engine, &trace)?.into_cluster().expect("two chips");
//! assert_eq!(report.chips, 2);
//! assert_eq!(report.total_generated_tokens, 6 * 8);
//! // Every request landed on exactly one chip.
//! let placed: u64 = report.per_chip.iter().map(|c| c.assigned_requests).sum();
//! assert_eq!(placed, 6);
//!
//! // Round robin deals 5 requests onto 3 chips as 2/2/1.
//! let spec = ServeSpec::builder().chips(3).placement(RoundRobin).build()?;
//! let report = spec.run(&engine, &ArrivalTrace::uniform(5, 0.0, 16, 4))?;
//! let counts: Vec<u64> =
//!     report.as_cluster().expect("three chips").per_chip.iter().map(|c| c.assigned_requests).collect();
//! assert_eq!(counts, vec![2, 2, 1]);
//! # Ok(())
//! # }
//! ```

use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::serve::{
    arrival_order, serve_on_chip, KvSummary, LatencySummary, ServeReport, ServeTrace, WeightSummary,
};
use crate::session::SessionPhase;
use crate::spec::ServeSpec;
use crate::MeadowEngine;
use meadow_models::workload::{ArrivalTrace, KvSizer, ServeRequest};
use meadow_sim::noc::Noc;
use meadow_sim::{Cycles, TrafficClass};
use meadow_tensor::parallel::{par_map, ExecConfig};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeMap;

pub use MigrationPolicy::{NoMigration, ToLeastLoaded};
pub use PhasePlacement::{Colocated, PrefillDecodeSplit};
pub use PlacementPolicy::{LeastLoadedKv, LeastLoadedWeighted, RoundRobin, SessionAffinity};

/// Placement-relevant load of one chip, updated as requests are routed (in
/// arrival order) and read by [`PlacementPolicy::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChipLoad {
    /// Requests already routed to this chip.
    assigned_requests: u64,
    /// Sum of the peak KV-cache bytes of the requests routed here — the
    /// chip's worst-case memory demand.
    assigned_peak_kv_bytes: u64,
    /// The chip's [`throughput_score_milli`]. Every chip of a homogeneous
    /// (replica) cluster carries the same score.
    throughput_score_milli: u64,
}

impl ChipLoad {
    /// Routes one more leg of `peak_kv_bytes` peak demand here.
    fn assign(&mut self, peak_kv_bytes: u64) {
        self.assigned_requests += 1;
        self.assigned_peak_kv_bytes += peak_kv_bytes;
    }
}

/// Analytical throughput score of one chip spec, in milli-units: the
/// harmonic mean of the chip's peak compute rate
/// ([`ChipConfig::peak_gmacs_per_sec`](meadow_sim::ChipConfig)) and its
/// DRAM bandwidth in GB/s (`bandwidth_gbps / 8`), scaled by 1000 and
/// rounded to an integer so speed-aware placement can compare weighted
/// loads in exact integer arithmetic (`kv_a * score_b` vs `kv_b *
/// score_a`) — no float rounding can break the degeneracy contract that
/// equal scores reduce to [`LeastLoadedKv`]'s ordering.
///
/// The harmonic mean is the roofline-flavored choice: a chip is only as
/// fast as the slower of its compute and memory sides lets it be, and the
/// harmonic mean penalizes an unbalanced spec accordingly. The score is a
/// unitless *relative* rating (never zero — clamped to at least 1), not a
/// tokens/sec prediction; the capacity planner uses real simulation probes
/// for that.
fn throughput_score_milli(config: &EngineConfig) -> u64 {
    let compute = config.chip.peak_gmacs_per_sec();
    let memory_gbs = config.bandwidth_gbps / 8.0;
    let harmonic = 2.0 * compute * memory_gbs / (compute + memory_gbs);
    ((harmonic * 1000.0).round() as u64).max(1)
}

/// Routes each arriving request to a chip.
///
/// The cluster places requests once each, in arrival order (ties broken by
/// request id), against the running load of every chip. Every policy is
/// deterministic and returns a chip the fleet has.
///
/// # Examples
///
/// A policy is a value; its [`name`](Self::name) lands in the report:
///
/// ```
/// use meadow_core::cluster::{LeastLoadedKv, PlacementPolicy};
/// use meadow_core::spec::ServeSpec;
///
/// let policy: PlacementPolicy = LeastLoadedKv;
/// assert_eq!(policy.name(), "least-loaded-kv");
/// assert!(ServeSpec::builder().chips(2).placement(policy).build().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Cycle through the chips in arrival order — the oblivious baseline.
    RoundRobin,
    /// Route to the chip with the fewest assigned peak-KV bytes (ties to the
    /// lowest chip index) — balances *memory demand*, not request count, so a
    /// few long-context requests do not pile onto one chip's budget.
    LeastLoadedKv,
    /// Speed-aware least-loaded placement for heterogeneous fleets: route to
    /// the chip with the smallest assigned peak-KV demand *normalized by its
    /// analytical throughput score* (the harmonic mean of its peak compute
    /// rate and DRAM bandwidth), so a chip that is twice as fast absorbs
    /// twice the demand before it looks as loaded as its slower neighbor.
    /// Ties break to the lowest chip index.
    ///
    /// The comparison is exact integer arithmetic — `kv_a * score_b` vs
    /// `kv_b * score_a` in `u128` — so on a homogeneous fleet (all scores
    /// equal) it reduces *bit-exactly* to [`LeastLoadedKv`]'s ordering: the
    /// degeneracy contract the equivalence suites pin.
    LeastLoadedWeighted,
    /// Sticky routing: requests sharing an
    /// [`affinity`](ServeRequest::affinity) hint (the same user or
    /// conversation) land on the same chip, `hint % chips`, keeping any warm
    /// per-user state local. Requests without a hint hash their id.
    SessionAffinity,
}

/// SplitMix64 finalizer — a cheap, well-mixed stateless hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl PlacementPolicy {
    /// Short stable identifier recorded in the [`ClusterReport`].
    pub fn name(self) -> &'static str {
        match self {
            RoundRobin => "round-robin",
            LeastLoadedKv => "least-loaded-kv",
            LeastLoadedWeighted => "least-loaded-weighted",
            SessionAffinity => "session-affinity",
        }
    }

    /// The chip the `seq`-th arriving request is routed to. Ties go to the
    /// lowest chip index: `min_by_key` and `min_by` keep the first minimum.
    fn place(self, seq: usize, request: &ServeRequest, loads: &[ChipLoad]) -> usize {
        let chips = loads.len();
        let kv = |c: usize| u128::from(loads[c].assigned_peak_kv_bytes);
        let score = |c: usize| u128::from(loads[c].throughput_score_milli);
        match self {
            RoundRobin => seq % chips,
            LeastLoadedKv => (0..chips).min_by_key(|&c| kv(c)).unwrap_or(0),
            LeastLoadedWeighted => {
                (0..chips).min_by(|&a, &b| (kv(a) * score(b)).cmp(&(kv(b) * score(a)))).unwrap_or(0)
            }
            SessionAffinity => match request.affinity {
                Some(hint) => hint as usize % chips,
                None => (mix64(u64::from(request.id)) % chips as u64) as usize,
            },
        }
    }
}

/// Decides whether an evicted session's KV bytes migrate to a remote chip's
/// spare budget instead of spilling to DRAM.
///
/// A migration parks the bytes on the chosen chip, charged per hop on the
/// cluster NoC ([`Noc::transfer_hops`]); they return over the same path
/// when the session reloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Never migrate: every spill goes to DRAM (the single-chip behavior).
    NoMigration,
    /// Migrate to the chip with the most remaining headroom that can hold
    /// the whole transfer (ties to the fewest hops, then the lowest chip
    /// index); spill to DRAM when no chip has room. The evicting chip's own
    /// share of donor headroom is zero, so it never parks bytes on itself,
    /// where a zero-hop transfer would cost nothing.
    ToLeastLoaded,
}

impl MigrationPolicy {
    /// Short stable identifier recorded in the [`ClusterReport`].
    pub fn name(self) -> &'static str {
        match self {
            NoMigration => "none",
            ToLeastLoaded => "to-least-loaded",
        }
    }
}

/// Where one request's two phases run, as decided by a [`PhasePlacement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PhaseAssignment {
    /// The chip the prompt's prefill runs on.
    prefill_chip: usize,
    /// The chip the decode loop runs on; equal to `prefill_chip` when the
    /// request is colocated (no handoff).
    decode_chip: usize,
}

impl PhaseAssignment {
    /// Both phases on one chip — no KV handoff.
    fn colocated(chip: usize) -> Self {
        Self { prefill_chip: chip, decode_chip: chip }
    }

    /// Whether the request's phases run on different chips.
    fn is_split(&self) -> bool {
        self.prefill_chip != self.decode_chip
    }
}

/// Routes each request's *phases* to chips, on top of the base
/// [`PlacementPolicy`]: MEADOW's compute-bound prefill and memory-bound
/// decode need not share a chip. Setting one on a
/// [`ServeSpec`](crate::spec::ServeSpecBuilder::phases) makes its runs
/// disaggregated ([`DisaggReport`]).
///
/// A split request's prefill leg runs in the prefill stage, its prompt KV
/// hands off over the cluster NoC ([`Noc::transfer_hops`], charged the
/// summed link costs between the two chips), and its decode leg runs in
/// the decode stage. Both variants keep the two stage pools disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePlacement {
    /// Both phases on the base placement's chip — the degenerate phase
    /// placement under which a disaggregated run's prefill stage reproduces
    /// the same spec's cluster run without phases bit-exactly (the
    /// `tests/disagg_invariants.rs` contract). Cluster runs route with it.
    Colocated,
    /// Disaggregated serving: chips `[0, prefill_chips)` form the prefill
    /// pool, chips `[prefill_chips, chips)` the decode pool, and every
    /// request round-robins over each pool independently (by arrival
    /// sequence). With no decode pool to split into (`prefill_chips == 0`
    /// or ≥ the cluster size) it degenerates to [`Colocated`] on the base
    /// placement.
    PrefillDecodeSplit {
        /// Number of chips dedicated to prefill (the rest decode).
        prefill_chips: usize,
    },
}

impl PhasePlacement {
    /// Short stable identifier recorded in the [`DisaggReport`].
    pub fn name(self) -> &'static str {
        match self {
            Colocated => "colocated",
            PrefillDecodeSplit { .. } => "prefill-decode-split",
        }
    }

    /// The chips the `seq`-th arriving request's phases run on, on a fleet
    /// of `chips`; `base` is the chip the [`PlacementPolicy`] chose.
    fn place_phases(self, seq: usize, chips: usize, base: usize) -> PhaseAssignment {
        match self {
            PrefillDecodeSplit { prefill_chips } if (1..chips).contains(&prefill_chips) => {
                PhaseAssignment {
                    prefill_chip: seq % prefill_chips,
                    decode_chip: prefill_chips + seq % (chips - prefill_chips),
                }
            }
            _ => PhaseAssignment::colocated(base),
        }
    }
}

/// Cross-chip migration traffic of one chip's serving run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// KV bytes parked on remote chips instead of spilling to DRAM.
    pub migrated_out_bytes: u64,
    /// Individual park transfers.
    pub migration_events: u64,
    /// KV bytes pulled back from remote chips on reload.
    pub reloaded_remote_bytes: u64,
    /// Link-level NoC bytes the migrations moved (payload × hops).
    pub noc_link_bytes: u64,
    /// Link cycles those transfers occupied on the cluster NoC.
    pub noc_link_cycles: u64,
}

/// Per-chip migration state handed into the serving loop: tracks where
/// each demoted session's bytes are parked, the remaining donatable
/// headroom, and the NoC channel the transfers are charged on.
pub(crate) struct MigrationCtx {
    policy: MigrationPolicy,
    /// Donatable headroom per chip, in bytes: each donor's slack is
    /// statically partitioned among the other chips, and the evicting
    /// chip's own entry is zero.
    headroom: Vec<u64>,
    /// NoC hops from the evicting chip to each chip.
    hops: Vec<u32>,
    noc: Noc,
    /// Session id → (target chip, bytes currently parked there).
    parked: BTreeMap<u32, (usize, u64)>,
    migrated_out_bytes: u64,
    migration_events: u64,
    reloaded_remote_bytes: u64,
}

impl MigrationCtx {
    /// Fresh migration state charging transfers on a copy of `noc`, the
    /// spec's validated NoC.
    fn new(policy: MigrationPolicy, headroom: Vec<u64>, hops: Vec<u32>, noc: &Noc) -> Self {
        Self {
            policy,
            headroom,
            hops,
            noc: noc.clone(),
            parked: BTreeMap::new(),
            migrated_out_bytes: 0,
            migration_events: 0,
            reloaded_remote_bytes: 0,
        }
    }

    /// Tries to park `bytes` of `session`'s spilled KV on a remote chip.
    /// Returns the NoC cycle cost when the migration happens, `None` when
    /// the bytes should spill to DRAM instead (always under
    /// [`NoMigration`]). A session with bytes already parked keeps using
    /// its target (split-brain caches across three locations are not
    /// modeled); once that chip's share is exhausted the overflow spills
    /// to DRAM.
    pub(crate) fn park(&mut self, session: u32, bytes: u64) -> Option<Cycles> {
        if bytes == 0 || self.policy == NoMigration {
            return None;
        }
        let target = match self.parked.get(&session) {
            Some(&(target, _)) if self.headroom[target] >= bytes => target,
            Some(_) => return None,
            // `ToLeastLoaded`: the roomiest chip that holds the whole
            // transfer, ties to the fewest hops, then the lowest index.
            None => {
                let fits = |&chip: &usize| self.headroom[chip] >= bytes;
                let rank =
                    |&chip: &usize| (self.headroom[chip], Reverse(self.hops[chip]), Reverse(chip));
                (0..self.headroom.len()).filter(fits).max_by_key(rank)?
            }
        };
        self.headroom[target] -= bytes;
        self.parked.entry(session).or_insert((target, 0)).1 += bytes;
        self.migrated_out_bytes += bytes;
        self.migration_events += 1;
        Some(self.noc.transfer_hops(bytes, self.hops[target]))
    }

    /// Pulls up to `want` of `session`'s remotely parked bytes back over
    /// the NoC, returning the cycle cost and how many bytes came from the
    /// remote chip (the caller reloads the remainder from DRAM).
    pub(crate) fn pull_back(&mut self, session: u32, want: u64) -> (Cycles, u64) {
        let Some(entry) = self.parked.get_mut(&session) else {
            return (Cycles::ZERO, 0);
        };
        let (target, parked) = *entry;
        let take = want.min(parked);
        if take == 0 {
            return (Cycles::ZERO, 0);
        }
        entry.1 -= take;
        if entry.1 == 0 {
            self.parked.remove(&session);
        }
        self.headroom[target] += take;
        self.reloaded_remote_bytes += take;
        (self.noc.transfer_hops(take, self.hops[target]), take)
    }

    fn into_stats(self) -> MigrationStats {
        MigrationStats {
            migrated_out_bytes: self.migrated_out_bytes,
            migration_events: self.migration_events,
            reloaded_remote_bytes: self.reloaded_remote_bytes,
            noc_link_bytes: self.noc.total_bytes(),
            noc_link_cycles: self.noc.total_link_cycles(),
        }
    }
}

/// The headroom `chip` may park bytes in: each donor's slack split evenly
/// among the other chips, so the parallel per-chip loops can never
/// oversubscribe a donor. The evicting chip's own entry is zero: a
/// zero-hop transfer onto itself would cost nothing on the NoC.
fn donor_share(chip: usize, donor_headroom: &[u64]) -> Vec<u64> {
    let others = donor_headroom.len() as u64 - 1;
    let share = |(donor, &slack): (usize, &u64)| if donor == chip { 0 } else { slack / others };
    donor_headroom.iter().enumerate().map(share).collect()
}

/// Serving-side record of one chip's run within a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipReport {
    /// Chip index.
    pub chip: usize,
    /// Requests placement routed here.
    pub assigned_requests: u64,
    /// Peak-KV demand placement routed here, in bytes.
    pub assigned_peak_kv_bytes: u64,
    /// Cross-chip migration traffic this chip originated.
    pub migration: MigrationStats,
    /// Busy fraction of the cluster's makespan this chip spent serving —
    /// its own makespan over the slowest chip's, so the cluster's
    /// straggler reads 1.0 and idle chips read toward 0.0. `Some` only on
    /// heterogeneous ([`chip_specs`](crate::spec::ServeSpecBuilder::chip_specs)) runs and
    /// omitted from the serialized JSON otherwise, so pre-existing
    /// replica-cluster goldens stay byte-stable.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub utilization: Option<f64>,
    /// The chip's full single-chip serving report.
    pub report: ServeReport,
}

/// Aggregate result of one cluster serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Number of chips served on.
    pub chips: usize,
    /// Placement policy identifier.
    pub placement: String,
    /// Migration policy identifier.
    pub migration: String,
    /// Requests in the input trace.
    pub requests: usize,
    /// Requests shed by SLO admission, across all chips.
    pub rejected_requests: u64,
    /// Tokens generated across all chips.
    pub total_generated_tokens: u64,
    /// Wall-clock end of the slowest chip, in ms.
    pub makespan_ms: f64,
    /// Cluster-wide generated-token throughput over the makespan.
    pub tokens_per_sec: f64,
    /// Median completed-request latency across all chips, in ms.
    pub p50_latency_ms: f64,
    /// 95th-percentile completed-request latency across all chips, in ms.
    pub p95_latency_ms: f64,
    /// Sum of per-chip peak KV residencies, in bytes. The per-chip peaks
    /// are **not time-aligned** — each chip peaks at its own moment — so
    /// this is an upper bound that can overstate the true simultaneous
    /// cluster-wide peak; it answers "how much KV budget must I provision
    /// per chip, summed", not "how many bytes were live at once". For the
    /// largest single chip's peak, see
    /// [`max_chip_peak_kv_bytes`](ClusterReport::max_chip_peak_kv_bytes).
    pub peak_kv_bytes: u64,
    /// Largest single chip's peak KV residency, in bytes — an honest
    /// lower bound on the cluster-wide simultaneous peak (at least one
    /// chip really held this much at one moment). Defaults to zero when
    /// absent from pre-existing serialized reports.
    #[serde(default)]
    pub max_chip_peak_kv_bytes: u64,
    /// Placement imbalance: the largest chip's assigned peak-KV demand
    /// over the mean chip's (1.0 = perfectly balanced).
    pub kv_imbalance: f64,
    /// KV bytes that migrated chip-to-chip instead of spilling to DRAM.
    pub migrated_out_bytes: u64,
    /// Individual migration transfers.
    pub migration_events: u64,
    /// Migrated bytes pulled back on reload.
    pub reloaded_remote_bytes: u64,
    /// Link-level NoC bytes the migrations moved (payload × hops).
    pub noc_link_bytes: u64,
    /// NoC link cycles the migrations occupied.
    pub noc_link_cycles: u64,
    /// DRAM KV-cache migration traffic across all chips: every
    /// [`TrafficClass::KvCache`] byte the chips' DRAM channels moved —
    /// spill *and* reload directions — mirroring how
    /// [`noc_link_bytes`](ClusterReport::noc_link_bytes) counts both the
    /// park and pull-back legs of NoC migration.
    pub dram_kv_bytes: u64,
    /// KV layout/compression accounting aggregated across the chips —
    /// `Some` only when the run used a non-dense layout or token-level
    /// compression, and omitted from the serialized JSON otherwise
    /// (pre-seam cluster reports stay byte-stable).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub kv: Option<KvSummary>,
    /// Weight-residency accounting aggregated across the chips — `Some`
    /// only when the run set a weight budget, and omitted from the
    /// serialized JSON otherwise (pre-residency cluster reports stay
    /// byte-stable). Churn counters and weight bytes are summed; the cold
    /// and warm TTFT percentiles are recomputed over the union of every
    /// chip's sessions, so they match what the per-chip summaries would
    /// yield on the concatenated traces.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub weights: Option<WeightSummary>,
    /// Per-chip reports, in chip order.
    pub per_chip: Vec<ChipReport>,
}

impl ClusterReport {
    /// Looks up a request's trace across all chips.
    pub fn trace(&self, id: u32) -> Option<&ServeTrace> {
        self.per_chip.iter().find_map(|c| c.report.trace(id))
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

/// NoC traffic of the prefill→decode KV handoffs of one disaggregated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HandoffStats {
    /// Handoffs actually performed: split requests whose prefill leg was
    /// not shed by admission.
    pub split_requests: u64,
    /// Payload bytes handed off — each split request contributes its
    /// prompt KV ([`ServeRequest::prompt_kv_bytes`]) exactly once, so this
    /// conserves bytes against the summaries.
    pub handoff_bytes: u64,
    /// Link-level bytes the handoffs put on the cluster NoC (payload ×
    /// hops, store-and-forward).
    pub noc_link_bytes: u64,
    /// NoC link cycles the handoffs occupied.
    pub noc_link_cycles: u64,
}

/// Per-request record of one disaggregated run, in input-trace order.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestSummary {
    /// Request identifier.
    pub id: u32,
    /// Chip the prefill leg ran on.
    pub prefill_chip: usize,
    /// Chip the decode leg ran on (equal to
    /// [`prefill_chip`](RequestSummary::prefill_chip) when colocated).
    pub decode_chip: usize,
    /// Whether either leg was shed by SLO admission.
    pub rejected: bool,
    /// Arrival → first token, in ms (from the prefill leg; zero when its
    /// prefill was rejected).
    pub ttft_ms: f64,
    /// KV handoff latency between the phases, in ms (zero when colocated
    /// or rejected).
    pub handoff_ms: f64,
    /// Wall-clock time the last token completed, in ms (absolute serving
    /// clock, handoff included).
    pub finish_ms: f64,
    /// Wall-clock decode pace in ms/token: first token → last token over
    /// the generated count, *including* handoff and decode-side queueing —
    /// the latency the stream's consumer observes between tokens, not the
    /// contention-free own-service TBT the per-leg traces record.
    pub mean_tbt_ms: f64,
    /// Tokens generated for this request.
    pub generated_tokens: u64,
}

/// Aggregate result of one disaggregated [`ServeSpec`] run.
///
/// The run is two deterministic stages on one absolute clock. The
/// *prefill stage* serves every request's first leg: colocated requests
/// run whole ([`SessionPhase::Full`]) and split requests run
/// [`SessionPhase::PrefillOnly`] on their prefill chip, finishing once the
/// prompt KV (and first token) exist. Each surviving split request's
/// decode leg then arrives on its decode chip at `prefill finish +
/// handoff latency` and the *decode stage* serves those legs
/// ([`SessionPhase::DecodeOnly`]). Every [`PhasePlacement`] keeps the two
/// stages' chip pools disjoint: a chip hosting prefill-stage legs never
/// hosts decode-stage legs, whose stage would overlap in time with the
/// prefill stage on that chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisaggReport {
    /// Phase-placement identifier.
    pub phase_placement: String,
    /// Requests in the input trace.
    pub requests: usize,
    /// Requests the phase placement split across chips (whether or not
    /// their prefill leg survived admission).
    pub split_requests: u64,
    /// Requests either of whose legs admission shed.
    pub rejected_requests: u64,
    /// Tokens generated across both stages.
    pub total_generated_tokens: u64,
    /// Wall-clock end of the slowest stage, in ms (the decode stage runs
    /// on the same absolute clock: its arrivals are prefill finish plus
    /// handoff).
    pub makespan_ms: f64,
    /// Generated-token throughput over the makespan.
    pub tokens_per_sec: f64,
    /// Median TTFT across non-rejected requests, in ms.
    pub p50_ttft_ms: f64,
    /// 95th-percentile TTFT across non-rejected requests, in ms.
    pub p95_ttft_ms: f64,
    /// Median wall-clock decode pace ([`RequestSummary::mean_tbt_ms`]).
    pub p50_tbt_ms: f64,
    /// 95th-percentile wall-clock decode pace.
    pub p95_tbt_ms: f64,
    /// KV-handoff traffic between the stages.
    pub handoff: HandoffStats,
    /// The prefill stage: every request's first leg (whole requests when
    /// colocated, prefill-only legs when split). Under the [`Colocated`]
    /// phase placement this is bit-identical to the report of the same
    /// spec run without phases.
    pub prefill_stage: ClusterReport,
    /// The decode stage serving the split requests' decode legs; `None`
    /// when nothing was split (or every split prefill was shed).
    pub decode_stage: Option<ClusterReport>,
    /// Per-request records, in input-trace order.
    pub summaries: Vec<RequestSummary>,
}

impl DisaggReport {
    /// Looks up a request's summary.
    pub fn summary(&self, id: u32) -> Option<&RequestSummary> {
        self.summaries.iter().find(|s| s.id == id)
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

/// One stage's per-chip work: the shards (each keeps the order its legs
/// were routed in), the phase of every leg, and the load picture the
/// donor-headroom partition and per-chip report rows are built from.
pub(crate) struct Stage {
    shards: Vec<ArrivalTrace>,
    phases: Vec<Vec<SessionPhase>>,
    loads: Vec<ChipLoad>,
    /// Legs the stage's report accounts as its requests.
    legs: usize,
}

impl Stage {
    fn empty(loads: Vec<ChipLoad>) -> Self {
        let chips = loads.len();
        Self {
            shards: vec![ArrivalTrace::default(); chips],
            phases: vec![Vec::new(); chips],
            loads,
            legs: 0,
        }
    }

    /// Appends a leg to `chip`'s shard, returning its position there —
    /// which is also its position among that chip's report traces.
    fn push(&mut self, chip: usize, leg: ServeRequest, phase: SessionPhase) -> usize {
        let shard = &mut self.shards[chip].requests;
        shard.push(leg);
        self.phases[chip].push(phase);
        self.legs += 1;
        shard.len() - 1
    }
}

/// How one run routed its trace: the arrival order, every request's
/// phase assignment (by trace index), the prefill stage and the decode
/// stage's load picture.
pub(crate) struct Routing {
    order: Vec<usize>,
    assignment: Vec<PhaseAssignment>,
    /// The first (or only) stage: whole requests and prefill-only legs,
    /// each chip's shard in input-trace order, so a one-chip run hands the
    /// original trace through unchanged.
    pub(crate) prefill: Stage,
    decode_loads: Vec<ChipLoad>,
}

/// Routes every request of `trace` in arrival order (ties by id), the one
/// placement loop of every serving mode: the spec's [`PlacementPolicy`]
/// picks a base chip and its [`PhasePlacement`] may split the request
/// across a prefill and a decode chip, both reading the running load
/// picture of every leg routed so far. A cluster run routes with
/// [`Colocated`] phases, so a disaggregated run under `Colocated`
/// reproduces it exactly.
pub(crate) fn route(
    spec: &ServeSpec,
    engines: &[MeadowEngine],
    trace: &ArrivalTrace,
    sizer: &KvSizer,
) -> Routing {
    let fresh: Vec<ChipLoad> = engines
        .iter()
        .map(|engine| ChipLoad {
            assigned_requests: 0,
            assigned_peak_kv_bytes: 0,
            throughput_score_milli: throughput_score_milli(engine.config()),
        })
        .collect();
    let (mut loads, mut prefill_loads, mut decode_loads) = (fresh.clone(), fresh.clone(), fresh);
    let order = arrival_order(trace);
    let mut assignment = vec![PhaseAssignment::colocated(0); trace.requests.len()];
    for (seq, &idx) in order.iter().enumerate() {
        let request = &trace.requests[idx];
        let base = spec.placement.place(seq, request, &loads);
        let pa = spec.phases.place_phases(seq, engines.len(), base);
        let peak = sizer.bytes(request.final_context_len());
        if pa.is_split() {
            // The prefill chip only ever holds the prompt KV (it leaves
            // at the phase boundary); the decode chip holds the request's
            // full peak.
            let prompt_kv = sizer.bytes(request.prompt_tokens);
            loads[pa.prefill_chip].assign(prompt_kv);
            prefill_loads[pa.prefill_chip].assign(prompt_kv);
            loads[pa.decode_chip].assign(peak);
            decode_loads[pa.decode_chip].assign(peak);
        } else {
            loads[pa.prefill_chip].assign(peak);
            prefill_loads[pa.prefill_chip].assign(peak);
        }
        assignment[idx] = pa;
    }

    let mut prefill = Stage::empty(prefill_loads);
    for (request, pa) in trace.requests.iter().zip(&assignment) {
        let phase = if pa.is_split() { SessionPhase::PrefillOnly } else { SessionPhase::Full };
        prefill.push(pa.prefill_chip, *request, phase);
    }
    Routing { order, assignment, prefill, decode_loads }
}

/// Runs one stage's per-chip shards through the serving loop — fanned
/// out on `exec`, the engine's original execution policy, while each of
/// `engines` carries its share of the thread budget — and aggregates the
/// [`ClusterReport`]. Eviction may migrate KV bytes to underloaded chips
/// over the cluster NoC instead of spilling to DRAM. Deterministic:
/// bit-identical across `MEADOW_THREADS`.
pub(crate) fn run_shards(
    spec: &ServeSpec,
    engines: &[MeadowEngine],
    exec: ExecConfig,
    sizer: &KvSizer,
    stage: &Stage,
) -> Result<ClusterReport, CoreError> {
    let chips = engines.len();
    let loads = &stage.loads;
    // Donor headroom: each chip's budget slack after placement, split
    // among the other chips by `donor_share`.
    let budget = spec.serve.kv_budget_bytes;
    let donor_headroom: Vec<u64> = loads
        .iter()
        .map(|l| budget.map_or(0, |b| b.saturating_sub(l.assigned_peak_kv_bytes)))
        .collect();

    let chip_ids: Vec<usize> = (0..chips).collect();
    let results: Vec<Result<(ServeReport, MigrationStats), CoreError>> =
        par_map(&chip_ids, &exec, |&chip| {
            let share = donor_share(chip, &donor_headroom);
            let hops: Vec<u32> = (0..chips).map(|j| spec.hops_between(chip, j)).collect();
            let mut ctx = MigrationCtx::new(spec.migration, share, hops, &spec.noc);
            let report = serve_on_chip(
                &engines[chip],
                &stage.shards[chip],
                &spec.serve,
                sizer,
                &stage.phases[chip],
                &mut ctx,
            )?;
            Ok((report, ctx.into_stats()))
        });

    // Aggregate.
    let mut per_chip = Vec::with_capacity(chips);
    let mut latencies: Vec<f64> = Vec::new();
    let mut rejected = 0u64;
    let mut total_tokens = 0u64;
    let mut makespan = 0.0f64;
    let mut peak_kv = 0u64;
    let mut max_chip_peak = 0u64;
    let mut spilled = 0u64;
    let mut stats_total = MigrationStats::default();
    // Non-dense runs: accumulate the per-chip KV summaries, with the
    // retained mass weighted by dense final bytes (proportional to
    // final context tokens, so the cluster mean matches what one chip
    // serving the whole trace would report).
    let mut kv_acc: Option<KvSummary> = None;
    // Weight-residency runs: sum the additive churn counters and
    // regather the cold/warm TTFT samples from the per-chip traces so
    // the cluster percentiles are over the union of sessions, not a
    // mean of per-chip percentiles.
    let mut weights_acc: Option<WeightSummary> = None;
    let mut cold_ttft: Vec<f64> = Vec::new();
    let mut warm_ttft: Vec<f64> = Vec::new();
    for (chip, result) in results.into_iter().enumerate() {
        let (report, migration) = result?;
        if let Some(chip_kv) = report.kv {
            let acc = kv_acc.get_or_insert(KvSummary {
                retained_attention_mass: 0.0,
                dense_final_kv_bytes: 0,
                final_kv_bytes: 0,
                ..chip_kv
            });
            acc.retained_attention_mass +=
                chip_kv.retained_attention_mass * chip_kv.dense_final_kv_bytes as f64;
            acc.dense_final_kv_bytes += chip_kv.dense_final_kv_bytes;
            acc.final_kv_bytes += chip_kv.final_kv_bytes;
        }
        if let Some(chip_weights) = report.weights {
            let acc = weights_acc.get_or_insert(WeightSummary {
                models: 0,
                weight_bytes: 0,
                weight_loads: 0,
                weight_evictions: 0,
                cold_requests: 0,
                ..chip_weights
            });
            acc.weight_bytes += chip_weights.weight_bytes;
            acc.weight_loads += chip_weights.weight_loads;
            acc.weight_evictions += chip_weights.weight_evictions;
            acc.cold_requests += chip_weights.cold_requests;
            for t in report.traces.iter().filter(|t| !t.rejected) {
                if t.cold_start == Some(true) {
                    cold_ttft.push(t.ttft_ms());
                } else {
                    warm_ttft.push(t.ttft_ms());
                }
            }
        }
        latencies
            .extend(report.traces.iter().filter(|t| !t.rejected).map(ServeTrace::total_latency_ms));
        rejected += report.rejected_requests;
        total_tokens += report.total_generated_tokens;
        makespan = makespan.max(report.makespan_ms);
        peak_kv += report.peak_kv_bytes;
        max_chip_peak = max_chip_peak.max(report.peak_kv_bytes);
        spilled += report.ledger.bytes(TrafficClass::KvCache);
        stats_total.migrated_out_bytes += migration.migrated_out_bytes;
        stats_total.migration_events += migration.migration_events;
        stats_total.reloaded_remote_bytes += migration.reloaded_remote_bytes;
        stats_total.noc_link_bytes += migration.noc_link_bytes;
        stats_total.noc_link_cycles += migration.noc_link_cycles;
        per_chip.push(ChipReport {
            chip,
            assigned_requests: loads[chip].assigned_requests,
            assigned_peak_kv_bytes: loads[chip].assigned_peak_kv_bytes,
            migration,
            utilization: None,
            report,
        });
    }
    // Per-chip utilization only materializes on heterogeneous runs —
    // replica-cluster reports (and their goldens) stay byte-stable.
    if spec.chip_engines().is_some() && makespan > 0.0 {
        for chip_report in &mut per_chip {
            chip_report.utilization = Some(chip_report.report.makespan_ms / makespan);
        }
    }
    let kv = kv_acc.map(|mut acc| {
        acc.retained_attention_mass = if acc.dense_final_kv_bytes == 0 {
            1.0
        } else {
            acc.retained_attention_mass / acc.dense_final_kv_bytes as f64
        };
        acc
    });
    let weights = weights_acc.map(|mut acc| {
        let mut models: Vec<u32> =
            stage.shards.iter().flat_map(|s| s.requests.iter().map(ServeRequest::model)).collect();
        models.sort_unstable();
        models.dedup();
        acc.models = models.len();
        acc.cold_ttft = LatencySummary::from_samples(cold_ttft);
        acc.warm_ttft = LatencySummary::from_samples(warm_ttft);
        acc
    });
    let latency = LatencySummary::from_samples(latencies);
    let max_demand = loads.iter().map(|l| l.assigned_peak_kv_bytes).max().unwrap_or(0) as f64;
    let mean_demand =
        loads.iter().map(|l| l.assigned_peak_kv_bytes).sum::<u64>() as f64 / chips as f64;
    Ok(ClusterReport {
        chips,
        placement: spec.placement.name().to_string(),
        migration: spec.migration.name().to_string(),
        requests: stage.legs,
        rejected_requests: rejected,
        total_generated_tokens: total_tokens,
        makespan_ms: makespan,
        tokens_per_sec: if makespan > 0.0 { total_tokens as f64 / (makespan / 1e3) } else { 0.0 },
        p50_latency_ms: latency.p50_ms,
        p95_latency_ms: latency.p95_ms,
        peak_kv_bytes: peak_kv,
        max_chip_peak_kv_bytes: max_chip_peak,
        kv_imbalance: if mean_demand > 0.0 { max_demand / mean_demand } else { 1.0 },
        migrated_out_bytes: stats_total.migrated_out_bytes,
        migration_events: stats_total.migration_events,
        reloaded_remote_bytes: stats_total.reloaded_remote_bytes,
        noc_link_bytes: stats_total.noc_link_bytes,
        noc_link_cycles: stats_total.noc_link_cycles,
        dram_kv_bytes: spilled,
        kv,
        weights,
        per_chip,
    })
}

/// Finishes a disaggregated run from its routing and its prefill stage:
/// each surviving split request's decode leg arrives on its decode chip
/// at `prefill finish + handoff latency` — the prompt KV handed off over
/// the cluster NoC ([`Noc::transfer_hops`], store-and-forward, charged per
/// hop) — and the *decode stage* serves those legs
/// ([`SessionPhase::DecodeOnly`], starting pre-filled, no DRAM fault on
/// first admission). Both stages run on one absolute clock; the per-request
/// summaries stitch the legs back together.
///
/// Each leg is found at the position its stage's shard gave it (a chip's
/// traces keep its shard's order), so stitching costs one index per leg,
/// not a search over every chip's traces.
pub(crate) fn disaggregate(
    spec: &ServeSpec,
    engines: &[MeadowEngine],
    exec: ExecConfig,
    trace: &ArrivalTrace,
    sizer: &KvSizer,
    routing: Routing,
    prefill_stage: ClusterReport,
) -> Result<DisaggReport, CoreError> {
    let Routing { order, assignment, decode_loads, .. } = routing;
    // Prefill-stage shards keep input order, so counting each chip's legs
    // in input order recovers every request's position on its chip.
    let mut next = vec![0usize; engines.len()];
    let prefill_legs: Vec<&ServeTrace> = assignment
        .iter()
        .map(|pa| {
            let pos = next[pa.prefill_chip];
            next[pa.prefill_chip] += 1;
            &prefill_stage.per_chip[pa.prefill_chip].report.traces[pos]
        })
        .collect();

    // KV handoffs: one shared accounting NoC, charged in arrival order
    // (the cost model is contention-free, so ordering only needs to be
    // deterministic). A shed prefill leg hands nothing off.
    let clock = engines[0].config().chip.clock;
    let mut noc = spec.noc.clone();
    let mut handoff_bytes = 0u64;
    // Per request: the decode leg's position on its chip, and its handoff.
    let mut decode_legs: Vec<Option<(usize, f64)>> = vec![None; trace.requests.len()];
    let mut decode = Stage::empty(decode_loads);
    for &idx in &order {
        let pa = assignment[idx];
        let pre = prefill_legs[idx];
        if !pa.is_split() || pre.rejected {
            continue;
        }
        let request = trace.requests[idx];
        let bytes = sizer.bytes(request.prompt_tokens);
        let hops = spec.hops_between(pa.prefill_chip, pa.decode_chip);
        let ms = clock.to_ms(noc.transfer_hops(bytes, hops));
        handoff_bytes += bytes;
        let mut leg = request;
        leg.arrival_ms = pre.finish_ms + ms;
        decode_legs[idx] = Some((decode.push(pa.decode_chip, leg, SessionPhase::DecodeOnly), ms));
    }
    let decode_stage =
        if decode.legs > 0 { Some(run_shards(spec, engines, exec, sizer, &decode)?) } else { None };

    // Per-request summaries stitch the legs back together, in input
    // order. The wall-clock decode pace spans first token → last token
    // (handoff and decode-side queueing included).
    let pace = |first_token_ms: f64, finish_ms: f64, generated: usize| -> f64 {
        if generated == 0 {
            0.0
        } else {
            (finish_ms - first_token_ms) / generated as f64
        }
    };
    let mut summaries = Vec::with_capacity(trace.requests.len());
    for (idx, request) in trace.requests.iter().enumerate() {
        let pa = assignment[idx];
        let pre = prefill_legs[idx];
        debug_assert_eq!(pre.id, request.id, "prefill legs keep their shard positions");
        let summary = if !pa.is_split() {
            RequestSummary {
                id: request.id,
                prefill_chip: pa.prefill_chip,
                decode_chip: pa.decode_chip,
                rejected: pre.rejected,
                ttft_ms: if pre.rejected { 0.0 } else { pre.ttft_ms() },
                handoff_ms: 0.0,
                finish_ms: pre.finish_ms,
                mean_tbt_ms: pace(pre.first_token_ms, pre.finish_ms, pre.generated_tokens),
                generated_tokens: pre.generated_tokens as u64,
            }
        } else if pre.rejected {
            RequestSummary {
                id: request.id,
                prefill_chip: pa.prefill_chip,
                decode_chip: pa.decode_chip,
                rejected: true,
                ttft_ms: 0.0,
                handoff_ms: 0.0,
                finish_ms: 0.0,
                mean_tbt_ms: 0.0,
                generated_tokens: 0,
            }
        } else {
            let (pos, handoff_ms) =
                decode_legs[idx].expect("surviving split request has a decode-stage leg");
            let stage = decode_stage.as_ref().expect("a decode leg implies a decode stage");
            let dec = &stage.per_chip[pa.decode_chip].report.traces[pos];
            debug_assert_eq!(dec.id, request.id, "decode legs keep their shard positions");
            RequestSummary {
                id: request.id,
                prefill_chip: pa.prefill_chip,
                decode_chip: pa.decode_chip,
                rejected: dec.rejected,
                ttft_ms: pre.ttft_ms(),
                handoff_ms,
                finish_ms: dec.finish_ms,
                mean_tbt_ms: pace(pre.first_token_ms, dec.finish_ms, dec.generated_tokens),
                generated_tokens: dec.generated_tokens as u64,
            }
        };
        summaries.push(summary);
    }

    let ttfts: Vec<f64> = summaries.iter().filter(|s| !s.rejected).map(|s| s.ttft_ms).collect();
    let ttft = LatencySummary::from_samples(ttfts);
    let paces: Vec<f64> = summaries
        .iter()
        .filter(|s| !s.rejected && s.generated_tokens > 0)
        .map(|s| s.mean_tbt_ms)
        .collect();
    let tbt = LatencySummary::from_samples(paces);
    let total_tokens = prefill_stage.total_generated_tokens
        + decode_stage.as_ref().map_or(0, |s| s.total_generated_tokens);
    let makespan =
        prefill_stage.makespan_ms.max(decode_stage.as_ref().map_or(0.0, |s| s.makespan_ms));
    Ok(DisaggReport {
        phase_placement: spec.phases.name().to_string(),
        requests: trace.requests.len(),
        split_requests: assignment.iter().filter(|pa| pa.is_split()).count() as u64,
        rejected_requests: summaries.iter().filter(|s| s.rejected).count() as u64,
        total_generated_tokens: total_tokens,
        makespan_ms: makespan,
        tokens_per_sec: if makespan > 0.0 { total_tokens as f64 / (makespan / 1e3) } else { 0.0 },
        p50_ttft_ms: ttft.p50_ms,
        p95_ttft_ms: ttft.p95_ms,
        p50_tbt_ms: tbt.p50_ms,
        p95_tbt_ms: tbt.p95_ms,
        handoff: HandoffStats {
            split_requests: decode.legs as u64,
            handoff_bytes,
            noc_link_bytes: noc.total_bytes(),
            noc_link_cycles: noc.total_link_cycles(),
        },
        prefill_stage,
        decode_stage,
        summaries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{KvPolicy, ServeConfig, ServeError};
    use meadow_models::presets;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine() -> MeadowEngine {
        MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
    }

    /// Runs a cluster-mode spec over `trace`.
    fn serve(spec: &ServeSpec, trace: &ArrivalTrace) -> ClusterReport {
        spec.run(&engine(), trace).unwrap().into_cluster().expect("a cluster-mode spec")
    }

    #[test]
    fn builder_validates_at_construction() {
        assert_eq!(ServeSpec::builder().chips(0).build().unwrap_err(), ServeError::ZeroChips);
        assert_eq!(
            ServeSpec::builder()
                .config(ServeConfig::default().with_max_batch(0))
                .build()
                .unwrap_err(),
            ServeError::ZeroMaxBatch
        );
        assert_eq!(
            ServeSpec::builder()
                .config(ServeConfig::default().with_policy(KvPolicy::PagedLru).with_page_bytes(0))
                .build()
                .unwrap_err(),
            ServeError::ZeroPageBytes
        );
        let ok = ServeSpec::builder()
            .chips(4)
            .placement(LeastLoadedKv)
            .migration(ToLeastLoaded)
            .build()
            .unwrap();
        assert_eq!(ok.chips, 4);
        assert_eq!(ok.placement.name(), "least-loaded-kv");
        assert_eq!(ok.migration.name(), "to-least-loaded");
    }

    #[test]
    fn placement_policies_route_deterministically() {
        let mut loads: Vec<ChipLoad> = [100u64, 40, 70]
            .into_iter()
            .map(|kv| ChipLoad {
                assigned_requests: 1,
                assigned_peak_kv_bytes: kv,
                throughput_score_milli: 1000,
            })
            .collect();
        let req = ServeRequest::new(9, 0.0, 16, 8);
        assert_eq!(RoundRobin.place(0, &req, &loads), 0);
        assert_eq!(RoundRobin.place(5, &req, &loads), 2);
        assert_eq!(LeastLoadedKv.place(0, &req, &loads), 1);
        // Equal scores reduce the weighted policy to `LeastLoadedKv`; a chip
        // three times as fast absorbs three times the demand.
        assert_eq!(LeastLoadedWeighted.place(0, &req, &loads), 1);
        loads[0].throughput_score_milli = 3000;
        assert_eq!(LeastLoadedWeighted.place(0, &req, &loads), 0);
        // Affinity hints route modulo the chip count; no hint hashes the id
        // (stable across calls).
        assert_eq!(SessionAffinity.place(0, &req.with_affinity(7), &loads), 1);
        let hashed = SessionAffinity.place(0, &req, &loads);
        assert_eq!(hashed, SessionAffinity.place(3, &req, &loads));
        assert!(hashed < 3);
    }

    #[test]
    fn migration_policy_picks_roomiest_reachable_chip() {
        let ctx = |policy| {
            MigrationCtx::new(policy, vec![0, 500, 900, 900], vec![0, 1, 2, 3], &Noc::default())
        };
        // The chip a fresh session's bytes were parked on, if any.
        let park = |ctx: &mut MigrationCtx, session: u32, bytes: u64| {
            ctx.park(session, bytes).map(|_| ctx.parked[&session].0)
        };
        let mut to = ctx(ToLeastLoaded);
        // Ties on headroom break to the fewer-hop chip.
        assert_eq!(park(&mut to, 1, 100), Some(2));
        // Chip 2 has 800 bytes left now, so chip 3 is the roomiest.
        assert_eq!(park(&mut to, 2, 600), Some(3));
        // Chips without room are skipped; nothing fits → DRAM.
        assert_eq!(park(&mut to, 3, 1000), None);
        assert_eq!(park(&mut to, 4, 0), None);
        assert_eq!(park(&mut ctx(NoMigration), 1, 100), None);
    }

    #[test]
    fn migration_ctx_parks_and_pulls_back_conservatively() {
        let mut ctx =
            MigrationCtx::new(ToLeastLoaded, vec![0, 1000, 300], vec![0, 1, 2], &Noc::default());
        // First park picks chip 1 (roomiest); the session sticks to it.
        assert!(ctx.park(7, 400).is_some());
        assert!(ctx.park(7, 400).is_some());
        // Its share is exhausted now: overflow spills to DRAM.
        assert!(ctx.park(7, 400).is_none());
        // Reload pulls back only what is parked; headroom is returned.
        let (_, pulled) = ctx.pull_back(7, 1000);
        assert_eq!(pulled, 800);
        assert_eq!(ctx.pull_back(7, 10), (Cycles::ZERO, 0));
        assert!(ctx.park(7, 900).is_some(), "returned headroom is reusable");
        let stats = ctx.into_stats();
        assert_eq!(stats.migrated_out_bytes, 400 + 400 + 900);
        assert_eq!(stats.reloaded_remote_bytes, 800);
        assert_eq!(stats.migration_events, 3);
        // One hop to chip 1: link bytes equal payload bytes.
        assert_eq!(stats.noc_link_bytes, 400 + 400 + 900 + 800);
        assert!(stats.noc_link_cycles > 0);
    }

    #[test]
    fn self_migration_is_rejected_as_free_parking() {
        // Chip 0 evicts while holding the most slack of the fleet. Parking
        // on itself would be a zero-hop transfer that "migrates" for free
        // without touching the interconnect, so its own share is empty:
        // bytes park on another chip, and once no other chip has room they
        // spill to DRAM.
        let share = donor_share(0, &[9000, 600, 300]);
        assert_eq!(share, vec![0, 300, 150]);
        let mut ctx = MigrationCtx::new(ToLeastLoaded, share, vec![0, 1, 1], &Noc::default());
        assert!(ctx.park(1, 200).is_some());
        assert_eq!(ctx.parked[&1].0, 1);
        assert!(ctx.park(2, 1000).is_none(), "no other chip has room: DRAM, not self");
        let stats = ctx.into_stats();
        assert_eq!(stats.migrated_out_bytes, 200);
        assert_eq!(stats.migration_events, 1);
        // One hop to chip 1: link bytes equal payload bytes.
        assert_eq!(stats.noc_link_bytes, 200);
        // A lone chip has nowhere to park.
        assert_eq!(donor_share(0, &[5000]), vec![0]);
    }

    #[test]
    fn empty_trace_yields_empty_cluster_report() {
        let spec = ServeSpec::builder().chips(3).build().unwrap();
        let report = serve(&spec, &ArrivalTrace::default());
        assert_eq!(report.requests, 0);
        assert_eq!(report.total_generated_tokens, 0);
        assert_eq!(report.makespan_ms, 0.0);
        assert_eq!(report.tokens_per_sec, 0.0);
        assert_eq!(report.kv_imbalance, 1.0);
        assert_eq!(report.per_chip.len(), 3);
    }

    #[test]
    fn migration_replaces_dram_spill_under_pressure() {
        let model = presets::tiny_decoder();
        // All requests at t=0 so scheduling is independent of cycle costs:
        // the with/without-migration runs make identical eviction
        // decisions and differ only in where the bytes move. Affinity
        // hints skew 5 of 6 requests onto chip 0, leaving chip 1 with a
        // full session of donatable headroom.
        let trace = ArrivalTrace::new(
            (0..6u32)
                .map(|i| ServeRequest::new(i, 0.0, 16, 8).with_affinity(u32::from(i == 5)))
                .collect(),
        );
        let single = trace.requests[0].peak_kv_bytes(&model);
        let serve_config = ServeConfig::default()
            .with_budget(2 * single)
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(256)
            .with_max_batch(1);
        let run = |migrate: bool| {
            let builder =
                ServeSpec::builder().chips(2).config(serve_config).placement(SessionAffinity);
            let spec =
                if migrate { builder.migration(ToLeastLoaded) } else { builder }.build().unwrap();
            serve(&spec, &trace)
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(without.migrated_out_bytes, 0);
        assert!(without.dram_kv_bytes > 0, "the workload must spill");
        assert!(with.migrated_out_bytes > 0, "migration must fire");
        // Migration replaces DRAM spill byte for byte.
        assert_eq!(
            with.dram_kv_bytes + with.migrated_out_bytes + with.reloaded_remote_bytes,
            without.dram_kv_bytes
        );
        assert!(with.migrated_out_bytes <= without.dram_kv_bytes);
        assert_eq!(with.total_generated_tokens, without.total_generated_tokens);
        // Every migrated byte crossed at least one link: the evicting chip
        // holds no share of its own headroom, so nothing parks on itself
        // for free over a zero-hop transfer.
        assert!(with.noc_link_bytes >= with.migrated_out_bytes + with.reloaded_remote_bytes);
    }

    #[test]
    fn cluster_report_round_trips_through_json() {
        let spec = ServeSpec::builder()
            .chips(2)
            .placement(LeastLoadedKv)
            .migration(ToLeastLoaded)
            .build()
            .unwrap();
        let report = serve(&spec, &ArrivalTrace::uniform(3, 0.5, 8, 2));
        let json = report.to_json().unwrap();
        let parsed: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        assert!(report.trace(2).is_some());
        assert!(report.trace(99).is_none());
    }

    #[test]
    fn phase_placements_route_deterministically() {
        // Colocated always follows the base placement.
        for base in 0..4 {
            let pa = Colocated.place_phases(7, 4, base);
            assert_eq!(pa, PhaseAssignment::colocated(base));
            assert!(!pa.is_split());
        }
        // A 1+3 split round-robins decode over chips 1..4.
        let split = PrefillDecodeSplit { prefill_chips: 1 };
        for seq in 0..6 {
            let pa = split.place_phases(seq, 4, 3);
            assert_eq!(pa.prefill_chip, 0);
            assert_eq!(pa.decode_chip, 1 + seq % 3);
            assert!(pa.is_split());
        }
        // Degenerate pool sizes collapse to the base placement.
        for degenerate in [0, 4, 5] {
            let pa = PrefillDecodeSplit { prefill_chips: degenerate }.place_phases(2, 4, 3);
            assert_eq!(pa, PhaseAssignment::colocated(3));
        }
    }

    /// Every policy routes inside the fleet and keeps the two stage pools
    /// disjoint, on every fleet size and every split of it. Under
    /// `Colocated` each request's chip is the base placement's choice, so
    /// the base chip is checked too.
    #[test]
    fn routes_stay_in_range_with_disjoint_stage_pools() {
        let mut trace = ArrivalTrace::poisson(40, 500.0, 16, 8, &mut StdRng::seed_from_u64(24))
            .expect("a positive rate");
        // Every third request carries an affinity hint, so `SessionAffinity`
        // both follows hints and hashes ids.
        for r in trace.requests.iter_mut().step_by(3) {
            *r = r.with_affinity(r.id * 7);
        }
        let sizer = KvSizer::dense(&presets::tiny_decoder());
        // Two chip speeds, so `LeastLoadedWeighted` differs from `LeastLoadedKv`.
        let fleet: Vec<MeadowEngine> = [12.0, 3.0]
            .map(|gbps| {
                MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), gbps)).unwrap()
            })
            .into();
        for chips in 1..=6 {
            let engines: Vec<MeadowEngine> = (0..chips).map(|c| fleet[c % 2].clone()).collect();
            let splits = (0..=chips).map(|prefill_chips| PrefillDecodeSplit { prefill_chips });
            for placement in [RoundRobin, LeastLoadedKv, LeastLoadedWeighted, SessionAffinity] {
                for phases in std::iter::once(Colocated).chain(splits.clone()) {
                    let spec = ServeSpec::builder()
                        .chips(chips)
                        .placement(placement)
                        .phases(phases)
                        .build()
                        .unwrap();
                    let routing = route(&spec, &engines, &trace, &sizer);
                    let (mut prefill_host, mut decode_host) =
                        (vec![false; chips], vec![false; chips]);
                    for pa in &routing.assignment {
                        assert!(
                            pa.prefill_chip < chips && pa.decode_chip < chips,
                            "{placement:?}/{phases:?} on {chips} chips routed {pa:?}"
                        );
                        prefill_host[pa.prefill_chip] = true;
                        decode_host[pa.decode_chip] |= pa.is_split();
                    }
                    assert!(
                        (0..chips).all(|c| !(prefill_host[c] && decode_host[c])),
                        "{placement:?}/{phases:?} on {chips} chips mixed the stage pools"
                    );
                }
            }
        }
    }

    #[test]
    fn disaggregated_split_hands_off_and_decodes_remotely() {
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 0.01, 16, 8);
        let spec = ServeSpec::builder()
            .chips(2)
            .phases(PrefillDecodeSplit { prefill_chips: 1 })
            .build()
            .unwrap();
        let report = spec.run(&engine(), &trace).unwrap().into_disaggregated().unwrap();
        assert_eq!(report.phase_placement, "prefill-decode-split");
        assert_eq!(report.requests, 4);
        assert_eq!(report.split_requests, 4);
        assert_eq!(report.rejected_requests, 0);
        assert_eq!(report.total_generated_tokens, 4 * 8);
        // The prefill stage generates nothing (all legs are prefill-only);
        // every token comes out of the decode stage.
        assert_eq!(report.prefill_stage.total_generated_tokens, 0);
        let decode = report.decode_stage.as_ref().expect("split requests need a decode stage");
        assert_eq!(decode.total_generated_tokens, 4 * 8);
        // Handoff bytes conserve exactly: one prompt KV per split request.
        let expected: u64 = trace.requests.iter().map(|r| r.prompt_kv_bytes(&model)).sum();
        assert_eq!(report.handoff.split_requests, 4);
        assert_eq!(report.handoff.handoff_bytes, expected);
        // One hop between chips 0 and 1: link bytes == payload bytes.
        assert_eq!(report.handoff.noc_link_bytes, expected);
        assert!(report.handoff.noc_link_cycles > 0);
        for s in &report.summaries {
            assert_eq!(s.prefill_chip, 0);
            assert_eq!(s.decode_chip, 1);
            assert!(s.handoff_ms > 0.0);
            assert!(s.ttft_ms > 0.0);
            assert!(s.finish_ms > s.ttft_ms, "decode finishes after the first token");
            assert!(s.mean_tbt_ms > 0.0);
        }
        let json = report.to_json().unwrap();
        let parsed: DisaggReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        assert!(report.summary(0).is_some());
        assert!(report.summary(99).is_none());
    }
}
