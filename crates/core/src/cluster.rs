//! Cluster serving: shard the session pool across simulated chips.
//!
//! One edge chip saturates quickly — the ROADMAP's serving north star is a
//! *cluster* of MEADOW chips behind a single arrival stream. This module
//! owns that layer:
//!
//! * [`Cluster`] owns N [`ChipNode`]s (each a replica [`MeadowEngine`];
//!   the per-chip KV page pool and DRAM traffic ledger are materialized
//!   per run inside the chip's serving loop and land in its
//!   [`ServeReport`]).
//! * [`ClusterConfig`] is built through a validated builder
//!   ([`ClusterConfig::builder`]): zero-chip clusters, zero `max_batch`
//!   and zero `page_bytes` under `PagedLru` are rejected at construction
//!   with a typed [`ServeError`] instead of misbehaving mid-run.
//! * [`PlacementPolicy`] routes each arriving request to a chip —
//!   [`RoundRobin`], [`LeastLoadedKv`] (fewest assigned peak-KV bytes) and
//!   [`SessionAffinity`] (sticky routing by the request's
//!   `affinity` hint) ship in the box, and the trait is the seam for
//!   custom routers.
//! * [`MigrationPolicy`] decides whether an evicted session's KV bytes
//!   *migrate* to an underloaded chip's spare budget instead of spilling
//!   to DRAM. Migration is charged per hop on the cluster's
//!   [`Noc`] model (store-and-forward over a linear
//!   chip-to-chip interconnect: `|i - j|` hops between chips `i` and `j`),
//!   and the bytes come back over the same path when the session reloads.
//!
//! Each donor chip's headroom (budget minus the peak demand placement
//! assigned it) is **statically partitioned** among the other chips before
//! the per-chip loops fan out, so chips simulate independently — in
//! parallel via [`ExecConfig`] — and
//! the [`ClusterReport`] stays bit-identical across `MEADOW_THREADS`.
//! That is an analytical bound in the EdgeProfiler style, not a dynamic
//! coherence protocol: a donor can never be oversubscribed, at the cost of
//! some headroom going unused.
//!
//! A one-chip cluster with [`RoundRobin`] placement and [`NoMigration`]
//! reproduces single-chip serving bit-exactly — a single-chip
//! [`ServeSpec`](crate::spec::ServeSpec) run is literally that cluster —
//! so all pre-cluster goldens and invariants carry over unchanged
//! (`tests/cluster_invariants.rs`).
//!
//! # Examples
//!
//! Serve an arrival trace on a 2-chip cluster with least-loaded placement
//! and NoC-charged migration:
//!
//! ```
//! use meadow_core::cluster::{Cluster, ClusterConfig, LeastLoadedKv, ToLeastLoaded};
//! use meadow_core::serve::{KvPolicy, ServeConfig};
//! use meadow_core::{EngineConfig, MeadowEngine};
//! use meadow_models::presets;
//! use meadow_models::workload::ArrivalTrace;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
//! let trace = ArrivalTrace::uniform(6, 0.0, 16, 8);
//! let config = ClusterConfig::builder()
//!     .chips(2)
//!     .serve(
//!         ServeConfig::default()
//!             .with_budget(3 * trace.requests[0].peak_kv_bytes(&presets::tiny_decoder()))
//!             .with_policy(KvPolicy::PagedLru)
//!             .with_page_bytes(512),
//!     )
//!     .placement(LeastLoadedKv)
//!     .migration(ToLeastLoaded)
//!     .build()?;
//! let report = Cluster::new(engine, config).serve(&trace)?;
//! assert_eq!(report.chips, 2);
//! assert_eq!(report.total_generated_tokens, 6 * 8);
//! // Every request landed on exactly one chip.
//! let placed: u64 = report.per_chip.iter().map(|c| c.assigned_requests).sum();
//! assert_eq!(placed, 6);
//! # Ok(())
//! # }
//! ```

use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::serve::{
    kv_sizer, serve_on_chip, KvSummary, LatencySummary, ServeConfig, ServeError, ServeReport,
    ServeTrace, WeightSummary,
};
use crate::session::SessionPhase;
use crate::MeadowEngine;
use meadow_models::workload::{ArrivalTrace, ServeRequest};
use meadow_sim::noc::{Noc, NocConfig};
use meadow_sim::{Cycles, TrafficClass};
use meadow_tensor::parallel::{par_map, ExecConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Placement-relevant load snapshot of one chip, updated as requests are
/// assigned (in arrival order) and handed to
/// [`PlacementPolicy::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipLoad {
    /// Chip index within the cluster.
    pub chip: usize,
    /// Requests already routed to this chip.
    pub assigned_requests: u64,
    /// Sum of the peak KV-cache bytes of the requests routed here — the
    /// chip's worst-case memory demand.
    pub assigned_peak_kv_bytes: u64,
    /// The chip's KV budget (`None` = unbounded), for policies that place
    /// by headroom.
    pub kv_budget_bytes: Option<u64>,
    /// The chip's analytical throughput score in milli-units
    /// ([`throughput_score_milli`]), for speed-aware policies on
    /// heterogeneous fleets. Every chip of a homogeneous (replica) cluster
    /// carries the same score.
    pub throughput_score_milli: u64,
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
pub fn throughput_score_milli(config: &EngineConfig) -> u64 {
    let compute = config.chip.peak_gmacs_per_sec();
    let memory_gbs = config.bandwidth_gbps / 8.0;
    let harmonic = 2.0 * compute * memory_gbs / (compute + memory_gbs);
    ((harmonic * 1000.0).round() as u64).max(1)
}

/// Routes each arriving request to a chip.
///
/// The cluster calls [`PlacementPolicy::place`] once per request, in
/// arrival order (ties broken by request id), with the running
/// [`ChipLoad`]s of every chip. Implementations must be deterministic —
/// the returned chip index may depend only on the arguments — and must
/// return an index below `loads.len()` (the cluster rejects out-of-range
/// routes with [`ServeError::PlacementOutOfRange`]).
///
/// # Examples
///
/// A custom policy that pins everything to the last chip:
///
/// ```
/// use meadow_core::cluster::{ChipLoad, PlacementPolicy};
/// use meadow_models::workload::ServeRequest;
///
/// #[derive(Debug)]
/// struct PinToLast;
///
/// impl PlacementPolicy for PinToLast {
///     fn name(&self) -> &'static str {
///         "pin-to-last"
///     }
///     fn place(&self, _seq: usize, _request: &ServeRequest, loads: &[ChipLoad]) -> usize {
///         loads.len() - 1
///     }
/// }
///
/// let loads: Vec<ChipLoad> = (0..4)
///     .map(|chip| ChipLoad {
///         chip,
///         assigned_requests: 0,
///         assigned_peak_kv_bytes: 0,
///         kv_budget_bytes: None,
///         throughput_score_milli: 1000,
///     })
///     .collect();
/// assert_eq!(PinToLast.place(0, &ServeRequest::new(0, 0.0, 16, 8), &loads), 3);
/// ```
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in the [`ClusterReport`].
    fn name(&self) -> &'static str;

    /// The chip the `seq`-th arriving request is routed to.
    fn place(&self, seq: usize, request: &ServeRequest, loads: &[ChipLoad]) -> usize;
}

/// Cycle through the chips in arrival order — the oblivious baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin;

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn place(&self, seq: usize, _request: &ServeRequest, loads: &[ChipLoad]) -> usize {
        seq % loads.len()
    }
}

/// Route to the chip with the fewest assigned peak-KV bytes (ties to the
/// lowest chip index) — balances *memory demand*, not request count, so a
/// few long-context requests do not pile onto one chip's budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoadedKv;

impl PlacementPolicy for LeastLoadedKv {
    fn name(&self) -> &'static str {
        "least-loaded-kv"
    }

    fn place(&self, _seq: usize, _request: &ServeRequest, loads: &[ChipLoad]) -> usize {
        loads.iter().min_by_key(|l| (l.assigned_peak_kv_bytes, l.chip)).map(|l| l.chip).unwrap_or(0)
    }
}

/// Speed-aware least-loaded placement for heterogeneous fleets: route to
/// the chip with the smallest assigned peak-KV demand *normalized by its
/// analytical throughput score* ([`throughput_score_milli`]), so a chip
/// that is twice as fast absorbs twice the demand before it looks as
/// loaded as its slower neighbor. Ties break to the lowest chip index.
///
/// The comparison is exact integer arithmetic — `kv_a * score_b` vs
/// `kv_b * score_a` in `u128` — so on a homogeneous fleet (all scores
/// equal) it reduces *bit-exactly* to [`LeastLoadedKv`]'s
/// `(assigned_peak_kv_bytes, chip)` ordering: the degeneracy contract the
/// equivalence suites pin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoadedWeighted;

impl PlacementPolicy for LeastLoadedWeighted {
    fn name(&self) -> &'static str {
        "least-loaded-weighted"
    }

    fn place(&self, _seq: usize, _request: &ServeRequest, loads: &[ChipLoad]) -> usize {
        loads
            .iter()
            .min_by(|a, b| {
                let wa =
                    u128::from(a.assigned_peak_kv_bytes) * u128::from(b.throughput_score_milli);
                let wb =
                    u128::from(b.assigned_peak_kv_bytes) * u128::from(a.throughput_score_milli);
                wa.cmp(&wb).then(a.chip.cmp(&b.chip))
            })
            .map(|l| l.chip)
            .unwrap_or(0)
    }
}

/// Sticky routing: requests sharing an
/// [`affinity`](ServeRequest::affinity) hint (the same user or
/// conversation) land on the same chip, `hint % chips`, keeping any warm
/// per-user state local. Requests without a hint hash their id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionAffinity;

/// SplitMix64 finalizer — a cheap, well-mixed stateless hash.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl PlacementPolicy for SessionAffinity {
    fn name(&self) -> &'static str {
        "session-affinity"
    }

    fn place(&self, _seq: usize, request: &ServeRequest, loads: &[ChipLoad]) -> usize {
        match request.affinity {
            Some(hint) => hint as usize % loads.len(),
            None => (mix64(u64::from(request.id)) % loads.len() as u64) as usize,
        }
    }
}

/// What one chip's eviction pass sees when it asks whether to migrate a
/// victim's bytes instead of spilling them to DRAM.
#[derive(Debug)]
pub struct MigrationSnapshot<'a> {
    /// The evicting chip.
    pub source: usize,
    /// Remaining donatable headroom per chip, in bytes. The source's own
    /// entry is zero; each donor's slack is statically partitioned among
    /// the other chips, so what this snapshot offers can always be taken.
    pub headroom: &'a [u64],
    /// NoC hops from the source to each chip (`|i - j|` on the linear
    /// chip interconnect).
    pub hops: &'a [u32],
}

/// Decides whether (and where) an evicted session's KV bytes migrate to a
/// remote chip's spare budget instead of spilling to DRAM.
///
/// Returning `Some(chip)` parks the bytes on that chip, charged per hop on
/// the cluster NoC ([`Noc::transfer_hops`]); they return over the same
/// path when the session reloads. Returning `None` (or a chip without
/// `bytes` of headroom) falls back to the ordinary DRAM spill. Must be
/// deterministic.
pub trait MigrationPolicy: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in the [`ClusterReport`].
    fn name(&self) -> &'static str;

    /// The chip to park `bytes` on, or `None` to spill to DRAM.
    fn choose_target(&self, bytes: u64, snapshot: &MigrationSnapshot<'_>) -> Option<usize>;
}

/// Never migrate: every spill goes to DRAM (the single-chip behavior).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMigration;

impl MigrationPolicy for NoMigration {
    fn name(&self) -> &'static str {
        "none"
    }

    fn choose_target(&self, _bytes: u64, _snapshot: &MigrationSnapshot<'_>) -> Option<usize> {
        None
    }
}

/// Migrate to the chip with the most remaining headroom that can hold the
/// whole transfer (ties to the fewest hops, then the lowest chip index);
/// spill to DRAM when no chip has room.
///
/// The donor search **excludes the source chip**: `Noc::transfer_hops`
/// charges zero cycles and zero link bytes for a zero-hop transfer, so a
/// policy that returned the source would park bytes "remotely" for free
/// without ever putting them on the interconnect. The migration context
/// enforces the same exclusion defensively for custom policies (a
/// source-chip target falls back to the DRAM spill), which the
/// `self_migration_is_rejected_as_free_parking` regression test pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ToLeastLoaded;

impl MigrationPolicy for ToLeastLoaded {
    fn name(&self) -> &'static str {
        "to-least-loaded"
    }

    fn choose_target(&self, bytes: u64, snapshot: &MigrationSnapshot<'_>) -> Option<usize> {
        snapshot
            .headroom
            .iter()
            .enumerate()
            .filter(|&(chip, &room)| chip != snapshot.source && room >= bytes && bytes > 0)
            .max_by_key(|&(chip, &room)| {
                (room, std::cmp::Reverse(snapshot.hops[chip]), std::cmp::Reverse(chip))
            })
            .map(|(chip, _)| chip)
    }
}

/// Where one request's two phases run, as decided by a
/// [`PhasePlacement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAssignment {
    /// The chip the prompt's prefill runs on.
    pub prefill_chip: usize,
    /// The chip the decode loop runs on. Equal to
    /// [`prefill_chip`](PhaseAssignment::prefill_chip) means the request
    /// is colocated (no handoff).
    pub decode_chip: usize,
}

impl PhaseAssignment {
    /// Both phases on one chip — no KV handoff.
    pub fn colocated(chip: usize) -> Self {
        Self { prefill_chip: chip, decode_chip: chip }
    }

    /// Whether the request's phases run on different chips.
    pub fn is_split(&self) -> bool {
        self.prefill_chip != self.decode_chip
    }
}

/// Routes each request's *phases* to chips, on top of the base
/// [`PlacementPolicy`]: MEADOW's compute-bound prefill and memory-bound
/// decode need not share a chip
/// ([`Cluster::serve_disaggregated`](Cluster::serve_disaggregated)).
///
/// Called once per request in arrival order (ties by id) with the running
/// [`ChipLoad`]s and the chip the cluster's base placement policy would
/// have routed the whole request to. Implementations must be deterministic
/// and must return chip indices below `loads.len()`. A split assignment's
/// prefill leg runs in the prefill stage, its prompt KV hands off over the
/// cluster NoC ([`Noc::transfer_hops`], `|prefill - decode|` hops), and
/// its decode leg runs in the decode stage — so the two stage pools must
/// stay disjoint ([`ServeError::PhaseOverlap`]).
pub trait PhasePlacement: fmt::Debug + Send + Sync {
    /// Short stable identifier recorded in the [`DisaggReport`].
    fn name(&self) -> &'static str;

    /// The chips the `seq`-th arriving request's phases run on; `base` is
    /// the chip the cluster's [`PlacementPolicy`] routed the request to.
    fn place_phases(
        &self,
        seq: usize,
        request: &ServeRequest,
        loads: &[ChipLoad],
        base: usize,
    ) -> PhaseAssignment;
}

/// Both phases on the base placement's chip — the degenerate phase
/// placement under which
/// [`Cluster::serve_disaggregated`](Cluster::serve_disaggregated)
/// reproduces [`Cluster::serve`] bit-exactly (the
/// `tests/disagg_invariants.rs` contract).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Colocated;

impl PhasePlacement for Colocated {
    fn name(&self) -> &'static str {
        "colocated"
    }

    fn place_phases(
        &self,
        _seq: usize,
        _request: &ServeRequest,
        _loads: &[ChipLoad],
        base: usize,
    ) -> PhaseAssignment {
        PhaseAssignment::colocated(base)
    }
}

/// Disaggregated serving: chips `[0, prefill_chips)` form the prefill
/// pool, chips `[prefill_chips, chips)` the decode pool, and every request
/// round-robins over each pool independently (by arrival sequence). With
/// no decode pool to split into (`prefill_chips == 0` or ≥ the cluster
/// size) it degenerates to [`Colocated`] on the base placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillDecodeSplit {
    /// Number of chips dedicated to prefill (the rest decode).
    pub prefill_chips: usize,
}

impl PhasePlacement for PrefillDecodeSplit {
    fn name(&self) -> &'static str {
        "prefill-decode-split"
    }

    fn place_phases(
        &self,
        seq: usize,
        _request: &ServeRequest,
        loads: &[ChipLoad],
        base: usize,
    ) -> PhaseAssignment {
        let chips = loads.len();
        if self.prefill_chips == 0 || self.prefill_chips >= chips {
            return PhaseAssignment::colocated(base);
        }
        PhaseAssignment {
            prefill_chip: seq % self.prefill_chips,
            decode_chip: self.prefill_chips + seq % (chips - self.prefill_chips),
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
pub(crate) struct MigrationCtx<'a> {
    policy: &'a dyn MigrationPolicy,
    source: usize,
    headroom: Vec<u64>,
    hops: Vec<u32>,
    noc: Noc,
    /// Session id → (target chip, bytes currently parked there).
    parked: BTreeMap<u32, (usize, u64)>,
    migrated_out_bytes: u64,
    migration_events: u64,
    reloaded_remote_bytes: u64,
}

impl<'a> MigrationCtx<'a> {
    fn new(
        policy: &'a dyn MigrationPolicy,
        source: usize,
        headroom: Vec<u64>,
        hops: Vec<u32>,
        noc_config: NocConfig,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            policy,
            source,
            headroom,
            hops,
            noc: Noc::new(noc_config)?,
            parked: BTreeMap::new(),
            migrated_out_bytes: 0,
            migration_events: 0,
            reloaded_remote_bytes: 0,
        })
    }

    /// Tries to park `bytes` of `session`'s spilled KV on a remote chip.
    /// Returns the NoC cycle cost when the migration happens, `None` when
    /// the bytes should spill to DRAM instead. A session with bytes
    /// already parked keeps using its target (split-brain caches across
    /// three locations are not modeled); once that chip's share is
    /// exhausted the overflow spills to DRAM.
    pub(crate) fn park(&mut self, session: u32, bytes: u64) -> Option<Cycles> {
        if bytes == 0 {
            return None;
        }
        let target = match self.parked.get(&session) {
            Some(&(target, _)) if self.headroom[target] >= bytes => target,
            Some(_) => return None,
            None => {
                let snapshot = MigrationSnapshot {
                    source: self.source,
                    headroom: &self.headroom,
                    hops: &self.hops,
                };
                let target = self.policy.choose_target(bytes, &snapshot)?;
                if target == self.source
                    || target >= self.headroom.len()
                    || self.headroom[target] < bytes
                {
                    return None;
                }
                target
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

/// Validated configuration of a [`Cluster`]: chip count, the per-chip
/// [`ServeConfig`], the placement and migration policy seams, and the
/// chip-to-chip NoC. Only constructible through
/// [`ClusterConfig::builder`], which rejects invalid combinations with a
/// typed [`ServeError`].
#[derive(Debug)]
pub struct ClusterConfig {
    chips: usize,
    serve: ServeConfig,
    placement: Box<dyn PlacementPolicy>,
    migration: Box<dyn MigrationPolicy>,
    phase_placement: Box<dyn PhasePlacement>,
    noc: NocConfig,
    /// Per-chip engines of a heterogeneous cluster, built once from the
    /// [`chip_specs`](ClusterConfigBuilder::chip_specs) at build (`None` =
    /// replica cluster of whatever engine the run is given); each chip's
    /// spec is its engine's `config()`. Validated at build: non-empty,
    /// every spec constructs a valid engine, and all specs share one model
    /// architecture.
    chip_engines: Option<Vec<MeadowEngine>>,
    /// Per-link hop costs of the linear chip interconnect (`link_hops[i]`
    /// = cost of the link between chips `i` and `i + 1`; `None` = every
    /// link costs one hop, the historical `|i - j|` distance).
    link_hops: Option<Vec<u32>>,
}

impl ClusterConfig {
    /// Starts a builder with the defaults: one chip, the default
    /// [`ServeConfig`], [`RoundRobin`] placement, [`NoMigration`], and the
    /// ZCU102 NoC.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// The per-chip serving configuration.
    pub fn serve_config(&self) -> &ServeConfig {
        &self.serve
    }

    /// The placement policy's identifier.
    pub fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    /// The migration policy's identifier.
    pub fn migration_name(&self) -> &'static str {
        self.migration.name()
    }

    /// The phase placement's identifier ([`Colocated`] unless overridden).
    pub fn phase_placement_name(&self) -> &'static str {
        self.phase_placement.name()
    }

    /// The chip-to-chip NoC configuration.
    pub fn noc(&self) -> NocConfig {
        self.noc
    }

    /// Per-chip engines of a heterogeneous cluster (each chip's spec is its
    /// engine's [`config`](MeadowEngine::config)), or `None` for a replica
    /// cluster of the engine handed to [`Cluster::new`].
    pub fn chip_engines(&self) -> Option<&[MeadowEngine]> {
        self.chip_engines.as_deref()
    }

    /// Per-link hop costs of the linear interconnect, or `None` when
    /// every link costs one hop.
    pub fn link_hops(&self) -> Option<&[u32]> {
        self.link_hops.as_deref()
    }

    /// Hop cost between two chips on the linear interconnect: the sum of
    /// the per-link costs between them, or plain `|a - b|` when no
    /// per-link costs are configured (the historical uniform distance).
    pub fn hops_between(&self, a: usize, b: usize) -> u32 {
        match &self.link_hops {
            Some(costs) => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                costs[lo..hi].iter().sum()
            }
            None => a.abs_diff(b) as u32,
        }
    }
}

/// Builder for [`ClusterConfig`] — see [`ClusterConfig::builder`].
#[derive(Debug)]
pub struct ClusterConfigBuilder {
    chips: usize,
    chips_set: bool,
    serve: ServeConfig,
    placement: Box<dyn PlacementPolicy>,
    migration: Box<dyn MigrationPolicy>,
    phase_placement: Box<dyn PhasePlacement>,
    noc: NocConfig,
    chip_specs: Option<Vec<EngineConfig>>,
    link_hops: Option<Vec<u32>>,
}

impl Default for ClusterConfigBuilder {
    fn default() -> Self {
        Self {
            chips: 1,
            chips_set: false,
            serve: ServeConfig::default(),
            placement: Box::new(RoundRobin),
            migration: Box::new(NoMigration),
            phase_placement: Box::new(Colocated),
            noc: NocConfig::default(),
            chip_specs: None,
            link_hops: None,
        }
    }
}

impl ClusterConfigBuilder {
    /// Sets the number of chips (a replica cluster of one engine).
    /// Mutually exclusive with [`chip_specs`](Self::chip_specs) unless the
    /// counts agree.
    pub fn chips(mut self, chips: usize) -> Self {
        self.chips = chips;
        self.chips_set = true;
        self
    }

    /// Builds a heterogeneous cluster with one chip per engine spec. The
    /// cluster's size becomes `specs.len()`; combining this with a
    /// disagreeing [`chips`](Self::chips) call is rejected at
    /// [`build`](Self::build). [`build`](Self::build) constructs each
    /// chip's engine once, and every run reuses it; packing statistics are
    /// computed once per distinct model, packing configuration and packing
    /// level.
    pub fn chip_specs(mut self, specs: Vec<EngineConfig>) -> Self {
        self.chip_specs = Some(specs);
        self
    }

    /// Sets per-link hop costs on the linear interconnect: `hops[i]` is
    /// the cost of the link between chips `i` and `i + 1`. The vector
    /// must cover exactly `chips - 1` links.
    pub fn link_hops(mut self, hops: Vec<u32>) -> Self {
        self.link_hops = Some(hops);
        self
    }

    /// Sets the per-chip serving configuration.
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the placement policy.
    pub fn placement(mut self, placement: impl PlacementPolicy + 'static) -> Self {
        self.placement = Box::new(placement);
        self
    }

    /// Sets the migration policy.
    pub fn migration(mut self, migration: impl MigrationPolicy + 'static) -> Self {
        self.migration = Box::new(migration);
        self
    }

    /// Sets the phase placement used by
    /// [`Cluster::serve_disaggregated`] (defaults to [`Colocated`];
    /// [`Cluster::serve`] ignores it).
    pub fn phase_placement(mut self, phase_placement: impl PhasePlacement + 'static) -> Self {
        self.phase_placement = Box::new(phase_placement);
        self
    }

    /// Sets the chip-to-chip NoC configuration.
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.noc = noc;
        self
    }

    /// Validates and finishes the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroChips`] for an empty cluster,
    /// [`ServeError::EmptyChipSpecs`] /
    /// [`ServeError::ChipSpecCountMismatch`] /
    /// [`ServeError::InvalidChipSpec`] for a malformed heterogeneous
    /// spec list, [`ServeError::InvalidLinkHops`] when per-link hop
    /// costs don't cover the interconnect, and propagates
    /// [`ServeConfig::validate`] rejections (zero `max_batch`, zero
    /// `page_bytes` under `PagedLru`, invalid SLOs).
    pub fn build(self) -> Result<ClusterConfig, ServeError> {
        let chip_engines = match self.chip_specs {
            Some(specs) => {
                if specs.is_empty() {
                    return Err(ServeError::EmptyChipSpecs);
                }
                if self.chips_set && self.chips != specs.len() {
                    return Err(ServeError::ChipSpecCountMismatch {
                        specs: specs.len(),
                        chips: self.chips,
                    });
                }
                let mut engines: Vec<MeadowEngine> = Vec::with_capacity(specs.len());
                for (chip, spec) in specs.into_iter().enumerate() {
                    let engine = chip_engine(spec, &engines)
                        .map_err(|e| ServeError::InvalidChipSpec { chip, reason: e.to_string() })?;
                    if engines.first().is_some_and(|e| e.config().model != engine.config().model) {
                        return Err(ServeError::InvalidChipSpec {
                            chip,
                            reason: "all chips of a cluster must serve the same model \
                                     architecture"
                                .to_string(),
                        });
                    }
                    engines.push(engine);
                }
                Some(engines)
            }
            None => None,
        };
        let chips = chip_engines.as_ref().map_or(self.chips, Vec::len);
        if chips == 0 {
            return Err(ServeError::ZeroChips);
        }
        if let Some(hops) = &self.link_hops {
            if hops.len() != chips - 1 {
                return Err(ServeError::InvalidLinkHops { got: hops.len(), expected: chips - 1 });
            }
        }
        self.serve.validate()?;
        Ok(ClusterConfig {
            chips,
            serve: self.serve,
            placement: self.placement,
            migration: self.migration,
            phase_placement: self.phase_placement,
            noc: self.noc,
            chip_engines,
            link_hops: self.link_hops,
        })
    }
}

/// Builds one chip's engine, reusing the packing statistics of an earlier
/// chip with the same model, packing configuration and packing level —
/// the statistics are a pure function of those three, so the engine equals
/// a fresh [`MeadowEngine::new`] of `spec`.
fn chip_engine(spec: EngineConfig, built: &[MeadowEngine]) -> Result<MeadowEngine, CoreError> {
    let same_stats = built.iter().find(|e| {
        let c = e.config();
        c.model == spec.model
            && c.packing_config == spec.packing_config
            && c.plan.packing == spec.plan.packing
    });
    match same_stats {
        Some(e) => MeadowEngine::with_packing_stats(spec, e.packing_stats().cloned()),
        None => MeadowEngine::new(spec),
    }
}

/// Request indices in arrival order, ties broken by id: the order
/// placement routes requests in.
fn arrival_order(trace: &ArrivalTrace) -> Vec<usize> {
    let mut order: Vec<usize> = (0..trace.requests.len()).collect();
    order.sort_by(|&a, &b| {
        let (a, b) = (&trace.requests[a], &trace.requests[b]);
        a.arrival_ms.total_cmp(&b.arrival_ms).then(a.id.cmp(&b.id))
    });
    order
}

/// One simulated chip of the cluster: a replica engine. The chip's KV page
/// pool, DRAM ledger and weight-residency state machine
/// ([`WeightResidency`](crate::serve::WeightResidency): every served
/// model's weights walk `Evicted → Streaming → Resident` under the chip's
/// weight budget) are materialized per serving run (the simulator is
/// stateless between runs) and reported in its [`ServeReport`].
#[derive(Debug, Clone)]
pub struct ChipNode {
    chip: usize,
    engine: MeadowEngine,
}

impl ChipNode {
    /// Chip index within the cluster.
    pub fn chip(&self) -> usize {
        self.chip
    }

    /// The chip's engine.
    pub fn engine(&self) -> &MeadowEngine {
        &self.engine
    }
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
    /// heterogeneous ([`ClusterConfigBuilder::chip_specs`]) runs and
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

/// Aggregate result of one [`Cluster::serve_disaggregated`] run.
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
    /// phase placement this is bit-identical to [`Cluster::serve`]'s
    /// report.
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

/// A cluster of simulated chips serving one arrival stream — see the
/// [module docs](self).
#[derive(Debug)]
pub struct Cluster {
    nodes: Vec<ChipNode>,
    config: Arc<ClusterConfig>,
    /// The engine's original execution policy: drives the per-chip
    /// fan-out, while each node's engine gets an even share of its thread
    /// budget (see [`Cluster::new`]).
    exec: ExecConfig,
}

impl Cluster {
    /// Builds a cluster of `config.chips()` replicas of `engine` — or,
    /// when the configuration carries
    /// [`chip_specs`](ClusterConfigBuilder::chip_specs), one
    /// [`ChipNode`] per spec (heterogeneous fleet), cloned from the engine
    /// the configuration built for it; `engine` then only supplies the
    /// thread budget below.
    ///
    /// The engine's thread budget is split between the two nested
    /// fan-outs: the chip fan-out keeps the full [`ExecConfig`] (it is
    /// clamped to the chip count), and each replica engine's internal
    /// per-tick fan-out gets `threads / min(threads, chips)` workers — so
    /// total concurrency stays at the configured thread count instead of
    /// multiplying to `chips × threads`. A one-chip cluster leaves the
    /// engine untouched.
    pub fn new(engine: MeadowEngine, config: ClusterConfig) -> Self {
        Self::from_shared(engine, Arc::new(config))
    }

    /// Shared-config constructor behind [`ServeSpec`](crate::spec::ServeSpec):
    /// a spec can be run many times (the perf bench repeats trials) without
    /// rebuilding the boxed policy objects or the per-chip engines each
    /// run.
    pub(crate) fn from_shared(engine: MeadowEngine, config: Arc<ClusterConfig>) -> Self {
        let exec = engine.config().exec;
        let threads = exec.threads().max(1);
        let concurrent_chips = config.chips.clamp(1, threads);
        let inner = ExecConfig::with_threads((threads / concurrent_chips).max(1));
        let nodes = match config.chip_engines() {
            Some(engines) => engines
                .iter()
                .enumerate()
                .map(|(chip, e)| ChipNode { chip, engine: e.clone().with_exec(inner) })
                .collect(),
            None => (0..config.chips)
                .map(|chip| ChipNode { chip, engine: engine.clone().with_exec(inner) })
                .collect(),
        };
        Self { nodes, config, exec }
    }

    /// Number of chips.
    pub fn chips(&self) -> usize {
        self.nodes.len()
    }

    /// The cluster's chips.
    pub fn nodes(&self) -> &[ChipNode] {
        &self.nodes
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Serves one arrival stream across the cluster: placement routes each
    /// request to a chip (in arrival order), every chip runs the
    /// continuous-batching scheduler on its shard — fanned out on the
    /// engine's [`ExecConfig`] worker
    /// pool — and eviction may migrate KV bytes to underloaded chips over
    /// the cluster NoC instead of spilling to DRAM. Deterministic:
    /// bit-identical across `MEADOW_THREADS`.
    ///
    /// ```
    /// use meadow_core::cluster::{Cluster, ClusterConfig, RoundRobin};
    /// use meadow_core::{EngineConfig, MeadowEngine};
    /// use meadow_models::presets;
    /// use meadow_models::workload::ArrivalTrace;
    ///
    /// # fn main() -> Result<(), meadow_core::CoreError> {
    /// let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
    /// let config = ClusterConfig::builder().chips(3).placement(RoundRobin).build()?;
    /// let report = Cluster::new(engine, config).serve(&ArrivalTrace::uniform(5, 0.0, 16, 4))?;
    /// assert_eq!(report.requests, 5);
    /// assert_eq!(report.total_generated_tokens, 20);
    /// // Round robin deals 5 requests onto 3 chips as 2/2/1.
    /// let counts: Vec<u64> = report.per_chip.iter().map(|c| c.assigned_requests).collect();
    /// assert_eq!(counts, vec![2, 2, 1]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// Most callers go through [`ServeSpec`](crate::spec::ServeSpec),
    /// which validates once and dispatches here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serve`] for out-of-range placements or a
    /// request no chip's budget can hold; propagates trace-validation and
    /// measurement errors.
    pub fn serve(&self, trace: &ArrivalTrace) -> Result<ClusterReport, CoreError> {
        let chips = self.nodes.len();
        let model = &self.nodes[0].engine.config().model;
        trace.validate(model)?;
        let sizer = kv_sizer(model, &self.config.serve)?;

        // Placement: route requests in arrival order, keeping a running
        // load picture for load-aware policies.
        let mut loads = self.empty_loads();
        let mut assignment = vec![0usize; trace.requests.len()];
        for (seq, &idx) in arrival_order(trace).iter().enumerate() {
            let request = &trace.requests[idx];
            let chip = self.config.placement.place(seq, request, &loads);
            if chip >= chips {
                return Err(ServeError::PlacementOutOfRange { chip, chips }.into());
            }
            loads[chip].assigned_requests += 1;
            loads[chip].assigned_peak_kv_bytes += sizer.bytes(request.final_context_len());
            assignment[idx] = chip;
        }
        // Per-chip shards keep the input trace's request order, so a
        // one-chip cluster hands the original trace through unchanged.
        let mut shards: Vec<ArrivalTrace> = vec![ArrivalTrace::default(); chips];
        for (idx, request) in trace.requests.iter().enumerate() {
            shards[assignment[idx]].requests.push(*request);
        }
        self.run_shards(&shards, &loads, None, trace.requests.len())
    }

    /// A fresh load picture of every chip, before placement.
    fn empty_loads(&self) -> Vec<ChipLoad> {
        (0..self.nodes.len())
            .map(|chip| ChipLoad {
                chip,
                assigned_requests: 0,
                assigned_peak_kv_bytes: 0,
                kv_budget_bytes: self.config.serve.kv_budget_bytes,
                throughput_score_milli: throughput_score_milli(self.nodes[chip].engine.config()),
            })
            .collect()
    }

    /// Runs per-chip shards through the serving loop: the shared backend
    /// of [`Cluster::serve`] and both stages of
    /// [`Cluster::serve_disaggregated`]. `loads` is the placement picture
    /// the donor-headroom partition and per-chip report rows are built
    /// from, `phases` (per chip, aligned with its shard's requests; `None`
    /// = all [`SessionPhase::Full`]) marks partial legs, and `requests` is
    /// the number of legs the report accounts.
    fn run_shards(
        &self,
        shards: &[ArrivalTrace],
        loads: &[ChipLoad],
        phases: Option<&[Vec<SessionPhase>]>,
        requests: usize,
    ) -> Result<ClusterReport, CoreError> {
        let chips = self.nodes.len();
        // Donor headroom: each chip's budget slack after placement,
        // statically split among the other chips so the parallel per-chip
        // loops can never oversubscribe a donor.
        let donor_headroom: Vec<u64> = loads
            .iter()
            .map(|l| l.kv_budget_bytes.map_or(0, |b| b.saturating_sub(l.assigned_peak_kv_bytes)))
            .collect();

        let exec = self.exec;
        let chip_ids: Vec<usize> = (0..chips).collect();
        let results: Vec<Result<(ServeReport, MigrationStats), CoreError>> =
            par_map(&chip_ids, &exec, |&chip| {
                let share: Vec<u64> = (0..chips)
                    .map(|donor| {
                        if donor == chip || chips < 2 {
                            0
                        } else {
                            donor_headroom[donor] / (chips as u64 - 1)
                        }
                    })
                    .collect();
                let hops: Vec<u32> =
                    (0..chips).map(|j| self.config.hops_between(chip, j)).collect();
                let mut ctx = MigrationCtx::new(
                    self.config.migration.as_ref(),
                    chip,
                    share,
                    hops,
                    self.config.noc,
                )?;
                let report = serve_on_chip(
                    &self.nodes[chip].engine,
                    &shards[chip],
                    &self.config.serve,
                    phases.map(|p| p[chip].as_slice()),
                    Some(&mut ctx),
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
            latencies.extend(
                report.traces.iter().filter(|t| !t.rejected).map(ServeTrace::total_latency_ms),
            );
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
        if self.config.chip_engines().is_some() && makespan > 0.0 {
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
                shards.iter().flat_map(|s| s.requests.iter().map(ServeRequest::model)).collect();
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
            placement: self.config.placement.name().to_string(),
            migration: self.config.migration.name().to_string(),
            requests,
            rejected_requests: rejected,
            total_generated_tokens: total_tokens,
            makespan_ms: makespan,
            tokens_per_sec: if makespan > 0.0 {
                total_tokens as f64 / (makespan / 1e3)
            } else {
                0.0
            },
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

    /// Serves one arrival stream with prefill/decode disaggregation: the
    /// base [`PlacementPolicy`] routes each request as usual, then the
    /// configured [`PhasePlacement`] may split it — prefill on one chip,
    /// decode on another — with the prompt's KV cache handed off over the
    /// cluster NoC ([`Noc::transfer_hops`], store-and-forward, charged per
    /// hop).
    ///
    /// The run is two deterministic stages on one absolute clock. The
    /// *prefill stage* serves every request's first leg: colocated
    /// requests run whole ([`SessionPhase::Full`]) and split requests run
    /// [`SessionPhase::PrefillOnly`] on their prefill chip, finishing once
    /// the prompt KV (and first token) exist. Each surviving split
    /// request's decode leg then arrives on its decode chip at `prefill
    /// finish + handoff latency` and the *decode stage* serves those legs
    /// ([`SessionPhase::DecodeOnly`], starting pre-filled, no DRAM fault
    /// on first admission). The two stages' chip pools must be disjoint —
    /// a chip hosting prefill-stage legs cannot also host decode-stage
    /// legs, because the stages would overlap in time on that chip
    /// ([`ServeError::PhaseOverlap`]).
    ///
    /// Under the default [`Colocated`] phase placement every request runs
    /// whole, the decode stage is empty, and
    /// [`DisaggReport::prefill_stage`] reproduces [`Cluster::serve`]'s
    /// report bit-exactly (the `tests/disagg_invariants.rs` contract).
    /// Deterministic: bit-identical across `MEADOW_THREADS`.
    ///
    /// Most callers go through [`ServeSpec`](crate::spec::ServeSpec),
    /// which dispatches here whenever a phase placement is set.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serve`] for out-of-range base or phase
    /// placements and for overlapping stage pools; propagates
    /// trace-validation and measurement errors.
    pub fn serve_disaggregated(&self, trace: &ArrivalTrace) -> Result<DisaggReport, CoreError> {
        let chips = self.nodes.len();
        let model = &self.nodes[0].engine.config().model;
        trace.validate(model)?;
        let sizer = kv_sizer(model, &self.config.serve)?;

        // Placement: identical arrival ordering and load bookkeeping to
        // `serve`, so `Colocated` degenerates to it exactly. The combined
        // `loads` picture (both legs of every request) feeds the policies;
        // each stage's run sees only its own legs.
        let order = arrival_order(trace);
        let mut loads = self.empty_loads();
        let mut pass_a_loads = self.empty_loads();
        let mut pass_b_loads = self.empty_loads();
        let mut assignment = vec![PhaseAssignment::colocated(0); trace.requests.len()];
        for (seq, &idx) in order.iter().enumerate() {
            let request = &trace.requests[idx];
            let base = self.config.placement.place(seq, request, &loads);
            if base >= chips {
                return Err(ServeError::PlacementOutOfRange { chip: base, chips }.into());
            }
            let pa = self.config.phase_placement.place_phases(seq, request, &loads, base);
            for chip in [pa.prefill_chip, pa.decode_chip] {
                if chip >= chips {
                    return Err(ServeError::PlacementOutOfRange { chip, chips }.into());
                }
            }
            let peak = sizer.bytes(request.final_context_len());
            if pa.is_split() {
                // The prefill chip only ever holds the prompt KV (it
                // leaves at the phase boundary); the decode chip holds the
                // request's full peak.
                let prompt_kv = sizer.bytes(request.prompt_tokens);
                loads[pa.prefill_chip].assigned_requests += 1;
                loads[pa.prefill_chip].assigned_peak_kv_bytes += prompt_kv;
                loads[pa.decode_chip].assigned_requests += 1;
                loads[pa.decode_chip].assigned_peak_kv_bytes += peak;
                pass_a_loads[pa.prefill_chip].assigned_requests += 1;
                pass_a_loads[pa.prefill_chip].assigned_peak_kv_bytes += prompt_kv;
                pass_b_loads[pa.decode_chip].assigned_requests += 1;
                pass_b_loads[pa.decode_chip].assigned_peak_kv_bytes += peak;
            } else {
                loads[pa.decode_chip].assigned_requests += 1;
                loads[pa.decode_chip].assigned_peak_kv_bytes += peak;
                pass_a_loads[pa.decode_chip].assigned_requests += 1;
                pass_a_loads[pa.decode_chip].assigned_peak_kv_bytes += peak;
            }
            assignment[idx] = pa;
        }

        // Prefill-stage shards (input order, like `serve`), plus the
        // disjointness check between the stage pools.
        let mut hosts_prefill = vec![false; chips];
        let mut hosts_decode = vec![false; chips];
        let mut shards_a: Vec<ArrivalTrace> = vec![ArrivalTrace::default(); chips];
        let mut phases_a: Vec<Vec<SessionPhase>> = vec![Vec::new(); chips];
        for (idx, request) in trace.requests.iter().enumerate() {
            let pa = assignment[idx];
            let phase = if pa.is_split() { SessionPhase::PrefillOnly } else { SessionPhase::Full };
            shards_a[pa.prefill_chip].requests.push(*request);
            phases_a[pa.prefill_chip].push(phase);
            hosts_prefill[pa.prefill_chip] = true;
            if pa.is_split() {
                hosts_decode[pa.decode_chip] = true;
            }
        }
        if let Some(chip) = (0..chips).find(|&c| hosts_prefill[c] && hosts_decode[c]) {
            return Err(ServeError::PhaseOverlap { chip }.into());
        }
        let prefill_stage =
            self.run_shards(&shards_a, &pass_a_loads, Some(&phases_a), trace.requests.len())?;

        // KV handoffs: one shared accounting NoC, charged in arrival order
        // (the cost model is contention-free, so ordering only needs to be
        // deterministic). A shed prefill leg hands nothing off.
        let clock = self.nodes[0].engine.config().chip.clock;
        let mut noc = Noc::new(self.config.noc)?;
        let mut handoffs = 0u64;
        let mut handoff_bytes = 0u64;
        let mut handoff_ms: BTreeMap<u32, f64> = BTreeMap::new();
        let mut shards_b: Vec<ArrivalTrace> = vec![ArrivalTrace::default(); chips];
        let mut phases_b: Vec<Vec<SessionPhase>> = vec![Vec::new(); chips];
        let mut decode_legs = 0usize;
        for &idx in &order {
            let pa = assignment[idx];
            if !pa.is_split() {
                continue;
            }
            let request = trace.requests[idx];
            let pre =
                prefill_stage.trace(request.id).expect("every request has a prefill-stage leg");
            if pre.rejected {
                continue;
            }
            let bytes = sizer.bytes(request.prompt_tokens);
            let hops = self.config.hops_between(pa.prefill_chip, pa.decode_chip);
            let ms = clock.to_ms(noc.transfer_hops(bytes, hops));
            handoffs += 1;
            handoff_bytes += bytes;
            handoff_ms.insert(request.id, ms);
            let mut leg = request;
            leg.arrival_ms = pre.finish_ms + ms;
            shards_b[pa.decode_chip].requests.push(leg);
            phases_b[pa.decode_chip].push(SessionPhase::DecodeOnly);
            decode_legs += 1;
        }
        let decode_stage = if decode_legs > 0 {
            Some(self.run_shards(&shards_b, &pass_b_loads, Some(&phases_b), decode_legs)?)
        } else {
            None
        };

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
            let pre =
                prefill_stage.trace(request.id).expect("every request has a prefill-stage leg");
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
                let dec = decode_stage
                    .as_ref()
                    .and_then(|s| s.trace(request.id))
                    .expect("surviving split request has a decode-stage leg");
                RequestSummary {
                    id: request.id,
                    prefill_chip: pa.prefill_chip,
                    decode_chip: pa.decode_chip,
                    rejected: dec.rejected,
                    ttft_ms: pre.ttft_ms(),
                    handoff_ms: handoff_ms.get(&request.id).copied().unwrap_or(0.0),
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
            phase_placement: self.config.phase_placement.name().to_string(),
            requests: trace.requests.len(),
            split_requests: assignment.iter().filter(|pa| pa.is_split()).count() as u64,
            rejected_requests: summaries.iter().filter(|s| s.rejected).count() as u64,
            total_generated_tokens: total_tokens,
            makespan_ms: makespan,
            tokens_per_sec: if makespan > 0.0 {
                total_tokens as f64 / (makespan / 1e3)
            } else {
                0.0
            },
            p50_ttft_ms: ttft.p50_ms,
            p95_ttft_ms: ttft.p95_ms,
            p50_tbt_ms: tbt.p50_ms,
            p95_tbt_ms: tbt.p95_ms,
            handoff: HandoffStats {
                split_requests: handoffs,
                handoff_bytes,
                noc_link_bytes: noc.total_bytes(),
                noc_link_cycles: noc.total_link_cycles(),
            },
            prefill_stage,
            decode_stage,
            summaries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::serve::KvPolicy;
    use meadow_models::presets;

    fn engine() -> MeadowEngine {
        MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
    }

    #[test]
    fn builder_validates_at_construction() {
        assert_eq!(ClusterConfig::builder().chips(0).build().unwrap_err(), ServeError::ZeroChips);
        assert_eq!(
            ClusterConfig::builder()
                .serve(ServeConfig::default().with_max_batch(0))
                .build()
                .unwrap_err(),
            ServeError::ZeroMaxBatch
        );
        assert_eq!(
            ClusterConfig::builder()
                .serve(ServeConfig::default().with_policy(KvPolicy::PagedLru).with_page_bytes(0))
                .build()
                .unwrap_err(),
            ServeError::ZeroPageBytes
        );
        let ok = ClusterConfig::builder()
            .chips(4)
            .placement(LeastLoadedKv)
            .migration(ToLeastLoaded)
            .build()
            .unwrap();
        assert_eq!(ok.chips(), 4);
        assert_eq!(ok.placement_name(), "least-loaded-kv");
        assert_eq!(ok.migration_name(), "to-least-loaded");
    }

    #[test]
    fn placement_policies_route_deterministically() {
        let loads: Vec<ChipLoad> = [(0, 100u64), (1, 40), (2, 70)]
            .into_iter()
            .map(|(chip, kv)| ChipLoad {
                chip,
                assigned_requests: 1,
                assigned_peak_kv_bytes: kv,
                kv_budget_bytes: Some(200),
                throughput_score_milli: 1000,
            })
            .collect();
        let req = ServeRequest::new(9, 0.0, 16, 8);
        assert_eq!(RoundRobin.place(0, &req, &loads), 0);
        assert_eq!(RoundRobin.place(5, &req, &loads), 2);
        assert_eq!(LeastLoadedKv.place(0, &req, &loads), 1);
        // Affinity hints route modulo the chip count; no hint hashes the id
        // (stable across calls).
        assert_eq!(SessionAffinity.place(0, &req.with_affinity(7), &loads), 1);
        let hashed = SessionAffinity.place(0, &req, &loads);
        assert_eq!(hashed, SessionAffinity.place(3, &req, &loads));
        assert!(hashed < 3);
    }

    #[test]
    fn migration_policy_picks_roomiest_reachable_chip() {
        let headroom = [0u64, 500, 900, 900];
        let hops = [0u32, 1, 2, 3];
        let snap = MigrationSnapshot { source: 0, headroom: &headroom, hops: &hops };
        // Ties on headroom break to the fewer-hop chip.
        assert_eq!(ToLeastLoaded.choose_target(100, &snap), Some(2));
        // Chips without room are skipped; nothing fits → DRAM.
        assert_eq!(ToLeastLoaded.choose_target(600, &snap), Some(2));
        assert_eq!(ToLeastLoaded.choose_target(1000, &snap), None);
        assert_eq!(ToLeastLoaded.choose_target(0, &snap), None);
        assert_eq!(NoMigration.choose_target(100, &snap), None);
    }

    #[test]
    fn migration_ctx_parks_and_pulls_back_conservatively() {
        let policy = ToLeastLoaded;
        let mut ctx =
            MigrationCtx::new(&policy, 0, vec![0, 1000, 300], vec![0, 1, 2], NocConfig::default())
                .unwrap();
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
    fn out_of_range_placement_is_rejected() {
        #[derive(Debug)]
        struct Wild;
        impl PlacementPolicy for Wild {
            fn name(&self) -> &'static str {
                "wild"
            }
            fn place(&self, _: usize, _: &ServeRequest, loads: &[ChipLoad]) -> usize {
                loads.len()
            }
        }
        let config = ClusterConfig::builder().chips(2).placement(Wild).build().unwrap();
        let err = Cluster::new(engine(), config)
            .serve(&ArrivalTrace::uniform(2, 0.0, 16, 4))
            .unwrap_err();
        assert_eq!(err, CoreError::Serve(ServeError::PlacementOutOfRange { chip: 2, chips: 2 }));
    }

    #[test]
    fn empty_trace_yields_empty_cluster_report() {
        let config = ClusterConfig::builder().chips(3).build().unwrap();
        let report = Cluster::new(engine(), config).serve(&ArrivalTrace::default()).unwrap();
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
                ClusterConfig::builder().chips(2).serve(serve_config).placement(SessionAffinity);
            let config =
                if migrate { builder.migration(ToLeastLoaded) } else { builder }.build().unwrap();
            Cluster::new(engine(), config).serve(&trace).unwrap()
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
    }

    #[test]
    fn cluster_report_round_trips_through_json() {
        let config = ClusterConfig::builder()
            .chips(2)
            .placement(LeastLoadedKv)
            .migration(ToLeastLoaded)
            .build()
            .unwrap();
        let report =
            Cluster::new(engine(), config).serve(&ArrivalTrace::uniform(3, 0.5, 8, 2)).unwrap();
        let json = report.to_json().unwrap();
        let parsed: ClusterReport = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, report);
        assert!(report.trace(2).is_some());
        assert!(report.trace(99).is_none());
    }

    #[test]
    fn self_migration_is_rejected_as_free_parking() {
        // An adversarial policy that always targets the evicting chip
        // itself. `Noc::transfer_hops` charges nothing for zero hops, so
        // if this were honored the bytes would "migrate" for free without
        // touching the interconnect; the MigrationCtx must fall back to
        // the ordinary DRAM spill instead.
        #[derive(Debug)]
        struct ParkOnSelf;
        impl MigrationPolicy for ParkOnSelf {
            fn name(&self) -> &'static str {
                "park-on-self"
            }
            fn choose_target(&self, _: u64, snapshot: &MigrationSnapshot<'_>) -> Option<usize> {
                Some(snapshot.source)
            }
        }
        // Same pressure scenario as migration_replaces_dram_spill_under_
        // pressure: chip 0 oversubscribed, chip 1 with donatable headroom.
        let trace = ArrivalTrace::new(
            (0..6u32)
                .map(|i| ServeRequest::new(i, 0.0, 16, 8).with_affinity(u32::from(i == 5)))
                .collect(),
        );
        let model = presets::tiny_decoder();
        let single = trace.requests[0].peak_kv_bytes(&model);
        let serve_config = ServeConfig::default()
            .with_budget(2 * single)
            .with_policy(KvPolicy::PagedLru)
            .with_page_bytes(256)
            .with_max_batch(1);
        let run = |migration: Box<dyn MigrationPolicy>| {
            let mut builder =
                ClusterConfig::builder().chips(2).serve(serve_config).placement(SessionAffinity);
            builder.migration = migration;
            Cluster::new(engine(), builder.build().unwrap()).serve(&trace).unwrap()
        };
        let honest = run(Box::new(NoMigration));
        let selfish = run(Box::new(ParkOnSelf));
        assert!(honest.dram_kv_bytes > 0, "the workload must spill");
        // The self-target never migrates: no parked bytes, no NoC traffic,
        // and exactly the DRAM spill the no-migration run pays.
        assert_eq!(selfish.migrated_out_bytes, 0);
        assert_eq!(selfish.migration_events, 0);
        assert_eq!(selfish.noc_link_bytes, 0);
        assert_eq!(selfish.noc_link_cycles, 0);
        assert_eq!(selfish.dram_kv_bytes, honest.dram_kv_bytes);
        assert_eq!(selfish.total_generated_tokens, honest.total_generated_tokens);
    }

    #[test]
    fn phase_placements_route_deterministically() {
        let loads: Vec<ChipLoad> = (0..4)
            .map(|chip| ChipLoad {
                chip,
                assigned_requests: 0,
                assigned_peak_kv_bytes: 0,
                kv_budget_bytes: None,
                throughput_score_milli: 1000,
            })
            .collect();
        let req = ServeRequest::new(0, 0.0, 16, 8);
        // Colocated always follows the base placement.
        for base in 0..4 {
            let pa = Colocated.place_phases(7, &req, &loads, base);
            assert_eq!(pa, PhaseAssignment::colocated(base));
            assert!(!pa.is_split());
        }
        // A 1+3 split round-robins decode over chips 1..4.
        let split = PrefillDecodeSplit { prefill_chips: 1 };
        for seq in 0..6 {
            let pa = split.place_phases(seq, &req, &loads, 3);
            assert_eq!(pa.prefill_chip, 0);
            assert_eq!(pa.decode_chip, 1 + seq % 3);
            assert!(pa.is_split());
        }
        // Degenerate pool sizes collapse to the base placement.
        for degenerate in [0, 4, 5] {
            let pa =
                PrefillDecodeSplit { prefill_chips: degenerate }.place_phases(2, &req, &loads, 3);
            assert_eq!(pa, PhaseAssignment::colocated(3));
        }
    }

    #[test]
    fn overlapping_phase_pools_are_rejected() {
        // Splits even requests 0→1 but colocates odd requests on chip 1:
        // chip 1 would need to serve prefill-stage legs and decode-stage
        // legs at once.
        #[derive(Debug)]
        struct Tangled;
        impl PhasePlacement for Tangled {
            fn name(&self) -> &'static str {
                "tangled"
            }
            fn place_phases(
                &self,
                seq: usize,
                _: &ServeRequest,
                _: &[ChipLoad],
                _: usize,
            ) -> PhaseAssignment {
                if seq.is_multiple_of(2) {
                    PhaseAssignment { prefill_chip: 0, decode_chip: 1 }
                } else {
                    PhaseAssignment::colocated(1)
                }
            }
        }
        let config = ClusterConfig::builder().chips(2).phase_placement(Tangled).build().unwrap();
        let err = Cluster::new(engine(), config)
            .serve_disaggregated(&ArrivalTrace::uniform(4, 0.0, 8, 2))
            .unwrap_err();
        assert_eq!(err, CoreError::Serve(ServeError::PhaseOverlap { chip: 1 }));
    }

    #[test]
    fn out_of_range_phase_placement_is_rejected() {
        #[derive(Debug)]
        struct WildPhases;
        impl PhasePlacement for WildPhases {
            fn name(&self) -> &'static str {
                "wild-phases"
            }
            fn place_phases(
                &self,
                _: usize,
                _: &ServeRequest,
                loads: &[ChipLoad],
                _: usize,
            ) -> PhaseAssignment {
                PhaseAssignment { prefill_chip: 0, decode_chip: loads.len() }
            }
        }
        let config = ClusterConfig::builder().chips(2).phase_placement(WildPhases).build().unwrap();
        let err = Cluster::new(engine(), config)
            .serve_disaggregated(&ArrivalTrace::uniform(2, 0.0, 8, 2))
            .unwrap_err();
        assert_eq!(err, CoreError::Serve(ServeError::PlacementOutOfRange { chip: 2, chips: 2 }));
    }

    #[test]
    fn disaggregated_split_hands_off_and_decodes_remotely() {
        let model = presets::tiny_decoder();
        let trace = ArrivalTrace::uniform(4, 0.01, 16, 8);
        let config = ClusterConfig::builder()
            .chips(2)
            .phase_placement(PrefillDecodeSplit { prefill_chips: 1 })
            .build()
            .unwrap();
        let report = Cluster::new(engine(), config).serve_disaggregated(&trace).unwrap();
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
