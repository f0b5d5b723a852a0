//! The unified serving front door: one validated [`ServeSpec`] that
//! dispatches to single-chip, cluster, or disaggregated serving.
//!
//! A [`ServeSpec`] is the one way to serve a trace: one builder collects
//! the chip count (or per-chip engine specs), the per-chip
//! [`ServeConfig`] — built with its `with_*` chain, the one config path —
//! the placement/migration/phase policies and the NoC, validates the whole
//! combination at [`ServeSpecBuilder::build`] (no latent invalid states),
//! and [`ServeSpec::run`] picks the serving mode from what was configured —
//! configuring a policy selects the mode that honors it:
//!
//! * a phase placement was set → **disaggregated** ([`DisaggReport`]),
//! * more than one chip, or an explicit placement or migration policy →
//!   **cluster** ([`ClusterReport`]),
//! * otherwise → **single-chip** ([`ServeReport`]).
//!
//! Every mode shares one routing step and one per-chip scheduler: a
//! single-chip run is a one-chip cluster run, and a cluster run is a
//! disaggregated run whose phases are [`Colocated`].
//!
//! # Examples
//!
//! ```
//! use meadow_core::spec::ServeSpec;
//! use meadow_core::{EngineConfig, MeadowEngine, ServeConfig};
//! use meadow_models::presets;
//! use meadow_models::workload::ArrivalTrace;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
//! let trace = ArrivalTrace::uniform(4, 0.0, 16, 4);
//!
//! // Single chip: the spec runs the continuous-batching scheduler.
//! let spec = ServeSpec::builder().config(ServeConfig::default()).build()?;
//! let report = spec.run(&engine, &trace)?.into_single().expect("one chip");
//! assert_eq!(report.requests, 4);
//!
//! // Three chips: the same builder dispatches to cluster serving.
//! let spec = ServeSpec::builder().chips(3).build()?;
//! let report = spec.run(&engine, &trace)?;
//! assert_eq!(report.as_cluster().expect("sharded").chips, 3);
//! # Ok(())
//! # }
//! ```

use crate::cluster::{self, ClusterReport, Colocated, DisaggReport};
use crate::cluster::{MigrationPolicy, NoMigration, PhasePlacement, PlacementPolicy, RoundRobin};
use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::serve::{validate_run, ServeConfig, ServeError, ServeReport};
use crate::MeadowEngine;
use meadow_models::workload::ArrivalTrace;
use meadow_sim::noc::{Noc, NocConfig};
use meadow_tensor::parallel::ExecConfig;

/// Which serving mode a [`ServeSpec`] resolved to at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServeMode {
    Single,
    Cluster,
    Disaggregated,
}

/// A validated serving specification — see the [module docs](self).
///
/// Built once via [`ServeSpec::builder`], a spec is reusable: every
/// [`ServeSpec::run`] lays out its chips afresh (the simulator is
/// stateless between runs), so repeated trials of the same spec are
/// bit-identical. No run builds an engine: a replica cluster clones the
/// engine handed to `run`, and a [`chip_specs`](ServeSpecBuilder::chip_specs)
/// fleet clones the engines [`build`](ServeSpecBuilder::build) constructed
/// once, so a run computes no packing statistics.
#[derive(Debug)]
pub struct ServeSpec {
    pub(crate) chips: usize,
    pub(crate) serve: ServeConfig,
    pub(crate) placement: PlacementPolicy,
    pub(crate) migration: MigrationPolicy,
    /// [`Colocated`] unless [`phases`](ServeSpecBuilder::phases) set one.
    pub(crate) phases: PhasePlacement,
    /// The chip-to-chip NoC [`build`](ServeSpecBuilder::build) validated;
    /// every run charges a fresh copy of it.
    pub(crate) noc: Noc,
    /// Per-chip engines of a heterogeneous fleet, built once from the
    /// [`chip_specs`](ServeSpecBuilder::chip_specs) at build (`None` =
    /// replica cluster of whatever engine the run is given).
    chip_engines: Option<Vec<MeadowEngine>>,
    /// Per-link hop costs of the linear chip interconnect (`link_hops[i]`
    /// = cost of the link between chips `i` and `i + 1`; `None` = every
    /// link costs one hop).
    link_hops: Option<Vec<u32>>,
    mode: ServeMode,
}

impl ServeSpec {
    /// Starts a builder with the defaults: one chip, the default
    /// [`ServeConfig`], round-robin placement, no migration, colocated
    /// phases, and the ZCU102 NoC.
    pub fn builder() -> ServeSpecBuilder {
        ServeSpecBuilder::default()
    }

    /// Per-chip engines of a heterogeneous fleet, as
    /// [`build`](ServeSpecBuilder::build) constructed them from the
    /// [`chip_specs`](ServeSpecBuilder::chip_specs) (each chip's spec is
    /// its engine's [`config`](MeadowEngine::config)), or `None` for a
    /// replica cluster of the engine handed to [`run`](Self::run).
    pub fn chip_engines(&self) -> Option<&[MeadowEngine]> {
        self.chip_engines.as_deref()
    }

    /// Hop cost between two chips on the linear interconnect: the sum of
    /// the per-link costs between them, or `|a - b|` when no per-link
    /// costs are configured. [`build`](ServeSpecBuilder::build) bounds the
    /// total, so the sum never overflows.
    pub(crate) fn hops_between(&self, a: usize, b: usize) -> u32 {
        let (lo, hi) = (a.min(b), a.max(b));
        match &self.link_hops {
            Some(costs) => costs[lo..hi].iter().sum(),
            None => (hi - lo) as u32,
        }
    }

    /// Runs the spec's serving mode on `engine` over `trace`.
    ///
    /// The engine's thread budget is split between the two nested
    /// fan-outs: the chip fan-out keeps the engine's [`ExecConfig`] (it is
    /// clamped to the chip count), and each chip's engine gets
    /// `threads / min(threads, chips)` workers for its own measurements —
    /// so total concurrency stays at the configured thread count instead
    /// of multiplying to `chips × threads`. On a
    /// [`chip_specs`](ServeSpecBuilder::chip_specs) fleet, `engine` only
    /// supplies that thread budget.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serve`] for a KV layout the model cannot take,
    /// a request no chip's budget can hold (the first in trace order) or a
    /// weight configuration the trace cannot run under; propagates
    /// trace-validation and measurement errors. The run checks each of
    /// these once, before any chip runs; the configuration itself was
    /// already validated at build time.
    pub fn run(
        &self,
        engine: &MeadowEngine,
        trace: &ArrivalTrace,
    ) -> Result<ServeOutcome, CoreError> {
        let exec = engine.config().exec;
        let threads = exec.threads().max(1);
        let inner = ExecConfig::with_threads((threads / self.chips.clamp(1, threads)).max(1));
        let engines: Vec<MeadowEngine> = match &self.chip_engines {
            Some(built) => built.iter().map(|e| e.clone().with_exec(inner)).collect(),
            None => vec![engine.clone().with_exec(inner); self.chips],
        };
        // Traces validate against chip 0's model: every chip shares one
        // model architecture.
        let sizer = validate_run(&self.serve, &engines[0].config().model, trace)?;
        let routing = cluster::route(self, &engines, trace, &sizer);
        let mut first = cluster::run_shards(self, &engines, exec, &sizer, &routing.prefill)?;
        Ok(match self.mode {
            ServeMode::Single => ServeOutcome::Single(first.per_chip.remove(0).report),
            ServeMode::Cluster => ServeOutcome::Cluster(first),
            ServeMode::Disaggregated => ServeOutcome::Disaggregated(Box::new(
                cluster::disaggregate(self, &engines, exec, trace, &sizer, routing, first)?,
            )),
        })
    }
}

/// Result of one [`ServeSpec::run`], carrying the report shape of the
/// mode the spec resolved to.
#[derive(Debug, Clone)]
pub enum ServeOutcome {
    /// One chip: the single-chip scheduler's report.
    Single(ServeReport),
    /// Several chips under one arrival stream.
    Cluster(ClusterReport),
    /// Prefill/decode disaggregation across the cluster (boxed: the
    /// report is much larger than the other variants).
    Disaggregated(Box<DisaggReport>),
}

impl ServeOutcome {
    /// The cluster report, if this was a cluster run.
    pub fn as_cluster(&self) -> Option<&ClusterReport> {
        match self {
            ServeOutcome::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome into the single-chip report, if applicable.
    pub fn into_single(self) -> Option<ServeReport> {
        match self {
            ServeOutcome::Single(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome into the cluster report, if applicable.
    pub fn into_cluster(self) -> Option<ClusterReport> {
        match self {
            ServeOutcome::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// Consumes the outcome into the disaggregation report, if applicable.
    pub fn into_disaggregated(self) -> Option<DisaggReport> {
        match self {
            ServeOutcome::Disaggregated(r) => Some(*r),
            _ => None,
        }
    }
}

/// Builder for [`ServeSpec`] — see [`ServeSpec::builder`].
#[derive(Debug)]
pub struct ServeSpecBuilder {
    chips: Option<usize>,
    chip_specs: Option<Vec<EngineConfig>>,
    link_hops: Option<Vec<u32>>,
    serve: ServeConfig,
    placement: PlacementPolicy,
    migration: MigrationPolicy,
    phases: Option<PhasePlacement>,
    noc: NocConfig,
    has_cluster_policy: bool,
}

impl Default for ServeSpecBuilder {
    fn default() -> Self {
        Self {
            chips: None,
            chip_specs: None,
            link_hops: None,
            serve: ServeConfig::default(),
            placement: RoundRobin,
            migration: NoMigration,
            phases: None,
            noc: NocConfig::default(),
            has_cluster_policy: false,
        }
    }
}

impl ServeSpecBuilder {
    /// Sets the number of chips (a replica cluster of the engine handed to
    /// [`ServeSpec::run`]). More than one selects cluster serving (unless
    /// a phase placement upgrades the run to disaggregated).
    pub fn chips(mut self, chips: usize) -> Self {
        self.chips = Some(chips);
        self
    }

    /// Builds a heterogeneous cluster with one chip per engine spec; the
    /// engine handed to [`ServeSpec::run`] then only supplies the thread
    /// budget, and traces are validated against chip 0's model (every
    /// spec shares one model architecture). The cluster's size becomes
    /// `specs.len()`, so more than one spec selects cluster serving, and a
    /// disagreeing [`chips`](Self::chips) call is rejected at
    /// [`build`](Self::build). [`build`](Self::build) constructs each
    /// chip's engine once, and every run reuses it; packing statistics are
    /// computed once per distinct model, packing configuration and packing
    /// level.
    pub fn chip_specs(mut self, specs: Vec<EngineConfig>) -> Self {
        self.chip_specs = Some(specs);
        self
    }

    /// Sets per-link hop costs on the cluster's linear interconnect:
    /// `hops[i]` is the cost of the link between chips `i` and `i + 1`.
    /// The vector must cover exactly `chips - 1` links, and every link
    /// must cost at least one hop.
    pub fn link_hops(mut self, hops: Vec<u32>) -> Self {
        self.link_hops = Some(hops);
        self
    }

    /// Sets the per-chip serving configuration wholesale.
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.serve = config;
        self
    }

    /// Sets the request-to-chip placement policy. Setting one selects
    /// cluster serving ([`ClusterReport`]) even on one chip.
    pub fn placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self.has_cluster_policy = true;
        self
    }

    /// Sets the KV migration policy. Setting one selects cluster serving
    /// ([`ClusterReport`]) even on one chip.
    pub fn migration(mut self, migration: MigrationPolicy) -> Self {
        self.migration = migration;
        self.has_cluster_policy = true;
        self
    }

    /// Sets the prefill/decode phase placement. Setting one selects
    /// disaggregated serving ([`DisaggReport`]).
    pub fn phases(mut self, phases: PhasePlacement) -> Self {
        self.phases = Some(phases);
        self
    }

    /// Sets the chip-to-chip NoC configuration.
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.noc = noc;
        self
    }

    /// Validates the whole combination and finishes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroChips`] for an empty cluster,
    /// [`ServeError::EmptyChipSpecs`] /
    /// [`ServeError::ChipSpecCountMismatch`] /
    /// [`ServeError::InvalidChipSpec`] for a malformed heterogeneous
    /// spec list, [`ServeError::InvalidLinkHops`] when per-link hop costs
    /// don't cover the interconnect, [`ServeError::InvalidInterconnect`]
    /// for a zero-cost link, link costs that overflow a hop count, or a
    /// NoC with no links or no link bandwidth, and propagates
    /// [`ServeConfig::validate`] rejections (zero `max_batch`, zero
    /// `page_bytes` under `PagedLru`, invalid SLOs or speculation
    /// parameters).
    pub fn build(self) -> Result<ServeSpec, ServeError> {
        let chip_engines =
            self.chip_specs.map(|specs| fleet_engines(specs, self.chips)).transpose()?;
        let chips = chip_engines.as_ref().map_or(self.chips.unwrap_or(1), Vec::len);
        if chips == 0 {
            return Err(ServeError::ZeroChips);
        }
        if let Some(hops) = &self.link_hops {
            if hops.len() != chips - 1 {
                return Err(ServeError::InvalidLinkHops { got: hops.len(), expected: chips - 1 });
            }
            if let Some(link) = hops.iter().position(|&h| h == 0) {
                return Err(ServeError::InvalidInterconnect {
                    reason: format!("link {link} costs zero hops, which makes transfers free"),
                });
            }
            if hops.iter().try_fold(0u32, |sum, &h| sum.checked_add(h)).is_none() {
                return Err(ServeError::InvalidInterconnect {
                    reason: "link hop costs sum past u32::MAX".to_string(),
                });
            }
        }
        let noc = Noc::new(self.noc)
            .map_err(|e| ServeError::InvalidInterconnect { reason: e.to_string() })?;
        self.serve.validate()?;
        let mode = if self.phases.is_some() {
            ServeMode::Disaggregated
        } else if chips > 1 || self.has_cluster_policy {
            ServeMode::Cluster
        } else {
            ServeMode::Single
        };
        Ok(ServeSpec {
            chips,
            serve: self.serve,
            placement: self.placement,
            migration: self.migration,
            phases: self.phases.unwrap_or(Colocated),
            noc,
            chip_engines,
            link_hops: self.link_hops,
            mode,
        })
    }
}

/// Builds one engine per chip spec: rejects an empty list, a disagreeing
/// explicit chip count, a spec the engine constructor rejects, and mixed
/// model architectures.
fn fleet_engines(
    specs: Vec<EngineConfig>,
    chips: Option<usize>,
) -> Result<Vec<MeadowEngine>, ServeError> {
    if specs.is_empty() {
        return Err(ServeError::EmptyChipSpecs);
    }
    if let Some(chips) = chips.filter(|&c| c != specs.len()) {
        return Err(ServeError::ChipSpecCountMismatch { specs: specs.len(), chips });
    }
    let mut engines: Vec<MeadowEngine> = Vec::with_capacity(specs.len());
    for (chip, spec) in specs.into_iter().enumerate() {
        let engine = chip_engine(spec, &engines)
            .map_err(|e| ServeError::InvalidChipSpec { chip, reason: e.to_string() })?;
        if engines.first().is_some_and(|e| e.config().model != engine.config().model) {
            return Err(ServeError::InvalidChipSpec {
                chip,
                reason: "all chips of a cluster must serve the same model architecture".to_string(),
            });
        }
        engines.push(engine);
    }
    Ok(engines)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Colocated, PrefillDecodeSplit, RoundRobin};
    use crate::engine::EngineConfig;
    use crate::serve::KvPolicy;
    use meadow_models::presets;

    fn engine() -> MeadowEngine {
        MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
    }

    #[test]
    fn chips_dispatch_to_cluster_mode() {
        let e = engine();
        let trace = ArrivalTrace::uniform(6, 0.0, 16, 4);
        let spec = ServeSpec::builder().chips(2).placement(RoundRobin).build().unwrap();
        let outcome = spec.run(&e, &trace).unwrap();
        let report = outcome.as_cluster().unwrap();
        assert_eq!(report.chips, 2);
        assert_eq!(report.requests, 6);
    }

    #[test]
    fn phase_placement_dispatches_to_disaggregated_mode() {
        let e = engine();
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 4);
        let spec = ServeSpec::builder()
            .chips(2)
            .phases(PrefillDecodeSplit { prefill_chips: 1 })
            .build()
            .unwrap();
        let outcome = spec.run(&e, &trace).unwrap();
        let report = outcome.into_disaggregated().unwrap();
        assert_eq!(report.requests, 4);
        assert_eq!(report.split_requests, 4);
    }

    #[test]
    fn colocated_phases_still_count_as_disaggregated_mode() {
        // Setting ANY phase placement — even the colocated default policy,
        // explicitly — selects the disaggregated report shape.
        let e = engine();
        let trace = ArrivalTrace::uniform(3, 0.0, 16, 4);
        let spec = ServeSpec::builder().phases(Colocated).build().unwrap();
        let outcome = spec.run(&e, &trace).unwrap();
        assert!(matches!(outcome, ServeOutcome::Disaggregated(_)));
    }

    #[test]
    fn one_chip_with_explicit_placement_is_a_cluster_run() {
        // The 1-chip cluster reproduces the single-chip scheduler
        // bit-exactly, so asking for cluster machinery on one chip is a
        // report-shape choice, not a semantic one.
        let e = engine();
        let trace = ArrivalTrace::uniform(3, 0.0, 16, 4);
        let spec = ServeSpec::builder().placement(RoundRobin).build().unwrap();
        let report = spec.run(&e, &trace).unwrap().into_cluster().unwrap();
        assert_eq!(report.chips, 1);
        let single = ServeSpec::builder().build().unwrap();
        let single = single.run(&e, &trace).unwrap().into_single().unwrap();
        assert_eq!(report.per_chip[0].report, single);
    }

    #[test]
    fn build_rejects_invalid_combinations() {
        assert!(matches!(ServeSpec::builder().chips(0).build(), Err(ServeError::ZeroChips)));
        let bad = ServeConfig::default().with_policy(KvPolicy::PagedLru).with_page_bytes(0);
        assert!(ServeSpec::builder().config(bad).build().is_err());
    }

    #[test]
    fn spec_is_reusable_across_runs() {
        let e = engine();
        let trace = ArrivalTrace::uniform(4, 0.5, 16, 4);
        let spec = ServeSpec::builder().build().unwrap();
        let a = spec.run(&e, &trace).unwrap().into_single().unwrap();
        let b = spec.run(&e, &trace).unwrap().into_single().unwrap();
        assert_eq!(a, b);
    }
}
