//! The unified serving front door: one validated [`ServeSpec`] that
//! dispatches to single-chip, cluster, or disaggregated serving.
//!
//! The serving simulator grew three entry points —
//! [`serve`](crate::serve::serve) for one chip,
//! [`Cluster::serve`](crate::cluster::Cluster::serve) for a sharded
//! cluster, and
//! [`Cluster::serve_disaggregated`](crate::cluster::Cluster::serve_disaggregated)
//! for prefill/decode phase splitting — each with its own construction
//! ritual. A [`ServeSpec`] replaces the ritual: one builder collects the
//! chip count, per-chip [`ServeConfig`], placement/migration/phase
//! policies, NoC and scheduler core, validates the whole combination at
//! [`ServeSpecBuilder::build`] (no latent invalid states), and
//! [`ServeSpec::run`] picks the serving mode from what was configured —
//! configuring a policy selects the mode that honors it:
//!
//! * a phase placement was set → **disaggregated** ([`DisaggReport`]),
//! * more than one chip, or an explicit placement or migration policy →
//!   **cluster** ([`ClusterReport`]),
//! * otherwise → **single-chip** ([`ServeReport`]).
//!
//! The legacy entry points remain as thin shims over the same engine
//! room, so existing callers and golden artifacts are untouched.
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

use crate::cluster::{Cluster, ClusterConfig, ClusterConfigBuilder, ClusterReport, DisaggReport};
use crate::cluster::{MigrationPolicy, PhasePlacement, PlacementPolicy};
use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::serve::{SchedulerCore, ServeConfig, ServeError, ServeReport, SpecDecode};
use crate::MeadowEngine;
use meadow_models::workload::ArrivalTrace;
use meadow_models::{KvCompression, KvLayout};
use meadow_sim::noc::NocConfig;
use std::sync::Arc;

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
/// [`ServeSpec::run`] lays out the chips of a [`Cluster`] over the shared
/// configuration (the simulator is stateless between runs), so repeated
/// trials of the same spec are bit-identical. No run builds an engine: a
/// replica cluster clones the engine handed to `run`, and a
/// [`chip_specs`](ServeSpecBuilder::chip_specs) fleet clones the engines
/// [`build`](ServeSpecBuilder::build) constructed once, so a run computes
/// no packing statistics.
#[derive(Debug)]
pub struct ServeSpec {
    config: Arc<ClusterConfig>,
    mode: ServeMode,
}

impl ServeSpec {
    /// Starts a builder with the defaults: one chip, the default
    /// [`ServeConfig`], round-robin placement, no migration, colocated
    /// phases, the ZCU102 NoC, and the event scheduler core.
    pub fn builder() -> ServeSpecBuilder {
        ServeSpecBuilder::default()
    }

    /// The validated cluster configuration underneath this spec.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the spec's serving mode on `engine` over `trace`.
    ///
    /// # Errors
    ///
    /// Propagates trace-validation, placement and measurement errors from
    /// the dispatched mode ([`CoreError::Serve`] and below); the
    /// configuration itself was already validated at build time.
    pub fn run(
        &self,
        engine: &MeadowEngine,
        trace: &ArrivalTrace,
    ) -> Result<ServeOutcome, CoreError> {
        let cluster = Cluster::from_shared(engine.clone(), Arc::clone(&self.config));
        match self.mode {
            ServeMode::Single => {
                let mut report = cluster.serve(trace)?;
                Ok(ServeOutcome::Single(report.per_chip.remove(0).report))
            }
            ServeMode::Cluster => Ok(ServeOutcome::Cluster(cluster.serve(trace)?)),
            ServeMode::Disaggregated => {
                Ok(ServeOutcome::Disaggregated(Box::new(cluster.serve_disaggregated(trace)?)))
            }
        }
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
    /// The single-chip report, if this was a single-chip run.
    pub fn as_single(&self) -> Option<&ServeReport> {
        match self {
            ServeOutcome::Single(r) => Some(r),
            _ => None,
        }
    }

    /// The cluster report, if this was a cluster run.
    pub fn as_cluster(&self) -> Option<&ClusterReport> {
        match self {
            ServeOutcome::Cluster(r) => Some(r),
            _ => None,
        }
    }

    /// The disaggregation report, if this was a disaggregated run.
    pub fn as_disaggregated(&self) -> Option<&DisaggReport> {
        match self {
            ServeOutcome::Disaggregated(r) => Some(r),
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
    inner: ClusterConfigBuilder,
    config: ServeConfig,
    chips: usize,
    chips_set: bool,
    has_phases: bool,
    has_cluster_policy: bool,
}

impl Default for ServeSpecBuilder {
    fn default() -> Self {
        Self {
            inner: ClusterConfigBuilder::default(),
            config: ServeConfig::default(),
            chips: 1,
            chips_set: false,
            has_phases: false,
            has_cluster_policy: false,
        }
    }
}

impl ServeSpecBuilder {
    /// Sets the number of chips. More than one selects cluster serving
    /// (unless a phase placement upgrades the run to disaggregated).
    pub fn chips(mut self, chips: usize) -> Self {
        self.chips = chips;
        self.chips_set = true;
        self
    }

    /// Builds a heterogeneous cluster with one chip per engine spec
    /// (see [`ClusterConfigBuilder::chip_specs`]); the engine handed to
    /// [`ServeSpec::run`] then only supplies the thread budget and trace
    /// validation model. More than one spec selects cluster serving, and
    /// a disagreeing [`chips`](Self::chips) call is rejected at build.
    pub fn chip_specs(mut self, specs: Vec<EngineConfig>) -> Self {
        self.has_cluster_policy = self.has_cluster_policy || specs.len() > 1;
        self.inner = self.inner.chip_specs(specs);
        self
    }

    /// Sets per-link hop costs on the cluster's linear interconnect (see
    /// [`ClusterConfigBuilder::link_hops`]).
    pub fn link_hops(mut self, hops: Vec<u32>) -> Self {
        self.inner = self.inner.link_hops(hops);
        self
    }

    /// Sets the per-chip serving configuration wholesale.
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the request-to-chip placement policy. Setting one selects
    /// cluster serving ([`ClusterReport`]) even on one chip.
    pub fn placement(mut self, placement: impl PlacementPolicy + 'static) -> Self {
        self.inner = self.inner.placement(placement);
        self.has_cluster_policy = true;
        self
    }

    /// Sets the KV migration policy. Setting one selects cluster serving
    /// ([`ClusterReport`]) even on one chip.
    pub fn migration(mut self, migration: impl MigrationPolicy + 'static) -> Self {
        self.inner = self.inner.migration(migration);
        self.has_cluster_policy = true;
        self
    }

    /// Sets the prefill/decode phase placement. Setting one selects
    /// disaggregated serving ([`DisaggReport`]).
    pub fn phases(mut self, phases: impl PhasePlacement + 'static) -> Self {
        self.inner = self.inner.phase_placement(phases);
        self.has_phases = true;
        self
    }

    /// Sets the chip-to-chip NoC configuration.
    pub fn noc(mut self, noc: NocConfig) -> Self {
        self.inner = self.inner.noc(noc);
        self
    }

    /// Selects the scheduler core ([`SchedulerCore::Event`] by default;
    /// the cores are bit-identical, so this is a performance knob).
    pub fn scheduler(mut self, scheduler: SchedulerCore) -> Self {
        self.inner = self.inner.scheduler(scheduler);
        self
    }

    /// Enables the deterministic speculative-decoding model on the
    /// per-chip serving configuration.
    pub fn speculation(mut self, speculation: SpecDecode) -> Self {
        self.config = self.config.with_speculation(speculation);
        self
    }

    /// Sets the KV-cache layout on the per-chip serving configuration
    /// ([`KvLayout::Dense`] by default — bit-identical to pre-layout
    /// serving).
    pub fn kv_layout(mut self, kv_layout: KvLayout) -> Self {
        self.config = self.config.with_kv_layout(kv_layout);
        self
    }

    /// Sets the token-level KV compression model on the per-chip serving
    /// configuration ([`KvCompression::None`] by default).
    pub fn kv_compression(mut self, kv_compression: KvCompression) -> Self {
        self.config = self.config.with_kv_compression(kv_compression);
        self
    }

    /// Sets the per-chip weight budget in bytes, turning on the
    /// weight-residency state machine: chips start cold, model weights
    /// stream in over DRAM before a step may run, and least-recently-used
    /// models are evicted when a new model's weights need the space.
    /// Unset (the default), every chip's one model is permanently
    /// resident for free.
    pub fn weight_budget(mut self, bytes: u64) -> Self {
        self.config = self.config.with_weight_budget(bytes);
        self
    }

    /// Overlaps each layer's weight load with the previous layer's
    /// compute on cold starts (EdgeFlow-style pipelining) instead of
    /// serializing the full load before the step. Only meaningful with a
    /// weight budget set.
    pub fn weight_streaming(mut self, streaming: bool) -> Self {
        self.config = self.config.with_weight_streaming(streaming);
        self
    }

    /// Validates the whole combination and finishes the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroChips`] for an empty cluster,
    /// [`ServeError::EmptyChipSpecs`] /
    /// [`ServeError::ChipSpecCountMismatch`] /
    /// [`ServeError::InvalidChipSpec`] / [`ServeError::InvalidLinkHops`]
    /// for malformed heterogeneous configurations, and propagates
    /// [`ServeConfig::validate`] rejections (zero `max_batch`, zero
    /// `page_bytes` under `PagedLru`, invalid SLOs or speculation
    /// parameters).
    pub fn build(self) -> Result<ServeSpec, ServeError> {
        let mut inner = self.inner;
        if self.chips_set {
            inner = inner.chips(self.chips);
        }
        let config = inner.serve(self.config).build()?;
        let mode = if self.has_phases {
            ServeMode::Disaggregated
        } else if config.chips() > 1 || self.has_cluster_policy {
            ServeMode::Cluster
        } else {
            ServeMode::Single
        };
        Ok(ServeSpec { config: Arc::new(config), mode })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Colocated, PrefillDecodeSplit, RoundRobin};
    use crate::engine::EngineConfig;
    use crate::serve::{serve, KvPolicy};
    use meadow_models::presets;

    fn engine() -> MeadowEngine {
        MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap()
    }

    #[test]
    fn single_chip_spec_matches_serve_bit_exactly() {
        let e = engine();
        let trace = ArrivalTrace::uniform(5, 1.0, 16, 6);
        let config = ServeConfig::default().with_max_batch(2);
        let spec = ServeSpec::builder().config(config).build().unwrap();
        let via_spec = spec.run(&e, &trace).unwrap().into_single().unwrap();
        let via_shim = serve(&e, &trace, &config).unwrap();
        assert_eq!(via_spec, via_shim);
    }

    #[test]
    fn chips_dispatch_to_cluster_mode() {
        let e = engine();
        let trace = ArrivalTrace::uniform(6, 0.0, 16, 4);
        let spec = ServeSpec::builder().chips(2).placement(RoundRobin).build().unwrap();
        let outcome = spec.run(&e, &trace).unwrap();
        assert!(outcome.as_single().is_none());
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
        let report = outcome.as_disaggregated().unwrap();
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
        assert!(outcome.as_disaggregated().is_some());
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
