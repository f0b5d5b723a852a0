//! The capacity planner: size the minimal chip fleet that meets an SLO.
//!
//! Real edge fleets mix big and LITTLE chips, and the deployment question
//! is *sizing*: "what is the smallest cluster that meets this SLO for
//! this workload?". The planner answers it by binary search over the
//! fleet size — every probe is one deterministic [`ServeSpec`] run of the
//! event core on a heterogeneous
//! [`chip_specs`](crate::spec::ServeSpecBuilder::chip_specs)
//! cluster under [`LeastLoadedWeighted`] placement, so a whole plan costs
//! `O(log max_chips)` cheap simulations per candidate mix and is
//! bit-reproducible.
//!
//! A [`PaletteMix`] names a repeating pattern of per-chip
//! [`EngineConfig`]s (e.g. `[big, little]` alternates chips); a fleet of
//! `n` chips cycles the pattern. The [`SloTarget`] is a p95 TTFT bound
//! with an optional rejection-rate cap. The returned [`CapacityPlan`]
//! carries, per mix, the chosen fleet, its measured p95/rejections, the
//! SLO margin, per-chip utilization and KV peaks, and the full probe
//! ladder the search walked. The contract is verified by construction:
//! the chosen fleet's probe meets the SLO and the `chips − 1` probe
//! misses it (both probes are in the ladder), or the plan fails with
//! [`ServeError::InfeasibleSlo`] when even `max_chips` chips miss it.
//!
//! # Example
//!
//! ```
//! use meadow_core::capacity::{CapacityPlanner, PaletteMix, SloTarget};
//! use meadow_core::{EngineConfig, ServeConfig};
//! use meadow_models::presets;
//! use meadow_models::workload::ArrivalTrace;
//!
//! # fn main() -> Result<(), meadow_core::CoreError> {
//! let big = EngineConfig::zcu102(presets::tiny_decoder(), 12.0);
//! let trace = ArrivalTrace::uniform(24, 0.5, 24, 6);
//! let slo = SloTarget { p95_ttft_ms: 40.0, max_rejected_fraction: None };
//! let plan = CapacityPlanner::new(ServeConfig::default(), slo)
//!     .max_chips(8)
//!     .plan(&trace, &[PaletteMix::new("big", vec![big])])?;
//! let mix = &plan.plans[0];
//! assert!(mix.p95_ttft_ms <= 40.0);
//! # Ok(())
//! # }
//! ```

use crate::cluster::LeastLoadedWeighted;
use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::serve::{LatencySummary, ServeConfig, ServeError};
use crate::spec::ServeSpec;
use meadow_models::workload::ArrivalTrace;
use meadow_tensor::parallel::ExecConfig;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The service-level objective a fleet must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloTarget {
    /// 95th-percentile time-to-first-token bound across non-rejected
    /// requests, in ms.
    pub p95_ttft_ms: f64,
    /// Optional cap on the fraction of requests admission may shed
    /// (`None` = rejections don't fail the SLO).
    pub max_rejected_fraction: Option<f64>,
}

/// A named, repeating pattern of per-chip engine specs: chip `i` of a
/// fleet gets `pattern[i % pattern.len()]`, so `[big, little]` alternates
/// chip types as the fleet grows.
#[derive(Debug, Clone)]
pub struct PaletteMix {
    name: String,
    pattern: Vec<EngineConfig>,
}

impl PaletteMix {
    /// Names a palette mix over a repeating spec pattern.
    pub fn new(name: impl Into<String>, pattern: Vec<EngineConfig>) -> Self {
        Self { name: name.into(), pattern }
    }

    /// The mix's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The concrete fleet of `chips` chips: the pattern, cycled.
    pub fn fleet_of(&self, chips: usize) -> Vec<EngineConfig> {
        (0..chips).map(|i| self.pattern[i % self.pattern.len()].clone()).collect()
    }
}

/// Short human-readable description of one chip spec, used in plan
/// reports (the full [`EngineConfig`] is not serializable).
fn describe_spec(spec: &EngineConfig) -> String {
    format!("{}pe@{}gbps", spec.chip.total_pes(), spec.bandwidth_gbps)
}

/// One probed fleet size on the binary-search ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbePoint {
    /// Fleet size probed.
    pub chips: usize,
    /// Measured p95 TTFT across non-rejected requests, in ms.
    pub p95_ttft_ms: f64,
    /// Fraction of requests admission shed.
    pub rejected_fraction: f64,
    /// Whether this fleet met the SLO.
    pub meets_slo: bool,
}

/// The minimal fleet found for one palette mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixPlan {
    /// The mix's name.
    pub mix: String,
    /// Minimal fleet size that meets the SLO.
    pub chips: usize,
    /// The chosen fleet, chip by chip, as `<PEs>pe@<bandwidth>gbps` strings.
    pub fleet: Vec<String>,
    /// The chosen fleet's measured p95 TTFT, in ms.
    pub p95_ttft_ms: f64,
    /// The chosen fleet's rejected fraction.
    pub rejected_fraction: f64,
    /// SLO headroom: the p95 bound minus the measured p95, in ms
    /// (non-negative by construction).
    pub slo_margin_ms: f64,
    /// Per-chip busy fraction of the makespan on the chosen fleet.
    pub per_chip_utilization: Vec<f64>,
    /// Per-chip peak KV residency on the chosen fleet, in bytes.
    pub per_chip_peak_kv_bytes: Vec<u64>,
    /// Every fleet size the search probed, ascending — includes the
    /// chosen size (meets) and, when `chips > 1`, size `chips − 1`
    /// (misses), so the minimality contract is auditable from the report.
    pub probes: Vec<ProbePoint>,
}

/// A full capacity plan: the minimal fleet per candidate mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityPlan {
    /// The SLO's p95 TTFT bound, in ms.
    pub slo_p95_ttft_ms: f64,
    /// The SLO's rejection cap, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_rejected_fraction: Option<f64>,
    /// Requests in the planning workload.
    pub requests: usize,
    /// Largest fleet size the search may probe.
    pub max_chips: usize,
    /// One sizing result per candidate mix, in input order.
    pub plans: Vec<MixPlan>,
}

impl CapacityPlan {
    /// Pretty JSON for artifacts and golden snapshots.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors from the vendored serde_json.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// The planner: a per-chip [`ServeConfig`], an [`SloTarget`], and a
/// search bound — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct CapacityPlanner {
    serve: ServeConfig,
    slo: SloTarget,
    max_chips: usize,
    exec: ExecConfig,
}

impl CapacityPlanner {
    /// A planner probing fleets of up to 16 chips (see
    /// [`max_chips`](Self::max_chips)) with serial probe execution.
    pub fn new(serve: ServeConfig, slo: SloTarget) -> Self {
        Self { serve, slo, max_chips: 16, exec: ExecConfig::serial() }
    }

    /// Bounds the search: the largest fleet size a probe may try.
    pub fn max_chips(mut self, max_chips: usize) -> Self {
        self.max_chips = max_chips;
        self
    }

    /// Execution policy for the probe simulations — a performance knob
    /// only; plans are bit-identical for any thread count.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Sizes the minimal fleet per mix.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ZeroChips`] when `max_chips` is zero,
    /// [`ServeError::EmptyChipSpecs`] for a mix with an empty pattern,
    /// [`ServeError::InfeasibleSlo`] when even `max_chips` chips of a mix
    /// miss the SLO, and propagates spec-validation and simulation
    /// errors.
    pub fn plan(
        &self,
        trace: &ArrivalTrace,
        mixes: &[PaletteMix],
    ) -> Result<CapacityPlan, CoreError> {
        if self.max_chips == 0 {
            return Err(ServeError::ZeroChips.into());
        }
        let mut plans = Vec::with_capacity(mixes.len());
        for mix in mixes {
            plans.push(self.plan_mix(trace, mix)?);
        }
        Ok(CapacityPlan {
            slo_p95_ttft_ms: self.slo.p95_ttft_ms,
            max_rejected_fraction: self.slo.max_rejected_fraction,
            requests: trace.requests.len(),
            max_chips: self.max_chips,
            plans,
        })
    }

    /// Binary search over the fleet size of one mix, memoizing probes.
    fn plan_mix(&self, trace: &ArrivalTrace, mix: &PaletteMix) -> Result<MixPlan, CoreError> {
        if mix.pattern.is_empty() {
            return Err(ServeError::EmptyChipSpecs.into());
        }
        let mut probed: BTreeMap<usize, Probe> = BTreeMap::new();
        let probe =
            |chips: usize, probed: &mut BTreeMap<usize, Probe>| -> Result<Probe, CoreError> {
                if let Some(p) = probed.get(&chips) {
                    return Ok(p.clone());
                }
                let p = self.probe(trace, mix, chips)?;
                probed.insert(chips, p.clone());
                Ok(p)
            };

        // Feasibility first: if the largest allowed fleet misses the SLO,
        // no smaller one is worth searching — fail with the best evidence.
        let ceiling = probe(self.max_chips, &mut probed)?;
        if !ceiling.meets {
            return Err(ServeError::InfeasibleSlo {
                p95_ttft_ms: self.slo.p95_ttft_ms,
                max_chips: self.max_chips,
                best_p95_ms: ceiling.point.p95_ttft_ms,
            }
            .into());
        }

        // Binary search the meets/misses boundary, assuming monotonicity.
        let (mut lo, mut hi) = (1usize, self.max_chips);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(mid, &mut probed)?.meets {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let mut chips = lo;

        // Verify the minimality contract by direct probes rather than
        // trusting monotonicity: the chosen size must meet, and size − 1
        // must miss. Walk if a probe disagrees, so the returned plan
        // holds by construction.
        while !probe(chips, &mut probed)?.meets && chips < self.max_chips {
            chips += 1;
        }
        while chips > 1 && probe(chips - 1, &mut probed)?.meets {
            chips -= 1;
        }
        let chosen = probe(chips, &mut probed)?;

        let fleet = mix.fleet_of(chips);
        Ok(MixPlan {
            mix: mix.name.clone(),
            chips,
            fleet: fleet.iter().map(describe_spec).collect(),
            p95_ttft_ms: chosen.point.p95_ttft_ms,
            rejected_fraction: chosen.point.rejected_fraction,
            slo_margin_ms: self.slo.p95_ttft_ms - chosen.point.p95_ttft_ms,
            per_chip_utilization: chosen.utilization,
            per_chip_peak_kv_bytes: chosen.peak_kv,
            probes: probed.into_values().map(|p| p.point).collect(),
        })
    }

    /// One probe: a deterministic cluster simulation of `chips` chips of
    /// the mix under weighted placement.
    fn probe(
        &self,
        trace: &ArrivalTrace,
        mix: &PaletteMix,
        chips: usize,
    ) -> Result<Probe, CoreError> {
        let spec = ServeSpec::builder()
            .chip_specs(mix.fleet_of(chips))
            .config(self.serve)
            .placement(LeastLoadedWeighted)
            .build()?;
        // The first chip's engine, built with the spec, supplies the run's
        // thread budget.
        let engines = spec.chip_engines().expect("a chip_specs spec carries its engines");
        let engine = engines[0].clone().with_exec(self.exec);
        let report =
            spec.run(&engine, trace)?.into_cluster().expect("placement selects cluster mode");

        let ttfts: Vec<f64> = report
            .per_chip
            .iter()
            .flat_map(|c| c.report.traces.iter())
            .filter(|t| !t.rejected)
            .map(|t| t.ttft_ms())
            .collect();
        let p95 = LatencySummary::from_samples(ttfts).p95_ms;
        let rejected_fraction = if report.requests > 0 {
            report.rejected_requests as f64 / report.requests as f64
        } else {
            0.0
        };
        let meets = p95 <= self.slo.p95_ttft_ms
            && self.slo.max_rejected_fraction.is_none_or(|cap| rejected_fraction <= cap);
        Ok(Probe {
            point: ProbePoint { chips, p95_ttft_ms: p95, rejected_fraction, meets_slo: meets },
            meets,
            utilization: report.per_chip.iter().map(|c| c.utilization.unwrap_or(0.0)).collect(),
            peak_kv: report.per_chip.iter().map(|c| c.report.peak_kv_bytes).collect(),
        })
    }
}

/// Memoized result of one probe.
#[derive(Debug, Clone)]
struct Probe {
    point: ProbePoint,
    meets: bool,
    utilization: Vec<f64>,
    peak_kv: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;

    fn big() -> EngineConfig {
        EngineConfig::zcu102(presets::tiny_decoder(), 12.0)
    }

    #[test]
    fn plan_meets_and_minus_one_misses() {
        let trace = ArrivalTrace::uniform(32, 0.25, 24, 8);
        let slo = SloTarget { p95_ttft_ms: 30.0, max_rejected_fraction: None };
        let plan = CapacityPlanner::new(ServeConfig::default().with_max_batch(2), slo)
            .max_chips(8)
            .plan(&trace, &[PaletteMix::new("big", vec![big()])])
            .unwrap();
        let mix = &plan.plans[0];
        assert!(mix.p95_ttft_ms <= 30.0);
        assert!(mix.slo_margin_ms >= 0.0);
        let chosen = mix.probes.iter().find(|p| p.chips == mix.chips).unwrap();
        assert!(chosen.meets_slo);
        if mix.chips > 1 {
            let below = mix.probes.iter().find(|p| p.chips == mix.chips - 1).unwrap();
            assert!(!below.meets_slo);
        }
        assert_eq!(mix.fleet.len(), mix.chips);
        assert_eq!(mix.per_chip_utilization.len(), mix.chips);
    }

    #[test]
    fn infeasible_slo_is_a_typed_error() {
        let trace = ArrivalTrace::uniform(16, 0.0, 32, 8);
        let slo = SloTarget { p95_ttft_ms: 1e-6, max_rejected_fraction: None };
        let err = CapacityPlanner::new(ServeConfig::default(), slo)
            .max_chips(2)
            .plan(&trace, &[PaletteMix::new("big", vec![big()])])
            .unwrap_err();
        match err {
            CoreError::Serve(ServeError::InfeasibleSlo { max_chips, .. }) => {
                assert_eq!(max_chips, 2);
            }
            other => panic!("expected InfeasibleSlo, got {other:?}"),
        }
    }

    #[test]
    fn empty_pattern_is_rejected() {
        let trace = ArrivalTrace::uniform(4, 0.0, 16, 4);
        let slo = SloTarget { p95_ttft_ms: 100.0, max_rejected_fraction: None };
        let err = CapacityPlanner::new(ServeConfig::default(), slo)
            .plan(&trace, &[PaletteMix::new("empty", vec![])])
            .unwrap_err();
        assert!(matches!(err, CoreError::Serve(ServeError::EmptyChipSpecs)));
    }

    #[test]
    fn plans_are_deterministic() {
        let trace = ArrivalTrace::uniform(16, 0.5, 24, 6);
        let slo = SloTarget { p95_ttft_ms: 50.0, max_rejected_fraction: Some(0.5) };
        let planner = CapacityPlanner::new(ServeConfig::default(), slo).max_chips(4);
        let mixes = [PaletteMix::new("big", vec![big()])];
        let a = planner.plan(&trace, &mixes).unwrap();
        let b = planner.plan(&trace, &mixes).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }
}
