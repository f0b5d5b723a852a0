//! The MEADOW engine: TTFT / TBT / end-to-end latency measurement.

use crate::error::CoreError;
use meadow_dataflow::schedule::ScheduleKnobs;
use meadow_dataflow::{ExecutionPlan, LayerLatency};
use meadow_models::weights::ModelPackingStats;
use meadow_models::workload::{DecodeWorkload, PrefillWorkload};
use meadow_models::{MatrixKind, ModelKind, TransformerConfig};
use meadow_packing::PackingConfig;
use meadow_sim::energy::{ActivityCounts, EnergyModel, PowerReport};
use meadow_sim::{ChipConfig, ClockDomain, Cycles, DramModel, TrafficLedger};
use meadow_tensor::parallel::ExecConfig;
use serde::{Deserialize, Serialize};

/// Full configuration of one engine instance.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Accelerator tile description.
    pub chip: ChipConfig,
    /// Model architecture.
    pub model: TransformerConfig,
    /// Off-chip DRAM bandwidth in Gbps.
    pub bandwidth_gbps: f64,
    /// Execution plan (dataflow + packing level).
    pub plan: ExecutionPlan,
    /// Packing configuration.
    pub packing_config: PackingConfig,
    /// Baseline-modeling knobs (identity for GEMM and MEADOW).
    pub knobs: ScheduleKnobs,
    /// Host-side execution policy for the engine's parallel work —
    /// currently the per-matrix fan-out of
    /// [`MeadowEngine::verify_lossless`]. Serial by default; callers that
    /// want `MEADOW_THREADS` behaviour pass
    /// [`ExecConfig::from_env`] via [`EngineConfig::with_exec`].
    pub exec: ExecConfig,
}

impl EngineConfig {
    /// Full MEADOW on the ZCU102 at the given bandwidth.
    pub fn zcu102(model: TransformerConfig, bandwidth_gbps: f64) -> Self {
        Self {
            chip: ChipConfig::zcu102(),
            model,
            bandwidth_gbps,
            plan: ExecutionPlan::meadow(),
            packing_config: PackingConfig::default(),
            knobs: ScheduleKnobs::default(),
            exec: ExecConfig::serial(),
        }
    }

    /// Full MEADOW on the LITTLE sibling of the big/LITTLE palette
    /// ([`ChipConfig::zcu102_little`]: half the ZCU102's PEs) — the slow
    /// chip of the heterogeneous-cluster artifacts.
    pub fn zcu102_little(model: TransformerConfig, bandwidth_gbps: f64) -> Self {
        Self { chip: ChipConfig::zcu102_little(), ..Self::zcu102(model, bandwidth_gbps) }
    }

    /// Returns the same configuration with a different execution policy.
    pub fn with_exec(self, exec: ExecConfig) -> Self {
        Self { exec, ..self }
    }

    /// The paper's GEMM baseline on the ZCU102.
    pub fn gemm_baseline(model: TransformerConfig, bandwidth_gbps: f64) -> Self {
        Self { plan: ExecutionPlan::gemm_baseline(), ..Self::zcu102(model, bandwidth_gbps) }
    }
}

/// Latency measurement of one prefill or decode step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Total wall-clock cycles.
    pub cycles: Cycles,
    /// Clock domain for time conversion.
    pub clock: ClockDomain,
    /// Per-layer latencies with op breakdowns.
    pub layers: Vec<LayerLatency>,
    /// DRAM traffic ledger for the whole measurement.
    pub ledger: TrafficLedger,
}

impl LatencyReport {
    /// Total latency in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.clock.to_ms(self.cycles)
    }

    /// Component totals across all layers (fetch, compute, store).
    pub fn components(&self) -> (Cycles, Cycles, Cycles) {
        (
            self.layers.iter().map(LayerLatency::fetch).sum(),
            self.layers.iter().map(LayerLatency::compute).sum(),
            self.layers.iter().map(LayerLatency::store).sum(),
        )
    }
}

/// End-to-end latency (TTFT + all TBTs) of a full generation request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EndToEndReport {
    /// Time to first token in milliseconds.
    pub ttft_ms: f64,
    /// Total decode time in milliseconds.
    pub decode_ms: f64,
    /// Number of generated tokens.
    pub generated_tokens: usize,
    /// Total request latency in milliseconds.
    pub total_ms: f64,
}

/// What one step's latency depends on: the tokens it processes and the KV
/// context they attend over. A prefill of `p` tokens is `(p, p)`; the
/// `i`-th decode step after a `p`-token prompt is `(1, p + i - 1)` (§6.1),
/// so every decode step with the same context measures the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct StepShape {
    pub(crate) tokens_new: usize,
    pub(crate) context: usize,
}

/// The checks every engine constructor makes of its configuration.
fn validate_config(config: &EngineConfig) -> Result<(), CoreError> {
    if !config.bandwidth_gbps.is_finite() || config.bandwidth_gbps <= 0.0 {
        return Err(CoreError::InvalidConfig {
            param: "bandwidth_gbps",
            reason: format!("must be finite and positive, got {}", config.bandwidth_gbps),
        });
    }
    config.chip.validate()?;
    config.model.validate()?;
    Ok(())
}

/// Checks injected statistics against what the engine reads of them: the
/// plan's packing level, and one entry per `(layer, kind)` of the model
/// with that matrix's raw size. Without the check, another level's sizes
/// would price the plan, and a missing matrix would silently fetch raw.
fn check_stats_fit(
    config: &EngineConfig,
    stats: Option<&ModelPackingStats>,
) -> Result<(), CoreError> {
    let unfit = |reason: String| CoreError::InvalidConfig { param: "packing_stats", reason };
    let stats = match (config.plan.packing, stats) {
        (None, None) => return Ok(()),
        (Some(_), None) => {
            return Err(unfit("plan packs weights but no statistics were provided".into()))
        }
        (plan, Some(stats)) if plan != Some(stats.level) => {
            return Err(unfit(format!(
                "statistics at {:?} for a plan packing at {plan:?}",
                stats.level
            )))
        }
        (_, Some(stats)) => stats,
    };
    let model = &config.model;
    let kinds = MatrixKind::all();
    for layer in 0..model.layers {
        for kind in kinds {
            let raw = model.matrix_bytes(kind);
            if stats.matrix(layer, kind).is_none_or(|m| m.raw_bytes != raw) {
                return Err(unfit(format!(
                    "no statistics for {} layer {layer} {kind:?} of {raw} bytes",
                    model.name
                )));
            }
        }
    }
    if stats.iter().count() != model.layers * kinds.len() {
        return Err(unfit(format!("statistics cover matrices {} does not have", model.name)));
    }
    Ok(())
}

/// The patch tokens of a vision transformer, or the error every ViT-only
/// measurement returns for a decoder LM.
pub(crate) fn vit_tokens(model: &TransformerConfig) -> Result<usize, CoreError> {
    match model.kind {
        ModelKind::VisionTransformer { tokens } => Ok(tokens),
        ModelKind::DecoderLm => Err(CoreError::InvalidConfig {
            param: "model",
            reason: "vit_inference_latency requires a vision transformer".into(),
        }),
    }
}

/// The MEADOW engine.
///
/// Construction precomputes per-matrix packing statistics when the plan
/// packs weights; measurements are then pure functions of the step shape
/// (tokens processed, context attended over).
///
/// # Example
///
/// ```
/// use meadow_core::{EngineConfig, MeadowEngine};
/// use meadow_models::presets;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0))?;
/// let ttft = engine.prefill_latency(16)?;
/// assert!(ttft.total_ms() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MeadowEngine {
    config: EngineConfig,
    packing_stats: Option<ModelPackingStats>,
}

impl MeadowEngine {
    /// Builds an engine, validating the configuration and precomputing
    /// packing statistics if the plan packs weights.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid bandwidth and
    /// propagates model/packing errors.
    pub fn new(config: EngineConfig) -> Result<Self, CoreError> {
        validate_config(&config)?;
        let packing_stats = match config.plan.packing {
            Some(level) => {
                Some(ModelPackingStats::compute(&config.model, &config.packing_config, level)?)
            }
            None => None,
        };
        Ok(Self { config, packing_stats })
    }

    /// Builds an engine with precomputed packing statistics (sweep harnesses
    /// reuse one statistics computation across many bandwidth points).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on invalid bandwidth, or when
    /// `stats` do not fit the plan: statistics for a plan that packs no
    /// weights, none for one that does, statistics at another packing
    /// level, or statistics that do not cover exactly the model's matrices
    /// at their raw sizes.
    pub fn with_packing_stats(
        config: EngineConfig,
        stats: Option<ModelPackingStats>,
    ) -> Result<Self, CoreError> {
        validate_config(&config)?;
        check_stats_fit(&config, stats.as_ref())?;
        Ok(Self { config, packing_stats: stats })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The same engine with a different host-side execution policy —
    /// measurements are bit-identical for any thread count, so this only
    /// changes how the engine's internal fan-outs are scheduled (the
    /// cluster layer uses it to split one thread budget among chips).
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.config.exec = exec;
        self
    }

    /// Precomputed packing statistics, if the plan packs weights.
    pub fn packing_stats(&self) -> Option<&ModelPackingStats> {
        self.packing_stats.as_ref()
    }

    /// Verifies whole-model pack→unpack bit-exactness on this engine's
    /// model and packing configuration, using the engine's execution policy
    /// ([`EngineConfig::exec`]) to fan the per-matrix checks out across
    /// worker threads.
    ///
    /// # Errors
    ///
    /// Propagates generation and packing errors.
    pub fn verify_lossless(
        &self,
        max_rows: usize,
    ) -> Result<crate::accuracy::LosslessReport, CoreError> {
        crate::accuracy::verify_model_lossless_with(
            &self.config.model,
            &self.config.packing_config,
            max_rows,
            &self.config.exec,
        )
    }

    /// A fresh DRAM channel at this engine's bandwidth and clock (the serve
    /// simulator charges KV-cache migration traffic on its own channel).
    pub(crate) fn fresh_dram(&self) -> Result<DramModel, CoreError> {
        DramModel::with_bandwidth(self.config.bandwidth_gbps, self.config.chip.clock)
            .map_err(CoreError::from)
    }

    /// The shape of a prefill pass over `prompt_tokens`, validated as
    /// [`prefill_latency`](Self::prefill_latency) validates it.
    pub(crate) fn prefill_shape(&self, prompt_tokens: usize) -> Result<StepShape, CoreError> {
        let w = PrefillWorkload::new(&self.config.model, prompt_tokens)?;
        Ok(StepShape { tokens_new: w.prompt_tokens, context: w.prompt_tokens })
    }

    /// The shape of the `token_index`-th decode step after
    /// `prefill_tokens` of prompt, validated as
    /// [`decode_latency`](Self::decode_latency) validates it.
    pub(crate) fn decode_shape(
        &self,
        prefill_tokens: usize,
        token_index: usize,
    ) -> Result<StepShape, CoreError> {
        let w = DecodeWorkload::new(&self.config.model, prefill_tokens, token_index)?;
        Ok(StepShape { tokens_new: 1, context: w.context_len() })
    }

    /// Measures one step. Every call builds a fresh DRAM channel, so the
    /// result is a pure function of `shape`.
    pub(crate) fn measure(&self, shape: StepShape) -> Result<LatencyReport, CoreError> {
        use meadow_dataflow::schedule::{layer_latency, LayerParams};
        let StepShape { tokens_new, context } = shape;
        let mut dram = self.fresh_dram()?;
        let layers: Vec<LayerLatency> = (0..self.config.model.layers)
            .map(|layer| {
                let params = LayerParams {
                    config: &self.config.model,
                    layer,
                    tokens_new,
                    context,
                    packing_stats: self.packing_stats.as_ref(),
                    packing_config: self.config.packing_config,
                    knobs: self.config.knobs,
                };
                layer_latency(&self.config.chip, &mut dram, &self.config.plan, &params)
                    .map_err(CoreError::from)
            })
            .collect::<Result<_, _>>()?;
        let cycles = layers.iter().map(LayerLatency::makespan).sum();
        Ok(LatencyReport {
            cycles,
            clock: self.config.chip.clock,
            layers,
            ledger: dram.ledger().clone(),
        })
    }

    /// Time to first token: the full prompt processed in one prefill pass.
    ///
    /// # Errors
    ///
    /// Propagates workload validation and executor errors.
    pub fn prefill_latency(&self, prompt_tokens: usize) -> Result<LatencyReport, CoreError> {
        self.measure(self.prefill_shape(prompt_tokens)?)
    }

    /// Time between tokens: predicting the `token_index`-th generated token
    /// after `prefill_tokens` of prompt (§6.1).
    ///
    /// # Errors
    ///
    /// Propagates workload validation and executor errors; vision
    /// transformers reject decode workloads.
    pub fn decode_latency(
        &self,
        prefill_tokens: usize,
        token_index: usize,
    ) -> Result<LatencyReport, CoreError> {
        self.measure(self.decode_shape(prefill_tokens, token_index)?)
    }

    /// Single-pass inference latency for a vision transformer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for decoder-LM configs.
    pub fn vit_inference_latency(&self) -> Result<LatencyReport, CoreError> {
        let tokens = vit_tokens(&self.config.model)?;
        self.measure(StepShape { tokens_new: tokens, context: tokens })
    }

    /// End-to-end latency of a generation request: one prefill plus
    /// `generated_tokens` decode steps. TBT grows linearly in the context
    /// length, so the decode total is integrated from the first and last
    /// step's TBT (trapezoid rule — exact for a linear model).
    ///
    /// # Errors
    ///
    /// Propagates workload validation and executor errors.
    pub fn end_to_end_latency(
        &self,
        prompt_tokens: usize,
        generated_tokens: usize,
    ) -> Result<EndToEndReport, CoreError> {
        if generated_tokens == 0 {
            return Err(CoreError::InvalidConfig {
                param: "generated_tokens",
                reason: "must generate at least one token".into(),
            });
        }
        let ttft = self.prefill_latency(prompt_tokens)?;
        let first = self.decode_latency(prompt_tokens, 1)?;
        let last = self.decode_latency(prompt_tokens, generated_tokens)?;
        let decode_ms = (first.total_ms() + last.total_ms()) / 2.0 * generated_tokens as f64;
        Ok(EndToEndReport {
            ttft_ms: ttft.total_ms(),
            decode_ms,
            generated_tokens,
            total_ms: ttft.total_ms() + decode_ms,
        })
    }

    /// Average-power report for a measurement, combining the DRAM ledger
    /// with the model's MAC count (BRAM/NoC traffic estimated as twice the
    /// DRAM volume: every transferred byte crosses a BRAM and the NoC once
    /// on each side).
    pub fn power_report(
        &self,
        report: &LatencyReport,
        tokens_new: usize,
        context: usize,
    ) -> PowerReport {
        let dram_bytes = report.ledger.fetch_bytes() + report.ledger.store_bytes();
        let macs =
            self.config.model.layer_macs(tokens_new, context) * self.config.model.layers as u64;
        let activity = ActivityCounts {
            macs,
            dram_bytes,
            bram_bytes: 2 * dram_bytes,
            noc_bytes: 2 * dram_bytes,
        };
        EnergyModel::zcu102().report(activity, report.cycles, self.config.chip.clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;

    #[test]
    fn invalid_bandwidth_rejected() {
        assert!(MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 0.0)).is_err());
        assert!(MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), -2.0)).is_err());
        assert!(MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), f64::NAN)).is_err());
    }

    #[test]
    fn tiny_model_end_to_end() {
        let engine =
            MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
        let prefill = engine.prefill_latency(16).unwrap();
        assert!(prefill.total_ms() > 0.0);
        assert_eq!(prefill.layers.len(), 2);
        let decode = engine.decode_latency(16, 4).unwrap();
        assert!(decode.total_ms() > 0.0);
        assert!(decode.total_ms() < prefill.total_ms());
        let e2e = engine.end_to_end_latency(16, 8).unwrap();
        assert!(e2e.total_ms > e2e.ttft_ms);
        assert_eq!(e2e.generated_tokens, 8);
    }

    #[test]
    fn meadow_beats_gemm_on_opt125m_prefill() {
        let model = presets::opt_125m();
        let meadow = MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).unwrap();
        let gemm = MeadowEngine::new(EngineConfig::gemm_baseline(model, 12.0)).unwrap();
        let m = meadow.prefill_latency(512).unwrap();
        let g = gemm.prefill_latency(512).unwrap();
        let speedup = g.total_ms() / m.total_ms();
        assert!(speedup > 1.2, "prefill speedup {speedup}");
    }

    #[test]
    fn vit_path_works_and_decode_rejected() {
        let engine = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_vit(), 6.0)).unwrap();
        let lat = engine.vit_inference_latency().unwrap();
        assert!(lat.total_ms() > 0.0);
        assert!(engine.decode_latency(8, 1).is_err());
        let lm = MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 6.0)).unwrap();
        assert!(lm.vit_inference_latency().is_err());
    }

    #[test]
    fn lower_bandwidth_is_slower() {
        let model = presets::tiny_decoder();
        let fast = MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).unwrap();
        let slow = MeadowEngine::new(EngineConfig::zcu102(model, 1.0)).unwrap();
        let f = fast.prefill_latency(32).unwrap();
        let s = slow.prefill_latency(32).unwrap();
        assert!(s.cycles > f.cycles);
    }

    #[test]
    fn power_stays_under_ten_watts() {
        let model = presets::opt_125m();
        let engine = MeadowEngine::new(EngineConfig::zcu102(model, 12.0)).unwrap();
        let prefill = engine.prefill_latency(512).unwrap();
        let power = engine.power_report(&prefill, 512, 512);
        assert!(power.average_watts < 10.0, "power {}", power.average_watts);
        assert!(power.average_watts > 0.0);
    }

    #[test]
    fn components_sum_to_makespan_for_gemm() {
        let engine =
            MeadowEngine::new(EngineConfig::gemm_baseline(presets::tiny_decoder(), 12.0)).unwrap();
        let r = engine.prefill_latency(16).unwrap();
        let (f, c, s) = r.components();
        assert_eq!(f + c + s, r.cycles, "GEMM is fully sequential");
    }

    /// The serving step memo keys on [`StepShape`], which holds only if a
    /// decode step's whole report depends on `prompt + index` alone and a
    /// one-token prefill measures as the first decode step after a
    /// one-token prompt. Each `sum` is checked at prompts spread across
    /// its range.
    fn assert_steps_depend_only_on_shape(engine: &MeadowEngine, sums: &[usize]) {
        for &sum in sums {
            let reference = engine.decode_latency(1, sum - 1).unwrap();
            for prompt in [2, sum / 3, sum / 2, sum - 2, sum - 1] {
                if (1..sum).contains(&prompt) {
                    let report = engine.decode_latency(prompt, sum - prompt).unwrap();
                    assert_eq!(report, reference, "prompt {prompt}, index {}", sum - prompt);
                }
            }
        }
        assert_eq!(engine.prefill_latency(1).unwrap(), engine.decode_latency(1, 1).unwrap());
    }

    #[test]
    fn tiny_decoder_steps_depend_only_on_shape() {
        let engine =
            MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
        assert_steps_depend_only_on_shape(&engine, &[9, 33, 65]);
    }

    #[test]
    fn opt125m_steps_depend_only_on_shape() {
        let engine = MeadowEngine::new(EngineConfig::zcu102(presets::opt_125m(), 12.0)).unwrap();
        assert_steps_depend_only_on_shape(&engine, &[17, 130, 513, 2049]);
    }

    #[test]
    fn e2e_validation() {
        let engine =
            MeadowEngine::new(EngineConfig::zcu102(presets::tiny_decoder(), 12.0)).unwrap();
        assert!(engine.end_to_end_latency(16, 0).is_err());
    }
}
