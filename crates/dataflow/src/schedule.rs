//! Whole-layer schedules: assembling decoder layers from GEMM-mode ops and
//! the TPHS fused block under an [`ExecutionPlan`].
//!
//! The op sequence mirrors the paper's decoder (Fig. 1a): LN → Q/K/V →
//! QKᵀ → SM → SM·V → Proj → LN → MLP1 → NL → MLP2. Under the MEADOW plan
//! the `Q + SM(QKᵀ)·V` chain is replaced by the fused TPHS block while
//! K, V, Proj and the MLP stay in GEMM mode (§6.1, "MEADOW operation
//! modes"), and all weights may be packed.

use crate::breakdown::LayerLatency;
use crate::error::DataflowError;
use crate::gemm::{gemm_op_latency, ComputeSpec, GemmOpSpec, PackedWeightTransfer, WeightFetch};
use crate::tphs::{tphs_attention_latency, TphsParams};
use meadow_models::weights::{MatrixPackingStats, ModelPackingStats};
use meadow_models::{MatrixKind, TransformerConfig};
use meadow_packing::{PackingConfig, PackingLevel};
use meadow_sim::{ChipConfig, DramModel, TrafficClass};
use serde::{Deserialize, Serialize};

/// Dataflow used for the `Q + SM(QKᵀ)·V` layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttentionDataflow {
    /// Everything in GEMM mode (the baseline and all prior works, Table 2).
    Gemm,
    /// The TPHS pipelined dataflow (MEADOW).
    Tphs,
}

/// How a model executes on the chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Dataflow for the attention chain.
    pub attention: AttentionDataflow,
    /// Weight packing level (`None` = raw weights).
    pub packing: Option<PackingLevel>,
}

impl ExecutionPlan {
    /// The paper's GEMM baseline: all layers GEMM, no packing.
    pub fn gemm_baseline() -> Self {
        Self { attention: AttentionDataflow::Gemm, packing: None }
    }

    /// Full MEADOW: TPHS attention + frequency-aware weight packing.
    pub fn meadow() -> Self {
        Self { attention: AttentionDataflow::Tphs, packing: Some(PackingLevel::FrequencyAware) }
    }
}

/// Behavioral knobs used to model the prior-work baselines of Table 2 on
/// the same schedule machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleKnobs {
    /// CTA-style token compression: the attention chain processes only this
    /// fraction of tokens/context (1.0 = no compression).
    pub attention_token_scale: f64,
    /// FlightLLM-style N:M sparsity: compute of weight-bearing matmuls is
    /// scaled by this factor (1.0 = dense).
    pub weight_compute_scale: f64,
    /// FlightLLM decode optimization: attention intermediates stay on chip
    /// during single-token decode (no DRAM round trips for Q/scores/SM).
    pub onchip_decode_intermediates: bool,
}

impl Default for ScheduleKnobs {
    fn default() -> Self {
        Self {
            attention_token_scale: 1.0,
            weight_compute_scale: 1.0,
            onchip_decode_intermediates: false,
        }
    }
}

/// Everything needed to schedule one layer.
#[derive(Debug, Clone, Copy)]
pub struct LayerParams<'a> {
    /// Model architecture.
    pub config: &'a TransformerConfig,
    /// Layer index (selects per-layer packing statistics).
    pub layer: usize,
    /// Tokens processed this step (prefill: prompt length; decode: 1).
    pub tokens_new: usize,
    /// Context length (keys/values visible).
    pub context: usize,
    /// Model packing statistics, when the plan packs weights.
    pub packing_stats: Option<&'a ModelPackingStats>,
    /// Packing configuration (payload width) used to derive MAU throughput.
    pub packing_config: PackingConfig,
    /// Baseline-modeling knobs (identity for GEMM and MEADOW).
    pub knobs: ScheduleKnobs,
}

/// Converts a matrix's sampled packing statistics into a [`WeightFetch`].
fn weight_fetch_from_stats(
    stats: &MatrixPackingStats,
    level: PackingLevel,
    packing_config: &PackingConfig,
) -> WeightFetch {
    WeightFetch {
        raw_bytes: stats.raw_bytes,
        packed: Some(PackedWeightTransfer {
            transfer_bytes: stats.transfer_bytes,
            packet_bits: level.packet_bits(stats.max_id_bits, packing_config),
            total_ids: stats.raw_bytes / packing_config.chunk.chunk_elems.max(1) as u64,
        }),
    }
}

fn weight_fetch(plan: &ExecutionPlan, params: &LayerParams<'_>, kind: MatrixKind) -> WeightFetch {
    let raw = params.config.matrix_bytes(kind);
    match (plan.packing, params.packing_stats) {
        (Some(level), Some(stats)) => match stats.matrix(params.layer, kind) {
            Some(m) => weight_fetch_from_stats(m, level, &params.packing_config),
            None => WeightFetch::raw(raw),
        },
        _ => WeightFetch::raw(raw),
    }
}

/// Scales compute by the N:M sparsity factor.
fn sparse_macs(macs: u64, scale: f64) -> ComputeSpec {
    ComputeSpec::Macs(((macs as f64) * scale.clamp(0.0, 1.0)).round() as u64)
}

/// Builds the GEMM-mode op list for the attention chain
/// (`Q, QKᵀ, SM, SM·V`), honoring the baseline knobs.
fn gemm_attention_ops(plan: &ExecutionPlan, params: &LayerParams<'_>) -> Vec<GemmOpSpec> {
    let c = params.config;
    let knobs = params.knobs;
    let token_scale = knobs.attention_token_scale.clamp(0.0, 1.0);
    let t = ((params.tokens_new as f64 * token_scale).round() as u64).max(1);
    let ctx = ((params.context as f64 * token_scale).round() as u64).max(1);
    let d = c.d_model as u64;
    let h = c.heads as u64;
    let scores = h * t * ctx;
    // FlightLLM keeps single-token decode intermediates on chip.
    let onchip = knobs.onchip_decode_intermediates && params.tokens_new == 1;
    let inter = |bytes: u64| if onchip { 0 } else { bytes };
    vec![
        GemmOpSpec {
            name: "Q".into(),
            weight: Some(weight_fetch(plan, params, MatrixKind::Query)),
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::IntermediateStore, inter(t * d))],
            compute: sparse_macs(t * d * d, knobs.weight_compute_scale),
        },
        GemmOpSpec {
            name: "QKT".into(),
            weight: None,
            inputs: vec![
                (TrafficClass::IntermediateFetch, inter(t * d)),
                (TrafficClass::KvFetch, ctx * d),
            ],
            stores: vec![(TrafficClass::IntermediateStore, inter(scores))],
            compute: ComputeSpec::Macs(t * ctx * d),
        },
        GemmOpSpec {
            name: "SM".into(),
            weight: None,
            inputs: vec![(TrafficClass::IntermediateFetch, inter(scores))],
            stores: vec![(TrafficClass::IntermediateStore, inter(scores))],
            compute: ComputeSpec::Softmax { rows: (h * t) as usize, features: ctx as usize },
        },
        GemmOpSpec {
            name: "SMxV".into(),
            weight: None,
            inputs: vec![
                (TrafficClass::IntermediateFetch, inter(scores)),
                (TrafficClass::KvFetch, ctx * d),
            ],
            stores: vec![(TrafficClass::IntermediateStore, t * d)],
            compute: ComputeSpec::Macs(t * ctx * d),
        },
    ]
}

/// Ops shared by both plans before the attention chain (LN1, K, V).
fn pre_attention_ops(plan: &ExecutionPlan, params: &LayerParams<'_>) -> Vec<GemmOpSpec> {
    let c = params.config;
    let t = params.tokens_new as u64;
    let d = c.d_model as u64;
    vec![
        GemmOpSpec {
            name: "LN1".into(),
            weight: None,
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::IntermediateStore, t * d)],
            compute: ComputeSpec::LayerNorm { tokens: params.tokens_new, features: c.d_model },
        },
        GemmOpSpec {
            name: "K".into(),
            weight: Some(weight_fetch(plan, params, MatrixKind::Key)),
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::KvStore, t * d)],
            compute: sparse_macs(t * d * d, params.knobs.weight_compute_scale),
        },
        GemmOpSpec {
            name: "V".into(),
            weight: Some(weight_fetch(plan, params, MatrixKind::Value)),
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::KvStore, t * d)],
            compute: sparse_macs(t * d * d, params.knobs.weight_compute_scale),
        },
    ]
}

/// Ops shared by both plans after the attention chain (Proj, LN2, MLP).
fn post_attention_ops(plan: &ExecutionPlan, params: &LayerParams<'_>) -> Vec<GemmOpSpec> {
    let c = params.config;
    let t = params.tokens_new as u64;
    let d = c.d_model as u64;
    let f = c.ffn_dim as u64;
    vec![
        GemmOpSpec {
            name: "Proj".into(),
            weight: Some(weight_fetch(plan, params, MatrixKind::Proj)),
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::IntermediateStore, t * d)],
            compute: sparse_macs(t * d * d, params.knobs.weight_compute_scale),
        },
        GemmOpSpec {
            name: "LN2".into(),
            weight: None,
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::IntermediateStore, t * d)],
            compute: ComputeSpec::LayerNorm { tokens: params.tokens_new, features: c.d_model },
        },
        GemmOpSpec {
            name: "MLP1".into(),
            weight: Some(weight_fetch(plan, params, MatrixKind::MlpUp)),
            inputs: vec![(TrafficClass::IntermediateFetch, t * d)],
            stores: vec![(TrafficClass::IntermediateStore, t * f)],
            compute: sparse_macs(t * d * f, params.knobs.weight_compute_scale),
        },
        GemmOpSpec {
            name: "NL".into(),
            weight: None,
            inputs: vec![(TrafficClass::IntermediateFetch, t * f)],
            stores: vec![(TrafficClass::IntermediateStore, t * f)],
            compute: ComputeSpec::Nonlinear { tokens: params.tokens_new, features: c.ffn_dim },
        },
        GemmOpSpec {
            name: "MLP2".into(),
            weight: Some(weight_fetch(plan, params, MatrixKind::MlpDown)),
            inputs: vec![(TrafficClass::IntermediateFetch, t * f)],
            stores: vec![(TrafficClass::IntermediateStore, t * d)],
            compute: sparse_macs(t * f * d, params.knobs.weight_compute_scale),
        },
    ]
}

/// Schedules only the attention chain (`Q + SM(QKᵀ)·V`) under the plan's
/// dataflow — the unit the Fig. 12 dataflow planner compares.
///
/// # Errors
///
/// Propagates executor errors.
pub fn attention_block_latency(
    chip: &ChipConfig,
    dram: &mut DramModel,
    plan: &ExecutionPlan,
    params: &LayerParams<'_>,
) -> Result<LayerLatency, DataflowError> {
    let mut layer = LayerLatency::new();
    match plan.attention {
        AttentionDataflow::Gemm => {
            for spec in gemm_attention_ops(plan, params) {
                layer.push(gemm_op_latency(chip, dram, &spec)?);
            }
        }
        AttentionDataflow::Tphs => {
            let tphs = TphsParams {
                d_model: params.config.d_model,
                heads: params.config.heads,
                head_dim: params.config.head_dim(),
                tokens_new: params.tokens_new,
                context: params.context,
                wq: weight_fetch(plan, params, MatrixKind::Query),
            };
            layer.push(tphs_attention_latency(chip, dram, &tphs)?);
        }
    }
    Ok(layer)
}

/// Schedules one full decoder/encoder layer.
///
/// # Errors
///
/// Propagates executor errors.
pub fn layer_latency(
    chip: &ChipConfig,
    dram: &mut DramModel,
    plan: &ExecutionPlan,
    params: &LayerParams<'_>,
) -> Result<LayerLatency, DataflowError> {
    let mut layer = LayerLatency::new();
    for spec in pre_attention_ops(plan, params) {
        layer.push(gemm_op_latency(chip, dram, &spec)?);
    }
    layer.extend(attention_block_latency(chip, dram, plan, params)?);
    for spec in post_attention_ops(plan, params) {
        layer.push(gemm_op_latency(chip, dram, &spec)?);
    }
    Ok(layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;
    use meadow_models::weights::{matrix_packing_stats, LayerWeights};
    use meadow_packing::PackedWeights;
    use meadow_sim::ClockDomain;

    fn dram(gbps: f64) -> DramModel {
        DramModel::with_bandwidth(gbps, ClockDomain::zcu102()).unwrap()
    }

    fn params(config: &TransformerConfig, t: usize, c: usize) -> LayerParams<'_> {
        LayerParams {
            config,
            layer: 0,
            tokens_new: t,
            context: c,
            packing_stats: None,
            packing_config: PackingConfig::default(),
            knobs: ScheduleKnobs::default(),
        }
    }

    #[test]
    fn gemm_layer_has_twelve_ops() {
        let cfg = presets::opt_125m();
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let layer =
            layer_latency(&chip, &mut d, &ExecutionPlan::gemm_baseline(), &params(&cfg, 512, 512))
                .unwrap();
        let names: Vec<&str> = layer.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            ["LN1", "K", "V", "Q", "QKT", "SM", "SMxV", "Proj", "LN2", "MLP1", "NL", "MLP2"]
        );
    }

    #[test]
    fn meadow_layer_fuses_attention() {
        let cfg = presets::opt_125m();
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let plan = ExecutionPlan { attention: AttentionDataflow::Tphs, packing: None };
        let layer = layer_latency(&chip, &mut d, &plan, &params(&cfg, 512, 512)).unwrap();
        let names: Vec<&str> = layer.ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["LN1", "K", "V", "TPHS", "Proj", "LN2", "MLP1", "NL", "MLP2"]);
    }

    #[test]
    fn tphs_beats_gemm_at_low_bandwidth_prefill() {
        let cfg = presets::opt_125m();
        let chip = ChipConfig::zcu102();
        let mut d1 = dram(1.0);
        let mut d2 = dram(1.0);
        let gemm =
            layer_latency(&chip, &mut d1, &ExecutionPlan::gemm_baseline(), &params(&cfg, 512, 512))
                .unwrap();
        let plan = ExecutionPlan { attention: AttentionDataflow::Tphs, packing: None };
        let tphs = layer_latency(&chip, &mut d2, &plan, &params(&cfg, 512, 512)).unwrap();
        assert!(
            tphs.makespan() < gemm.makespan(),
            "TPHS {} !< GEMM {}",
            tphs.makespan(),
            gemm.makespan()
        );
    }

    #[test]
    fn intermediate_traffic_dominates_gemm_prefill_scores() {
        let cfg = presets::opt_125m();
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        layer_latency(&chip, &mut d, &ExecutionPlan::gemm_baseline(), &params(&cfg, 512, 512))
            .unwrap();
        let scores = 12u64 * 512 * 512;
        // QKT store + SM fetch + SM store + SMxV fetch = 4 score volumes,
        // plus smaller activations.
        assert!(d.ledger().bytes(TrafficClass::IntermediateStore) >= 2 * scores);
        assert!(d.ledger().bytes(TrafficClass::IntermediateFetch) >= 2 * scores);
    }

    #[test]
    fn decode_is_weight_fetch_dominated() {
        let cfg = presets::opt_125m();
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let layer =
            layer_latency(&chip, &mut d, &ExecutionPlan::gemm_baseline(), &params(&cfg, 1, 575))
                .unwrap();
        let weight_cycles = d.ledger().cycles(TrafficClass::WeightFetch);
        assert!(
            weight_cycles.get() as f64 > 0.7 * layer.makespan().get() as f64,
            "weights {} of {}",
            weight_cycles,
            layer.makespan()
        );
        assert!(layer.compute() < layer.fetch());
    }

    #[test]
    fn attention_block_is_a_subset_of_the_layer() {
        let cfg = presets::opt_125m();
        let chip = ChipConfig::zcu102();
        let mut d1 = dram(6.0);
        let mut d2 = dram(6.0);
        let plan = ExecutionPlan::gemm_baseline();
        let block =
            attention_block_latency(&chip, &mut d1, &plan, &params(&cfg, 256, 256)).unwrap();
        let layer = layer_latency(&chip, &mut d2, &plan, &params(&cfg, 256, 256)).unwrap();
        assert!(block.makespan() < layer.makespan());
        assert_eq!(block.ops.len(), 4);
    }

    #[test]
    fn latency_model_prices_the_written_packet_width() {
        // The MAU charge counts packets as wide as the ones the writer
        // emits for the same matrix, at every level.
        let cfg = presets::tiny_decoder();
        let packing = PackingConfig::default();
        let weights = LayerWeights::synthesize(&cfg, 0).unwrap();
        for level in PackingLevel::all() {
            for kind in MatrixKind::all() {
                let stats =
                    matrix_packing_stats(&cfg, kind, 0, &packing, level, usize::MAX).unwrap();
                let written = PackedWeights::pack(weights.matrix(kind), &packing, level).unwrap();
                assert_eq!(stats.max_id_bits, written.meta().max_id_bits, "{kind:?} at {level:?}");
                let fetch = weight_fetch_from_stats(&stats, level, &packing);
                assert_eq!(
                    fetch.packed.map(|p| p.packet_bits),
                    Some(written.meta().packet_bits()),
                    "{kind:?} at {level:?}"
                );
            }
        }
    }
}
