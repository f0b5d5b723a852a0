//! The GEMM-vs-TPHS dataflow chooser over (bandwidth, PE-count) design
//! points (Fig. 12a of the paper).
//!
//! The planner compares the attention chain (`Q + SM(QKᵀ)·V`) under both
//! dataflows at each design point. Following the paper's design-space
//! analysis (whose companion Fig. 12b is a roofline plot), the GEMM side is
//! assessed at its *roofline* operating point — `max(memory time, compute
//! time)`, i.e. perfect double-buffered overlap — while TPHS is assessed
//! with its event-scheduled pipeline makespan. At high bandwidth the GEMM
//! array's full MAC parallelism wins; once the channel narrows, the
//! intermediate-tensor round trips sink GEMM and TPHS takes over.

use crate::error::CoreError;
use meadow_dataflow::schedule::{attention_block_latency, LayerParams, ScheduleKnobs};
use meadow_dataflow::{AttentionDataflow, ExecutionPlan};
use meadow_models::weights::ModelPackingStats;
use meadow_models::TransformerConfig;
use meadow_packing::{PackingConfig, PackingLevel};
use meadow_sim::{ChipConfig, Cycles, DramModel};
use serde::{Deserialize, Serialize};

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerEntry {
    /// Off-chip bandwidth in Gbps.
    pub bandwidth_gbps: f64,
    /// Total PE count of the scaled tile.
    pub total_pes: usize,
    /// Attention-chain latency under GEMM (roofline-overlapped), ms.
    pub gemm_ms: f64,
    /// Attention-chain latency under TPHS (pipeline makespan), ms.
    pub tphs_ms: f64,
    /// The chosen dataflow.
    pub best: AttentionDataflow,
}

impl PlannerEntry {
    /// Latency of the chosen dataflow in ms.
    pub fn best_ms(&self) -> f64 {
        match self.best {
            AttentionDataflow::Gemm => self.gemm_ms,
            AttentionDataflow::Tphs => self.tphs_ms,
        }
    }
}

/// Evaluates one (bandwidth, PE) design point for the attention chain of
/// `config` at `tokens` prefill tokens.
///
/// # Errors
///
/// Propagates executor errors.
fn evaluate_design_point(
    config: &TransformerConfig,
    packing_stats: Option<&ModelPackingStats>,
    packing_config: PackingConfig,
    bandwidth_gbps: f64,
    total_pes: usize,
    tokens: usize,
) -> Result<PlannerEntry, CoreError> {
    let chip = ChipConfig::zcu102_with_total_pes(total_pes);
    let clock = chip.clock;
    let params = LayerParams {
        config,
        layer: 0,
        tokens_new: tokens,
        context: tokens,
        packing_stats,
        packing_config,
        knobs: ScheduleKnobs::default(),
    };
    // GEMM side: sequential components, then roofline overlap.
    let mut dram = DramModel::with_bandwidth(bandwidth_gbps, clock)?;
    let gemm_plan =
        ExecutionPlan { attention: AttentionDataflow::Gemm, packing: packing_level(packing_stats) };
    let gemm = attention_block_latency(&chip, &mut dram, &gemm_plan, &params)?;
    let mem = gemm.fetch() + gemm.store();
    let gemm_cycles = mem.max(gemm.compute());
    // TPHS side: event-scheduled makespan (already overlapped).
    let mut dram = DramModel::with_bandwidth(bandwidth_gbps, clock)?;
    let tphs_plan =
        ExecutionPlan { attention: AttentionDataflow::Tphs, packing: packing_level(packing_stats) };
    let tphs = attention_block_latency(&chip, &mut dram, &tphs_plan, &params)?;
    let tphs_cycles = tphs.makespan();
    let per_layer = config.layers as u64;
    let gemm_ms = clock.to_ms(Cycles(gemm_cycles.get() * per_layer));
    let tphs_ms = clock.to_ms(Cycles(tphs_cycles.get() * per_layer));
    Ok(PlannerEntry {
        bandwidth_gbps,
        total_pes,
        gemm_ms,
        tphs_ms,
        best: if gemm_ms <= tphs_ms { AttentionDataflow::Gemm } else { AttentionDataflow::Tphs },
    })
}

fn packing_level(stats: Option<&ModelPackingStats>) -> Option<PackingLevel> {
    stats.map(|s| s.level)
}

/// Sweeps the full (bandwidth × PE) grid of Fig. 12a.
///
/// # Errors
///
/// Propagates executor errors.
pub fn dataflow_grid(
    config: &TransformerConfig,
    packing_stats: Option<&ModelPackingStats>,
    packing_config: PackingConfig,
    bandwidths_gbps: &[f64],
    pe_counts: &[usize],
    tokens: usize,
) -> Result<Vec<PlannerEntry>, CoreError> {
    let mut grid = Vec::with_capacity(bandwidths_gbps.len() * pe_counts.len());
    for &bw in bandwidths_gbps {
        for &pes in pe_counts {
            grid.push(evaluate_design_point(
                config,
                packing_stats,
                packing_config,
                bw,
                pes,
                tokens,
            )?);
        }
    }
    Ok(grid)
}

/// The paper's Fig. 12a axes: bandwidths 1/6/25/51 Gbps, PEs 14/36/48/96.
pub fn paper_grid_axes() -> (Vec<f64>, Vec<usize>) {
    (vec![1.0, 6.0, 25.0, 51.0], vec![14, 36, 48, 96])
}

/// Builds an engine whose attention dataflow is *chosen automatically* for
/// the deployment point, per §6.5's conclusion that the framework should
/// pick GEMM at high bandwidth and TPHS at low bandwidth. Weight packing is
/// always on (it never hurts).
///
/// `tokens` is the prefill length the choice is optimized for.
///
/// # Errors
///
/// Propagates statistics and engine-construction errors.
pub fn auto_engine(
    model: &TransformerConfig,
    chip: ChipConfig,
    bandwidth_gbps: f64,
    tokens: usize,
) -> Result<crate::engine::MeadowEngine, CoreError> {
    let packing_config = PackingConfig::default();
    let stats = ModelPackingStats::compute(model, &packing_config, PackingLevel::FrequencyAware)?;
    let entry = evaluate_design_point(
        model,
        Some(&stats),
        packing_config,
        bandwidth_gbps,
        chip.total_pes(),
        tokens,
    )?;
    let config = crate::engine::EngineConfig {
        chip,
        model: model.clone(),
        bandwidth_gbps,
        plan: ExecutionPlan { attention: entry.best, packing: Some(PackingLevel::FrequencyAware) },
        packing_config,
        knobs: meadow_dataflow::schedule::ScheduleKnobs::default(),
        exec: meadow_tensor::parallel::ExecConfig::serial(),
    };
    crate::engine::MeadowEngine::with_packing_stats(config, Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;

    #[test]
    fn paper_grid_shape_reproduces() {
        let (bws, pes) = paper_grid_axes();
        let cfg = presets::opt_125m();
        let grid = dataflow_grid(&cfg, None, PackingConfig::default(), &bws, &pes, 512).unwrap();
        assert_eq!(grid.len(), 16);
        // Fig. 12a: at 51 Gbps GEMM wins regardless of PE count; at 1 Gbps
        // TPHS wins regardless of PE count.
        for e in &grid {
            if e.bandwidth_gbps >= 51.0 {
                assert_eq!(
                    e.best,
                    AttentionDataflow::Gemm,
                    "(bw {}, pe {}): gemm {} tphs {}",
                    e.bandwidth_gbps,
                    e.total_pes,
                    e.gemm_ms,
                    e.tphs_ms
                );
            }
            if e.bandwidth_gbps <= 1.0 {
                assert_eq!(
                    e.best,
                    AttentionDataflow::Tphs,
                    "(bw {}, pe {}): gemm {} tphs {}",
                    e.bandwidth_gbps,
                    e.total_pes,
                    e.gemm_ms,
                    e.tphs_ms
                );
            }
        }
    }

    #[test]
    fn more_pes_never_hurt_gemm() {
        let cfg = presets::opt_125m();
        let small =
            evaluate_design_point(&cfg, None, PackingConfig::default(), 25.0, 14, 512).unwrap();
        let big =
            evaluate_design_point(&cfg, None, PackingConfig::default(), 25.0, 96, 512).unwrap();
        assert!(big.gemm_ms <= small.gemm_ms);
        assert!(big.tphs_ms <= small.tphs_ms);
    }

    #[test]
    fn best_ms_matches_choice() {
        let cfg = presets::tiny_decoder();
        let e = evaluate_design_point(&cfg, None, PackingConfig::default(), 6.0, 96, 32).unwrap();
        let expect = match e.best {
            AttentionDataflow::Gemm => e.gemm_ms,
            AttentionDataflow::Tphs => e.tphs_ms,
        };
        assert_eq!(e.best_ms(), expect);
    }

    #[test]
    fn auto_engine_picks_the_right_dataflow_per_bandwidth() {
        let cfg = presets::opt_125m();
        let low = auto_engine(&cfg, ChipConfig::zcu102(), 1.0, 512).unwrap();
        assert_eq!(low.config().plan.attention, AttentionDataflow::Tphs);
        let high = auto_engine(&cfg, ChipConfig::zcu102(), 51.0, 512).unwrap();
        assert_eq!(high.config().plan.attention, AttentionDataflow::Gemm);
        // Either way packing is on and the engine measures.
        assert!(low.config().plan.packing.is_some());
        assert!(low.prefill_latency(512).unwrap().total_ms() > 0.0);
    }

    #[test]
    fn auto_engine_never_loses_to_a_fixed_choice() {
        let cfg = presets::opt_125m();
        for bw in [1.0, 25.0] {
            let auto = auto_engine(&cfg, ChipConfig::zcu102(), bw, 512).unwrap();
            let auto_ms = auto.prefill_latency(512).unwrap().total_ms();
            let fixed = crate::engine::MeadowEngine::new(crate::engine::EngineConfig::zcu102(
                cfg.clone(),
                bw,
            ))
            .unwrap();
            let fixed_ms = fixed.prefill_latency(512).unwrap().total_ms();
            // Auto picks TPHS at these points, so it matches the MEADOW
            // default within noise; it must never be slower by more than
            // the GEMM/TPHS gap.
            assert!(auto_ms <= fixed_ms * 1.01, "@{bw}: auto {auto_ms} vs fixed {fixed_ms}");
        }
    }
}
