//! The Token-Parallel Head-Sequential (TPHS) dataflow (§4, Fig. 3).
//!
//! Per attention head, TPHS pipelines `Q → QKᵀ → MAX → EXP → DIV → SM·V`
//! across waves of tokens, keeping every intermediate in pipeline registers:
//! the only DRAM traffic is the input tokens (once), the per-head `W_Q`,
//! `K_h`, `V_h` fetches, and the final `SM·V` outputs. Heads execute
//! sequentially ("all H1 before H2"), which lets the DMA prefetch head
//! `h+1`'s operands while head `h` computes — modeled here with the
//! discrete-event engine.

use crate::breakdown::OpLatency;
use crate::error::DataflowError;
use crate::gemm::{weight_fetch_cycles, WeightFetch};
use crate::pipeline::flow_shop_makespan;
use meadow_sim::event::{EventSim, TaskKind};
use meadow_sim::{ChipConfig, Cycles, DramModel, TrafficClass};
use serde::{Deserialize, Serialize};

/// Dimensions and operand description of one TPHS attention block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TphsParams {
    /// Model dimension `D`.
    pub d_model: usize,
    /// Attention heads `H`.
    pub heads: usize,
    /// Head dimension `HD`.
    pub head_dim: usize,
    /// Tokens being processed (prefill: the prompt length; decode: 1).
    pub tokens_new: usize,
    /// Context length (keys/values visible to each query).
    pub context: usize,
    /// The full `W_Q` weight fetch (packed or raw); heads fetch `1/H` each.
    pub wq: WeightFetch,
}

/// Resource allocation chosen for the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TphsAllocation {
    /// Parallel PEs computing the Q stage per in-flight token.
    pub q_pes_per_token: usize,
    /// Tokens in flight per wave.
    pub token_parallelism: usize,
    /// Waves per head.
    pub waves: usize,
}

/// Per-stage service times of one wave (cycles).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TphsStageTimes {
    /// [Q, QKᵀ, MAX, EXP, DIV, SM·V] wave service times.
    pub stages: Vec<Cycles>,
}

/// Chooses the PE allocation for the TPHS pipeline on `chip`.
///
/// The Q stage is given enough parallel PEs per token to keep its service
/// time at or below the `context`-bound stages (QKᵀ/softmax/SM·V all take
/// ≈`context` cycles per token), then token parallelism is maximized within
/// the PE, broadcasting-PE and SM-module budgets — each in-flight token
/// needs `q_pes_per_token + 1` parallel PEs, one broadcasting PE and one SM
/// module.
pub fn plan_allocation(chip: &ChipConfig, params: &TphsParams) -> TphsAllocation {
    let mults = chip.pe_geometry.multipliers.max(1);
    let hd_factor = params.head_dim.div_ceil(mults).max(1);
    let bottleneck = (params.context * hd_factor).max(1);
    let q_work = (params.d_model * params.head_dim).div_ceil(mults).max(1);
    let q_pes = q_work.div_ceil(bottleneck).clamp(1, chip.parallel_pes.saturating_sub(1).max(1));
    let per_token_parallel = q_pes + 1;
    let p = (chip.parallel_pes / per_token_parallel)
        .min(chip.broadcasting_pes)
        .min(chip.sm_modules)
        .max(1)
        .min(params.tokens_new.max(1));
    TphsAllocation {
        q_pes_per_token: q_pes,
        token_parallelism: p,
        waves: params.tokens_new.div_ceil(p).max(1),
    }
}

/// Stage service times for one wave under an allocation.
pub(crate) fn stage_times(
    chip: &ChipConfig,
    params: &TphsParams,
    alloc: &TphsAllocation,
) -> TphsStageTimes {
    let mults = chip.pe_geometry.multipliers.max(1);
    let hd_factor = params.head_dim.div_ceil(mults).max(1) as u64;
    let c = params.context as u64;
    let q_cycles = ((params.d_model * params.head_dim).div_ceil(mults) as u64)
        .div_ceil(alloc.q_pes_per_token as u64)
        .max(1);
    TphsStageTimes {
        stages: vec![
            Cycles(q_cycles),      // Q projection for the wave's tokens
            Cycles(c * hd_factor), // QKᵀ against all context keys
            Cycles(c),             // softmax MAX
            Cycles(c),             // softmax EXP
            Cycles(c),             // softmax DIV
            Cycles(c * hd_factor), // SM·V broadcast-accumulate
        ],
    }
}

/// Executes the fused TPHS attention block against the latency model.
///
/// # Errors
///
/// Returns [`DataflowError::Schedule`] for degenerate dimensions and
/// propagates event-engine errors.
pub fn tphs_attention_latency(
    chip: &ChipConfig,
    dram: &mut DramModel,
    params: &TphsParams,
) -> Result<OpLatency, DataflowError> {
    if params.heads == 0 || params.head_dim == 0 || params.tokens_new == 0 || params.context == 0 {
        return Err(DataflowError::Schedule {
            reason: format!("degenerate TPHS dimensions: {params:?}"),
        });
    }
    let alloc = plan_allocation(chip, params);
    let times = stage_times(chip, params, &alloc);
    let per_head_compute = flow_shop_makespan(&times.stages, alloc.waves);

    let x_bytes = (params.tokens_new * params.d_model) as u64;
    let x_fits = x_bytes <= chip.input_bram_bytes as u64;
    let kv_head_bytes = 2 * (params.context * params.head_dim) as u64;
    let smv_head_bytes = (params.tokens_new * params.head_dim) as u64;

    // Per-head W_Q slice: the packed stream is sliced evenly across heads.
    let wq_head = WeightFetch {
        raw_bytes: params.wq.raw_bytes.div_ceil(params.heads as u64),
        packed: params.wq.packed.map(|p| crate::gemm::PackedWeightTransfer {
            transfer_bytes: p.transfer_bytes.div_ceil(params.heads as u64),
            packet_bits: p.packet_bits,
            total_ids: p.total_ids.div_ceil(params.heads as u64),
        }),
    };

    // Separate AXI read/write channels: stores never block prefetches.
    let mut sim = EventSim::new();
    let dma_rd = sim.add_resource("dma-read");
    let dma_wr = sim.add_resource("dma-write");
    let pipe = sim.add_resource("tphs-pipeline");

    let mut fetch_total = Cycles::ZERO;
    let mut store_total = Cycles::ZERO;
    let mut compute_total = Cycles::ZERO;

    // Input tokens: fetched once if they fit the input BRAM, else per head.
    let x_once = if x_fits {
        let dur = dram.transfer(TrafficClass::InputFetch, x_bytes);
        fetch_total += dur;
        Some(sim.submit(dma_rd, TaskKind::Fetch, dur, &[])?)
    } else {
        None
    };

    // Double-buffered operand BRAMs: the fetch for head h+1 may begin once
    // head h is computing (head h-1's compute has finished and released the
    // back buffer), i.e. fetch_h depends on compute_{h-2}.
    let mut computes: Vec<meadow_sim::event::TaskId> = Vec::with_capacity(params.heads);
    for head in 0..params.heads {
        let mut dur = weight_fetch_cycles(dram, &wq_head);
        dur += dram.transfer(TrafficClass::KvFetch, kv_head_bytes);
        if !x_fits {
            dur += dram.transfer(TrafficClass::InputFetch, x_bytes);
        }
        fetch_total += dur;
        let fetch_deps: Vec<_> = if head >= 2 { vec![computes[head - 2]] } else { Vec::new() };
        let fetch = sim.submit(dma_rd, TaskKind::Fetch, dur, &fetch_deps)?;
        let mut deps = vec![fetch];
        if let Some(x) = x_once {
            deps.push(x);
        }
        if let Some(&prev) = computes.last() {
            deps.push(prev);
        }
        let compute = sim.submit(pipe, TaskKind::Compute, per_head_compute, &deps)?;
        compute_total += per_head_compute;
        let store_dur = dram.transfer(TrafficClass::OutputStore, smv_head_bytes);
        store_total += store_dur;
        sim.submit(dma_wr, TaskKind::Store, store_dur, &[compute])?;
        computes.push(compute);
    }

    Ok(OpLatency {
        name: "TPHS".to_string(),
        fetch: fetch_total,
        compute: compute_total,
        store: store_total,
        makespan: sim.makespan(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_sim::ClockDomain;

    fn dram(gbps: f64) -> DramModel {
        DramModel::with_bandwidth(gbps, ClockDomain::zcu102()).unwrap()
    }

    fn opt125m_params(tokens: usize) -> TphsParams {
        TphsParams {
            d_model: 768,
            heads: 12,
            head_dim: 64,
            tokens_new: tokens,
            context: tokens,
            wq: WeightFetch::raw(768 * 768),
        }
    }

    #[test]
    fn allocation_balances_q_stage() {
        let chip = ChipConfig::zcu102();
        let p = opt125m_params(512);
        let alloc = plan_allocation(&chip, &p);
        // Q work per token = 768*64/64 = 768 cycles; bottleneck 512 → 2 PEs.
        assert_eq!(alloc.q_pes_per_token, 2);
        // 84/3 = 28 parallel-PE-bound, 12 broadcasting-bound → P = 12.
        assert_eq!(alloc.token_parallelism, 12);
        assert_eq!(alloc.waves, 43);
    }

    #[test]
    fn stage_times_are_context_bound() {
        let chip = ChipConfig::zcu102();
        let p = opt125m_params(512);
        let alloc = plan_allocation(&chip, &p);
        let t = stage_times(&chip, &p, &alloc);
        assert_eq!(t.stages.len(), 6);
        // Q: 768/2 = 384 ≤ 512; all others 512.
        assert_eq!(t.stages[0], Cycles(384));
        for s in &t.stages[1..] {
            assert_eq!(*s, Cycles(512));
        }
    }

    #[test]
    fn tphs_eliminates_intermediate_traffic() {
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let lat = tphs_attention_latency(&chip, &mut d, &opt125m_params(512)).unwrap();
        let ledger = d.ledger();
        // No intermediate stores or fetches at all.
        assert_eq!(ledger.bytes(TrafficClass::IntermediateFetch), 0);
        assert_eq!(ledger.bytes(TrafficClass::IntermediateStore), 0);
        // Only X, W_Q, K, V in; SMV out.
        assert_eq!(ledger.bytes(TrafficClass::InputFetch), 512 * 768);
        assert_eq!(ledger.bytes(TrafficClass::OutputStore), 512 * 768);
        assert!(lat.makespan > Cycles::ZERO);
    }

    #[test]
    fn dma_overlaps_compute() {
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let lat = tphs_attention_latency(&chip, &mut d, &opt125m_params(512)).unwrap();
        // The makespan must be well below the sequential sum thanks to
        // prefetch overlap.
        assert!(lat.makespan < lat.component_sum());
        // And at least as large as the compute-only lower bound.
        assert!(lat.makespan >= lat.compute);
    }

    #[test]
    fn decode_single_token_works() {
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let p = TphsParams { tokens_new: 1, context: 575, ..opt125m_params(512) };
        let lat = tphs_attention_latency(&chip, &mut d, &p).unwrap();
        assert!(lat.makespan > Cycles::ZERO);
        let alloc = plan_allocation(&chip, &p);
        assert_eq!(alloc.token_parallelism, 1);
        assert_eq!(alloc.waves, 1);
    }

    #[test]
    fn degenerate_dimensions_rejected() {
        let chip = ChipConfig::zcu102();
        let mut d = dram(12.0);
        let p = TphsParams { heads: 0, ..opt125m_params(8) };
        assert!(tphs_attention_latency(&chip, &mut d, &p).is_err());
        let p = TphsParams { context: 0, ..opt125m_params(8) };
        assert!(tphs_attention_latency(&chip, &mut d, &p).is_err());
    }

    #[test]
    fn fewer_pes_lengthen_the_pipeline() {
        let small = ChipConfig::zcu102_with_total_pes(14);
        let big = ChipConfig::zcu102();
        let p = opt125m_params(256);
        let mut d1 = dram(12.0);
        let mut d2 = dram(12.0);
        let slow = tphs_attention_latency(&small, &mut d1, &p).unwrap();
        let fast = tphs_attention_latency(&big, &mut d2, &p).unwrap();
        assert!(slow.makespan > fast.makespan);
    }

    #[test]
    fn oversized_inputs_refetch_per_head() {
        // Shrink the input BRAM so X cannot stay resident.
        let mut chip = ChipConfig::zcu102();
        chip.input_bram_bytes = 1024;
        let mut d = dram(12.0);
        let p = opt125m_params(64);
        tphs_attention_latency(&chip, &mut d, &p).unwrap();
        assert_eq!(d.ledger().bytes(TrafficClass::InputFetch), 12 * 64 * 768);
    }
}
