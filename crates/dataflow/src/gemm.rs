//! GEMM-mode op execution: the paper's baseline semantics where every layer
//! fetches its operands from DRAM, computes on the PE array, and stores the
//! result back (§1, Fig. 1).
//!
//! Ops are described by a `GemmOpSpec` (operand traffic + compute shape);
//! `gemm_op_latency` charges BRAM-tiling-aware DRAM transfers, PE-array
//! compute, softmax/LN/NL unit time, and WILU unpacking for packed weights,
//! producing an [`OpLatency`] whose makespan is the sequential
//! fetch→compute→store sum — which is what makes the paper's stacked
//! latency-distribution figures meaningful.

use crate::breakdown::OpLatency;
use crate::error::DataflowError;
use crate::tiling::plan_gemm_tiling;
use meadow_packing::wilu;
use meadow_sim::modules::{LayerNormUnit, NonlinearUnit};
use meadow_sim::softmax_unit::SoftmaxUnit;
use meadow_sim::{ChipConfig, Cycles, DramModel, TrafficClass};
use serde::{Deserialize, Serialize};

/// How a weight matrix crosses the DRAM channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightFetch {
    /// Raw (unpacked) weight bytes.
    pub raw_bytes: u64,
    /// Packed transfer, if weight packing is enabled.
    pub packed: Option<PackedWeightTransfer>,
}

impl WeightFetch {
    /// An unpacked weight fetch.
    pub fn raw(raw_bytes: u64) -> Self {
        Self { raw_bytes, packed: None }
    }

    /// Bytes that actually cross the channel.
    pub(crate) fn transfer_bytes(&self) -> u64 {
        self.packed.map_or(self.raw_bytes, |p| p.transfer_bytes)
    }
}

/// Transfer description of one packed weight matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackedWeightTransfer {
    /// Packed bytes (ID stream + unique matrix).
    pub transfer_bytes: u64,
    /// Bits per packet (mode field + payload), for MAU throughput.
    pub packet_bits: u32,
    /// Total chunk IDs, for lookup throughput.
    pub total_ids: u64,
}

/// Compute shape of one op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ComputeSpec {
    /// A matrix multiply of this many MACs on the PE array.
    Macs(u64),
    /// Softmax over `rows` rows of `features` scores on the SM modules.
    Softmax {
        /// Number of independent rows.
        rows: usize,
        /// Features per row.
        features: usize,
    },
    /// LayerNorm over `tokens` tokens of `features` on the LN modules.
    LayerNorm {
        /// Tokens to normalize.
        tokens: usize,
        /// Features per token.
        features: usize,
    },
    /// Elementwise nonlinearity on the NL modules.
    Nonlinear {
        /// Tokens to activate.
        tokens: usize,
        /// Features per token.
        features: usize,
    },
    /// No compute (pure data movement).
    None,
}

/// Full description of one GEMM-mode op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct GemmOpSpec {
    /// Display name ("Q", "QKT", "SM", ...).
    pub name: String,
    /// Weight fetch, if the op has weights.
    pub weight: Option<WeightFetch>,
    /// Non-weight operand fetches (class, bytes).
    pub inputs: Vec<(TrafficClass, u64)>,
    /// Result stores (class, bytes).
    pub stores: Vec<(TrafficClass, u64)>,
    /// Compute shape.
    pub compute: ComputeSpec,
}

/// Effective cycles to bring a weight matrix on chip: DRAM transfer,
/// overlapped with WILU unpacking when packed (the slower side wins).
///
/// The packet count spreads every transferred byte, the unique matrix's
/// included, over packets of `packet_bits`.
pub(crate) fn weight_fetch_cycles(dram: &mut DramModel, weight: &WeightFetch) -> Cycles {
    let bytes = weight.transfer_bytes();
    let dram_cycles = dram.transfer(TrafficClass::WeightFetch, bytes);
    match weight.packed {
        None => dram_cycles,
        Some(p) => {
            let packets = (bytes * 8).div_ceil(u64::from(p.packet_bits.max(1)));
            dram_cycles.max(Cycles(wilu::unpack_cycles(packets, p.total_ids)))
        }
    }
}

/// Compute cycles of a [`ComputeSpec`] on the given chip.
fn compute_cycles(chip: &ChipConfig, compute: ComputeSpec) -> Cycles {
    match compute {
        ComputeSpec::Macs(macs) => Cycles::for_throughput(macs, chip.peak_macs_per_cycle().max(1)),
        ComputeSpec::Softmax { rows, features } => {
            let per_unit = rows.div_ceil(chip.sm_modules.max(1));
            SoftmaxUnit::default().pipelined_cycles(per_unit, features)
        }
        ComputeSpec::LayerNorm { tokens, features } => {
            LayerNormUnit.batch_cycles(tokens, features, chip.ln_modules)
        }
        ComputeSpec::Nonlinear { tokens, features } => {
            NonlinearUnit.batch_cycles(tokens, features, chip.nl_modules)
        }
        ComputeSpec::None => Cycles::ZERO,
    }
}

/// Executes one GEMM-mode op against the latency model.
///
/// # Errors
///
/// Currently infallible in practice but typed for forward compatibility with
/// stricter capacity validation.
pub(crate) fn gemm_op_latency(
    chip: &ChipConfig,
    dram: &mut DramModel,
    spec: &GemmOpSpec,
) -> Result<OpLatency, DataflowError> {
    let mut fetch = Cycles::ZERO;
    // BRAM tiling: if operands exceed BRAMs, one side is re-fetched.
    let input_total: u64 = spec.inputs.iter().map(|&(_, b)| b).sum();
    let weight_bytes = spec.weight.as_ref().map_or(0, WeightFetch::transfer_bytes);
    let outcome = plan_gemm_tiling(
        input_total,
        weight_bytes,
        chip.input_bram_bytes as u64,
        chip.weight_bram_bytes as u64,
    );
    let weight_mult = outcome.weight_fetch_bytes.checked_div(weight_bytes).unwrap_or(1);
    let input_mult = outcome.input_fetch_bytes.checked_div(input_total).unwrap_or(1);
    if let Some(w) = &spec.weight {
        for _ in 0..weight_mult.max(1) {
            fetch += weight_fetch_cycles(dram, w);
        }
    }
    for &(class, bytes) in &spec.inputs {
        fetch += dram.transfer(class, bytes * input_mult.max(1));
    }
    let compute = compute_cycles(chip, spec.compute);
    let mut store = Cycles::ZERO;
    for &(class, bytes) in &spec.stores {
        store += dram.transfer(class, bytes);
    }
    Ok(OpLatency::sequential(spec.name.clone(), fetch, compute, store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_sim::ClockDomain;

    fn dram(gbps: f64) -> DramModel {
        DramModel::with_bandwidth(gbps, ClockDomain::zcu102()).unwrap()
    }

    fn chip() -> ChipConfig {
        ChipConfig::zcu102()
    }

    #[test]
    fn plain_matmul_op() {
        let spec = GemmOpSpec {
            name: "Q".into(),
            weight: Some(WeightFetch::raw(768 * 768)),
            inputs: vec![(TrafficClass::IntermediateFetch, 512 * 768)],
            stores: vec![(TrafficClass::IntermediateStore, 512 * 768)],
            compute: ComputeSpec::Macs(512 * 768 * 768),
        };
        let mut d = dram(12.0);
        let lat = gemm_op_latency(&chip(), &mut d, &spec).unwrap();
        assert!(lat.fetch > Cycles::ZERO);
        assert!(lat.compute > Cycles::ZERO);
        assert!(lat.store > Cycles::ZERO);
        assert_eq!(lat.makespan, lat.component_sum());
        // Fetch ≈ (589824 + 393216) / 15 ≈ 65536 cycles.
        let expect = ((768 * 768 + 512 * 768) as f64 / 15.0) as u64;
        assert!((lat.fetch.get() as i64 - expect as i64).unsigned_abs() < 200);
    }

    #[test]
    fn packed_weights_reduce_fetch() {
        let raw = WeightFetch::raw(2_359_296);
        let packed = WeightFetch {
            raw_bytes: 2_359_296,
            packed: Some(PackedWeightTransfer {
                transfer_bytes: 900_000,
                packet_bits: 132,
                total_ids: 1_179_648,
            }),
        };
        let mut d1 = dram(1.0);
        let mut d2 = dram(1.0);
        let c_raw = weight_fetch_cycles(&mut d1, &raw);
        let c_packed = weight_fetch_cycles(&mut d2, &packed);
        assert!(c_packed < c_raw);
        let ratio = c_raw.get() as f64 / c_packed.get() as f64;
        assert!((ratio - 2_359_296.0 / 900_000.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn wilu_bottlenecks_at_extreme_bandwidth() {
        let packed = WeightFetch {
            raw_bytes: 2_359_296,
            packed: Some(PackedWeightTransfer {
                transfer_bytes: 900_000,
                packet_bits: 132,
                total_ids: 1_179_648,
            }),
        };
        // At 51 Gbps the channel would take 900000/63.75 ≈ 14118 cycles but
        // the MAU needs packets/2 ≈ 27273 cycles: WILU becomes the limit.
        let mut d = dram(51.0);
        let cycles = weight_fetch_cycles(&mut d, &packed);
        let packets = (900_000u64 * 8).div_ceil(132);
        assert_eq!(cycles, Cycles(packets.div_ceil(2).max(1_179_648 / 16)));
    }

    #[test]
    fn softmax_op_uses_sm_modules() {
        let spec = GemmOpSpec {
            name: "SM".into(),
            weight: None,
            inputs: vec![(TrafficClass::IntermediateFetch, 12 * 512 * 512)],
            stores: vec![(TrafficClass::IntermediateStore, 12 * 512 * 512)],
            compute: ComputeSpec::Softmax { rows: 12 * 512, features: 512 },
        };
        let mut d = dram(12.0);
        let lat = gemm_op_latency(&chip(), &mut d, &spec).unwrap();
        // 6144 rows over 84 units = 74 rows/unit → (74+2)*512 cycles.
        assert_eq!(lat.compute, Cycles(76 * 512));
    }

    #[test]
    fn ln_and_nl_ops() {
        assert_eq!(
            compute_cycles(&chip(), ComputeSpec::LayerNorm { tokens: 512, features: 768 }),
            Cycles(64 * 2 * 768)
        );
        assert_eq!(
            compute_cycles(&chip(), ComputeSpec::Nonlinear { tokens: 512, features: 3072 }),
            Cycles(64 * 3072)
        );
        assert_eq!(compute_cycles(&chip(), ComputeSpec::None), Cycles::ZERO);
    }

    #[test]
    fn oversized_operands_trigger_refetch() {
        // Both operands far above 1 MB: weight re-fetched per input pass.
        let spec = GemmOpSpec {
            name: "huge".into(),
            weight: Some(WeightFetch::raw(4 << 20)),
            inputs: vec![(TrafficClass::InputFetch, 3 << 20)],
            stores: vec![],
            compute: ComputeSpec::None,
        };
        let mut with_refetch = dram(12.0);
        gemm_op_latency(&chip(), &mut with_refetch, &spec).unwrap();
        let fetched = with_refetch.ledger().fetch_bytes();
        assert!(fetched > (7 << 20), "re-fetch must inflate traffic, got {fetched}");
    }

    #[test]
    fn traffic_classes_are_attributed() {
        let spec = GemmOpSpec {
            name: "K".into(),
            weight: Some(WeightFetch::raw(1000)),
            inputs: vec![(TrafficClass::InputFetch, 500)],
            stores: vec![(TrafficClass::KvStore, 200)],
            compute: ComputeSpec::Macs(1000),
        };
        let mut d = dram(6.0);
        gemm_op_latency(&chip(), &mut d, &spec).unwrap();
        assert_eq!(d.ledger().bytes(TrafficClass::WeightFetch), 1000);
        assert_eq!(d.ledger().bytes(TrafficClass::InputFetch), 500);
        assert_eq!(d.ledger().bytes(TrafficClass::KvStore), 200);
    }
}
