//! The Weight-unpacking and Index Look-Up (WILU) module (§5.4, Fig. 5).
//!
//! On chip, packed weight packets stream out of the weight BRAM into the
//! mode-aware unpacking (MAU) stage, which demultiplexes each payload into
//! IDs according to the packet's mode bits; the IDs then index the re-indexed
//! unique matrix to recover exact weight values, which the NoC forwards to PE
//! weight register files.
//!
//! The functional path is the stream decoder itself
//! ([`PackedWeights::unpack`](crate::PackedWeights::unpack)), so the
//! round-trip tests cover the hardware behavior. This module holds the
//! throughput model: the MAU processes a fixed number of packets per cycle
//! and the lookup stage a fixed number of IDs per cycle, pipelined against
//! each other. At high DRAM bandwidths unpacking can become the bottleneck,
//! so the dataflow executors charge a packed weight fetch the larger of its
//! channel cycles and [`unpack_cycles`].

/// Packets the ZCU102 build's MAU demultiplexes per cycle: 2 × 64-bit
/// payloads ≈ 16 B per cycle, comfortably above the 15 B/cycle the 12 Gbps
/// channel can deliver.
const PACKETS_PER_CYCLE: u64 = 2;

/// Unique-matrix lookups per cycle: the ZCU102 build's 16 parallel lookup
/// lanes.
const IDS_PER_CYCLE: u64 = 16;

/// Cycles the ZCU102 WILU module needs to unpack `packets` packets that
/// carry `ids` chunk IDs. MAU and lookup are pipelined, so the slower stage
/// dominates.
pub fn unpack_cycles(packets: u64, ids: u64) -> u64 {
    packets.div_ceil(PACKETS_PER_CYCLE).max(ids.div_ceil(IDS_PER_CYCLE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{PackedWeights, PackingConfig, PackingLevel};
    use meadow_tensor::Matrix;

    fn weights() -> Matrix<i8> {
        let mut rows = Vec::new();
        for r in 0..32i32 {
            let row: Vec<i8> = (0..32).map(|c| ((r * c) % 7) as i8).collect();
            rows.push(row);
        }
        let refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    fn packed(level: PackingLevel) -> PackedWeights {
        PackedWeights::pack(&weights(), &PackingConfig::default(), level).unwrap()
    }

    #[test]
    fn functional_path_is_lossless() {
        // The WILU functional path is the stream decoder itself.
        for level in PackingLevel::all() {
            assert_eq!(packed(level).unpack().unwrap(), weights());
        }
    }

    #[test]
    fn naive_streams_count_their_packets() {
        let m = *packed(PackingLevel::Naive).meta();
        assert_eq!(unpack_cycles(m.packets, 0), m.packets.div_ceil(2));
        assert_eq!(
            unpack_cycles(m.packets, m.total_ids as u64),
            m.packets.div_ceil(2).max((m.total_ids as u64).div_ceil(16))
        );
    }

    #[test]
    fn zcu102_mau_keeps_up_with_12gbps() {
        // 12 Gbps moves 15 bytes/cycle; the MAU demuxes 2 packets/cycle of
        // (mode + 128 payload) bits ≈ 32+ B/cycle of stream.
        let p = packed(PackingLevel::FrequencyAware);
        let stream_bytes = p.stream().byte_len();
        let dram_cycles = (stream_bytes as f64 / 15.0).ceil() as u64;
        let mau = unpack_cycles(p.meta().packets, 0);
        assert!(
            mau <= dram_cycles + 1,
            "MAU ({mau}) must keep up with the channel ({dram_cycles})"
        );
    }
}
