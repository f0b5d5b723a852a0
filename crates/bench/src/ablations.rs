//! Ablation studies over the design choices DESIGN.md §7 calls out. These
//! extend the paper's evaluation: each isolates one mechanism and shows the
//! regime where it earns its complexity.

use crate::{Artifact, ReproContext};
use meadow_core::report::Table;
use meadow_core::CoreError;
use meadow_dataflow::gemm::WeightFetch;
use meadow_dataflow::tphs::{plan_allocation, tphs_attention_latency, TphsParams};
use meadow_models::synthetic::{generate_decomposition, RedundancyProfile};
use meadow_packing::{ChunkConfig, PackedWeights, PackingConfig, PackingLevel};
use meadow_sim::{ChipConfig, ClockDomain, DramModel};

fn anchor_profile() -> RedundancyProfile {
    RedundancyProfile { unique_chunks: 1272, zipf_exponent: 1.18, mean_run_len: 16.0 }
}

/// Ablation 1: chunk size `C`. Small chunks find more redundancy per chunk
/// but pay more IDs; large chunks dedup worse. `C = 2` (16-bit chunks) is
/// the paper-consistent sweet spot.
///
/// # Errors
///
/// Propagates generation and packing errors.
pub fn ablation_chunk(_ctx: &ReproContext) -> Result<Artifact, CoreError> {
    // One fixed weight matrix (the anchor redundancy structure), decomposed
    // at different chunk sizes — the honest comparison: chunk size changes
    // what the *same* bytes dedup into.
    let w = meadow_models::synthetic::generate_matrix(256, 768, anchor_profile(), 2, 404)
        .map_err(CoreError::from)?;
    let mut table = Table::new([
        "chunk_elems",
        "unique_chunks",
        "id_bits",
        "table_bytes",
        "compression_freq_aware",
    ]);
    let mut best = (0usize, 0.0f64);
    for chunk_elems in [1usize, 2, 4, 8] {
        let cfg = PackingConfig { chunk: ChunkConfig { chunk_elems }, ..PackingConfig::default() };
        let packed = PackedWeights::pack(&w, &cfg, PackingLevel::FrequencyAware)?;
        let ratio = packed.compression_ratio();
        if ratio > best.1 {
            best = (chunk_elems, ratio);
        }
        table.row([
            chunk_elems.to_string(),
            packed.meta().unique_count.to_string(),
            packed.meta().max_id_bits.to_string(),
            packed.unique().size_bytes().to_string(),
            format!("{ratio:.2}"),
        ]);
    }
    Ok(Artifact {
        id: "ablation_chunk",
        paper_claim: "extension: the paper fixes C such that C*Q = 16 bits; this sweep decomposes one matrix at several chunk sizes",
        table,
        notes: vec![format!("best compression at chunk_elems = {} ({:.2}x)", best.0, best.1)],
    })
}

/// Ablation 2: packet payload width. Wide payloads amortize mode bits but
/// force a whole packet to the precision of its worst ID; narrow payloads
/// adapt faster but pay more framing.
///
/// # Errors
///
/// Propagates generation and packing errors.
pub fn ablation_payload(_ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let (unique, encoded) =
        generate_decomposition(256, 768, anchor_profile(), 2, 405).map_err(CoreError::from)?;
    let mut table = Table::new([
        "payload_bits",
        "compression_packet_specific",
        "compression_freq_aware",
        "packets_freq",
    ]);
    for payload_bits in [32u32, 64, 128, 256, 512] {
        let cfg = PackingConfig { payload_bits, ..PackingConfig::default() };
        let pkt = PackedWeights::from_decomposition(
            unique.clone(),
            encoded.clone(),
            &cfg,
            PackingLevel::PacketSpecific,
        )?;
        let freq = PackedWeights::from_decomposition(
            unique.clone(),
            encoded.clone(),
            &cfg,
            PackingLevel::FrequencyAware,
        )?;
        table.row([
            payload_bits.to_string(),
            format!("{:.2}", pkt.compression_ratio()),
            format!("{:.2}", freq.compression_ratio()),
            freq.meta().packets.to_string(),
        ]);
    }
    Ok(Artifact {
        id: "ablation_payload",
        paper_claim: "extension: packet width trades mode-bit overhead against precision adaptivity; 128-bit payloads are near-optimal",
        table,
        notes: Vec::new(),
    })
}

/// Ablation 3: TPHS token parallelism, controlled through the broadcasting
/// PE budget (each in-flight token needs one broadcasting PE for SM·V).
///
/// # Errors
///
/// Propagates executor errors.
pub fn ablation_parallelism(_ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let mut table =
        Table::new(["broadcasting_pes", "token_parallelism", "waves", "tphs_attention_ms@12Gbps"]);
    let clock = ClockDomain::zcu102();
    let params = TphsParams {
        d_model: 768,
        heads: 12,
        head_dim: 64,
        tokens_new: 512,
        context: 512,
        wq: WeightFetch::raw(768 * 768),
    };
    let mut notes = Vec::new();
    let mut prev_ms = f64::INFINITY;
    for bc in [1usize, 2, 4, 8, 12, 24] {
        let mut chip = ChipConfig::zcu102();
        chip.broadcasting_pes = bc;
        let alloc = plan_allocation(&chip, &params);
        let mut dram = DramModel::with_bandwidth(12.0, clock)?;
        let lat = tphs_attention_latency(&chip, &mut dram, &params)?;
        let ms = clock.to_ms(lat.makespan);
        table.row([
            bc.to_string(),
            alloc.token_parallelism.to_string(),
            alloc.waves.to_string(),
            format!("{ms:.2}"),
        ]);
        if ms > prev_ms * 1.001 {
            notes.push(format!("non-monotonic at {bc} broadcasting PEs"));
        }
        prev_ms = ms;
    }
    notes.push("token parallelism is the first-order TPHS throughput lever; beyond the parallel-PE budget it saturates".to_string());
    Ok(Artifact {
        id: "ablation_parallelism",
        paper_claim: "extension: justifies the 84:12 parallel:broadcasting PE split of Table 1",
        table,
        notes,
    })
}

/// Ablation 4: DMA/compute overlap (double buffering). "Off" charges the
/// fully sequential component sum — what the TPHS pipeline would cost if
/// every head waited for its operands.
///
/// # Errors
///
/// Propagates executor errors.
pub fn ablation_overlap(_ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let clock = ClockDomain::zcu102();
    let params = TphsParams {
        d_model: 768,
        heads: 12,
        head_dim: 64,
        tokens_new: 512,
        context: 512,
        wq: WeightFetch::raw(768 * 768),
    };
    let mut table =
        Table::new(["bandwidth_gbps", "overlapped_ms", "sequential_ms", "overlap_gain"]);
    let mut notes = Vec::new();
    for bw in [1.0, 6.0, 12.0, 51.0] {
        let mut dram = DramModel::with_bandwidth(bw, clock)?;
        let lat = tphs_attention_latency(&ChipConfig::zcu102(), &mut dram, &params)?;
        let overlapped = clock.to_ms(lat.makespan);
        let sequential = clock.to_ms(lat.component_sum());
        table.row([
            format!("{bw}"),
            format!("{overlapped:.2}"),
            format!("{sequential:.2}"),
            format!("{:.2}x", sequential / overlapped),
        ]);
        if bw == 1.0 {
            notes.push(format!(
                "at 1 Gbps double buffering hides {:.0}% of the fetch time",
                (1.0 - overlapped / sequential) * 100.0
            ));
        }
    }
    Ok(Artifact {
        id: "ablation_overlap",
        paper_claim: "extension: quantifies the double-buffered prefetch the architecture (Fig. 2b) relies on",
        table,
        notes,
    })
}

/// Ablation 5: frequency-aware re-indexing across skew levels. With flat
/// chunk frequencies re-indexing cannot help; the paper's gains require the
/// heavy skew real quantized weights exhibit.
///
/// # Errors
///
/// Propagates generation and packing errors.
pub fn ablation_zipf(_ctx: &ReproContext) -> Result<Artifact, CoreError> {
    let mut table =
        Table::new(["zipf_exponent", "naive", "packet_specific", "freq_aware", "reindex_gain"]);
    let mut notes = Vec::new();
    for zipf in [1.001f64, 1.1, 1.2, 1.35, 1.5] {
        let profile =
            RedundancyProfile { unique_chunks: 1272, zipf_exponent: zipf, mean_run_len: 16.0 };
        let (unique, encoded) =
            generate_decomposition(256, 768, profile, 2, 406).map_err(CoreError::from)?;
        let cfg = PackingConfig::default();
        let mut ratios = Vec::new();
        for level in PackingLevel::all() {
            let packed =
                PackedWeights::from_decomposition(unique.clone(), encoded.clone(), &cfg, level)?;
            ratios.push(packed.compression_ratio());
        }
        let gain = ratios[2] / ratios[1];
        table.row([
            format!("{zipf}"),
            format!("{:.2}", ratios[0]),
            format!("{:.2}", ratios[1]),
            format!("{:.2}", ratios[2]),
            format!("{gain:.2}x"),
        ]);
        if zipf <= 1.001 {
            notes.push(format!("flat frequencies: re-indexing gains only {gain:.2}x"));
        }
        if zipf >= 1.5 {
            notes.push(format!("heavy skew: re-indexing gains {gain:.2}x over packet-specific"));
        }
    }
    Ok(Artifact {
        id: "ablation_zipf",
        paper_claim: "extension: re-indexing gains grow with frequency skew; flat distributions neutralize it",
        table,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ablation_prefers_small_chunks() {
        let a = ablation_chunk(&ReproContext::new()).unwrap();
        assert_eq!(a.table.len(), 4);
        assert!(a.notes[0].contains("chunk_elems"));
    }

    #[test]
    fn parallelism_ablation_is_monotone() {
        let a = ablation_parallelism(&ReproContext::new()).unwrap();
        assert!(
            !a.notes.iter().any(|n| n.contains("non-monotonic")),
            "more broadcasting PEs must never slow TPHS: {:?}",
            a.notes
        );
    }

    #[test]
    fn overlap_gains_exist_at_low_bandwidth() {
        let a = ablation_overlap(&ReproContext::new()).unwrap();
        assert!(a.notes[0].contains("double buffering"));
    }

    #[test]
    fn zipf_ablation_shows_growing_reindex_gain() {
        let a = ablation_zipf(&ReproContext::new()).unwrap();
        assert_eq!(a.table.len(), 5);
        // The flat case must show ~no gain; the heavy-skew case a clear one.
        assert!(a.notes.iter().any(|n| n.contains("flat")));
        assert!(a.notes.iter().any(|n| n.contains("heavy skew")));
    }
}
