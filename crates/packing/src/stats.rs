//! Histograms and packing statistics behind Figs. 4a and 10b/c.

use crate::chunk::EncodedMatrix;
use crate::encode::{bits_needed, PackedWeights};
use meadow_tensor::parallel::{par_map_ranges, ExecConfig};
use serde::{Deserialize, Serialize};

/// A binned histogram of chunk-ID occurrences (Figs. 10b/10c).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdHistogram {
    /// Inclusive lower edge of each bin.
    pub bin_edges: Vec<u32>,
    /// Occurrence count per bin.
    pub counts: Vec<u64>,
    /// Bin width in IDs.
    pub bin_width: u32,
}

impl IdHistogram {
    /// Builds a histogram of the encoded matrix's IDs with `bins` equal-width
    /// bins over `[0, unique_count)`.
    pub fn new(encoded: &EncodedMatrix, unique_count: usize, bins: usize) -> Self {
        Self::new_with(encoded, unique_count, bins, &ExecConfig::serial())
    }

    /// [`IdHistogram::new`] with caller-chosen parallelism: workers count
    /// disjoint ID ranges and the partial histograms are summed. Integer
    /// addition commutes, so the result is identical for every thread count.
    pub fn new_with(
        encoded: &EncodedMatrix,
        unique_count: usize,
        bins: usize,
        exec: &ExecConfig,
    ) -> Self {
        let bins = bins.max(1);
        let width = unique_count.max(1).div_ceil(bins).max(1) as u32;
        let ids = encoded.ids();
        let partials = par_map_ranges(ids.len(), exec, |range| {
            let mut counts = vec![0u64; bins];
            for &id in &ids[range] {
                let b = ((id / width) as usize).min(bins - 1);
                counts[b] += 1;
            }
            counts
        });
        let mut counts = vec![0u64; bins];
        for partial in partials {
            for (total, c) in counts.iter_mut().zip(partial) {
                *total += c;
            }
        }
        let bin_edges = (0..bins as u32).map(|b| b * width).collect();
        Self { bin_edges, counts, bin_width: width }
    }

    /// Fraction of occurrences falling in the first `k` bins.
    pub fn head_mass(&self, k: usize) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let head: u64 = self.counts.iter().take(k).sum();
        head as f64 / total as f64
    }
}

/// Distribution of per-ID precision requirements: `counts[b]` is the number
/// of stream IDs needing exactly `b+1` bits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrecisionDistribution {
    /// `counts[b]` = IDs needing exactly `b+1` bits.
    pub counts: Vec<u64>,
}

impl PrecisionDistribution {
    /// Computes the distribution over an encoded matrix.
    pub fn new(encoded: &EncodedMatrix) -> Self {
        Self::new_with(encoded, &ExecConfig::serial())
    }

    /// [`PrecisionDistribution::new`] with caller-chosen parallelism (same
    /// partial-count summation as [`IdHistogram::new_with`]).
    pub fn new_with(encoded: &EncodedMatrix, exec: &ExecConfig) -> Self {
        let ids = encoded.ids();
        let partials = par_map_ranges(ids.len(), exec, |range| {
            let mut counts = vec![0u64; 32];
            for &id in &ids[range] {
                counts[(bits_needed(id) - 1) as usize] += 1;
            }
            counts
        });
        let mut counts = vec![0u64; 32];
        for partial in partials {
            for (total, c) in counts.iter_mut().zip(partial) {
                *total += c;
            }
        }
        while counts.len() > 1 && *counts.last().unwrap() == 0 {
            counts.pop();
        }
        Self { counts }
    }
}

/// Summary of one packed matrix for reports and figure generators.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackingSummary {
    /// Unique chunks in the table.
    pub unique_chunks: usize,
    /// Reduction ratio (total ÷ unique chunks).
    pub reduction_ratio: f64,
    /// Uniform ID precision in bits.
    pub max_id_bits: u32,
    /// Raw weight bytes.
    pub raw_bytes: u64,
    /// Packed transfer bytes (stream + unique matrix).
    pub packed_bytes: u64,
    /// Compression ratio (raw ÷ packed).
    pub compression_ratio: f64,
    /// Average stream bits per ID including packet overheads.
    pub stream_bits_per_id: f64,
}

impl PackingSummary {
    /// Summarizes a packed matrix.
    pub fn of(packed: &PackedWeights) -> Self {
        let meta = packed.meta();
        let total = meta.total_ids.max(1) as f64;
        Self {
            unique_chunks: meta.unique_count,
            reduction_ratio: meta.total_ids as f64 / meta.unique_count.max(1) as f64,
            max_id_bits: meta.max_id_bits,
            raw_bytes: packed.raw_bits() / 8,
            packed_bytes: packed.transfer_bytes(),
            compression_ratio: packed.compression_ratio(),
            stream_bits_per_id: packed.stream().bit_len() as f64 / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decompose, ChunkConfig};
    use crate::encode::{PackingConfig, PackingLevel};
    use crate::reindex::frequency_reindex;
    use meadow_tensor::Matrix;

    fn skewed() -> Matrix<i8> {
        let mut rows = Vec::new();
        for r in 0..16i32 {
            let mut row = vec![1i8, 1, 1, 1, 1, 1, 1, 1];
            // a rare pair per late row
            if r > 12 {
                row[6] = r as i8;
                row[7] = (r + 1) as i8;
            }
            rows.push(row);
        }
        let refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&refs).unwrap()
    }

    /// Mean bits needed per ID.
    fn mean_bits(d: &PrecisionDistribution) -> f64 {
        let total: u64 = d.counts.iter().sum();
        let weighted: u64 = d.counts.iter().enumerate().map(|(b, &c)| (b as u64 + 1) * c).sum();
        weighted as f64 / total as f64
    }

    #[test]
    fn histogram_counts_everything() {
        let (unique, encoded) = decompose(&skewed(), ChunkConfig::default()).unwrap();
        let h = IdHistogram::new(&encoded, unique.len(), 4);
        let total: u64 = h.counts.iter().sum();
        assert_eq!(total, encoded.len() as u64);
    }

    #[test]
    fn reindexing_concentrates_head_mass() {
        let (unique, encoded) = decompose(&skewed(), ChunkConfig::default()).unwrap();
        let before = IdHistogram::new(&encoded, unique.len(), 4);
        let r = frequency_reindex(&unique, &encoded).unwrap();
        let after = IdHistogram::new(&r.encoded, r.unique.len(), 4);
        assert!(after.head_mass(1) >= before.head_mass(1));
        assert!(after.head_mass(1) > 0.9, "head mass {}", after.head_mass(1));
    }

    #[test]
    fn precision_distribution_mean_drops_after_reindex() {
        let (unique, encoded) = decompose(&skewed(), ChunkConfig::default()).unwrap();
        let before = mean_bits(&PrecisionDistribution::new(&encoded));
        let r = frequency_reindex(&unique, &encoded).unwrap();
        let after = mean_bits(&PrecisionDistribution::new(&r.encoded));
        assert!(after <= before, "mean bits {after} vs {before}");
    }

    #[test]
    fn summary_fields_are_consistent() {
        let w = skewed();
        let packed = crate::encode::PackedWeights::pack(
            &w,
            &PackingConfig::default(),
            PackingLevel::FrequencyAware,
        )
        .unwrap();
        let s = PackingSummary::of(&packed);
        assert_eq!(s.raw_bytes, (w.rows() * w.cols()) as u64);
        assert!(s.compression_ratio > 1.0);
        assert!(s.stream_bits_per_id > 0.0);
        assert!(s.reduction_ratio > 1.0);
    }

    #[test]
    fn parallel_stats_match_serial() {
        let (unique, encoded) = decompose(&skewed(), ChunkConfig::default()).unwrap();
        let serial_h = IdHistogram::new(&encoded, unique.len(), 4);
        let serial_d = PrecisionDistribution::new(&encoded);
        for threads in [2usize, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            assert_eq!(IdHistogram::new_with(&encoded, unique.len(), 4, &exec), serial_h);
            assert_eq!(PrecisionDistribution::new_with(&encoded, &exec), serial_d);
        }
    }

    #[test]
    fn empty_histogram_and_distribution() {
        let w = Matrix::<i8>::zeros(0, 0);
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        let h = IdHistogram::new(&encoded, unique.len(), 4);
        assert_eq!(h.head_mass(2), 0.0);
        let d = PrecisionDistribution::new(&encoded);
        assert_eq!(d.counts.iter().sum::<u64>(), 0);
    }
}
