//! Frequency-aware re-indexing (§5.3, Fig. 4c of the paper).
//!
//! Chunk IDs are re-assigned so that the most frequent chunks get the
//! smallest IDs. After re-indexing, the encoded matrix is dominated by
//! low-valued IDs, which lets the packet-specific encoder choose low
//! precisions far more often.

use crate::chunk::{EncodedMatrix, UniqueMatrix};
use crate::error::PackingError;
use serde::{Deserialize, Serialize};

/// Output of a frequency-aware re-index pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReindexResult {
    /// The unique matrix permuted so `chunk(new_id)` is the re-indexed table.
    pub unique: UniqueMatrix,
    /// The encoded matrix rewritten in new IDs.
    pub encoded: EncodedMatrix,
    /// Mapping from old ID to new ID.
    pub old_to_new: Vec<u32>,
}

/// Re-assigns chunk IDs by descending frequency (ties broken by old ID for
/// determinism) and rewrites both matrices.
///
/// # Errors
///
/// Returns [`PackingError::InvalidStream`] if the encoded matrix references
/// IDs outside the unique matrix.
pub fn frequency_reindex(
    unique: &UniqueMatrix,
    encoded: &EncodedMatrix,
) -> Result<ReindexResult, PackingError> {
    let old_to_new = frequency_order(unique.len(), encoded.ids())?;
    let perm: Vec<usize> = old_to_new.iter().map(|&v| v as usize).collect();
    Ok(ReindexResult {
        unique: unique.permuted(&perm)?,
        encoded: encoded.remapped(&old_to_new)?,
        old_to_new,
    })
}

/// The frequency-aware format's ID order, shared by [`frequency_reindex`]
/// and [`PackedMeta::count`](crate::encode::PackedMeta::count): maps each
/// old ID in `0..unique_count` to its rank by (frequency in `ids`
/// descending, old ID ascending).
///
/// # Errors
///
/// Returns [`PackingError::InvalidStream`] for an ID outside
/// `0..unique_count`.
pub(crate) fn frequency_order(unique_count: usize, ids: &[u32]) -> Result<Vec<u32>, PackingError> {
    let mut freq = vec![0usize; unique_count];
    for &id in ids {
        let slot = freq.get_mut(id as usize).ok_or_else(|| PackingError::InvalidStream {
            reason: format!("id {id} outside unique matrix of {unique_count}"),
        })?;
        *slot += 1;
    }
    // A counting sort on frequency: an ID's rank is the number of more
    // frequent IDs plus the number of equally frequent, smaller old IDs.
    // Linear in the IDs; a comparison sort would look `freq` up at random
    // on every comparison.
    let mut next_rank = vec![0u32; freq.iter().max().map_or(0, |&f| f + 1)];
    for &f in &freq {
        next_rank[f] += 1;
    }
    let mut rank = 0;
    for slot in next_rank.iter_mut().rev() {
        let count = *slot;
        *slot = rank;
        rank += count;
    }
    Ok(freq
        .iter()
        .map(|&f| {
            next_rank[f] += 1;
            next_rank[f] - 1
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decompose, reconstruct, ChunkConfig};
    use meadow_tensor::Matrix;

    fn skewed() -> Matrix<i8> {
        // Chunk [9,9] appears 6 times, [1,1] twice, [2,2] once, [3,3] once.
        Matrix::from_rows(&[
            &[9, 9, 9, 9, 9, 9, 1, 1],
            &[9, 9, 9, 9, 9, 9, 1, 1],
            &[2, 2, 3, 3, 9, 9, 9, 9],
        ])
        .unwrap()
    }

    #[test]
    fn frequent_chunks_get_small_ids() {
        // Wait: [9,9] appears 6+2 = let me just rely on counting below.
        let (unique, encoded) = decompose(&skewed(), ChunkConfig::default()).unwrap();
        let res = frequency_reindex(&unique, &encoded).unwrap();
        // The most frequent chunk must be new ID 0.
        let mut freq = std::collections::HashMap::new();
        for &id in res.encoded.ids() {
            *freq.entry(id).or_insert(0u64) += 1;
        }
        let mut pairs: Vec<(u32, u64)> = freq.into_iter().collect();
        pairs.sort();
        // Frequencies must be non-increasing in new-ID order.
        for w in pairs.windows(2) {
            assert!(w[0].1 >= w[1].1, "ids not frequency-ordered: {pairs:?}");
        }
        assert_eq!(res.unique.chunk(0), Some(&[9i8, 9][..]));
    }

    #[test]
    fn reindexing_is_lossless() {
        let w = skewed();
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        let res = frequency_reindex(&unique, &encoded).unwrap();
        assert_eq!(reconstruct(&res.unique, &res.encoded).unwrap(), w);
    }

    #[test]
    fn mapping_is_a_permutation() {
        let (unique, encoded) = decompose(&skewed(), ChunkConfig::default()).unwrap();
        let res = frequency_reindex(&unique, &encoded).unwrap();
        let mut seen = vec![false; res.old_to_new.len()];
        for &v in &res.old_to_new {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn deterministic_tie_breaking() {
        // All chunks distinct → all frequencies 1 → order preserved.
        let w = Matrix::from_rows(&[&[1i8, 2, 3, 4, 5, 6]]).unwrap();
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        let res = frequency_reindex(&unique, &encoded).unwrap();
        assert_eq!(res.old_to_new, vec![0, 1, 2]);
    }

    #[test]
    fn empty_input() {
        let w = Matrix::<i8>::zeros(0, 0);
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        let res = frequency_reindex(&unique, &encoded).unwrap();
        assert!(res.old_to_new.is_empty());
        assert!(res.encoded.is_empty());
    }

    /// The frequency order by its definition: sort old IDs by (frequency
    /// descending, old ID ascending).
    fn sorted_order(unique_count: usize, ids: &[u32]) -> Vec<u32> {
        let mut freq = vec![0u64; unique_count];
        for &id in ids {
            freq[id as usize] += 1;
        }
        let mut order: Vec<usize> = (0..unique_count).collect();
        order.sort_by(|&a, &b| freq[b].cmp(&freq[a]).then(a.cmp(&b)));
        let mut old_to_new = vec![0u32; unique_count];
        for (rank, &old) in order.iter().enumerate() {
            old_to_new[old] = rank as u32;
        }
        old_to_new
    }

    #[test]
    fn counting_order_matches_the_sorted_definition() {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for unique_count in [0usize, 1, 2, 5, 64, 1000] {
            for len in [0usize, 1, 7, 300, 5000] {
                if unique_count == 0 && len > 0 {
                    continue;
                }
                // Skewed IDs with many ties and some IDs never used.
                let ids: Vec<u32> = (0..len)
                    .map(|_| {
                        let (a, b) = (next() % unique_count as u64, next() % unique_count as u64);
                        a.min(b) as u32
                    })
                    .collect();
                let got = frequency_order(unique_count, &ids).unwrap();
                assert_eq!(got, sorted_order(unique_count, &ids), "{unique_count} ids, {len} long");
            }
        }
        assert!(frequency_order(3, &[0, 3]).is_err());
    }
}
