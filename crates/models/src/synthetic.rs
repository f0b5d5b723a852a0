//! Synthetic weight generation calibrated to the paper's redundancy
//! statistics.
//!
//! Real SmoothQuant-quantized OPT weights are unavailable offline. What the
//! latency model needs from weights is exactly their *chunk redundancy
//! structure*: how many unique chunks a matrix decomposes into (Fig. 4a
//! reports reduction ratios of 10²–10³) and how chunk occurrences are
//! distributed (Fig. 10b shows heavy-tailed frequencies spread across the ID
//! range; quantized weights also exhibit *runs* of repeated chunks in
//! near-zero regions, which is what gives packet-specific precision its
//! advantage in Fig. 4b).
//!
//! [`generate_decomposition`] synthesizes a decomposition directly:
//!
//! * a pool of `U` distinct chunks ([`RedundancyProfile::unique_chunks`]),
//! * chunk frequencies following a Zipf law
//!   ([`RedundancyProfile::zipf_exponent`]),
//! * geometric run lengths ([`RedundancyProfile::mean_run_len`]),
//! * IDs assigned in *random* order relative to frequency rank (matching the
//!   paper's observation that frequent chunks land on arbitrary — often
//!   large — IDs before re-indexing, Fig. 10b),
//! * a coverage prefix enumerating every pool chunk once, so a materialized
//!   matrix decomposes to exactly `U` unique chunks.
//!
//! [`profile_for`] provides the per-matrix calibration; its anchor point is
//! the paper's decoder-1 MLP1 matrix of OPT-125M with exactly 1272 unique
//! chunks (Fig. 10a).
//!
//! The draw order defines the weights. A matrix is a pure function of its
//! seed and of the sequence of RNG draws: the pool, the rank shuffle, the
//! coverage shuffle, then a Zipf draw and a run-length draw per run. Speed
//! work must keep the order and the number of draws and may change only
//! how a draw's result is found, as [`ZipfSampler`]'s guide table, the
//! pool's bitmap and the once-per-matrix run-length constant do. The
//! statistics digests in `tests/packing_roundtrip.rs` pin the result.

use crate::config::{MatrixKind, TransformerConfig};
use crate::error::ModelError;
use meadow_packing::chunk::{reconstruct, EncodedMatrix, UniqueMatrix};
use meadow_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Redundancy statistics for one weight matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RedundancyProfile {
    /// Number of unique chunks the matrix decomposes into.
    pub unique_chunks: usize,
    /// Zipf exponent of the chunk-frequency distribution (higher = more
    /// skewed toward a few dominant chunks).
    pub zipf_exponent: f64,
    /// Mean length of runs of a repeated chunk (geometric distribution).
    pub mean_run_len: f64,
}

/// Calibrated redundancy profile for a given matrix of a model.
///
/// Anchors:
/// * OPT-125M decoder-1 MLP1 → exactly 1272 unique chunks (Fig. 10a).
/// * Reduction ratios decay with depth, spanning the 10²–10³ band of
///   Fig. 4a.
/// * Attention matrices are less redundant and less skewed than MLP
///   matrices, which is what keeps the whole-model packing gain near the
///   paper's ≈1.5× decode improvement while MLP1 alone reaches ≈2.6×.
pub fn profile_for(
    config: &TransformerConfig,
    kind: MatrixKind,
    layer: usize,
) -> RedundancyProfile {
    let (rows, cols) = config.matrix_dims(kind);
    let n_chunks = (rows * cols / 2).max(1) as f64;
    let depth = layer as f64 / config.layers.max(1) as f64;
    // Skew and run structure also decay with depth: early layers carry the
    // near-zero plateaus that pack well, deep layers look closer to noise.
    let (base_ratio, n_ref, zipf, run) = if kind.is_attention() {
        (120.0, 294_912.0, 1.01, 2.0)
    } else {
        (927.3, 1_179_648.0, 1.18 - 0.13 * depth, 16.0 - 10.0 * depth)
    };
    // Redundancy decays with depth: deeper layers have more diverse weights.
    let ratio = base_ratio / (1.0 + 4.0 * depth);
    // Unique-chunk counts grow sublinearly with matrix size (the value
    // distribution of a larger quantized matrix repeats itself), anchored at
    // the OPT-125M shapes.
    let unique_ref = n_ref / ratio;
    let unique = (unique_ref * (n_chunks / n_ref).powf(0.85)).round() as usize;
    RedundancyProfile {
        unique_chunks: unique.clamp(2, 60_000).min(n_chunks as usize),
        zipf_exponent: zipf,
        mean_run_len: run.max(1.0),
    }
}

/// Deterministic seed for a matrix's generator, derived from the model name,
/// matrix kind and layer (FNV-1a over the identifying string).
pub fn matrix_seed(config: &TransformerConfig, kind: MatrixKind, layer: usize) -> u64 {
    let ident = format!("{}/{kind:?}/{layer}", config.name);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in ident.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Inverse-CDF Zipf sampler over ranks `0..n` with exponent `s`.
///
/// A sample is the first rank whose CDF value reaches a uniform `u`
/// (`cdf.partition_point(|c| c < u)`), found through a guide table of `n`
/// buckets instead of a binary search. With `bucket(x) = min(⌊x·n⌋, n−1)`,
/// `guide[g]` is the first rank whose `bucket(cdf)` is at least `g`.
/// `bucket` is monotone, so every rank below `guide[bucket(u)]` has a CDF
/// value below `u`, and a forward scan from there stops at exactly the rank
/// the binary search finds. Skewed ranks make that scan a step or two.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Builds the sampler.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for `n == 0` or a non-finite or
    /// non-positive exponent.
    pub fn new(n: usize, s: f64) -> Result<Self, ModelError> {
        if n == 0 {
            return Err(ModelError::InvalidConfig { param: "zipf_n", reason: "zero ranks".into() });
        }
        if !s.is_finite() || s <= 0.0 {
            return Err(ModelError::InvalidConfig {
                param: "zipf_exponent",
                reason: format!("must be finite and positive, got {s}"),
            });
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let mut guide = Vec::with_capacity(n);
        let mut rank = 0;
        for g in 0..n {
            while rank < n && bucket(cdf[rank], n) < g {
                rank += 1;
            }
            guide.push(rank as u32);
        }
        Ok(Self { cdf, guide })
    }

    /// Samples a rank in `0..n`.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform draw `u` selects.
    fn rank_of(&self, u: f64) -> usize {
        let n = self.cdf.len();
        let mut rank = self.guide[bucket(u, n)] as usize;
        while rank < n && self.cdf[rank] < u {
            rank += 1;
        }
        rank.min(n - 1)
    }
}

/// The guide bucket of a CDF value or uniform draw `x` in `[0, 1]`:
/// `min(⌊x·n⌋, n−1)`, in f64 (the cast truncates, which is the floor for a
/// non-negative `x`).
fn bucket(x: f64, n: usize) -> usize {
    ((x * n as f64) as usize).min(n - 1)
}

/// Geometric run lengths with a given mean, drawn by inversion.
#[derive(Debug, Clone, Copy)]
struct RunLengths {
    /// `ln(1 − 1/mean)`, computed once per matrix; `None` for a mean of at
    /// most 1, where every run is one ID long and takes no draw.
    ln_q: Option<f64>,
}

impl RunLengths {
    fn new(mean: f64) -> Self {
        Self { ln_q: if mean <= 1.0 { None } else { Some((1.0 - 1.0 / mean).ln()) } }
    }

    fn sample<R: Rng>(self, rng: &mut R) -> usize {
        let Some(ln_q) = self.ln_q else { return 1 };
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        1 + (u.ln() / ln_q).floor() as usize
    }
}

/// Builds a flat pool of `count` distinct chunks of `chunk_elems` INT8
/// values, in the layout [`UniqueMatrix::from_flat`] takes.
///
/// `count` is clamped to the size of the chunk space (`256^chunk_elems`):
/// single-byte chunks, for instance, admit at most 256 distinct values.
fn build_pool<R: Rng>(rng: &mut R, count: usize, chunk_elems: usize) -> Vec<i8> {
    // 256^chunk_elems, saturating (space is effectively unbounded beyond
    // eight elements).
    let space = 256u128.checked_pow(chunk_elems.min(16) as u32).unwrap_or(u128::MAX);
    let count = (count as u128).min(space) as usize;
    if chunk_elems == 1 {
        // Enumerate-and-shuffle: rejection sampling would crawl as the pool
        // approaches the full 256-value space.
        let mut all: Vec<i8> = (0..=255u8).map(|v| v as i8).collect();
        shuffle(&mut all, rng);
        all.truncate(count);
        all
    } else if chunk_elems == 2 {
        // Chunk space is 65536 u16 patterns: rejection-sample distinct
        // patterns (counts stay well below the space in practice), marking
        // picks in a 65536-bit map.
        let mut picked = vec![0u64; 1 << 10];
        let mut pool = Vec::with_capacity(2 * count);
        while pool.len() < 2 * count {
            let v: u16 = rng.gen();
            let (word, bit) = (usize::from(v >> 6), 1u64 << (v & 63));
            if picked[word] & bit == 0 {
                picked[word] |= bit;
                pool.extend([(v & 0xFF) as u8 as i8, (v >> 8) as u8 as i8]);
            }
        }
        pool
    } else {
        let mut picked = std::collections::HashSet::with_capacity(count);
        let mut pool = Vec::with_capacity(count * chunk_elems);
        while pool.len() < count * chunk_elems {
            let chunk: Vec<i8> = (0..chunk_elems).map(|_| rng.gen::<u8>() as i8).collect();
            if picked.insert(chunk.clone()) {
                pool.extend_from_slice(&chunk);
            }
        }
        pool
    }
}

/// Generates a synthetic decomposition of a `rows × cols` INT8 matrix.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] for a zero chunk size, a column
/// count not divisible by the chunk size, or a degenerate profile.
pub fn generate_decomposition(
    rows: usize,
    cols: usize,
    profile: RedundancyProfile,
    chunk_elems: usize,
    seed: u64,
) -> Result<(UniqueMatrix, EncodedMatrix), ModelError> {
    if chunk_elems == 0 {
        return Err(ModelError::InvalidConfig { param: "chunk_elems", reason: "zero".into() });
    }
    if !cols.is_multiple_of(chunk_elems) {
        return Err(ModelError::InvalidConfig {
            param: "cols",
            reason: format!("{cols} not divisible by chunk size {chunk_elems}"),
        });
    }
    let chunk_cols = cols / chunk_elems;
    let total = rows * chunk_cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let u = profile.unique_chunks.clamp(1, total.max(1));
    if total == 0 {
        let unique = UniqueMatrix::from_flat(Vec::new(), chunk_elems)?;
        let encoded = EncodedMatrix::from_ids(Vec::new(), rows, chunk_cols, chunk_elems)?;
        return Ok((unique, encoded));
    }
    let pool = build_pool(&mut rng, u, chunk_elems);
    let u = pool.len() / chunk_elems;
    // Random rank → ID permutation: decouples frequency from ID value.
    let mut rank_to_id: Vec<u32> = (0..u as u32).collect();
    shuffle(&mut rank_to_id, &mut rng);
    let zipf = ZipfSampler::new(u, profile.zipf_exponent)?;
    let mut ids = Vec::with_capacity(total);
    // Coverage prefix: every chunk appears at least once, in shuffled order.
    let mut prefix: Vec<u32> = (0..u as u32).collect();
    shuffle(&mut prefix, &mut rng);
    ids.extend(prefix.into_iter().take(total));
    // Run-structured Zipf body.
    let runs = RunLengths::new(profile.mean_run_len);
    while ids.len() < total {
        let rank = zipf.sample(&mut rng);
        let id = rank_to_id[rank];
        let run = runs.sample(&mut rng).min(total - ids.len());
        ids.resize(ids.len() + run, id);
    }
    let unique = UniqueMatrix::from_flat(pool, chunk_elems)?;
    let encoded = EncodedMatrix::from_ids(ids, rows, chunk_cols, chunk_elems)?;
    Ok((unique, encoded))
}

/// Materializes the synthetic weight matrix itself (small configs / tests).
///
/// # Errors
///
/// Propagates generation errors.
pub fn generate_matrix(
    rows: usize,
    cols: usize,
    profile: RedundancyProfile,
    chunk_elems: usize,
    seed: u64,
) -> Result<Matrix<i8>, ModelError> {
    let (unique, encoded) = generate_decomposition(rows, cols, profile, chunk_elems, seed)?;
    Ok(reconstruct(&unique, &encoded)?)
}

fn shuffle<T, R: Rng>(xs: &mut [T], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use meadow_packing::chunk::reduction_ratio;

    #[test]
    fn anchor_point_mlp1_decoder1_has_1272_unique_chunks() {
        let c = presets::opt_125m();
        let p = profile_for(&c, MatrixKind::MlpUp, 0);
        assert_eq!(p.unique_chunks, 1272, "paper's Fig. 10a anchor");
    }

    #[test]
    fn reduction_ratios_span_the_paper_band() {
        // Fig. 4a: reduction ratios of order 10²–10³ across layers.
        for c in [presets::opt_125m(), presets::opt_1_3b()] {
            for layer in [0, c.layers / 2, c.layers - 1] {
                for kind in MatrixKind::all() {
                    let p = profile_for(&c, kind, layer);
                    let (rows, cols) = c.matrix_dims(kind);
                    let ratio = (rows * cols / 2) as f64 / p.unique_chunks as f64;
                    assert!(
                        (20.0..=1500.0).contains(&ratio),
                        "{} {kind:?} layer {layer}: ratio {ratio}",
                        c.name
                    );
                }
            }
        }
    }

    #[test]
    fn generated_decomposition_matches_profile() {
        let profile =
            RedundancyProfile { unique_chunks: 50, zipf_exponent: 1.2, mean_run_len: 8.0 };
        let (unique, encoded) = generate_decomposition(64, 64, profile, 2, 42).unwrap();
        assert_eq!(unique.len(), 50);
        assert_eq!(encoded.len(), 64 * 32);
        let r = reduction_ratio(&unique, &encoded);
        assert!((r - 2048.0 / 50.0).abs() < 1e-9);
        // Every ID in range.
        assert!(encoded.ids().iter().all(|&id| (id as usize) < 50));
        // Coverage: every chunk appears.
        let mut seen = vec![false; 50];
        for &id in encoded.ids() {
            seen[id as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn generation_is_deterministic() {
        let profile =
            RedundancyProfile { unique_chunks: 20, zipf_exponent: 1.1, mean_run_len: 4.0 };
        let a = generate_matrix(16, 32, profile, 2, 7).unwrap();
        let b = generate_matrix(16, 32, profile, 2, 7).unwrap();
        assert_eq!(a, b);
        let c = generate_matrix(16, 32, profile, 2, 8).unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn materialized_matrix_decomposes_to_the_same_unique_count() {
        let profile =
            RedundancyProfile { unique_chunks: 30, zipf_exponent: 1.3, mean_run_len: 6.0 };
        let w = generate_matrix(32, 32, profile, 2, 99).unwrap();
        let (unique, _) =
            meadow_packing::chunk::decompose(&w, meadow_packing::ChunkConfig { chunk_elems: 2 })
                .unwrap();
        assert_eq!(unique.len(), 30);
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let z = ZipfSampler::new(100, 1.3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[50].max(1));
        assert!(ZipfSampler::new(0, 1.0).is_err());
        assert!(ZipfSampler::new(10, 0.0).is_err());
        assert!(ZipfSampler::new(10, f64::NAN).is_err());
    }

    #[test]
    fn run_lengths_have_requested_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let runs = RunLengths::new(8.0);
        let total: usize = (0..n).map(|_| runs.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.5, "mean run {mean}");
        assert_eq!(RunLengths::new(1.0).sample(&mut rng), 1);
        assert_eq!(RunLengths::new(0.5).sample(&mut rng), 1);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let p = RedundancyProfile { unique_chunks: 4, zipf_exponent: 1.0001, mean_run_len: 1.0 };
        assert!(generate_decomposition(4, 7, p, 2, 0).is_err());
        assert!(generate_decomposition(4, 8, p, 0, 0).is_err());
    }

    #[test]
    fn seeds_differ_across_matrices() {
        let c = presets::opt_125m();
        let a = matrix_seed(&c, MatrixKind::Query, 0);
        let b = matrix_seed(&c, MatrixKind::Query, 1);
        let d = matrix_seed(&c, MatrixKind::Key, 0);
        assert_ne!(a, b);
        assert_ne!(a, d);
    }

    #[test]
    fn empty_matrix_generation() {
        let p = RedundancyProfile { unique_chunks: 4, zipf_exponent: 1.0001, mean_run_len: 1.0 };
        let (unique, encoded) = generate_decomposition(0, 0, p, 2, 0).unwrap();
        assert!(unique.is_empty());
        assert!(encoded.is_empty());
    }

    #[test]
    fn guided_zipf_rank_equals_the_binary_search() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, s) in [
            (1, 1.2),
            (2, 1.01),
            (7, 3.0),
            (1272, 1.18),
            (2458, 1.05),
            (12_000, 1.01),
            (60_000, 1.3),
        ] {
            let z = ZipfSampler::new(n, s).unwrap();
            let search = |u: f64| z.cdf.partition_point(|&c| c < u).min(n - 1);
            let below_one = 1.0 - f64::EPSILON / 2.0;
            let edges = [0.0, f64::MIN_POSITIVE, 0.5, below_one];
            // Each CDF value itself and its neighbours sit on bucket and
            // rank boundaries.
            let cdf_points =
                z.cdf.iter().flat_map(|&c| [c, c - c * f64::EPSILON, c + c * f64::EPSILON]);
            let draws = (0..20_000).map(|_| rng.gen::<f64>());
            for u in
                edges.into_iter().chain(cdf_points).chain(draws).filter(|u| (0.0..1.0).contains(u))
            {
                assert_eq!(z.rank_of(u), search(u), "n {n}, s {s}, u {u}");
            }
        }
    }
}
