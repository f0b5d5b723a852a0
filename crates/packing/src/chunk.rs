//! Chunk decomposition: weight matrix → unique matrix + encoded matrix
//! (§5.1, Fig. 4a of the paper).
//!
//! The inner (column) dimension of an `N×M` INT8 weight matrix is split into
//! chunks of `C` elements. Each distinct chunk value is stored once in the
//! [`UniqueMatrix`] and assigned an ID; the weight matrix becomes the
//! [`EncodedMatrix`] of IDs. The *reduction ratio* — total chunks over
//! unique chunks — measures the redundancy the paper reports at 10²–10³ for
//! OPT decoder weights.

use crate::error::PackingError;
use meadow_tensor::parallel::{par_map_ranges, ExecConfig};
use meadow_tensor::Matrix;
use serde::{Deserialize, JsonWriter, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Chunk-decomposition parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkConfig {
    /// Elements (INT8 values) per chunk. The paper's working point is 2
    /// elements (16 bits) per chunk: its reference MLP1 matrix decomposes
    /// into 1272 unique chunks with 11-bit IDs and a ≈1.4× naive packing
    /// gain, which pins `C·Q = 16` bits.
    pub chunk_elems: usize,
}

impl Default for ChunkConfig {
    fn default() -> Self {
        Self { chunk_elems: 2 }
    }
}

/// The deduplicated chunk table, stored flat: chunk `id` is
/// `data[id · C .. (id + 1) · C]` for `C = chunk_elems`, so the table is one
/// allocation however many chunks it holds.
///
/// It serializes as `{"chunks":[[..],..],"chunk_elems":n}`, one array per
/// chunk, and deserializes through [`UniqueMatrix::from_flat`], so a table
/// read back is checked exactly like one built in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniqueMatrix {
    data: Vec<i8>,
    /// Never zero: every constructor rejects an empty chunk shape.
    chunk_elems: usize,
}

impl UniqueMatrix {
    /// Builds a unique matrix from a flat chunk table, `chunk_elems` values
    /// per chunk in ID order (used by synthetic weight generators that
    /// control the decomposition directly).
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::ZeroChunkSize`] for an empty chunk shape and
    /// [`PackingError::InvalidStream`] if `data` does not split into whole
    /// chunks or holds a chunk twice.
    pub fn from_flat(data: Vec<i8>, chunk_elems: usize) -> Result<Self, PackingError> {
        if chunk_elems == 0 {
            return Err(PackingError::ZeroChunkSize);
        }
        if !data.len().is_multiple_of(chunk_elems) {
            return Err(PackingError::InvalidStream {
                reason: format!("{} values do not split into chunks of {chunk_elems}", data.len()),
            });
        }
        let mut seen =
            ChunkSet::with_capacity_and_hasher(data.len() / chunk_elems, Default::default());
        if let Some(c) = data.chunks_exact(chunk_elems).find(|&c| !seen.insert(c)) {
            return Err(PackingError::InvalidStream {
                reason: format!("duplicate chunk {c:?} in unique matrix"),
            });
        }
        Ok(Self { data, chunk_elems })
    }

    /// Number of unique chunks.
    pub fn len(&self) -> usize {
        self.data.len() / self.chunk_elems
    }

    /// Whether the table is empty (only for an empty source matrix).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Elements per chunk.
    pub(crate) fn chunk_elems(&self) -> usize {
        self.chunk_elems
    }

    /// The chunk with the given ID, if present.
    pub(crate) fn chunk(&self, id: usize) -> Option<&[i8]> {
        (id < self.len()).then(|| &self.data[id * self.chunk_elems..][..self.chunk_elems])
    }

    /// Size of the table in bytes as transferred from DRAM.
    pub fn size_bytes(&self) -> u64 {
        self.data.len() as u64
    }

    /// Applies a permutation: `new_table[perm[id]] = old_table[id]`.
    /// Used by frequency-aware re-indexing.
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::InvalidStream`] if `perm` is not a
    /// permutation of `0..len`.
    pub(crate) fn permuted(&self, perm: &[usize]) -> Result<UniqueMatrix, PackingError> {
        let n = self.len();
        if perm.len() != n {
            return Err(PackingError::InvalidStream {
                reason: format!(
                    "permutation length {} does not match {n} unique chunks",
                    perm.len()
                ),
            });
        }
        let c = self.chunk_elems;
        let mut data = vec![0; self.data.len()];
        let mut seen = vec![false; n];
        for (chunk, &new_id) in self.data.chunks_exact(c).zip(perm) {
            if new_id >= n || seen[new_id] {
                return Err(PackingError::InvalidStream {
                    reason: format!("invalid permutation target {new_id}"),
                });
            }
            seen[new_id] = true;
            data[new_id * c..][..c].copy_from_slice(chunk);
        }
        Ok(UniqueMatrix { data, chunk_elems: c })
    }
}

impl Serialize for UniqueMatrix {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.open_map();
        w.key("chunks");
        w.open_seq();
        for chunk in self.data.chunks_exact(self.chunk_elems) {
            w.element();
            chunk.write_json(w);
        }
        w.close_seq();
        w.key("chunk_elems");
        self.chunk_elems.write_json(w);
        w.close_map();
    }
}

impl Deserialize for UniqueMatrix {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let field =
            |name| v.get(name).ok_or_else(|| serde::Error::msg(format!("missing field `{name}`")));
        let chunks = Vec::<Vec<i8>>::from_value(field("chunks")?)?;
        let chunk_elems = usize::from_value(field("chunk_elems")?)?;
        // Check every length before flattening: a ragged table can still
        // have a total length that splits evenly.
        if let Some(c) = chunks.iter().find(|c| c.len() != chunk_elems) {
            return Err(serde::Error::msg(format!(
                "chunk of length {} in a table of {chunk_elems}",
                c.len()
            )));
        }
        Self::from_flat(chunks.concat(), chunk_elems).map_err(|e| serde::Error::msg(e.to_string()))
    }
}

/// The weight matrix re-expressed as chunk IDs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedMatrix {
    ids: Vec<u32>,
    rows: usize,
    chunk_cols: usize,
    chunk_elems: usize,
}

impl EncodedMatrix {
    /// Builds an encoded matrix from explicit IDs (used by the MAU decoder
    /// and by synthetic weight generators).
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::InvalidStream`] if `ids.len() != rows *
    /// chunk_cols`.
    pub fn from_ids(
        ids: Vec<u32>,
        rows: usize,
        chunk_cols: usize,
        chunk_elems: usize,
    ) -> Result<Self, PackingError> {
        if ids.len() != rows * chunk_cols {
            return Err(PackingError::InvalidStream {
                reason: format!("{} ids do not fill a {rows}x{chunk_cols} chunk grid", ids.len()),
            });
        }
        Ok(Self { ids, rows, chunk_cols, chunk_elems })
    }

    /// Crate-internal constructor used when IDs are recovered by the MAU
    /// decoder rather than by [`decompose`].
    pub(crate) fn from_parts(
        ids: Vec<u32>,
        rows: usize,
        chunk_cols: usize,
        chunk_elems: usize,
    ) -> Self {
        Self { ids, rows, chunk_cols, chunk_elems }
    }

    /// All IDs in row-major order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of weight-matrix rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Chunks per row (`M / C`).
    pub(crate) fn chunk_cols(&self) -> usize {
        self.chunk_cols
    }

    /// Elements per chunk.
    pub(crate) fn chunk_elems(&self) -> usize {
        self.chunk_elems
    }

    /// Total number of chunks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the encoding holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Rewrites every ID through `map` (old ID → new ID). Used by
    /// frequency-aware re-indexing.
    ///
    /// # Errors
    ///
    /// Returns [`PackingError::InvalidStream`] if an ID is outside `map`.
    pub(crate) fn remapped(&self, map: &[u32]) -> Result<EncodedMatrix, PackingError> {
        let mut ids = Vec::with_capacity(self.ids.len());
        for &id in &self.ids {
            let new = *map.get(id as usize).ok_or_else(|| PackingError::InvalidStream {
                reason: format!("id {id} outside remap table of {}", map.len()),
            })?;
            ids.push(new);
        }
        Ok(EncodedMatrix { ids, ..*self })
    }
}

/// Decomposes a weight matrix into its unique matrix and encoded form.
///
/// # Errors
///
/// Returns [`PackingError::ZeroChunkSize`] or [`PackingError::NotChunkable`]
/// for invalid chunk configurations.
pub fn decompose(
    w: &Matrix<i8>,
    config: ChunkConfig,
) -> Result<(UniqueMatrix, EncodedMatrix), PackingError> {
    decompose_with(w, config, &ExecConfig::serial())
}

/// [`decompose`] with caller-chosen parallelism.
///
/// Row ranges are decomposed independently on the worker threads of `exec`
/// (each building a local first-occurrence chunk table), then merged in row
/// order. Because a worker's table lists chunks in first-occurrence order
/// of its own rows, and workers are merged in row order skipping
/// already-seen chunks, the merged table reproduces the *global*
/// first-occurrence order exactly — IDs and table are bit-identical to the
/// serial [`decompose`] for every thread count.
///
/// # Errors
///
/// Returns [`PackingError::ZeroChunkSize`] or [`PackingError::NotChunkable`]
/// for invalid chunk configurations.
pub fn decompose_with(
    w: &Matrix<i8>,
    config: ChunkConfig,
    exec: &ExecConfig,
) -> Result<(UniqueMatrix, EncodedMatrix), PackingError> {
    if config.chunk_elems == 0 {
        return Err(PackingError::ZeroChunkSize);
    }
    if !w.cols().is_multiple_of(config.chunk_elems) {
        return Err(PackingError::NotChunkable { cols: w.cols(), chunk_elems: config.chunk_elems });
    }
    let chunk_cols = w.cols() / config.chunk_elems;
    // Per worker: local unique table (first-occurrence order) + local IDs.
    let locals = par_map_ranges(w.rows(), exec, |rows| {
        let mut table = ChunkTable::default();
        let mut chunks: Vec<&[i8]> = Vec::new();
        let mut ids = Vec::with_capacity(rows.len() * chunk_cols);
        for r in rows {
            for chunk in w.row(r).chunks(config.chunk_elems) {
                let id = match table.get(chunk) {
                    Some(&id) => id,
                    None => {
                        let id = chunks.len() as u32;
                        chunks.push(chunk);
                        // Map keys borrow from `w`, which outlives the map.
                        table.insert(chunk, id);
                        id
                    }
                };
                ids.push(id);
            }
        }
        (chunks, ids)
    });
    // Merge in row order: assign global IDs at global first occurrence.
    let mut table = ChunkTable::default();
    let mut data = Vec::new();
    let mut ids = Vec::with_capacity(w.rows() * chunk_cols);
    for (local_chunks, local_ids) in locals {
        let remap: Vec<u32> = local_chunks
            .into_iter()
            .map(|chunk| match table.get(chunk) {
                Some(&id) => id,
                None => {
                    let id = table.len() as u32;
                    data.extend_from_slice(chunk);
                    table.insert(chunk, id);
                    id
                }
            })
            .collect();
        ids.extend(local_ids.into_iter().map(|local| remap[local as usize]));
    }
    Ok((
        UniqueMatrix { data, chunk_elems: config.chunk_elems },
        EncodedMatrix { ids, rows: w.rows(), chunk_cols, chunk_elems: config.chunk_elems },
    ))
}

/// Chunk → ID lookup used while decomposing. IDs come from
/// first-occurrence order, never from the hasher, so the hasher changes
/// only speed.
type ChunkTable<'a> = HashMap<&'a [i8], u32, BuildHasherDefault<ChunkHasher>>;

/// The chunks a table holds, for [`UniqueMatrix::from_flat`]'s duplicate
/// check.
type ChunkSet<'a> = HashSet<&'a [i8], BuildHasherDefault<ChunkHasher>>;

/// Multiply-rotate hasher for chunk keys (the FxHash step). Chunks are a
/// few bytes each, where SipHash's set-up dominates a lookup. It gives up
/// SipHash's resistance to crafted collisions, which would only slow a
/// decomposition down, never change its result.
#[derive(Default)]
struct ChunkHasher(u64);

impl ChunkHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ChunkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Reconstructs the original weight matrix from its decomposition.
///
/// # Errors
///
/// Returns [`PackingError::InvalidStream`] if an ID is missing from the
/// unique matrix or shapes disagree.
pub fn reconstruct(
    unique: &UniqueMatrix,
    encoded: &EncodedMatrix,
) -> Result<Matrix<i8>, PackingError> {
    if unique.chunk_elems() != encoded.chunk_elems() {
        return Err(PackingError::InvalidStream {
            reason: "chunk size mismatch between unique and encoded matrices".into(),
        });
    }
    let cols = encoded.chunk_cols() * encoded.chunk_elems();
    let mut data = Vec::with_capacity(encoded.rows() * cols);
    for &id in encoded.ids() {
        let chunk = unique.chunk(id as usize).ok_or_else(|| PackingError::InvalidStream {
            reason: format!("id {id} missing from unique matrix of {}", unique.len()),
        })?;
        data.extend_from_slice(chunk);
    }
    Matrix::from_vec(encoded.rows(), cols, data)
        .map_err(|e| PackingError::InvalidStream { reason: e.to_string() })
}

/// Reduction ratio: total chunks ÷ unique chunks (higher = more redundancy).
pub fn reduction_ratio(unique: &UniqueMatrix, encoded: &EncodedMatrix) -> f64 {
    if unique.is_empty() {
        return 0.0;
    }
    encoded.len() as f64 / unique.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix<i8> {
        // Rows built from repeating 2-element chunks: [1,2] x3, [3,4],
        // then a second row reusing [1,2] and [3,4].
        Matrix::from_rows(&[&[1, 2, 1, 2, 1, 2, 3, 4], &[3, 4, 3, 4, 1, 2, 5, 6]]).unwrap()
    }

    #[test]
    fn decomposition_finds_unique_chunks() {
        let (unique, encoded) = decompose(&sample(), ChunkConfig::default()).unwrap();
        // Chunks: [1,2], [3,4], [5,6].
        assert_eq!(unique.len(), 3);
        assert_eq!(encoded.len(), 8);
        assert_eq!(encoded.ids(), &[0, 0, 0, 1, 1, 1, 0, 2]);
        assert_eq!(unique.chunk(0), Some(&[1i8, 2][..]));
        assert_eq!(unique.chunk(2), Some(&[5i8, 6][..]));
        assert!((reduction_ratio(&unique, &encoded) - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_is_exact() {
        let w = sample();
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        assert_eq!(reconstruct(&unique, &encoded).unwrap(), w);
    }

    #[test]
    fn chunk_size_must_divide_cols() {
        let w = Matrix::<i8>::zeros(2, 7);
        assert!(matches!(
            decompose(&w, ChunkConfig { chunk_elems: 2 }),
            Err(PackingError::NotChunkable { cols: 7, chunk_elems: 2 })
        ));
        assert!(matches!(
            decompose(&w, ChunkConfig { chunk_elems: 0 }),
            Err(PackingError::ZeroChunkSize)
        ));
    }

    #[test]
    fn single_valued_matrix_has_one_chunk() {
        let w = Matrix::<i8>::filled(16, 16, 7);
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        assert_eq!(unique.len(), 1);
        assert_eq!(reduction_ratio(&unique, &encoded), 128.0);
        assert_eq!(reconstruct(&unique, &encoded).unwrap(), w);
    }

    #[test]
    fn empty_matrix() {
        let w = Matrix::<i8>::zeros(0, 0);
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        assert!(unique.is_empty());
        assert!(encoded.is_empty());
        assert_eq!(reduction_ratio(&unique, &encoded), 0.0);
    }

    #[test]
    fn unique_matrix_size_accounting() {
        let (unique, _) = decompose(&sample(), ChunkConfig::default()).unwrap();
        assert_eq!(unique.size_bytes(), 6);
    }

    #[test]
    fn parallel_decompose_is_bit_identical() {
        // Chunks that first appear in different row regions, so the merge
        // order actually matters.
        let mut rows = Vec::new();
        for r in 0..32i32 {
            let mut row = Vec::new();
            for c in 0..16i32 {
                let v = ((r * 7 + c * 3) % 11) as i8;
                row.push(v);
                row.push(v.wrapping_sub((r % 5) as i8));
            }
            rows.push(row);
        }
        let refs: Vec<&[i8]> = rows.iter().map(Vec::as_slice).collect();
        let w = Matrix::from_rows(&refs).unwrap();
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        for threads in [1usize, 2, 3, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            let (pu, pe) = decompose_with(&w, ChunkConfig::default(), &exec).unwrap();
            assert_eq!(pu, unique, "unique table diverged at {threads} threads");
            assert_eq!(pe, encoded, "encoded ids diverged at {threads} threads");
        }
    }

    #[test]
    fn permutation_round_trip() {
        let w = sample();
        let (unique, encoded) = decompose(&w, ChunkConfig::default()).unwrap();
        // Swap IDs 0 and 2.
        let perm = [2usize, 1, 0];
        let permuted = unique.permuted(&perm).unwrap();
        let remapped = encoded.remapped(&[2, 1, 0]).unwrap();
        assert_eq!(reconstruct(&permuted, &remapped).unwrap(), w);
    }

    #[test]
    fn invalid_permutations_rejected() {
        let (unique, encoded) = decompose(&sample(), ChunkConfig::default()).unwrap();
        assert!(unique.permuted(&[0, 1]).is_err());
        assert!(unique.permuted(&[0, 0, 1]).is_err());
        assert!(unique.permuted(&[0, 1, 5]).is_err());
        assert!(encoded.remapped(&[0, 1]).is_err());
    }

    #[test]
    fn reconstruct_catches_dangling_ids() {
        let (unique, encoded) = decompose(&sample(), ChunkConfig::default()).unwrap();
        let bad = encoded.remapped(&[9, 9, 9]);
        // remapped itself succeeds (map covers ids), but reconstruction
        // against the original table fails.
        let bad = bad.unwrap();
        assert!(reconstruct(&unique, &bad).is_err());
    }

    #[test]
    fn flat_tables_are_validated() {
        let table = UniqueMatrix::from_flat(vec![1, 2, 3, 4], 2).unwrap();
        assert_eq!((table.len(), table.chunk(1), table.chunk(2)), (2, Some(&[3i8, 4][..]), None));
        assert_eq!(UniqueMatrix::from_flat(vec![1, 2], 0), Err(PackingError::ZeroChunkSize));
        for (data, elems) in [(vec![1, 2, 3], 2), (vec![1, 2, 3, 1, 2, 3], 3)] {
            let err = UniqueMatrix::from_flat(data, elems).unwrap_err();
            assert!(matches!(err, PackingError::InvalidStream { .. }), "{err}");
        }
    }

    #[test]
    fn json_keeps_one_array_per_chunk() {
        let (unique, _) = decompose(&sample(), ChunkConfig::default()).unwrap();
        let mut json = String::new();
        unique.write_json(&mut JsonWriter::compact(&mut json));
        assert_eq!(json, r#"{"chunks":[[1,2],[3,4],[5,6]],"chunk_elems":2}"#);
        let table = |chunks: &[&[i64]], elems| {
            let chunks =
                chunks.iter().map(|c| Value::Seq(c.iter().map(|&v| Value::I64(v)).collect()));
            let fields =
                [("chunks", Value::Seq(chunks.collect())), ("chunk_elems", Value::U64(elems))];
            Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let back = UniqueMatrix::from_value(&table(&[&[1, 2], &[3, 4], &[5, 6]], 2)).unwrap();
        assert_eq!(back, unique);
        // Ragged, duplicated and empty-shaped tables go through the same
        // checks as `from_flat`.
        for bad in [
            table(&[&[1, 2], &[3]], 2),
            table(&[&[1], &[2, 3, 4]], 2),
            table(&[&[1, 2], &[1, 2]], 2),
            table(&[&[]], 0),
            // A chunk size from the input is never trusted for an allocation.
            table(&[&[1]], 1 << 60),
        ] {
            assert!(UniqueMatrix::from_value(&bad).is_err(), "{bad:?}");
        }
    }
}
