//! INT8×INT8→INT32 matrix multiplication: the arithmetic core of every
//! GEMM-mode layer in MEADOW.
//!
//! Three entry points are provided:
//!
//! * [`matmul_i8`] — the straightforward reference, kept as the oracle the
//!   faster kernels are tested against.
//! * [`matmul_i8_bt`] (and [`matmul_i8_bt_with`]) — `a × bTᵀ` with the
//!   right operand stored transposed, one row per output column. Every
//!   linear layer of the functional forward runs through it, so it is the
//!   forward pass's hot path. It widens the activations to `i16` once per
//!   call and each weight row once per worker, then runs the same
//!   16-accumulator dot as [`dot_i8`] over `i16` operands, which LLVM
//!   lowers to `pmaddwd` on baseline x86-64. Widening once is the point:
//!   sign-extending INT8 operands inside every dot costs more than the
//!   multiply-adds themselves.
//! * [`matmul_i8_tiled`] — a blocked version that visits the index space in
//!   the same tile order the hardware executor does.
//!
//! INT32 addition over exact INT8 products is associative, so every entry
//! point is bit-identical to the reference for every shape, tiling and
//! thread count — a property the dataflow crate's equivalence tests rely
//! on.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::parallel::{par_map_ranges, ExecConfig};

/// Multiplies `a (M×K) × b (K×N)` with INT32 accumulation.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// # use meadow_tensor::{Matrix, gemm};
/// let a = Matrix::<i8>::from_rows(&[&[1, -2]]).unwrap();
/// let b = Matrix::<i8>::from_rows(&[&[3], &[4]]).unwrap();
/// let c = gemm::matmul_i8(&a, &b).unwrap();
/// assert_eq!(c.as_slice(), &[-5]);
/// ```
pub fn matmul_i8(a: &Matrix<i8>, b: &Matrix<i8>) -> Result<Matrix<i32>, TensorError> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch { lhs: a.shape(), rhs: b.shape(), op: "matmul" });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::<i32>::zeros(m, n);
    for i in 0..m {
        let arow = a.row(i);
        let orow = out.row_mut(i);
        for (p, &av) in arow.iter().enumerate().take(k) {
            let brow = b.row(p);
            let av = i32::from(av);
            for (j, &bv) in brow.iter().enumerate() {
                orow[j] += av * i32::from(bv);
            }
        }
    }
    Ok(out)
}

/// Multiplies `a (M×K) × bT` where `bT` is the **transpose** of the right
/// operand, i.e. `bT` has shape `N×K` and the result is `a × bTᵀ` of shape
/// `M×N`.
///
/// This is the natural layout for the attention-score computation
/// `Q (T×HD) × Kᵀ (HD×T)` when `K` is stored row-major per token.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b_t.cols()`.
pub fn matmul_i8_bt(a: &Matrix<i8>, b_t: &Matrix<i8>) -> Result<Matrix<i32>, TensorError> {
    matmul_i8_bt_with(a, b_t, &ExecConfig::serial())
}

/// [`matmul_i8_bt`] with caller-chosen parallelism: output rows are
/// partitioned across the worker threads of `exec`.
///
/// The activations are widened to `i16` once per call. Each worker then
/// widens every weight row once and dots it against its own output rows,
/// so weights stream through the cache once per worker rather than once
/// per output row. Each output element is one exact dot computed by
/// exactly one worker, so the result is bit-identical to [`matmul_i8`]
/// for every thread count.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `a.cols() != b_t.cols()`.
pub fn matmul_i8_bt_with(
    a: &Matrix<i8>,
    b_t: &Matrix<i8>,
    exec: &ExecConfig,
) -> Result<Matrix<i32>, TensorError> {
    if a.cols() != b_t.cols() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b_t.shape(),
            op: "matmul_bt",
        });
    }
    let (m, k) = a.shape();
    let n = b_t.rows();
    let a16: Vec<i16> = a.as_slice().iter().map(|&v| i16::from(v)).collect();
    let blocks = par_map_ranges(m, exec, |rows| {
        let mut block = vec![0; rows.len() * n];
        let mut w16 = Vec::with_capacity(k);
        for j in 0..n {
            w16.clear();
            w16.extend(b_t.row(j).iter().map(|&v| i16::from(v)));
            for (r, i) in rows.clone().enumerate() {
                block[r * n + j] = dot_lanes(&a16[i * k..(i + 1) * k], &w16);
            }
        }
        block
    });
    Matrix::from_vec(m, n, concat_blocks(blocks, m * n))
}

/// Stitches per-range row blocks into one flat buffer; the single-block
/// (serial) case hands its buffer through without copying, keeping the
/// default path allocation-identical to a direct write.
fn concat_blocks(mut blocks: Vec<Vec<i32>>, total: usize) -> Vec<i32> {
    if blocks.len() == 1 {
        return blocks.pop().expect("len checked");
    }
    let mut data = Vec::with_capacity(total);
    for block in blocks {
        data.extend_from_slice(&block);
    }
    data
}

/// Exact INT32 dot product of two INT8 slices.
///
/// # Panics
///
/// Panics if the slices have different lengths (programmer error: the caller
/// owns both layouts).
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "dot product of mismatched lengths");
    dot_lanes(a, b)
}

/// Independent INT32 partial sums in [`dot_lanes`]: enough for LLVM to
/// keep the body in vector registers.
const LANES: usize = 16;

/// Exact INT32 dot product over [`LANES`] lane accumulators plus a scalar
/// tail. Integer addition is associative, so the result equals the
/// sequential sum bit for bit. The caller checks that the lengths match.
fn dot_lanes<T: Copy>(a: &[T], b: &[T]) -> i32
where
    i32: From<T>,
{
    let body = a.len() - a.len() % LANES;
    let (a_body, a_tail) = a.split_at(body);
    let (b_body, b_tail) = b.split_at(body);
    let mut acc = [0i32; LANES];
    for (x, y) in a_body.chunks_exact(LANES).zip(b_body.chunks_exact(LANES)) {
        for ((s, &x), &y) in acc.iter_mut().zip(x).zip(y) {
            *s += i32::from(x) * i32::from(y);
        }
    }
    let tail: i32 = a_tail.iter().zip(b_tail).map(|(&x, &y)| i32::from(x) * i32::from(y)).sum();
    acc.iter().sum::<i32>() + tail
}

/// Blocked GEMM with caller-chosen tile sizes, bit-identical to [`matmul_i8`].
///
/// The loop nest visits `(row tile, col tile, k tile)` in the order MEADOW's
/// GEMM-mode executor streams tiles through the PE array, so functional tests
/// that compare against hardware-order execution exercise the same traversal.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree and
/// [`TensorError::ZeroParameter`] if any tile size is zero.
pub fn matmul_i8_tiled(
    a: &Matrix<i8>,
    b: &Matrix<i8>,
    tile_m: usize,
    tile_n: usize,
    tile_k: usize,
) -> Result<Matrix<i32>, TensorError> {
    matmul_i8_tiled_with(a, b, tile_m, tile_n, tile_k, &ExecConfig::serial())
}

/// [`matmul_i8_tiled`] with caller-chosen parallelism: row-tile blocks are
/// partitioned across the worker threads of `exec`.
///
/// Partition boundaries always fall on `tile_m` multiples, so every worker
/// traverses its rows in exactly the serial tile order, and each output row
/// is accumulated by exactly one worker. INT32 addition over exact INT8
/// products is order-safe per row partition, so the result is bit-identical
/// to the serial reference for every thread count — the property the
/// workspace's equivalence suite checks exhaustively.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the inner dimensions disagree
/// and [`TensorError::ZeroParameter`] if any tile size is zero.
pub fn matmul_i8_tiled_with(
    a: &Matrix<i8>,
    b: &Matrix<i8>,
    tile_m: usize,
    tile_n: usize,
    tile_k: usize,
    exec: &ExecConfig,
) -> Result<Matrix<i32>, TensorError> {
    if tile_m == 0 {
        return Err(TensorError::ZeroParameter { name: "tile_m" });
    }
    if tile_n == 0 {
        return Err(TensorError::ZeroParameter { name: "tile_n" });
    }
    if tile_k == 0 {
        return Err(TensorError::ZeroParameter { name: "tile_k" });
    }
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "matmul_tiled",
        });
    }
    let m = a.rows();
    let n = b.cols();
    let row_tiles = m.div_ceil(tile_m);
    let blocks = par_map_ranges(row_tiles, exec, |tiles| {
        let rows = tiles.start * tile_m..(tiles.end * tile_m).min(m);
        tiled_row_block(a, b, rows, tile_m, tile_n, tile_k)
    });
    Matrix::from_vec(m, n, concat_blocks(blocks, m * n))
}

/// Serial tiled GEMM over the output rows `rows` (which must start on a
/// `tile_m` boundary), returned as a flat row-major block.
fn tiled_row_block(
    a: &Matrix<i8>,
    b: &Matrix<i8>,
    rows: std::ops::Range<usize>,
    tile_m: usize,
    tile_n: usize,
    tile_k: usize,
) -> Vec<i32> {
    debug_assert!(rows.start.is_multiple_of(tile_m), "row block misaligned to tile_m");
    let k = a.cols();
    let n = b.cols();
    let base = rows.start;
    let mut block = vec![0i32; rows.len() * n];
    let mut i0 = rows.start;
    while i0 < rows.end {
        let i1 = (i0 + tile_m).min(rows.end);
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + tile_n).min(n);
            let mut p0 = 0;
            while p0 < k {
                let p1 = (p0 + tile_k).min(k);
                for i in i0..i1 {
                    let arow = a.row(i);
                    let orow = &mut block[(i - base) * n..(i - base + 1) * n];
                    for (p, &aval) in arow.iter().enumerate().take(p1).skip(p0) {
                        let av = i32::from(aval);
                        let brow = b.row(p);
                        for j in j0..j1 {
                            orow[j] += av * i32::from(brow[j]);
                        }
                    }
                }
                p0 = p1;
            }
            j0 = j1;
        }
        i0 = i1;
    }
    block
}

/// Requantizes a single INT32 accumulator value to INT8:
/// `clamp(round(acc * multiplier), -128, 127)`.
///
/// Both the matrix-level GEMM path and the per-element PE path use this
/// exact function, which is what makes GEMM-vs-TPHS functional equivalence
/// bit-exact.
pub fn requantize_value(acc: i32, multiplier: f32) -> i8 {
    let scaled = (acc as f64 * f64::from(multiplier)).round();
    scaled.clamp(-128.0, 127.0) as i8
}

/// Requantizes an INT32 accumulator matrix back to INT8.
///
/// `out = clamp(round(acc * multiplier), -128, 127)` where
/// `multiplier = scale_in * scale_w / scale_out` in a full W8A8 pipeline.
///
/// # Errors
///
/// Returns [`TensorError::InvalidScale`] if `multiplier` is not finite or is
/// not positive.
pub fn requantize_i32(acc: &Matrix<i32>, multiplier: f32) -> Result<Matrix<i8>, TensorError> {
    if !multiplier.is_finite() || multiplier <= 0.0 {
        return Err(TensorError::InvalidScale { scale: multiplier });
    }
    let data = acc.as_slice().iter().map(|&v| requantize_value(v, multiplier)).collect();
    Matrix::from_vec(acc.rows(), acc.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Matrix<i8>, Matrix<i8>) {
        let a = Matrix::from_rows(&[&[1_i8, 2, 3], &[-4, 5, -6]]).unwrap();
        let b = Matrix::from_rows(&[&[7_i8, -8], &[9, 10], &[-11, 12]]).unwrap();
        (a, b)
    }

    #[test]
    fn reference_matmul() {
        let (a, b) = small();
        let c = matmul_i8(&a, &b).unwrap();
        // Hand-computed.
        assert_eq!(c.row(0), &[7 + 18 - 33, -8 + 20 + 36]);
        assert_eq!(c.row(1), &[-28 + 45 + 66, 32 + 50 - 72]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = Matrix::<i8>::zeros(2, 3);
        let b = Matrix::<i8>::zeros(2, 3);
        assert!(matches!(matmul_i8(&a, &b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn bt_matches_explicit_transpose() {
        let (a, b) = small();
        let via_bt = matmul_i8_bt(&a, &b.transposed()).unwrap();
        let direct = matmul_i8(&a, &b).unwrap();
        assert_eq!(via_bt, direct);
    }

    #[test]
    fn tiled_matches_reference_for_many_tilings() {
        let (a, b) = small();
        let reference = matmul_i8(&a, &b).unwrap();
        for tm in 1..=3 {
            for tn in 1..=3 {
                for tk in 1..=4 {
                    let tiled = matmul_i8_tiled(&a, &b, tm, tn, tk).unwrap();
                    assert_eq!(tiled, reference, "tiling ({tm},{tn},{tk}) diverged");
                }
            }
        }
    }

    #[test]
    fn parallel_tiled_is_bit_identical() {
        let (a, b) = small();
        let reference = matmul_i8(&a, &b).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            for tm in 1..=3 {
                let par = matmul_i8_tiled_with(&a, &b, tm, 2, 2, &exec).unwrap();
                assert_eq!(par, reference, "threads {threads} tile_m {tm}");
            }
            let bt = matmul_i8_bt_with(&a, &b.transposed(), &exec).unwrap();
            assert_eq!(bt, reference, "bt threads {threads}");
        }
    }

    #[test]
    fn parallel_empty_and_mismatch() {
        let exec = ExecConfig::with_threads(4);
        let empty = Matrix::<i8>::zeros(0, 3);
        let b = Matrix::<i8>::zeros(3, 2);
        let out = matmul_i8_tiled_with(&empty, &b, 2, 2, 2, &exec).unwrap();
        assert_eq!(out.shape(), (0, 2));
        let bad = Matrix::<i8>::zeros(2, 2);
        assert!(matmul_i8_tiled_with(&bad, &b, 2, 2, 2, &exec).is_err());
        assert!(matmul_i8_bt_with(&bad, &b.transposed(), &exec).is_err());
    }

    #[test]
    fn zero_tile_rejected() {
        let (a, b) = small();
        assert!(matches!(
            matmul_i8_tiled(&a, &b, 0, 1, 1),
            Err(TensorError::ZeroParameter { name: "tile_m" })
        ));
    }

    #[test]
    fn extreme_values_do_not_overflow_i32() {
        // 128 * 127 * K with K large enough to matter: i8 min * i8 max = -16256;
        // 4096 of them = -66,584,576 which fits i32 comfortably.
        let k = 4096;
        let a = Matrix::from_vec(1, k, vec![i8::MIN; k]).unwrap();
        let b = Matrix::from_vec(k, 1, vec![i8::MAX; k]).unwrap();
        let c = matmul_i8(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[i32::from(i8::MIN) * i32::from(i8::MAX) * k as i32]);
    }

    #[test]
    fn requantize_rounds_and_clamps() {
        let acc = Matrix::from_rows(&[&[100_i32, -100, 1_000_000, -1_000_000]]).unwrap();
        let q = requantize_i32(&acc, 0.05).unwrap();
        assert_eq!(q.as_slice(), &[5, -5, 127, -128]);
        assert!(requantize_i32(&acc, 0.0).is_err());
        assert!(requantize_i32(&acc, f32::NAN).is_err());
    }

    #[test]
    fn dot_product_basics() {
        assert_eq!(dot_i8(&[1, 2, 3], &[4, 5, 6]), 32);
        assert_eq!(dot_i8(&[], &[]), 0);
    }
}
