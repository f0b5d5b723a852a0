//! Numerically stable softmax: exact reference and the LUT-based form
//! computed by MEADOW's pipelined softmax module.
//!
//! The paper's SM module (Fig. 2d, Eq. 1) computes, per token,
//! `SM_i = exp(x_i - max) / Σ_j exp(x_j - max)` in three pipelined stages
//! (MAX → EXP → DIV), with the exponent taken from an on-chip LUT.
//! [`softmax_row_exact`] is the float reference; [`softmax_row_lut`]
//! reproduces the LUT datapath bit-for-bit against the simulator's softmax
//! unit.

use crate::error::TensorError;
use crate::fixed::ExpLut;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Which softmax implementation a dataflow executor should use.
///
/// Both the GEMM baseline and the TPHS pipeline accept this so functional
/// equivalence can be asserted under identical arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SoftmaxKind {
    /// Exact `f32` softmax.
    #[default]
    Exact,
    /// Fixed-point EXP-LUT softmax as computed by the hardware SM module.
    Lut,
}

/// Exact numerically-stable softmax over one slice.
///
/// Returns all-zeros for an empty slice.
pub fn softmax_row_exact(row: &[f32]) -> Vec<f32> {
    if row.is_empty() {
        return Vec::new();
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum > 0.0 {
        exps.into_iter().map(|e| e / sum).collect()
    } else {
        vec![1.0 / row.len() as f32; row.len()]
    }
}

/// LUT-based numerically-stable softmax over one slice, mirroring the
/// MAX → EXP → DIV stages of the hardware module.
pub fn softmax_row_lut(row: &[f32], lut: &ExpLut) -> Vec<f32> {
    if row.is_empty() {
        return Vec::new();
    }
    // MAX stage: running maximum over F features.
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // EXP stage: LUT lookup of exp(x - max) plus running sum.
    let exps: Vec<f32> = row.iter().map(|&v| lut.eval(v - max)).collect();
    let sum: f32 = exps.iter().sum();
    // DIV stage.
    if sum > 0.0 {
        exps.into_iter().map(|e| e / sum).collect()
    } else {
        vec![1.0 / row.len() as f32; row.len()]
    }
}

/// Applies softmax independently to each row of a matrix.
fn softmax_rows(m: &Matrix<f32>, kind: SoftmaxKind, lut: &ExpLut) -> Matrix<f32> {
    let mut out = Vec::with_capacity(m.len());
    for r in 0..m.rows() {
        let sm = match kind {
            SoftmaxKind::Exact => softmax_row_exact(m.row(r)),
            SoftmaxKind::Lut => softmax_row_lut(m.row(r), lut),
        };
        out.extend(sm);
    }
    Matrix::from_vec(m.rows(), m.cols(), out).expect("same shape as input")
}

/// Softmax over INT32 attention scores with a dequantization scale, returning
/// probabilities quantized to UINT8-style INT8 in `[0, 127]`.
///
/// This matches the on-chip datapath: scores arrive as INT32 accumulator
/// values, are dequantized by `score_scale`, pushed through the SM module and
/// requantized so the broadcasting PEs can consume INT8 probabilities.
///
/// # Errors
///
/// Returns [`TensorError::InvalidScale`] if `score_scale` is not finite and
/// positive.
pub fn softmax_scores_i32(
    scores: &Matrix<i32>,
    score_scale: f32,
    kind: SoftmaxKind,
    lut: &ExpLut,
) -> Result<(Matrix<i8>, f32), TensorError> {
    if !score_scale.is_finite() || score_scale <= 0.0 {
        return Err(TensorError::InvalidScale { scale: score_scale });
    }
    let dequant = Matrix::from_vec(
        scores.rows(),
        scores.cols(),
        scores.as_slice().iter().map(|&v| v as f32 * score_scale).collect(),
    )
    .expect("same shape");
    let probs = softmax_rows(&dequant, kind, lut);
    // Probabilities live in [0, 1]; quantize with scale 1/127.
    let prob_scale = 1.0 / 127.0;
    let q = Matrix::from_vec(
        probs.rows(),
        probs.cols(),
        probs.as_slice().iter().map(|&p| (p * 127.0).round().clamp(0.0, 127.0) as i8).collect(),
    )
    .expect("same shape");
    Ok((q, prob_scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn exact_softmax_sums_to_one() {
        let sm = softmax_row_exact(&[1.0, 2.0, 3.0, 4.0]);
        let sum: f32 = sm.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(sm.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn exact_softmax_is_shift_invariant() {
        let a = softmax_row_exact(&[1.0, 2.0, 3.0]);
        let b = softmax_row_exact(&[1001.0, 1002.0, 1003.0]);
        assert_close(&a, &b, 1e-6);
    }

    #[test]
    fn exact_softmax_survives_extremes() {
        let sm = softmax_row_exact(&[f32::NEG_INFINITY, 0.0]);
        assert_close(&sm, &[0.0, 1.0], 1e-6);
        let huge = softmax_row_exact(&[1e30, 1e30]);
        assert_close(&huge, &[0.5, 0.5], 1e-6);
    }

    #[test]
    fn lut_softmax_tracks_exact() {
        let lut = ExpLut::hardware_default();
        let row = [0.3_f32, -1.2, 2.5, 0.0, -4.0, 1.1];
        let exact = softmax_row_exact(&row);
        let approx = softmax_row_lut(&row, &lut);
        assert_close(&exact, &approx, 0.02);
        let sum: f32 = approx.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_rows_are_fine() {
        assert!(softmax_row_exact(&[]).is_empty());
        assert!(softmax_row_lut(&[], &ExpLut::hardware_default()).is_empty());
    }

    #[test]
    fn matrix_softmax_is_per_row() {
        let m = Matrix::from_rows(&[&[0.0_f32, 0.0], &[10.0, 0.0]]).unwrap();
        let sm = softmax_rows(&m, SoftmaxKind::Exact, &ExpLut::hardware_default());
        assert_close(sm.row(0), &[0.5, 0.5], 1e-6);
        assert!(sm.row(1)[0] > 0.99);
    }

    #[test]
    fn score_softmax_quantizes_probabilities() {
        let scores = Matrix::from_rows(&[&[100_i32, 0, -100]]).unwrap();
        let (q, scale) =
            softmax_scores_i32(&scores, 0.02, SoftmaxKind::Exact, &ExpLut::hardware_default())
                .unwrap();
        assert!(q.as_slice().iter().all(|&v| v >= 0));
        let total: f32 = q.as_slice().iter().map(|&v| f32::from(v) * scale).sum();
        assert!((total - 1.0).abs() < 0.05, "quantized probs sum {total}");
        assert!(softmax_scores_i32(&scores, -1.0, SoftmaxKind::Exact, &ExpLut::default()).is_err());
    }

    #[test]
    fn uniform_fallback_when_sum_underflows() {
        // All entries equal → all max-shifted args are 0 → fine; force the
        // degenerate path with an empty-ish LUT range instead.
        let sm = softmax_row_exact(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert_close(&sm, &[0.5, 0.5], 1e-6);
    }
}
