//! LayerNorm reference, matching the decoder's LN modules.
//!
//! MEADOW's tile contains dedicated LN modules (Fig. 2a); functionally they
//! compute the standard `γ ⊙ (x - μ)/σ + β` over each token's features. The
//! simulator charges cycles for them; this module provides the arithmetic.

use crate::error::TensorError;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// LayerNorm parameters for one normalization site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerNormParams {
    /// Per-feature scale γ.
    pub gamma: Vec<f32>,
    /// Per-feature shift β.
    pub beta: Vec<f32>,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNormParams {
    /// Identity parameters (γ=1, β=0) over `features` features.
    pub fn identity(features: usize) -> Self {
        Self { gamma: vec![1.0; features], beta: vec![0.0; features], eps: 1e-5 }
    }
}

/// Applies LayerNorm to each row of `x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the parameter vectors do not
/// match `x.cols()` or γ and β disagree in length.
pub fn layernorm_rows(
    x: &Matrix<f32>,
    params: &LayerNormParams,
) -> Result<Matrix<f32>, TensorError> {
    if params.gamma.len() != x.cols() || params.beta.len() != x.cols() {
        return Err(TensorError::ShapeMismatch {
            lhs: x.shape(),
            rhs: (params.gamma.len(), params.beta.len()),
            op: "layernorm",
        });
    }
    let mut out = Vec::with_capacity(x.len());
    for r in 0..x.rows() {
        let row = x.row(r);
        let n = row.len() as f32;
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + params.eps).sqrt();
        for (j, &v) in row.iter().enumerate() {
            out.push((v - mean) * inv_std * params.gamma[j] + params.beta[j]);
        }
    }
    Matrix::from_vec(x.rows(), x.cols(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_params_normalize_to_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[&[1.0_f32, 2.0, 3.0, 4.0]]).unwrap();
        let y = layernorm_rows(&x, &LayerNormParams::identity(4)).unwrap();
        let mean: f32 = y.row(0).iter().sum::<f32>() / 4.0;
        let var: f32 = y.row(0).iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gamma_beta_affect_output() {
        let x = Matrix::from_rows(&[&[1.0_f32, -1.0]]).unwrap();
        let params = LayerNormParams { gamma: vec![2.0, 2.0], beta: vec![1.0, 1.0], eps: 1e-5 };
        let y = layernorm_rows(&x, &params).unwrap();
        let base = layernorm_rows(&x, &LayerNormParams::identity(2)).unwrap();
        for (a, b) in y.row(0).iter().zip(base.row(0)) {
            assert!((a - (2.0 * b + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_rows_do_not_divide_by_zero() {
        let x = Matrix::from_rows(&[&[3.0_f32, 3.0, 3.0]]).unwrap();
        let y = layernorm_rows(&x, &LayerNormParams::identity(3)).unwrap();
        assert!(y.row(0).iter().all(|v| v.is_finite() && v.abs() < 1e-2));
    }

    #[test]
    fn mismatched_params_rejected() {
        let x = Matrix::from_rows(&[&[1.0_f32, 2.0]]).unwrap();
        assert!(layernorm_rows(&x, &LayerNormParams::identity(3)).is_err());
    }

    #[test]
    fn rows_are_normalized_independently() {
        let x = Matrix::from_rows(&[&[1.0_f32, 2.0], &[100.0, 200.0]]).unwrap();
        let y = layernorm_rows(&x, &LayerNormParams::identity(2)).unwrap();
        for (a, b) in y.row(0).iter().zip(y.row(1)) {
            assert!((a - b).abs() < 1e-3, "rows with proportional values normalize identically");
        }
    }
}
