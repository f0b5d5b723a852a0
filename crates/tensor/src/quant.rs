//! Symmetric INT8 quantization.
//!
//! The paper evaluates OPT models quantized with SmoothQuant to W8A8
//! (§6.1). Real SmoothQuant checkpoints are unavailable offline and the
//! workspace synthesizes INT8 weights directly, so no scale migration is
//! modelled: [`quantize_symmetric`] performs the symmetric INT8 rounding
//! under a per-tensor [`QuantScale`].

use crate::error::TensorError;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A symmetric quantization parameter: `real = scale * int8`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantScale(f32);

impl QuantScale {
    /// Creates a scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidScale`] unless `scale` is finite and
    /// strictly positive.
    pub fn new(scale: f32) -> Result<Self, TensorError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(TensorError::InvalidScale { scale });
        }
        Ok(Self(scale))
    }

    /// The raw scale value.
    pub fn value(self) -> f32 {
        self.0
    }

    /// Scale that maps the given maximum absolute value onto 127.
    ///
    /// A zero `max_abs` (all-zero tensor) falls back to scale 1.0 so that
    /// quantization stays well-defined.
    pub fn from_max_abs(max_abs: f32) -> Self {
        if max_abs > 0.0 && max_abs.is_finite() {
            Self(max_abs / 127.0)
        } else {
            Self(1.0)
        }
    }
}

impl Default for QuantScale {
    fn default() -> Self {
        Self(1.0)
    }
}

/// Quantizes an `f32` matrix symmetrically to INT8 with the given scale.
pub fn quantize_symmetric(m: &Matrix<f32>, scale: QuantScale) -> Matrix<i8> {
    let s = scale.value();
    let data = m.as_slice().iter().map(|&v| ((v / s).round()).clamp(-127.0, 127.0) as i8).collect();
    Matrix::from_vec(m.rows(), m.cols(), data).expect("same shape as input")
}

/// Quantizes with a scale derived from the matrix's own max-abs value.
///
/// Returns the quantized matrix and the scale used.
pub fn quantize_auto(m: &Matrix<f32>) -> (Matrix<i8>, QuantScale) {
    let scale = QuantScale::from_max_abs(m.max_abs());
    (quantize_symmetric(m, scale), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_validation() {
        assert!(QuantScale::new(0.1).is_ok());
        assert!(QuantScale::new(0.0).is_err());
        assert!(QuantScale::new(-1.0).is_err());
        assert!(QuantScale::new(f32::INFINITY).is_err());
        assert_eq!(QuantScale::default().value(), 1.0);
    }

    #[test]
    fn from_max_abs_maps_to_full_range() {
        let s = QuantScale::from_max_abs(12.7);
        assert!((s.value() - 0.1).abs() < 1e-6);
        // Degenerate inputs fall back to 1.0.
        assert_eq!(QuantScale::from_max_abs(0.0).value(), 1.0);
        assert_eq!(QuantScale::from_max_abs(f32::NAN).value(), 1.0);
    }

    #[test]
    fn quantize_round_trip_error_is_bounded() {
        let m = Matrix::from_rows(&[&[0.9_f32, -0.45, 0.05, 1.0, -1.0]]).unwrap();
        let (q, s) = quantize_auto(&m);
        let d = q.dequantize(s.value());
        for (orig, deq) in m.as_slice().iter().zip(d.as_slice()) {
            assert!((orig - deq).abs() <= s.value() / 2.0 + 1e-6);
        }
    }

    #[test]
    fn quantize_saturates_at_127() {
        let m = Matrix::from_rows(&[&[10.0_f32, -10.0]]).unwrap();
        let q = quantize_symmetric(&m, QuantScale::new(0.01).unwrap());
        assert_eq!(q.as_slice(), &[127, -127]);
    }
}
