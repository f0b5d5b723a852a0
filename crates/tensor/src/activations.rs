//! Nonlinear activation functions served by the tile's NL modules.
//!
//! The paper's NL modules implement ReLU/GELU (Fig. 2a). OPT uses ReLU in its
//! MLP; ViTs (DeiT) use GELU. Both are provided in exact `f32` form plus an
//! INT8 in/out form matching the on-chip datapath.

use serde::{Deserialize, Serialize};

/// Which nonlinearity an MLP block applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit (OPT decoder MLP).
    #[default]
    Relu,
    /// Gaussian error linear unit, tanh approximation (DeiT MLP).
    Gelu,
}

impl Activation {
    /// Applies the activation to a single `f32`.
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Gelu => {
                // tanh approximation used by common inference stacks.
                const SQRT_2_OVER_PI: f32 = 0.797_884_6;
                0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
            }
        }
    }

    /// Applies the activation to an INT8 value under symmetric scale `scale`,
    /// requantizing with the same scale (the on-chip NL module keeps the
    /// quantization grid).
    pub fn apply_i8(self, x: i8, scale: f32) -> i8 {
        let real = f32::from(x) * scale;
        let y = self.apply(real);
        (y / scale).round().clamp(-128.0, 127.0) as i8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
    }

    #[test]
    fn gelu_matches_known_values() {
        // GELU(0) = 0, GELU is ≈ identity for large x, ≈ 0 for very negative x.
        let g = Activation::Gelu;
        assert!(g.apply(0.0).abs() < 1e-6);
        assert!((g.apply(6.0) - 6.0).abs() < 1e-2);
        assert!(g.apply(-6.0).abs() < 1e-2);
        // Known midpoint: GELU(1) ≈ 0.8412.
        assert!((g.apply(1.0) - 0.8412).abs() < 5e-3);
    }

    #[test]
    fn int8_path_preserves_relu_semantics() {
        assert_eq!(Activation::Relu.apply_i8(-50, 0.1), 0);
        assert_eq!(Activation::Relu.apply_i8(50, 0.1), 50);
    }

    #[test]
    fn int8_path_never_overflows() {
        for x in i8::MIN..=i8::MAX {
            let _ = Activation::Gelu.apply_i8(x, 0.05);
            let _ = Activation::Relu.apply_i8(x, 10.0);
        }
    }

    #[test]
    fn gelu_is_monotone_for_nonnegative_inputs() {
        // GELU has a shallow dip near x ≈ -0.75, so it is only monotone on
        // x ≥ 0; the dip itself is bounded by ≈ -0.17.
        let g = Activation::Gelu;
        let mut prev = f32::NEG_INFINITY;
        for i in 0..=40 {
            let v = g.apply(i as f32 * 0.1);
            assert!(v >= prev - 1e-4);
            prev = v;
        }
        for i in -40..0 {
            assert!(g.apply(i as f32 * 0.1) >= -0.2);
        }
    }
}
