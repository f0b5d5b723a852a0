//! Numeric invariants of the tensor substrate: GEMM against a naive
//! reference, softmax normalization and LayerNorm moments.

use meadow_tensor::fixed::ExpLut;
use meadow_tensor::gemm::{dot_i8, matmul_i8, matmul_i8_bt, matmul_i8_tiled};
use meadow_tensor::layernorm::{layernorm_rows, LayerNormParams};
use meadow_tensor::softmax::{softmax_row_exact, softmax_row_lut};
use meadow_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_i8_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<i8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-128i16..=127) as i8).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

fn random_f32_matrix(rows: usize, cols: usize, span: f32, seed: u64) -> Matrix<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-span..span)).collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

/// The obviously-correct triple loop, written independently of the library's
/// traversal order.
fn naive_matmul(a: &Matrix<i8>, b: &Matrix<i8>) -> Matrix<i32> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::<i32>::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += i32::from(*a.get(i, p).unwrap()) * i32::from(*b.get(p, j).unwrap());
            }
            *out.get_mut(i, j).unwrap() = acc;
        }
    }
    out
}

#[test]
fn gemm_matches_naive_reference() {
    for (m, k, n, seed) in [(1, 1, 1, 1u64), (3, 5, 7, 2), (16, 16, 16, 3), (13, 31, 9, 4)] {
        let a = random_i8_matrix(m, k, seed);
        let b = random_i8_matrix(k, n, seed + 100);
        let expected = naive_matmul(&a, &b);
        assert_eq!(matmul_i8(&a, &b).unwrap(), expected, "matmul_i8 {m}x{k}x{n}");
    }
}

#[test]
fn tiled_gemm_is_bit_identical_for_every_tiling() {
    let a = random_i8_matrix(13, 21, 7);
    let b = random_i8_matrix(21, 17, 8);
    let expected = naive_matmul(&a, &b);
    // Tile sizes that divide the dims, that don't, and that exceed them.
    for (tm, tn, tk) in [(1, 1, 1), (4, 4, 4), (5, 3, 8), (13, 17, 21), (64, 64, 64)] {
        assert_eq!(
            matmul_i8_tiled(&a, &b, tm, tn, tk).unwrap(),
            expected,
            "tiling ({tm},{tn},{tk}) must not change the result"
        );
    }
}

#[test]
fn transposed_gemm_matches_reference() {
    // Inner dimensions below, at and past the 16-lane dot body, with and
    // without a tail, plus the OPT-scale 773.
    let shapes = [
        (6, 12, 10, 11u64),
        (3, 15, 5, 21),
        (4, 16, 7, 22),
        (5, 17, 3, 23),
        (2, 33, 9, 24),
        (7, 64, 6, 25),
        (3, 773, 4, 26),
    ];
    for (m, k, n, seed) in shapes {
        let a = random_i8_matrix(m, k, seed);
        let b = random_i8_matrix(k, n, seed + 100);
        let expected = naive_matmul(&a, &b);
        assert_eq!(matmul_i8_bt(&a, &b.transposed()).unwrap(), expected, "{m}x{k}x{n}");
    }
}

#[test]
fn gemm_rejects_shape_mismatch() {
    let a = random_i8_matrix(2, 3, 1);
    let b = random_i8_matrix(4, 2, 2);
    assert!(matmul_i8(&a, &b).is_err());
    assert!(matmul_i8_bt(&a, &random_i8_matrix(4, 5, 3)).is_err());
    assert!(matmul_i8_tiled(&a, &random_i8_matrix(3, 2, 4), 0, 1, 1).is_err(), "zero tile");
}

#[test]
fn dot_product_handles_extreme_values_exactly() {
    // 256 × (-128 × -128) stresses the widest accumulation the INT8 domain
    // can produce; it must stay exact in INT32.
    let a = vec![-128i8; 256];
    assert_eq!(dot_i8(&a, &a), 256 * 128 * 128);
    let b = vec![127i8; 256];
    assert_eq!(dot_i8(&a, &b), 256 * -128 * 127);
    assert_eq!(dot_i8(&[], &[]), 0);
    // 4099 = 256 full 16-lane passes plus a 3-element tail.
    let long = vec![-128i8; 4099];
    assert_eq!(dot_i8(&long, &long), 4099 * 128 * 128);
}

#[test]
fn softmax_rows_sum_to_one() {
    let lut = ExpLut::hardware_default();
    let mut rng = StdRng::seed_from_u64(42);
    for len in [1usize, 2, 17, 128, 512] {
        let row: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0..10.0)).collect();
        for (name, sm) in [("exact", softmax_row_exact(&row)), ("lut", softmax_row_lut(&row, &lut))]
        {
            let sum: f32 = sm.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "{name} softmax of {len} sums to {sum}");
            assert!(sm.iter().all(|&p| (0.0..=1.0).contains(&p)), "{name} probabilities");
        }
    }
}

#[test]
fn softmax_is_stable_under_large_magnitudes() {
    // Without the running-max subtraction these inputs overflow exp().
    let row = vec![1000.0f32, 1001.0, 999.0];
    let sm = softmax_row_exact(&row);
    let sum: f32 = sm.iter().sum();
    assert!((sum - 1.0).abs() < 1e-5);
    assert!(sm.iter().all(|p| p.is_finite()));
    // The largest logit gets the largest probability.
    assert!(sm[1] > sm[0] && sm[0] > sm[2]);
}

#[test]
fn softmax_degenerate_rows() {
    assert!(softmax_row_exact(&[]).is_empty());
    let uniform = softmax_row_exact(&[3.5; 8]);
    for p in uniform {
        assert!((p - 0.125).abs() < 1e-6, "constant row must be uniform");
    }
}

#[test]
fn layernorm_normalizes_every_row_to_zero_mean_unit_variance() {
    let x = random_f32_matrix(6, 64, 50.0, 21);
    let y = layernorm_rows(&x, &LayerNormParams::identity(64)).unwrap();
    for r in 0..y.rows() {
        let row = y.row(r);
        let n = row.len() as f32;
        let mean: f32 = row.iter().sum::<f32>() / n;
        let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
        assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
        assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
    }
}

#[test]
fn layernorm_applies_gamma_and_beta_affinely() {
    let x = random_f32_matrix(3, 16, 5.0, 22);
    let identity = layernorm_rows(&x, &LayerNormParams::identity(16)).unwrap();
    let params = LayerNormParams {
        gamma: (0..16).map(|j| 0.5 + j as f32 * 0.1).collect(),
        beta: (0..16).map(|j| j as f32 - 8.0).collect(),
        eps: 1e-5,
    };
    let scaled = layernorm_rows(&x, &params).unwrap();
    for r in 0..x.rows() {
        for j in 0..16 {
            let expected = identity.row(r)[j] * params.gamma[j] + params.beta[j];
            let got = scaled.row(r)[j];
            assert!((got - expected).abs() < 1e-4, "({r},{j}): {got} vs {expected}");
        }
    }
}

#[test]
fn layernorm_rejects_mismatched_params() {
    let x = random_f32_matrix(2, 8, 1.0, 23);
    assert!(layernorm_rows(&x, &LayerNormParams::identity(9)).is_err());
}
