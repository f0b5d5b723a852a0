//! Whole-model functional forward passes: MEADOW-mode execution (TPHS
//! attention) must produce bit-identical activations to all-GEMM execution
//! on materialized synthetic models.

mod common;

use common::fnv1a64;
use meadow::dataflow::forward::{
    decoder_layer_forward, mismatch_fraction, model_forward, ForwardMode, ForwardScales,
};
use meadow::models::presets;
use meadow::models::weights::ModelWeights;
use meadow::tensor::fixed::ExpLut;
use meadow::tensor::Matrix;
use proptest::prelude::*;
use std::sync::OnceLock;

fn tiny_weights() -> &'static ModelWeights {
    static W: OnceLock<ModelWeights> = OnceLock::new();
    W.get_or_init(|| ModelWeights::synthesize(&presets::tiny_decoder()).expect("synthesizable"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn model_forward_equivalence(
        tokens in 1..=8usize,
        parallelism in 1..=6usize,
        data_seed in any::<u64>(),
    ) {
        let weights = tiny_weights();
        let d = weights.config.d_model;
        let data: Vec<i8> = (0..tokens * d)
            .map(|i| (((data_seed >> (i % 48)) as i64 + i as i64) % 101 - 50) as i8)
            .collect();
        let x = Matrix::from_vec(tokens, d, data).unwrap();
        let lut = ExpLut::hardware_default();
        let scales = ForwardScales::default();
        let gemm = model_forward(&x, weights, ForwardMode::Gemm, &scales, &lut).unwrap();
        let tphs = model_forward(
            &x,
            weights,
            ForwardMode::Tphs { token_parallelism: parallelism },
            &scales,
            &lut,
        )
        .unwrap();
        prop_assert_eq!(mismatch_fraction(&gemm, &tphs), 0.0);
    }
}

#[test]
fn layer_outputs_depend_on_layer_weights() {
    let weights = tiny_weights();
    let config = &weights.config;
    let lut = ExpLut::hardware_default();
    let x = Matrix::from_vec(
        3,
        config.d_model,
        (0..3 * config.d_model).map(|i| (i % 37) as i8 - 18).collect(),
    )
    .unwrap();
    let scales = ForwardScales::default();
    let l0 = decoder_layer_forward(&x, weights.layer(0), config, ForwardMode::Gemm, &scales, &lut)
        .unwrap();
    let l1 = decoder_layer_forward(&x, weights.layer(1), config, ForwardMode::Gemm, &scales, &lut)
        .unwrap();
    assert_ne!(l0, l1, "different layers must transform differently");
}

#[test]
fn forward_is_deterministic() {
    let weights = tiny_weights();
    let lut = ExpLut::hardware_default();
    let x = Matrix::from_vec(
        2,
        weights.config.d_model,
        (0..2 * weights.config.d_model).map(|i| (i % 19) as i8 - 9).collect(),
    )
    .unwrap();
    let scales = ForwardScales::default();
    let a = model_forward(&x, weights, ForwardMode::Gemm, &scales, &lut).unwrap();
    let b = model_forward(&x, weights, ForwardMode::Gemm, &scales, &lut).unwrap();
    assert_eq!(a, b);
}

/// `(seed, tokens, digest)`: FNV-1a/64 of the serialized `model_forward`
/// output for a seeded input, recorded before the INT8 dot kernels were
/// rewritten for vectorization. GEMM and TPHS execution must both
/// reproduce it. Integer sums of INT8 products are exact in any order, so
/// a kernel change that moves a digest is a bug, not a new baseline.
const FROZEN_FORWARDS: [(u64, usize, &str); 3] =
    [(1, 3, "31ba9015f442b7f7"), (7, 11, "dd5f593b09ed71ae"), (42, 17, "9018a22b4f0a5e4e")];

/// A `tokens × d` INT8 input drawn from a std-only xorshift64 stream.
fn seeded_input(seed: u64, tokens: usize, d: usize) -> Matrix<i8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..tokens * d)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as i8
        })
        .collect();
    Matrix::from_vec(tokens, d, data).unwrap()
}

#[test]
fn forward_outputs_match_frozen_digests() {
    let weights = tiny_weights();
    let lut = ExpLut::hardware_default();
    let scales = ForwardScales::default();
    for (seed, tokens, want) in FROZEN_FORWARDS {
        let x = seeded_input(seed, tokens, weights.config.d_model);
        for mode in [ForwardMode::Gemm, ForwardMode::Tphs { token_parallelism: 4 }] {
            let out = model_forward(&x, weights, mode, &scales, &lut).unwrap();
            let got = fnv1a64(&serde_json::to_string(&out).unwrap());
            assert_eq!(got, want, "seed {seed}, {tokens} tokens, {mode:?}");
        }
    }
}
