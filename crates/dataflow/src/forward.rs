//! Full functional forward pass of decoder layers under either execution
//! mode.
//!
//! [`crate::functional`] proves GEMM-vs-TPHS equivalence for the attention
//! chain in isolation; this module assembles whole decoder layers —
//! LayerNorm → attention → projection → residual → LayerNorm → MLP →
//! residual — and whole models, so a downstream user can actually *run*
//! tokens through synthesized weights under both modes and observe identical
//! outputs. Everything stays in the W8A8 domain: activations are INT8 with
//! per-tensor scales, accumulation is INT32, and normalization happens in
//! `f32` on dequantized values exactly as the LN modules do.

use crate::error::DataflowError;
use crate::functional::{
    attention_reference, attention_tphs_functional, AttentionProblem, AttentionScales,
};
use meadow_models::weights::{LayerWeights, ModelWeights};
use meadow_models::{MatrixKind, TransformerConfig};
use meadow_tensor::fixed::ExpLut;
use meadow_tensor::gemm::{matmul_i8_bt, requantize_i32};
use meadow_tensor::layernorm::{layernorm_rows, LayerNormParams};
use meadow_tensor::parallel::{par_map, ExecConfig};
use meadow_tensor::softmax::SoftmaxKind;
use meadow_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Which execution mode computes the attention chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ForwardMode {
    /// Matrix-level GEMM reference.
    Gemm,
    /// TPHS head-sequential pipeline through the PE models.
    Tphs {
        /// Tokens processed in parallel per wave.
        token_parallelism: usize,
    },
}

/// Uniform activation scale used across the functional forward pass. One
/// shared scale keeps both modes on the identical quantization grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForwardScales {
    /// Activation scale (inputs, residuals, layer outputs).
    pub activation: f32,
    /// Weight scale for every matrix.
    pub weight: f32,
}

impl Default for ForwardScales {
    fn default() -> Self {
        Self { activation: 0.04, weight: 0.02 }
    }
}

impl ForwardScales {
    fn requant_multiplier(&self) -> f32 {
        // acc · (act · w) / act = acc · w — outputs share the input grid.
        self.weight * self.activation / self.activation * self.weight / self.weight
    }

    fn attention_scales(&self) -> AttentionScales {
        AttentionScales {
            x: self.activation,
            wq: self.weight,
            q: self.activation,
            k: self.activation,
            v: self.activation,
            out: self.activation,
        }
    }
}

fn linear(
    x: &Matrix<i8>,
    w: &Matrix<i8>,
    scales: &ForwardScales,
) -> Result<Matrix<i8>, DataflowError> {
    let acc = matmul_i8_bt(x, w)?;
    Ok(requantize_i32(&acc, scales.requant_multiplier())?)
}

fn residual_add(a: &Matrix<i8>, b: &Matrix<i8>) -> Result<Matrix<i8>, DataflowError> {
    if a.shape() != b.shape() {
        return Err(DataflowError::Schedule {
            reason: format!("residual shapes {:?} vs {:?}", a.shape(), b.shape()),
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (i16::from(x) + i16::from(y)).clamp(-128, 127) as i8)
        .collect();
    Ok(Matrix::from_vec(a.rows(), a.cols(), data)?)
}

fn layernorm_i8(x: &Matrix<i8>, scales: &ForwardScales) -> Result<Matrix<i8>, DataflowError> {
    let real = x.dequantize(scales.activation);
    let normed = layernorm_rows(&real, &LayerNormParams::identity(x.cols()))?;
    let data = normed
        .as_slice()
        .iter()
        .map(|&v| (v / scales.activation).round().clamp(-128.0, 127.0) as i8)
        .collect();
    Ok(Matrix::from_vec(x.rows(), x.cols(), data)?)
}

/// Runs one decoder layer forward.
///
/// # Errors
///
/// Propagates shape and arithmetic errors from the underlying kernels.
pub fn decoder_layer_forward(
    x: &Matrix<i8>,
    weights: &LayerWeights,
    config: &TransformerConfig,
    mode: ForwardMode,
    scales: &ForwardScales,
    lut: &ExpLut,
) -> Result<Matrix<i8>, DataflowError> {
    // LN1.
    let normed = layernorm_i8(x, scales)?;
    // K/V projections are GEMM-mode in both plans (§6.1).
    let k_cache = linear(&normed, weights.matrix(MatrixKind::Key), scales)?;
    let v_cache = linear(&normed, weights.matrix(MatrixKind::Value), scales)?;
    // Attention chain: the part the two modes compute differently.
    let problem = AttentionProblem {
        x: normed.clone(),
        wq: weights.matrix(MatrixKind::Query).clone(),
        k_cache,
        v_cache,
        heads: config.heads,
        scales: scales.attention_scales(),
        softmax: SoftmaxKind::Exact,
    };
    let attn = match mode {
        ForwardMode::Gemm => attention_reference(&problem, lut)?,
        ForwardMode::Tphs { token_parallelism } => {
            attention_tphs_functional(&problem, token_parallelism, lut)?.0
        }
    };
    // Projection + residual.
    let proj = linear(&attn, weights.matrix(MatrixKind::Proj), scales)?;
    let x = residual_add(x, &proj)?;
    // LN2 + MLP + residual.
    let normed = layernorm_i8(&x, scales)?;
    let mut mid = linear(&normed, weights.matrix(MatrixKind::MlpUp), scales)?;
    for v in mid.as_mut_slice() {
        *v = config.activation.apply_i8(*v, scales.activation);
    }
    let down = linear(&mid, weights.matrix(MatrixKind::MlpDown), scales)?;
    residual_add(&x, &down)
}

/// Runs every layer of a materialized model forward.
///
/// # Errors
///
/// Propagates layer errors.
pub fn model_forward(
    x: &Matrix<i8>,
    weights: &ModelWeights,
    mode: ForwardMode,
    scales: &ForwardScales,
    lut: &ExpLut,
) -> Result<Matrix<i8>, DataflowError> {
    let mut state = x.clone();
    for layer in 0..weights.num_layers() {
        state = decoder_layer_forward(
            &state,
            weights.layer(layer),
            &weights.config,
            mode,
            scales,
            lut,
        )?;
    }
    Ok(state)
}

/// Runs independent sequences through the model concurrently: one scoped
/// worker per sequence (dynamically dispatched, results in input order).
/// Each sequence itself runs the serial forward path, so outputs are
/// bit-identical to mapping [`model_forward`] over `inputs`.
///
/// This is the request-level fan-out a batching server would use.
///
/// # Errors
///
/// Returns the first sequence error in input order.
pub fn batch_model_forward(
    inputs: &[Matrix<i8>],
    weights: &ModelWeights,
    mode: ForwardMode,
    scales: &ForwardScales,
    lut: &ExpLut,
    exec: &ExecConfig,
) -> Result<Vec<Matrix<i8>>, DataflowError> {
    par_map(inputs, exec, |x| model_forward(x, weights, mode, scales, lut)).into_iter().collect()
}

/// Sanity helper: fraction of elements that differ between two activations.
pub fn mismatch_fraction(a: &Matrix<i8>, b: &Matrix<i8>) -> f64 {
    if a.shape() != b.shape() || a.is_empty() {
        return 1.0;
    }
    let diff = a.as_slice().iter().zip(b.as_slice()).filter(|(x, y)| x != y).count();
    diff as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tokens(t: usize, d: usize, seed: u64) -> Matrix<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<i8> = (0..t * d).map(|_| rng.gen_range(-50..=50)).collect();
        Matrix::from_vec(t, d, data).unwrap()
    }

    #[test]
    fn layer_forward_is_mode_invariant() {
        let config = presets::tiny_decoder();
        let weights = ModelWeights::synthesize(&config).unwrap();
        let lut = ExpLut::hardware_default();
        let x = random_tokens(6, config.d_model, 17);
        let scales = ForwardScales::default();
        let gemm =
            decoder_layer_forward(&x, weights.layer(0), &config, ForwardMode::Gemm, &scales, &lut)
                .unwrap();
        for parallelism in [1usize, 3, 8] {
            let tphs = decoder_layer_forward(
                &x,
                weights.layer(0),
                &config,
                ForwardMode::Tphs { token_parallelism: parallelism },
                &scales,
                &lut,
            )
            .unwrap();
            assert_eq!(tphs, gemm, "P={parallelism}");
        }
    }

    #[test]
    fn whole_model_forward_is_mode_invariant() {
        let config = presets::tiny_decoder();
        let weights = ModelWeights::synthesize(&config).unwrap();
        let lut = ExpLut::hardware_default();
        let x = random_tokens(4, config.d_model, 29);
        let scales = ForwardScales::default();
        let gemm = model_forward(&x, &weights, ForwardMode::Gemm, &scales, &lut).unwrap();
        let tphs =
            model_forward(&x, &weights, ForwardMode::Tphs { token_parallelism: 4 }, &scales, &lut)
                .unwrap();
        assert_eq!(mismatch_fraction(&gemm, &tphs), 0.0);
        assert!(gemm.as_slice().iter().any(|&v| v != 0));
    }

    #[test]
    fn batch_forward_matches_per_sequence_forward() {
        let config = presets::tiny_decoder();
        let weights = ModelWeights::synthesize(&config).unwrap();
        let lut = ExpLut::hardware_default();
        let scales = ForwardScales::default();
        let inputs: Vec<Matrix<i8>> =
            (0..5).map(|i| random_tokens(3 + i, config.d_model, 50 + i as u64)).collect();
        let expected: Vec<Matrix<i8>> = inputs
            .iter()
            .map(|x| model_forward(x, &weights, ForwardMode::Gemm, &scales, &lut).unwrap())
            .collect();
        for threads in [1usize, 4] {
            let exec = ExecConfig::with_threads(threads);
            let batch =
                batch_model_forward(&inputs, &weights, ForwardMode::Gemm, &scales, &lut, &exec)
                    .unwrap();
            assert_eq!(batch, expected, "threads {threads}");
        }
    }

    #[test]
    fn forward_changes_the_activations() {
        let config = presets::tiny_decoder();
        let weights = ModelWeights::synthesize(&config).unwrap();
        let lut = ExpLut::hardware_default();
        let x = random_tokens(4, config.d_model, 31);
        let y = model_forward(&x, &weights, ForwardMode::Gemm, &ForwardScales::default(), &lut)
            .unwrap();
        assert_ne!(x, y);
        assert_eq!(x.shape(), y.shape());
    }

    #[test]
    fn residual_add_saturates() {
        let a = Matrix::from_rows(&[&[120i8, -120]]).unwrap();
        let b = Matrix::from_rows(&[&[120i8, -120]]).unwrap();
        let c = residual_add(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[127, -128]);
        let bad = Matrix::<i8>::zeros(2, 2);
        assert!(residual_add(&a, &bad).is_err());
    }

    #[test]
    fn mismatch_fraction_metrics() {
        let a = Matrix::from_rows(&[&[1i8, 2, 3, 4]]).unwrap();
        let mut b = a.clone();
        assert_eq!(mismatch_fraction(&a, &b), 0.0);
        b.as_mut_slice()[0] = 9;
        assert_eq!(mismatch_fraction(&a, &b), 0.25);
        assert_eq!(mismatch_fraction(&a, &Matrix::<i8>::zeros(2, 2)), 1.0);
    }
}
