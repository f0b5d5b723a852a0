//! Functional execution of the attention block under both dataflows.
//!
//! The latency models in [`crate::gemm`] and [`crate::tphs`] work from
//! dimensions; this module runs *actual INT8 numbers* through the two
//! dataflows and proves they agree bit-for-bit. The GEMM reference computes
//! matrix-level `Q = X·W_Qᵀ`, per-head `S = Q_h·K_hᵀ`, softmax and `S·V_h`;
//! the TPHS path walks head-by-head, wave-by-wave through the PE models
//! ([`meadow_sim::pe`]) and the softmax datapath exactly as the pipeline
//! streams them. Both share one scalar requantization function and one
//! softmax implementation, so equality is exact rather than approximate.

use crate::error::DataflowError;
use meadow_sim::pe::{BroadcastingMacPe, ParallelMacPe};
use meadow_sim::Cycles;
use meadow_tensor::fixed::ExpLut;
use meadow_tensor::gemm::{matmul_i8, matmul_i8_bt, requantize_value};
use meadow_tensor::softmax::{softmax_scores_i32, SoftmaxKind};
use meadow_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Quantization scales threaded through the attention block.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttentionScales {
    /// Input activation scale.
    pub x: f32,
    /// `W_Q` weight scale.
    pub wq: f32,
    /// Q output scale.
    pub q: f32,
    /// K cache scale.
    pub k: f32,
    /// V cache scale.
    pub v: f32,
    /// Attention-output scale.
    pub out: f32,
}

impl Default for AttentionScales {
    fn default() -> Self {
        Self { x: 0.04, wq: 0.02, q: 0.03, k: 0.04, v: 0.04, out: 0.02 }
    }
}

/// One attention block's operands.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionProblem {
    /// Input tokens `X` (T × D), already normalized.
    pub x: Matrix<i8>,
    /// Query weights `W_Q` (D × D), stored `(out, in)`.
    pub wq: Matrix<i8>,
    /// Key cache (C × D).
    pub k_cache: Matrix<i8>,
    /// Value cache (C × D).
    pub v_cache: Matrix<i8>,
    /// Number of attention heads.
    pub heads: usize,
    /// Quantization scales.
    pub scales: AttentionScales,
    /// Softmax implementation (must match between the two dataflows).
    pub softmax: SoftmaxKind,
}

impl AttentionProblem {
    /// Head dimension.
    pub(crate) fn head_dim(&self) -> usize {
        self.x.cols() / self.heads.max(1)
    }

    /// Validates operand shapes.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::Schedule`] for inconsistent shapes.
    pub(crate) fn validate(&self) -> Result<(), DataflowError> {
        let d = self.x.cols();
        if self.heads == 0 || !d.is_multiple_of(self.heads) {
            return Err(DataflowError::Schedule {
                reason: format!("heads {} must divide d_model {d}", self.heads),
            });
        }
        if self.wq.shape() != (d, d) {
            return Err(DataflowError::Schedule {
                reason: format!("wq shape {:?} != ({d}, {d})", self.wq.shape()),
            });
        }
        if self.k_cache.cols() != d || self.v_cache.cols() != d {
            return Err(DataflowError::Schedule {
                reason: "KV cache width must equal d_model".to_string(),
            });
        }
        if self.k_cache.rows() != self.v_cache.rows() {
            return Err(DataflowError::Schedule {
                reason: "K and V cache lengths differ".to_string(),
            });
        }
        Ok(())
    }

    fn q_multiplier(&self) -> f32 {
        self.scales.x * self.scales.wq / self.scales.q
    }

    fn score_scale(&self) -> f32 {
        self.scales.q * self.scales.k / (self.head_dim() as f32).sqrt()
    }

    fn out_multiplier(&self, prob_scale: f32) -> f32 {
        prob_scale * self.scales.v / self.scales.out
    }
}

/// Matrix-level GEMM reference for the attention block.
///
/// # Errors
///
/// Propagates shape and scale errors.
pub fn attention_reference(
    p: &AttentionProblem,
    lut: &ExpLut,
) -> Result<Matrix<i8>, DataflowError> {
    p.validate()?;
    let t = p.x.rows();
    let c = p.k_cache.rows();
    let d = p.x.cols();
    let hd = p.head_dim();
    let q_acc = matmul_i8_bt(&p.x, &p.wq)?;
    let q = meadow_tensor::gemm::requantize_i32(&q_acc, p.q_multiplier())?;
    let mut out = Matrix::<i8>::zeros(t, d);
    for h in 0..p.heads {
        let q_h = q.col_block(h * hd, hd)?;
        let k_h = p.k_cache.col_block(h * hd, hd)?;
        let v_h = p.v_cache.col_block(h * hd, hd)?;
        let scores = matmul_i8_bt(&q_h, &k_h)?; // T × C
        let (probs, prob_scale) = softmax_scores_i32(&scores, p.score_scale(), p.softmax, lut)?;
        let ctx_acc = matmul_i8(&probs, &v_h)?; // T × HD
        let ctx = meadow_tensor::gemm::requantize_i32(&ctx_acc, p.out_multiplier(prob_scale))?;
        for tok in 0..t {
            let row = out.row_mut(tok);
            row[h * hd..(h + 1) * hd].copy_from_slice(ctx.row(tok));
        }
        debug_assert_eq!(scores.cols(), c);
    }
    Ok(out)
}

/// TPHS execution through the PE datapaths: head-sequential, token-parallel
/// waves, pipeline-register forwarding. Returns the attention output and the
/// PE-charged compute cycles (a functional-path cross-check of the latency
/// model's compute term, not a replacement for it).
///
/// # Errors
///
/// Propagates shape and scale errors.
pub fn attention_tphs_functional(
    p: &AttentionProblem,
    token_parallelism: usize,
    lut: &ExpLut,
) -> Result<(Matrix<i8>, Cycles), DataflowError> {
    p.validate()?;
    let t = p.x.rows();
    let c = p.k_cache.rows();
    let d = p.x.cols();
    let hd = p.head_dim();
    let par = ParallelMacPe::default();
    let bc = BroadcastingMacPe::default();
    let wave = token_parallelism.max(1);
    let mut out = Matrix::<i8>::zeros(t, d);
    let mut cycles = Cycles::ZERO;
    for h in 0..p.heads {
        // Head-sequential: all tokens of head h before head h+1.
        for wave_start in (0..t).step_by(wave) {
            let wave_end = (wave_start + wave).min(t);
            let mut wave_cycles = Cycles::ZERO;
            for tok in wave_start..wave_end {
                // Q stage: HD dot products of length D on parallel PEs.
                let mut q_tok = vec![0i8; hd];
                let mut tok_cycles = Cycles::ZERO;
                for (j, qv) in q_tok.iter_mut().enumerate() {
                    let (acc, cyc) = par.execute_dot(p.x.row(tok), p.wq.row(h * hd + j));
                    *qv = requantize_value(acc, p.q_multiplier());
                    tok_cycles += cyc;
                }
                // QKᵀ stage: C dot products of length HD, streamed from the
                // pipeline register.
                let mut score_row = Vec::with_capacity(c);
                for key in 0..c {
                    let (acc, cyc) =
                        par.execute_dot(&q_tok, &p.k_cache.row(key)[h * hd..(h + 1) * hd]);
                    score_row.push(acc);
                    tok_cycles += cyc;
                }
                // SM stages (MAX/EXP/DIV) through the shared datapath.
                let scores = Matrix::from_vec(1, c, score_row)?;
                let (probs, prob_scale) =
                    softmax_scores_i32(&scores, p.score_scale(), p.softmax, lut)?;
                // SM·V stage: broadcasting PE accumulates over the context.
                let v_rows: Vec<&[i8]> =
                    (0..c).map(|r| &p.v_cache.row(r)[h * hd..(h + 1) * hd]).collect();
                let mut ctx_acc = vec![0i32; hd];
                tok_cycles += bc.execute_broadcast(probs.row(0), &v_rows, &mut ctx_acc);
                let out_row = out.row_mut(tok);
                for (j, &acc) in ctx_acc.iter().enumerate() {
                    out_row[h * hd + j] = requantize_value(acc, p.out_multiplier(prob_scale));
                }
                // Tokens in a wave run on distinct PEs: the wave costs the
                // slowest token, not the sum.
                wave_cycles = wave_cycles.max(tok_cycles);
            }
            cycles += wave_cycles;
        }
    }
    Ok((out, cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_problem(t: usize, c: usize, d: usize, heads: usize, seed: u64) -> AttentionProblem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mat = |rows: usize, cols: usize| {
            let data: Vec<i8> = (0..rows * cols).map(|_| rng.gen_range(-40..=40)).collect();
            Matrix::from_vec(rows, cols, data).unwrap()
        };
        AttentionProblem {
            x: mat(t, d),
            wq: mat(d, d),
            k_cache: mat(c, d),
            v_cache: mat(c, d),
            heads,
            scales: AttentionScales::default(),
            softmax: SoftmaxKind::Exact,
        }
    }

    #[test]
    fn tphs_matches_reference_exactly() {
        let lut = ExpLut::hardware_default();
        for (t, c, d, heads, seed) in
            [(4, 4, 16, 4, 1), (7, 9, 24, 3, 2), (1, 12, 32, 8, 3), (16, 16, 32, 4, 4)]
        {
            let p = random_problem(t, c, d, heads, seed);
            let reference = attention_reference(&p, &lut).unwrap();
            for parallelism in [1, 2, 5] {
                let (tphs, _) = attention_tphs_functional(&p, parallelism, &lut).unwrap();
                assert_eq!(tphs, reference, "t={t} c={c} d={d} h={heads} P={parallelism}");
            }
        }
    }

    #[test]
    fn lut_softmax_also_matches() {
        let lut = ExpLut::hardware_default();
        let mut p = random_problem(6, 8, 16, 2, 9);
        p.softmax = SoftmaxKind::Lut;
        let reference = attention_reference(&p, &lut).unwrap();
        let (tphs, _) = attention_tphs_functional(&p, 3, &lut).unwrap();
        assert_eq!(tphs, reference);
    }

    #[test]
    fn decode_shape_single_token() {
        let lut = ExpLut::hardware_default();
        let p = random_problem(1, 20, 16, 4, 11);
        let reference = attention_reference(&p, &lut).unwrap();
        let (tphs, cycles) = attention_tphs_functional(&p, 4, &lut).unwrap();
        assert_eq!(tphs, reference);
        assert!(cycles > Cycles::ZERO);
    }

    #[test]
    fn invalid_shapes_rejected() {
        let lut = ExpLut::hardware_default();
        let mut p = random_problem(4, 4, 16, 4, 1);
        p.heads = 3; // does not divide 16
        assert!(attention_reference(&p, &lut).is_err());
        let mut p = random_problem(4, 4, 16, 4, 1);
        p.wq = Matrix::<i8>::zeros(8, 16);
        assert!(attention_tphs_functional(&p, 2, &lut).is_err());
        let mut p = random_problem(4, 4, 16, 4, 1);
        p.v_cache = Matrix::<i8>::zeros(5, 16);
        assert!(p.validate().is_err());
    }

    #[test]
    fn wave_parallelism_reduces_charged_cycles() {
        let lut = ExpLut::hardware_default();
        let p = random_problem(8, 8, 16, 2, 21);
        let (_, serial) = attention_tphs_functional(&p, 1, &lut).unwrap();
        let (_, parallel) = attention_tphs_functional(&p, 8, &lut).unwrap();
        assert!(parallel < serial);
    }

    #[test]
    fn outputs_are_nontrivial() {
        let lut = ExpLut::hardware_default();
        let p = random_problem(4, 6, 16, 4, 33);
        let out = attention_reference(&p, &lut).unwrap();
        assert!(out.as_slice().iter().any(|&v| v != 0), "degenerate all-zero output");
    }
}
