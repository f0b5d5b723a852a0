//! The 3-stage pipelined softmax module (Fig. 2d of the paper).
//!
//! The module processes one token's scores feature-by-feature through three
//! stages, each taking `F` cycles for `F` features:
//!
//! 1. **MAX** — running maximum over the features.
//! 2. **EXP** — subtract the max, evaluate `exp` through the EXP LUT, and
//!    accumulate the exponent sum into the DIV-stage buffer.
//! 3. **DIV** — divide each buffered exponent by the sum.
//!
//! Because the stages are buffered, tokens stream through in pipeline:
//! `n` tokens of `F` features complete in `(n + 2) · F` cycles instead of
//! `3 n F`.

use crate::clock::Cycles;
use meadow_tensor::fixed::ExpLut;
use meadow_tensor::softmax::softmax_row_lut;
use serde::{Deserialize, Serialize};

/// Cycle-and-function model of one softmax module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxUnit {
    lut: ExpLut,
}

/// Number of pipeline stages in the module (MAX, EXP, DIV).
pub const SOFTMAX_STAGES: u64 = 3;

impl SoftmaxUnit {
    /// Creates a module with the given EXP LUT.
    pub fn new(lut: ExpLut) -> Self {
        Self { lut }
    }

    /// Cycles for a single token of `features` scores to traverse all three
    /// stages (no pipelining benefit for one token).
    fn single_token_cycles(&self, features: usize) -> Cycles {
        Cycles(SOFTMAX_STAGES * features as u64)
    }

    /// Cycles for `tokens` tokens of `features` scores each, streamed
    /// through the pipeline: `(tokens + stages - 1) * features`.
    pub fn pipelined_cycles(&self, tokens: usize, features: usize) -> Cycles {
        if tokens == 0 || features == 0 {
            return Cycles::ZERO;
        }
        Cycles((tokens as u64 + SOFTMAX_STAGES - 1) * features as u64)
    }

    /// Functionally evaluates the module on one row of scores, exactly as
    /// the LUT datapath computes it.
    pub fn execute_row(&self, scores: &[f32]) -> (Vec<f32>, Cycles) {
        let out = softmax_row_lut(scores, &self.lut);
        (out, self.single_token_cycles(scores.len()))
    }
}

impl Default for SoftmaxUnit {
    fn default() -> Self {
        Self::new(ExpLut::hardware_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_tensor::softmax::softmax_row_exact;

    #[test]
    fn pipelining_beats_sequential() {
        let sm = SoftmaxUnit::default();
        let sequential = Cycles(sm.single_token_cycles(128).get() * 64);
        let pipelined = sm.pipelined_cycles(64, 128);
        assert!(pipelined < sequential);
        // (64 + 2) * 128
        assert_eq!(pipelined, Cycles(66 * 128));
    }

    #[test]
    fn single_token_has_no_pipeline_benefit() {
        let sm = SoftmaxUnit::default();
        assert_eq!(sm.pipelined_cycles(1, 100), sm.single_token_cycles(100));
    }

    #[test]
    fn degenerate_shapes() {
        let sm = SoftmaxUnit::default();
        assert_eq!(sm.pipelined_cycles(0, 100), Cycles::ZERO);
        assert_eq!(sm.pipelined_cycles(100, 0), Cycles::ZERO);
    }

    #[test]
    fn functional_output_tracks_exact_softmax() {
        let sm = SoftmaxUnit::default();
        let row = [1.0f32, -0.5, 2.0, 0.0];
        let (approx, cycles) = sm.execute_row(&row);
        let exact = softmax_row_exact(&row);
        for (a, e) in approx.iter().zip(&exact) {
            assert!((a - e).abs() < 0.02);
        }
        assert_eq!(cycles, Cycles(12));
    }

    #[test]
    fn stage_time_is_feature_count() {
        // Each stage holds a token for one cycle per feature, so one more
        // token in the stream costs exactly one stage time.
        let sm = SoftmaxUnit::default();
        assert_eq!(sm.pipelined_cycles(65, 512) - sm.pipelined_cycles(64, 512), Cycles(512));
    }
}
