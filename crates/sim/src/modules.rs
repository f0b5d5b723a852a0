//! LayerNorm and nonlinearity module timing.
//!
//! The tile carries 8 LN and 8 NL (ReLU/GeLU) modules (Table 1). Each module
//! streams one element per cycle; LN needs two passes over a token's features
//! (statistics, then normalization), NL needs one.

use crate::clock::Cycles;
use serde::{Deserialize, Serialize};

/// Cycle model of one LayerNorm module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LayerNormUnit;

impl LayerNormUnit {
    /// Cycles to normalize one token of `features` features: one pass to
    /// accumulate mean/variance, one pass to normalize.
    fn token_cycles(self, features: usize) -> Cycles {
        Cycles(2 * features as u64)
    }

    /// Cycles for `tokens` tokens sharing `units` modules (tokens are
    /// distributed round-robin; modules work independently).
    pub fn batch_cycles(self, tokens: usize, features: usize, units: usize) -> Cycles {
        if units == 0 {
            return Cycles::ZERO;
        }
        let per_unit_tokens = (tokens as u64).div_ceil(units as u64);
        Cycles(per_unit_tokens * self.token_cycles(features).get())
    }
}

/// Cycle model of one nonlinearity module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NonlinearUnit;

impl NonlinearUnit {
    /// Cycles for one token of `features` activations (streaming, 1/cycle).
    fn token_cycles(self, features: usize) -> Cycles {
        Cycles(features as u64)
    }

    /// Cycles for a batch across `units` modules.
    pub fn batch_cycles(self, tokens: usize, features: usize, units: usize) -> Cycles {
        if units == 0 {
            return Cycles::ZERO;
        }
        let per_unit_tokens = (tokens as u64).div_ceil(units as u64);
        Cycles(per_unit_tokens * self.token_cycles(features).get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_needs_two_passes() {
        assert_eq!(LayerNormUnit.token_cycles(768), Cycles(1536));
    }

    #[test]
    fn batch_distributes_over_units() {
        // 512 tokens over 8 units = 64 tokens/unit.
        assert_eq!(LayerNormUnit.batch_cycles(512, 768, 8), Cycles(64 * 1536));
        assert_eq!(NonlinearUnit.batch_cycles(512, 3072, 8), Cycles(64 * 3072));
        // Remainders round up.
        assert_eq!(NonlinearUnit.batch_cycles(9, 10, 8), Cycles(20));
    }

    #[test]
    fn zero_units_is_absent_hardware() {
        assert_eq!(LayerNormUnit.batch_cycles(10, 10, 0), Cycles::ZERO);
    }
}
