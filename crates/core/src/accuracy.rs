//! Lossless-ness verification (§6.1's accuracy claim, reproduced as
//! bit-exactness).
//!
//! The paper reports that weight packing is "approximation-less" and that
//! the W8A8 models keep their LAMBADA accuracy. Without the LAMBADA
//! checkpoints, the strongest equivalent statement is *bit-exactness*: every
//! weight matrix survives pack→unpack unchanged at every packing level, and
//! the TPHS dataflow computes bit-identical attention outputs to the GEMM
//! reference (see `meadow_dataflow::functional`). This module provides the
//! whole-model packing check.

use crate::error::CoreError;
use meadow_models::synthetic::{generate_matrix, matrix_seed, profile_for};
use meadow_models::{MatrixKind, TransformerConfig};
use meadow_packing::{PackedWeights, PackingConfig, PackingLevel};
use meadow_tensor::parallel::{par_map, ExecConfig};
use serde::{Deserialize, Serialize};

/// Result of a whole-model lossless-ness check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LosslessReport {
    /// Model checked.
    pub model: String,
    /// Number of (matrix, level) pairs verified.
    pub matrices_checked: usize,
    /// Whether every round trip was bit-exact.
    pub all_exact: bool,
    /// Human-readable failures (empty when `all_exact`).
    pub failures: Vec<String>,
}

/// Packs and unpacks every weight matrix of `config` at every packing level
/// and verifies bit-exact reconstruction. `max_rows` caps the generated rows
/// per matrix (weights are row-independent, so a row-capped check exercises
/// the identical code paths at a fraction of the cost; pass `usize::MAX` for
/// full matrices).
///
/// # Errors
///
/// Propagates generation and packing errors (a *failed comparison* is
/// reported in the result, not as an error).
pub fn verify_model_lossless(
    config: &TransformerConfig,
    packing: &PackingConfig,
    max_rows: usize,
) -> Result<LosslessReport, CoreError> {
    verify_model_lossless_with(config, packing, max_rows, &ExecConfig::serial())
}

/// [`verify_model_lossless`] with caller-chosen parallelism: the
/// (layer, matrix) pairs are independent, so each worker generates, packs
/// and round-trips one matrix at a time. Failures are reported in the
/// serial (layer, kind, level) order regardless of thread count.
///
/// # Errors
///
/// Propagates generation and packing errors (the first error in serial
/// order wins).
pub(crate) fn verify_model_lossless_with(
    config: &TransformerConfig,
    packing: &PackingConfig,
    max_rows: usize,
    exec: &ExecConfig,
) -> Result<LosslessReport, CoreError> {
    let jobs: Vec<(usize, MatrixKind)> = (0..config.layers)
        .flat_map(|layer| MatrixKind::all().into_iter().map(move |kind| (layer, kind)))
        .collect();
    let per_matrix = par_map(&jobs, exec, |&(layer, kind)| -> Result<_, CoreError> {
        let (rows, cols) = config.matrix_dims(kind);
        let rows = rows.min(max_rows.max(1));
        let profile = profile_for(config, kind, layer);
        let seed = matrix_seed(config, kind, layer);
        let w = generate_matrix(rows, cols, profile, packing.chunk.chunk_elems, seed)?;
        let mut checked = 0;
        let mut failures = Vec::new();
        for level in PackingLevel::all() {
            let packed = PackedWeights::pack(&w, packing, level)?;
            let restored = packed.unpack()?;
            checked += 1;
            if restored != w {
                failures.push(format!("{} layer {layer} {kind:?} at {level:?}", config.name));
            }
        }
        Ok((checked, failures))
    });
    let mut checked = 0;
    let mut failures = Vec::new();
    for result in per_matrix {
        let (c, f) = result?;
        checked += c;
        failures.extend(f);
    }
    Ok(LosslessReport {
        model: config.name.clone(),
        matrices_checked: checked,
        all_exact: failures.is_empty(),
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;

    #[test]
    fn tiny_model_is_lossless_at_all_levels() {
        let report =
            verify_model_lossless(&presets::tiny_decoder(), &PackingConfig::default(), usize::MAX)
                .unwrap();
        assert!(report.all_exact, "failures: {:?}", report.failures);
        // 2 layers × 6 matrices × 3 levels.
        assert_eq!(report.matrices_checked, 36);
    }

    #[test]
    fn parallel_verification_matches_serial() {
        let config = presets::tiny_decoder();
        let packing = PackingConfig::default();
        let serial = verify_model_lossless(&config, &packing, 32).unwrap();
        for threads in [2usize, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            let par = verify_model_lossless_with(&config, &packing, 32, &exec).unwrap();
            assert_eq!(par, serial, "threads {threads}");
        }
    }

    #[test]
    fn engine_lossless_check_uses_config_exec() {
        use crate::engine::{EngineConfig, MeadowEngine};
        let config = EngineConfig::zcu102(presets::tiny_decoder(), 12.0)
            .with_exec(ExecConfig::with_threads(4));
        let engine = MeadowEngine::new(config).unwrap();
        let report = engine.verify_lossless(16).unwrap();
        assert!(report.all_exact, "failures: {:?}", report.failures);
    }

    #[test]
    fn row_capped_opt125m_layer_is_lossless() {
        let mut cfg = presets::opt_125m();
        cfg.layers = 1; // keep the test fast; the repro binary checks all 12
        let report = verify_model_lossless(&cfg, &PackingConfig::default(), 96).unwrap();
        assert!(report.all_exact, "failures: {:?}", report.failures);
        assert_eq!(report.matrices_checked, 18);
    }
}
