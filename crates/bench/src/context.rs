//! Shared state for the reproduction harness: packing statistics are
//! expensive to sample, so they are computed once per model and reused
//! across every bandwidth point and figure.

use meadow_core::baselines::Baseline;
use meadow_core::{CoreError, MeadowEngine};
use meadow_models::weights::ModelPackingStats;
use meadow_models::TransformerConfig;
use meadow_packing::{PackingConfig, PackingLevel};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Caches per-model packing statistics across figure generators.
#[derive(Debug, Default)]
pub struct ReproContext {
    stats: Mutex<BTreeMap<String, ModelPackingStats>>,
}

impl ReproContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packing statistics for a model at the MEADOW level, computed on
    /// first use.
    ///
    /// # Errors
    ///
    /// Propagates statistics-computation errors.
    pub(crate) fn stats_for(
        &self,
        model: &TransformerConfig,
    ) -> Result<ModelPackingStats, CoreError> {
        // A generator that panicked while holding the lock left the map
        // as it was (entries are inserted whole), so later ones keep using it.
        let mut cache = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = cache.get(&model.name) {
            return Ok(s.clone());
        }
        let stats = ModelPackingStats::compute(
            model,
            &PackingConfig::default(),
            PackingLevel::FrequencyAware,
        )?;
        cache.insert(model.name.clone(), stats.clone());
        Ok(stats)
    }

    /// Builds an engine for a baseline, reusing cached packing statistics
    /// for the MEADOW baseline.
    ///
    /// # Errors
    ///
    /// Propagates engine-construction errors.
    pub fn engine(
        &self,
        baseline: Baseline,
        model: &TransformerConfig,
        bandwidth_gbps: f64,
    ) -> Result<MeadowEngine, CoreError> {
        let config = baseline.engine_config(model.clone(), bandwidth_gbps);
        let stats = if config.plan.packing.is_some() { Some(self.stats_for(model)?) } else { None };
        MeadowEngine::with_packing_stats(config, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meadow_models::presets;

    #[test]
    fn stats_are_cached() {
        let ctx = ReproContext::new();
        let a = ctx.stats_for(&presets::tiny_decoder()).unwrap();
        let b = ctx.stats_for(&presets::tiny_decoder()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn engines_for_all_baselines() {
        let ctx = ReproContext::new();
        for b in Baseline::comparison_set() {
            let engine = ctx.engine(b, &presets::tiny_decoder(), 12.0).unwrap();
            assert!(engine.prefill_latency(8).unwrap().total_ms() > 0.0);
        }
    }
}
