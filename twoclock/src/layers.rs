//! The per-layer metrics of the traced run: their names, units, and the
//! end-to-end metric each one should move.
//!
//! Layer names are the workspace's module names. A layer a workload does
//! not run reports zero, which is what its "quiet on" column predicts.

use crate::metrics::Metric;
use crate::BenchResult;
use meadow::core::{EngineConfig, MeadowEngine, ServeReport};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// One per-layer metric and the end-to-end metric(s) it should move, as
/// `metric@workload`.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric { name, unit, better, moves }
}

const PACKING: &str = "setup_s@edge_opt125m run_s@hetero_fleet run_s@lossless_forward";
const ENGINE: &str = "run_s@edge_opt125m run_s@hetero_fleet";
const SERVE: &str = "run_s@serve_scale peak_rss_mb@serve_scale";
const CLUSTER: &str = "sim_ttft_p95_ms@hetero_fleet run_s@hetero_fleet";
const REPORT: &str =
    "run_s@serve_scale report_bytes_per_request@serve_scale peak_rss_mb@serve_scale";
const SIM: &str = "sim_ttft_p95_ms@edge_opt125m sim_tbt_p95_ms@edge_opt125m";
const FORWARD: &str = "run_s@lossless_forward";

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("packing.engine_build_s", "s", "lower", PACKING),
    m("packing.in_run_build_s", "s", "lower", "run_s@hetero_fleet"),
    m("packing.engine_builds", "count", "lower", PACKING),
    m("packing.roundtrip_s", "s", "lower", FORWARD),
    m("models.synthesize_s", "s", "lower", "setup_s@lossless_forward"),
    m("engine.measure_calls", "count", "lower", ENGINE),
    m("engine.measure_us", "us", "lower", ENGINE),
    m("engine.measure_s", "s", "lower", ENGINE),
    m("serve.run_s", "s", "lower", SERVE),
    m("serve.self_s", "s", "lower", SERVE),
    m("serve.us_per_request", "us", "lower", SERVE),
    m("serve.ticks", "count", "lower", SERVE),
    m("serve.tokens_per_tick", "tok/tick", "higher", SERVE),
    m("serve.evictions", "count", "lower", SERVE),
    m("serve.page_spills", "count", "lower", SERVE),
    m("serve.page_faults", "count", "lower", SERVE),
    m("cluster.request_imbalance", "ratio", "lower", CLUSTER),
    m("cluster.util_min", "fraction", "higher", CLUSTER),
    m("cluster.util_max", "fraction", "higher", CLUSTER),
    m("cluster.noc_link_bytes", "B", "lower", CLUSTER),
    m("cluster.dram_kv_bytes", "B", "lower", CLUSTER),
    m("report.to_json_s", "s", "lower", REPORT),
    m("report.bytes", "B", "lower", REPORT),
    m("sim.prefill_fetch_cycles", "cycles", "lower", SIM),
    m("sim.prefill_compute_cycles", "cycles", "lower", SIM),
    m("sim.prefill_store_cycles", "cycles", "lower", SIM),
    m("sim.prefill_cycles", "cycles", "lower", SIM),
    m("sim.decode_fetch_cycles", "cycles", "lower", SIM),
    m("sim.decode_compute_cycles", "cycles", "lower", SIM),
    m("sim.decode_store_cycles", "cycles", "lower", SIM),
    m("sim.decode_cycles", "cycles", "lower", SIM),
    m("sim.dram_bytes_per_token", "B/tok", "lower", SIM),
    m("sim.kv_reload_bytes", "B", "lower", SIM),
    m("sim.prefill_x_vs_gemm", "x", "higher", SIM),
    m("sim.decode_x_vs_gemm", "x", "higher", SIM),
    m("dataflow.forward_gemm_s", "s", "lower", FORWARD),
    m("dataflow.forward_tphs_s", "s", "lower", FORWARD),
    m("tensor.gemm_ns_per_mac", "ns", "lower", FORWARD),
    m(
        "trace.run_s",
        "s",
        "lower",
        "run_s@every-workload (traced minus untraced = tracing overhead)",
    ),
];

/// The traced run's layer values, filled as the run measures them.
#[derive(Debug, Default)]
pub struct LayerValues(BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(LAYER_METRICS.iter().any(|l| l.name == name), "unknown layer metric {name}");
        self.0.insert(name, value);
    }

    /// A recorded value, zero when the layer did not run.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Prints every metric beside the end-to-end metric it should move.
    pub fn print(&self) {
        for l in LAYER_METRICS {
            let (name, value, unit) = (l.name, self.get(l.name), l.unit);
            println!(
                "layer {name:<28} {value:>18.6} {unit:<9} {:<6} better; moves {}",
                l.better, l.moves
            );
        }
    }

    /// Every metric in table order; layers that did not run read zero.
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|l| Metric { name: l.name, unit: l.unit, value: self.get(l.name) })
            .collect()
    }
}

/// The distinct `(prompt_tokens, token_index)` step shapes one chip's
/// serve measured (index 0 is the prefill), taken from its traces: serve
/// memoizes exactly these calls per chip.
pub fn step_keys(report: &ServeReport) -> BTreeSet<(usize, usize)> {
    report
        .traces
        .iter()
        .filter(|t| !t.rejected)
        .flat_map(|t| (0..=t.generated_tokens).map(move |i| (t.prompt_tokens, i)))
        .collect()
}

/// Replays step shapes through the engine's public latency calls, as serve
/// does on a cache miss.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn replay(engine: &MeadowEngine, keys: &BTreeSet<(usize, usize)>) -> BenchResult<()> {
    for &(prompt, index) in keys {
        let report = if index == 0 {
            engine.prefill_latency(prompt)?
        } else {
            engine.decode_latency(prompt, index)?
        };
        black_box(report);
    }
    Ok(())
}

/// Records the simulated breakdown at `prompt` tokens: fetch, compute and
/// store cycles of one prefill and of the first decode step, and the
/// speedups over the paper's GEMM baseline on the same chip and bandwidth.
///
/// # Errors
///
/// Propagates engine errors.
pub fn sim_breakdown(
    values: &mut LayerValues,
    meadow: &MeadowEngine,
    prompt: usize,
) -> BenchResult<()> {
    let config = meadow.config();
    let gemm = MeadowEngine::new(EngineConfig::gemm_baseline(
        config.model.clone(),
        config.bandwidth_gbps,
    ))?;
    let prefill = meadow.prefill_latency(prompt)?;
    let decode = meadow.decode_latency(prompt, 1)?;
    let (f, c, s) = prefill.components();
    values.set("sim.prefill_fetch_cycles", f.get() as f64);
    values.set("sim.prefill_compute_cycles", c.get() as f64);
    values.set("sim.prefill_store_cycles", s.get() as f64);
    values.set("sim.prefill_cycles", prefill.cycles.get() as f64);
    let (f, c, s) = decode.components();
    values.set("sim.decode_fetch_cycles", f.get() as f64);
    values.set("sim.decode_compute_cycles", c.get() as f64);
    values.set("sim.decode_store_cycles", s.get() as f64);
    values.set("sim.decode_cycles", decode.cycles.get() as f64);
    let prefill_x = gemm.prefill_latency(prompt)?.total_ms() / prefill.total_ms();
    let decode_x = gemm.decode_latency(prompt, 1)?.total_ms() / decode.total_ms();
    values.set("sim.prefill_x_vs_gemm", prefill_x);
    values.set("sim.decode_x_vs_gemm", decode_x);
    println!(
        "sim breakdown at the median prompt of {prompt} tokens on {} at {} Gbps (simulated clock):",
        config.model.name, config.bandwidth_gbps
    );
    println!(
        "  prefill {} cycles, decode {} cycles; fetch/compute/store overlap under TPHS, \
         so the three sum to more than the total",
        prefill.cycles.get(),
        decode.cycles.get()
    );
    println!(
        "  MEADOW vs GEMM: prefill {prefill_x:.3}x (paper: up to 2.5x), \
         decode {decode_x:.3}x (paper: up to 1.5x)"
    );
    println!(
        "  the simulated model is unvalidated against hardware; its only reference is the \
         paper-shape bands in tests/paper_calibration.rs"
    );
    Ok(())
}

/// Prints whether a layer share meets the expectation that justified the
/// workload.
pub fn confirm(what: &str, share: f64, expect: &str, met: bool) {
    let verdict = if met { "ok" } else { "NOT MET" };
    println!("confirm {what} = {share:.3} (expected {expect}): {verdict}");
}
