//! Structured wall-clock performance harness with machine-readable output.
//!
//! The Criterion harnesses under `benches/` are for interactive
//! exploration; this module is the *regression* surface. It times the
//! workspace's hot paths — tiled INT8 GEMM, packing chunk decomposition,
//! the functional batch forward, the continuous-batching serving
//! simulator (whole-cache and paged eviction), the multi-model
//! weight-churn serve, the multi-chip cluster serve, the heterogeneous
//! big/LITTLE cluster serve and the disaggregated
//! two-stage serve — serial vs parallel,
//! with warmup and a fixed number of trials, and reports
//! median/p95/min/mean per variant as a
//! schema-versioned [`BenchReport`] that serializes to `BENCH_<id>.json`.
//!
//! CI runs the `perfbench` binary on every push, uploads the JSON as an
//! artifact, and gates on [`find_ratio_regressions`] against the committed
//! `bench/baseline.json`: the serial-vs-parallel *ratio* per case is
//! machine-normalized, so the gate works even when the baseline was
//! recorded on different hardware than the CI runner. The absolute
//! [`find_regressions`] gate remains available via `perfbench --gate
//! absolute` for same-machine comparisons. Either way, `--compare` also
//! fails when the two reports' case names differ ([`unmatched_cases`]).

use meadow_core::cluster::{
    LeastLoadedKv, LeastLoadedWeighted, PrefillDecodeSplit, SessionAffinity, ToLeastLoaded,
};
use meadow_core::serve::{KvPolicy, ServeConfig, SpecDecode};
use meadow_core::spec::ServeSpec;
use meadow_core::{EngineConfig, MeadowEngine};
use meadow_dataflow::forward::{batch_model_forward, model_forward, ForwardMode, ForwardScales};
use meadow_models::presets;
use meadow_models::weights::ModelWeights;
use meadow_models::workload::ArrivalTrace;
use meadow_models::KvCompression;
use meadow_packing::chunk::{decompose, decompose_with, ChunkConfig};
use meadow_tensor::fixed::ExpLut;
use meadow_tensor::gemm::{matmul_i8_tiled, matmul_i8_tiled_with};
use meadow_tensor::parallel::ExecConfig;
use meadow_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Version stamped into every [`BenchReport`]. Bump when the JSON layout
/// changes incompatibly so `--compare` can refuse mismatched files.
pub const SCHEMA_VERSION: u32 = 1;

/// Knobs for one harness run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfOptions {
    /// Worker threads for the parallel variants.
    pub threads: usize,
    /// Untimed warmup iterations per variant.
    pub warmup: usize,
    /// Timed trials per variant (median/p95 computed over these).
    pub trials: usize,
    /// Shrink problem sizes for CI smoke runs and tests.
    pub quick: bool,
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self { threads: ExecConfig::from_env().threads(), warmup: 3, trials: 10, quick: false }
    }
}

/// Wall-clock statistics over the trials of one variant, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingStats {
    /// Median trial time.
    pub median_ms: f64,
    /// 95th-percentile trial time (the regression gate ignores this, but
    /// it makes noisy runs visible in the artifact).
    pub p95_ms: f64,
    /// Fastest trial.
    pub min_ms: f64,
    /// Mean trial time.
    pub mean_ms: f64,
}

/// Runs `f` for `warmup` untimed and `trials` timed iterations.
pub fn time_trials<F: FnMut()>(warmup: usize, trials: usize, mut f: F) -> TimingStats {
    for _ in 0..warmup {
        f();
    }
    let trials = trials.max(1);
    let mut samples_ms: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples_ms.sort_by(|a, b| a.partial_cmp(b).expect("trial time is never NaN"));
    let idx = |q: f64| ((samples_ms.len() as f64 * q).ceil() as usize).clamp(1, samples_ms.len());
    TimingStats {
        median_ms: samples_ms[idx(0.5) - 1],
        p95_ms: samples_ms[idx(0.95) - 1],
        min_ms: samples_ms[0],
        mean_ms: samples_ms.iter().sum::<f64>() / samples_ms.len() as f64,
    }
}

/// Serial-vs-parallel timings of one hot path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Hot-path identifier (stable across runs; the compare key).
    pub name: String,
    /// Single-threaded reference timing.
    pub serial: TimingStats,
    /// Timing at [`BenchReport::threads`] workers.
    pub parallel: TimingStats,
    /// `serial.median_ms / parallel.median_ms` (> 1 is a parallel win).
    pub speedup: f64,
}

/// One complete harness run: the content of a `BENCH_<id>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// JSON layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Caller-chosen run identifier (becomes the file name).
    pub bench_id: String,
    /// Worker threads used by the parallel variants.
    pub threads: usize,
    /// Untimed warmup iterations per variant.
    pub warmup: usize,
    /// Timed trials per variant.
    pub trials: usize,
    /// Whether reduced problem sizes were used.
    pub quick: bool,
    /// Per-hot-path results.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Canonical file name for this report.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench_id)
    }

    /// Pretty JSON for the artifact file.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors from the vendored serde_json.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report back from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed JSON or a schema mismatch.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        let report: Self = serde_json::from_str(text)?;
        if report.schema_version != SCHEMA_VERSION {
            return Err(serde_json::Error::msg(format!(
                "schema version {} does not match supported {SCHEMA_VERSION}",
                report.schema_version
            )));
        }
        Ok(report)
    }

    /// Looks up a case by name.
    pub fn case(&self, name: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

fn random_i8_matrix(rows: usize, cols: usize, modulus: i32) -> Matrix<i8> {
    // Deterministic pseudo-random fill with bounded distinct chunk pairs so
    // the decompose path sees MEADOW-like redundancy.
    let data: Vec<i8> = (0..rows * cols)
        .map(|i| {
            let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
            ((x as i32) % modulus - modulus / 2) as i8
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("shape matches data")
}

fn gemm_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (m, k, n, tile) = if opts.quick { (64, 96, 64, 16) } else { (256, 512, 256, 32) };
    let a = random_i8_matrix(m, k, 127);
    let b = random_i8_matrix(k, n, 127);
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(matmul_i8_tiled(&a, &b, tile, tile, tile).expect("valid shapes"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(
            matmul_i8_tiled_with(&a, &b, tile, tile, tile, exec).expect("valid shapes"),
        );
    });
    named_case(format!("gemm_i8_tiled_{m}x{k}x{n}"), serial, parallel)
}

fn packing_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (rows, cols) = if opts.quick { (128, 256) } else { (768, 1024) };
    // Small modulus → few distinct 2-element chunks → realistic dedup load.
    let w = random_i8_matrix(rows, cols, 23);
    let config = ChunkConfig::default();
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(decompose(&w, config).expect("chunkable matrix"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(decompose_with(&w, config, exec).expect("chunkable matrix"));
    });
    named_case(format!("packing_decompose_{rows}x{cols}"), serial, parallel)
}

fn forward_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (batch, tokens) = if opts.quick { (2, 4) } else { (8, 16) };
    let config = presets::tiny_decoder();
    let weights = ModelWeights::synthesize(&config).expect("tiny model synthesizes");
    let lut = ExpLut::hardware_default();
    let scales = ForwardScales::default();
    let inputs: Vec<Matrix<i8>> =
        (0..batch).map(|i| random_i8_matrix(tokens, config.d_model, 101 + i)).collect();
    let serial = time_trials(opts.warmup, opts.trials, || {
        for x in &inputs {
            std::hint::black_box(
                model_forward(x, &weights, ForwardMode::Gemm, &scales, &lut)
                    .expect("forward succeeds"),
            );
        }
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(
            batch_model_forward(&inputs, &weights, ForwardMode::Gemm, &scales, &lut, exec)
                .expect("forward succeeds"),
        );
    });
    named_case(format!("dataflow_batch_forward_{batch}x{tokens}"), serial, parallel)
}

fn serve_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (4, 6) } else { (8, 12) };
    let model = presets::tiny_decoder();
    // Dense arrivals (tick scale) and a squeezed budget exercise the full
    // scheduler: admission, eviction, reload and the batched measurement
    // fan-out (the axis the parallel variant accelerates).
    let trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    let budget = trace.total_peak_kv_bytes(&model) / 2;
    let config = ServeConfig::default().with_budget(budget);
    let spec = ServeSpec::builder().config(config).build().expect("valid spec");
    let serial_engine =
        MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).expect("valid engine");
    let parallel_engine = MeadowEngine::new(EngineConfig::zcu102(model, 12.0).with_exec(*exec))
        .expect("valid engine");
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&serial_engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&parallel_engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_continuous_batch_{requests}x{generate}"), serial, parallel)
}

fn serve_paged_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (4, 6) } else { (8, 12) };
    let model = presets::tiny_decoder();
    // Same squeezed scenario as `serve_continuous_batch`, but evicting at
    // page granularity: the scheduler additionally walks the page pool
    // (LRU scan, peel, fault-in), which is the overhead this case guards.
    let trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    let budget = trace.total_peak_kv_bytes(&model) / 2;
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(requests / 2);
    let spec = ServeSpec::builder().config(config).build().expect("valid spec");
    let serial_engine =
        MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).expect("valid engine");
    let parallel_engine = MeadowEngine::new(EngineConfig::zcu102(model, 12.0).with_exec(*exec))
        .expect("valid engine");
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&serial_engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&parallel_engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_paged_{requests}x{generate}"), serial, parallel)
}

fn serve_kvcomp_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (4, 6) } else { (8, 12) };
    let model = presets::tiny_decoder();
    // The squeezed `serve_continuous_batch` scenario with VEDA token
    // eviction on: every per-step KV accounting call routes through the
    // sizer (vote model, keep-ratio rounding), which is the overhead this
    // case guards.
    let trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    let budget = trace.total_peak_kv_bytes(&model) / 2;
    let config = ServeConfig::default()
        .with_budget(budget)
        .with_kv_compression(KvCompression::VedaVote { keep_ratio: 0.5 });
    let spec = ServeSpec::builder().config(config).build().expect("valid spec");
    let serial_engine =
        MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).expect("valid engine");
    let parallel_engine = MeadowEngine::new(EngineConfig::zcu102(model, 12.0).with_exec(*exec))
        .expect("valid engine");
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&serial_engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&parallel_engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_kvcomp_{requests}x{generate}"), serial, parallel)
}

fn serve_multimodel_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (4, 6) } else { (8, 12) };
    let model = presets::tiny_decoder();
    // Two models alternating request-for-request under a one-model weight
    // budget with streaming on: every scheduler step walks the residency
    // state machine (LRU pick, per-layer stream, overlap fold), which is
    // the overhead this case guards on top of `serve_continuous_batch`.
    let mut trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    for r in &mut trace.requests {
        *r = r.with_model(r.id % 2);
    }
    let config = ServeConfig::default()
        .with_weight_budget(model.total_weight_bytes())
        .with_weight_streaming(true)
        .with_max_batch(2);
    let spec = ServeSpec::builder().config(config).build().expect("valid spec");
    let serial_engine =
        MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0)).expect("valid engine");
    let parallel_engine = MeadowEngine::new(EngineConfig::zcu102(model, 12.0).with_exec(*exec))
        .expect("valid engine");
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&serial_engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&parallel_engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_multimodel_{requests}x{generate}"), serial, parallel)
}

fn serve_cluster_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (6, 5) } else { (12, 8) };
    let model = presets::tiny_decoder();
    // A 3-chip cluster with sticky-affinity skew and NoC migration: the
    // per-chip serving loops fan out on the engine's worker pool (the axis
    // the parallel variant accelerates), and the placement/migration
    // machinery itself is the overhead this case guards.
    let mut trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    for r in &mut trace.requests {
        *r = r.with_affinity(r.id % 2);
    }
    let budget = (2 * trace.total_peak_kv_bytes(&model) / (3 * requests as u64))
        .max(trace.requests[0].peak_kv_bytes(&model));
    let serve_config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    let spec = ServeSpec::builder()
        .chips(3)
        .config(serve_config)
        .placement(SessionAffinity)
        .migration(ToLeastLoaded)
        .build()
        .expect("valid spec");
    let engine_for = |exec: ExecConfig| {
        MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0).with_exec(exec))
            .expect("valid engine")
    };
    let serial_engine = engine_for(ExecConfig::serial());
    let parallel_engine = engine_for(*exec);
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&serial_engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&parallel_engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_cluster_3x{requests}x{generate}"), serial, parallel)
}

/// The heterogeneous-cluster case: a mixed big/LITTLE fleet served twice.
/// Unlike every other case, the two variants are not serial-vs-parallel
/// threading: `serial` runs speed-oblivious [`LeastLoadedKv`] placement
/// and `parallel` runs throughput-aware [`LeastLoadedWeighted`] on the
/// same fleet and engine, so the committed baseline ratio pins the cost
/// of the weighted scoring (the integer cross-multiply per placement) at
/// parity — the gate fails if weighting ever makes placement itself a
/// bottleneck.
fn serve_hetero_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (6, 5) } else { (12, 8) };
    let model = presets::tiny_decoder();
    let trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    let budget = (2 * trace.total_peak_kv_bytes(&model) / (3 * requests as u64))
        .max(trace.requests[0].peak_kv_bytes(&model));
    let serve_config = ServeConfig::default()
        .with_budget(budget)
        .with_policy(KvPolicy::PagedLru)
        .with_page_bytes(256)
        .with_max_batch(2);
    let specs = vec![
        EngineConfig::zcu102(model.clone(), 12.0),
        EngineConfig::zcu102(model.clone(), 12.0),
        EngineConfig::zcu102_little(model.clone(), 6.0),
    ];
    let spec_for = |weighted: bool| {
        let builder = ServeSpec::builder().chip_specs(specs.clone()).config(serve_config);
        let builder = if weighted {
            builder.placement(LeastLoadedWeighted)
        } else {
            builder.placement(LeastLoadedKv)
        };
        builder.migration(ToLeastLoaded).build().expect("valid spec")
    };
    let unweighted = spec_for(false);
    let weighted = spec_for(true);
    let engine = MeadowEngine::new(EngineConfig::zcu102(model, 12.0).with_exec(*exec))
        .expect("valid engine");
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(unweighted.run(&engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(weighted.run(&engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_hetero_3x{requests}x{generate}"), serial, parallel)
}

fn serve_disagg_case(opts: &PerfOptions, exec: &ExecConfig) -> BenchCase {
    let (requests, generate) = if opts.quick { (6, 5) } else { (12, 8) };
    let model = presets::tiny_decoder();
    // Prefill/decode disaggregation on a 3-chip cluster (1 prefill + 2
    // decode chips) with speculative decoding on: a two-pass simulation
    // with the KV handoff charged on the NoC between the stages. The
    // phase-routing, handoff and draft-flush machinery layered on the
    // per-chip loops is the overhead this case guards.
    let trace = ArrivalTrace::uniform(requests, 0.01, 16, generate);
    let serve_config = ServeConfig::default().with_max_batch(2).with_speculation(SpecDecode {
        draft_len: 4,
        acceptance: 0.7,
        draft_cost_ratio: 0.5,
    });
    let spec = ServeSpec::builder()
        .chips(3)
        .config(serve_config)
        .phases(PrefillDecodeSplit { prefill_chips: 1 })
        .build()
        .expect("valid spec");
    let engine_for = |exec: ExecConfig| {
        MeadowEngine::new(EngineConfig::zcu102(model.clone(), 12.0).with_exec(exec))
            .expect("valid engine")
    };
    let serial_engine = engine_for(ExecConfig::serial());
    let parallel_engine = engine_for(*exec);
    let serial = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&serial_engine, &trace).expect("serve succeeds"));
    });
    let parallel = time_trials(opts.warmup, opts.trials, || {
        std::hint::black_box(spec.run(&parallel_engine, &trace).expect("serve succeeds"));
    });
    named_case(format!("serve_disagg_3x{requests}x{generate}"), serial, parallel)
}

fn named_case(name: String, serial: TimingStats, parallel: TimingStats) -> BenchCase {
    let speedup =
        if parallel.median_ms > 0.0 { serial.median_ms / parallel.median_ms } else { 0.0 };
    BenchCase { name, serial, parallel, speedup }
}

/// Runs the whole suite and assembles the report.
pub fn run_suite(bench_id: &str, opts: &PerfOptions) -> BenchReport {
    let exec = ExecConfig::with_threads(opts.threads);
    let cases = vec![
        gemm_case(opts, &exec),
        packing_case(opts, &exec),
        forward_case(opts, &exec),
        serve_case(opts, &exec),
        serve_paged_case(opts, &exec),
        serve_kvcomp_case(opts, &exec),
        serve_multimodel_case(opts, &exec),
        serve_cluster_case(opts, &exec),
        serve_hetero_case(opts, &exec),
        serve_disagg_case(opts, &exec),
    ];
    BenchReport {
        schema_version: SCHEMA_VERSION,
        bench_id: bench_id.to_string(),
        threads: exec.threads(),
        warmup: opts.warmup,
        trials: opts.trials,
        quick: opts.quick,
        cases,
    }
}

/// One variant of one case regressing past the allowed threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Regression {
    /// Case name.
    pub case: String,
    /// `"serial"` or `"parallel"`.
    pub variant: String,
    /// Baseline best-trial time in ms.
    pub baseline_ms: f64,
    /// Current best-trial time in ms.
    pub current_ms: f64,
    /// Slowdown in percent over baseline (always > 0 for a regression).
    pub regress_pct: f64,
}

/// Compares two reports case-by-case and returns every variant that slowed
/// down by more than `max_regress_pct` percent.
///
/// The gate compares `min_ms` (fastest trial): the minimum is the
/// least noise-sensitive statistic of a wall-clock sample — scheduler
/// interference only ever adds time — so it flakes far less than the
/// median on shared CI runners while still moving one-for-one with real
/// code regressions. The medians/p95s stay in the report for humans.
///
/// Cases present in only one report are skipped here; [`unmatched_cases`]
/// names them, and `perfbench --compare` fails on any. Comparing reports
/// produced with different `quick` settings or thread counts is the
/// caller's responsibility.
pub fn find_regressions(
    current: &BenchReport,
    baseline: &BenchReport,
    max_regress_pct: f64,
) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for cur in &current.cases {
        let Some(base) = baseline.case(&cur.name) else { continue };
        for (variant, cur_ms, base_ms) in [
            ("serial", cur.serial.min_ms, base.serial.min_ms),
            ("parallel", cur.parallel.min_ms, base.parallel.min_ms),
        ] {
            if base_ms <= 0.0 {
                continue;
            }
            let regress_pct = (cur_ms / base_ms - 1.0) * 100.0;
            if regress_pct > max_regress_pct {
                regressions.push(Regression {
                    case: cur.name.clone(),
                    variant: variant.to_string(),
                    baseline_ms: base_ms,
                    current_ms: cur_ms,
                    regress_pct,
                });
            }
        }
    }
    regressions
}

/// One case whose parallel-vs-serial *ratio* worsened past the threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioRegression {
    /// Case name.
    pub case: String,
    /// Baseline `parallel.min_ms / serial.min_ms` (lower is better).
    pub baseline_ratio: f64,
    /// Current `parallel.min_ms / serial.min_ms`.
    pub current_ratio: f64,
    /// Worsening in percent over the baseline ratio (always > 0).
    pub regress_pct: f64,
}

/// Compares the **parallel-vs-serial ratio** of each case against the
/// baseline's, flagging cases whose ratio worsened by more than
/// `max_regress_pct` percent.
///
/// Both the numerator and denominator of a ratio come from the *same* run
/// on the *same* machine, so the gate is machine-normalized: a baseline
/// recorded on slow or core-starved hardware still gates a fast CI runner
/// meaningfully, which absolute `min_ms` comparison cannot do. The trade:
/// a uniform slowdown that hits serial and parallel alike passes — pair the
/// ratio gate with occasional absolute-baseline refreshes when chasing
/// single-thread regressions. Thread counts must still match between the
/// runs for ratios to be comparable (the `perfbench` binary warns).
///
/// Cases present in only one report, or with non-positive serial times, are
/// skipped here; [`unmatched_cases`] names the former, and `perfbench
/// --compare` fails on any.
pub fn find_ratio_regressions(
    current: &BenchReport,
    baseline: &BenchReport,
    max_regress_pct: f64,
) -> Vec<RatioRegression> {
    let mut regressions = Vec::new();
    for cur in &current.cases {
        let Some(base) = baseline.case(&cur.name) else { continue };
        if cur.serial.min_ms <= 0.0 || base.serial.min_ms <= 0.0 {
            continue;
        }
        let current_ratio = cur.parallel.min_ms / cur.serial.min_ms;
        let baseline_ratio = base.parallel.min_ms / base.serial.min_ms;
        if baseline_ratio <= 0.0 {
            continue;
        }
        let regress_pct = (current_ratio / baseline_ratio - 1.0) * 100.0;
        if regress_pct > max_regress_pct {
            regressions.push(RatioRegression {
                case: cur.name.clone(),
                baseline_ratio,
                current_ratio,
                regress_pct,
            });
        }
    }
    regressions
}

/// Case names that only one of two reports has. Both gates compare only
/// the cases the reports share, so a baseline case the run no longer
/// produces (or a new case with no baseline) would otherwise drop out of
/// the gate silently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnmatchedCases {
    /// Baseline cases the current report lacks.
    pub missing: Vec<String>,
    /// Current cases the baseline lacks.
    pub unbaselined: Vec<String>,
}

impl UnmatchedCases {
    /// Whether the two reports have exactly the same case names.
    pub fn is_empty(&self) -> bool {
        self.missing.is_empty() && self.unbaselined.is_empty()
    }
}

/// Compares the case-name sets of two reports, in either direction.
pub fn unmatched_cases(current: &BenchReport, baseline: &BenchReport) -> UnmatchedCases {
    let only_in = |a: &BenchReport, b: &BenchReport| -> Vec<String> {
        a.cases.iter().filter(|c| b.case(&c.name).is_none()).map(|c| c.name.clone()).collect()
    };
    UnmatchedCases { missing: only_in(baseline, current), unbaselined: only_in(current, baseline) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> PerfOptions {
        PerfOptions { threads: 2, warmup: 0, trials: 2, quick: true }
    }

    #[test]
    fn timing_stats_are_ordered() {
        let stats = time_trials(1, 7, || {
            std::hint::black_box((0..2000).sum::<u64>());
        });
        assert!(stats.min_ms <= stats.median_ms);
        assert!(stats.median_ms <= stats.p95_ms);
        assert!(stats.mean_ms > 0.0);
    }

    #[test]
    fn suite_emits_versioned_round_trippable_json() {
        let report = run_suite("test", &quick_opts());
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert_eq!(report.cases.len(), 10);
        assert!(report.cases.iter().all(|c| c.speedup > 0.0));
        assert_eq!(report.file_name(), "BENCH_test.json");
        let json = report.to_json().unwrap();
        assert!(json.contains("\"schema_version\""));
        let parsed = BenchReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_tree_matches_documented_schema() {
        // The README documents the BENCH_*.json layout; hold the emitted
        // tree to it via the Value accessors rather than string matching.
        let report = run_suite("schema", &quick_opts());
        let tree = serde_json::to_value(&report).unwrap();
        assert_eq!(tree.get("schema_version").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(tree.get("bench_id").and_then(|v| v.as_str()), Some("schema"));
        assert_eq!(tree.get("threads").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(tree.get("quick").and_then(|v| v.as_bool()), Some(true));
        let cases = tree.get("cases").and_then(|v| v.as_seq()).unwrap();
        assert_eq!(cases.len(), 10);
        for case in cases {
            assert!(case.get("name").and_then(|v| v.as_str()).is_some());
            for variant in ["serial", "parallel"] {
                let stats = case.get(variant).unwrap();
                for field in ["median_ms", "p95_ms", "min_ms", "mean_ms"] {
                    let ms = stats.get(field).and_then(|v| v.as_f64()).unwrap();
                    assert!(ms >= 0.0, "{variant}.{field} = {ms}");
                }
            }
            assert!(case.get("speedup").and_then(|v| v.as_f64()).unwrap() > 0.0);
        }
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let mut report = run_suite("test", &quick_opts());
        report.schema_version = SCHEMA_VERSION + 1;
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(BenchReport::from_json(&json).is_err());
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let report = run_suite("gate", &quick_opts());
        assert!(find_regressions(&report, &report, 25.0).is_empty());
    }

    #[test]
    fn injected_regression_fails_the_gate() {
        let baseline = run_suite("gate", &quick_opts());
        let mut current = baseline.clone();
        // Inject a 2× slowdown on one serial path: well past 25%.
        current.cases[0].serial.min_ms = baseline.cases[0].serial.min_ms * 2.0;
        let regressions = find_regressions(&current, &baseline, 25.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].variant, "serial");
        assert!(regressions[0].regress_pct > 90.0);
        // The same slowdown passes a 150% threshold.
        assert!(find_regressions(&current, &baseline, 150.0).is_empty());
    }

    #[test]
    fn renamed_cases_reset_rather_than_fail() {
        let baseline = run_suite("gate", &quick_opts());
        let mut current = baseline.clone();
        current.cases[0].name = "renamed".into();
        current.cases[0].serial.min_ms *= 100.0;
        assert!(find_regressions(&current, &baseline, 25.0).is_empty());
    }

    #[test]
    fn identical_reports_pass_the_ratio_gate() {
        let report = run_suite("ratio", &quick_opts());
        assert!(find_ratio_regressions(&report, &report, 25.0).is_empty());
    }

    #[test]
    fn ratio_gate_is_machine_normalized() {
        let baseline = run_suite("ratio", &quick_opts());
        // A uniformly 3×-slower machine keeps every ratio unchanged: the
        // absolute gate would flag everything, the ratio gate nothing.
        let mut slower = baseline.clone();
        for case in &mut slower.cases {
            case.serial.min_ms *= 3.0;
            case.parallel.min_ms *= 3.0;
        }
        assert!(!find_regressions(&slower, &baseline, 25.0).is_empty());
        assert!(find_ratio_regressions(&slower, &baseline, 25.0).is_empty());
    }

    #[test]
    fn parallel_only_regression_fails_the_ratio_gate() {
        let baseline = run_suite("ratio", &quick_opts());
        let mut current = baseline.clone();
        // The parallel path alone slows 2×: ratio worsens 100%.
        current.cases[1].parallel.min_ms = baseline.cases[1].parallel.min_ms * 2.0;
        let regressions = find_ratio_regressions(&current, &baseline, 25.0);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].case, current.cases[1].name);
        assert!(regressions[0].regress_pct > 90.0);
        assert!(find_ratio_regressions(&current, &baseline, 150.0).is_empty());
    }

    #[test]
    fn ratio_gate_skips_renamed_and_degenerate_cases() {
        let baseline = run_suite("ratio", &quick_opts());
        let mut current = baseline.clone();
        current.cases[0].name = "renamed".into();
        current.cases[0].parallel.min_ms *= 100.0;
        current.cases[1].serial.min_ms = 0.0;
        current.cases[1].parallel.min_ms *= 100.0;
        assert!(find_ratio_regressions(&current, &baseline, 25.0).is_empty());
    }

    /// A report with one case per name and identical timings.
    fn report_with(names: &[&str]) -> BenchReport {
        let stats = TimingStats { median_ms: 1.0, p95_ms: 1.0, min_ms: 1.0, mean_ms: 1.0 };
        BenchReport {
            schema_version: SCHEMA_VERSION,
            bench_id: "names".into(),
            threads: 2,
            warmup: 0,
            trials: 1,
            quick: true,
            cases: names.iter().map(|&name| named_case(name.into(), stats, stats)).collect(),
        }
    }

    #[test]
    fn baseline_case_missing_from_the_run_is_unmatched() {
        let baseline = report_with(&["a", "b", "stale"]);
        let current = report_with(&["a", "b"]);
        // Both gates pass: they only see the shared cases.
        assert!(find_regressions(&current, &baseline, 25.0).is_empty());
        assert!(find_ratio_regressions(&current, &baseline, 25.0).is_empty());
        let unmatched = unmatched_cases(&current, &baseline);
        assert_eq!(unmatched.missing, vec!["stale".to_string()]);
        assert!(unmatched.unbaselined.is_empty());
        assert!(!unmatched.is_empty());
    }

    #[test]
    fn run_case_missing_from_the_baseline_is_unmatched() {
        let baseline = report_with(&["a", "b_4x6"]);
        let current = report_with(&["a", "b_8x12"]);
        let unmatched = unmatched_cases(&current, &baseline);
        assert_eq!(unmatched.missing, vec!["b_4x6".to_string()]);
        assert_eq!(unmatched.unbaselined, vec!["b_8x12".to_string()]);
        assert!(unmatched_cases(&current, &current).is_empty());
    }
}
