//! The closed measurement loop and the two workload runners.
//!
//! One client, closed loop: the next run starts when the previous one
//! returns, for `--seconds` seconds (and at least [`MIN_RUNS`] runs). Each
//! run is one operation; it fails if it returns `Err` or fails a check.

use crate::checks::{check_serve, chip_reports, report_json, sim_metrics, totals, SimMetrics};
use crate::layers::{confirm, replay, sim_breakdown, step_keys, LayerValues};
use crate::metrics::{fnv1a64, median, peak_rss_mb, percentile, timed, Metric, RunResult};
use crate::workloads::{
    forward_inputs, setup_forward, setup_serve, ServeParams, Workload, LOSSLESS_MAX_ROWS,
    TOKEN_PARALLELISM,
};
use crate::{Args, BenchResult};
use meadow::core::accuracy::LosslessReport;
use meadow::core::{MeadowEngine, ServeOutcome};
use meadow::dataflow::forward::{batch_model_forward, ForwardMode, ForwardScales};
use meadow::models::MatrixKind;
use meadow::packing::PackingLevel;
use meadow::sim::TrafficClass;
use meadow::tensor::fixed::ExpLut;
use meadow::tensor::gemm::matmul_i8_bt_with;
use meadow::tensor::{ExecConfig, Matrix};
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest runs a measurement makes, however long they take.
pub const MIN_RUNS: u64 = 3;
/// Set-up repeats at least this often, and until [`SETUP_MIN_TIME`] has
/// passed (at most [`SETUP_MAX_REPS`] times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_MIN_TIME: Duration = Duration::from_secs(2);

/// Runs `setup` repeatedly, handing each result and its wall time to
/// `each`, and keeps the last result. The previous result is dropped before
/// the next is built, so peak memory holds one set-up.
fn repeat_setup<T>(
    mut setup: impl FnMut() -> BenchResult<T>,
    mut each: impl FnMut(&T, f64),
) -> BenchResult<T> {
    let start = Instant::now();
    let mut last = None;
    let mut reps = 0;
    while reps < SETUP_MIN_REPS || (start.elapsed() < SETUP_MIN_TIME && reps < SETUP_MAX_REPS) {
        drop(last.take());
        let (built, secs) = timed(&mut setup);
        let built = built?;
        each(&built, secs);
        last = Some(built);
        reps += 1;
    }
    Ok(last.expect("set-up ran at least once"))
}

/// Counts the closed loop's operations and decides when it ends.
struct ClosedLoop {
    start: Instant,
    seconds: f64,
    attempted: u64,
    failed: u64,
}

impl ClosedLoop {
    fn new(seconds: f64) -> Self {
        Self { start: Instant::now(), seconds, attempted: 0, failed: 0 }
    }

    fn more(&self) -> bool {
        self.attempted < MIN_RUNS || self.start.elapsed().as_secs_f64() < self.seconds
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        eprintln!("run {} failed: {why}", self.attempted);
    }
}

/// The first successful run's outputs, which every later run must match.
struct FirstRun<S> {
    digest: u64,
    sim: S,
    report_bytes: usize,
}

/// Checks a run's digest and simulated metrics against the first run's
/// (recording them on the first run).
fn same_as_first<S: PartialEq + Copy>(
    first: &mut Option<FirstRun<S>>,
    json: &str,
    sim: S,
) -> Result<(), String> {
    let digest = fnv1a64(json.as_bytes());
    match first {
        None => {
            println!("digest fnv1a64={digest:016x} ({} report bytes)", json.len());
            *first = Some(FirstRun { digest, sim, report_bytes: json.len() });
            Ok(())
        }
        Some(f) if f.digest == digest && f.sim == sim => Ok(()),
        Some(f) => Err(format!(
            "report digest {digest:016x} or simulated metrics differ from the first run's {:016x}",
            f.digest
        )),
    }
}

/// The end-to-end metrics shared by every workload.
fn e2e_metrics(
    setup_s: &[f64],
    run_s: &[f64],
    bytes_per_request: f64,
    sim: SimMetrics,
) -> BenchResult<Vec<Metric>> {
    let metric = |name, unit, value| Metric { name, unit, value };
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    println!("setup_s: {} set-ups, fastest {fastest} s", setup_s.len());
    println!("run_s samples {run_s:?}");
    Ok(vec![
        metric("setup_s", "s", median(setup_s)),
        metric("run_s", "s", median(run_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        metric("report_bytes_per_request", "B", bytes_per_request),
        metric("sim_ttft_p50_ms", "ms", sim.ttft_p50_ms),
        metric("sim_ttft_p95_ms", "ms", sim.ttft_p95_ms),
        metric("sim_tbt_p95_ms", "ms", sim.tbt_p95_ms),
        metric("sim_tokens_per_s", "tok/s", sim.tokens_per_s),
        metric("sim_served_frac", "fraction", sim.served_frac),
    ])
}

/// Runs a serving workload: `ServeSpec::run`, then the report serialized
/// to memory, as one operation.
///
/// # Errors
///
/// Fails on set-up errors, or when no run succeeded.
pub fn serve(w: Workload, p: &ServeParams, args: &Args) -> BenchResult<RunResult> {
    let threads = w.threads();
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let setup = repeat_setup(
        || setup_serve(p, threads),
        |s, secs| {
            setup_s.push(secs);
            // A fleet's spec build is its chips' engine builds.
            build_s.push(s.engine_build_s + if p.fleet { s.spec_build_s } else { 0.0 });
        },
    )?;
    let trace = p.trace(args.seed)?;
    let budget = p.budget_bytes();
    println!(
        "{} requests at {} req/s (simulated), prompt {}-{}, generate {}-{}, budget {budget} B \
         per chip, {} set-ups",
        p.requests,
        p.rate_per_sec,
        p.lengths.prompt_min,
        p.lengths.prompt_max,
        p.lengths.generate_min,
        p.lengths.generate_max,
        setup_s.len()
    );

    let mut lp = ClosedLoop::new(args.seconds);
    let (mut run_s, mut serve_s, mut json_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut kept: Option<ServeOutcome> = None;
    while lp.more() {
        lp.attempted += 1;
        let (result, total) = timed(|| {
            let (outcome, serve) = timed(|| setup.spec.run(&setup.engine, &trace));
            let outcome = outcome.map_err(|e| e.to_string())?;
            let json = report_json(&outcome)?;
            Ok::<_, String>((outcome, json, serve))
        });
        let checked = result.and_then(|(outcome, json, serve)| {
            check_serve(&trace, &outcome, budget)?;
            same_as_first(&mut first, &json, sim_metrics(&outcome))?;
            Ok((outcome, serve))
        });
        match checked {
            Ok((outcome, serve)) => {
                run_s.push(total);
                serve_s.push(serve);
                json_s.push(total - serve);
                if args.trace && kept.is_none() {
                    kept = Some(outcome);
                }
            }
            Err(e) => lp.fail(&e),
        }
    }
    let first = first.ok_or("no run succeeded")?;
    let per_request = first.report_bytes as f64 / p.requests as f64;
    let metrics = if args.trace {
        let outcome = kept.expect("a successful traced run keeps its outcome");
        let mut v = LayerValues::default();
        v.set("trace.run_s", median(&run_s));
        v.set("serve.run_s", median(&serve_s));
        v.set("report.to_json_s", median(&json_s));
        v.set("report.bytes", first.report_bytes as f64);
        serve_layers(&mut v, p, &setup.engine, &outcome, median(&build_s), threads)?;
        let prompts = trace.requests.iter().map(|r| r.prompt_tokens).collect();
        sim_breakdown(&mut v, &setup.engine, lower_median(prompts))?;
        v.print();
        confirm_serve(w, &v);
        v.into_metrics()
    } else {
        e2e_metrics(&setup_s, &run_s, per_request, first.sim)?
    };
    Ok(RunResult { attempted: lp.attempted, failed: lp.failed, metrics })
}

/// Derives the engine, serve, cluster and packing layer numbers of one
/// serving outcome by timing the public calls serve makes.
fn serve_layers(
    v: &mut LayerValues,
    p: &ServeParams,
    engine: &MeadowEngine,
    outcome: &ServeOutcome,
    setup_build_s: f64,
    threads: usize,
) -> BenchResult<()> {
    // `ServeSpec::run` builds one engine per fleet chip (packing
    // statistics included) inside the run; a single chip reuses `engine`.
    let mut in_run_build_s = 0.0;
    let chip_engines: Vec<MeadowEngine> = if p.fleet {
        let mut built = Vec::new();
        for spec in p.fleet_specs() {
            let (e, secs) = timed(|| MeadowEngine::new(spec));
            in_run_build_s += secs;
            built.push(e?);
        }
        built
    } else {
        vec![engine.clone()]
    };
    v.set("packing.engine_build_s", setup_build_s + in_run_build_s);
    v.set("packing.in_run_build_s", in_run_build_s);
    // A fleet builds each chip's engine twice: to validate the spec at
    // set-up, and again inside every run.
    let fleet_builds = if p.fleet { 2 * chip_engines.len() } else { 0 };
    v.set("packing.engine_builds", (1 + fleet_builds) as f64);

    let chips = chip_reports(outcome);
    let (mut calls, mut measure_s, mut slowest_chip_s) = (0usize, 0.0f64, 0.0f64);
    for (report, chip_engine) in chips.iter().zip(&chip_engines) {
        let keys = step_keys(report);
        let (replayed, secs) = timed(|| replay(chip_engine, &keys));
        replayed?;
        calls += keys.len();
        measure_s += secs;
        slowest_chip_s = slowest_chip_s.max(secs);
    }
    v.set("engine.measure_calls", calls as f64);
    v.set("engine.measure_s", measure_s);
    v.set("engine.measure_us", measure_s / calls.max(1) as f64 * 1e6);
    // Chips serve concurrently when there are threads for them, so only
    // the slowest chip's measuring sits on the run's critical path: the
    // self time is then an estimate.
    let concurrent = threads > 1 && chips.len() > 1;
    let critical_s = if concurrent { slowest_chip_s } else { measure_s };
    let serve_run_s = v.get("serve.run_s");
    v.set("serve.self_s", serve_run_s - critical_s - in_run_build_s);
    if concurrent {
        println!(
            "note: serve.self_s is an estimate; {} chips overlap on {threads} threads",
            chips.len()
        );
    }
    v.set("serve.us_per_request", serve_run_s / p.requests as f64 * 1e6);

    let (_, _, generated, _) = totals(outcome);
    let sum = |f: fn(&meadow::core::ServeReport) -> u64| chips.iter().map(|r| f(r)).sum::<u64>();
    let ticks = sum(|r| r.ticks);
    v.set("serve.ticks", ticks as f64);
    v.set("serve.tokens_per_tick", generated as f64 / ticks.max(1) as f64);
    v.set("serve.evictions", sum(|r| r.total_evictions) as f64);
    v.set("serve.page_spills", sum(|r| r.total_page_spills) as f64);
    v.set("serve.page_faults", sum(|r| r.total_page_faults) as f64);
    let dram = sum(|r| r.ledger.fetch_bytes() + r.ledger.store_bytes());
    v.set("sim.dram_bytes_per_token", dram as f64 / generated.max(1) as f64);
    v.set("sim.kv_reload_bytes", sum(|r| r.ledger.bytes(TrafficClass::KvCache)) as f64);

    if let ServeOutcome::Cluster(c) = outcome {
        let assigned: Vec<f64> =
            c.per_chip.iter().map(|chip| chip.assigned_requests as f64).collect();
        let mean = assigned.iter().sum::<f64>() / assigned.len() as f64;
        v.set("cluster.request_imbalance", assigned.iter().copied().fold(0.0, f64::max) / mean);
        let util: Vec<f64> =
            c.per_chip.iter().map(|chip| chip.utilization.unwrap_or(0.0)).collect();
        v.set("cluster.util_min", util.iter().copied().fold(f64::INFINITY, f64::min));
        v.set("cluster.util_max", util.iter().copied().fold(0.0, f64::max));
        v.set("cluster.noc_link_bytes", c.noc_link_bytes as f64);
        v.set("cluster.dram_kv_bytes", c.dram_kv_bytes as f64);
    }
    Ok(())
}

/// Confirms each serving workload loads the layer it was chosen for.
fn confirm_serve(w: Workload, v: &LayerValues) {
    let measure_share = v.get("engine.measure_s") / v.get("serve.run_s");
    let run_s = v.get("trace.run_s");
    match w {
        Workload::ServeScale => {
            confirm(
                "engine.measure_s / serve.run_s",
                measure_share,
                "small, < 0.2",
                measure_share < 0.2,
            );
            let share = (v.get("serve.self_s") + v.get("report.to_json_s")) / run_s;
            confirm(
                "(serve.self_s + report.to_json_s) / run_s",
                share,
                "majority, > 0.5",
                share > 0.5,
            );
        }
        Workload::EdgeOpt125m => {
            confirm(
                "engine.measure_s / serve.run_s",
                measure_share,
                "majority, > 0.5",
                measure_share > 0.5,
            );
        }
        Workload::HeteroFleet => {
            let share = v.get("packing.in_run_build_s") / run_s;
            confirm("packing.in_run_build_s / run_s", share, "visible, > 0.1", share > 0.1);
        }
        Workload::LosslessForward => unreachable!("not a serving workload"),
    }
}

/// The serialized report of one forward run.
#[derive(Debug, Serialize)]
struct ForwardReport {
    model: String,
    sequences: Vec<SequenceReport>,
    lossless: LosslessReport,
}

/// One forwarded sequence: its output digest and simulated latencies.
#[derive(Debug, Serialize)]
struct SequenceReport {
    tokens: usize,
    output_fnv1a64: u64,
    /// Simulated MEADOW prefill of the prompt (its TTFT), in ms.
    sim_ttft_ms: f64,
    /// Simulated first decode step after the prompt, in ms.
    sim_tbt_ms: f64,
}

/// Checks one forward run: TPHS outputs bit-equal to GEMM outputs and
/// shaped like the inputs, and every matrix round-trips at every packing
/// level.
fn check_forward(
    inputs: &[Matrix<i8>],
    gemm: &[Matrix<i8>],
    tphs: &[Matrix<i8>],
    lossless: &LosslessReport,
    layers: usize,
) -> Result<(), String> {
    if gemm.len() != inputs.len() || tphs.len() != inputs.len() {
        return Err("a forward dropped sequences".into());
    }
    for (i, ((x, g), t)) in inputs.iter().zip(gemm).zip(tphs).enumerate() {
        if g != t {
            return Err(format!("sequence {i}: TPHS output differs from GEMM output"));
        }
        if g.shape() != x.shape() {
            return Err(format!(
                "sequence {i}: output shape {:?} for input {:?}",
                g.shape(),
                x.shape()
            ));
        }
    }
    let expected = layers * MatrixKind::all().len() * PackingLevel::all().len();
    if !lossless.all_exact || lossless.matrices_checked != expected {
        return Err(format!(
            "lossless check: {} of {expected} round trips, failures {:?}",
            lossless.matrices_checked, lossless.failures
        ));
    }
    Ok(())
}

/// Runs the forward workload: `batch_model_forward` in GEMM and TPHS mode,
/// then `MeadowEngine::verify_lossless`, as one operation.
///
/// # Errors
///
/// Fails on set-up errors, or when no run succeeded.
pub fn forward(w: Workload, args: &Args) -> BenchResult<RunResult> {
    let threads = w.threads();
    let exec = ExecConfig::with_threads(threads);
    let (mut setup_s, mut synth_s, mut build_s) = (Vec::new(), Vec::new(), Vec::new());
    let setup = repeat_setup(
        || setup_forward(threads),
        |s, secs| {
            setup_s.push(secs);
            synth_s.push(s.synthesize_s);
            build_s.push(s.engine_build_s);
        },
    )?;
    let model = &setup.weights.config;
    let inputs = forward_inputs(model.d_model, args.seed);
    let lengths: Vec<usize> = inputs.iter().map(Matrix::rows).collect();
    let tokens: usize = lengths.iter().sum();
    println!("{} sequences of {lengths:?} tokens, {} set-ups", inputs.len(), setup_s.len());
    let lut = ExpLut::hardware_default();
    let scales = ForwardScales::default();
    let tphs_mode = ForwardMode::Tphs { token_parallelism: TOKEN_PARALLELISM };

    let mut lp = ClosedLoop::new(args.seconds);
    let (mut run_s, mut gemm_s, mut tphs_s, mut lossless_s, mut json_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    while lp.more() {
        lp.attempted += 1;
        let (result, total) = timed(|| -> BenchResult<_> {
            let run =
                |mode| batch_model_forward(&inputs, &setup.weights, mode, &scales, &lut, &exec);
            let (gemm, g) = timed(|| run(ForwardMode::Gemm));
            let (tphs, t) = timed(|| run(tphs_mode));
            let (lossless, l) = timed(|| setup.engine.verify_lossless(LOSSLESS_MAX_ROWS));
            let (gemm, tphs, lossless) = (gemm?, tphs?, lossless?);
            let (json, j) = timed(|| -> BenchResult<_> {
                let mut sequences = Vec::new();
                for out in &gemm {
                    let tokens = out.rows();
                    sequences.push(SequenceReport {
                        tokens,
                        output_fnv1a64: fnv1a64(
                            &out.as_slice().iter().map(|&b| b as u8).collect::<Vec<_>>(),
                        ),
                        sim_ttft_ms: setup.engine.prefill_latency(tokens)?.total_ms(),
                        sim_tbt_ms: setup.engine.decode_latency(tokens, 1)?.total_ms(),
                    });
                }
                let report = ForwardReport { model: model.name.clone(), sequences, lossless };
                Ok((serde_json::to_string_pretty(&report)?, report))
            });
            Ok((gemm, tphs, json?, [g, t, l, j]))
        });
        let checked =
            result.map_err(|e| e.to_string()).and_then(|(gemm, tphs, (json, report), spans)| {
                check_forward(&inputs, &gemm, &tphs, &report.lossless, model.layers)?;
                let ttft: Vec<f64> = report.sequences.iter().map(|s| s.sim_ttft_ms).collect();
                let tbt: Vec<f64> = report.sequences.iter().map(|s| s.sim_tbt_ms).collect();
                let sim = SimMetrics {
                    ttft_p50_ms: percentile(ttft.clone(), 0.50),
                    ttft_p95_ms: percentile(ttft.clone(), 0.95),
                    tbt_p95_ms: percentile(tbt, 0.95),
                    // Prompt tokens per simulated second of prefill.
                    tokens_per_s: tokens as f64 / (ttft.iter().sum::<f64>() / 1e3),
                    served_frac: 1.0,
                };
                same_as_first(&mut first, &json, sim)?;
                Ok(spans)
            });
        match checked {
            Ok([g, t, l, j]) => {
                run_s.push(total);
                gemm_s.push(g);
                tphs_s.push(t);
                lossless_s.push(l);
                json_s.push(j);
            }
            Err(e) => lp.fail(&e),
        }
    }
    let first = first.ok_or("no run succeeded")?;
    let metrics = if args.trace {
        let mut v = LayerValues::default();
        v.set("trace.run_s", median(&run_s));
        v.set("models.synthesize_s", median(&synth_s));
        v.set("packing.engine_build_s", median(&build_s));
        v.set("packing.engine_builds", 1.0);
        v.set("packing.roundtrip_s", median(&lossless_s));
        v.set("dataflow.forward_gemm_s", median(&gemm_s));
        v.set("dataflow.forward_tphs_s", median(&tphs_s));
        v.set("report.to_json_s", median(&json_s));
        v.set("report.bytes", first.report_bytes as f64);
        v.set("tensor.gemm_ns_per_mac", gemm_ns_per_mac(&setup.weights, &inputs[0])?);
        let mut dram = 0;
        for &len in &lengths {
            let l = setup.engine.prefill_latency(len)?.ledger;
            dram += l.fetch_bytes() + l.store_bytes();
        }
        v.set("sim.dram_bytes_per_token", dram as f64 / tokens as f64);
        sim_breakdown(&mut v, &setup.engine, lower_median(lengths.clone()))?;
        v.print();
        let share = (v.get("dataflow.forward_gemm_s")
            + v.get("dataflow.forward_tphs_s")
            + v.get("packing.roundtrip_s"))
            / v.get("trace.run_s");
        confirm("(dataflow + packing.roundtrip) / run_s", share, "most, > 0.5", share > 0.5);
        v.into_metrics()
    } else {
        e2e_metrics(&setup_s, &run_s, first.report_bytes as f64 / inputs.len() as f64, first.sim)?
    };
    Ok(RunResult { attempted: lp.attempted, failed: lp.failed, metrics })
}

/// The lower median of a non-empty list of token counts.
fn lower_median(mut tokens: Vec<usize>) -> usize {
    tokens.sort_unstable();
    tokens[(tokens.len() - 1) / 2]
}

/// Host nanoseconds per multiply-accumulate of one serial
/// `matmul_i8_bt_with` at the FFN up-projection shape (the forward pass's
/// largest GEMM), median of five.
fn gemm_ns_per_mac(
    weights: &meadow::models::weights::ModelWeights,
    x: &Matrix<i8>,
) -> BenchResult<f64> {
    let w = weights.layer(0).matrix(MatrixKind::MlpUp);
    let macs = (x.rows() * x.cols() * w.rows()) as f64;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (out, secs) = timed(|| matmul_i8_bt_with(x, w, &ExecConfig::serial()));
        black_box(out?);
        samples.push(secs * 1e9 / macs);
    }
    Ok(median(&samples))
}
