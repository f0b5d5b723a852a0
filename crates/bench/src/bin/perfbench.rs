//! Machine-readable performance harness for the MEADOW hot paths.
//!
//! ```text
//! cargo run --release --bin perfbench                       # run, write BENCH_local.json
//! cargo run --release --bin perfbench -- --threads 4 --id ci
//! cargo run --release --bin perfbench -- --compare bench/baseline.json --max-regress 25
//! cargo run --release --bin perfbench -- --compare bench/baseline.json --gate ratio
//! cargo run --release --bin perfbench -- --current a.json --compare b.json
//! ```
//!
//! Times the tiled INT8 GEMM, packing chunk decomposition, functional batch
//! forward, continuous-batching serve simulator and multi-chip cluster
//! serve serial vs parallel
//! (warmup + N trials, median/p95), emits a schema-versioned
//! `BENCH_<id>.json`, and — in `--compare` mode — exits nonzero on a
//! regression past `--max-regress` percent, or when the current and
//! baseline reports do not have the same case names. `--gate absolute`
//! (default) compares best-trial times (`min_ms`, the noise-robust
//! statistic) and needs a baseline from like hardware; `--gate ratio`
//! compares each case's parallel/serial ratio, which is machine-normalized
//! and safe against baselines recorded on different hardware.

use meadow_bench::perf::{self, BenchReport, PerfOptions};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq, Eq)]
enum GateMode {
    Absolute,
    Ratio,
}

struct Args {
    out_dir: PathBuf,
    bench_id: String,
    opts: PerfOptions,
    compare: Option<PathBuf>,
    current: Option<PathBuf>,
    max_regress_pct: f64,
    gate: GateMode,
}

fn print_help() {
    println!("Usage: perfbench [OPTIONS]");
    println!();
    println!("Times the MEADOW hot paths (tiled INT8 GEMM, packing decompose, batch");
    println!("forward) serial vs parallel and writes a schema-versioned BENCH_<id>.json.");
    println!();
    println!("Options:");
    println!("  --out-dir <DIR>      output directory for BENCH_<id>.json (default target/perf)");
    println!("  --id <ID>            report identifier (default `local`)");
    println!("  --threads <N>        parallel-variant worker threads (default MEADOW_THREADS");
    println!("                       or the host's available parallelism)");
    println!("  --warmup <N>         untimed warmup iterations per variant (default 3)");
    println!("  --trials <N>         timed trials per variant (default 10)");
    println!("  --quick              reduced problem sizes (CI smoke / tests)");
    println!("  --compare <FILE>     compare against a baseline BENCH json; exit 1 on");
    println!("                       regression beyond --max-regress or when the two");
    println!("                       reports' case names differ");
    println!("  --current <FILE>     with --compare: read the current report from FILE");
    println!("                       instead of running the suite");
    println!("  --max-regress <PCT>  allowed slowdown in percent (default 25)");
    println!("  --gate <MODE>        comparison mode: `absolute` (best-trial ms, needs a");
    println!("                       like-hardware baseline; default) or `ratio`");
    println!("                       (parallel/serial ratio per case, machine-normalized)");
    println!("  -h, --help           print this help and exit");
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        out_dir: PathBuf::from("target/perf"),
        bench_id: "local".to_string(),
        opts: PerfOptions::default(),
        compare: None,
        current: None,
        max_regress_pct: 25.0,
        gate: GateMode::Absolute,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("missing value for `{name}`; see --help"));
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--id" => args.bench_id = value("--id")?,
            "--threads" => {
                args.opts.threads =
                    value("--threads")?.parse().map_err(|e| format!("bad --threads value: {e}"))?;
            }
            "--warmup" => {
                args.opts.warmup =
                    value("--warmup")?.parse().map_err(|e| format!("bad --warmup value: {e}"))?;
            }
            "--trials" => {
                args.opts.trials =
                    value("--trials")?.parse().map_err(|e| format!("bad --trials value: {e}"))?;
            }
            "--quick" => args.opts.quick = true,
            "--compare" => args.compare = Some(PathBuf::from(value("--compare")?)),
            "--current" => args.current = Some(PathBuf::from(value("--current")?)),
            "--max-regress" => {
                args.max_regress_pct = value("--max-regress")?
                    .parse()
                    .map_err(|e| format!("bad --max-regress value: {e}"))?;
            }
            "--gate" => {
                args.gate = match value("--gate")?.as_str() {
                    "absolute" => GateMode::Absolute,
                    "ratio" => GateMode::Ratio,
                    other => {
                        return Err(format!(
                            "bad --gate value `{other}`; expected `absolute` or `ratio`"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown option `{other}`; see --help")),
        }
    }
    if args.current.is_some() && args.compare.is_none() {
        return Err("`--current` requires `--compare <baseline>`".to_string());
    }
    Ok(Some(args))
}

fn load_report(path: &std::path::Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    BenchReport::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn print_summary(report: &BenchReport) {
    println!(
        "perfbench `{}`: {} threads, {} warmup + {} trials{}",
        report.bench_id,
        report.threads,
        report.warmup,
        report.trials,
        if report.quick { ", quick sizes" } else { "" }
    );
    println!("{:<34} {:>14} {:>14} {:>9}", "case", "serial med ms", "par med ms", "speedup");
    for case in &report.cases {
        println!(
            "{:<34} {:>14.3} {:>14.3} {:>8.2}x",
            case.name, case.serial.median_ms, case.parallel.median_ms, case.speedup
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_help();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Obtain the current report: from a file, or by running the suite.
    let current = match &args.current {
        Some(path) => match load_report(path) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let report = perf::run_suite(&args.bench_id, &args.opts);
            print_summary(&report);
            if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
                eprintln!("cannot create {}: {e}", args.out_dir.display());
                return ExitCode::FAILURE;
            }
            let path = args.out_dir.join(report.file_name());
            let json = match report.to_json() {
                Ok(json) => json,
                Err(e) => {
                    eprintln!("serialization failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("(report written to {})", path.display());
            report
        }
    };
    // Gate against the baseline when requested.
    let Some(baseline_path) = &args.compare else {
        return ExitCode::SUCCESS;
    };
    let baseline = match load_report(baseline_path) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Medians are only comparable when both runs used the same worker
    // count and problem sizes; flag mismatches loudly instead of gating on
    // apples-to-oranges numbers.
    if current.threads != baseline.threads {
        eprintln!(
            "warning: comparing {} threads against a {}-thread baseline; parallel medians are not comparable",
            current.threads, baseline.threads
        );
    }
    if current.quick != baseline.quick {
        eprintln!(
            "error: current quick={} but baseline quick={}; problem sizes differ, refusing to compare",
            current.quick, baseline.quick
        );
        return ExitCode::FAILURE;
    }
    let unmatched = perf::unmatched_cases(&current, &baseline);
    if !unmatched.is_empty() {
        eprintln!("error: the case names differ from {}:", baseline_path.display());
        for name in &unmatched.missing {
            eprintln!("  `{name}` is in the baseline but not in the current report");
        }
        for name in &unmatched.unbaselined {
            eprintln!("  `{name}` is in the current report but not in the baseline");
        }
        return ExitCode::FAILURE;
    }
    let compared = current.cases.len();
    match args.gate {
        GateMode::Absolute => {
            let regressions = perf::find_regressions(&current, &baseline, args.max_regress_pct);
            if regressions.is_empty() {
                println!(
                    "no regression beyond {:.1}% vs {} ({compared} cases compared)",
                    args.max_regress_pct,
                    baseline_path.display(),
                );
                return ExitCode::SUCCESS;
            }
            eprintln!(
                "{} regression(s) beyond {:.1}% vs {}:",
                regressions.len(),
                args.max_regress_pct,
                baseline_path.display()
            );
            for r in &regressions {
                eprintln!(
                    "  {} [{}]: {:.3} ms -> {:.3} ms (+{:.1}%)",
                    r.case, r.variant, r.baseline_ms, r.current_ms, r.regress_pct
                );
            }
            ExitCode::FAILURE
        }
        GateMode::Ratio => {
            let regressions =
                perf::find_ratio_regressions(&current, &baseline, args.max_regress_pct);
            if regressions.is_empty() {
                println!(
                    "no parallel/serial ratio worse than baseline by {:.1}% vs {} ({compared} cases compared)",
                    args.max_regress_pct,
                    baseline_path.display(),
                );
                return ExitCode::SUCCESS;
            }
            eprintln!(
                "{} ratio regression(s) beyond {:.1}% vs {}:",
                regressions.len(),
                args.max_regress_pct,
                baseline_path.display()
            );
            for r in &regressions {
                eprintln!(
                    "  {}: parallel/serial ratio {:.3} -> {:.3} (+{:.1}%)",
                    r.case, r.baseline_ratio, r.current_ratio, r.regress_pct
                );
            }
            ExitCode::FAILURE
        }
    }
}
