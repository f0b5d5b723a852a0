//! Two-clock benchmark of the MEADOW workspace.
//!
//! ```text
//! cargo run --release --manifest-path twoclock/Cargo.toml -- \
//!     --workload <serve_scale|edge_opt125m|hetero_fleet|lossless_forward> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It measures the program on two clocks: host time and memory (what a
//! user of the simulator waits for and pays) and simulated MEADOW time (the
//! hardware model's TTFT, TBT and throughput, which are deterministic for a
//! seed). With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` a separate traced run prints the per-layer metrics, each
//! beside the end-to-end metric it should move. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `WORKLOADS.md` documents the workloads and every metric.

mod checks;
mod layers;
mod metrics;
mod run;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

/// Errors the benchmark reports before exiting without a result.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("report_bytes_per_request", "B"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p95_ms", "ms"),
    ("sim_tbt_p95_ms", "ms"),
    ("sim_tokens_per_s", "tok/s"),
    ("sim_served_frac", "fraction"),
];

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: twoclock --workload <serve_scale|edge_opt125m|hetero_fleet|lossless_forward> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or(bad("unknown workload"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("must be positive"));
                    }
                    seconds = Some(s);
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad("must be 0 or 1")),
                },
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("twoclock: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "twoclock workload={} seed={} seconds={} trace={} threads={} (host cores: {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.threads(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let result = match w.serve_params() {
        Some(p) => run::serve(w, &p, &args),
        None => run::forward(w, &args),
    };
    let line = result.map_err(|e| e.to_string()).and_then(|r| {
        for m in &r.metrics {
            println!("metric {:<26} {:>20} {}", m.name, m.value, m.unit);
        }
        r.to_json_line()
    });
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("twoclock: {e}");
            ExitCode::FAILURE
        }
    }
}
