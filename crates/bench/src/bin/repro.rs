//! Regenerates every table and figure of the MEADOW paper's evaluation.
//!
//! ```text
//! cargo run --release -p meadow-bench --bin repro -- all
//! cargo run --release -p meadow-bench --bin repro -- fig6 fig7
//! cargo run --release -p meadow-bench --bin repro -- --list
//! cargo run --release -p meadow-bench --bin repro -- --out-dir out/repro fig6
//! ```
//!
//! Each artifact is printed as an aligned table (with the paper's claim for
//! side-by-side comparison) and written as CSV under `target/repro/` (or
//! `--out-dir`). Artifacts regenerate concurrently; set `MEADOW_THREADS`
//! to bound the worker count.

use meadow_bench::{
    ablations, default_out_dir, figs_design, figs_latency, figs_packing, figs_serve, Artifact,
    ReproContext,
};
use meadow_core::CoreError;
use meadow_tensor::parallel::{par_map, ExecConfig};
use std::path::PathBuf;
use std::process::ExitCode;

type Generator = fn(&ReproContext) -> Result<Artifact, CoreError>;

const GENERATORS: &[(&str, Generator)] = &[
    ("table1", figs_design::table1 as Generator),
    ("fig1b", figs_latency::fig1b),
    ("fig1c", figs_latency::fig1c),
    ("fig4a", figs_packing::fig4a),
    ("fig6", figs_latency::fig6),
    ("fig7", figs_latency::fig7),
    ("fig8", figs_latency::fig8),
    ("fig9", figs_latency::fig9),
    ("fig10a", figs_packing::fig10a),
    ("fig10bc", figs_packing::fig10bc),
    ("fig11", figs_latency::fig11),
    ("fig12a", figs_design::fig12a),
    ("fig12b", figs_design::fig12b),
    ("fig13", figs_design::fig13),
    ("lossless", figs_packing::lossless),
    ("serve", figs_serve::serve_artifact),
    ("serve_paged", figs_serve::serve_paged_artifact),
    ("serve_kvcomp", figs_serve::serve_kvcomp_artifact),
    ("serve_cluster", figs_serve::serve_cluster_artifact),
    ("serve_disagg", figs_serve::serve_disagg_artifact),
    ("serve_coldstart", figs_serve::serve_coldstart_artifact),
    ("serve_hetero", figs_serve::serve_hetero_artifact),
    ("plan_capacity", figs_serve::plan_capacity_artifact),
    ("ablation_chunk", ablations::ablation_chunk),
    ("ablation_payload", ablations::ablation_payload),
    ("ablation_parallelism", ablations::ablation_parallelism),
    ("ablation_overlap", ablations::ablation_overlap),
    ("ablation_zipf", ablations::ablation_zipf),
];

fn main() -> ExitCode {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    if raw_args.iter().any(|a| a == "--help" || a == "-h") {
        println!("Usage: repro [--list] [--out-dir DIR] [ARTIFACT...]");
        println!();
        println!("Regenerates tables and figures from the MEADOW paper's evaluation.");
        println!("With no arguments (or `all`), regenerates every artifact. Tables are");
        println!("printed to stdout and written as CSV under target/repro/.");
        println!();
        println!("Options:");
        println!("  --list             print the available artifact names and exit");
        println!("  --out-dir <DIR>    write CSVs under DIR instead of target/repro/");
        println!("  -h, --help         print this help and exit");
        return ExitCode::SUCCESS;
    }
    if raw_args.iter().any(|a| a == "--list") {
        for (name, _) in GENERATORS {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }
    let mut out_dir = default_out_dir();
    let mut args = Vec::new();
    let mut it = raw_args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--out-dir" {
            match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("missing value for `--out-dir`; see --help");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            args.push(arg);
        }
    }
    let selected: Vec<&(&str, Generator)> = if args.is_empty() || args.iter().any(|a| a == "all") {
        GENERATORS.iter().collect()
    } else {
        let mut sel = Vec::new();
        for a in &args {
            match GENERATORS.iter().find(|(name, _)| name == a) {
                Some(g) => sel.push(g),
                None => {
                    eprintln!("unknown artifact `{a}`; use --list to see options");
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };
    let ctx = ReproContext::new();
    // Artifacts are independent and ragged in cost; fan them out on the
    // shared worker pool (MEADOW_THREADS or available parallelism) and
    // print in the selection order.
    let exec = ExecConfig::from_env();
    let results: Vec<(&str, Result<Artifact, CoreError>)> =
        par_map(&selected, &exec, |(name, generator)| (*name, generator(&ctx)));
    let mut failures = 0;
    for (name, result) in results {
        println!("==================================================================");
        println!("=== {name}");
        match result {
            Ok(artifact) => {
                println!("PAPER: {}", artifact.paper_claim);
                println!();
                print!("{}", artifact.table);
                for note in &artifact.notes {
                    println!("MEASURED: {note}");
                }
                let path = artifact.csv_path(&out_dir);
                match artifact.table.write_csv(&path) {
                    Ok(()) => println!("(csv written to {})", path.display()),
                    Err(e) => {
                        eprintln!("failed to write {}: {e}", path.display());
                        failures += 1;
                    }
                }
                println!();
            }
            Err(e) => {
                eprintln!("{name} FAILED: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
