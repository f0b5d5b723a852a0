//! Reproduction harness for every table and figure in the MEADOW paper's
//! evaluation (§6), plus the `perfbench` wall-clock suite.
//!
//! Each `figXX` function regenerates one artifact as a
//! [`meadow_core::report::Table`]; the `repro` binary prints them and writes
//! CSVs under `target/repro/` (redirectable with `--out-dir`). The `PAPER:`
//! annotation strings document what the original reports, so divergence is
//! visible right in the output (see `EXPERIMENTS.md` for the recorded
//! comparison).
//!
//! The [`perf`] module and its `perfbench` binary are the machine-readable
//! performance surface: serial-vs-parallel timings of the hot paths as
//! schema-versioned `BENCH_<id>.json`, with a regression gate used by CI.
//! The [`linkcheck`] module and binary keep `README.md` and `docs/*.md`
//! free of broken relative links (also a CI gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod context;
pub mod figs_design;
pub mod figs_latency;
pub mod figs_packing;
pub mod figs_serve;
pub mod linkcheck;
pub mod perf;

pub use context::ReproContext;
pub use perf::{BenchReport, PerfOptions};

use meadow_core::report::Table;
use std::path::PathBuf;

/// One regenerated artifact: a table plus its paper-side expectation.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Identifier ("fig6a", "table1", ...).
    pub id: &'static str,
    /// One-line description of what the paper's version shows.
    pub paper_claim: &'static str,
    /// The regenerated data.
    pub table: Table,
    /// Free-form notes computed during regeneration (measured headline
    /// numbers, in the same units the paper quotes).
    pub notes: Vec<String>,
}

impl Artifact {
    /// Output path for this artifact's CSV.
    pub fn csv_path(&self, out_dir: &std::path::Path) -> PathBuf {
        out_dir.join(format!("{}.csv", self.id))
    }
}

/// Default output directory (`target/repro`).
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("target/repro")
}
