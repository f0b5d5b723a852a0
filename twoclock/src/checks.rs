//! Output checks and the simulated-clock metrics of one serving run.
//!
//! A run whose report fails a check counts as a failed operation.

use crate::metrics::{percentile, percentile_sorted};
use meadow::core::{ServeOutcome, ServeReport};
use meadow::models::workload::ArrivalTrace;
use std::collections::{HashMap, HashSet};

const NO_DISAGG: &str = "no workload sets a phase placement";

/// The per-chip reports of a single-chip or cluster outcome, in chip order.
pub fn chip_reports(outcome: &ServeOutcome) -> Vec<&ServeReport> {
    match outcome {
        ServeOutcome::Single(r) => vec![r],
        ServeOutcome::Cluster(c) => c.per_chip.iter().map(|chip| &chip.report).collect(),
        ServeOutcome::Disaggregated(_) => unreachable!("{NO_DISAGG}"),
    }
}

/// Report-level totals: offered requests, rejected requests, generated
/// tokens and simulated tokens per second.
pub fn totals(outcome: &ServeOutcome) -> (usize, u64, u64, f64) {
    match outcome {
        ServeOutcome::Single(r) => {
            (r.requests, r.rejected_requests, r.total_generated_tokens, r.tokens_per_sec)
        }
        ServeOutcome::Cluster(c) => {
            (c.requests, c.rejected_requests, c.total_generated_tokens, c.tokens_per_sec)
        }
        ServeOutcome::Disaggregated(_) => unreachable!("{NO_DISAGG}"),
    }
}

/// The report serialized as the library serializes it for artifacts.
///
/// # Errors
///
/// Propagates serialization errors.
pub fn report_json(outcome: &ServeOutcome) -> Result<String, String> {
    match outcome {
        ServeOutcome::Single(r) => r.to_json(),
        ServeOutcome::Cluster(c) => c.to_json(),
        ServeOutcome::Disaggregated(_) => unreachable!("{NO_DISAGG}"),
    }
    .map_err(|e| e.to_string())
}

/// Checks one serving report against the trace it served and the per-chip
/// KV budget:
///
/// * one trace per offered request, each id once, and served + rejected ==
///   offered (also against the report's counters);
/// * every served request generated exactly its `generate_tokens`, with one
///   TBT sample per token, and the report's token total is their sum;
/// * every chip's peak KV residency fits the budget;
/// * `arrival ≤ first token ≤ finish` for every served request.
///
/// # Errors
///
/// Describes the first violated law.
pub fn check_serve(
    trace: &ArrivalTrace,
    outcome: &ServeOutcome,
    budget: u64,
) -> Result<(), String> {
    let offered = trace.requests.len();
    let generate: HashMap<u32, usize> =
        trace.requests.iter().map(|r| (r.id, r.generate_tokens)).collect();
    let (requests, rejected, generated, _) = totals(outcome);
    if requests != offered {
        return Err(format!("report counts {requests} requests, trace offered {offered}"));
    }
    let mut seen = HashSet::with_capacity(offered);
    let (mut served, mut rejected_traces, mut expected_tokens) = (0usize, 0u64, 0u64);
    for (chip, report) in chip_reports(outcome).into_iter().enumerate() {
        if report.peak_kv_bytes > budget {
            return Err(format!(
                "chip {chip} peak KV {} B exceeds the {budget} B budget",
                report.peak_kv_bytes
            ));
        }
        for t in &report.traces {
            let want = *generate.get(&t.id).ok_or(format!("trace of unknown request {}", t.id))?;
            if !seen.insert(t.id) {
                return Err(format!("request {} has two traces", t.id));
            }
            if t.rejected {
                rejected_traces += 1;
                continue;
            }
            served += 1;
            if t.generated_tokens != want || t.tbt_ms.len() != want {
                return Err(format!(
                    "request {} generated {} tokens with {} TBT samples, asked for {want}",
                    t.id,
                    t.generated_tokens,
                    t.tbt_ms.len()
                ));
            }
            expected_tokens += want as u64;
            if !(t.arrival_ms <= t.first_token_ms && t.first_token_ms <= t.finish_ms) {
                return Err(format!(
                    "request {}: arrival {} / first token {} / finish {} out of order",
                    t.id, t.arrival_ms, t.first_token_ms, t.finish_ms
                ));
            }
        }
    }
    if seen.len() != offered {
        return Err(format!("{} traces for {offered} offered requests", seen.len()));
    }
    if served + rejected_traces as usize != offered || rejected_traces != rejected {
        return Err(format!(
            "served {served} + rejected {rejected_traces} traces vs {offered} offered, \
             report rejects {rejected}"
        ));
    }
    if generated != expected_tokens {
        return Err(format!(
            "report generated {generated} tokens, served requests asked for {expected_tokens}"
        ));
    }
    Ok(())
}

/// The simulated-clock end-to-end metrics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub ttft_p50_ms: f64,
    pub ttft_p95_ms: f64,
    /// p95 over requests of the decode pace (see [`sim_metrics`]).
    pub tbt_p95_ms: f64,
    pub tokens_per_s: f64,
    /// Served requests over offered requests.
    pub served_frac: f64,
}

/// TTFT percentiles and the p95 decode pace over served requests, from the
/// per-request traces; throughput from the report.
///
/// A request's decode pace is the mean wall-clock gap between its
/// consecutive tokens, `(finish - first token) / (tokens - 1)`, batching and
/// reloads included: what a streaming client sees between tokens. (The
/// traces' per-token own service times take only a few distinct values per
/// model, so their p95 would not move with the seed.)
pub fn sim_metrics(outcome: &ServeOutcome) -> SimMetrics {
    let chips = chip_reports(outcome);
    let served = || chips.iter().flat_map(|r| &r.traces).filter(|t| !t.rejected);
    let mut ttft: Vec<f64> = served().map(|t| t.ttft_ms()).collect();
    ttft.sort_by(f64::total_cmp);
    let tbt: Vec<f64> = served()
        .filter(|t| t.generated_tokens > 1)
        .map(|t| (t.finish_ms - t.first_token_ms) / (t.generated_tokens - 1) as f64)
        .collect();
    let (requests, rejected, _, tokens_per_s) = totals(outcome);
    SimMetrics {
        ttft_p50_ms: percentile_sorted(&ttft, 0.50),
        ttft_p95_ms: percentile_sorted(&ttft, 0.95),
        tbt_p95_ms: percentile(tbt, 0.95),
        tokens_per_s,
        served_frac: (requests as u64 - rejected) as f64 / requests.max(1) as f64,
    }
}
