//! Helpers shared by the serving test suites; each suite uses a subset.
#![allow(dead_code)]

use meadow::core::serve::{ServeConfig, ServeReport};
use meadow::core::spec::ServeSpec;
use meadow::core::{CoreError, MeadowEngine};
use meadow::models::workload::{ArrivalTrace, ServeRequest};

/// Serves `trace` on one chip through the [`ServeSpec`] front door.
pub fn serve(
    engine: &MeadowEngine,
    trace: &ArrivalTrace,
    config: &ServeConfig,
) -> Result<ServeReport, CoreError> {
    let spec = ServeSpec::builder().config(*config).build()?;
    Ok(spec.run(engine, trace)?.into_single().expect("one chip, no cluster policies"))
}

/// FNV-1a/64 of `text` as 16 hex digits: the digest the frozen scheduler
/// oracles record for a serialized report.
pub fn fnv1a64(text: &str) -> String {
    let hash = text
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    format!("{hash:016x}")
}

/// A deterministic but varied request set derived from a seed: `n` requests
/// with ragged prompt/generation lengths (xorshift-sampled below the given
/// bounds) and arrivals staggered by multiples of `arrival_step_ms`.
pub fn requests_from_seed(
    seed: u64,
    n: usize,
    prompt_bound: u64,
    generate_bound: u64,
    arrival_step_ms: f64,
) -> ArrivalTrace {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    ArrivalTrace::new(
        (0..n)
            .map(|i| {
                let prompt = 1 + next(prompt_bound) as usize;
                let generate = 1 + next(generate_bound) as usize;
                let arrival = next(40) as f64 * arrival_step_ms;
                ServeRequest::new(i as u32, arrival, prompt, generate)
            })
            .collect(),
    )
}

/// Tags the trace's requests with `models` ids round-robin, so every
/// model appears whenever the trace has at least `models` requests.
pub fn spread_models(mut trace: ArrivalTrace, models: u32) -> ArrivalTrace {
    for (i, r) in trace.requests.iter_mut().enumerate() {
        *r = r.with_model(i as u32 % models);
    }
    trace
}
