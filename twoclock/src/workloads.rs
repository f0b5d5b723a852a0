//! The four seeded workloads: their parameters, their set-up, and the
//! inputs each one generates from `--seed`.
//!
//! `WORKLOADS.md` beside this crate records why each workload was chosen and
//! which layers it loads and bypasses.

use crate::metrics::timed;
use crate::BenchResult;
use meadow::core::cluster::{SessionAffinity, ToLeastLoaded};
use meadow::core::serve::{AdmissionPolicy, KvPolicy};
use meadow::core::{EngineConfig, MeadowEngine, ServeConfig, ServeSpec};
use meadow::models::weights::ModelWeights;
use meadow::models::workload::{ArrivalTrace, ServeRequest, ZipfLengths};
use meadow::models::{presets, TransformerConfig};
use meadow::tensor::{ExecConfig, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;

/// Off-chip bandwidth of the ZCU102 chips, the paper's edge point (Gbps).
pub const BANDWIDTH_GBPS: f64 = 12.0;
/// Off-chip bandwidth of the fleet's LITTLE chips (Gbps).
pub const LITTLE_BANDWIDTH_GBPS: f64 = 6.0;
/// Page size of the paged KV pools.
pub const PAGE_BYTES: u64 = 64 * 1024;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁵ overload requests on the tiny decoder: scheduler and report cost.
    ServeScale,
    /// OPT-125M near the paper's edge point: step measurement and packing.
    EdgeOpt125m,
    /// Four mixed chips with affinity skew and KV migration.
    HeteroFleet,
    /// Functional forward passes and the packing round trip.
    LosslessForward,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeScale,
        Workload::EdgeOpt125m,
        Workload::HeteroFleet,
        Workload::LosslessForward,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeScale => "serve_scale",
            Workload::EdgeOpt125m => "edge_opt125m",
            Workload::HeteroFleet => "hetero_fleet",
            Workload::LosslessForward => "lossless_forward",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host worker threads: at most two (and at most the host's cores).
    /// The single-chip serving workloads run serially, so that the
    /// step-measurement replay of the traced run is directly comparable to
    /// the time serve spends measuring.
    pub fn threads(self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        match self {
            Workload::ServeScale | Workload::EdgeOpt125m => 1,
            Workload::HeteroFleet | Workload::LosslessForward => cores.min(2),
        }
    }

    /// The serving parameters, for the three serving workloads.
    pub fn serve_params(self) -> Option<ServeParams> {
        let narrow = ZipfLengths {
            prompt_min: 16,
            prompt_max: 32,
            generate_min: 4,
            generate_max: 16,
            exponent: 1.1,
        };
        let wide = ZipfLengths {
            prompt_min: 32,
            prompt_max: 512,
            generate_min: 8,
            generate_max: 128,
            exponent: 1.1,
        };
        match self {
            Workload::ServeScale => Some(ServeParams {
                model: presets::tiny_decoder(),
                requests: 100_000,
                rate_per_sec: 10_000.0,
                lengths: narrow,
                budget_peak_caches: 8,
                policy: KvPolicy::Lru,
                max_batch: 8,
                admission: AdmissionPolicy::RejectAfter { ttft_slo_ms: 5.0 },
                fleet: false,
            }),
            Workload::EdgeOpt125m => Some(ServeParams {
                model: presets::opt_125m(),
                requests: 4_000,
                rate_per_sec: 2.5,
                lengths: wide,
                budget_peak_caches: 6,
                policy: KvPolicy::PagedLru,
                max_batch: 8,
                admission: AdmissionPolicy::Queue,
                fleet: false,
            }),
            Workload::HeteroFleet => Some(ServeParams {
                model: presets::opt_125m(),
                requests: 4_000,
                rate_per_sec: 6.0,
                lengths: wide,
                budget_peak_caches: 3,
                policy: KvPolicy::PagedLru,
                max_batch: 8,
                admission: AdmissionPolicy::Queue,
                fleet: true,
            }),
            Workload::LosslessForward => None,
        }
    }
}

/// Parameters of one serving workload.
#[derive(Debug, Clone)]
pub struct ServeParams {
    pub model: TransformerConfig,
    pub requests: usize,
    /// Offered Poisson rate, in requests per simulated second.
    pub rate_per_sec: f64,
    pub lengths: ZipfLengths,
    /// Per-chip KV budget, in peak caches of the longest possible request.
    pub budget_peak_caches: u64,
    pub policy: KvPolicy,
    pub max_batch: usize,
    pub admission: AdmissionPolicy,
    /// Serve on the four-chip heterogeneous fleet instead of one ZCU102.
    pub fleet: bool,
}

impl ServeParams {
    /// Per-chip KV budget in bytes. It depends on the length bounds only,
    /// not on the drawn trace, so set-up does not need the trace.
    pub fn budget_bytes(&self) -> u64 {
        let longest = ServeRequest::new(0, 0.0, self.lengths.prompt_max, self.lengths.generate_max);
        self.budget_peak_caches * longest.peak_kv_bytes(&self.model)
    }

    /// The fleet: two ZCU102 chips at 12 Gbps, then two LITTLE chips at
    /// 6 Gbps.
    pub fn fleet_specs(&self) -> Vec<EngineConfig> {
        let big = EngineConfig::zcu102(self.model.clone(), BANDWIDTH_GBPS);
        let little = EngineConfig::zcu102_little(self.model.clone(), LITTLE_BANDWIDTH_GBPS);
        vec![big.clone(), big, little.clone(), little]
    }

    /// The seeded input: open-loop Poisson arrivals with Zipf lengths. On
    /// the fleet every request also carries one of two affinity hints, so
    /// `SessionAffinity` skews all traffic onto chips 0 and 1 and the
    /// LITTLE chips only hold migrated KV.
    ///
    /// # Errors
    ///
    /// Propagates invalid-parameter errors from the trace generator.
    pub fn trace(&self, seed: u64) -> BenchResult<ArrivalTrace> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trace =
            ArrivalTrace::open_loop(self.requests, self.rate_per_sec, &self.lengths, &mut rng)?;
        if self.fleet {
            for r in &mut trace.requests {
                *r = r.with_affinity(rng.gen_range(0..2u32));
            }
        }
        Ok(trace)
    }
}

/// What a serving workload builds before its first run.
#[derive(Debug)]
pub struct ServeSetup {
    /// The engine handed to `ServeSpec::run` (a ZCU102 at 12 Gbps).
    pub engine: MeadowEngine,
    pub spec: ServeSpec,
    /// Host seconds spent in `MeadowEngine::new` (packing statistics).
    pub engine_build_s: f64,
    /// Host seconds spent in `ServeSpecBuilder::build`, which builds every
    /// fleet chip's engine to validate its spec.
    pub spec_build_s: f64,
}

/// Builds the engine and the validated spec of a serving workload.
///
/// # Errors
///
/// Propagates engine and spec validation errors.
pub fn setup_serve(p: &ServeParams, threads: usize) -> BenchResult<ServeSetup> {
    let config = EngineConfig::zcu102(p.model.clone(), BANDWIDTH_GBPS)
        .with_exec(ExecConfig::with_threads(threads));
    let (engine, engine_build_s) = timed(|| MeadowEngine::new(config));
    let mut serve = ServeConfig::default()
        .with_budget(p.budget_bytes())
        .with_policy(p.policy)
        .with_max_batch(p.max_batch)
        .with_admission(p.admission);
    if p.policy == KvPolicy::PagedLru {
        serve = serve.with_page_bytes(PAGE_BYTES);
    }
    let mut builder = ServeSpec::builder().config(serve);
    if p.fleet {
        builder =
            builder.chip_specs(p.fleet_specs()).placement(SessionAffinity).migration(ToLeastLoaded);
    }
    let (spec, spec_build_s) = timed(|| builder.build());
    Ok(ServeSetup { engine: engine?, spec: spec?, engine_build_s, spec_build_s })
}

/// Sequences per functional forward batch.
pub const FORWARD_SEQUENCES: usize = 2;
/// Seeded length range of each forward sequence, in tokens. The range is
/// narrow so host cost barely moves with the seed, while the simulated
/// TTFT of the prompts still differs between seeds.
pub const FORWARD_TOKENS: RangeInclusive<usize> = 31..=33;
/// Tokens per TPHS wave in the functional forward.
pub const TOKEN_PARALLELISM: usize = 4;
/// Rows per matrix the lossless check packs and unpacks (weights are
/// row-independent, so capped rows exercise the same code paths).
pub const LOSSLESS_MAX_ROWS: usize = 128;

/// What the forward workload builds before its first run.
#[derive(Debug)]
pub struct ForwardSetup {
    pub weights: ModelWeights,
    /// ZCU102 engine at 12 Gbps: runs the lossless check and prices the
    /// prompts on the simulated clock.
    pub engine: MeadowEngine,
    pub synthesize_s: f64,
    pub engine_build_s: f64,
}

/// Synthesizes OPT-125M's weights and builds its engine.
///
/// # Errors
///
/// Propagates synthesis and engine errors.
pub fn setup_forward(threads: usize) -> BenchResult<ForwardSetup> {
    let model = presets::opt_125m();
    let (weights, synthesize_s) = timed(|| ModelWeights::synthesize(&model));
    let config =
        EngineConfig::zcu102(model, BANDWIDTH_GBPS).with_exec(ExecConfig::with_threads(threads));
    let (engine, engine_build_s) = timed(|| MeadowEngine::new(config));
    Ok(ForwardSetup { weights: weights?, engine: engine?, synthesize_s, engine_build_s })
}

/// The seeded forward inputs: [`FORWARD_SEQUENCES`] INT8 activation
/// matrices of `d_model` columns with lengths drawn from
/// [`FORWARD_TOKENS`].
pub fn forward_inputs(d_model: usize, seed: u64) -> Vec<Matrix<i8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..FORWARD_SEQUENCES)
        .map(|_| {
            let tokens = rng.gen_range(FORWARD_TOKENS);
            let data = (0..tokens * d_model).map(|_| rng.gen_range(-64i8..=63)).collect();
            Matrix::from_vec(tokens, d_model, data).expect("data length matches the shape")
        })
        .collect()
}
