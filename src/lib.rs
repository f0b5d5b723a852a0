//! MEADOW — reproduction of *MEADOW: Memory-efficient Dataflow and Data
//! Packing for Low Power Edge LLMs* (MLSys 2025).
//!
//! This facade crate re-exports the workspace's public API so examples and
//! downstream users can depend on a single crate:
//!
//! * [`tensor`] — quantized-tensor numerics (INT8 GEMM, softmax, LayerNorm).
//! * [`sim`] — the edge-accelerator hardware substrate (DRAM/BRAM/PEs/NoC).
//! * [`packing`] — lossless weight packing (unique-chunk indexing,
//!   packet-specific precision, frequency-aware re-indexing, WILU/MAU).
//! * [`models`] — OPT / DeiT model configs and synthetic calibrated weights.
//! * [`dataflow`] — GEMM-mode and TPHS executors with latency breakdowns.
//! * [`core`] — the `MeadowEngine`, dataflow planner, roofline model, the
//!   CTA / FlightLLM prior-work baselines, and the serving stack: the
//!   multi-session simulator (continuous batching, paged KV-cache
//!   budgets, SLO-aware admission, speculative decoding) and the cluster
//!   API (`core::cluster`: session-pool sharding across simulated chips
//!   with placement policies, NoC-charged migration, and prefill/decode
//!   disaggregation with a NoC-charged KV handoff).
//!
//! # Quickstart
//!
//! ```
//! use meadow::core::{EngineConfig, MeadowEngine};
//! use meadow::models::presets;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = MeadowEngine::new(EngineConfig::zcu102(presets::opt_125m(), 12.0))?;
//! let prefill = engine.prefill_latency(512)?;
//! let decode = engine.decode_latency(512, 64)?;
//! println!("TTFT {:.2} ms, TBT {:.2} ms", prefill.total_ms(), decode.total_ms());
//! # Ok(())
//! # }
//! ```

pub use meadow_core as core;
pub use meadow_dataflow as dataflow;
pub use meadow_models as models;
pub use meadow_packing as packing;
pub use meadow_sim as sim;
pub use meadow_tensor as tensor;
