//! Hardware substrate for the MEADOW reproduction.
//!
//! The paper evaluates MEADOW on a Xilinx ZCU102 FPGA as a tiled accelerator
//! (Fig. 2a): parallel-MAC and broadcasting-MAC processing elements, pipelined
//! softmax modules, LayerNorm and nonlinearity modules, on-chip BRAMs and
//! register files, a NoC interconnect and a bandwidth-constrained off-chip
//! DRAM. Real hardware is not available in this reproduction, so this crate
//! models the components whose timing the dataflow executors charge, plus
//! a small discrete-event engine that they schedule work onto. The on-chip
//! memories are sized, not simulated: [`ChipConfig`] holds their
//! capacities, and the executors derive tiling passes from them.
//!
//! Components:
//!
//! * [`clock`] — cycle arithmetic and cycle↔wall-time conversion.
//! * [`dram`] — the off-chip memory channel: bandwidth → cycles, burst
//!   rounding, and a traffic ledger that attributes every byte to
//!   fetch/store categories (the paper's latency-distribution figures are
//!   exactly this attribution).
//! * [`pe`] — the hybrid PE (Fig. 2b,c): parallel-MAC (adder tree, one output
//!   per cycle across the multiply dimension) and broadcasting-MAC
//!   (accumulator registers, one input broadcast per cycle).
//! * [`softmax_unit`] — the 3-stage pipelined softmax module (Fig. 2d).
//! * [`modules`] — LayerNorm / nonlinearity unit timing.
//! * [`noc`] — on-chip interconnect transfer costs.
//! * [`event`] — a deterministic discrete-event engine with FIFO resources.
//! * [`chip`] — the full tile description with Table 1 defaults.
//! * [`energy`] — a first-order energy/power model used to sanity-check the
//!   paper's sub-10 W operating point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod clock;
pub mod dram;
pub mod energy;
pub mod error;
pub mod event;
pub mod modules;
pub mod noc;
pub mod pe;
pub mod softmax_unit;

pub use chip::ChipConfig;
pub use clock::{ClockDomain, Cycles};
pub use dram::{DramModel, TrafficClass, TrafficLedger};
pub use error::SimError;
