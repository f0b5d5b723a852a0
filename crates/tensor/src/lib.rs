//! Minimal quantized-tensor substrate for the MEADOW reproduction.
//!
//! MEADOW (MLSys 2025) executes W8A8-quantized transformer layers on a tiled
//! FPGA accelerator. This crate provides the *numerics* that the rest of the
//! workspace builds on:
//!
//! * [`Matrix`] — a dense row-major matrix over `i8` / `i32` / `f32`.
//! * [`gemm`] — reference and tiled INT8×INT8→INT32 matrix multiplication,
//!   bit-identical regardless of tiling (the property the dataflow executors
//!   rely on for GEMM-vs-TPHS equivalence testing).
//! * [`softmax`] — numerically stable softmax, in an exact `f32` form and in
//!   the fixed-point EXP-LUT form computed by MEADOW's pipelined softmax
//!   module (Fig. 2d of the paper).
//! * [`layernorm`] / [`activations`] — LayerNorm, ReLU and GELU references.
//! * [`fixed`] — small fixed-point helpers used by the LUT datapaths.
//! * [`parallel`] — [`ExecConfig`] and the scoped-thread partitioning
//!   helpers behind the `*_with` parallel kernels (bit-identical to their
//!   serial counterparts; thread count via `MEADOW_THREADS`).
//!
//! # Example
//!
//! ```
//! use meadow_tensor::{Matrix, gemm};
//!
//! let a = Matrix::<i8>::from_rows(&[&[1, 2], &[3, 4]]).unwrap();
//! let b = Matrix::<i8>::from_rows(&[&[5, 6], &[7, 8]]).unwrap();
//! let c = gemm::matmul_i8(&a, &b).unwrap();
//! assert_eq!(c.get(0, 0), Some(&19));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activations;
pub mod error;
pub mod fixed;
pub mod gemm;
pub mod layernorm;
pub mod matrix;
pub mod parallel;
pub mod softmax;

pub use error::TensorError;
pub use matrix::Matrix;
pub use parallel::ExecConfig;
