//! # pvc-engine — kernel-to-time performance engine
//!
//! Converts workload operation counts (produced by the real kernels in
//! `pvc-kernels` and the mini-apps) into simulated execution time on a
//! modelled GPU partition. Three regimes are covered, matching the bound
//! classification of the paper's Table V:
//!
//! * **compute-bound** — governed peak rate (vector or matrix unit) with
//!   a kernel efficiency factor;
//! * **memory-bandwidth-bound** — STREAM-achievable bandwidth;
//! * **memory-latency-bound** — Little's-law random-access throughput.
//!
//! Library-kernel models for GEMM (§IV-B5) and FFT (§IV-A6) carry the
//! measured oneMKL efficiencies of Table II as named calibration data
//! (`gemm::calib`, `fft_model::calib`): the *structure* (theoretical
//! peak × library efficiency × multi-partition scaling) is the model;
//! only the efficiency scalars are fitted.

pub mod exec;
pub mod fft_model;
pub mod gemm;
pub mod workload;

pub use exec::Engine;
pub use fft_model::FftDim;
pub use workload::{BoundKind, KernelProfile};
