//! # pvc-kernels — real host-executed computational kernels
//!
//! The paper's microbenchmarks are "new ports of industry-standard
//! algorithms used for benchmarking (stream triad, chain of FMAs,
//! data-transfert)" (§IV). This crate implements those algorithms — plus
//! the GEMM and FFT workloads behind the oneMKL rows of Table II — as
//! real, verifiable Rust code parallelised with pvc_core::par.
//!
//! The kernels are **correctness ground truth**: every kernel computes
//! a checkable result (unit- and property-tested) and reports its
//! flop/byte counts, so the workloads the performance models stand for
//! are demonstrably the right algorithms, not opaque op-count
//! constants. The models in `pvc-microbench` do not run them; the
//! kernels' own tests verify them.

pub mod fft;
pub mod fma;
pub mod gemm;
pub mod scalar;
pub mod spmv;
pub mod triad;

pub use fft::Complex;
pub use scalar::Scalar;
