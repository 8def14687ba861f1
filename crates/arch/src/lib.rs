//! # pvc-arch — machine models for the four benchmarked systems
//!
//! Encodes the architecture descriptions of the paper's §II (Intel Data
//! Center GPU Max 1550 "Ponte Vecchio") and §III (the Aurora, Dawn,
//! JLSE-H100 and JLSE-MI250 nodes), plus the vendor reference peaks of
//! Table IV.
//!
//! The model is first-principles where the paper is: peak flop rates are
//! *derived* from engine counts × SIMD width × FMA factor × clock, exactly
//! mirroring the arithmetic in §IV-B1 ("17 TFlop/s is 99% of the expected
//! theoretical number: 1.2 GHz × 448 × 8 × 2 × 2"). Observed behaviours
//! that the paper reports but does not derive (TDP downclocking under
//! FP64 FMA load, node-level scaling derates) live in the
//! [`governor`] module as named calibration constants, each citing the
//! paper section it reproduces.
//!
//! Hierarchy nomenclature follows the paper: 8 vector engines (XVE) and 8
//! matrix engines (XMX) per Xe-Core; 16 Xe-Cores per Xe-Slice; 4 Xe-Slices
//! per Xe-Stack; 2 Xe-Stacks per PVC card. H100 GPUs are modelled as a
//! single partition (no stacks); MI250 GPUs as two GCD partitions.

pub mod chaos;
pub mod cpu;
pub mod device;
pub mod governor;
pub mod node;
pub mod power;
pub mod precision;
pub mod query;
pub mod reference;
pub mod systems;
pub mod units;

pub use chaos::{ChaosError, ChaosFault, ChaosSpec};
pub use cpu::CpuModel;
pub use device::{CacheLevel, GpuModel, MemorySpec, Partition, PerPrecision, Vendor};
pub use governor::ClockPolicy;
pub use node::NodeModel;
pub use precision::Precision;
pub use systems::{System, UnknownSystem};
