//! # pvc-fabric — intra-node interconnect simulator
//!
//! Builds, from a [`pvc_arch::NodeModel`], the contention graph the
//! paper's transfer microbenchmarks exercise:
//!
//! * one PCIe Gen5 link per *card* (only the first Xe-Stack carries the
//!   host link; traffic from the second stack crosses MDFI first — §II),
//!   with per-direction caps and a duplex pool (the 1.4× bidirectional
//!   factor of §IV-B4);
//! * per-socket root-complex pools on the host side (the source of the
//!   full-node contention of §IV-B4);
//! * MDFI stack-to-stack links inside each card;
//! * the two-plane all-to-all Xe-Link topology of §IV-A4, including the
//!   two candidate two-hop routes between cross-plane stacks
//!   (0.0→1.1→1.0 vs 0.0→0.1→1.0).
//!
//! On top of the graph, [`comm`] provides the MPI-like operations used by
//! the benchmarks (one rank per stack, "explicit scaling").

pub mod collectives;
pub mod comm;
pub mod plane;
pub mod topology;

pub use comm::{Comm, P2pResult};
pub use plane::{plane_of, StackId};
pub use topology::{NodeFabric, RouteVia};
