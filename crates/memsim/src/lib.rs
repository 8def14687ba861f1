//! # pvc-memsim — cache-hierarchy simulation and memory-latency model
//!
//! Substrate for the paper's `lats` microbenchmark (§IV-A7, Figure 1):
//! a set-associative, LRU, multi-level cache simulator plus a
//! pointer-chase driver that sweeps array footprints across the memory
//! hierarchy of each modelled GPU and reports average access latency in
//! core cycles — reproducing Figure 1's staircase.
//!
//! The paper modified the original single-thread `lats` to chase pointers
//! "simultaneously on one sub-group or warp (Coalesced Access) with 16
//! work-items". Sixteen 4-byte work-items are one 64-byte cache line, so
//! a coalesced chase step is modelled as a single line-granular access.
//!
//! The same machinery also provides roofline helpers used by the
//! performance engine.

pub mod cache;
pub mod lats;
pub mod roofline;

pub use cache::{CacheSim, Hierarchy};
pub use lats::{latency_profile, ChaseCycle, ChaseKey, LatencyPoint, LatsConfig};
pub use roofline::{attainable_flops, stream_time};
