//! # pvc-apps — the two full science applications of §VI (Table VI)
//!
//! * [`openmc`] — Monte Carlo neutral-particle transport. A real
//!   multigroup MC solver (random walks, cross-section lookups, k-eff and
//!   flux tallies) plus the latency-bound FOM model: OpenMC's "active"
//!   phase is dominated by irregular cross-section and tally accesses, so
//!   throughput follows the Little's-law random-access rate of each
//!   device (Table V classifies it memory-latency/bandwidth bound).
//! * [`hacc`] — CRK-HACC cosmology. A real N-body kernel (direct
//!   short-range P²-style force with softening, leapfrog integration,
//!   SPH-style density estimate) plus the FOM model combining GPU FP32
//!   throughput with host-side work (§VI-B2: results "reflect the
//!   differences in GPU compute capabilities along with the available
//!   CPU threads and bandwidth").

pub mod hacc;
pub mod openmc;
pub mod sparse;
