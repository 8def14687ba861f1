//! # pvc-validate — paper conformance and metamorphic validation
//!
//! The repo's answer to "does the simulation still reproduce the
//! paper?", in three layers:
//!
//! * [`expectations`] — the four published values that are not table
//!   cells (§II partition counts, the §III power cap, the §V-A
//!   Figure 2 ratio), each a typed [`expectations::Expectation`] with
//!   the printed number, a tolerance band and a citation.
//! * [`conformance`] — the runner: [`conformance::run`] takes one check
//!   per printed cell of Tables II, III and VI from its caller
//!   (`pvc-report` pairs the printed tables with the simulated ones),
//!   appends the evaluated facts and groups pass/fail per paper
//!   element; `markdown()` / `json()` render the report.
//! * [`metamorphic`] — cross-layer relations that must hold for *any*
//!   parameter values: flow conservation in the fluid network,
//!   bandwidth monotonicity across scaling levels, roofline bounds on
//!   every library benchmark, and governor/TDP power caps.
//!
//! Everything here is hermetic and deterministic: no registry crates,
//! no wall clock, no ambient randomness.

pub mod conformance;
pub mod expectations;
pub mod metamorphic;

pub use conformance::{run, Conformance, ConformanceReport, ElementReport};
pub use expectations::{facts, Expectation};
