//! # pvc-report — regenerating every table and figure of the paper
//!
//! * [`render`] — plain-text table formatting;
//! * [`published`] — the paper's printed values (Tables II, III, VI),
//!   kept verbatim as the comparison baseline;
//! * [`tables`] — builders assembling each table from the simulation
//!   crates, paired cell-by-cell with the published values;
//! * [`figdata`] — Figure 1 latency series and Figures 2–4 bar data;
//! * [`experiments`] — the paper-vs-measured record used to generate
//!   EXPERIMENTS.md;
//! * [`scenarios`] — the process-wide scenario registry: the standard
//!   `pvc-scenario` grid plus the figure-render pipeline; every
//!   frontend below dispatches (workload, system) through it;
//! * [`profile`] — `reproduce profile <workload>`: deterministic
//!   virtual-time Chrome-trace profiles of the simulated workloads;
//! * [`conformance`] — one check per printed table cell, and the one
//!   function setting its bound, run through `pvc-validate` and
//!   rendered as a report section (and the CLI gate's verdict);
//! * [`serve`] — the `pvc-serve` catalog executor and request schema
//!   behind `reproduce serve` / `reproduce query`;
//! * [`warm`] — the build fingerprint and full-grid request corpus
//!   behind `reproduce warm`, which persists every catalog response
//!   into a `pvc-store` segment file.
//!
//! The `reproduce` binary (in `src/bin`) prints any or all of them.

pub mod ablations;
pub mod conformance;
pub mod csv;
pub mod energy;
pub mod experiments;
pub mod fabric_matrix;
pub mod figdata;
pub mod httpfront;
pub mod profile;
pub mod published;
pub mod render;
pub mod scenarios;
pub mod serve;
pub mod tables;
pub mod warm;
