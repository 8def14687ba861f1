//! # pvc-store — content-addressed result store
//!
//! The one cache tier for deterministic results: every record maps a content address (the FNV-1a 64 hash of a canonical
//! request, plus the canonical text itself as a collision guard) to the
//! byte-exact response. The design is the smallest thing that survives
//! crashes and model drift:
//!
//! * **Append-only segment file.** Records are only ever appended, each
//!   framed with its lengths and an FNV-1a 64 checksum over the whole
//!   frame. A torn write (crash mid-append) corrupts only the tail;
//!   [`Store::open`] detects the first bad frame, truncates the file
//!   back to the valid prefix, and keeps serving everything before it.
//! * **In-place index.** Opening a store reads the segment once and
//!   indexes those bytes where they lie: one in-memory copy, with a
//!   key → record index into it. Appends join the same copy. Lookups
//!   are O(1) hash probes plus a text compare; a hash collision
//!   degrades to a miss, never a wrong answer.
//! * **One writer per file.** [`Store::open`] takes the file's exclusive
//!   lock and holds it until the store drops; a second opener gets
//!   [`OpenError::Locked`] instead of appending at a stale offset over
//!   the first writer's records.
//! * **Fingerprint invalidation.** The file header binds the store to a
//!   build fingerprint — a hash over the model constants and scenario
//!   grid supplied by the caller. Opening with a different fingerprint
//!   resets the store to empty automatically: results computed by an
//!   older model can never be served by a newer one.
//!
//! The crate is deliberately dependency-free and domain-agnostic: keys
//! and values are bytes. Every `pvc-serve` service owns exactly one —
//! file-backed under `--store`, otherwise [`Store::in_memory`] — and
//! `pvc-report` ships the `reproduce warm` command that precomputes the
//! whole catalog grid into one.

mod segment;
mod store;

pub use segment::{fnv1a64, FrameError, HEADER_LEN, MAGIC};
pub use store::{OpenError, OpenReport, OpenStatus, Store};
