//! `reproduce warm`: the build fingerprint and the precompute corpus.
//!
//! The winning latency move at catalog scale is to never be cold: a
//! disk store warmed with every request the catalog can answer makes
//! the first query of a fresh process a [`pvc_store::Store`] hit
//! instead of a multi-millisecond simulation. This module supplies the
//! two ingredients:
//!
//! * [`build_fingerprint`] — a hash binding a store to the model that
//!   filled it: the full `pvc-arch` model-constant dump, the scenario
//!   grid (ids, units, citations, directions), and the store schema
//!   version. A change to model constants or the registry changes the
//!   fingerprint, and [`pvc_store::Store::open`] then resets the store
//!   automatically. A change to a renderer or to the published values
//!   moves answers without touching either, so it bumps the schema;
//!   the answer manifest test refuses a warm store file that moved
//!   while the fingerprint did not.
//! * [`warm_corpus`] — the full grid as request documents: every
//!   row of [`crate::serve::ARTIFACTS`], every registered `run`
//!   scenario, every canned sweep / profile, and the canned CI corpus
//!   (its one chaos run included). Deduplicated by canonical content
//!   address, so the corpus enumerates each computation exactly once.

use crate::scenarios::registry;
use crate::serve::ARTIFACTS;
use pvc_arch::System;
use pvc_serve::{fnv1a64, Request};

/// Bump on any deliberate change to the bytes of a stored answer (a
/// renderer, the published values, the value layout or the envelope
/// schema): old stores then invalidate even when the model constants
/// and the grid are unchanged.
const STORE_SCHEMA: &str = "pvc-store-catalog/v3";

/// The build fingerprint: FNV-1a 64 over the model constants, the
/// scenario grid and the store schema version. Deterministic across
/// processes and machines; changes with the model constants, the grid
/// and every [`STORE_SCHEMA`] bump.
///
/// `PVC_STORE_FINGERPRINT_SALT`, when set, is hashed in as well — the
/// hook CI and tests use to simulate a model change and prove the
/// invalidation path end to end.
pub fn build_fingerprint() -> u64 {
    let mut desc = String::new();
    desc.push_str(STORE_SCHEMA);
    desc.push('\n');
    // Every model constant the simulations read: clocks, caches,
    // fabrics, TDP governors, PCIe topology, all four systems.
    desc.push_str(&pvc_arch::query::systems_json());
    desc.push('\n');
    // The grid itself: a scenario appearing, disappearing or changing
    // its meaning (unit, direction, citation) must invalidate.
    for s in registry().iter() {
        let id = s.id();
        desc.push_str(&format!(
            "{}|{}|{}|{}|{}\n",
            id.key(),
            s.unit(),
            s.citation(),
            s.fom_kind().higher_is_better(),
            s.profile_name().unwrap_or("-"),
        ));
    }
    if let Ok(salt) = std::env::var("PVC_STORE_FINGERPRINT_SALT") {
        desc.push_str("salt:");
        desc.push_str(&salt);
        desc.push('\n');
    }
    fnv1a64(desc.as_bytes())
}

/// Every request document the catalog can answer deterministically:
/// the artifact table (tables, figures, ablations, the singleton kinds
/// and the `report` texts), the per-system PCIe sweeps, the 63 `run`
/// scenarios, every registered profile workload, and the canned CI
/// corpus. Deduplicated by canonical content address; `stats` is
/// excluded by construction (it is live introspection, never
/// cacheable).
pub fn warm_corpus() -> Vec<String> {
    corpus(|line, _| line)
}

/// The [`warm_corpus`] lines as parsed requests, in the same order:
/// each line is parsed once, by the deduplication that admits it.
pub fn warm_requests() -> Vec<Request> {
    corpus(|_, req| req)
}

/// Every corpus line, kept as `keep` maps it and its parsed request,
/// in pinned order.
fn corpus<T>(keep: impl Fn(String, Request) -> T) -> Vec<T> {
    // Every paper artifact and singleton kind, in artifact-table order.
    let mut lines: Vec<String> = ARTIFACTS.iter().map(|a| a.request().compact()).collect();
    for sys in System::PVC {
        lines.push(format!(
            r#"{{"kind":"pcie","system":"{}","modes":["h2d","d2h","bidir"]}}"#,
            sys.cli_name()
        ));
    }
    // The full scenario grid, one `run` per registered cell.
    for s in registry().iter() {
        let id = s.id();
        lines.push(format!(
            r#"{{"kind":"run","workload":"{}","system":"{}"}}"#,
            id.slug(),
            id.system.cli_name()
        ));
    }
    // Every registered profile workload on its system.
    for s in registry().iter() {
        if let Some(name) = s.profile_name() {
            lines.push(format!(
                r#"{{"kind":"profile","workload":"{name}","system":"{}"}}"#,
                s.id().system.cli_name()
            ));
        }
    }
    // The canned CI corpus is always warm (it includes one chaos run).
    lines.extend(crate::serve::CANNED_REQUESTS.iter().map(|r| r.to_string()));
    dedupe_by_key(lines, keep)
}

/// Keeps the first occurrence of each canonical content address, so a
/// request spelled twice (e.g. a canned line duplicating a grid line)
/// warms once. Order is preserved — the corpus, and therefore the
/// store file a warm pass writes, is byte-deterministic.
fn dedupe_by_key<T>(lines: Vec<String>, keep: impl Fn(String, Request) -> T) -> Vec<T> {
    let mut seen: Vec<u64> = Vec::new();
    let mut out: Vec<T> = Vec::new();
    for line in lines {
        let req = Request::parse(&line)
            .unwrap_or_else(|e| panic!("warm corpus line '{line}' must parse: {e}"));
        if !seen.contains(&req.key()) {
            seen.push(req.key());
            out.push(keep(line, req));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_salt_sensitive() {
        let a = build_fingerprint();
        let b = build_fingerprint();
        assert_eq!(a, b, "fingerprint must be deterministic");
        // The salt hook perturbs it (set/remove around the calls; tests
        // in this module are the only users of this variable).
        std::env::set_var("PVC_STORE_FINGERPRINT_SALT", "model-changed");
        let salted = build_fingerprint();
        std::env::remove_var("PVC_STORE_FINGERPRINT_SALT");
        assert_ne!(a, salted, "salt must change the fingerprint");
        assert_eq!(build_fingerprint(), a, "removing the salt restores it");
    }

    #[test]
    fn requests_are_the_parsed_corpus_lines() {
        let lines = warm_corpus();
        let requests = warm_requests();
        assert_eq!(lines.len(), requests.len());
        for (line, req) in lines.iter().zip(&requests) {
            assert_eq!(Request::parse(line).unwrap().text(), req.text());
        }
    }

    #[test]
    fn corpus_covers_the_grid_and_parses() {
        let corpus = warm_corpus();
        let runs = corpus.iter().filter(|l| l.contains(r#""kind":"run""#)).count();
        assert_eq!(
            runs,
            registry().len() + 1,
            "one run per grid cell plus the canned chaos run"
        );
        let profiles = corpus.iter().filter(|l| l.contains(r#""kind":"profile""#)).count();
        assert_eq!(
            profiles,
            registry().iter().filter(|s| s.profile_name().is_some()).count(),
            "every registered profile workload is warmed"
        );
        // Every line parses, none is a stats request, keys are unique.
        let mut keys = Vec::new();
        for line in &corpus {
            let req = Request::parse(line).expect("corpus line parses");
            assert_ne!(req.kind(), "stats", "stats is live, never warmable");
            assert!(!keys.contains(&req.key()), "duplicate corpus key: {line}");
            keys.push(req.key());
        }
    }

    /// The corpus order is the order a warm pass appends records, so a
    /// reordered corpus changes the store file's bytes.
    #[test]
    fn corpus_order_is_pinned() {
        let corpus = warm_corpus();
        assert_eq!(corpus.len(), 117);
        assert_eq!(fnv1a64(corpus.join("\n").as_bytes()), 0x50e0_bc7c_0753_7184);
    }

    #[test]
    fn corpus_requests_fit_the_default_budget() {
        use pvc_serve::Executor;
        let exec = crate::serve::CatalogExecutor;
        let budget = pvc_serve::ServeConfig::default().default_budget;
        for req in warm_requests() {
            let cost = exec.cost(&req);
            assert!(
                cost <= budget,
                "corpus request '{}' costs {cost} > default budget {budget}",
                req.text()
            );
        }
    }
}
