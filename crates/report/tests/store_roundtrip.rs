//! The persistent store against the real catalog executor: warmed
//! responses must be byte-identical to freshly computed ones, rebuilds
//! must be byte-deterministic on disk, and a perturbed build
//! fingerprint must invalidate the whole store at open.
//!
//! Most tests use the canned CI corpus (one table, one figure, one PCIe
//! sweep, one chaos run) so the suite stays fast; the splice-identity
//! test walks the whole warm corpus, and `reproduce warm` in CI warms
//! the full grid.

use pvc_core::Json;
use pvc_report::httpfront;
use pvc_report::serve::{CatalogExecutor, CANNED_REQUESTS};
use pvc_report::warm::{build_fingerprint, warm_corpus};
use pvc_serve::http::{HttpRequest, HttpResponse};
use pvc_serve::{Request, ServeConfig, Service};
use pvc_store::{OpenStatus, Store};
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch(tag: &str) -> (std::path::PathBuf, Cleanup) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "pvc-report-store-{tag}-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_file(&path);
    (path.clone(), Cleanup(path))
}

struct Cleanup(std::path::PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn catalog_with_store(path: &std::path::Path, fp: u64) -> (Service<CatalogExecutor>, OpenStatus) {
    let (store, report) = Store::open(path, fp).expect("store opens");
    let mut s = Service::new(CatalogExecutor, wide());
    s.attach_store(store, &report);
    (s, report.status)
}

fn answer_canned(s: &Service<CatalogExecutor>) -> Vec<String> {
    s.handle_lines(CANNED_REQUESTS)
        .iter()
        .map(Json::compact)
        .collect()
}

#[test]
fn store_served_catalog_responses_are_byte_identical_to_computed() {
    std::env::set_var("PVC_THREADS", "2");
    let fp = build_fingerprint();
    let (path, _guard) = scratch("identity");

    // Warm pass: compute everything once, persisting as we go.
    let (warmer, status) = catalog_with_store(&path, fp);
    assert_eq!(status, OpenStatus::Created);
    let computed = answer_canned(&warmer);
    assert_eq!(
        warmer.metrics().counter("serve.store.write"),
        CANNED_REQUESTS.len() as u64
    );
    drop(warmer);

    // Fresh process: every canned request is a first-query store hit
    // with the exact same bytes, and the executor runs no atoms.
    let (served, status) = catalog_with_store(&path, fp);
    assert_eq!(status, OpenStatus::Loaded);
    let from_disk = answer_canned(&served);
    assert_eq!(from_disk, computed, "disk tier must preserve bytes exactly");
    let m = served.metrics();
    assert_eq!(m.counter("serve.cache.hit"), CANNED_REQUESTS.len() as u64);
    assert_eq!(m.counter("serve.cache.miss"), 0, "zero cold computes");
    assert_eq!(m.counter("serve.atoms.executed"), 0, "no solver work");

    // A store with no matching entry still computes: the tier is an
    // accelerator, never a gate.
    let novel = r#"{"kind":"table","id":5}"#;
    let r = served.handle_lines(&[novel]).remove(0);
    assert!(r.get("result").is_some());
    assert_eq!(m.counter("serve.cache.miss"), 1);
}

#[test]
fn rebuilt_stores_are_byte_identical_and_fingerprint_perturbation_invalidates() {
    std::env::set_var("PVC_THREADS", "2");
    let fp = build_fingerprint();
    let (pa, _ga) = scratch("rebuild-a");
    let (pb, _gb) = scratch("rebuild-b");
    // The first 12 corpus lines (tables + figures + ablations) stand in
    // for the full grid: enough to exercise multi-record layout.
    let corpus: Vec<String> = warm_corpus().into_iter().take(12).collect();
    for path in [&pa, &pb] {
        let (s, _) = catalog_with_store(path, fp);
        let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
        s.handle_lines(&refs);
    }
    let (ba, bb) = (std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    assert!(!ba.is_empty());
    assert_eq!(ba, bb, "two warm rebuilds must produce identical files");

    // A different fingerprint (a model change) invalidates at open:
    // the store resets rather than serving stale results.
    let (s, status) = catalog_with_store(&pa, fp ^ 1);
    assert!(matches!(status, OpenStatus::Invalidated { found: Some(f) } if f == fp));
    assert_eq!(s.store_len(), 0, "stale entries are gone");
    assert_eq!(s.metrics().counter("store.open.invalidated"), 1);
    drop(s);

    // And re-opening with the original fingerprint invalidates again
    // (the reset stamped the perturbed fingerprint into the header) —
    // the stale records never come back either way.
    let (s, status) = catalog_with_store(&pa, fp);
    assert!(matches!(status, OpenStatus::Invalidated { found: Some(f) } if f == fp ^ 1));
    assert_eq!(s.store_len(), 0);
}

#[test]
fn salted_fingerprint_differs_and_rebuild_restores_service() {
    std::env::set_var("PVC_THREADS", "2");
    // PVC_STORE_FINGERPRINT_SALT is the CI hook that simulates a model
    // change; the fingerprint must move, and a store warmed under the
    // salt must invalidate under the unsalted build (and vice versa).
    let base = build_fingerprint();
    std::env::set_var("PVC_STORE_FINGERPRINT_SALT", "store-roundtrip-test");
    let salted = build_fingerprint();
    std::env::remove_var("PVC_STORE_FINGERPRINT_SALT");
    assert_ne!(base, salted);

    let (path, _guard) = scratch("salt");
    let one = r#"{"kind":"figure","id":2}"#;
    let (warmer, _) = catalog_with_store(&path, base);
    let fresh = warmer.handle_lines(&[one]).remove(0).compact();
    drop(warmer);

    let (s, status) = catalog_with_store(&path, salted);
    assert!(matches!(status, OpenStatus::Invalidated { .. }));
    // The service still answers — it recomputes and re-warms the store
    // under the new fingerprint, byte-identically.
    let rebuilt = s.handle_lines(&[one]).remove(0).compact();
    assert_eq!(rebuilt, fresh);
    assert_eq!(s.metrics().counter("serve.store.write"), 1);
}

/// Default knobs with a queue deep enough for the whole warm corpus.
fn wide() -> ServeConfig {
    ServeConfig {
        queue_depth: 256,
        ..ServeConfig::default()
    }
}

/// Every corpus and canned request, as the frontends see it.
fn corpus_and_canned() -> Vec<String> {
    let mut lines = warm_corpus();
    lines.extend(CANNED_REQUESTS.iter().map(|r| r.to_string()));
    lines
}

fn get(path: &str, accept: &str) -> HttpRequest {
    HttpRequest {
        method: "GET".to_string(),
        target: path.to_string(),
        path: path.to_string(),
        headers: vec![("accept".to_string(), accept.to_string())],
        body: Vec::new(),
    }
}

/// The catalog GET route serving `line`, if it has one: tables,
/// figures, ablations and plain runs, plus the `/trace` route of each
/// profile workload.
fn route(line: &str) -> Option<String> {
    let req = Request::parse(line).expect("corpus line parses");
    let field = |name: &str| {
        req.get(name)
            .map(|v| v.as_str().map_or_else(|| v.compact(), str::to_string))
    };
    let pair = || Some(format!("{}/{}", field("workload")?, field("system")?));
    match req.kind() {
        "table" | "figure" => Some(format!("/{}/{}", req.kind(), field("id")?)),
        "ablation" => Some(format!("/ablation/{}", field("name")?)),
        "run" if req.get("chaos").is_none() => Some(format!("/run/{}", pair()?)),
        "profile" => Some(format!("/trace/{}", pair()?)),
        _ => None,
    }
}

fn parts(resp: HttpResponse) -> (u16, String, Vec<u8>) {
    (resp.status, resp.content_type, resp.body)
}

/// A hit is the stored body spliced into the envelope: over the whole
/// corpus it is the same bytes as a fresh computation and as the
/// `compact()` of the parsed view, and every catalog GET route answers
/// the same from the store as from a computing service.
#[test]
fn every_corpus_answer_is_spliced_byte_identically() {
    std::env::set_var("PVC_THREADS", "2");
    let fp = build_fingerprint();
    let (path, _guard) = scratch("splice");
    let lines = corpus_and_canned();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    {
        let (warmer, _) = catalog_with_store(&path, fp);
        warmer.handle_lines(&refs);
    }
    let (warmed, status) = catalog_with_store(&path, fp);
    assert_eq!(status, OpenStatus::Loaded);
    let fresh = Service::new(CatalogExecutor, wide());
    let mut routed = 0;
    for line in &lines {
        let from_store = warmed.handle_line(line);
        assert_eq!(from_store, fresh.handle_line(line), "{line}");
        assert_eq!(
            from_store,
            warmed.handle_lines(&[line])[0].compact(),
            "{line}"
        );
        let Some(path) = route(line) else { continue };
        routed += 1;
        for accept in ["application/json", "text/plain", "text/csv"] {
            let (a, _) = httpfront::handle(&warmed, &get(&path, accept));
            let (b, _) = httpfront::handle(&fresh, &get(&path, accept));
            let (a, b) = (parts(a), parts(b));
            assert_eq!(a.0, 200, "{path} ({accept})");
            assert!(
                a == b,
                "{path} ({accept}) differs between stored and computed"
            );
        }
    }
    // Tables, figures, ablations, runs and profiles, plus the canned
    // table and figure lines.
    assert_eq!(
        routed,
        6 + 4 + 5 + 63 + 24 + 2,
        "every routable corpus request"
    );
    let m = warmed.metrics();
    let traces = 24;
    assert_eq!(
        m.counter("serve.cache.miss"),
        traces,
        "only the /trace routes compute"
    );
    assert_eq!(m.counter("serve.atoms.executed"), traces);
}

/// Hits are spliced, not re-rendered: a body stored by hand with
/// spacing `compact()` would never produce comes back verbatim, and the
/// `text/plain` route unwraps its field.
#[test]
fn a_stored_body_is_served_verbatim() {
    let fp = build_fingerprint();
    let (path, _guard) = scratch("verbatim");
    let table = Request::parse(r#"{"kind":"table","id":2}"#).unwrap();
    let figure = Request::parse(r#"{"kind":"figure","id":2}"#).unwrap();
    let table3 = Request::parse(r#"{"kind":"table","id":3}"#).unwrap();
    let spaced = "{ \"text\" : \"hand written\" ,\n  \"rows\": [1, 2.50] }";
    {
        let (mut store, _) = Store::open(&path, fp).expect("store opens");
        assert!(store
            .put(table.key(), table.text(), spaced.as_bytes())
            .unwrap());
        assert!(store.put(figure.key(), figure.text(), b"not json").unwrap());
        assert!(store.put(table3.key(), table3.text(), &[0xff, 0xfe]).unwrap());
    }
    let (s, _) = catalog_with_store(&path, fp);
    let line = s.handle_line(r#"{"id":2,"kind":"table"}"#);
    let want = format!(
        "{{\"key\":\"{}\",\"request\":{},\"result\":{spaced}}}",
        table.key_hex(),
        table.canon().compact()
    );
    assert_eq!(line, want);
    let (resp, _) = httpfront::handle(&s, &get("/table/2", "text/plain"));
    assert_eq!(resp.body, b"hand written");
    // Bytes that are not JSON splice verbatim on the line path too; the
    // parsed view cannot hold them and answers a typed failure instead.
    assert!(s
        .handle_line(r#"{"kind":"figure","id":2}"#)
        .ends_with(r#""result":not json}"#));
    let view = s.handle_lines(&[r#"{"kind":"figure","id":2}"#]).remove(0);
    let kind = view
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str);
    assert_eq!(kind, Some("failed"), "{}", view.compact());
    assert_eq!(s.metrics().counter("serve.cache.hit"), 4);
    assert_eq!(s.metrics().counter("serve.atoms.executed"), 0);
    // Bytes that are not text cannot be spliced: the request is
    // computed instead, and the stored record is kept as it is.
    let computed = Service::new(CatalogExecutor, wide()).handle_line(r#"{"kind":"table","id":3}"#);
    assert_eq!(s.handle_line(r#"{"kind":"table","id":3}"#), computed);
    assert_eq!(s.metrics().counter("serve.store.bad_value"), 1);
    assert_eq!(s.metrics().counter("serve.cache.miss"), 1);
}
