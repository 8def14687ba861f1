//! Service-level properties: single-flight dedup, admission control,
//! deadline budgets, result-store retention and byte-identity of stored
//! vs recomputed responses. Uses a toy deterministic executor so the
//! properties are tested independently of the paper catalog (which has
//! its own suite in `pvc-report`).
//!
//! Every test in this binary pins `PVC_THREADS=2` so the parallel atom
//! pass really runs multi-threaded (the ISSUE's single-flight-under-
//! parallelism requirement) while staying deterministic.

use pvc_core::Json;
use pvc_serve::{fnv1a64, Atom, Executor, Request, ServeConfig, Service};
use std::sync::atomic::{AtomicUsize, Ordering};

fn pin_threads() {
    // Test binaries run tests on multiple threads; setting the same
    // value from every test keeps this race-free in practice.
    std::env::set_var("PVC_THREADS", "2");
}

/// Deterministic toy executor counting real atom executions.
#[derive(Default)]
struct Toy {
    executions: AtomicUsize,
}

impl Executor for Toy {
    fn cost(&self, req: &Request) -> u64 {
        match req.get("cost") {
            Some(Json::Int(n)) => *n as u64,
            _ => 1,
        }
    }

    fn atoms(&self, req: &Request) -> Result<Vec<Atom>, String> {
        match req.kind() {
            "item" => {
                let Some(Json::Int(n)) = req.get("n") else {
                    return Err("item needs integer n".into());
                };
                Ok(vec![Atom::new(format!("item:{n}"), Json::Int(*n))])
            }
            "sweep" => {
                let Some(ids) = req.get("ids").and_then(Json::as_array) else {
                    return Err("sweep needs ids array".into());
                };
                ids.iter()
                    .map(|id| match id {
                        Json::Int(n) => Ok(Atom::new(format!("item:{n}"), Json::Int(*n))),
                        _ => Err("ids must be integers".to_string()),
                    })
                    .collect()
            }
            other => Err(format!("unknown kind '{other}'")),
        }
    }

    fn execute_atom(&self, atom: &Atom) -> Result<Json, String> {
        self.executions.fetch_add(1, Ordering::SeqCst);
        let Json::Int(n) = atom.params else {
            return Err("non-integer atom".into());
        };
        if n < 0 {
            return Err(format!("negative item {n}"));
        }
        Ok(Json::obj(vec![
            ("id", Json::str(atom.id.clone())),
            ("square", Json::Int(n * n)),
        ]))
    }

    fn assemble(&self, _req: &Request, mut parts: Vec<Json>) -> Result<Json, String> {
        Ok(if parts.len() == 1 {
            parts.pop().expect("one part")
        } else {
            Json::Arr(parts)
        })
    }
}

fn service(cfg: ServeConfig) -> Service<Toy> {
    Service::new(Toy::default(), cfg)
}

fn item(n: i64) -> String {
    format!(r#"{{"kind":"item","n":{n}}}"#)
}

#[test]
fn single_flight_collapses_identical_requests_under_parallelism() {
    pin_threads();
    let s = service(ServeConfig::default());
    let line = item(7);
    let batch: Vec<&str> = vec![&line; 6];
    let responses = s.handle_lines(&batch);
    assert_eq!(responses.len(), 6);
    // All six answers are byte-identical and correct.
    for r in &responses {
        assert_eq!(r.canonical(), responses[0].canonical());
        assert_eq!(r.get("result").unwrap().get("square"), Some(&Json::Int(49)));
    }
    // …but the work ran exactly once.
    assert_eq!(s.executor().executions.load(Ordering::SeqCst), 1);
    assert_eq!(s.metrics().counter("serve.singleflight.deduped"), 5);
    assert_eq!(s.metrics().counter("serve.cache.miss"), 1);
}

#[test]
fn cached_response_is_byte_identical_to_recomputed() {
    pin_threads();
    let s = service(ServeConfig::default());
    let line = item(3);
    let cold = s.handle_lines(&[&line]).remove(0);
    assert_eq!(s.metrics().counter("serve.cache.hit"), 0);
    let warm = s.handle_lines(&[&line]).remove(0);
    assert_eq!(s.metrics().counter("serve.cache.hit"), 1);
    assert_eq!(cold.canonical(), warm.canonical(), "cache must not perturb bytes");
    // A fresh service recomputes the same bytes from scratch.
    let fresh = service(ServeConfig::default()).handle_lines(&[&line]).remove(0);
    assert_eq!(cold.canonical(), fresh.canonical());
}

#[test]
fn saturated_queue_sheds_with_typed_overloaded() {
    pin_threads();
    let s = service(ServeConfig { queue_depth: 2, ..ServeConfig::default() });
    let lines: Vec<String> = (0..5).map(item).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    let responses = s.handle_lines(&refs);
    let shed: Vec<&Json> = responses
        .iter()
        .filter(|r| {
            r.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str)
                == Some("overloaded")
        })
        .collect();
    assert_eq!(shed.len(), 3, "2 admitted, 3 shed");
    for r in shed {
        assert_eq!(
            r.get("error").unwrap().get("queue_depth"),
            Some(&Json::Int(2)),
            "rejection names the configured depth"
        );
    }
    assert_eq!(s.metrics().counter("serve.rejected.overload"), 3);
    // The admitted two really ran.
    assert_eq!(s.executor().executions.load(Ordering::SeqCst), 2);
}

#[test]
fn cache_hits_bypass_admission_under_overload() {
    pin_threads();
    let s = service(ServeConfig { queue_depth: 1, ..ServeConfig::default() });
    let a = item(1);
    s.handle_lines(&[&a]); // warm the cache with 'a'
    let b = item(2);
    let c = item(3);
    let responses = s.handle_lines(&[&a, &b, &c]);
    // 'a' is served from cache without a queue slot; 'b' takes the one
    // slot; 'c' is shed.
    assert!(responses[0].get("result").is_some(), "warm entry served");
    assert!(responses[1].get("result").is_some(), "one slot admitted");
    assert_eq!(
        responses[2].get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
        Some("overloaded")
    );
    assert_eq!(s.metrics().counter("serve.cache.hit"), 1);
}

#[test]
fn over_budget_requests_get_deadline_exceeded() {
    pin_threads();
    let s = service(ServeConfig { default_budget: 10, ..ServeConfig::default() });
    let pricey = r#"{"kind":"item","n":1,"cost":50}"#;
    let r = s.handle_lines(&[pricey]).remove(0);
    let err = r.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline_exceeded"));
    assert_eq!(err.get("cost"), Some(&Json::Int(50)));
    assert_eq!(err.get("budget"), Some(&Json::Int(10)));
    // An explicit per-request budget overrides the default.
    let funded = r#"{"kind":"item","n":1,"cost":50,"budget":60}"#;
    let r = s.handle_lines(&[funded]).remove(0);
    assert!(r.get("result").is_some(), "explicit budget admits it: {}", r.pretty());
    assert_eq!(s.metrics().counter("serve.rejected.deadline"), 1);
}

#[test]
fn overlapping_sweeps_coalesce_into_one_pass_per_atom() {
    pin_threads();
    let s = service(ServeConfig::default());
    let a = r#"{"kind":"sweep","ids":[1,2,3]}"#;
    let b = r#"{"kind":"sweep","ids":[2,3,4]}"#;
    let responses = s.handle_lines(&[a, b]);
    // 6 atoms requested, 4 unique executed.
    assert_eq!(s.metrics().counter("serve.atoms.requested"), 6);
    assert_eq!(s.metrics().counter("serve.atoms.executed"), 4);
    assert_eq!(s.executor().executions.load(Ordering::SeqCst), 4);
    // Each response still sees its own slice, in its own order.
    let squares = |r: &Json| -> Vec<i64> {
        r.get("result")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|p| match p.get("square") {
                Some(Json::Int(n)) => *n,
                _ => panic!("square missing"),
            })
            .collect()
    };
    assert_eq!(squares(&responses[0]), vec![1, 4, 9]);
    assert_eq!(squares(&responses[1]), vec![4, 9, 16]);
}

/// A service without `--store` keeps every computed answer in its
/// in-memory store: nothing is evicted, so nothing is computed twice.
#[test]
fn computed_answers_are_kept_without_eviction() {
    pin_threads();
    let s = service(ServeConfig::default());
    let lines: Vec<String> = (0..100).map(item).collect();
    for line in &lines {
        s.handle_lines(&[line]);
    }
    assert_eq!(s.store_len(), 100);
    assert_eq!(s.metrics().counter("serve.store.write"), 100);
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    s.handle_lines(&refs[..30]);
    s.handle_lines(&refs[70..]);
    assert_eq!(s.executor().executions.load(Ordering::SeqCst), 100, "every repeat is a hit");
    assert_eq!(s.metrics().counter("serve.cache.hit"), 60);
}

#[test]
fn failures_are_enveloped_not_panicked() {
    pin_threads();
    let s = service(ServeConfig::default());
    let responses = s.handle_lines(&[
        r#"{"kind":"item","n":-4}"#, // atom execution fails
        r#"{"kind":"mystery"}"#,     // planning fails: the client's fault
        "not json at all",           // parse fails
        &item(5),                    // healthy neighbour
    ]);
    let kind = |r: &Json| {
        r.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(kind(&responses[0]).as_deref(), Some("failed"));
    assert_eq!(kind(&responses[1]).as_deref(), Some("bad_request"));
    assert_eq!(kind(&responses[2]).as_deref(), Some("bad_request"));
    assert!(responses[3].get("result").is_some(), "healthy request unaffected");
    // Failed computations are never stored.
    assert_eq!(s.store_len(), 1);
}

/// Unplannable requests are rejected before anything is keyed on their
/// client-chosen kind: however many distinct kinds arrive, the service
/// keeps the same metric names.
#[test]
fn unknown_kinds_leave_the_metric_names_unchanged() {
    pin_threads();
    let mut s = service(ServeConfig::default());
    s.set_telemetry(pvc_serve::Telemetry::recording(8));
    let names = |s: &Service<Toy>| {
        let m = s.metrics();
        let mut names: Vec<String> = m.counters("").into_iter().map(|(n, _)| n).collect();
        names.extend(m.gauges("").into_iter().map(|(n, _)| n));
        names.extend(m.histogram_names(""));
        names
    };
    s.handle_lines(&[r#"{"kind":"unknown-0"}"#]);
    let before = names(&s);
    let lines: Vec<String> = (1..=1000).map(|i| format!(r#"{{"kind":"unknown-{i}"}}"#)).collect();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    for r in s.handle_lines(&refs) {
        let kind = r.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind, Some(&Json::str("bad_request")), "{}", r.compact());
    }
    assert_eq!(names(&s), before);
    assert_eq!(s.metrics().counter("serve.rejected.bad_request"), 1001);
    assert_eq!(s.metrics().counter("serve.failed"), 0);
    let recorded = s.telemetry().recent();
    assert!(recorded.iter().all(|t| t.kind == "?"), "{recorded:?}");
}

#[test]
fn envelope_echoes_canonical_request_and_key() {
    pin_threads();
    let s = service(ServeConfig::default());
    // Scrambled field order and a budget field: the envelope echoes the
    // canonical (sorted, budget-stripped) request.
    let r = s
        .handle_lines(&[r#"{"n":9,"budget":30,"kind":"item"}"#])
        .remove(0);
    let req = Request::parse(r#"{"kind":"item","n":9}"#).unwrap();
    assert_eq!(r.get("key").and_then(Json::as_str), Some(req.key_hex().as_str()));
    assert_eq!(r.get("request"), Some(req.canon()));
    // The content address is the FNV-1a hash of the canonical text, so
    // the cache and the store agree on every key.
    assert_eq!(req.key(), fnv1a64(req.text().as_bytes()));
}

#[test]
fn shutdown_kind_latches_and_answers_ok() {
    pin_threads();
    let s = service(ServeConfig::default());
    assert!(!s.shutdown_requested());
    let r = s.handle_lines(&[r#"{"kind":"shutdown"}"#]).remove(0);
    assert_eq!(
        r.get("result").and_then(|b| b.get("shutting_down")),
        Some(&Json::Bool(true))
    );
    assert!(s.shutdown_requested(), "flag latches");
    assert_eq!(s.metrics().counter("serve.shutdown"), 1);
    // Still serves the rest of the drain.
    let r = s.handle_lines(&[&item(1)]).remove(0);
    assert!(r.get("result").is_some());
}

#[test]
fn handle_line_answers_objects_singly_and_arrays_as_one_batch() {
    pin_threads();
    let s = service(ServeConfig::default());
    // An object line is one compact envelope, byte-equal to the batch
    // API's.
    let one = s.handle_line(&format!("  {}\n", item(4)));
    assert_eq!(one, s.handle_lines(&[&item(4)])[0].compact());
    // An array line is one batch (duplicates single-flight) answered
    // with one array in input order.
    let batch = s.handle_line(&format!("[{},{},{}]", item(5), item(5), item(6)));
    let parsed = pvc_core::json::parse(&batch).expect("one JSON line");
    assert_eq!(batch, parsed.compact());
    let items = parsed.as_array().expect("array answer");
    assert_eq!(items.len(), 3);
    assert_eq!(items[0].canonical(), items[1].canonical());
    assert_eq!(s.metrics().counter("serve.singleflight.deduped"), 1);
    // A malformed array is a one-element array of the bad_request
    // envelope; a malformed object or a bare scalar is a lone envelope.
    let bad = |line: &str| s.handle_line(line);
    assert!(bad("[{\"kind\":").starts_with(r#"[{"error":{"kind":"bad_request""#));
    for line in ["{\"kind\":", "7"] {
        assert!(bad(line).starts_with(r#"{"error":{"kind":"bad_request""#), "{line}");
    }
}
