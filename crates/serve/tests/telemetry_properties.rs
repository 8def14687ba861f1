//! Telemetry-layer properties: the access log and flight recorder are
//! pure observations (bit-non-perturbing when attached, inert when
//! disabled), the `stats` request kind is served by the service itself,
//! and the typed [`Outcome`] keeps counters and log fields in lockstep.

use pvc_core::Json;
use pvc_serve::{
    Atom, Executor, Outcome, Request, ServeConfig, Service, Telemetry,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn pin_threads() {
    std::env::set_var("PVC_THREADS", "2");
}

/// Same deterministic toy executor as `service_properties`.
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
        Ok(Json::obj(vec![("square", Json::Int(n * n))]))
    }

    fn assemble(&self, _req: &Request, mut parts: Vec<Json>) -> Result<Json, String> {
        Ok(parts.pop().expect("one atom per item"))
    }

    fn work_counters(&self, _atom: &Atom, result: &Json) -> Vec<(String, u64)> {
        // A fixed per-atom work report, like the catalog executor's
        // `simrt.*` extraction — pure in (atom, result).
        match result.get("square") {
            Some(_) => vec![("toy.work.squares".to_string(), 1)],
            None => vec![],
        }
    }
}

fn item(n: i64) -> String {
    format!(r#"{{"kind":"item","n":{n}}}"#)
}

/// A batch that exercises every outcome except Stats: warm hit, fresh
/// miss, dedup, shed, deadline, bad_request, failed.
fn mixed_batch() -> (Vec<String>, String) {
    let warm = item(1);
    let batch = vec![
        warm.clone(),                                // hit (after warmup)
        r#"{"kind":"item","n":5,"cost":99}"#.into(), // deadline (no slot)
        item(-6),                                    // miss → failed at exec
        item(2),                                     // miss (fills queue)
        item(2),                                     // dedup
        item(4),                                     // shed (queue_depth 2)
        "not json".into(),                           // bad_request
    ];
    (batch, warm)
}

fn cfg() -> ServeConfig {
    ServeConfig {
        queue_depth: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn telemetry_attachment_is_bit_non_perturbing() {
    pin_threads();
    let run = |telemetry: bool| -> Vec<String> {
        let mut s = Service::new(Toy::default(), cfg());
        if telemetry {
            s.set_telemetry(Telemetry::recording(16));
        }
        let (batch, warm) = mixed_batch();
        s.handle_lines(&[&warm]);
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        s.handle_lines(&refs).iter().map(Json::canonical).collect()
    };
    assert_eq!(run(false), run(true), "telemetry must never change response bytes");
}

#[test]
fn outcome_counters_match_access_log_exactly() {
    pin_threads();
    let mut s = Service::new(Toy::default(), cfg());
    s.set_telemetry(Telemetry::recording(32).with_access_log());
    let (batch, warm) = mixed_batch();
    s.handle_lines(&[&warm]);
    s.telemetry().drain_access_log(); // drop the warmup line
    let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
    s.handle_lines(&refs);
    let log = s.telemetry().drain_access_log();
    // Every non-stats outcome's counter equals the number of log lines
    // carrying its label — the typed enum keeps them in lockstep.
    // (Failed at the counter level means executor failures; the log's
    // `failed` label additionally covers them per request.)
    let lines: Vec<Json> = log
        .lines()
        .map(|l| pvc_core::json::parse(l).expect("log line parses"))
        .collect();
    assert_eq!(lines.len(), batch.len());
    let labelled = |label: &str| {
        lines
            .iter()
            .filter(|l| l.get("outcome").and_then(Json::as_str) == Some(label))
            .count() as u64
    };
    let m = s.metrics();
    assert_eq!(m.counter(Outcome::Hit.as_metric_name()), labelled("hit"));
    assert_eq!(m.counter(Outcome::Dedup.as_metric_name()), labelled("dedup"));
    assert_eq!(m.counter(Outcome::Overload.as_metric_name()), labelled("shed"));
    assert_eq!(m.counter(Outcome::Deadline.as_metric_name()), labelled("deadline"));
    assert_eq!(
        m.counter(Outcome::BadRequest.as_metric_name()),
        labelled("bad_request")
    );
    // n=-6 was admitted as a miss but resolved as the executor failure;
    // the log label follows the resolution while the admission counter
    // (serve.cache.miss) keeps the admission decision.
    assert_eq!(labelled("failed"), 1);
    assert_eq!(labelled("miss"), 1);
    assert_eq!(labelled("shed"), 1);
    assert_eq!(m.counter("serve.failed"), 1);
    // queue_depth records the admission-time depth: the dedup of
    // item(2) saw both queued computations (-6 and 2) ahead of it.
    let dedup_line = lines
        .iter()
        .find(|l| l.get("outcome").and_then(Json::as_str) == Some("dedup"))
        .unwrap();
    assert_eq!(dedup_line.get("queue_depth"), Some(&Json::Int(2)));
}

/// A recorder no frontend drains keeps its ring and anomaly but no
/// access log, so a long session's memory stays bounded.
#[test]
fn a_recorder_without_a_log_buffers_no_lines() {
    pin_threads();
    let mut s = Service::new(Toy::default(), ServeConfig::default());
    s.set_telemetry(Telemetry::recording(16));
    for n in 0..1000 {
        s.handle_lines(&[&item(n)]);
    }
    assert_eq!(s.telemetry().drain_access_log(), "", "no log attached, no bytes buffered");
    assert_eq!(s.telemetry().recent().len(), 16, "the ring still records");
}

#[test]
fn failed_requests_log_failed_and_pin_the_anomaly() {
    pin_threads();
    let mut s = Service::new(Toy::default(), ServeConfig::default());
    s.set_telemetry(Telemetry::recording(16).with_access_log());
    let bad = item(-4);
    let responses = s.handle_lines(&[&bad]);
    let log = s.telemetry().drain_access_log();
    let line = pvc_core::json::parse(log.trim_end()).unwrap();
    // Counted as a miss at admission, resolved as failed.
    assert_eq!(line.get("outcome"), Some(&Json::str("failed")));
    assert_eq!(line.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(s.metrics().counter("serve.cache.miss"), 1);
    assert_eq!(s.metrics().counter("serve.failed"), 1);
    let a = s.telemetry().last_anomaly().expect("failure pinned");
    assert_eq!(a.telemetry.outcome, Outcome::Failed);
    assert_eq!(a.request_text.as_deref(), Some(
        Request::parse(&bad).unwrap().text()
    ));
    assert_eq!(a.envelope, responses[0], "anomaly keeps the exact response");
}

#[test]
fn flight_recorder_retains_most_recent_shed_request_trace() {
    pin_threads();
    let mut s = Service::new(Toy::default(), ServeConfig { queue_depth: 1, ..cfg() });
    s.set_telemetry(Telemetry::recording(4));
    // Two sheds; the anomaly must be the second one.
    let responses = s.handle_lines(&[&item(1), &item(2), &item(3)]);
    let a = s.telemetry().last_anomaly().expect("shed pinned");
    assert_eq!(a.telemetry.outcome, Outcome::Overload);
    assert_eq!(a.telemetry.kind, "item");
    assert_eq!(a.envelope, responses[2], "most recent shed, not the first");
    // Ring keeps the newest records within capacity.
    let mut seen = s.telemetry().recent();
    assert!(seen.len() <= 4);
    assert_eq!(seen.pop().unwrap().outcome, Outcome::Overload);
}

#[test]
fn stats_kind_is_served_by_the_service_not_the_executor() {
    pin_threads();
    let mut s = Service::new(Toy::default(), ServeConfig::default());
    s.set_telemetry(Telemetry::recording(8));
    let stats = r#"{"kind":"stats"}"#;
    let batch = [item(2), stats.to_string(), item(2)];
    let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
    let responses = s.handle_lines(&refs);
    // The executor never saw the stats request (it would have failed:
    // Toy only knows "item"), and only ran the one unique item atom.
    assert_eq!(s.executor().executions.load(Ordering::SeqCst), 1);
    let body = responses[1].get("result").expect("stats answered ok");
    let counters = body.get("counters").expect("counters section");
    assert_eq!(counters.get("serve.requests"), Some(&Json::Int(3)));
    assert_eq!(counters.get("serve.stats"), Some(&Json::Int(1)));
    // Work counters reported by the executor surface in the snapshot.
    assert_eq!(counters.get("toy.work.squares"), Some(&Json::Int(1)));
    // The same-batch item requests are already in the flight recorder.
    let recent = body
        .get("flight_recorder")
        .and_then(|f| f.get("recent"))
        .and_then(Json::as_array)
        .expect("recorder dumped");
    assert_eq!(recent.len(), 2, "both item records, stats itself excluded");
    // Cost quantiles per request kind are present and ordered.
    let q = body
        .get("quantiles")
        .and_then(|q| q.get("serve.cost.item"))
        .expect("per-kind cost histogram");
    let (p50, p99) = (
        q.get("p50").and_then(Json::as_num).unwrap(),
        q.get("p99").and_then(Json::as_num).unwrap(),
    );
    assert!(p50 <= p99);
    assert_eq!(q.get("count"), Some(&Json::Int(2)));
    // Stats responses are never cached: asking again reflects the new
    // counter values instead of replaying stale bytes.
    let again = s.handle_lines(&[stats]).remove(0);
    let c2 = again.get("result").unwrap().get("counters").unwrap();
    assert_eq!(c2.get("serve.requests"), Some(&Json::Int(4)));
    assert_eq!(c2.get("serve.stats"), Some(&Json::Int(2)));
    assert_eq!(s.metrics().counter("serve.cache.hit"), 0);
}

#[test]
fn stats_works_with_telemetry_disabled_too() {
    pin_threads();
    let s = Service::new(Toy::default(), ServeConfig::default());
    let r = s.handle_lines(&[r#"{"kind":"stats"}"#]).remove(0);
    let body = r.get("result").expect("answered");
    assert!(body.get("counters").is_some());
    assert!(
        body.get("flight_recorder").is_none(),
        "no recorder attached, no dump"
    );
}

// ---------------------------------------------------------------- //
// One cache tier: the result store, in memory or file-backed.      //
// ---------------------------------------------------------------- //

/// Collision-free scratch path for a store file (no tempfile crate in
/// the hermetic workspace); the guard removes it on drop.
fn scratch_store(tag: &str) -> (std::path::PathBuf, Cleanup) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "pvc-serve-telemetry-{tag}-{}-{}.bin",
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

const STORE_FP: u64 = 0x7e57_f19e_4b41_d001;

fn service_with_store(path: &std::path::Path) -> (Service<Toy>, pvc_store::OpenReport) {
    let (store, report) = pvc_store::Store::open(path, STORE_FP).expect("store opens");
    let mut s = Service::new(Toy::default(), ServeConfig::default());
    s.set_telemetry(Telemetry::recording(8).with_access_log());
    s.attach_store(store, &report);
    (s, report)
}

#[test]
fn store_hit_is_served_from_disk_and_counted_as_a_hit() {
    pin_threads();
    let (path, _guard) = scratch_store("hit");

    // Pass 1: a cold service with an empty store computes and persists.
    let (first, computed) = {
        let (s, report) = service_with_store(&path);
        assert_eq!(report.status, pvc_store::OpenStatus::Created);
        let computed = s.handle_lines(&[&item(3)]).remove(0);
        let m = s.metrics();
        assert_eq!(m.counter("serve.cache.miss"), 1, "cold compute");
        assert_eq!(m.counter("serve.store.write"), 1, "response persisted");
        (s.executor().executions.load(Ordering::SeqCst), computed)
    };
    assert_eq!(first, 1);

    // Pass 2: a fresh process (same file) answers from disk.
    let (s, report) = service_with_store(&path);
    assert_eq!(report.status, pvc_store::OpenStatus::Loaded);
    assert_eq!(report.records, 1);
    s.telemetry().drain_access_log();
    for round in 1..=2 {
        let from_disk = s.handle_lines(&[&item(3)]).remove(0);
        assert_eq!(
            from_disk.canonical(),
            computed.canonical(),
            "store-served bytes must equal freshly computed bytes"
        );
        let m = s.metrics();
        assert_eq!(m.counter("serve.cache.hit"), round);
        assert_eq!(m.counter("serve.cache.miss"), 0, "no cold compute");
        assert_eq!(m.counter("serve.store.write"), 0, "a hit writes nothing");
        let log = s.telemetry().drain_access_log();
        let line = pvc_core::json::parse(log.trim_end()).unwrap();
        assert_eq!(line.get("outcome"), Some(&Json::str("hit")));
        assert_eq!(line.get("ok"), Some(&Json::Bool(true)));
    }
    assert_eq!(
        s.executor().executions.load(Ordering::SeqCst),
        0,
        "disk hit runs no atoms"
    );
    assert_eq!(
        s.metrics().counter("toy.work.squares"),
        0,
        "disk hits attribute zero new solver work"
    );
}

#[test]
fn store_attachment_is_bit_non_perturbing() {
    pin_threads();
    let run = |with_store: bool| -> Vec<String> {
        let (path, _guard) = scratch_store("perturb");
        let mut s = Service::new(Toy::default(), cfg());
        s.set_telemetry(Telemetry::recording(16));
        if with_store {
            let (store, report) =
                pvc_store::Store::open(&path, STORE_FP).expect("store opens");
            s.attach_store(store, &report);
        }
        let (batch, warm) = mixed_batch();
        s.handle_lines(&[&warm]);
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        s.handle_lines(&refs).iter().map(Json::canonical).collect()
    };
    assert_eq!(
        run(false),
        run(true),
        "the disk tier must never change response bytes"
    );
}

#[test]
fn corrupt_store_degrades_to_recompute_not_failure() {
    pin_threads();
    let (path, _guard) = scratch_store("corrupt");
    {
        let (s, _) = service_with_store(&path);
        s.handle_lines(&[&item(7)]);
    }
    // Flip a byte inside the one persisted record: the checksum fails
    // at open, the record drops, and the service recomputes instead of
    // serving garbage.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = pvc_store::HEADER_LEN + (bytes.len() - pvc_store::HEADER_LEN) / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let (s, report) = service_with_store(&path);
    assert!(report.tail_corrupt(), "byte flip detected at open");
    assert_eq!(report.records, 0, "store degraded to the valid prefix");
    assert_eq!(s.metrics().counter("store.open.tail_corrupt"), 1);
    let r = s.handle_lines(&[&item(7)]).remove(0);
    assert!(r.get("result").is_some(), "service still answers by computing");
    assert_eq!(s.metrics().counter("serve.cache.miss"), 1);
    assert_eq!(s.executor().executions.load(Ordering::SeqCst), 1);
    assert_eq!(
        s.metrics().counter("serve.store.write"),
        1,
        "recomputed result is re-persisted"
    );
}

#[test]
fn access_log_is_deterministic_across_identical_services() {
    pin_threads();
    let run = || {
        let mut s = Service::new(Toy::default(), cfg());
        s.set_telemetry(Telemetry::recording(16).with_access_log());
        let (batch, warm) = mixed_batch();
        s.handle_lines(&[&warm]);
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        s.handle_lines(&refs);
        (
            s.telemetry().drain_access_log(),
            s.stats_body().canonical(),
            s.metrics().expose_text(),
        )
    };
    assert_eq!(run(), run(), "log, stats body and exposition are all byte-stable");
}
