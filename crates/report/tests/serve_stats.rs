//! End-to-end telemetry through the catalog executor: the `stats`
//! request kind answers with real per-kind cost quantiles and the
//! `simrt.*` work counters attributed by the flow solver, the access
//! log and stats body are byte-stable across identical services (the
//! property ci gate 11 checks from the CLI), and the flight recorder
//! pins the most recent shed request end to end.

use pvc_core::Json;
use pvc_report::serve::{CatalogExecutor, CANNED_REQUESTS};
use pvc_serve::{Outcome, Request, ServeConfig, Service, Telemetry, STATS_KIND};

fn pin_threads() {
    std::env::set_var("PVC_THREADS", "2");
}

fn service(cfg: ServeConfig) -> Service<CatalogExecutor> {
    let mut s = Service::new(CatalogExecutor, cfg);
    s.set_telemetry(Telemetry::recording(64).with_access_log());
    s
}

fn canned_lines() -> Vec<&'static str> {
    CANNED_REQUESTS.to_vec()
}

const STATS: &str = r#"{"kind":"stats"}"#;

/// One canned batch plus a stats request: the stats body carries the
/// catalog's real counters, per-kind cost quantiles, and the solver
/// work the run request attributed through its atoms.
#[test]
fn stats_kind_reports_catalog_counters_and_quantiles() {
    pin_threads();
    let s = service(ServeConfig::default());
    let mut lines = canned_lines();
    lines.push(STATS);
    let responses = s.handle_lines(&lines);
    let body = responses.last().unwrap().get("result").expect("stats ok");
    let counters = body.get("counters").expect("counters section");
    assert_eq!(
        counters.get("serve.requests"),
        Some(&Json::Int(lines.len() as i64))
    );
    assert_eq!(
        counters.get("serve.cache.miss"),
        Some(&Json::Int(CANNED_REQUESTS.len() as i64))
    );
    // The run request's atom embedded its flow-solver effort, and the
    // service merged it into the shared registry.
    let flow_runs = counters
        .get("simrt.flow.runs")
        .and_then(|v| match v {
            Json::Int(n) => Some(*n),
            _ => None,
        })
        .expect("solver work attributed");
    assert!(flow_runs > 0);
    // Every canned kind declared its own cost histogram lazily.
    let q = body.get("quantiles").expect("quantiles section");
    for kind in ["table", "figure", "pcie", "run"] {
        let h = q
            .get(&format!("serve.cost.{kind}"))
            .unwrap_or_else(|| panic!("histogram for {kind}"));
        assert_eq!(h.get("count"), Some(&Json::Int(1)));
        let (p50, p99) = (
            h.get("p50").and_then(Json::as_num).unwrap(),
            h.get("p99").and_then(Json::as_num).unwrap(),
        );
        assert!(p50 <= p99, "{kind}: p50 {p50} > p99 {p99}");
    }
    // The recorder dump rode along inside the same stats body.
    let recent = body
        .get("flight_recorder")
        .and_then(|f| f.get("recent"))
        .and_then(Json::as_array)
        .expect("recorder dumped");
    assert_eq!(recent.len(), CANNED_REQUESTS.len());
}

/// Two fresh services fed the identical request sequence produce
/// byte-identical envelopes, access logs, stats bodies and exposition
/// text — the determinism ci gate 11 re-checks through the CLI.
#[test]
fn stats_exposition_and_access_log_are_byte_stable() {
    pin_threads();
    let run = || {
        let s = service(ServeConfig::default());
        let mut lines = canned_lines();
        lines.push(STATS);
        let envelopes: Vec<String> =
            s.handle_lines(&lines).iter().map(Json::canonical).collect();
        (
            envelopes,
            s.telemetry().drain_access_log(),
            s.stats_body().canonical(),
            s.metrics().expose_text(),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "envelopes");
    assert_eq!(a.1, b.1, "access log");
    assert_eq!(a.2, b.2, "stats body");
    assert_eq!(a.3, b.3, "exposition text");
}

/// Telemetry is a pure observation: the catalog responses are
/// byte-identical with and without a recorder attached.
#[test]
fn canned_responses_are_unchanged_by_telemetry() {
    pin_threads();
    let run = |telemetry: bool| -> Vec<String> {
        let mut s = Service::new(CatalogExecutor, ServeConfig::default());
        if telemetry {
            s.set_telemetry(Telemetry::recording(8));
        }
        let lines = canned_lines();
        let mut out: Vec<String> =
            s.handle_lines(&lines).iter().map(Json::canonical).collect();
        // Replay to cover the cache-hit path too.
        out.extend(s.handle_lines(&lines).iter().map(Json::canonical));
        out
    };
    assert_eq!(run(false), run(true));
}

/// A shed catalog request is pinned by the flight recorder with its
/// full trace: the parsed request text and the exact error envelope.
#[test]
fn flight_recorder_reproduces_shed_catalog_request() {
    pin_threads();
    let s = service(ServeConfig {
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let lines = canned_lines();
    let responses = s.handle_lines(&lines);
    // Depth 1: the first unique request takes the only slot, the rest
    // shed. The anomaly is the most recent shed, i.e. the last line.
    assert_eq!(s.metrics().counter("serve.rejected.overload"), 3);
    let a = s.telemetry().last_anomaly().expect("shed pinned");
    assert_eq!(a.telemetry.outcome, Outcome::Overload);
    assert_eq!(a.telemetry.kind, "run");
    let last = lines.last().unwrap();
    assert_eq!(
        a.request_text.as_deref(),
        Some(Request::parse(last).unwrap().text()),
        "the recorder keeps the canonical request text"
    );
    assert_eq!(
        &a.envelope,
        responses.last().unwrap(),
        "replaying the anomaly envelope reproduces the exact response"
    );
}

/// The stats request itself never occupies a queue slot: it answers
/// even when the queue has no room for ordinary work.
#[test]
fn stats_answers_even_under_full_queue() {
    pin_threads();
    let s = service(ServeConfig {
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let mut lines = canned_lines();
    lines.push(STATS);
    let responses = s.handle_lines(&lines);
    let stats = responses.last().unwrap();
    assert_eq!(
        stats.get("request").and_then(|r| r.get("kind")).and_then(Json::as_str),
        Some(STATS_KIND)
    );
    let counters = stats.get("result").unwrap().get("counters").unwrap();
    assert_eq!(counters.get("serve.rejected.overload"), Some(&Json::Int(3)));
    assert_eq!(counters.get("serve.stats"), Some(&Json::Int(1)));
}
