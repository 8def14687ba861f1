//! Per-request telemetry: typed outcomes, a structured JSON access
//! log, and a bounded ring-buffer **flight recorder**.
//!
//! Everything here is observation only. A disabled [`Telemetry`] handle
//! costs one `Option` branch per touch point and a service with
//! telemetry off produces byte-identical responses to one with it on —
//! the record is derived from decisions the service already made, never
//! the other way around.
//!
//! All recorded quantities are **virtual**: abstract cost units, queue
//! depths, atom counts, sequence numbers. No wall clock ever enters a
//! record, so access logs and flight-recorder dumps inherit the
//! workspace's double-run byte-identity guarantee.

use pvc_core::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// How the service resolved one request. The single source of truth
/// binding the counter spelling, the access-log field, and the flight
/// recorder together — they can never drift apart because each is
/// derived from this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The input line did not parse into a request, or the executor
    /// could not plan it.
    BadRequest,
    /// Answered from the service's result store.
    Hit,
    /// Collapsed onto an identical in-flight computation.
    Dedup,
    /// Shed by bounded-queue admission control.
    Overload,
    /// Rejected because the cost estimate exceeded the budget.
    Deadline,
    /// Admitted and computed fresh.
    Miss,
    /// Admitted but the executor failed while computing it.
    Failed,
    /// A reserved `stats` introspection request.
    Stats,
    /// A reserved `shutdown` request: acknowledged and latched so the
    /// frontend drains and exits its accept loop gracefully.
    Shutdown,
}

impl Outcome {
    /// The `serve.*` counter this outcome increments. These spellings
    /// are the crate's public metric names — tests and CI grep them.
    pub fn as_metric_name(&self) -> &'static str {
        match self {
            Outcome::BadRequest => "serve.rejected.bad_request",
            Outcome::Hit => "serve.cache.hit",
            Outcome::Dedup => "serve.singleflight.deduped",
            Outcome::Overload => "serve.rejected.overload",
            Outcome::Deadline => "serve.rejected.deadline",
            Outcome::Miss => "serve.cache.miss",
            Outcome::Failed => "serve.failed",
            Outcome::Stats => "serve.stats",
            Outcome::Shutdown => "serve.shutdown",
        }
    }

    /// The access-log / flight-recorder field value.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::BadRequest => "bad_request",
            Outcome::Hit => "hit",
            Outcome::Dedup => "dedup",
            Outcome::Overload => "shed",
            Outcome::Deadline => "deadline",
            Outcome::Miss => "miss",
            Outcome::Failed => "failed",
            Outcome::Stats => "stats",
            Outcome::Shutdown => "shutdown",
        }
    }

    /// True when the request was answered with a result body.
    pub fn is_ok(&self) -> bool {
        matches!(
            self,
            Outcome::Hit
                | Outcome::Dedup
                | Outcome::Miss
                | Outcome::Stats
                | Outcome::Shutdown
        )
    }

    /// Every outcome, in a stable order (for exhaustiveness tests).
    pub const ALL: [Outcome; 9] = [
        Outcome::BadRequest,
        Outcome::Hit,
        Outcome::Dedup,
        Outcome::Overload,
        Outcome::Deadline,
        Outcome::Miss,
        Outcome::Failed,
        Outcome::Stats,
        Outcome::Shutdown,
    ];
}

/// One request's telemetry record. Fields that were never reached on
/// the request's path through the service (e.g. `cost` for a cache
/// hit shed before estimation) are `None` and render as JSON `null`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTelemetry {
    /// Monotonic per-recorder sequence number (admission order).
    pub seq: u64,
    /// The request's `kind` field; `"?"` when the input was answered
    /// `bad_request`.
    pub kind: String,
    /// Canonical content address (`fnv64:…`) when the input parsed.
    pub key: Option<String>,
    /// How the service resolved it.
    pub outcome: Outcome,
    /// Deterministic cost estimate, when one was computed.
    pub cost: Option<u64>,
    /// The budget the cost was compared against.
    pub budget: Option<u64>,
    /// Unique computations already queued when this request was
    /// considered (the admission-time queue depth).
    pub queue_depth: Option<u64>,
    /// Atoms assigned to this request's computation after coalescing.
    pub atoms: Option<u64>,
    /// The canonical chaos spec carried by the request, if any.
    pub chaos: Option<String>,
}

impl RequestTelemetry {
    /// The record as a sorted-key JSON object (the access-log schema).
    pub fn to_json(&self) -> Json {
        fn opt_u64(v: Option<u64>) -> Json {
            v.map_or(Json::Null, |n| Json::Int(n as i64))
        }
        fn opt_str(v: &Option<String>) -> Json {
            v.as_ref().map_or(Json::Null, |s| Json::str(s.clone()))
        }
        Json::obj(vec![
            ("atoms", opt_u64(self.atoms)),
            ("budget", opt_u64(self.budget)),
            ("chaos", opt_str(&self.chaos)),
            ("cost", opt_u64(self.cost)),
            ("key", opt_str(&self.key)),
            ("kind", Json::str(self.kind.clone())),
            ("ok", Json::Bool(self.outcome.is_ok())),
            ("outcome", Json::str(self.outcome.as_str())),
            ("queue_depth", opt_u64(self.queue_depth)),
            ("seq", Json::Int(self.seq as i64)),
        ])
    }
}

/// The full trace of the most recent request that was not answered
/// with a result: its telemetry record, the raw input text, and the
/// exact error envelope that went back to the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// The request's telemetry record.
    pub telemetry: RequestTelemetry,
    /// The raw input text, when it was available.
    pub request_text: Option<String>,
    /// The response envelope the client received.
    pub envelope: Json,
}

impl Anomaly {
    /// The anomaly as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "request_text",
                self.request_text
                    .as_ref()
                    .map_or(Json::Null, |t| Json::str(t.clone())),
            ),
            ("response", self.envelope.clone()),
            ("telemetry", self.telemetry.to_json()),
        ])
    }
}

#[derive(Debug, Default)]
struct Recorder {
    cap: usize,
    seq: u64,
    ring: VecDeque<RequestTelemetry>,
    last_anomaly: Option<Anomaly>,
    /// Buffered access-log lines; `None` keeps no log at all.
    access_log: Option<String>,
}

/// The telemetry handle: a cheap cloneable recorder reference, or a
/// no-op when built with [`Telemetry::disabled`]. Same pattern as
/// [`pvc_obs::Tracer`] — one code path, one branch when off.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Telemetry {
    /// A no-op handle: every touch point is a single branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A recording handle whose flight recorder retains the last
    /// `cap` request records (plus the most recent anomaly, which is
    /// pinned independently of the ring). It buffers no access log:
    /// see [`Telemetry::with_access_log`].
    pub fn recording(cap: usize) -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Recorder {
                cap: cap.max(1),
                ..Recorder::default()
            }))),
        }
    }

    /// This handle, also buffering one access-log line per recorded
    /// request until [`Telemetry::drain_access_log`] takes them. Only a
    /// frontend that drains the log should ask for it: the buffer grows
    /// with every request in between.
    pub fn with_access_log(self) -> Self {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().access_log = Some(String::new());
        }
        self
    }

    /// True when this handle records.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one resolved request: assigns its sequence number,
    /// appends the access-log line when a log is kept, pushes it into
    /// the flight-recorder ring (evicting the oldest past capacity),
    /// and — for any outcome that did not produce a result — pins the
    /// full anomaly trace. `envelope` is the error envelope the client
    /// received; only an anomaly keeps it, so an ok outcome may pass
    /// `Json::Null`.
    pub fn record(
        &self,
        mut t: RequestTelemetry,
        request_text: Option<&str>,
        envelope: &Json,
    ) {
        let Some(inner) = &self.inner else { return };
        let mut r = inner.borrow_mut();
        t.seq = r.seq;
        r.seq += 1;
        if let Some(log) = &mut r.access_log {
            log.push_str(&t.to_json().compact());
            log.push('\n');
        }
        if !t.outcome.is_ok() {
            r.last_anomaly = Some(Anomaly {
                telemetry: t.clone(),
                request_text: request_text.map(str::to_string),
                envelope: envelope.clone(),
            });
        }
        if r.ring.len() == r.cap {
            r.ring.pop_front();
        }
        r.ring.push_back(t);
    }

    /// The retained records, oldest first.
    pub fn recent(&self) -> Vec<RequestTelemetry> {
        match &self.inner {
            Some(inner) => inner.borrow().ring.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// The pinned most-recent anomaly, if any request ever failed.
    pub fn last_anomaly(&self) -> Option<Anomaly> {
        self.inner.as_ref().and_then(|i| i.borrow().last_anomaly.clone())
    }

    /// Takes the accumulated access log (one compact JSON line per
    /// recorded request), leaving the buffer empty. Lets a frontend
    /// stream the log to a file batch by batch. Empty unless the handle
    /// was built [`Telemetry::with_access_log`].
    pub fn drain_access_log(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        inner.borrow_mut().access_log.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The flight recorder as a JSON object: the retained records
    /// (oldest first) and the pinned anomaly.
    pub fn to_json(&self) -> Json {
        let recent = Json::Arr(self.recent().iter().map(|t| t.to_json()).collect());
        let anomaly = self
            .last_anomaly()
            .map_or(Json::Null, |a| a.to_json());
        Json::obj(vec![
            ("last_anomaly", anomaly),
            ("recent", recent),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: &str, outcome: Outcome) -> RequestTelemetry {
        RequestTelemetry {
            seq: 0,
            kind: kind.to_string(),
            key: Some("fnv64:0000000000000000".to_string()),
            outcome,
            cost: Some(3),
            budget: Some(64),
            queue_depth: Some(0),
            atoms: Some(1),
            chaos: None,
        }
    }

    #[test]
    fn outcome_metric_names_are_the_published_spellings() {
        // These exact strings are public API: ci.sh and downstream
        // tests grep for them. Changing one is a breaking change.
        let spellings: Vec<&str> = Outcome::ALL.iter().map(|o| o.as_metric_name()).collect();
        assert_eq!(
            spellings,
            vec![
                "serve.rejected.bad_request",
                "serve.cache.hit",
                "serve.singleflight.deduped",
                "serve.rejected.overload",
                "serve.rejected.deadline",
                "serve.cache.miss",
                "serve.failed",
                "serve.stats",
                "serve.shutdown",
            ]
        );
        // Every metric name and log label is distinct.
        for (i, a) in Outcome::ALL.iter().enumerate() {
            for b in &Outcome::ALL[i + 1..] {
                assert_ne!(a.as_metric_name(), b.as_metric_name());
                assert_ne!(a.as_str(), b.as_str());
            }
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let t = Telemetry::recording(3);
        for i in 0..5 {
            t.record(record(&format!("k{i}"), Outcome::Miss), None, &Json::Null);
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|r| r.kind.as_str()).collect::<Vec<_>>(),
            vec!["k2", "k3", "k4"]
        );
        assert_eq!(
            recent.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "sequence numbers are assigned in admission order"
        );
    }

    #[test]
    fn anomaly_pins_most_recent_failure_beyond_ring_eviction() {
        let t = Telemetry::recording(2);
        let env = Json::obj(vec![("error", Json::str("queue full"))]);
        t.record(record("run", Outcome::Overload), Some("{\"kind\":\"run\"}"), &env);
        // Enough successes to evict the shed record from the ring.
        for _ in 0..4 {
            t.record(record("table", Outcome::Hit), None, &Json::Null);
        }
        assert!(t.recent().iter().all(|r| r.outcome == Outcome::Hit));
        let a = t.last_anomaly().expect("anomaly pinned");
        assert_eq!(a.telemetry.outcome, Outcome::Overload);
        assert_eq!(a.request_text.as_deref(), Some("{\"kind\":\"run\"}"));
        assert_eq!(a.envelope, env);
    }

    #[test]
    fn access_log_lines_are_compact_sorted_json() {
        let t = Telemetry::recording(8).with_access_log();
        t.record(record("table", Outcome::Hit), None, &Json::Null);
        let log = t.drain_access_log();
        assert!(log.ends_with('\n'));
        let line = log.trim_end();
        let parsed = pvc_core::json::parse(line).expect("log line parses");
        assert_eq!(parsed.get("outcome"), Some(&Json::str("hit")));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            line,
            parsed.sorted().compact(),
            "log lines are canonical sorted-key compact JSON"
        );
        // Draining empties the buffer.
        assert_eq!(t.drain_access_log(), "");
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.record(record("x", Outcome::Failed), Some("txt"), &Json::Null);
        assert!(t.recent().is_empty());
        assert!(t.last_anomaly().is_none());
        assert_eq!(t.drain_access_log(), "");
    }
}
