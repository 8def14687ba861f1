//! # pvc-serve — the simulation-query service core
//!
//! Every paper element this repository reproduces (tables, figures,
//! ablations, profiles) is a **pure deterministic function** of its
//! request: the same request always produces byte-identical output.
//! That makes the results perfectly cacheable and batchable, and this
//! crate is the serving layer exploiting it:
//!
//! * [`request`] — the canonical request envelope: a JSON object with a
//!   `kind` field, normalised to sorted-key canonical bytes and
//!   content-addressed with an FNV-1a 64-bit hash.
//! * [`batch`] — the execution plan for one admitted batch:
//!   single-flight dedup of identical requests plus **atom
//!   coalescing** — compatible sweep requests decompose into shared
//!   atoms, each unique atom simulated once per pass.
//! * [`service`] — [`Service`](service::Service): one
//!   [`pvc_store::Store`] result tier (keyed by that hash, with a
//!   full-text guard against collisions; file-backed under `--store`,
//!   else in memory) and one bounded admission queue per process. A
//!   hit is spliced from the stored bytes into the answer line.
//!   Carries admission control (typed
//!   [`ServeError::Overloaded`] load shedding), deterministic
//!   per-request cost budgets, and parallel atom execution on
//!   [`pvc_core::par`]. `serve.*` counters are exported through a
//!   [`pvc_obs::Metrics`] registry; a reserved `stats` request kind
//!   answers with the full snapshot (counters, gauges, cost quantiles)
//!   and a reserved `shutdown` kind latches graceful frontend shutdown.
//! * [`http`] — a zero-dependency HTTP/1.1 server primitive
//!   (keep-alive, chunked responses, bounded parsing, no `Date`
//!   header) that the `reproduce serve --http` frontend builds on.
//! * [`telemetry`] — per-request records behind a typed
//!   [`Outcome`](telemetry::Outcome): a structured JSON access log,
//!   per-kind virtual-cost histograms, and a bounded **flight
//!   recorder** retaining the last N requests plus the full trace of
//!   the most recent failure. Observation only — a service with
//!   telemetry attached produces byte-identical responses.
//!
//! The crate is domain-agnostic: what a request *means* is supplied by
//! an [`Executor`](service::Executor) implementation (the paper catalog
//! executor lives in `pvc-report`, which also wires the `reproduce
//! serve` / `reproduce query` frontends). Because execution is
//! deterministic, a stored response and a freshly computed one are
//! byte-identical — the test suites here and in `pvc-report` enforce
//! that end to end.

pub mod batch;
pub mod http;
pub mod request;
pub mod service;
pub mod telemetry;

pub use batch::{Atom, BatchPlan};
pub use http::{After, HttpRequest, HttpResponse};
pub use request::{fnv1a64, Request};
pub use service::{Answer, Executor, ServeConfig, Service, SHUTDOWN_KIND, STATS_KIND};
pub use telemetry::{Anomaly, Outcome, RequestTelemetry, Telemetry};

/// `Service` under its older name; `perfbench/src/traced.rs` is its only caller.
pub type Dispatcher<E> = Service<E>;

/// Typed service-level rejections. Every variant renders as a JSON
/// error envelope (never a panic, never an indefinite block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request line was not a well-formed request object.
    BadRequest(String),
    /// Admission control shed the request: the bounded queue was full.
    Overloaded {
        /// The configured queue depth that was exceeded.
        depth: usize,
    },
    /// The request's deterministic cost estimate exceeded its budget.
    DeadlineExceeded {
        /// Estimated cost of the request in abstract cost units.
        cost: u64,
        /// The budget it had to fit in.
        budget: u64,
    },
    /// The executor failed while computing the response.
    Failed(String),
}

impl ServeError {
    /// Stable machine-readable discriminant used in error envelopes.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::DeadlineExceeded { .. } => "deadline_exceeded",
            ServeError::Failed(_) => "failed",
        }
    }

    /// The error as a JSON object (the `error` field of an envelope).
    /// A `detail` longer than [`DETAIL_CAP`] bytes is clipped on a char
    /// boundary and ends in `…`: it may quote client input, which the
    /// envelope's `request` echo already carries in full.
    pub fn to_json(&self) -> pvc_core::Json {
        use pvc_core::Json;
        let mut pairs = vec![("kind", Json::str(self.kind()))];
        match self {
            ServeError::BadRequest(msg) | ServeError::Failed(msg) => {
                pairs.push(("detail", Json::Str(clip_detail(msg))));
            }
            ServeError::Overloaded { depth } => {
                pairs.push(("queue_depth", Json::Int(*depth as i64)));
            }
            ServeError::DeadlineExceeded { cost, budget } => {
                pairs.push(("cost", Json::Int(*cost as i64)));
                pairs.push(("budget", Json::Int(*budget as i64)));
            }
        }
        Json::obj(pairs)
    }
}

/// The most bytes of an error envelope's `detail`, `…` included.
pub const DETAIL_CAP: usize = 8 * 1024;

fn clip_detail(msg: &str) -> String {
    if msg.len() <= DETAIL_CAP {
        return msg.to_string();
    }
    let mut end = DETAIL_CAP - '…'.len_utf8();
    while !msg.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &msg[..end])
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Overloaded { depth } => {
                write!(f, "overloaded: queue depth {depth} exceeded")
            }
            ServeError::DeadlineExceeded { cost, budget } => {
                write!(f, "deadline exceeded: cost {cost} > budget {budget}")
            }
            ServeError::Failed(msg) => write!(f, "execution failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_core::Json;

    #[test]
    fn long_details_clip_on_a_char_boundary() {
        let detail = |msg: String| match ServeError::BadRequest(msg).to_json().get("detail") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("no detail: {other:?}"),
        };
        let short = "é".repeat(100);
        assert_eq!(detail(short.clone()), short);
        // Two-byte chars put the cut inside one on either parity.
        for pad in ["", "x"] {
            let clipped = detail(format!("{pad}{}", "é".repeat(DETAIL_CAP)));
            assert!(clipped.len() <= DETAIL_CAP, "{}", clipped.len());
            assert!(clipped.len() > DETAIL_CAP - 8);
            assert!(clipped.ends_with('…'));
        }
    }
}
