//! The service: the [`Executor`] contract, the [`ServeConfig`] knobs,
//! and the batching, caching [`Service`] itself.
//!
//! One call to [`Service::answer_batch`] processes one admitted batch
//! deterministically:
//!
//! 1. malformed inputs are answered with `bad_request` envelopes;
//! 2. reserved `stats` introspection requests are intercepted — they
//!    consume no queue slot and are answered from the service's own
//!    metrics after the rest of the batch resolves; the reserved
//!    `shutdown` kind is acknowledged immediately and latches the
//!    [`Service::shutdown_requested`] flag frontends poll to exit
//!    their accept loops gracefully;
//! 3. the service's one [`pvc_store::Store`] is probed — a hit is
//!    spliced from the stored bytes and consumes **no** queue slot, so
//!    a warm store keeps serving under overload;
//! 4. identical in-flight requests are collapsed (single-flight) onto
//!    one computation;
//! 5. the request decomposes into atoms ([`Executor::atoms`]); one the
//!    executor cannot plan is the client's mistake, answered
//!    `bad_request` without a queue slot or a per-kind metric;
//! 6. the bounded queue admits at most `queue_depth` unique
//!    computations; the rest are shed with a typed
//!    [`ServeError::Overloaded`];
//! 7. each admitted request's deterministic cost estimate must fit its
//!    budget (request `budget` field, else the configured default) or
//!    it is rejected with [`ServeError::DeadlineExceeded`];
//! 8. overlapping sweep atoms of the admitted requests coalesce
//!    ([`BatchPlan`]), and the unique atoms execute in parallel on
//!    [`pvc_core::par`];
//! 9. atom results merge back per request in index order; each body is
//!    rendered once, committed to the store, and its envelope spliced
//!    from those bytes is fanned out to every waiter in input order.
//!
//! Every step resolves to a typed [`Outcome`], which is the single
//! source of truth for the `serve.*` counter spelling and — when a
//! [`Telemetry`] handle is attached — the per-request access-log
//! record and flight-recorder entry.
//!
//! Because every executor is deterministic, a response served from the
//! store is byte-identical to one computed fresh — only the counters
//! can tell them apart.

use crate::batch::{Atom, BatchPlan};
use crate::request::Request;
use crate::telemetry::{Outcome, RequestTelemetry, Telemetry};
use crate::ServeError;
use pvc_core::{par, Json};
use pvc_obs::Metrics;
use std::cell::{Cell, RefCell};
use std::ops::Range;

/// The reserved introspection request kind answered by the service
/// itself (never forwarded to the executor, never cached).
pub const STATS_KIND: &str = "stats";

/// The reserved graceful-shutdown request kind: acknowledged with a
/// `{"shutting_down":true}` result and latched on the service so
/// frontends can drain and exit their accept loops. Never forwarded to
/// the executor, never cached, consumes no queue slot.
pub const SHUTDOWN_KIND: &str = "shutdown";

/// Virtual-cost histogram bucket bounds: powers of two covering the
/// catalog's cost range (1 .. default budget and beyond).
const COST_BOUNDS: [f64; 11] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

/// What a request means: decomposition into simulation passes and
/// reassembly of their results. Implementations must be deterministic —
/// equal atoms must always produce byte-identical results.
pub trait Executor: Sync {
    /// Deterministic cost estimate in abstract units, compared against
    /// the request's budget at admission time.
    fn cost(&self, req: &Request) -> u64;

    /// Decomposes `req` into ≥ 1 atoms. Equal atom ids across requests
    /// coalesce into one execution per batch. Called at admission,
    /// before the queue and budget checks: an `Err` means the request
    /// itself is at fault (unknown kind, name or field) and is answered
    /// as a `bad_request`.
    fn atoms(&self, req: &Request) -> Result<Vec<Atom>, String>;

    /// Executes one atom (called from worker threads; must be pure).
    fn execute_atom(&self, atom: &Atom) -> Result<Json, String>;

    /// Reassembles the response body from the request's atom results,
    /// in the order [`Executor::atoms`] returned them.
    fn assemble(&self, req: &Request, parts: Vec<Json>) -> Result<Json, String>;

    /// Work counters to merge into the service metrics after `atom`
    /// executed successfully with `result` — the hook that surfaces
    /// solver effort (`simrt.*`) in the service's stats snapshot.
    /// Must be a pure function of the atom and its result so cached
    /// and recomputed paths stay byte-identical. Default: none.
    fn work_counters(&self, _atom: &Atom, _result: &Json) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum unique computations admitted per batch; the rest shed.
    pub queue_depth: usize,
    /// Budget applied when a request carries no `budget` field.
    pub default_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 32,
            default_budget: 64,
        }
    }
}

/// One answered request: its envelope as one compact JSON line.
#[derive(Debug, Clone)]
pub struct Answer {
    line: String,
    /// Where the `result` body sits in `line`; `None` for an error
    /// envelope.
    result: Option<Range<usize>>,
}

impl Answer {
    /// The `ok` envelope spliced around `body`, the result's compact
    /// bytes: `{"key":…,"request":<canonical request>,"result":<body>}`.
    /// The same bytes `compact()` renders for that envelope as a tree.
    fn ok(req: &Request, body: &str) -> Answer {
        let key = req.key_hex();
        let request = req.canon().compact();
        let mut line = String::with_capacity(key.len() + request.len() + body.len() + 32);
        line.push_str("{\"key\":\"");
        line.push_str(&key);
        line.push_str("\",\"request\":");
        line.push_str(&request);
        line.push_str(",\"result\":");
        let start = line.len();
        line.push_str(body);
        let result = Some(start..line.len());
        line.push('}');
        Answer { line, result }
    }

    /// An error envelope (see [`err_envelope`]), rendered.
    fn error(envelope: &Json) -> Answer {
        Answer { line: envelope.compact(), result: None }
    }

    /// The envelope line (compact JSON, no trailing newline).
    pub fn line(&self) -> &str {
        &self.line
    }

    /// The envelope line, owned.
    pub fn into_line(self) -> String {
        self.line
    }

    /// The `result` body's compact JSON bytes; `None` when the request
    /// was refused or failed.
    pub fn result(&self) -> Option<&str> {
        self.result.clone().map(|r| &self.line[r])
    }

    /// The envelope as a JSON tree (a parse of [`Answer::line`]). A
    /// stored body is served as it was stored; should one not parse
    /// (a forged store file), the tree is a `failed` envelope instead.
    pub fn to_json(&self) -> Json {
        pvc_core::json::parse(&self.line).unwrap_or_else(|e| {
            err_envelope(None, &ServeError::Failed(format!("stored result is not JSON: {e}")))
        })
    }
}

/// The batching, caching query service around an [`Executor`]: one
/// result store and one bounded admission queue. Every frontend
/// (stdin, HTTP) is a thin adapter over this one type.
pub struct Service<E> {
    cfg: ServeConfig,
    exec: E,
    /// The one cache tier: the `--store` file when attached, else an
    /// in-memory store. Every computed answer is kept.
    store: RefCell<pvc_store::Store>,
    metrics: Metrics,
    telemetry: Telemetry,
    shutdown: Cell<bool>,
}

enum Slot {
    /// Answered already: a store hit or the shutdown ack, or the error
    /// envelope of a request refused before admission.
    Done(Result<Answer, Json>),
    /// Waiting on unique computation `u`.
    Waiting(usize),
    /// A reserved stats request, answered after the batch resolves.
    Stats,
}

/// The record of a request answered `bad_request` before admission:
/// it parsed (`key`) or not, but either way it has no cost and no queue
/// slot, and its kind records as `?` because a client-chosen kind must
/// not name anything the service keeps.
fn rejected(key: Option<String>) -> RequestTelemetry {
    RequestTelemetry {
        seq: 0,
        kind: "?".to_string(),
        key,
        outcome: Outcome::BadRequest,
        cost: None,
        budget: None,
        queue_depth: None,
        atoms: None,
        chaos: None,
    }
}

impl<E: Executor> Service<E> {
    /// A service over `exec` with the given knobs and an in-memory
    /// store. Telemetry starts disabled; attach a recorder with
    /// [`Service::set_telemetry`].
    pub fn new(exec: E, cfg: ServeConfig) -> Self {
        Service {
            cfg,
            exec,
            store: RefCell::new(pvc_store::Store::in_memory()),
            metrics: Metrics::new(),
            telemetry: Telemetry::disabled(),
            shutdown: Cell::new(false),
        }
    }

    /// The service's metrics registry (`serve.*` counters and gauges).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Replaces the service's store with `store` (the `--store` file)
    /// and exports the open report through the metrics:
    /// `store.open.records` (valid prefix loaded),
    /// `store.open.invalidated` (stale fingerprint reset the store),
    /// `store.open.tail_corrupt` / `store.open.dropped_bytes` (torn or
    /// bit-flipped tail truncated away), and the `store.entries` gauge.
    pub fn attach_store(&mut self, store: pvc_store::Store, report: &pvc_store::OpenReport) {
        self.metrics.count("store.open.records", report.records as u64);
        if report.invalidated() {
            self.metrics.count("store.open.invalidated", 1);
        }
        if report.tail_corrupt() {
            self.metrics.count("store.open.tail_corrupt", 1);
            self.metrics.count("store.open.dropped_bytes", report.dropped_bytes);
        }
        self.metrics.gauge("store.entries", store.len() as f64);
        *self.store.get_mut() = store;
    }

    /// `attach_store` under its older name; `perfbench/src/traced.rs` is its only caller.
    #[doc(hidden)]
    pub fn attach_shard_store(
        &mut self,
        shard: usize,
        store: pvc_store::Store,
        report: &pvc_store::OpenReport,
    ) {
        assert_eq!(shard, 0, "a service has one store");
        self.attach_store(store, report);
    }

    /// Records in the service's store.
    pub fn store_len(&self) -> usize {
        self.store.borrow().len()
    }

    /// Attaches a telemetry recorder (access log + flight recorder).
    pub fn set_telemetry(&mut self, t: Telemetry) {
        self.telemetry = t;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The executor (for frontends that need catalog introspection).
    pub fn executor(&self) -> &E {
        &self.exec
    }

    /// True once a reserved `shutdown` request was acknowledged; sticky
    /// — frontends poll this after each batch to drain and exit.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.get()
    }

    /// Parses and serves one line-delimited batch; one response
    /// envelope per input line, in order.
    pub fn handle_lines(&self, lines: &[&str]) -> Vec<Json> {
        self.handle_batch(lines.iter().map(|l| Request::parse(l)).collect())
    }

    /// [`Service::answer_batch`] with each envelope parsed into a tree.
    pub fn handle_batch(&self, inputs: Vec<Result<Request, ServeError>>) -> Vec<Json> {
        self.answer_batch(inputs).iter().map(Answer::to_json).collect()
    }

    /// Serves one frontend line, the protocol the stdin loop and
    /// `POST /query` share, and returns the compact answer line: a
    /// request object is answered with one envelope, a JSON array is
    /// served as one batch and answered with one array of envelopes (a
    /// malformed array with a one-element array holding the
    /// `bad_request` envelope).
    pub fn handle_line(&self, line: &str) -> String {
        let line = line.trim();
        match pvc_core::json::parse(line) {
            Ok(Json::Arr(items)) => {
                array_line(self.answer_batch(items.into_iter().map(Request::from_json).collect()))
            }
            parsed => {
                let input = parsed
                    .map_err(|e| ServeError::BadRequest(e.to_string()))
                    .and_then(Request::from_json);
                let mut answers = self.answer_batch(vec![input]);
                if line.starts_with('[') {
                    array_line(answers)
                } else {
                    answers.remove(0).into_line()
                }
            }
        }
    }

    /// Serves one batch of parsed requests (parse failures included, so
    /// their envelopes stay in position). Never panics, never blocks
    /// indefinitely: every input gets exactly one answer.
    pub fn answer_batch(&self, inputs: Vec<Result<Request, ServeError>>) -> Vec<Answer> {
        self.metrics.count("serve.requests", inputs.len() as u64);
        let recording = self.telemetry.enabled();
        let mut slots: Vec<Slot> = Vec::with_capacity(inputs.len());
        // One record per input while recording, with the unique
        // computation it waits on: its outcome and atom count are
        // patched once that computation resolves.
        let mut pending: Vec<(RequestTelemetry, Option<usize>)> = Vec::new();
        // Unique admitted computations and their atoms, in arrival order.
        let mut unique: Vec<(Request, Vec<Atom>)> = Vec::new();
        for input in &inputs {
            let req = match input {
                Ok(r) => r,
                Err(e) => {
                    self.metrics.count(Outcome::BadRequest.as_metric_name(), 1);
                    slots.push(Slot::Done(Err(err_envelope(None, e))));
                    if recording {
                        pending.push((rejected(None), None));
                    }
                    continue;
                }
            };
            let depth = unique.len() as u64;
            let outcome = self.admit(req, &mut unique, &mut slots);
            self.metrics.count(outcome.as_metric_name(), 1);
            if recording && outcome == Outcome::BadRequest {
                pending.push((rejected(Some(req.key_hex())), None));
            } else if recording {
                let reserved = matches!(outcome, Outcome::Stats | Outcome::Shutdown);
                let cost = if reserved {
                    None
                } else {
                    // Pure and deterministic, so observing the cost of
                    // hits and shed requests perturbs nothing.
                    Some(self.exec.cost(req))
                };
                if let Some(c) = cost {
                    self.observe_cost(req, c);
                }
                let record = RequestTelemetry {
                    seq: 0,
                    kind: req.kind().to_string(),
                    key: Some(req.key_hex()),
                    outcome,
                    cost,
                    budget: (!reserved).then(|| req.budget().unwrap_or(self.cfg.default_budget)),
                    queue_depth: (!reserved).then_some(depth),
                    atoms: None,
                    // A stats record never names a chaos spec.
                    chaos: if outcome == Outcome::Stats { None } else { request_chaos(req) },
                };
                let waiting = match slots.last() {
                    Some(Slot::Waiting(u)) => Some(*u),
                    _ => None,
                };
                pending.push((record, waiting));
            }
        }

        // Admitted queue depth for this batch, visible in `/metrics`.
        self.metrics.gauge("serve.queue.depth", unique.len() as f64);

        let (unique, planned): (Vec<Request>, Vec<Vec<Atom>>) = unique.into_iter().unzip();
        let plan = BatchPlan::build(planned);
        self.metrics
            .count("serve.atoms.requested", plan.atoms_requested as u64);
        self.metrics.count("serve.atoms.executed", plan.atoms.len() as u64);

        // One parallel pass over the unique atoms.
        let exec = &self.exec;
        let atoms = &plan.atoms;
        let atom_results: Vec<Result<Json, String>> =
            par::map_collect(atoms.len(), |i| exec.execute_atom(&atoms[i]));

        // Merge executor-reported work counters on the main thread, in
        // atom order (store hits re-run nothing, so they add none).
        for (atom, result) in atoms.iter().zip(&atom_results) {
            if let Ok(body) = result {
                for (name, n) in self.exec.work_counters(atom, body) {
                    self.metrics.count(&name, n);
                }
            }
        }

        // Assemble one answer per unique computation, committing each
        // computed body to the store.
        let outcomes: Vec<Result<Answer, Json>> = unique
            .iter()
            .enumerate()
            .map(|(u, req)| {
                plan.assignments[u]
                    .iter()
                    .map(|&a| atom_results[a].clone())
                    .collect::<Result<Vec<Json>, String>>()
                    .and_then(|parts| self.exec.assemble(req, parts))
                    .map(|body| self.commit(req, &body))
                    .map_err(|msg| {
                        self.metrics.count(Outcome::Failed.as_metric_name(), 1);
                        err_envelope(Some(req), &ServeError::Failed(msg))
                    })
            })
            .collect();
        self.metrics.gauge("store.entries", self.store_len() as f64);

        // Record telemetry for every non-stats input, in input order,
        // before the stats body is built — so a stats request in the
        // same batch already sees this batch in the flight recorder.
        // Only a refused or failed request's envelope is kept (as the
        // pinned anomaly), so an ok answer passes `Json::Null`.
        let mut stats_records = Vec::new();
        for (i, (mut record, waiting)) in pending.into_iter().enumerate() {
            if record.outcome == Outcome::Stats {
                stats_records.push((i, record));
                continue;
            }
            match waiting {
                Some(u) if outcomes[u].is_err() => record.outcome = Outcome::Failed,
                Some(u) => record.atoms = Some(plan.assignments[u].len() as u64),
                None => {}
            }
            let refused = match &slots[i] {
                Slot::Done(done) => done.as_ref().err(),
                Slot::Waiting(u) => outcomes[*u].as_ref().err(),
                Slot::Stats => unreachable!("stats recorded below"),
            };
            let text = inputs[i].as_ref().ok().map(|r| r.text());
            self.telemetry.record(record, text, refused.unwrap_or(&Json::Null));
        }

        // Answer stats requests last: one body reflecting the whole
        // batch, shared by every stats input, never stored.
        let stats_body = slots
            .iter()
            .any(|s| matches!(s, Slot::Stats))
            .then(|| self.stats_body().compact());

        let answers: Vec<Answer> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| match s {
                Slot::Done(Ok(answer)) => answer,
                Slot::Done(Err(env)) => Answer::error(&env),
                Slot::Waiting(u) => match &outcomes[u] {
                    Ok(answer) => answer.clone(),
                    Err(env) => Answer::error(env),
                },
                Slot::Stats => {
                    let req = inputs[i].as_ref().expect("stats slots carry a request");
                    Answer::ok(req, stats_body.as_deref().expect("built above"))
                }
            })
            .collect();

        for (i, record) in stats_records {
            let text = inputs[i].as_ref().ok().map(|r| r.text());
            self.telemetry.record(record, text, &Json::Null);
        }

        answers
    }

    /// Runs one parsed request through the admission pipeline, pushing
    /// its slot and returning the decision. `Miss` may still become
    /// `Failed` at assembly time.
    fn admit(
        &self,
        req: &Request,
        unique: &mut Vec<(Request, Vec<Atom>)>,
        slots: &mut Vec<Slot>,
    ) -> Outcome {
        if req.kind() == STATS_KIND {
            slots.push(Slot::Stats);
            return Outcome::Stats;
        }
        if req.kind() == SHUTDOWN_KIND {
            self.shutdown.set(true);
            slots.push(Slot::Done(Ok(Answer::ok(req, r#"{"shutting_down":true}"#))));
            return Outcome::Shutdown;
        }
        if let Some(answer) = self.probe(req) {
            slots.push(Slot::Done(Ok(answer)));
            return Outcome::Hit;
        }
        if let Some(u) = unique
            .iter()
            .position(|(p, _)| p.key() == req.key() && p.text() == req.text())
        {
            slots.push(Slot::Waiting(u));
            return Outcome::Dedup;
        }
        let atoms = match self.exec.atoms(req) {
            Ok(atoms) => atoms,
            Err(msg) => {
                slots.push(Slot::Done(Err(err_envelope(Some(req), &ServeError::BadRequest(msg)))));
                return Outcome::BadRequest;
            }
        };
        if unique.len() >= self.cfg.queue_depth {
            let e = ServeError::Overloaded { depth: self.cfg.queue_depth };
            slots.push(Slot::Done(Err(err_envelope(Some(req), &e))));
            return Outcome::Overload;
        }
        let cost = self.exec.cost(req);
        let budget = req.budget().unwrap_or(self.cfg.default_budget);
        if cost > budget {
            let e = ServeError::DeadlineExceeded { cost, budget };
            slots.push(Slot::Done(Err(err_envelope(Some(req), &e))));
            return Outcome::Deadline;
        }
        slots.push(Slot::Waiting(unique.len()));
        unique.push((req.clone(), atoms));
        Outcome::Miss
    }

    /// The one probe: a stored body is spliced into the envelope as it
    /// is, never parsed. `None` means compute.
    fn probe(&self, req: &Request) -> Option<Answer> {
        let store = self.store.borrow();
        let bytes = store.get(req.key(), req.text())?;
        match std::str::from_utf8(bytes) {
            Ok(body) => Some(Answer::ok(req, body)),
            Err(_) => {
                // A record that frames correctly but is not text:
                // degrade to recompute, count it.
                self.metrics.count("serve.store.bad_value", 1);
                None
            }
        }
    }

    /// The one commit: renders a freshly computed body once, stores
    /// those bytes and answers from them. Every computed answer is
    /// kept, so a later identical request is a [`Service::probe`] hit.
    fn commit(&self, req: &Request, body: &Json) -> Answer {
        let bytes = body.compact();
        match self.store.borrow_mut().put(req.key(), req.text(), bytes.as_bytes()) {
            Ok(true) => self.metrics.count("serve.store.write", 1),
            Ok(false) => {}
            // An append failure (disk full, permissions) degrades to
            // serving without persistence.
            Err(_) => self.metrics.count("serve.store.write_error", 1),
        }
        Answer::ok(req, &bytes)
    }

    /// Records `cost` into the per-kind virtual-cost histogram
    /// (`serve.cost.<kind>`), declaring it on first use.
    fn observe_cost(&self, req: &Request, cost: u64) {
        let name = format!("serve.cost.{}", req.kind());
        if !self.metrics.has_histogram(&name) {
            self.metrics.declare_histogram(&name, &COST_BOUNDS);
        }
        self.metrics.record(&name, cost as f64);
    }

    /// The stats snapshot served for a `stats` request: every counter,
    /// every set gauge, p50/p90/p99 + count/sum per declared histogram,
    /// and — when telemetry records — the flight-recorder dump. All
    /// name-sorted, all virtual quantities: byte-deterministic.
    pub fn stats_body(&self) -> Json {
        let counters = Json::Obj(
            self.metrics
                .counters("")
                .into_iter()
                .map(|(n, v)| (n, Json::Int(v as i64)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.metrics
                .gauges("")
                .into_iter()
                .map(|(n, v)| (n, Json::Num(v)))
                .collect(),
        );
        let quantiles = Json::Obj(
            self.metrics
                .histogram_names("")
                .into_iter()
                .map(|n| {
                    let (_, count, sum) =
                        self.metrics.histogram(&n).expect("name just listed");
                    let q = |p: f64| {
                        self.metrics.quantile(&n, p).map_or(Json::Null, Json::Num)
                    };
                    let body = Json::obj(vec![
                        ("count", Json::Int(count as i64)),
                        ("p50", q(0.50)),
                        ("p90", q(0.90)),
                        ("p99", q(0.99)),
                        ("sum", Json::Num(sum)),
                    ]);
                    (n, body)
                })
                .collect(),
        );
        let mut pairs = vec![
            ("counters", counters),
            ("gauges", gauges),
            ("quantiles", quantiles),
        ];
        if self.telemetry.enabled() {
            pairs.push(("flight_recorder", self.telemetry.to_json()));
        }
        Json::obj(pairs).sorted()
    }
}

/// The request's chaos spec, if it carries one.
fn request_chaos(req: &Request) -> Option<String> {
    match req.canon().get("chaos") {
        Some(Json::Str(s)) => Some(s.clone()),
        Some(other) => Some(other.compact()),
        None => None,
    }
}

/// Answers as one compact JSON array line, in order.
fn array_line(answers: Vec<Answer>) -> String {
    let mut line = String::from("[");
    for (i, answer) in answers.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(answer.line());
    }
    line.push(']');
    line
}

/// Error envelope; carries the request context when it parsed.
fn err_envelope(req: Option<&Request>, err: &ServeError) -> Json {
    let mut pairs = Vec::new();
    if let Some(req) = req {
        pairs.push(("key", Json::str(req.key_hex())));
        pairs.push(("request", req.canon().clone()));
    }
    pairs.push(("error", err.to_json()));
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The spliced envelope is the bytes `compact()` renders for the
    /// same envelope built as a tree, key order included.
    #[test]
    fn spliced_ok_envelope_equals_the_rendered_tree() {
        let body = Json::obj(vec![
            ("text", Json::str("line 1\n\"quoted\" é")),
            ("rows", Json::Arr(vec![Json::Int(-3), Json::Num(0.25), Json::Null])),
        ]);
        for doc in [
            r#"{"kind":"table","id":2}"#,
            r#"{"system":"aurora","kind":"run","workload":"stream-triad","budget":9}"#,
            r#"{"kind":"pcie","modes":["h2d","d2h"],"nested":{"b":1,"a":"\u00e9"}}"#,
        ] {
            let req = Request::parse(doc).unwrap();
            let tree = Json::obj(vec![
                ("key", Json::str(req.key_hex())),
                ("request", req.canon().clone()),
                ("result", body.clone()),
            ]);
            let answer = Answer::ok(&req, &body.compact());
            assert_eq!(answer.line(), tree.compact(), "{doc}");
            assert_eq!(answer.result(), Some(body.compact().as_str()));
            assert_eq!(answer.to_json(), tree);
        }
        let refused = err_envelope(None, &ServeError::BadRequest("no".into()));
        assert_eq!(Answer::error(&refused).result(), None);
    }
}
