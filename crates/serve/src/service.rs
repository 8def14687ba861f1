//! The service: the [`Executor`] contract, the [`ServeConfig`] knobs,
//! and the batching, caching [`Service`] itself.
//!
//! One call to [`Service::handle_batch`] processes one admitted batch
//! deterministically:
//!
//! 1. malformed inputs are answered with `bad_request` envelopes;
//! 2. reserved `stats` introspection requests are intercepted — they
//!    consume no queue slot and are answered from the service's own
//!    metrics after the rest of the batch resolves; the reserved
//!    `shutdown` kind is acknowledged immediately and latches the
//!    [`Service::shutdown_requested`] flag frontends poll to exit
//!    their accept loops gracefully;
//! 3. the LRU cache is probed — hits are answered immediately and
//!    consume **no** queue slot, so a warm cache keeps serving under
//!    overload;
//! 4. when a persistent [`pvc_store::Store`] is attached
//!    ([`Service::attach_store`]), it is probed next: a store hit is
//!    answered from disk, **promoted into the LRU**, and consumes no
//!    queue slot either;
//! 5. identical in-flight requests are collapsed (single-flight) onto
//!    one computation;
//! 6. the request decomposes into atoms ([`Executor::atoms`]); one the
//!    executor cannot plan is the client's mistake, answered
//!    `bad_request` without a queue slot or a per-kind metric;
//! 7. the bounded queue admits at most `queue_depth` unique
//!    computations; the rest are shed with a typed
//!    [`ServeError::Overloaded`];
//! 8. each admitted request's deterministic cost estimate must fit its
//!    budget (request `budget` field, else the configured default) or
//!    it is rejected with [`ServeError::DeadlineExceeded`];
//! 9. overlapping sweep atoms of the admitted requests coalesce
//!    ([`BatchPlan`]), and the unique atoms execute in parallel on
//!    [`pvc_core::par`];
//! 10. atom results merge back per request in index order, then each
//!     response is committed (disk store, then LRU) and fanned out to
//!     every waiter in input order.
//!
//! Every step resolves to a typed [`Outcome`], which is the single
//! source of truth for the `serve.*` counter spelling and — when a
//! [`Telemetry`] handle is attached — the per-request access-log
//! record and flight-recorder entry.
//!
//! Because every executor is deterministic, a response served from any
//! tier is byte-identical to one computed fresh — only the counters can
//! tell them apart.

use crate::batch::{Atom, BatchPlan};
use crate::cache::ResultCache;
use crate::request::Request;
use crate::telemetry::{Outcome, RequestTelemetry, Telemetry};
use crate::ServeError;
use pvc_core::{par, Json};
use pvc_obs::Metrics;
use std::cell::{Cell, RefCell};

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
    /// LRU cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Budget applied when a request carries no `budget` field.
    pub default_budget: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 32,
            cache_capacity: 64,
            default_budget: 64,
        }
    }
}

/// The batching, caching query service around an [`Executor`]: one LRU,
/// one optional disk tier and one bounded admission queue. Every
/// frontend (stdin, HTTP) is a thin adapter over this one type.
pub struct Service<E> {
    cfg: ServeConfig,
    exec: E,
    cache: RefCell<ResultCache>,
    /// The persistent second tier, probed on LRU misses.
    store: RefCell<Option<pvc_store::Store>>,
    metrics: Metrics,
    telemetry: Telemetry,
    shutdown: Cell<bool>,
}

enum Slot {
    /// Answered already (error, cache hit, or shutdown ack).
    Done(Json),
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
    /// A service over `exec` with the given knobs. Telemetry starts
    /// disabled; attach a recorder with [`Service::set_telemetry`].
    pub fn new(exec: E, cfg: ServeConfig) -> Self {
        Service {
            cache: RefCell::new(ResultCache::new(cfg.cache_capacity)),
            cfg,
            exec,
            store: RefCell::new(None),
            metrics: Metrics::new(),
            telemetry: Telemetry::disabled(),
            shutdown: Cell::new(false),
        }
    }

    /// The service's metrics registry (`serve.*` counters and gauges).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Attaches `store` as the persistent second tier (probe order
    /// LRU → store → compute) and exports the open report through the
    /// metrics: `store.open.records` (valid prefix loaded),
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
        *self.store.get_mut() = Some(store);
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

    /// Records in the attached store (0 when none).
    pub fn store_len(&self) -> usize {
        self.store.borrow().as_ref().map_or(0, pvc_store::Store::len)
    }

    /// Attaches a telemetry recorder (access log + flight recorder).
    pub fn set_telemetry(&mut self, t: Telemetry) {
        self.telemetry = t;
    }

    /// The attached telemetry handle.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
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

    /// Serves one frontend line, the protocol the stdin loop and
    /// `POST /query` share: a request object is answered with one
    /// envelope, a JSON array is served as one batch and answered with
    /// one array of envelopes (a malformed array with a one-element
    /// array holding the `bad_request` envelope).
    pub fn handle_line(&self, line: &str) -> Json {
        let line = line.trim();
        match pvc_core::json::parse(line) {
            Ok(Json::Arr(items)) => {
                Json::Arr(self.handle_batch(items.into_iter().map(Request::from_json).collect()))
            }
            parsed => {
                let input = parsed
                    .map_err(|e| ServeError::BadRequest(e.to_string()))
                    .and_then(Request::from_json);
                let mut envelopes = self.handle_batch(vec![input]);
                if line.starts_with('[') {
                    Json::Arr(envelopes)
                } else {
                    envelopes.remove(0)
                }
            }
        }
    }

    /// Serves one batch of parsed requests (parse failures included, so
    /// their envelopes stay in position). Never panics, never blocks
    /// indefinitely: every input gets exactly one envelope.
    pub fn handle_batch(&self, inputs: Vec<Result<Request, ServeError>>) -> Vec<Json> {
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
                    slots.push(Slot::Done(err_envelope(None, e)));
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
                    kind: request_kind(req),
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
        // atom order (cache hits re-run nothing, so they add none).
        for (atom, result) in atoms.iter().zip(&atom_results) {
            if let Ok(body) = result {
                for (name, n) in self.exec.work_counters(atom, body) {
                    self.metrics.count(&name, n);
                }
            }
        }

        // Assemble one envelope per unique computation and commit it
        // (disk store, then LRU).
        let mut outcomes: Vec<Json> = Vec::with_capacity(unique.len());
        let mut unique_failed: Vec<bool> = Vec::with_capacity(unique.len());
        for (u, req) in unique.iter().enumerate() {
            let body = plan.assignments[u]
                .iter()
                .map(|&a| atom_results[a].clone())
                .collect::<Result<Vec<Json>, String>>()
                .and_then(|parts| self.exec.assemble(req, parts));
            match body {
                Ok(body) => {
                    self.commit(req, &body);
                    outcomes.push(ok_envelope(req, body));
                    unique_failed.push(false);
                }
                Err(msg) => {
                    self.metrics.count(Outcome::Failed.as_metric_name(), 1);
                    outcomes.push(err_envelope(Some(req), &ServeError::Failed(msg)));
                    unique_failed.push(true);
                }
            }
        }
        self.metrics.gauge("serve.cache.entries", self.cache_len() as f64);
        if let Some(store) = self.store.borrow().as_ref() {
            self.metrics.gauge("store.entries", store.len() as f64);
        }

        // Record telemetry for every non-stats input, in input order,
        // before the stats body is built — so a stats request in the
        // same batch already sees this batch in the flight recorder.
        let mut stats_records = Vec::new();
        for (i, (mut record, waiting)) in pending.into_iter().enumerate() {
            if record.outcome == Outcome::Stats {
                stats_records.push((i, record));
                continue;
            }
            match waiting {
                Some(u) if unique_failed[u] => record.outcome = Outcome::Failed,
                Some(u) => record.atoms = Some(plan.assignments[u].len() as u64),
                None => {}
            }
            let envelope = match &slots[i] {
                Slot::Done(env) => env,
                Slot::Waiting(u) => &outcomes[*u],
                Slot::Stats => unreachable!("stats recorded below"),
            };
            let text = inputs[i].as_ref().ok().map(|r| r.text());
            self.telemetry.record(record, text, envelope);
        }

        // Answer stats requests last: one body reflecting the whole
        // batch, shared by every stats input, never cached.
        let stats_body = slots
            .iter()
            .any(|s| matches!(s, Slot::Stats))
            .then(|| self.stats_body());

        let responses: Vec<Json> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| match s {
                Slot::Done(env) => env.clone(),
                Slot::Waiting(u) => outcomes[*u].clone(),
                Slot::Stats => {
                    let req = inputs[i].as_ref().expect("stats slots carry a request");
                    ok_envelope(req, stats_body.clone().expect("built above"))
                }
            })
            .collect();

        for (i, record) in stats_records {
            let text = inputs[i].as_ref().ok().map(|r| r.text());
            self.telemetry.record(record, text, &responses[i]);
        }

        responses
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
        if request_kind(req) == STATS_KIND {
            slots.push(Slot::Stats);
            return Outcome::Stats;
        }
        if request_kind(req) == SHUTDOWN_KIND {
            self.shutdown.set(true);
            let ack = Json::obj(vec![("shutting_down", Json::Bool(true))]);
            slots.push(Slot::Done(ok_envelope(req, ack)));
            return Outcome::Shutdown;
        }
        if let Some((body, outcome)) = self.probe(req) {
            slots.push(Slot::Done(ok_envelope(req, body)));
            return outcome;
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
                slots.push(Slot::Done(err_envelope(Some(req), &ServeError::BadRequest(msg))));
                return Outcome::BadRequest;
            }
        };
        if unique.len() >= self.cfg.queue_depth {
            let e = ServeError::Overloaded { depth: self.cfg.queue_depth };
            slots.push(Slot::Done(err_envelope(Some(req), &e)));
            return Outcome::Overload;
        }
        let cost = self.exec.cost(req);
        let budget = req.budget().unwrap_or(self.cfg.default_budget);
        if cost > budget {
            let e = ServeError::DeadlineExceeded { cost, budget };
            slots.push(Slot::Done(err_envelope(Some(req), &e)));
            return Outcome::Deadline;
        }
        slots.push(Slot::Waiting(unique.len()));
        unique.push((req.clone(), atoms));
        Outcome::Miss
    }

    /// Probes the tiers in order: LRU, then disk. A store hit is
    /// promoted into the LRU so the next identical request stays in
    /// memory; an LRU hit never touches disk. `None` means compute.
    fn probe(&self, req: &Request) -> Option<(Json, Outcome)> {
        let mut cache = self.cache.borrow_mut();
        if let Some(body) = cache.get(req.key(), req.text()) {
            return Some((body, Outcome::Hit));
        }
        let store = self.store.borrow();
        let Some(bytes) = store.as_ref()?.get(req.key(), req.text()) else {
            self.metrics.count("serve.store.miss", 1);
            return None;
        };
        let Some(body) = parse_stored_body(bytes) else {
            // A record that frames correctly but does not parse as
            // JSON: degrade to recompute, count it.
            self.metrics.count("serve.store.bad_value", 1);
            return None;
        };
        let evicted = cache.insert(req.key(), req.text(), body.clone());
        self.metrics.count("serve.cache.evict", evicted as u64);
        Some((body, Outcome::StoreHit))
    }

    /// Commits a freshly computed response: persists it to the disk
    /// tier (when one is attached), then inserts it into the LRU. The
    /// stored bytes are the compact body, so a later store hit
    /// re-parses to byte-identical JSON.
    fn commit(&self, req: &Request, body: &Json) {
        if let Some(store) = self.store.borrow_mut().as_mut() {
            match store.put(req.key(), req.text(), body.compact().as_bytes()) {
                Ok(true) => self.metrics.count("serve.store.write", 1),
                Ok(false) => {}
                // An append failure (disk full, permissions) degrades
                // to serving without persistence.
                Err(_) => self.metrics.count("serve.store.write_error", 1),
            }
        }
        let evicted = self.cache.borrow_mut().insert(req.key(), req.text(), body.clone());
        self.metrics.count("serve.cache.evict", evicted as u64);
    }

    /// Records `cost` into the per-kind virtual-cost histogram
    /// (`serve.cost.<kind>`), declaring it on first use.
    fn observe_cost(&self, req: &Request, cost: u64) {
        let name = format!("serve.cost.{}", request_kind(req));
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

/// The request's `kind` field (guaranteed present by request parsing).
fn request_kind(req: &Request) -> String {
    match req.canon().get("kind") {
        Some(Json::Str(k)) => k.clone(),
        _ => "?".to_string(),
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

/// Decodes a stored record back into a response body. Stored values are
/// the compact JSON bytes of the body; parsing preserves key order, so
/// re-serialisation reproduces the original bytes exactly.
fn parse_stored_body(bytes: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(bytes).ok()?;
    pvc_core::json::parse(text).ok()
}

/// Success envelope: content address, normalised request, result body.
fn ok_envelope(req: &Request, body: Json) -> Json {
    Json::obj(vec![
        ("key", Json::str(req.key_hex())),
        ("request", req.canon().clone()),
        ("result", body),
    ])
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
