//! A seeded model check of the whole serving stack: one `Service` over
//! a fake executor, driven through random schedules of sessions and
//! batches, against a plain model of what every answer must be.
//!
//! A schedule is a run of sessions, each one process's lifetime: a
//! fresh service with an in-memory store, or with the one store file
//! reopened — possibly torn at the tail, bit-flipped or written under a
//! foreign fingerprint since the last session. Each session serves a
//! few batches drawn from a small request pool, so batches hold
//! duplicates, chaos and plain variants of one cell, requests over
//! budget and requests the fake fails, under a shallow queue.
//!
//! The oracle is a map from request to its body bytes (or to its
//! failure). The property checks that every `result` is those bytes,
//! every error has its expected class, the store opens with the
//! expected records, each atom executes at most once per batch and only
//! for requests the store does not hold, and `serve.requests` equals
//! the sum of the outcome counters.

use pvc_core::check::{check, Gen};
use pvc_core::{ensure, ensure_eq, Json};
use pvc_serve::{Answer, Atom, Executor, Outcome, Request, ServeConfig, Service};
use pvc_store::{OpenStatus, Store, HEADER_LEN};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Items whose `n % 7 == 3` fail inside the executor.
fn fails(n: i64) -> bool {
    n % 7 == 3
}

/// The fake: deterministic, logs every atom it executes, and fails on
/// the chosen items.
#[derive(Default)]
struct Fake {
    executed: Mutex<Vec<String>>,
}

impl Fake {
    fn take_executed(&self) -> Vec<String> {
        std::mem::take(&mut *self.executed.lock().expect("no test thread panicked"))
    }
}

fn atom_id(n: i64, chaos: Option<&str>) -> String {
    match chaos {
        Some(c) => format!("item:{n}+{c}"),
        None => format!("item:{n}"),
    }
}

impl Executor for Fake {
    fn cost(&self, req: &Request) -> u64 {
        match req.get("cost") {
            Some(Json::Int(c)) => *c as u64,
            _ => 1,
        }
    }

    fn atoms(&self, req: &Request) -> Result<Vec<Atom>, String> {
        let chaos = req.get("chaos").and_then(Json::as_str);
        let atom = |n: i64| {
            let params = Json::obj(vec![
                ("n", Json::Int(n)),
                ("chaos", chaos.map_or(Json::Null, Json::str)),
            ]);
            Atom::new(atom_id(n, chaos), params)
        };
        match (
            req.kind(),
            req.get("n"),
            req.get("ids").and_then(Json::as_array),
        ) {
            ("item", Some(Json::Int(n)), _) => Ok(vec![atom(*n)]),
            ("sweep", _, Some(ids)) => ids
                .iter()
                .map(|id| match id {
                    Json::Int(n) => Ok(atom(*n)),
                    _ => Err("ids must be integers".to_string()),
                })
                .collect(),
            (kind, ..) => Err(format!("unknown kind '{kind}'")),
        }
    }

    fn execute_atom(&self, atom: &Atom) -> Result<Json, String> {
        self.executed
            .lock()
            .expect("no test thread panicked")
            .push(atom.id.clone());
        let Some(Json::Int(n)) = atom.params.get("n") else {
            return Err("atom without n".into());
        };
        if fails(*n) {
            return Err(format!("item {n} fails"));
        }
        let mut pairs = vec![("n", Json::Int(*n)), ("square", Json::Int(n * n))];
        if let Some(Json::Str(c)) = atom.params.get("chaos") {
            pairs.push(("chaos", Json::str(c.clone())));
        }
        Ok(Json::obj(pairs))
    }

    fn assemble(&self, req: &Request, mut parts: Vec<Json>) -> Result<Json, String> {
        Ok(if req.kind() == "item" {
            parts.pop().expect("one atom per item")
        } else {
            Json::Arr(parts)
        })
    }
}

/// What the model knows about one request line.
#[derive(Debug, Clone)]
struct Spec {
    line: String,
    /// `None` for a line the service must refuse as `bad_request`.
    kind: Option<Kind>,
    cost: u64,
    budget: Option<u64>,
}

#[derive(Debug, Clone)]
enum Kind {
    Item { n: i64, chaos: Option<&'static str> },
    Sweep { ids: Vec<i64> },
}

impl Spec {
    /// The oracle: the body's compact bytes, or `None` when it fails.
    fn body(&self) -> Option<String> {
        let item = |n: i64, chaos: Option<&str>| {
            let chaos = chaos.map_or(String::new(), |c| format!(",\"chaos\":\"{c}\""));
            format!("{{\"n\":{n},\"square\":{}{chaos}}}", n * n)
        };
        match self.kind.as_ref()? {
            Kind::Item { n, chaos } => (!fails(*n)).then(|| item(*n, *chaos)),
            Kind::Sweep { ids } => (!ids.iter().any(|&n| fails(n))).then(|| {
                let parts: Vec<String> = ids.iter().map(|&n| item(n, None)).collect();
                format!("[{}]", parts.join(","))
            }),
        }
    }

    fn atoms(&self) -> Vec<String> {
        match &self.kind {
            Some(Kind::Item { n, chaos }) => vec![atom_id(*n, *chaos)],
            Some(Kind::Sweep { ids }) => ids.iter().map(|&n| atom_id(n, None)).collect(),
            _ => Vec::new(),
        }
    }
}

fn gen_spec(g: &mut Gen) -> Spec {
    let cost = *g.choose(&[1u64, 1, 2, 5, 9]);
    let budget = g.bool().then(|| *g.choose(&[4u64, 10]));
    let mut extra = String::new();
    if cost != 1 {
        extra.push_str(&format!(",\"cost\":{cost}"));
    }
    if let Some(b) = budget {
        extra.push_str(&format!(",\"budget\":{b}"));
    }
    let (line, kind) = match g.usize_in(0..10) {
        0..=5 => {
            let n = g.usize_in(0..8) as i64;
            let chaos = match g.usize_in(0..4) {
                0 => Some("hbm:0.5"),
                1 => Some("clock:1.0"),
                _ => None,
            };
            let spec = chaos.map_or(String::new(), |c| format!(",\"chaos\":\"{c}\""));
            (
                format!("{{\"kind\":\"item\",\"n\":{n}{spec}{extra}}}"),
                Some(Kind::Item { n, chaos }),
            )
        }
        6 | 7 => {
            let ids: Vec<i64> = (0..g.usize_in(1..4))
                .map(|_| g.usize_in(0..8) as i64)
                .collect();
            let list: Vec<String> = ids.iter().map(i64::to_string).collect();
            (
                format!("{{\"ids\":[{}],\"kind\":\"sweep\"{extra}}}", list.join(",")),
                Some(Kind::Sweep { ids }),
            )
        }
        // Parses, but the fake cannot plan it.
        8 => (format!("{{\"kind\":\"mystery\"{extra}}}"), None),
        // Does not parse.
        _ => ("{\"kind\":\"item\",".to_string(), None),
    };
    Spec {
        line,
        kind,
        cost,
        budget,
    }
}

/// How the model expects one input to resolve.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    Hit,
    Miss(usize),
    Dedup(usize),
    BadRequest,
    Overload,
    Deadline,
}

/// One frame of the store file, as the model predicts it.
struct Record {
    text: String,
    body: String,
}

impl Record {
    /// Bytes of its frame: key, two lengths, payloads, checksum.
    fn frame_len(&self) -> usize {
        24 + self.text.len() + self.body.len()
    }
}

fn scratch() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pvc-serve-model-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ))
}

struct Cleanup(PathBuf);

impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

const FP: u64 = 0x0d31_c4ec_0000_0001;

/// Damage done to the store file between two sessions.
#[derive(Debug, Clone, Copy)]
enum Tamper {
    None,
    Torn,
    BitFlip,
    Foreign,
}

fn schedule(g: &mut Gen) -> Result<(), String> {
    let path = scratch();
    let _cleanup = Cleanup(path.clone());
    // The records the file holds, in append order, and the fingerprint
    // its header carries (`None` before the file exists).
    let mut persisted: Vec<Record> = Vec::new();
    let mut header: Option<u64> = None;
    for _session in 0..g.usize_in(1..5) {
        let cfg = ServeConfig {
            queue_depth: g.usize_in(1..4),
            default_budget: *g.choose(&[3u64, 6]),
        };
        let mut service = Service::new(Fake::default(), cfg.clone());
        let file_backed = g.bool();
        let mut stored: BTreeSet<String> = BTreeSet::new();
        if file_backed {
            let tamper = *g.choose(&[Tamper::None, Tamper::Torn, Tamper::BitFlip, Tamper::Foreign]);
            let (fingerprint, status, dropped) = match (header, tamper) {
                (None, _) => (FP, OpenStatus::Created, 0),
                (Some(found), _) if found != FP => {
                    persisted.clear();
                    (FP, OpenStatus::Invalidated { found: Some(found) }, 0)
                }
                (Some(found), Tamper::Foreign) => {
                    persisted.clear();
                    (
                        FP ^ 0xdead,
                        OpenStatus::Invalidated { found: Some(found) },
                        0,
                    )
                }
                (_, Tamper::Torn) if !persisted.is_empty() => {
                    let last = persisted.pop().expect("non-empty").frame_len();
                    let cut = g.usize_in(1..last + 1);
                    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                    std::fs::write(&path, &bytes[..bytes.len() - cut])
                        .map_err(|e| e.to_string())?;
                    (FP, OpenStatus::Loaded, (last - cut) as u64)
                }
                (_, Tamper::BitFlip) if !persisted.is_empty() => {
                    let victim = g.usize_in(0..persisted.len());
                    let at = HEADER_LEN
                        + persisted[..victim]
                            .iter()
                            .map(Record::frame_len)
                            .sum::<usize>()
                        + g.usize_in(0..persisted[victim].frame_len());
                    let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
                    ensure!(at < bytes.len(), "model frame offsets past the file end");
                    bytes[at] ^= 1 << g.usize_in(0..8);
                    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
                    let kept: usize = persisted[..victim].iter().map(Record::frame_len).sum();
                    let dropped = (bytes.len() - HEADER_LEN - kept) as u64;
                    persisted.truncate(victim);
                    (FP, OpenStatus::Loaded, dropped)
                }
                _ => (FP, OpenStatus::Loaded, 0),
            };
            let (store, report) = Store::open(&path, fingerprint).map_err(|e| e.to_string())?;
            ensure_eq!(report.status, status);
            ensure_eq!(report.records, persisted.len());
            ensure_eq!(report.dropped_bytes, dropped);
            service.attach_store(store, &report);
            // A reset stamps the opener's fingerprint: after a foreign
            // open, the next open under FP invalidates again.
            header = Some(fingerprint);
            stored.extend(persisted.iter().map(|r| r.text.clone()));
        }
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut bump = |name: &'static str| *counts.entry(name).or_default() += 1;
        for _batch in 0..g.usize_in(1..4) {
            let specs: Vec<Spec> = (0..g.usize_in(1..9)).map(|_| gen_spec(g)).collect();
            // The model's admission pass, in input order.
            let mut queued: Vec<usize> = Vec::new();
            let mut expect = Vec::with_capacity(specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let Ok(req) = Request::parse(&spec.line) else {
                    expect.push(Expect::BadRequest);
                    continue;
                };
                let same =
                    |&&q: &&usize| Request::parse(&specs[q].line).unwrap().text() == req.text();
                expect.push(if stored.contains(req.text()) {
                    Expect::Hit
                } else if let Some(&q) = queued.iter().find(same) {
                    Expect::Dedup(q)
                } else if spec.kind.is_none() {
                    Expect::BadRequest
                } else if queued.len() >= cfg.queue_depth {
                    Expect::Overload
                } else if spec.cost > spec.budget.unwrap_or(cfg.default_budget) {
                    Expect::Deadline
                } else {
                    queued.push(i);
                    Expect::Miss(i)
                });
            }
            let inputs = specs.iter().map(|s| Request::parse(&s.line)).collect();
            let answers: Vec<Answer> = service.answer_batch(inputs);
            ensure_eq!(answers.len(), specs.len());
            for ((spec, expect), answer) in specs.iter().zip(&expect).zip(&answers) {
                let owner = match expect {
                    Expect::Miss(q) | Expect::Dedup(q) => &specs[*q],
                    _ => spec,
                };
                let class = match expect {
                    Expect::Hit => {
                        bump("serve.cache.hit");
                        None
                    }
                    Expect::Miss(_) | Expect::Dedup(_) => {
                        bump(if matches!(expect, Expect::Miss(_)) {
                            "serve.cache.miss"
                        } else {
                            "serve.singleflight.deduped"
                        });
                        owner.body().is_none().then_some("failed")
                    }
                    Expect::BadRequest => {
                        bump("serve.rejected.bad_request");
                        Some("bad_request")
                    }
                    Expect::Overload => {
                        bump("serve.rejected.overload");
                        Some("overloaded")
                    }
                    Expect::Deadline => {
                        bump("serve.rejected.deadline");
                        Some("deadline_exceeded")
                    }
                };
                match class {
                    None => {
                        let body = owner.body();
                        ensure_eq!(answer.result(), body.as_deref());
                    }
                    Some(class) => {
                        ensure!(
                            answer.result().is_none(),
                            "{} answered {}",
                            spec.line,
                            answer.line()
                        );
                        let env =
                            pvc_core::json::parse(answer.line()).map_err(|e| e.to_string())?;
                        let kind = env.get("error").and_then(|e| e.get("kind"));
                        ensure_eq!(kind.and_then(Json::as_str), Some(class));
                    }
                }
            }
            // Each atom of the admitted computations ran exactly once;
            // nothing ran for hits, dedups or refusals.
            let mut ran = service.executor().take_executed();
            ran.sort();
            let mut want: Vec<String> = queued.iter().flat_map(|&q| specs[q].atoms()).collect();
            want.sort();
            want.dedup();
            ensure_eq!(ran, want);
            for &q in &queued {
                let text = Request::parse(&specs[q].line).unwrap().text().to_string();
                match specs[q].body() {
                    Some(body) => {
                        bump("serve.store.write");
                        stored.insert(text.clone());
                        if file_backed {
                            persisted.push(Record { text, body });
                        }
                    }
                    None => bump("serve.failed"),
                }
            }
        }
        let m = service.metrics();
        for (name, want) in &counts {
            ensure_eq!((name, m.counter(name)), (name, *want));
        }
        let outcomes: u64 = Outcome::ALL
            .iter()
            .filter(|o| **o != Outcome::Failed)
            .map(|o| m.counter(o.as_metric_name()))
            .sum();
        ensure_eq!(m.counter("serve.requests"), outcomes);
        ensure_eq!(service.store_len(), stored.len());
    }
    Ok(())
}

/// `serve.failed` counts computations that an admitted `miss` already
/// counted, so it is the one outcome counter left out of the balance.
#[test]
fn serving_stack_matches_its_model() {
    std::env::set_var("PVC_THREADS", "2");
    check("serving_stack_matches_its_model", 48, schedule);
}
