//! `reproduce` — regenerates every table and figure of the paper.
//!
//! Usage:
//! ```text
//! reproduce [table1..table6|fig1..fig4|scaling|ablations|devices|json|all]
//! reproduce [experiments|charts|rooflines|energy|fabric|conformance|validate|list]
//! reproduce csv [dir]
//! reproduce run <workload> <system>
//! reproduce chaos <workload> <system> <spec>
//! reproduce profile <workload> [outfile]
//! reproduce query [--stats] [--rounds N] [--queue-depth N] [--store PATH] [--access-log PATH] <request.json>...
//! reproduce serve [--stats] [--queue-depth N] [--store PATH] [--http ADDR] [--access-log PATH]
//! reproduce stats [--rounds N] [--queue-depth N] [--store PATH] [--access-log PATH] [request.json...]
//! reproduce warm [--store PATH] [--verify]
//! ```
//! Every artifact verb (`table1`…`table6`, `fig1`…`fig4`, `scaling`,
//! `ablations`, `devices`, `json`, `experiments`, `charts`,
//! `rooflines`, `energy`, `fabric`, `conformance`, `list` and `all`) is
//! a catalog request: it looks its rows up with
//! [`pvc_report::serve::verb_rows`] and serves them through one catalog
//! service, so it prints exactly what `query` and `serve` answer. `all`,
//! the default with no argument, prints every table and figure and the
//! experiment record. `conformance` exits 1 when a published value is
//! outside its bound.
//!
//! The verbs that take arguments are served requests too, through
//! [`pvc_report::serve::serve_requests`]. `run` prints the `text` of
//! `{"kind":"run","workload":W,"system":S}`: the typed outcome. `chaos`
//! prints the `text` of `{"kind":"chaos",…,"chaos":SPEC}`: the cell run
//! twice — healthy and under a '+'-joined fault-spec overlay (e.g.
//! `xelink:0:0`, `pcie:3x8+clock:1.0`) — with the FOM delta and the
//! bottleneck of each run; it exits 1 when the degraded run beats the
//! baseline. `validate` prints the `conformance` verdict line and
//! exits 1 when conformance refuses (a check outside its bound, its
//! failures on stderr). `profile` serves `profile` and `trace` for one
//! workload on one simulation, writes the Chrome-trace JSON file
//! (default `profile-<workload>.json`), then prints the top-N span
//! table and the metrics summary. A request the catalog refuses as a
//! `bad_request` prints its error envelope on stderr and exits 2 (with
//! the chaos grammar or the profile catalog as a hint); any other error
//! envelope exits 1. `csv` writes the table CSVs and Figure 1's served
//! CSV into a directory.
//!
//! `query` is the one-shot service frontend: every file is one request
//! document, all files form one admitted batch, and the canonical
//! response envelopes print in order (`--rounds 2` replays the batch to
//! exercise the cache; `--stats` dumps the `serve.*` counters to
//! stderr). `serve` is the long-running frontend: line-delimited JSON
//! requests on stdin, one compact JSON response line per request; a
//! line holding a JSON array is served as one batch and answered with
//! one array line. `--http ADDR` serves the same service over HTTP/1.1
//! instead (keep-alive, `/metrics`, `/stats`, `POST /query` with
//! stdin-identical bytes — see `pvc_report::httpfront`). Both frontends
//! honour the reserved `{"kind":"shutdown"}` request (or
//! `POST /shutdown`) for a graceful exit. Each verb accepts only the
//! flags its usage line names; any other flag is a usage error (exit 2).
//!
//! Both frontends run with telemetry attached (a 64-entry flight
//! recorder), so a `{"kind":"stats"}` request answers with the live
//! counters, gauges, per-kind cost quantiles and recorder dump.
//! `--access-log PATH` additionally writes the structured JSON access
//! log (one line per request: outcome, canonical key, virtual cost,
//! queue depth at admission) — `query` writes it once at exit, `serve`
//! appends after every batch. Without it no log line is kept. `stats`
//! is the offline rendering verb: it runs a batch (the canned catalog
//! requests by default, or the given files) through a fresh service
//! and prints the Prometheus-style exposition text followed by a
//! per-histogram quantile table.
//!
//! `warm` precomputes the persistent result store: it enumerates the
//! registry's full grid (every artifact row, every `run` scenario,
//! every canned sweep and profile) and persists every response into a
//! `pvc-store` segment file keyed by content address and bound to the
//! current build fingerprint. `--verify` instead requires the store to
//! already be warm: it fails unless every corpus request is answered
//! from disk with zero cold computes. The other frontends take
//! `--store PATH` to serve from that file instead of an in-memory
//! store, so a fresh process answers its very first catalog query
//! without running a simulation. A store written by a different build
//! fingerprint is detected at open and reset automatically. One store
//! file has one writer: `warm` on a file another process holds open
//! exits 1, and `query`, `serve` and `stats` say so on stderr and serve
//! from memory instead.

use pvc_core::Json;
use pvc_report::serve::{
    serve_artifacts, serve_requests, verb_rows, CatalogExecutor, CANNED_REQUESTS,
};
use pvc_serve::{Request, ServeConfig, Service, Telemetry};
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let mut out = String::new();

    // An artifact verb prints its row; a verb naming several rows
    // (`ablations`, `all`) prints each followed by a blank line.
    let rows = verb_rows(what);
    if !rows.is_empty() {
        let printed = serve_artifacts(&rows).unwrap_or_else(|envelope| {
            eprintln!("{envelope}");
            std::process::exit(1);
        });
        if let [one] = printed.as_slice() {
            out.push_str(one);
        } else {
            for p in printed {
                out.push_str(&p);
                out.push('\n');
            }
        }
        print!("{out}");
        return;
    }
    match what {
        "csv" => {
            let dir = args
                .get(1)
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            match pvc_report::csv::write_artifacts(&dir) {
                Ok(paths) => {
                    for p in paths {
                        out.push_str(&format!("wrote {}\n", p.display()));
                    }
                }
                Err(e) => {
                    eprintln!("failed to write artifacts: {e}");
                    std::process::exit(1);
                }
            }
        }
        "run" | "chaos" | "validate" | "profile" => std::process::exit(run_served(what, &args)),
        "query" => {
            std::process::exit(run_query(&args[1..]));
        }
        "serve" => {
            std::process::exit(run_serve(&args[1..]));
        }
        "stats" => {
            std::process::exit(run_stats(&args[1..]));
        }
        "warm" => {
            std::process::exit(run_warm(&args[1..]));
        }
        other => {
            eprintln!(
                "unknown target '{other}'; expected table1..table6, fig1..fig4, scaling, ablations, devices, json, experiments, charts, rooflines, energy, fabric, csv [dir], conformance, validate, list, run <workload> <system>, chaos <workload> <system> <spec>, profile <workload> [outfile], query <request.json>.., serve, stats, warm or all"
            );
            std::process::exit(2);
        }
    }
    print!("{out}");
}

/// A request document whose fields are all strings.
fn request(pairs: &[(&str, &str)]) -> Json {
    Json::obj(pairs.iter().map(|&(k, v)| (k, Json::str(v))).collect())
}

/// A string field of a served result ("" when absent).
fn field<'a>(result: &'a Json, name: &str) -> &'a str {
    result.get(name).and_then(Json::as_str).unwrap_or_default()
}

/// Prints `verb`'s usage line and hint on stderr.
fn usage(verb: &str) {
    let args = match verb {
        "run" => "<workload> <system>",
        "chaos" => "<workload> <system> <spec>",
        _ => "<workload> [outfile]",
    };
    eprintln!("usage: reproduce {verb} {args}");
    hint(verb);
}

/// What follows `verb`'s usage line or a `bad_request` envelope on
/// stderr: where the registered pairs are, the chaos spec grammar, or
/// the profile workload catalog.
fn hint(verb: &str) {
    match verb {
        "run" => eprintln!("see `reproduce list` for the registered pairs"),
        "chaos" => {
            eprintln!("spec grammar ('+'-joined fault tokens):");
            for line in pvc_arch::chaos::GRAMMAR {
                eprintln!("  {line}");
            }
        }
        "profile" => {
            eprintln!("workloads:");
            for (name, desc) in pvc_report::profile::workloads(pvc_arch::System::Aurora) {
                eprintln!("  {name:<12} {desc}");
            }
        }
        _ => {}
    }
}

/// The error envelope on stderr; exit 2 when the client was at fault
/// (`bad_request`, followed by the verb's hint), else 1.
fn refused(verb: &str, envelope: &Json) -> i32 {
    eprintln!("{}", envelope.pretty());
    let kind = envelope.get("error").and_then(|e| e.get("kind"));
    if kind.and_then(Json::as_str) == Some("bad_request") {
        hint(verb);
        2
    } else {
        1
    }
}

/// `run`, `chaos`, `validate` and `profile`: the verb's requests, built
/// from its arguments, served as one batch and printed. Returns the
/// exit status.
fn run_served(verb: &str, args: &[String]) -> i32 {
    let arg = |i: usize| args.get(i).map(String::as_str);
    let docs = match (verb, arg(1), arg(2), arg(3)) {
        ("run", Some(w), Some(s), _) => {
            vec![request(&[("kind", "run"), ("workload", w), ("system", s)])]
        }
        ("chaos", Some(w), Some(s), Some(spec)) => vec![request(&[
            ("kind", "chaos"),
            ("workload", w),
            ("system", s),
            ("chaos", spec),
        ])],
        ("validate", ..) => vec![request(&[("kind", "conformance")])],
        ("profile", Some(w), ..) => ["profile", "trace"]
            .iter()
            .map(|&kind| request(&[("kind", kind), ("workload", w), ("system", "aurora")]))
            .collect(),
        _ => {
            usage(verb);
            return 2;
        }
    };
    let mut served = serve_requests(docs).into_iter();
    let first = match served.next().expect("one answer per request") {
        Ok(result) => result,
        Err(envelope) => return refused(verb, &envelope),
    };
    match verb {
        "validate" => {
            println!("{}", field(&first, "verdict"));
            0
        }
        "profile" => {
            let trace = match served.next().expect("the trace answer") {
                Ok(result) => result,
                Err(envelope) => return refused(verb, &envelope),
            };
            let path = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| format!("profile-{}.json", args[1]));
            if let Err(e) = std::fs::write(&path, field(&trace, "trace")) {
                eprintln!("failed to write {path}: {e}");
                return 1;
            }
            let events = first.get("trace_events").map(Json::compact).unwrap_or_default();
            println!("wrote {path} ({events} trace events, valid JSON)\n");
            println!("{}", field(&first, "top"));
            print!("{}", field(&first, "summary"));
            0
        }
        _ => {
            print!("{}", field(&first, "text"));
            if first.get("degraded_no_better") == Some(&Json::Bool(false)) {
                eprintln!("chaos invariant violated: degraded FOM beats baseline");
                return 1;
            }
            0
        }
    }
}

/// The flags of the serving verbs (`query`, `serve`, `stats`, `warm`).
#[derive(Default)]
struct ServeFlags {
    cfg: ServeConfig,
    stats: bool,
    rounds: usize,
    verify: bool,
    http: Option<String>,
    access_log: Option<String>,
    store: Option<String>,
    files: Vec<String>,
}

const QUERY_USAGE: &str = "usage: reproduce query [--stats] [--rounds N] [--queue-depth N] [--store PATH] [--access-log PATH] <request.json>...";
const SERVE_USAGE: &str = "usage: reproduce serve [--stats] [--queue-depth N] [--store PATH] [--http ADDR] [--access-log PATH]";
const STATS_USAGE: &str = "usage: reproduce stats [--rounds N] [--queue-depth N] [--store PATH] [--access-log PATH] [request.json...]";
const WARM_USAGE: &str = "usage: reproduce warm [--store PATH] [--verify]";

/// Parses a serving verb's arguments. A flag is accepted only when the
/// verb's `usage` line names it, and request files only when it names
/// `request.json`, so every argument parsed is one the verb reads. A
/// usage error prints the reason and the usage line and exits 2.
fn serve_flags(args: &[String], usage: &str) -> ServeFlags {
    parse_serve_flags(args, usage).unwrap_or_else(|e| {
        eprintln!("{e}\n{usage}");
        std::process::exit(2);
    })
}

fn parse_serve_flags(args: &[String], usage: &str) -> Result<ServeFlags, String> {
    let mut f = ServeFlags::default();
    fn num(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<usize, String> {
        it.next()
            .ok_or_else(|| format!("{name} needs a value"))?
            .parse::<usize>()
            .map_err(|_| format!("{name} needs an unsigned integer"))
    }
    fn value(it: &mut std::slice::Iter<'_, String>, what: &str) -> Result<Option<String>, String> {
        Ok(Some(it.next().ok_or(what)?.clone()))
    }
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let named = usage.split([' ', '[', ']']).any(|t| t == a);
        match a.as_str() {
            flag if flag.starts_with("--") && !named => {
                return Err(format!("unknown flag '{flag}'"))
            }
            "--stats" => f.stats = true,
            "--rounds" => f.rounds = num(&mut it, "--rounds")?,
            "--queue-depth" => f.cfg.queue_depth = num(&mut it, "--queue-depth")?,
            "--verify" => f.verify = true,
            "--http" => f.http = value(&mut it, "--http needs an address")?,
            "--access-log" => f.access_log = value(&mut it, "--access-log needs a path")?,
            "--store" => f.store = value(&mut it, "--store needs a path")?,
            path if usage.contains("request.json") => f.files.push(path.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(f)
}

/// Reads each request file; an unreadable file is reported on stderr.
fn read_requests(files: &[String]) -> Option<Vec<String>> {
    files
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map_err(|e| eprintln!("failed to read {path}: {e}"))
                .ok()
        })
        .collect()
}

/// `reproduce query`: one-shot batch, canonical envelopes on stdout.
/// Exit 0 when every envelope carries a result, 3 when any was
/// rejected or failed, 2 on usage errors.
fn run_query(args: &[String]) -> i32 {
    let flags = serve_flags(args, QUERY_USAGE);
    if flags.files.is_empty() {
        eprintln!("{QUERY_USAGE}");
        eprintln!("each file holds one JSON request object, for example:");
        for r in CANNED_REQUESTS {
            eprintln!("  {r}");
        }
        return 2;
    }
    let Some(texts) = read_requests(&flags.files) else {
        return 2;
    };
    let Some(service) = catalog_service(&flags) else {
        return 2;
    };
    let mut all_ok = true;
    let stdout = std::io::stdout();
    let mut w = stdout.lock();
    for _ in 0..flags.rounds.max(1) {
        let batch: Vec<_> = texts.iter().map(|t| Request::parse(t)).collect();
        for envelope in service.handle_batch(batch) {
            all_ok &= envelope.get("result").is_some();
            if writeln!(w, "{}", envelope.canonical()).is_err() {
                return 1;
            }
        }
    }
    if flags.stats {
        print_serve_stats(&service);
    }
    if !write_access_log(&service, &flags) {
        return 1;
    }
    if all_ok {
        0
    } else {
        3
    }
}

/// The catalog service the serving verbs share: telemetry is always
/// attached (bit-non-perturbing by construction, proven by the serve
/// test suite), so the `stats` request kind and the flight recorder
/// work out of the box. Access-log lines are buffered only when
/// `access_log` says a frontend drains them.
fn new_catalog_service(cfg: ServeConfig, access_log: bool) -> Service<CatalogExecutor> {
    let mut service = Service::new(CatalogExecutor, cfg);
    let telemetry = Telemetry::recording(64);
    service.set_telemetry(if access_log { telemetry.with_access_log() } else { telemetry });
    service
}

/// [`new_catalog_service`] serving from the `--store PATH` file, bound
/// to the build fingerprint. The open outcome prints on stderr so
/// response bytes on stdout stay untouched. A file another store holds
/// is left alone and the service keeps its in-memory store; `None`
/// when the store cannot be opened for any other reason.
fn catalog_service(flags: &ServeFlags) -> Option<Service<CatalogExecutor>> {
    let mut service = new_catalog_service(flags.cfg.clone(), flags.access_log.is_some());
    if let Some(path) = &flags.store {
        match pvc_store::Store::open(path, pvc_report::warm::build_fingerprint()) {
            Ok((store, report)) => {
                eprintln!("store {path}: {}", describe_open(&report));
                service.attach_store(store, &report);
            }
            Err(pvc_store::OpenError::Locked(_)) => {
                eprintln!("store {path}: locked by another open store; serving from memory");
            }
            Err(e) => {
                eprintln!("failed to open store {path}: {e}");
                return None;
            }
        }
    }
    Some(service)
}

/// Writes the telemetry access log to `--access-log PATH`, if given;
/// false when the write fails.
fn write_access_log(service: &Service<CatalogExecutor>, flags: &ServeFlags) -> bool {
    let Some(path) = &flags.access_log else {
        return true;
    };
    std::fs::write(path, service.telemetry().drain_access_log())
        .map_err(|e| eprintln!("failed to write access log {path}: {e}"))
        .is_ok()
}

/// One line summarising what [`pvc_store::Store::open`] found on disk.
fn describe_open(report: &pvc_store::OpenReport) -> String {
    use pvc_store::OpenStatus;
    let mut s = match report.status {
        OpenStatus::Created => "created empty".to_string(),
        OpenStatus::Loaded => format!("loaded {} records", report.records),
        OpenStatus::Invalidated { .. } => {
            "fingerprint mismatch, store reset".to_string()
        }
    };
    if report.tail_corrupt() {
        s.push_str(&format!(
            ", corrupt tail dropped ({} bytes)",
            report.dropped_bytes
        ));
    }
    s
}

/// `reproduce warm`: enumerate the registry's full grid and persist
/// every response into the store, so any later frontend started with
/// `--store` answers its first catalog query from disk. `--verify`
/// asserts the store is already warm: every corpus request must come
/// back as a store hit with zero cold computes. Exit 0 on success,
/// 1 on failed requests or a failed verify, 2 on usage errors.
fn run_warm(args: &[String]) -> i32 {
    let flags = serve_flags(args, WARM_USAGE);
    let store_path = flags.store.as_deref().unwrap_or("pvc-store.bin");
    let corpus = pvc_report::warm::warm_requests();
    // The whole corpus is one admitted batch: raise the queue so
    // nothing sheds, leave other knobs at defaults.
    let mut cfg = ServeConfig::default();
    cfg.queue_depth = cfg.queue_depth.max(corpus.len());
    let mut service = new_catalog_service(cfg, false);
    let (store, report) =
        match pvc_store::Store::open(store_path, pvc_report::warm::build_fingerprint()) {
            Ok(opened) => opened,
            Err(e) => {
                eprintln!("failed to open store {store_path}: {e}");
                return 1;
            }
        };
    println!("store {store_path}: {}", describe_open(&report));
    if flags.verify && report.status != pvc_store::OpenStatus::Loaded {
        eprintln!("verify failed: store must already be warm for this build fingerprint");
        return 1;
    }
    service.attach_store(store, &report);
    let total = corpus.len();
    let answers = service.answer_batch(corpus.into_iter().map(Ok).collect());
    let failed = answers.iter().filter(|a| a.result().is_none()).count();
    let metrics = service.metrics();
    let hits = metrics.counter("serve.cache.hit");
    let writes = metrics.counter("serve.store.write");
    let cold = metrics.counter("serve.cache.miss");
    println!(
        "warmed {} corpus requests: {hits} served from store, {writes} computed and written; store holds {} entries",
        total,
        service.store_len()
    );
    if failed > 0 {
        eprintln!("warm failed: {failed} corpus requests did not produce a result");
        return 1;
    }
    if flags.verify {
        if hits as usize != total || cold != 0 {
            eprintln!(
                "verify failed: expected every request from disk (store hits {hits}/{}, cold computes {cold})",
                total
            );
            return 1;
        }
        println!(
            "verify ok: all {} requests served from the store, zero cold computes",
            total
        );
    }
    0
}

/// The `serve.*` counter namespace on stderr (same line format as the
/// full metrics summary, filtered to this service's instruments).
fn print_serve_stats(service: &Service<CatalogExecutor>) {
    for (name, value) in service.metrics().counters("serve.") {
        eprintln!("counter {name} = {value}");
    }
}

/// One line-delimited session: requests in, compact envelopes out, one
/// line each through [`Service::handle_line`]. When an access-log sink
/// is attached, the telemetry log drains to it after every answered
/// line.
fn serve_session(
    service: &Service<CatalogExecutor>,
    reader: impl BufRead,
    mut writer: impl Write,
    access: &mut Option<std::fs::File>,
) -> std::io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(writer, "{}", service.handle_line(&line))?;
        writer.flush()?;
        if let Some(log) = access {
            log.write_all(service.telemetry().drain_access_log().as_bytes())?;
            log.flush()?;
        }
        // A reserved `{"kind":"shutdown"}` request (possibly inside an
        // array batch) was acknowledged: drain this session cleanly.
        if service.shutdown_requested() {
            return Ok(());
        }
    }
    Ok(())
}

/// `reproduce serve`: long-running loop on stdin (default) or HTTP.
fn run_serve(args: &[String]) -> i32 {
    let flags = serve_flags(args, SERVE_USAGE);
    let mut access = match &flags.access_log {
        None => None,
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("failed to open access log {path}: {e}");
                return 2;
            }
        },
    };
    let Some(service) = catalog_service(&flags) else {
        return 2;
    };
    let result = match &flags.http {
        None => {
            let stdin = std::io::stdin();
            serve_session(&service, stdin.lock(), std::io::stdout().lock(), &mut access)
        }
        Some(addr) => serve_http_front(&service, addr, &mut access),
    };
    if flags.stats {
        print_serve_stats(&service);
    }
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

/// The HTTP/1.1 frontend: the same service behind the zero-dep
/// [`pvc_serve::http`] server and the `pvc_report::httpfront` routes.
/// Keep-alive, chunked responses, `/metrics`, `/stats`, and a
/// `POST /query` whose bytes match the stdin frontend exactly.
fn serve_http_front(
    service: &Service<CatalogExecutor>,
    addr: &str,
    access: &mut Option<std::fs::File>,
) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!("serving http on {}", listener.local_addr()?);
    pvc_serve::http::serve_http(&listener, |req| {
        let (resp, after) = pvc_report::httpfront::handle(service, req);
        if let Some(log) = access.as_mut() {
            let _ = log.write_all(service.telemetry().drain_access_log().as_bytes());
            let _ = log.flush();
        }
        (resp, after)
    })
}

/// `reproduce stats`: run one batch (the canned requests by default)
/// through a fresh catalog service, then render the full metrics
/// registry as Prometheus exposition text plus a quantile table — the
/// offline twin of the `{"kind":"stats"}` request.
fn run_stats(args: &[String]) -> i32 {
    let flags = serve_flags(args, STATS_USAGE);
    let texts = if flags.files.is_empty() {
        CANNED_REQUESTS.iter().map(|r| r.to_string()).collect()
    } else {
        match read_requests(&flags.files) {
            Some(texts) => texts,
            None => return 2,
        }
    };
    let Some(service) = catalog_service(&flags) else {
        return 2;
    };
    for _ in 0..flags.rounds.max(1) {
        let batch: Vec<_> = texts.iter().map(|t| Request::parse(t)).collect();
        service.handle_batch(batch);
    }
    let metrics = service.metrics();
    let mut out = metrics.expose_text();
    out.push('\n');
    out.push_str("quantiles (virtual units; serve.cost.* are abstract cost units)\n");
    out.push_str(&format!(
        "{:<28} {:>7} {:>12} {:>12} {:>12}\n",
        "histogram", "count", "p50", "p90", "p99"
    ));
    for name in metrics.histogram_names("") {
        let Some((_, count, _)) = metrics.histogram(&name) else {
            continue;
        };
        let q = |p: f64| match metrics.quantile(&name, p) {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{name:<28} {count:>7} {:>12} {:>12} {:>12}\n",
            q(0.50),
            q(0.90),
            q(0.99)
        ));
    }
    print!("{out}");
    if write_access_log(&service, &flags) {
        0
    } else {
        1
    }
}
