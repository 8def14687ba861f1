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
//! experiment record. `conformance` exits 1 when a golden expectation
//! fails.
//!
//! The other verbs take arguments, write files or gate on an exit
//! status. `csv` writes the table CSVs and Figure 1's served CSV into
//! a directory. `validate` exits 1 unless every published cell is
//! within 8% and conformance holds. `run` executes one scenario and
//! prints its typed outcome. `chaos` runs one scenario twice — healthy
//! and under a '+'-joined fault-spec overlay (e.g. `xelink:0:0`,
//! `pcie:3x8+clock:1.0`) — and prints the FOM delta plus which resource
//! was the bottleneck of each run. `profile` runs one workload under
//! the deterministic virtual-time tracer and writes a Chrome-trace JSON
//! file (default `profile-<workload>.json`), then prints the top-N span
//! table and the metrics summary.
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
//! `--store PATH` to attach the warmed store as a second cache tier
//! below the in-memory LRU, so a fresh process answers its very first
//! catalog query without running a simulation. A store written by a
//! different build fingerprint is detected at open and reset
//! automatically.

use pvc_report::experiments;
use pvc_report::serve::{serve_artifacts, verb_rows, CatalogExecutor, CANNED_REQUESTS};
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
        "validate" => {
            let records = experiments::collect();
            let mut failures = 0usize;
            let mut compared = 0usize;
            for r in &records {
                if let Some(e) = r.rel_err {
                    compared += 1;
                    if e > 0.08 {
                        failures += 1;
                        eprintln!(
                            "FAIL {} / {} / {}: {:.1}% error",
                            r.element, r.row, r.column, e * 100.0
                        );
                    }
                }
            }
            out.push_str(&format!(
                "validated {compared} published cells against the model; {failures} outside 8%\n"
            ));
            match pvc_report::conformance::verdict() {
                Ok(line) => out.push_str(&line),
                Err(msg) => {
                    eprint!("{msg}");
                    failures += 1;
                }
            }
            if failures > 0 {
                print!("{out}");
                std::process::exit(1);
            }
        }
        "run" => {
            let (Some(workload), Some(system)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: reproduce run <workload> <system>");
                eprintln!("see `reproduce list` for the registered pairs");
                std::process::exit(2);
            };
            let system: pvc_arch::System = or_usage(system.parse());
            let outcome = or_usage(pvc_report::scenarios::registry().run(workload, system));
            let scenario = pvc_report::scenarios::registry()
                .get(workload, system)
                .expect("scenario just ran");
            let dir = if scenario.fom_kind().higher_is_better() {
                "higher is better"
            } else {
                "lower is better"
            };
            out.push_str(&format!("{}: {} ({dir})\n", outcome.id, outcome.fom));
            out.push_str(&format!("  citation: {}\n", scenario.citation()));
            for (key, value) in &outcome.detail {
                out.push_str(&format!("  {key} = {value}\n"));
            }
        }
        "chaos" => {
            let (Some(workload), Some(system), Some(spec)) =
                (args.get(1), args.get(2), args.get(3))
            else {
                eprintln!("usage: reproduce chaos <workload> <system> <spec>");
                eprintln!("spec grammar ('+'-joined fault tokens):");
                for line in pvc_arch::chaos::GRAMMAR {
                    eprintln!("  {line}");
                }
                std::process::exit(2);
            };
            let system: pvc_arch::System = or_usage(system.parse());
            let spec = match spec.parse::<pvc_scenario::ChaosSpec>() {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("invalid chaos spec '{spec}': {e}");
                    eprintln!("spec grammar ('+'-joined fault tokens):");
                    for line in pvc_arch::chaos::GRAMMAR {
                        eprintln!("  {line}");
                    }
                    std::process::exit(2);
                }
            };
            let reg = pvc_report::scenarios::registry();
            let run = or_usage(pvc_scenario::run_with_chaos(reg, workload, system, &spec));
            let dir = if run.baseline.fom.kind().higher_is_better() {
                "higher is better"
            } else {
                "lower is better"
            };
            out.push_str(&format!(
                "chaos report: {} under '{}'\n",
                run.baseline.id,
                run.spec.canonical()
            ));
            let side = |label: &str, o: &pvc_scenario::Outcome, b: &Option<String>| {
                let bn = b.as_deref().unwrap_or("none traced");
                format!("  {label:<9} {} ({dir})  [bottleneck: {bn}]\n", o.fom)
            };
            out.push_str(&side("baseline:", &run.baseline, &run.baseline_bottleneck));
            out.push_str(&side("degraded:", &run.degraded, &run.degraded_bottleneck));
            match run.delta_fraction() {
                Some(d) => out.push_str(&format!("  delta:    {:+.1}%\n", d * 100.0)),
                None => out.push_str(
                    "  delta:    n/a (zero or non-finite endpoint — e.g. stranded transfers)\n",
                ),
            }
            if run.baseline_bottleneck != run.degraded_bottleneck {
                out.push_str(&format!(
                    "  bottleneck shifted: {} -> {}\n",
                    run.baseline_bottleneck.as_deref().unwrap_or("none"),
                    run.degraded_bottleneck.as_deref().unwrap_or("none")
                ));
            } else {
                out.push_str("  bottleneck unchanged\n");
            }
            if !run.degraded_no_better() {
                eprintln!("chaos invariant violated: degraded FOM beats baseline");
                print!("{out}");
                std::process::exit(1);
            }
        }
        "profile" => {
            let Some(workload) = args.get(1) else {
                eprintln!("usage: reproduce profile <workload> [outfile]");
                eprintln!("workloads:");
                for (name, desc) in pvc_report::profile::workloads(pvc_arch::System::Aurora) {
                    eprintln!("  {name:<12} {desc}");
                }
                std::process::exit(2);
            };
            let artifact = or_usage(pvc_report::profile::run(workload, pvc_arch::System::Aurora));
            let events = match artifact.validate() {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            let path = args
                .get(2)
                .cloned()
                .unwrap_or_else(|| format!("profile-{workload}.json"));
            if let Err(e) = std::fs::write(&path, &artifact.trace_json) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            out.push_str(&format!(
                "wrote {path} ({events} trace events, valid JSON)\n\n"
            ));
            out.push_str(&artifact.top);
            out.push('\n');
            out.push_str(&artifact.summary);
        }
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

/// The value, or the error on stderr and exit 2 (a usage error).
fn or_usage<T, E: std::fmt::Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
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

/// [`new_catalog_service`] with the `--store PATH` disk tier, bound to
/// the build fingerprint, attached below the LRU. The open outcome
/// prints on stderr so response bytes on stdout stay untouched; `None`
/// when the store cannot be opened.
fn catalog_service(flags: &ServeFlags) -> Option<Service<CatalogExecutor>> {
    let mut service = new_catalog_service(flags.cfg.clone(), flags.access_log.is_some());
    if let Some(path) = &flags.store {
        match pvc_store::Store::open(path, pvc_report::warm::build_fingerprint()) {
            Ok((store, report)) => {
                eprintln!("store {path}: {}", describe_open(&report));
                service.attach_store(store, &report);
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
    let corpus = pvc_report::warm::warm_corpus();
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
    let batch: Vec<_> = corpus.iter().map(|t| Request::parse(t)).collect();
    let envelopes = service.handle_batch(batch);
    let failed = envelopes
        .iter()
        .filter(|e| e.get("result").is_none())
        .count();
    let metrics = service.metrics();
    let hits = metrics.counter("serve.store.hit");
    let writes = metrics.counter("serve.store.write");
    let cold = metrics.counter("serve.cache.miss");
    println!(
        "warmed {} corpus requests: {hits} served from store, {writes} computed and written; store holds {} entries",
        corpus.len(),
        service.store_len()
    );
    if failed > 0 {
        eprintln!("warm failed: {failed} corpus requests did not produce a result");
        return 1;
    }
    if flags.verify {
        if hits as usize != corpus.len() || cold != 0 {
            eprintln!(
                "verify failed: expected every request from disk (store hits {hits}/{}, cold computes {cold})",
                corpus.len()
            );
            return 1;
        }
        println!(
            "verify ok: all {} requests served from the store, zero cold computes",
            corpus.len()
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
        writeln!(writer, "{}", service.handle_line(&line).compact())?;
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
