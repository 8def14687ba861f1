//! The answer manifest: every served answer's bytes, pinned.
//!
//! `answer_manifest.tsv` holds one line per answer the catalog serves,
//! tab-separated: the surface, the request, the status, the content
//! type, the byte length and the FNV-1a 64 of the bytes. The surfaces:
//!
//! * `serve:corpus` / `serve:canned` — each [`warm_corpus`] line and
//!   each [`CANNED_REQUESTS`] line as one stdin `serve` line
//!   ([`Service::handle_line`] plus the newline `serve` prints); the
//!   status is `ok` or the error envelope's kind;
//! * `http` — every catalog `GET` route (`/table/1-6`, `/figure/1-4`,
//!   `/ablation/<name>`, `/run/<workload>/<system>`) under
//!   `application/json`, `text/plain` and `text/csv`, and each
//!   `/trace/<workload>/aurora` route under `application/x-chrome-trace`,
//!   through [`httpfront::handle`];
//! * `warm` — the whole store file a `reproduce warm --store` pass
//!   writes;
//! * `fingerprint` — [`build_fingerprint`] as 16 hex digits. A store
//!   file that moved while the fingerprint did not would let a store
//!   warmed before the change open `Loaded` and serve the old bytes, so
//!   the warm test refuses it and names `STORE_SCHEMA`.
//!
//! Each test recomputes its surface in process and fails naming every
//! entry that moved, was added or went missing, followed by the
//! recomputed lines for them. A change that moves bytes on purpose
//! replaces those lines in the manifest and lists each in CHANGES.md.

use pvc_report::httpfront;
use pvc_report::scenarios::registry;
use pvc_report::serve::{CatalogExecutor, ARTIFACTS, CANNED_REQUESTS};
use pvc_report::warm::{build_fingerprint, warm_corpus};
use pvc_serve::http::HttpRequest;
use pvc_serve::{Request, ServeConfig, Service, Telemetry};
use pvc_store::{fnv1a64, Store};

const MANIFEST: &str = include_str!("answer_manifest.tsv");

/// One manifest line.
fn entry(surface: &str, request: &str, status: &str, content_type: &str, bytes: &[u8]) -> String {
    format!(
        "{surface}\t{request}\t{status}\t{content_type}\t{}\t{:016x}",
        bytes.len(),
        fnv1a64(bytes)
    )
}

/// The identity of a manifest line: its surface and request columns.
fn id(line: &str) -> String {
    line.splitn(3, '\t').take(2).collect::<Vec<_>>().join("\t")
}

/// Compares the recomputed `lines` of `surfaces` with the committed
/// manifest; panics naming every moved, added or missing entry and
/// printing the replacement lines.
fn check(surfaces: &[&str], lines: &[String]) {
    let pinned: Vec<&str> = MANIFEST
        .lines()
        .filter(|l| surfaces.contains(&l.split('\t').next().unwrap_or_default()))
        .collect();
    let mut report = Vec::new();
    let mut replacements = Vec::new();
    for line in lines {
        match pinned.iter().find(|p| id(p) == id(line)) {
            Some(p) if *p == line => {}
            Some(p) => {
                report.push(format!(
                    "moved:   {}\n  was:   {p}\n  now:   {line}",
                    id(line)
                ));
                replacements.push(line.as_str());
            }
            None => {
                report.push(format!("added:   {}", id(line)));
                replacements.push(line.as_str());
            }
        }
    }
    for p in &pinned {
        if !lines.iter().any(|l| id(l) == id(p)) {
            report.push(format!("missing: {}", id(p)));
        }
    }
    assert!(
        report.is_empty(),
        "{} {} answer(s) differ from answer_manifest.tsv:\n{}\n\nreplacement lines:\n{}",
        report.len(),
        surfaces.join("/"),
        report.join("\n"),
        replacements.join("\n")
    );
}

/// A service configured as `reproduce serve` builds it.
fn service() -> Service<CatalogExecutor> {
    let mut service = Service::new(CatalogExecutor, ServeConfig::default());
    service.set_telemetry(Telemetry::recording(64));
    service
}

#[test]
fn every_serve_line_answer_matches_the_manifest() {
    std::env::set_var("PVC_THREADS", "2");
    let s = service();
    let corpus = warm_corpus();
    let canned = CANNED_REQUESTS.iter().map(|r| r.to_string());
    let sources = corpus
        .into_iter()
        .map(|l| ("serve:corpus", l))
        .chain(canned.map(|l| ("serve:canned", l)));
    let mut lines = Vec::new();
    for (surface, request) in sources {
        let out = s.handle_line(&request) + "\n";
        let answer = pvc_core::json::parse(&out).expect("an answer line is JSON");
        let status = answer
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(pvc_core::Json::as_str)
            .unwrap_or("ok");
        lines.push(entry(
            surface,
            &request,
            status,
            "application/json",
            out.as_bytes(),
        ));
    }
    assert_eq!(lines.len(), 117 + CANNED_REQUESTS.len());
    check(&["serve:corpus", "serve:canned"], &lines);
}

fn get(path: &str, accept: &str) -> HttpRequest {
    HttpRequest {
        method: "GET".to_string(),
        target: path.to_string(),
        path: path.to_string(),
        headers: vec![("accept".to_string(), accept.to_string())],
        body: Vec::new(),
    }
}

#[test]
fn every_catalog_route_answer_matches_the_manifest() {
    std::env::set_var("PVC_THREADS", "2");
    let s = service();
    let mut routes: Vec<String> = Vec::new();
    for a in &ARTIFACTS {
        let doc = a.request();
        let field = |name: &str| {
            doc.get(name)
                .map(|v| v.as_str().map_or_else(|| v.compact(), str::to_string))
        };
        match a.kind {
            "table" | "figure" => routes.push(format!("/{}/{}", a.kind, field("id").unwrap())),
            "ablation" => routes.push(format!("/ablation/{}", field("name").unwrap())),
            _ => {}
        }
    }
    for sc in registry().iter() {
        let id = sc.id();
        routes.push(format!("/run/{}/{}", id.slug(), id.system.cli_name()));
    }
    assert_eq!(routes.len(), 6 + 4 + 5 + 63);
    let mut gets: Vec<(String, &str)> = Vec::new();
    for route in &routes {
        for accept in ["application/json", "text/plain", "text/csv"] {
            gets.push((route.clone(), accept));
        }
    }
    let traces: Vec<String> = registry()
        .iter()
        .filter(|sc| sc.id().system == pvc_arch::System::Aurora)
        .filter_map(|sc| sc.profile_name())
        .map(|name| format!("/trace/{name}/aurora"))
        .collect();
    assert_eq!(traces.len(), 10);
    gets.extend(
        traces
            .into_iter()
            .map(|t| (t, "application/x-chrome-trace")),
    );
    let lines: Vec<String> = gets
        .iter()
        .map(|(path, accept)| {
            let (resp, _) = httpfront::handle(&s, &get(path, accept));
            let request = format!("GET {path} accept={accept}");
            entry(
                "http",
                &request,
                &resp.status.to_string(),
                &resp.content_type,
                &resp.body,
            )
        })
        .collect();
    check(&["http"], &lines);
}

#[test]
fn the_warm_store_file_matches_the_manifest() {
    std::env::set_var("PVC_THREADS", "2");
    let path = std::env::temp_dir().join(format!("pvc-answer-manifest-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // What `reproduce warm --store PATH` does: the whole corpus as one
    // admitted batch into a fresh store.
    let corpus = warm_corpus();
    let mut cfg = ServeConfig::default();
    cfg.queue_depth = cfg.queue_depth.max(corpus.len());
    let mut s = Service::new(CatalogExecutor, cfg);
    s.set_telemetry(Telemetry::recording(64));
    let (store, report) = Store::open(&path, build_fingerprint()).expect("store opens");
    s.attach_store(store, &report);
    let answers = s.answer_batch(corpus.iter().map(|l| Request::parse(l)).collect());
    assert!(
        answers.iter().all(|a| a.result().is_some()),
        "every corpus request answers"
    );
    drop(s);
    let bytes = std::fs::read(&path).expect("store file reads");
    let _ = std::fs::remove_file(&path);
    let line = entry(
        "warm",
        "reproduce warm --store",
        "ok",
        "application/octet-stream",
        &bytes,
    );
    let fingerprint = format!("{:016x}", build_fingerprint());
    let fingerprint = entry(
        "fingerprint",
        "build_fingerprint()",
        "ok",
        "text/plain",
        fingerprint.as_bytes(),
    );
    let pinned = |l: &str| MANIFEST.lines().any(|p| p == l);
    assert!(
        pinned(&line) || !pinned(&fingerprint),
        "the warm store file moved but build_fingerprint() did not, so a store \
         warmed before this change would still open Loaded and serve the old \
         answers: bump STORE_SCHEMA in crates/report/src/warm.rs"
    );
    check(&["warm", "fingerprint"], &[line, fingerprint]);
}
