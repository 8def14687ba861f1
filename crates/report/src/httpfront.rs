//! The HTTP/1.1 frontend routes: the catalog service behind a
//! zero-dependency [`pvc_serve::http`] server.
//!
//! One function, [`handle`], maps a parsed [`HttpRequest`] onto the
//! shared [`Service`] — the same service type the stdin frontend
//! adapts, with one result store and one metrics registry:
//!
//! | route | maps to |
//! |---|---|
//! | `GET /` | endpoint index (text) |
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus exposition of the full registry |
//! | `GET /stats` | the reserved `{"kind":"stats"}` request |
//! | `POST /query` | one stdin-frontend line: a request object or an array batch; response bytes **identical** to the stdin frontend |
//! | `GET /table/<1-6>` | `{"kind":"table","id":N}` |
//! | `GET /figure/<1-4>` | `{"kind":"figure","id":N}` |
//! | `GET /ablation/<name>` | `{"kind":"ablation","name":…}` |
//! | `GET /run/<workload>/<system>` | `{"kind":"run",…}` |
//! | `GET /trace/<workload>/<system>` | `{"kind":"trace",…}`: the profile run's Chrome trace |
//! | `POST /shutdown` | the reserved `{"kind":"shutdown"}` request; stops the accept loop |
//!
//! Every catalog route, `/trace` included, is one request through the
//! service: admitted, priced, cached and counted like a `POST /query`.
//! A request the service refuses answers 400 with its JSON error
//! envelope. Content negotiation (the `Accept` header): a trace result
//! answers its Chrome-trace document as `application/x-chrome-trace`
//! when asked for, else as `application/json`; otherwise `text/plain`
//! unwraps the result's rendered `text` field, `text/csv` its `csv`
//! field, and anything else answers the envelope line as the service
//! spliced it. Only an unwrapped field needs the result parsed.
//! `POST /query` always answers the raw frontend bytes (that route's
//! whole point is byte-identity with the stdin loop).

use crate::serve::CatalogExecutor;
use pvc_core::Json;
use pvc_serve::http::{After, HttpRequest, HttpResponse};
use pvc_serve::{Request, Service, SHUTDOWN_KIND, STATS_KIND};

const CT_JSON: &str = "application/json";
const CT_TEXT: &str = "text/plain; charset=utf-8";
const CT_CSV: &str = "text/csv; charset=utf-8";
/// The Prometheus text exposition format version we emit.
const CT_METRICS: &str = "text/plain; version=0.0.4; charset=utf-8";
const CT_TRACE: &str = "application/x-chrome-trace";

/// The index served at `/`.
const INDEX: &str = "\
pvc-serve HTTP frontend — deterministic paper-catalog queries

  GET  /healthz                   liveness probe
  GET  /metrics                   Prometheus exposition (serve.* counters and gauges)
  GET  /stats                     full stats envelope (counters, gauges, quantiles)
  POST /query                     one request object or array batch (stdin-frontend bytes)
  GET  /table/<1-6>               rendered paper table   (Accept: text/plain for raw text)
  GET  /figure/<1-4>              figure data            (figure 1 negotiates text/csv)
  GET  /ablation/<name>           governor|pcie|congestion|plane|scaling
  GET  /run/<workload>/<system>   one scenario outcome   (Accept: text/plain for the report)
  GET  /trace/<workload>/<system> Chrome-trace JSON from the virtual-time profiler
  POST /shutdown                  graceful shutdown (drains, then stops accepting)
";

/// Routes one HTTP exchange onto the shared service. Pure with
/// respect to the connection: all state lives in `service`.
pub fn handle(
    service: &Service<CatalogExecutor>,
    req: &HttpRequest,
) -> (HttpResponse, After) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => (HttpResponse::ok(CT_TEXT, INDEX.as_bytes().to_vec()), After::Continue),
        ("GET", ["healthz"]) => {
            (HttpResponse::ok(CT_TEXT, b"ok\n".to_vec()), After::Continue)
        }
        ("GET", ["metrics"]) => {
            let body = service.metrics().expose_text();
            (HttpResponse::ok(CT_METRICS, body.into_bytes()), After::Continue)
        }
        ("GET", ["stats"]) => {
            let line = format!("{{\"kind\":\"{STATS_KIND}\"}}");
            (json_line(service.handle_line(&line)), After::Continue)
        }
        ("POST", ["query"]) => (query(service, &req.body), After::Continue),
        ("POST", ["shutdown"]) => {
            let line = format!("{{\"kind\":\"{SHUTDOWN_KIND}\"}}");
            (json_line(service.handle_line(&line)), After::Shutdown)
        }
        ("GET", ["table", id]) => catalog(service, req, table_request("table", id)),
        ("GET", ["figure", id]) => catalog(service, req, table_request("figure", id)),
        ("GET", ["ablation", name]) => catalog(
            service,
            req,
            Ok(Json::obj(vec![
                ("kind", Json::str("ablation")),
                ("name", Json::str(*name)),
            ])),
        ),
        ("GET", [kind @ ("run" | "trace"), workload, system]) => catalog(
            service,
            req,
            Ok(Json::obj(vec![
                ("kind", Json::str(*kind)),
                ("workload", Json::str(*workload)),
                ("system", Json::str(*system)),
            ])),
        ),
        ("GET" | "POST" | "HEAD" | "PUT" | "DELETE", _) => {
            (HttpResponse::error(404, "no such route; GET / lists the endpoints"), After::Continue)
        }
        _ => (HttpResponse::error(405, "unsupported method"), After::Continue),
    }
}

/// A `{"kind":…,"id":N}` request document for the table/figure routes.
fn table_request(kind: &str, id: &str) -> Result<Json, String> {
    let id: i64 = id
        .parse()
        .map_err(|_| format!("{kind} id must be an integer, got '{id}'"))?;
    Ok(Json::obj(vec![
        ("kind", Json::str(kind)),
        ("id", Json::Int(id)),
    ]))
}

/// `POST /query`: the stdin frontend over HTTP. The body is exactly one
/// stdin line — a request object, or an array answered as one batch —
/// and the response body is exactly the line the stdin loop would print
/// (compact JSON + newline), so `cmp` against the pipe frontend passes.
fn query(service: &Service<CatalogExecutor>, body: &[u8]) -> HttpResponse {
    let Ok(text) = std::str::from_utf8(body) else {
        return HttpResponse::error(400, "query body must be UTF-8 JSON");
    };
    if text.trim().is_empty() {
        return HttpResponse::error(400, "query body must hold a request object or array");
    }
    json_line(service.handle_line(text))
}

/// Serves one catalog request document through the service and
/// negotiates the representation from the `Accept` header.
fn catalog(
    service: &Service<CatalogExecutor>,
    http: &HttpRequest,
    doc: Result<Json, String>,
) -> (HttpResponse, After) {
    let doc = match doc {
        Ok(d) => d,
        Err(msg) => return (HttpResponse::error(400, &msg), After::Continue),
    };
    let trace = doc.get("kind").and_then(Json::as_str) == Some("trace");
    let answer = service
        .answer_batch(vec![Request::from_json(doc)])
        .remove(0);
    let Some(body) = answer.result() else {
        // The service rejected it (bad request, shed, over budget…):
        // surface the typed error envelope.
        let mut line = answer.into_line();
        line.push('\n');
        return (
            HttpResponse {
                status: 400,
                content_type: CT_JSON.to_string(),
                body: line.into_bytes(),
            },
            After::Continue,
        );
    };
    let accept = http.accept();
    if trace || accept.contains("text/csv") || accept.contains("text/plain") {
        if let Some((ct, field)) = unwrap_field(body, trace, accept) {
            return (HttpResponse::ok(ct, field.into_bytes()), After::Continue);
        }
    }
    (json_line(answer.into_line()), After::Continue)
}

/// The string field of the result `body` that a route's `accept` asks
/// for, with its content type: a trace result's `trace` whatever is
/// asked, else `csv` for `text/csv`, else `text` (or `csv`) for
/// `text/plain`. Only that field is unescaped; the rest of the body is
/// stepped over, not built.
fn unwrap_field(body: &str, trace: bool, accept: &str) -> Option<(&'static str, String)> {
    let field = |name: &str| pvc_core::json::string_field(body, name);
    if trace {
        let ct = if accept.contains(CT_TRACE) { CT_TRACE } else { CT_JSON };
        return field("trace").map(|trace| (ct, trace));
    }
    if accept.contains("text/csv") {
        if let Some(csv) = field("csv") {
            return Some((CT_CSV, csv));
        }
    }
    if accept.contains("text/plain") {
        if let Some(text) = field("text") {
            return Some((CT_TEXT, text));
        }
        if let Some(csv) = field("csv") {
            return Some((CT_CSV, csv));
        }
    }
    None
}

/// An answer line as a JSON response (stdin-frontend framing).
fn json_line(mut line: String) -> HttpResponse {
    line.push('\n');
    HttpResponse::ok(CT_JSON, line.into_bytes())
}
