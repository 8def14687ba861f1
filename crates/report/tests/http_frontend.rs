//! End-to-end properties of the HTTP/1.1 frontend: the `POST /query`
//! bytes are identical to the stdin frontend's, keep-alive connections
//! replay to byte-identical bodies, `/metrics` exposes the `serve.*`
//! counters, content negotiation unwraps rendered text, a 1 MiB
//! request string is answered like any other request, and
//! `POST /shutdown` stops the accept loop gracefully.
//!
//! The service holds `Rc`/`RefCell` state (one cache, one queue, one
//! thread), so each test constructs it inside the server thread and
//! talks to it like any other client would — over a socket.

use pvc_core::Json;
use pvc_report::serve::{CatalogExecutor, CANNED_REQUESTS};
use pvc_serve::http::serve_http;
use pvc_serve::{Request, ServeConfig, Service, Telemetry, DETAIL_CAP};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Boots the catalog service behind the HTTP frontend on an ephemeral
/// port; returns the address and the server thread handle (joins when
/// a client POSTs /shutdown).
fn boot() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        let mut service = Service::new(CatalogExecutor, ServeConfig::default());
        service.set_telemetry(Telemetry::recording(64));
        serve_http(&listener, |req| pvc_report::httpfront::handle(&service, req))
            .expect("server loop exits cleanly");
    });
    (addr, handle)
}

/// Reads one HTTP response (fixed-length or chunked) off the wire.
fn read_response(r: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut status_line = String::new();
    r.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        r.read_line(&mut line).expect("header line");
        if line.trim_end().is_empty() {
            break;
        }
        let (n, v) = line.split_once(':').expect("header colon");
        headers.push((n.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    let mut body = Vec::new();
    if find("transfer-encoding").as_deref() == Some("chunked") {
        loop {
            let mut size_line = String::new();
            r.read_line(&mut size_line).expect("chunk size");
            let size = usize::from_str_radix(size_line.trim(), 16).expect("hex size");
            let mut chunk = vec![0u8; size + 2];
            r.read_exact(&mut chunk).expect("chunk body");
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk[..size]);
        }
    } else if let Some(len) = find("content-length") {
        let mut fixed = vec![0u8; len.parse().expect("length")];
        r.read_exact(&mut fixed).expect("fixed body");
        body = fixed;
    }
    (status, headers, body)
}

fn request(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    method: &str,
    path: &str,
    accept: Option<&str>,
    body: Option<&str>,
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if let Some(a) = accept {
        head.push_str(&format!("Accept: {a}\r\n"));
    }
    if let Some(b) = body {
        head.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes()).expect("write head");
    if let Some(b) = body {
        w.write_all(b.as_bytes()).expect("write body");
    }
    read_response(r)
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    let (mut w, mut r) = connect(addr);
    let (status, _, body) = request(&mut w, &mut r, "POST", "/shutdown", None, None);
    assert_eq!(status, 200);
    let envelope = pvc_core::json::parse(std::str::from_utf8(&body).unwrap().trim())
        .expect("shutdown envelope parses");
    assert_eq!(
        envelope.get("result").and_then(|b| b.get("shutting_down")),
        Some(&Json::Bool(true))
    );
    handle.join().expect("server thread exits after shutdown");
}

/// The canned CI batch as one stdin-frontend array line.
fn canned_line() -> String {
    format!("[{}]", CANNED_REQUESTS.join(","))
}

/// What the stdin frontend prints for `canned_line()`: one compact
/// array line. Computed against a local service with the same knobs.
fn stdin_bytes() -> String {
    let service = Service::new(CatalogExecutor, ServeConfig::default());
    let batch: Vec<_> = match pvc_core::json::parse(&canned_line()) {
        Ok(Json::Arr(items)) => items.into_iter().map(Request::from_json).collect(),
        _ => panic!("canned line is an array"),
    };
    format!("{}\n", Json::Arr(service.handle_batch(batch)).compact())
}

#[test]
fn query_bytes_match_stdin_frontend_and_replay_identically_over_keepalive() {
    let (addr, handle) = boot();
    let line = canned_line();
    let (mut w, mut r) = connect(addr);

    // Two replays over ONE keep-alive connection.
    let (status, _, first) = request(&mut w, &mut r, "POST", "/query", None, Some(&line));
    assert_eq!(status, 200);
    let (status, _, second) = request(&mut w, &mut r, "POST", "/query", None, Some(&line));
    assert_eq!(status, 200);
    assert_eq!(
        first, second,
        "cold and cache-warm replies must be byte-identical"
    );
    assert_eq!(
        String::from_utf8(first).expect("utf8 body"),
        stdin_bytes(),
        "HTTP /query bytes must equal the stdin frontend's array line"
    );

    // The same connection scrapes /metrics: the counters are exposed
    // in Prometheus text format.
    let (status, headers, metrics) = request(&mut w, &mut r, "GET", "/metrics", None, None);
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.contains("version=0.0.4")));
    let text = String::from_utf8(metrics).expect("metrics utf8");
    assert!(text.lines().any(|l| l.starts_with("serve_requests ")));
    drop(w);
    drop(r);
    shutdown(addr, handle);
}

#[test]
fn stats_route_reports_the_global_registry() {
    let (addr, handle) = boot();
    let (mut w, mut r) = connect(addr);
    let (status, _, _) = request(
        &mut w,
        &mut r,
        "POST",
        "/query",
        None,
        Some(r#"{"kind":"table","id":2}"#),
    );
    assert_eq!(status, 200);
    let (status, _, body) = request(&mut w, &mut r, "GET", "/stats", None, None);
    assert_eq!(status, 200);
    let envelope = pvc_core::json::parse(std::str::from_utf8(&body).unwrap().trim())
        .expect("stats envelope parses");
    let result = envelope.get("result").expect("stats carries a result");
    let Json::Obj(fields) = result else {
        panic!("stats result is an object");
    };
    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        ["counters", "flight_recorder", "gauges", "quantiles"],
        "the stats body is the global registry and the flight recorder, nothing else"
    );
    let counter = |name: &str| match result.get("counters").and_then(|c| c.get(name)) {
        Some(Json::Int(v)) => *v,
        _ => 0,
    };
    assert_eq!(
        counter("serve.cache.hit") + counter("serve.cache.miss"),
        1,
        "exactly one catalog request so far"
    );
    drop(w);
    drop(r);
    shutdown(addr, handle);
}

#[test]
fn catalog_routes_negotiate_content_type() {
    let (addr, handle) = boot();
    let (mut w, mut r) = connect(addr);

    // text/plain unwraps the rendered table text.
    let (status, headers, body) =
        request(&mut w, &mut r, "GET", "/table/2", Some("text/plain"), None);
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("text/plain")));
    let text = String::from_utf8(body).expect("utf8");
    assert_eq!(text, pvc_report::tables::render_table2());

    // Default (no Accept) answers the canonical JSON envelope.
    let (status, headers, body) = request(&mut w, &mut r, "GET", "/table/2", None, None);
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("application/json")));
    let envelope = pvc_core::json::parse(std::str::from_utf8(&body).unwrap().trim())
        .expect("envelope parses");
    assert!(envelope.get("result").is_some());

    // Figure 1 negotiates CSV.
    let (status, headers, body) =
        request(&mut w, &mut r, "GET", "/figure/1", Some("text/csv"), None);
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "content-type" && v.starts_with("text/csv")));
    assert!(std::str::from_utf8(&body)
        .expect("utf8")
        .starts_with("footprint_bytes,"));

    // Unknown routes 404 without killing the connection.
    let (status, _, _) = request(&mut w, &mut r, "GET", "/nope", None, None);
    assert_eq!(status, 404);
    let (status, _, _) = request(&mut w, &mut r, "GET", "/healthz", None, None);
    assert_eq!(status, 200, "connection survives a 404");
    drop(w);
    drop(r);
    shutdown(addr, handle);
}

#[test]
fn client_disconnects_do_not_kill_the_http_frontend() {
    let (addr, handle) = boot();
    // Half a request, then vanish.
    {
        let mut broken = TcpStream::connect(addr).expect("connect");
        broken.write_all(b"POST /query HTTP/1.1\r\nContent-Le").expect("partial");
    }
    // A body that never arrives.
    {
        let mut liar = TcpStream::connect(addr).expect("connect");
        liar.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n{")
            .expect("headers only");
    }
    let (mut w, mut r) = connect(addr);
    let (status, _, body) = request(&mut w, &mut r, "GET", "/healthz", None, None);
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");
    drop(w);
    drop(r);
    shutdown(addr, handle);
}

/// A 1 MiB request line: an ablation request whose `name` is one string
/// of about a million bytes, ASCII and multi-byte UTF-8 mixed. Returns
/// the line and the name.
fn hostile_body() -> (String, String) {
    const LEN: usize = 1 << 20;
    let (head, tail) = (r#"{"kind":"ablation","name":""#, r#""}"#);
    let room = LEN - head.len() - tail.len();
    let mut name = "xe–core é ".repeat(room / "xe–core é ".len());
    name.push_str(&"x".repeat(room - name.len()));
    let line = format!("{head}{name}{tail}");
    assert_eq!(line.len(), LEN);
    (line, name)
}

/// The typed answer to [`hostile_body`]: an unknown ablation is the
/// client's mistake (`bad_request`). The request echo carries the whole
/// name; the detail quotes it clipped to `DETAIL_CAP` bytes.
fn assert_unknown_ablation(envelope: &Json, name: &str) {
    let error = envelope.get("error").expect("an error envelope");
    assert_eq!(error.get("kind"), Some(&Json::str("bad_request")));
    let detail = error.get("detail").and_then(Json::as_str).expect("detail");
    assert!(detail.len() <= DETAIL_CAP, "detail is {} bytes", detail.len());
    let quoted = detail.strip_suffix('…').expect("a clipped detail ends in '…'");
    assert!(format!("unknown ablation '{name}'").starts_with(quoted));
    let echoed = envelope.get("request").and_then(|r| r.get("name"));
    assert_eq!(echoed, Some(&Json::str(name)));
}

#[test]
fn a_one_mib_string_field_gets_its_envelope_and_the_next_request_is_served() {
    let (line, name) = hostile_body();
    let service = Service::new(CatalogExecutor, ServeConfig::default());
    let envelope = pvc_core::json::parse(&service.handle_line(&line)).expect("one envelope");
    assert_unknown_ablation(&envelope, &name);
    let healthy = service.handle_line(r#"{"kind":"table","id":2}"#);
    assert!(healthy.contains(r#""result":{"text":"#), "{healthy}");
}

#[test]
fn a_one_mib_query_body_gets_its_envelope_over_http_and_the_server_stays_up() {
    let (line, name) = hostile_body();
    let want = format!(
        "{}\n",
        Service::new(CatalogExecutor, ServeConfig::default()).handle_line(&line)
    );
    let (addr, handle) = boot();
    let (mut w, mut r) = connect(addr);
    let (status, _, body) = request(&mut w, &mut r, "POST", "/query", None, Some(&line));
    assert_eq!(status, 200);
    let body = String::from_utf8(body).expect("utf8 body");
    assert!(body == want, "the HTTP answer must equal the stdin frontend's line");
    // The request echoed once, the clipped detail, the envelope fields.
    assert!(
        body.len() <= line.len() + DETAIL_CAP + 256,
        "a {} B request answered with {} B",
        line.len(),
        body.len()
    );
    let envelope = pvc_core::json::parse(body.trim_end()).expect("envelope parses");
    assert_unknown_ablation(&envelope, &name);
    // The same connection is still served.
    let table2 = Some(r#"{"kind":"table","id":2}"#);
    let (status, _, body) = request(&mut w, &mut r, "POST", "/query", None, table2);
    assert_eq!(status, 200);
    let envelope = pvc_core::json::parse(std::str::from_utf8(&body).unwrap().trim_end())
        .expect("table 2 envelope parses");
    assert!(envelope.get("result").is_some());
    drop(w);
    drop(r);
    shutdown(addr, handle);
}

/// `GET /trace` is a catalog request: its body is the profiler's
/// Chrome trace byte for byte, a repeat is a cache hit, the content
/// type follows `Accept`, and an unknown workload is a typed 400.
#[test]
fn trace_route_is_served_cached_and_typed() {
    let want = pvc_report::profile::run("pcie-h2d", pvc_arch::System::Aurora)
        .expect("pcie-h2d profiles")
        .trace_json;
    let (addr, handle) = boot();
    let (mut w, mut r) = connect(addr);
    let path = "/trace/pcie-h2d/aurora";
    let (status, headers, body) = request(&mut w, &mut r, "GET", path, None, None);
    assert_eq!(status, 200);
    assert!(body == want.as_bytes(), "the trace route serves the profiler's trace");
    let content_type = |headers: &[(String, String)]| {
        headers
            .iter()
            .find(|(n, _)| n == "content-type")
            .map(|(_, v)| v.clone())
            .expect("content type")
    };
    assert_eq!(content_type(&headers), "application/json");

    let chrome = Some("application/x-chrome-trace");
    let (status, headers, again) = request(&mut w, &mut r, "GET", path, chrome, None);
    assert_eq!(status, 200);
    assert_eq!(again, body);
    assert_eq!(content_type(&headers), "application/x-chrome-trace");

    let (status, _, metrics) = request(&mut w, &mut r, "GET", "/metrics", None, None);
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).expect("metrics utf8");
    for line in ["serve_requests 2", "serve_cache_miss 1", "serve_cache_hit 1"] {
        assert!(metrics.lines().any(|l| l == line), "{line} missing:\n{metrics}");
    }
    assert!(metrics.contains("serve_cost_trace_count 2"), "{metrics}");

    let (status, headers, body) =
        request(&mut w, &mut r, "GET", "/trace/warpdrive/aurora", None, None);
    assert_eq!(status, 400);
    assert_eq!(content_type(&headers), "application/json");
    let envelope = pvc_core::json::parse(std::str::from_utf8(&body).unwrap().trim_end())
        .expect("error envelope parses");
    let kind = envelope.get("error").and_then(|e| e.get("kind"));
    assert_eq!(kind, Some(&Json::str("bad_request")), "{}", envelope.compact());
    drop(w);
    drop(r);
    shutdown(addr, handle);
}

/// `GET /run/W/S` with `Accept: text/plain` answers exactly what
/// `reproduce run W S` prints.
#[test]
fn run_route_text_equals_the_run_verb() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["run", "stream-triad", "aurora"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let (addr, handle) = boot();
    let (mut w, mut r) = connect(addr);
    let path = "/run/stream-triad/aurora";
    let (status, _, body) = request(&mut w, &mut r, "GET", path, Some("text/plain"), None);
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap(), String::from_utf8(out.stdout).unwrap());
    drop(w);
    drop(r);
    shutdown(addr, handle);
}
