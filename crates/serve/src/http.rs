//! A zero-dependency HTTP/1.1 server primitive for the serve frontends.
//!
//! Deliberately minimal — `std::net` only, no TLS, no compression, no
//! async — but correct on the subset the serving stack needs:
//!
//! * request-line + header parsing with bounded sizes: the head is read
//!   as bytes within `MAX_HEAD`, so a line that never ends costs at
//!   most that much (oversized input answers `431`, malformed or
//!   non-UTF-8 input `400`, and the connection closes);
//! * `Content-Length` request bodies (the only kind a query client
//!   sends);
//! * **keep-alive** by default on HTTP/1.1 (`Connection: close`
//!   honoured, HTTP/1.0 closes unless `keep-alive` is asked for);
//! * **chunked** transfer-encoding for large response bodies, fixed
//!   `Content-Length` for small ones;
//! * content-type negotiation left to the handler via the parsed
//!   `Accept` header.
//!
//! Determinism note: responses carry **no `Date` header** and no other
//! wall-clock artifact, so two replays of the same request script
//! produce byte-identical response streams — the HTTP frontend inherits
//! the workspace's double-run gate.
//!
//! The accept loop is single-threaded: one connection is served to
//! completion before the next is accepted. The service behind it is one
//! cache, one store and one queue on one thread, and a serial accept
//! loop is what makes `cmp`-based byte-identity CI gates meaningful.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

/// Largest accepted request head (request line + headers), bytes.
const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted request body, bytes.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Response bodies above this are sent chunked (exercises the client's
/// de-chunking path and keeps memory bounded on huge tables).
const CHUNK_THRESHOLD: usize = 4096;
/// Chunk payload size for chunked responses.
const CHUNK_SIZE: usize = 4096;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// The request target as sent (path + optional query string).
    pub target: String,
    /// The path component of the target (no query string).
    pub path: String,
    /// Lowercased header name → value (last occurrence wins).
    pub headers: Vec<(String, String)>,
    /// The request body (empty when none was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The value of header `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The `Accept` header, defaulting to `*/*`.
    pub fn accept(&self) -> &str {
        self.header("accept").unwrap_or("*/*")
    }

    /// True when the client asked to keep the connection open after
    /// this exchange (HTTP/1.1 default; HTTP/1.0 opt-in).
    fn keep_alive(&self, http11: bool) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => http11,
        }
    }
}

/// One response under construction. Status + content type + body;
/// framing (content-length vs chunked, keep-alive) is the writer's job.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK` response.
    pub fn ok(content_type: &str, body: Vec<u8>) -> HttpResponse {
        HttpResponse { status: 200, content_type: content_type.to_string(), body }
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: format!("{message}\n").into_bytes(),
        }
    }
}

/// The canonical reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        _ => "Internal Server Error",
    }
}

/// What reading one request off a connection produced.
enum ReadOutcome {
    /// A parsed request and whether the connection was HTTP/1.1.
    Request(Box<HttpRequest>, bool),
    /// Clean end of connection (EOF before any request byte).
    Closed,
    /// Malformed or oversized input: answer this status and close.
    Reject(u16, &'static str),
}

/// Reads one request head + body. Bounded: never reads more than
/// `MAX_HEAD` + `MAX_BODY` bytes per request. Head lines are read as
/// bytes through a `take` of what is left of `MAX_HEAD`, so a line
/// without a newline cannot grow past it; the head decodes as UTF-8
/// only once complete.
fn read_request(reader: &mut BufReader<TcpStream>) -> std::io::Result<ReadOutcome> {
    let mut head = Vec::new();
    let mut left = MAX_HEAD as u64;
    loop {
        if left == 0 {
            return Ok(ReadOutcome::Reject(431, "request head too large"));
        }
        let start = head.len();
        let n = reader.by_ref().take(left).read_until(b'\n', &mut head)?;
        left -= n as u64;
        if n == 0 || (head[start..].last() != Some(&b'\n') && left > 0) {
            return Ok(if head.is_empty() {
                ReadOutcome::Closed
            } else {
                ReadOutcome::Reject(400, "truncated request")
            });
        }
        let line = &head[start..];
        if line.ends_with(b"\n") && line.trim_ascii().is_empty() {
            head.truncate(start);
            if head.is_empty() {
                // Tolerate leading blank lines between pipelined requests.
                continue;
            }
            break;
        }
    }
    let Ok(head) = String::from_utf8(head) else {
        return Ok(ReadOutcome::Reject(400, "request head is not UTF-8"));
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Ok(ReadOutcome::Reject(400, "malformed request line"));
    };
    let http11 = version == "HTTP/1.1";
    if !http11 && version != "HTTP/1.0" {
        return Ok(ReadOutcome::Reject(400, "unsupported protocol version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Ok(ReadOutcome::Reject(400, "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut req = HttpRequest {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        path: target.split('?').next().unwrap_or(target).to_string(),
        headers,
        body: Vec::new(),
    };
    if let Some(len) = req.header("content-length") {
        let Ok(len) = len.parse::<usize>() else {
            return Ok(ReadOutcome::Reject(400, "bad content-length"));
        };
        if len > MAX_BODY {
            return Ok(ReadOutcome::Reject(413, "request body too large"));
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        req.body = body;
    } else if req
        .header("transfer-encoding")
        .is_some_and(|t| !t.eq_ignore_ascii_case("identity"))
    {
        return Ok(ReadOutcome::Reject(400, "chunked request bodies unsupported"));
    }
    Ok(ReadOutcome::Request(Box::new(req), http11))
}

/// Writes `resp`, choosing fixed-length or chunked framing. No `Date`
/// header: byte-determinism is part of this server's contract.
fn write_response(
    stream: &mut TcpStream,
    resp: &HttpResponse,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: {connection}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
    );
    if resp.body.len() > CHUNK_THRESHOLD {
        head.push_str("Transfer-Encoding: chunked\r\n\r\n");
        stream.write_all(head.as_bytes())?;
        for chunk in resp.body.chunks(CHUNK_SIZE) {
            stream.write_all(format!("{:x}\r\n", chunk.len()).as_bytes())?;
            stream.write_all(chunk)?;
            stream.write_all(b"\r\n")?;
        }
        stream.write_all(b"0\r\n\r\n")?;
    } else {
        head.push_str(&format!("Content-Length: {}\r\n\r\n", resp.body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(&resp.body)?;
    }
    stream.flush()
}

/// Control flow returned by an HTTP handler alongside the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Keep serving (connection policy decided by the client headers).
    Continue,
    /// Finish this connection, then stop accepting: graceful shutdown.
    Shutdown,
}

/// Serves `listener` until a handler asks for shutdown. The handler
/// maps one parsed request to one response plus an [`After`] verdict;
/// per-connection I/O errors (client disconnects mid-request) drop the
/// connection and keep the server accepting — they are a client
/// problem, never a server-fatal one.
pub fn serve_http<H>(listener: &TcpListener, mut handler: H) -> std::io::Result<()>
where
    H: FnMut(&HttpRequest) -> (HttpResponse, After),
{
    for stream in listener.incoming() {
        // An accept-time error on one connection must not kill the
        // server; skip it and keep listening.
        let Ok(stream) = stream else { continue };
        match serve_connection(stream, &mut handler) {
            Ok(After::Shutdown) => return Ok(()),
            Ok(After::Continue) => {}
            // Client went away mid-exchange: their loss, next caller.
            Err(_) => {}
        }
    }
    Ok(())
}

/// Serves one connection to completion (keep-alive loop).
fn serve_connection<H>(stream: TcpStream, handler: &mut H) -> std::io::Result<After>
where
    H: FnMut(&HttpRequest) -> (HttpResponse, After),
{
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader)? {
            ReadOutcome::Closed => return Ok(After::Continue),
            ReadOutcome::Reject(status, msg) => {
                let resp = HttpResponse::error(status, msg);
                write_response(&mut writer, &resp, false)?;
                return Ok(After::Continue);
            }
            ReadOutcome::Request(req, http11) => {
                let (resp, after) = handler(&req);
                let keep_alive = req.keep_alive(http11) && after == After::Continue;
                write_response(&mut writer, &resp, keep_alive)?;
                if after == After::Shutdown {
                    return Ok(After::Shutdown);
                }
                if !keep_alive {
                    return Ok(After::Continue);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Reads one full response (head + fixed or chunked body) from a
    /// test client connection.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            let (n, v) = line.split_once(':').unwrap();
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
                reader.read_line(&mut size_line).unwrap();
                let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
                let mut chunk = vec![0u8; size + 2];
                reader.read_exact(&mut chunk).unwrap();
                if size == 0 {
                    break;
                }
                body.extend_from_slice(&chunk[..size]);
            }
        } else if let Some(len) = find("content-length") {
            let mut fixed = vec![0u8; len.parse().unwrap()];
            reader.read_exact(&mut fixed).unwrap();
            body = fixed;
        }
        (status, headers, body)
    }

    #[test]
    fn keep_alive_chunking_and_shutdown_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_http(&listener, |req| match req.path.as_str() {
                "/big" => (
                    HttpResponse::ok("text/plain", vec![b'x'; 10_000]),
                    After::Continue,
                ),
                "/echo" => (
                    HttpResponse::ok("application/json", req.body.clone()),
                    After::Continue,
                ),
                "/shutdown" => (
                    HttpResponse::ok("text/plain", b"bye\n".to_vec()),
                    After::Shutdown,
                ),
                _ => (HttpResponse::error(404, "no such route"), After::Continue),
            })
            .unwrap();
        });

        // One connection, three keep-alive exchanges.
        let client = TcpStream::connect(addr).unwrap();
        let mut w = client.try_clone().unwrap();
        let mut r = BufReader::new(client);
        let body = b"{\"a\":true}";
        w.write_all(
            format!(
                "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        w.write_all(body).unwrap();
        let (status, headers, echoed) = read_response(&mut r);
        assert_eq!(status, 200);
        assert_eq!(echoed, body);
        assert!(
            !headers.iter().any(|(n, _)| n == "date"),
            "no Date header: responses must be byte-deterministic"
        );

        w.write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, headers, big) = read_response(&mut r);
        assert_eq!(status, 200);
        assert_eq!(
            headers
                .iter()
                .find(|(n, _)| n == "transfer-encoding")
                .map(|(_, v)| v.as_str()),
            Some("chunked")
        );
        assert_eq!(big, vec![b'x'; 10_000]);

        w.write_all(b"GET /missing HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut r);
        assert_eq!(status, 404);

        // Close the keep-alive connection so the serial accept loop can
        // take the next one, which shuts the server down cleanly.
        drop(w);
        drop(r);
        let client2 = TcpStream::connect(addr).unwrap();
        let mut w2 = client2.try_clone().unwrap();
        let mut r2 = BufReader::new(client2);
        w2.write_all(b"POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, bye) = read_response(&mut r2);
        assert_eq!(status, 200);
        assert_eq!(bye, b"bye\n");
        server.join().unwrap();
    }

    /// A head line that never ends is cut off at `MAX_HEAD` with a 431,
    /// a head that is not UTF-8 gets a 400, and both leave the server
    /// answering the next client. The clients' read timeout only turns
    /// a server that never answers into a failure instead of a hang.
    #[test]
    fn unbounded_and_non_utf8_heads_are_answered_and_the_server_stays_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_http(&listener, |req| match req.path.as_str() {
                "/shutdown" => (HttpResponse::ok("text/plain", Vec::new()), After::Shutdown),
                _ => (HttpResponse::ok("text/plain", b"ok\n".to_vec()), After::Continue),
            })
            .unwrap();
        });
        let connect = || {
            let client = TcpStream::connect(addr).unwrap();
            client
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            (client.try_clone().unwrap(), BufReader::new(client))
        };

        // 100 KiB of request line, no newline, connection kept open.
        let (mut w, mut r) = connect();
        let mut line = b"GET /".to_vec();
        line.resize(100 * 1024, b'a');
        w.write_all(&line).unwrap();
        let (status, _, body) = read_response(&mut r);
        assert_eq!(status, 431);
        assert_eq!(body, b"request head too large\n");
        drop((w, r));

        let (mut w, mut r) = connect();
        w.write_all(b"GET /\xff\xfe HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, body) = read_response(&mut r);
        assert_eq!(status, 400);
        assert_eq!(body, b"request head is not UTF-8\n");
        drop((w, r));

        let (mut w, mut r) = connect();
        w.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, body) = read_response(&mut r);
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        w.write_all(b"POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut r).0, 200);
        server.join().unwrap();
    }

    #[test]
    fn client_disconnect_mid_request_does_not_kill_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            serve_http(&listener, |req| match req.path.as_str() {
                "/shutdown" => (HttpResponse::ok("text/plain", Vec::new()), After::Shutdown),
                _ => (HttpResponse::ok("text/plain", b"ok\n".to_vec()), After::Continue),
            })
            .unwrap();
        });

        // Half a request line, then hang up.
        {
            let mut broken = TcpStream::connect(addr).unwrap();
            broken.write_all(b"GET /par").unwrap();
        }
        // A promised body that never arrives.
        {
            let mut liar = TcpStream::connect(addr).unwrap();
            liar.write_all(b"POST /q HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
                .unwrap();
        }

        // The server must still answer a well-behaved client.
        let client = TcpStream::connect(addr).unwrap();
        let mut w = client.try_clone().unwrap();
        let mut r = BufReader::new(client);
        w.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, body) = read_response(&mut r);
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");
        drop(w);
        drop(r);

        let client2 = TcpStream::connect(addr).unwrap();
        let mut w2 = client2.try_clone().unwrap();
        let mut r2 = BufReader::new(client2);
        w2.write_all(b"POST /shutdown HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let (status, _, _) = read_response(&mut r2);
        assert_eq!(status, 200);
        server.join().unwrap();
    }
}
