//! The shared hand-rolled HTTP/1.1 server behind every admin and query
//! endpoint in the workspace.
//!
//! The workspace forbids `unsafe`, which rules out `epoll` FFI; readiness
//! is polled the portable way instead — a non-blocking listener, a `peek`
//! probe per connection, and a caller-owned idle sleep ([`serve`]'s own
//! loop sleeps only once traffic has paused). The transport
//! lives here (it was first hand-rolled inside `crates/query/src/http.rs`
//! and is now shared with `ripple-node`'s admin endpoints and sockets); routing
//! stays with the caller as a `FnMut(&Request) -> Response` handler.
//!
//! Two integration shapes:
//!
//! * [`PollServer`] — a pollable server object for single-threaded event
//!   loops: the node calls [`PollServer::poll`] from its own round loop,
//!   so admin requests are served between consensus work without a second
//!   thread touching node state.
//! * [`serve`] — a background-thread wrapper around the same loop for
//!   processes that want a detached server (the query store).
//!
//! Requests are `GET`-only. Connections are **keep-alive** by default
//! (HTTP/1.1 semantics, `Content-Length` on every response) and honor
//! `Connection: close` from either side; idle connections are reaped
//! after a bounded timeout, so a harness polling `/trace` twice a round
//! pays one TCP handshake total, not one per poll.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::JsonWriter;
use crate::metrics::LazyCounter;
use crate::timeseries::TimeSeries;

/// Requests with headers beyond this are refused with `431`.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// Connections beyond this are accepted and immediately shed with `503`.
const MAX_CONNS: usize = 64;

/// Keep-alive connections quiet for longer than this are reaped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// [`serve`]'s sleep between polls that find nothing to do.
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// After a poll that served a request, [`serve`] keeps polling with
/// `yield_now` for this long before it falls back to [`IDLE_SLEEP`]: a
/// closed-loop client sends its next request microseconds after the
/// reply, and one sleep per request would be all of its latency.
const HOT_WINDOW: Duration = Duration::from_millis(1);

static HTTP_REQUESTS: LazyCounter = LazyCounter::new("obs.http.requests");
static HTTP_ERRORS: LazyCounter = LazyCounter::new("obs.http.errors");
static HTTP_REUSES: LazyCounter = LazyCounter::new("obs.http.keepalive_reuses");

/// One parsed request head (GET-only, no body).
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (already validated to be `GET` by the transport).
    pub method: String,
    /// Decoded path component, e.g. `/timeseries`.
    pub path: String,
    /// Raw query string after `?` (empty when absent), for the caller's
    /// parameter parser.
    pub query: String,
}

/// One response: status, JSON body, and whether to close the connection
/// afterwards (keep-alive is the default).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always `application/json` in this workspace).
    pub body: String,
    /// Force `Connection: close` after this response.
    pub close: bool,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn json(body: String) -> Response {
        Response {
            status: 200,
            body,
            close: false,
        }
    }

    /// An error response with a `{"error": message}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            body: error_body(message),
            close: false,
        }
    }
}

/// The standard `{"error": message}` body.
fn error_body(message: &str) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("error", message);
    w.end_object();
    w.finish()
}

/// Reason phrases for the statuses the workspace's servers emit.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Accepts one pending connection from a non-blocking listener, if any.
/// The returned stream is already switched to non-blocking mode.
pub fn try_accept(listener: &TcpListener) -> Option<TcpStream> {
    match listener.accept() {
        Ok((stream, _)) => {
            stream.set_nonblocking(true).ok()?;
            Some(stream)
        }
        Err(_) => None,
    }
}

/// What a readiness probe saw on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Bytes are waiting to be read.
    Data,
    /// Nothing to read right now.
    Idle,
    /// The peer closed the connection (or the socket errored).
    Closed,
}

/// Probes a non-blocking stream for readability without consuming bytes.
pub fn probe(stream: &TcpStream) -> Probe {
    let mut byte = [0u8; 1];
    match stream.peek(&mut byte) {
        Ok(0) => Probe::Closed,
        Ok(_) => Probe::Data,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Probe::Idle,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Probe::Idle,
        Err(_) => Probe::Closed,
    }
}

/// Reads whatever is available on a non-blocking stream; `false` means
/// the peer closed or errored.
fn read_available(stream: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn find_headers_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One live connection with its partial-request buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    last_active: Instant,
    requests_served: u64,
}

/// What the request head asked the connection to do afterwards.
fn wants_close(head: &str) -> bool {
    let mut lines = head.lines();
    let version_close = lines
        .next()
        .map(|line| line.trim_end().ends_with("HTTP/1.0"))
        .unwrap_or(false);
    let mut explicit: Option<bool> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    explicit = Some(true);
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    explicit = Some(false);
                }
            }
        }
    }
    explicit.unwrap_or(version_close)
}

/// Writes one response (blocking), honoring keep-alive. Returns `false`
/// when the connection must close afterwards.
fn respond(stream: &mut TcpStream, response: &Response) -> io::Result<bool> {
    // The response can be large; switch to blocking for the write and
    // back for the next probe.
    stream.set_nonblocking(false)?;
    let keep = !response.close;
    // Head and body leave in one write: split across two, the second
    // small segment waits out Nagle + the peer's delayed ACK (~40 ms) on
    // every keep-alive reply.
    let reply = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        response.status,
        status_text(response.status),
        response.body.len(),
        if keep { "keep-alive" } else { "close" },
        response.body,
    );
    stream.write_all(reply.as_bytes())?;
    stream.flush()?;
    if keep {
        stream.set_nonblocking(true)?;
    } else {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    Ok(keep)
}

/// A pollable HTTP/1.1 server for single-threaded event loops.
pub struct PollServer {
    listener: TcpListener,
    addr: SocketAddr,
    conns: Vec<Conn>,
}

impl PollServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) without spawning anything; the
    /// owner drives it with [`PollServer::poll`].
    pub fn bind(addr: &str) -> io::Result<PollServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(PollServer {
            listener,
            addr,
            conns: Vec::new(),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accepts pending connections, serves every complete buffered
    /// request through `handler`, and reaps idle/closed connections.
    /// Returns the number of requests served (0 = nothing to do, the
    /// caller may idle-sleep).
    pub fn poll(&mut self, handler: &mut dyn FnMut(&Request) -> Response) -> usize {
        let mut served = 0usize;
        while let Some(mut stream) = try_accept(&self.listener) {
            if self.conns.len() >= MAX_CONNS {
                let _ = respond(
                    &mut stream,
                    &Response {
                        status: 503,
                        body: error_body("connection limit reached"),
                        close: true,
                    },
                );
                continue;
            }
            self.conns.push(Conn {
                stream,
                buf: Vec::new(),
                last_active: Instant::now(),
                requests_served: 0,
            });
        }
        let mut done: Vec<usize> = Vec::new();
        for (i, conn) in self.conns.iter_mut().enumerate() {
            match probe(&conn.stream) {
                Probe::Idle => {
                    if conn.last_active.elapsed() > IDLE_TIMEOUT {
                        done.push(i);
                    }
                    continue;
                }
                Probe::Closed => {
                    done.push(i);
                    continue;
                }
                Probe::Data => {}
            }
            conn.last_active = Instant::now();
            if !read_available(&mut conn.stream, &mut conn.buf) {
                // Serve what is already buffered, then close below.
                done.push(i);
            }
            if conn.buf.len() > MAX_REQUEST_BYTES {
                let _ = respond(
                    &mut conn.stream,
                    &Response {
                        status: 431,
                        body: error_body("request headers too large"),
                        close: true,
                    },
                );
                if done.last() != Some(&i) {
                    done.push(i);
                }
                conn.buf.clear();
                continue;
            }
            // Keep-alive: serve every complete pipelined request in the
            // buffer before yielding back to the caller's loop.
            while let Some(headers_end) = find_headers_end(&conn.buf) {
                let head = String::from_utf8_lossy(&conn.buf[..headers_end]).into_owned();
                conn.buf.drain(..headers_end + 4);
                let close_requested = wants_close(&head);
                let mut response = route(&head, handler);
                response.close |= close_requested;
                HTTP_REQUESTS.add(1);
                if response.status >= 400 {
                    HTTP_ERRORS.add(1);
                }
                if conn.requests_served > 0 {
                    HTTP_REUSES.add(1);
                }
                conn.requests_served += 1;
                served += 1;
                match respond(&mut conn.stream, &response) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => {
                        if done.last() != Some(&i) {
                            done.push(i);
                        }
                        break;
                    }
                }
            }
        }
        for &i in done.iter().rev() {
            self.conns.swap_remove(i);
        }
        served
    }
}

/// Parses one request head and dispatches it (method check + path/query
/// split happen here; routing happens in `handler`).
fn route(head: &str, handler: &mut dyn FnMut(&Request) -> Response) -> Response {
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        let mut r = Response::error(400, "malformed request line");
        r.close = true;
        return r;
    };
    if method != "GET" {
        return Response::error(405, "only GET is supported");
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    handler(&Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
    })
}

/// Reads one query-string parameter, percent-decoded with `+` as a space.
/// The first occurrence of `name` wins, a key with no `=` has the empty
/// value, and a `%` not followed by two hex digits stays as it is.
pub fn query_param(query: &str, name: &str) -> Option<String> {
    query
        .split('&')
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .find(|(k, _)| percent_decode(k) == name)
        .map(|(_, v)| percent_decode(v))
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let hex = |at: usize| bytes.get(at).and_then(|&b| (b as char).to_digit(16));
        match (bytes[i], hex(i + 1), hex(i + 2)) {
            (b'%', Some(hi), Some(lo)) => {
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            (b'+', ..) => {
                out.push(b' ');
                i += 1;
            }
            (byte, ..) => {
                out.push(byte);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Serves the admin routes every instrumented process shares; returns
/// `None` for paths the caller must route itself (`/health`,
/// `/timeseries`, and anything process-specific).
///
/// * `GET /metrics` — full registry snapshot (collector health published
///   into the gauges first, so `/metrics` always shows
///   `obs.trace.dropped`);
/// * `GET /trace?cursor=N` — incremental drain of the trace ring from
///   `N` (default 0) without stopping collection, as integer-only JSON
///   with the next cursor;
/// * `GET /flight` — the current flight-recorder contents (reason
///   `"live"`), same schema as a crash dump.
pub fn admin_response(node: &str, req: &Request) -> Option<Response> {
    match req.path.as_str() {
        "/metrics" => {
            crate::trace::publish_health();
            Some(Response::json(crate::metrics::snapshot().to_json()))
        }
        "/trace" => {
            let cursor = match query_param(&req.query, "cursor") {
                None => 0,
                Some(raw) => match raw.parse::<u64>() {
                    Ok(n) => n,
                    Err(_) => return Some(Response::error(400, "invalid cursor")),
                },
            };
            let chunk = crate::trace::drain_from(cursor);
            Some(Response::json(crate::trace::chunk_json(&chunk)))
        }
        "/flight" => {
            let (entries, evicted) = crate::flight::contents();
            Some(Response::json(crate::flight::to_json(
                node, "live", &entries, evicted,
            )))
        }
        _ => None,
    }
}

/// Serves `GET /timeseries?last=N` (alias `window=N`) from a ticked
/// series (the caller owns the tick cadence; the count defaults to every
/// retained window).
pub fn timeseries_response(series: &TimeSeries, query: &str) -> Response {
    let raw = query_param(query, "last").or_else(|| query_param(query, "window"));
    let last = match raw {
        None => usize::MAX,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "invalid window count"),
        },
    };
    Response::json(series.to_json(last))
}

/// A background-thread HTTP server; dropping it (or calling
/// [`HttpServer::shutdown`]) stops the loop and joins the thread.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    polls: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Polls the serve loop has made so far — about one per 2 ms while
    /// idle; a climbing rate without traffic would mean the loop spins.
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Stops the serve loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` and serves `handler` from a background thread named
/// `thread_name`.
///
/// # Errors
///
/// [`io::Error`] if the bind fails.
pub fn serve<F>(addr: &str, thread_name: &str, mut handler: F) -> io::Result<HttpServer>
where
    F: FnMut(&Request) -> Response + Send + 'static,
{
    let mut server = PollServer::bind(addr)?;
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let polls = Arc::new(AtomicU64::new(0));
    let poll_count = polls.clone();
    let handle = std::thread::Builder::new()
        .name(thread_name.to_string())
        .spawn(move || {
            let mut hot_until = Instant::now();
            while !stop_flag.load(Ordering::SeqCst) {
                poll_count.fetch_add(1, Ordering::Relaxed);
                if server.poll(&mut handler) > 0 {
                    hot_until = Instant::now() + HOT_WINDOW;
                } else if Instant::now() < hot_until {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(IDLE_SLEEP);
                }
            }
        })
        .expect("spawn httpd thread");
    Ok(HttpServer {
        addr,
        stop,
        polls,
        handle: Some(handle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn echo_server() -> HttpServer {
        serve("127.0.0.1:0", "test-httpd", |req: &Request| {
            if req.path == "/boom" {
                return Response::error(404, "no such endpoint");
            }
            let mut w = JsonWriter::pretty();
            w.begin_object();
            w.field_str("path", &req.path);
            w.field_str("query", &req.query);
            w.end_object();
            Response::json(w.finish())
        })
        .unwrap()
    }

    /// Reads one keep-alive response (headers + Content-Length body).
    fn read_response(reader: &mut impl BufRead) -> (u16, String, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status")
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        let mut connection = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => content_length = value.trim().parse().unwrap(),
                    "connection" => connection = value.trim().to_string(),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap(), connection)
    }

    #[test]
    fn query_param_decodes_and_takes_the_first_occurrence() {
        let q = "a=x%20y&b=1+2&a=second&flag&bad=%zz&tail=9%4&sp%61ce=ok";
        assert_eq!(query_param(q, "a").as_deref(), Some("x y"));
        assert_eq!(query_param(q, "b").as_deref(), Some("1 2"));
        assert_eq!(query_param(q, "flag").as_deref(), Some(""));
        assert_eq!(query_param(q, "bad").as_deref(), Some("%zz"));
        assert_eq!(query_param(q, "tail").as_deref(), Some("9%4"));
        assert_eq!(query_param(q, "space").as_deref(), Some("ok"));
        assert_eq!(query_param(q, "missing"), None);
        assert_eq!(query_param("", "a"), None);
        assert_eq!(query_param("x=%e2%82%ac", "x").as_deref(), Some("€"));
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let started = std::time::Instant::now();
        for i in 0..50 {
            // One write per request (`write!` on a raw socket splits at
            // every format argument), so only the reply can stall.
            let request = format!("GET /ping?n={i} HTTP/1.1\r\nHost: t\r\n\r\n");
            writer.write_all(request.as_bytes()).unwrap();
            let (status, body, connection) = read_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(connection, "keep-alive");
            assert!(body.contains(&format!("\"query\": \"n={i}\"")), "{body}");
        }
        // A reply split across two writes stalls ~44 ms per request on
        // Nagle + delayed ACK (2.2 s for 50), and an idle sleep after
        // every reply costs 2 ms per request; neither takes microseconds.
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_millis(250),
            "50 keep-alive requests took {elapsed:?}"
        );

        // The hot window is bounded: left without traffic, the loop is
        // back to one poll per idle sleep (a spin would read thousands).
        std::thread::sleep(HOT_WINDOW * 10);
        let (before, idle_from) = (server.polls(), Instant::now());
        std::thread::sleep(Duration::from_millis(50));
        let (idle_polls, idle) = (server.polls() - before, idle_from.elapsed());
        let sleeps = (idle.as_millis() / IDLE_SLEEP.as_millis()) as u64;
        assert!(
            idle_polls <= sleeps + 2,
            "{idle_polls} polls in an idle {idle:?}"
        );
        server.shutdown();
    }

    #[test]
    fn connection_close_is_honored() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        write!(
            writer,
            "GET /bye HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        writer.flush().unwrap();
        let (status, _, connection) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(connection, "close");
        // The server closed its half: the next read sees EOF.
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn http_10_defaults_to_close() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET / HTTP/1.0\r\n\r\n").unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("Connection: close"), "{response}");
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_all_get_answers() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        write!(
            writer,
            "GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        writer.flush().unwrap();
        let (_, body_a, _) = read_response(&mut reader);
        let (_, body_b, _) = read_response(&mut reader);
        assert!(body_a.contains("\"path\": \"/a\""), "{body_a}");
        assert!(body_b.contains("\"path\": \"/b\""), "{body_b}");
        server.shutdown();
    }

    #[test]
    fn non_get_and_unknown_paths_error_cleanly() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        write!(writer, "POST /x HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        writer.flush().unwrap();
        let (status, body, _) = read_response(&mut reader);
        assert_eq!(status, 405);
        assert!(body.contains("only GET"), "{body}");
        // The connection survives the 405 (keep-alive) for a valid retry.
        write!(writer, "GET /boom HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        writer.flush().unwrap();
        let (status, _, _) = read_response(&mut reader);
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn poll_server_is_drivable_inline() {
        let mut server = PollServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(
                stream,
                "GET /inline HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            stream.flush().unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        });
        let mut handler = |_req: &Request| Response::json("{\n  \"ok\": true\n}\n".to_string());
        let mut served = 0;
        for _ in 0..500 {
            served += server.poll(&mut handler);
            if served > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(served, 1);
        let response = client.join().unwrap();
        assert!(response.contains("\"ok\": true"), "{response}");
    }
}
