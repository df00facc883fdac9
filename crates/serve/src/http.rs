//! A hand-rolled HTTP/1.1 server over `std::net::TcpListener`.
//!
//! The build environment has no route to crates.io (see the workspace
//! `shims/` policy), so the server speaks just enough HTTP/1.1 for the
//! service's needs: request line + headers, `Content-Length` bodies,
//! `Connection: close` on every response (no keep-alive, no chunked
//! encoding, no TLS). That subset is what `curl` and the CI smoke job
//! exercise, and keeping it small keeps the attack surface auditable —
//! every byte of an untrusted request flows through the hardened parser in
//! `bench::json` or the bounded reader here.
//!
//! ## Threading model
//!
//! One acceptor thread plus a fixed pool of connection workers fed over an
//! `mpsc` channel. Each worker handles one connection at a time,
//! start-to-finish (requests are short: even a 10 000-point replay batch is
//! sub-second). Inside a single `/v1/whatif` request the batch is *also*
//! fanned across `workers` compute threads by the bench engine's
//! work-index loop, whose slot-per-point discipline is what keeps response
//! bytes identical at any worker count.
//!
//! ## Shutdown and deadlines
//!
//! [`Server::shutdown`] (or `POST /v1/shutdown`) flips an atomic flag and
//! self-connects to unblock `accept`; the acceptor then drops the channel
//! sender and every worker drains and exits, so in-flight responses finish
//! before the process does. Each connection gets a wall-clock budget
//! ([`ServeOpts::deadline_ms`]) enforced through socket read/write
//! timeouts; a request that cannot be read in time gets `408` and the
//! connection is dropped. The deadline is the one legitimate wall-clock
//! read in this crate (waived as ND002 in the audit): it bounds hostile
//! slow-loris clients and never reaches simulation state.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::cache::DEFAULT_CACHE_CAPACITY;
use crate::service::{stats_body, Service};

/// Largest accepted request body. A 10 000-point batch is ~200 KB; 4 MiB
/// leaves generous headroom while bounding a hostile upload.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Largest accepted request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeOpts {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral, for tests).
    pub port: u16,
    /// Connection/compute worker count.
    pub workers: usize,
    /// DAG cache capacity, entries.
    pub cache_capacity: usize,
    /// Per-request wall-clock budget, ms.
    pub deadline_ms: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            port: 7999,
            workers: numagap_bench::engine::default_jobs(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            deadline_ms: 30_000,
        }
    }
}

/// A running server: bound address plus the handles needed to stop it.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    service: Arc<Service>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the acceptor and worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port in use, permission).
    pub fn start(opts: &ServeOpts) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(Service::new(opts.workers, opts.cache_capacity));
        let deadline = Duration::from_millis(opts.deadline_ms.max(1));

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::with_capacity(opts.workers.max(1));
        for _ in 0..opts.workers.max(1) {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            workers.push(thread::spawn(move || loop {
                let conn = match rx.lock() {
                    Ok(guard) => guard.recv(),
                    Err(_) => return,
                };
                match conn {
                    Ok(stream) => {
                        handle_connection(stream, &service, &stop, deadline);
                        // If this request flipped the stop flag (POST
                        // /v1/shutdown), nudge the acceptor out of accept()
                        // so the listener actually closes.
                        if stop.load(Ordering::SeqCst) {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                    Err(_) => return, // channel closed: acceptor shut down
                }
            }));
        }

        let stop_accept = Arc::clone(&stop);
        let acceptor = thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_accept.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A send failure means every worker died; stop accepting.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
            for w in workers {
                let _ = w.join();
            }
        });

        Ok(Server {
            addr,
            stop,
            service,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service, for in-process inspection in tests.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Blocks until the server stops on its own (`POST /v1/shutdown`).
    /// The CLI foreground loop: serve until a client asks us to exit.
    pub fn wait(&mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }

    /// Requests shutdown and blocks until the pool has drained.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One parsed request.
struct Request {
    method: String,
    path: String,
    body: String,
}

/// A reply ready to serialize.
struct Reply {
    status: u16,
    body: String,
    /// Extra header lines (no trailing CRLF), e.g. the cache-status header.
    extra: Vec<String>,
}

impl Reply {
    fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            extra: Vec::new(),
        }
    }

    fn error(status: u16, message: &str) -> Reply {
        Reply::json(
            status,
            format!(
                "{{\"error\": \"{}\"}}\n",
                numagap_bench::json::escape(message)
            ),
        )
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        _ => "Internal Server Error",
    }
}

/// Reads, routes, answers, closes. Any protocol violation gets a best-effort
/// error reply; I/O failures just drop the connection.
fn handle_connection(
    stream: TcpStream,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    deadline: Duration,
) {
    let started = Instant::now();
    let reply = match read_request(&stream, started, deadline) {
        Ok(req) => guarded(|| route(&req, service, stop)),
        Err(e) => e,
    };
    let _ = write_reply(stream, &reply, started, deadline);
}

/// Runs one request's handler; a panic inside it becomes a `500` for that
/// client instead of unwinding the pool thread (which the client would see
/// as EOF, and the pool as one worker fewer for good).
///
/// Nothing the handler can reach is left half-updated by an unwind: a
/// batch's replayers are locals of the fan-out workers and die with it, the
/// stop flag is one atomic store, and the DAG cache is locked only around
/// its own lookups and inserts (see `Service::cache`).
fn guarded(handler: impl FnOnce() -> Reply) -> Reply {
    catch_unwind(AssertUnwindSafe(handler)).unwrap_or_else(|_| Reply::error(500, "internal error"))
}

/// Routes one request to its handler.
fn route(req: &Request, service: &Arc<Service>, stop: &Arc<AtomicBool>) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => Reply::json(200, "{\"status\": \"ok\"}\n".to_string()),
        ("GET", "/v1/stats") => Reply::json(200, stats_body(service)),
        ("POST", "/v1/whatif") => match service.whatif(&req.body) {
            Ok(answer) => {
                let mut reply = Reply::json(200, answer.body);
                let status = if answer.cache_hit { "hit" } else { "miss" };
                reply.extra.push(format!("X-Numagap-Cache: {status}"));
                reply
            }
            Err(bad) => Reply::error(400, &bad.0),
        },
        ("POST", "/v1/shutdown") => {
            // Flag only: the acceptor notices on its next wakeup (the
            // owning process calls Server::shutdown to join; the CI smoke
            // job follows with a connect that doubles as the unblocking
            // self-connect).
            stop.store(true, Ordering::SeqCst);
            Reply::json(200, "{\"status\": \"shutting down\"}\n".to_string())
        }
        (_, "/v1/health" | "/v1/stats" | "/v1/whatif" | "/v1/shutdown") => Reply::error(
            405,
            &format!("method {} not allowed on {}", req.method, req.path),
        ),
        ("GET" | "POST", _) => Reply::error(404, &format!("no route for {}", req.path)),
        _ => Reply::error(405, &format!("method {} not supported", req.method)),
    }
}

/// Remaining budget, or `None` once the deadline has passed.
fn remaining(started: Instant, deadline: Duration) -> Option<Duration> {
    deadline
        .checked_sub(started.elapsed())
        .filter(|d| !d.is_zero())
}

/// Reads and parses one request, enforcing head/body caps and the deadline.
fn read_request(
    stream: &TcpStream,
    started: Instant,
    deadline: Duration,
) -> Result<Request, Reply> {
    let timeout = remaining(started, deadline).ok_or_else(|| Reply::error(408, "deadline"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|_| Reply::error(500, "socket configuration failed"))?;
    let mut reader = BufReader::new(stream);

    let mut head = String::new();
    let mut request_line = String::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(Reply::error(400, "connection closed mid-request")),
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(Reply::error(408, "request head not received in time"))
            }
            Err(_) => return Err(Reply::error(400, "unreadable request head")),
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD_BYTES {
            return Err(Reply::error(413, "request head too large"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break; // end of headers
        }
        if request_line.is_empty() {
            request_line = trimmed.to_string();
        } else if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                // Digits only (`parse` alone takes `+5`), and two headers
                // must agree: which of two lengths frames the body is not
                // ours to pick.
                let value = value.trim();
                let length = value
                    .parse()
                    .ok()
                    .filter(|_| value.bytes().all(|b| b.is_ascii_digit()))
                    .filter(|length| content_length.is_none_or(|first| first == *length))
                    .ok_or_else(|| Reply::error(400, "malformed Content-Length"))?;
                content_length = Some(length);
            }
        }
    }

    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(Reply::error(400, "malformed request line"));
    }

    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(Reply::error(
            413,
            &format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"),
        ));
    }
    let mut body_bytes = vec![0u8; content_length];
    if content_length > 0 {
        let timeout = remaining(started, deadline).ok_or_else(|| Reply::error(408, "deadline"))?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|_| Reply::error(500, "socket configuration failed"))?;
        reader.read_exact(&mut body_bytes).map_err(|e| {
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
                Reply::error(408, "request body not received in time")
            } else {
                Reply::error(400, "body shorter than Content-Length")
            }
        })?;
    }
    let body = String::from_utf8(body_bytes).map_err(|_| Reply::error(400, "body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Serializes one reply. `Connection: close` always; the peer sees EOF as
/// end-of-response.
fn write_reply(
    stream: TcpStream,
    reply: &Reply,
    started: Instant,
    deadline: Duration,
) -> io::Result<()> {
    let mut stream = stream;
    // Give the writer whatever budget is left, with a small floor so error
    // replies to an expired request still usually make it out.
    let timeout = remaining(started, deadline).unwrap_or(Duration::from_millis(100));
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reply.status,
        status_text(reply.status),
        reply.body.len()
    );
    for line in &reply.extra {
        head.push_str(line);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(reply.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends `request` as written and returns the raw reply.
    fn send_raw(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }

    /// Minimal in-test HTTP client: one request, reads to EOF.
    pub(crate) fn http(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> (u16, String, String) {
        let raw = send_raw(
            addr,
            &format!(
                "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        let status: u16 = head
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        (status, head.to_string(), body.to_string())
    }

    fn test_server() -> Server {
        Server::start(&ServeOpts {
            port: 0,
            workers: 2,
            cache_capacity: 4,
            deadline_ms: 30_000,
        })
        .unwrap()
    }

    #[test]
    fn health_stats_and_errors_over_the_wire() {
        let mut server = test_server();
        let addr = server.addr();
        let (status, _, body) = http(addr, "GET", "/v1/health", "");
        assert_eq!((status, body.contains("ok")), (200, true));

        let (status, _, body) = http(addr, "GET", "/v1/stats", "");
        assert_eq!(status, 200);
        assert!(body.contains("\"capacity\": 4"), "{body}");
        assert!(
            body.contains("\"analytic\": {\"requests\": 0, \"parse_ns\": 0,"),
            "{body}"
        );

        let (status, _, _) = http(addr, "GET", "/v1/nope", "");
        assert_eq!(status, 404);
        let (status, _, _) = http(addr, "DELETE", "/v1/health", "");
        assert_eq!(status, 405);
        // A known route with the wrong method is 405, not 404.
        let (status, _, _) = http(addr, "GET", "/v1/whatif", "");
        assert_eq!(status, 405);
        let (status, _, _) = http(addr, "POST", "/v1/health", "");
        assert_eq!(status, 405);
        let (status, _, body) = http(addr, "POST", "/v1/whatif", "{not json");
        assert_eq!(status, 400);
        assert!(body.contains("error"), "{body}");
        // A seed no `u64` holds is refused, not saturated to `u64::MAX`.
        for seed in ["1e300", "18446744073709551616", "-1", "0.5"] {
            let req = format!("{{\"app\": \"asp\", \"seed\": {seed}, \"points\": [[10, 0.3]]}}");
            let (status, _, body) = http(addr, "POST", "/v1/whatif", &req);
            assert_eq!(status, 400, "{seed}");
            assert_eq!(
                body, "{\"error\": \"seed must be a non-negative integer\"}\n",
                "{seed}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn a_panicking_handler_costs_a_reply_not_the_thread() {
        let service = Arc::new(Service::new(1, 2));
        let stop = Arc::new(AtomicBool::new(false));
        // One thread stands in for a pool worker: it has to outlive the
        // panic and then answer a real request.
        let replies = thread::spawn(move || {
            let broken = guarded(|| panic!("handler bug"));
            let health = Request {
                method: "GET".to_string(),
                path: "/v1/health".to_string(),
                body: String::new(),
            };
            let next = guarded(|| route(&health, &service, &stop));
            [(broken.status, broken.body), (next.status, next.body)]
        })
        .join()
        .expect("the panic stays inside guarded()");
        assert_eq!(
            replies[0],
            (500, "{\"error\": \"internal error\"}\n".to_string())
        );
        assert_eq!(replies[1], (200, "{\"status\": \"ok\"}\n".to_string()));
    }

    #[test]
    fn whatif_round_trips_and_reports_cache_status() {
        let mut server = test_server();
        let addr = server.addr();
        let req = "{\"app\": \"asp\", \"scale\": \"small\", \"mode\": \"analytic\", \
                   \"points\": [[10.0, 0.3]]}";
        let (status, head, cold) = http(addr, "POST", "/v1/whatif", req);
        assert_eq!(status, 200, "{cold}");
        assert!(head.contains("X-Numagap-Cache: miss"), "{head}");
        let (status, head, warm) = http(addr, "POST", "/v1/whatif", req);
        assert_eq!(status, 200);
        assert!(head.contains("X-Numagap-Cache: hit"), "{head}");
        assert_eq!(cold, warm, "cache state must not leak into bodies");
        server.shutdown();
    }

    #[test]
    fn shutdown_endpoint_stops_the_server() {
        let mut server = test_server();
        let addr = server.addr();
        let (status, _, _) = http(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        server.shutdown(); // joins; must not hang
                           // The acceptor is gone: a fresh connection gets no service.
        let refused = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                s.read_to_string(&mut out).unwrap_or(0) == 0
            })
            .unwrap_or(true);
        assert!(refused, "server still answering after shutdown");
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let mut server = test_server();
        let addr = server.addr();
        let req = format!(
            "POST /v1/whatif HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let raw = send_raw(addr, &req);
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_with_400() {
        let mut server = test_server();
        let addr = server.addr();
        let raw = send_raw(
            addr,
            "POST /v1/whatif HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{} ",
        );
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        assert!(raw.contains("malformed Content-Length"), "{raw}");
        // The same length twice frames one body: it is read and routed.
        let raw = send_raw(
            addr,
            "POST /v1/whatif HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}",
        );
        assert!(raw.contains("missing string field 'app'"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn signed_content_length_is_rejected_with_400() {
        let mut server = test_server();
        let addr = server.addr();
        for length in ["+2", "-2"] {
            let raw = send_raw(
                addr,
                &format!("POST /v1/whatif HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{{}}"),
            );
            assert!(raw.starts_with("HTTP/1.1 400"), "{length}: {raw}");
            assert!(raw.contains("malformed Content-Length"), "{length}: {raw}");
        }
        server.shutdown();
    }

    #[test]
    fn a_body_that_is_one_long_string_cannot_pin_a_worker() {
        let mut server = test_server();
        let addr = server.addr();
        let (open, close) = ("{\"app\": \"", "\"}");
        let body = format!(
            "{open}{}{close}",
            "a".repeat(MAX_BODY_BYTES - open.len() - close.len())
        );
        assert_eq!(body.len(), MAX_BODY_BYTES);
        // No deadline covers the parse (they bound socket waits), so the
        // largest admissible string has to cost what its bytes cost.
        let started = Instant::now();
        let (status, _, reply) = http(addr, "POST", "/v1/whatif", &body);
        let elapsed = started.elapsed();
        assert_eq!(status, 400);
        assert!(
            reply.starts_with("{\"error\": \"unknown app 'aaa"),
            "{:.80}",
            reply
        );
        assert!(elapsed < Duration::from_secs(2), "answered in {elapsed:?}");
        server.shutdown();
    }
}
