//! A deliberately tiny HTTP/1.1 subset over [`std::net::TcpStream`].
//!
//! The registry is vendored and offline, so there is no hyper/axum to lean
//! on; the server needs exactly four things from HTTP and this module
//! provides only those:
//!
//! * parse one request (method, path, headers, `Content-Length` body),
//! * write one fixed-size response,
//! * write a `Transfer-Encoding: chunked` response incrementally (the
//!   progress stream), and
//! * issue a request and read the response back (the client side; chunked
//!   responses are surfaced chunk-by-chunk through a callback so progress
//!   lines appear live).
//!
//! Everything is `Connection: close` — one request per TCP connection. At
//! the simulation server's request rates (humans and scripts, not load
//! balancers) connection reuse buys nothing and keep-alive bookkeeping is
//! where hand-rolled HTTP servers traditionally harbor their bugs.
//!
//! Hard limits: 64 KiB of request head, 16 MiB of body. Everything beyond
//! is a parse error, never a panic (this crate is subject to the repo's
//! panic-site budget).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use svr_sim::fault::{self, FaultSite};
use svr_sim::json::Json;
use svr_workloads::Rng64;

/// Maximum bytes of request line + headers.
const MAX_HEAD: usize = 64 * 1024;
/// Maximum bytes of request/response body.
const MAX_BODY: usize = 16 * 1024 * 1024;

/// Why reading a request failed, classified so the server can answer with
/// the right status and a structured `{kind,...}` body instead of a bare
/// connection drop.
#[derive(Debug)]
pub enum ReadError {
    /// The client took too long to deliver the request (slow-loris or a
    /// stalled socket) — `408`, kind `timeout`.
    Timeout(String),
    /// The head or body exceeded a hard cap — `413`, kind `too_large`.
    TooLarge(String),
    /// Malformed or truncated request — `400`, kind `bad_request`.
    Bad(String),
}

impl ReadError {
    /// `(status, reason, kind)` for the structured error response.
    pub fn status(&self) -> (u16, &'static str, &'static str) {
        match self {
            ReadError::Timeout(_) => (408, "Request Timeout", "timeout"),
            ReadError::TooLarge(_) => (413, "Payload Too Large", "too_large"),
            ReadError::Bad(_) => (400, "Bad Request", "bad_request"),
        }
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        match self {
            ReadError::Timeout(m) | ReadError::TooLarge(m) | ReadError::Bad(m) => m,
        }
    }
}

/// Classifies one socket-read failure: blocking-with-timeout sockets
/// surface an expired timeout as `WouldBlock` or `TimedOut` depending on
/// platform.
fn classify_read_err(e: std::io::Error, what: &str) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ReadError::Timeout(format!("{what}: socket read timed out"))
        }
        _ => ReadError::Bad(format!("{what}: {e}")),
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method ("GET", "POST", ...).
    pub method: String,
    /// Request target as sent (path + optional query, no host).
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads head bytes until the `\r\n\r\n` terminator (bounded by
/// [`MAX_HEAD`]), returning the head and any body bytes already read.
///
/// `deadline` is an *overall* budget for the whole head: per-read socket
/// timeouts alone cannot stop a slow-loris client that trickles one byte
/// per interval, so the server passes `now + read_timeout` here and the
/// head as a whole must arrive within it.
fn read_head(
    stream: &mut TcpStream,
    deadline: Option<Instant>,
) -> Result<(Vec<u8>, Vec<u8>), ReadError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(pos) = find_terminator(&buf) {
            let rest = buf.split_off(pos + 4);
            buf.truncate(pos);
            return Ok((buf, rest));
        }
        if buf.len() > MAX_HEAD {
            return Err(ReadError::TooLarge("request head exceeds 64 KiB".into()));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ReadError::Timeout(
                "request head did not arrive in time".into(),
            ));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| classify_read_err(e, "read"))?;
        if n == 0 {
            return Err(ReadError::Bad("connection closed before end of head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads and parses one request from `stream`. `deadline` bounds the
/// arrival of the *whole* request (head and body); `None` waits on the
/// socket's own timeouts only.
pub fn read_request(
    stream: &mut TcpStream,
    deadline: Option<Instant>,
) -> Result<Request, ReadError> {
    let (head, mut body) = read_head(stream, deadline)?;
    let head =
        String::from_utf8(head).map_err(|_| ReadError::Bad("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_ascii_uppercase(), p.to_string()),
        _ => return Err(ReadError::Bad(format!(
            "malformed request line {request_line:?}"
        ))),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Bad(format!("malformed header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(ReadError::TooLarge("request body exceeds 16 MiB".into()));
    }
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(ReadError::Timeout(
                "request body did not arrive in time".into(),
            ));
        }
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| classify_read_err(e, "read body"))?;
        if n == 0 {
            return Err(ReadError::Bad("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Writes a complete fixed-size response and flushes. `extra_headers` are
/// emitted verbatim (e.g. `("Retry-After", "2")`).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// An in-progress `Transfer-Encoding: chunked` response; one
/// [`Chunked::send`] per progress line.
pub struct Chunked<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> Chunked<'a> {
    /// Writes the response head and returns the chunk writer.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Chunked { stream })
    }

    /// Sends one chunk (a newline is appended so each chunk is one line).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let payload = format!("{line}\n");
        let framed = format!("{:x}\r\n{payload}\r\n", payload.len());
        if fault::fires(FaultSite::ConnDropChunk) {
            // Injected mid-stream disconnect: half a frame, then the socket
            // dies. The client must see a transport error (never a clean
            // end-of-stream) and recover by retrying.
            let half = &framed.as_bytes()[..framed.len() / 2];
            let _ = self.stream.write_all(half);
            let _ = self.stream.flush();
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "injected fault: conn_drop_chunk",
            ));
        }
        self.stream.write_all(framed.as_bytes())?;
        self.stream.flush()
    }

    /// Sends the terminating zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// One parsed HTTP response (client side).
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// The body: for chunked responses, the concatenation of all chunks.
    pub body: Vec<u8>,
    /// Parsed `Retry-After` header (seconds), when the server sent one.
    pub retry_after: Option<u64>,
}

/// Issues `method path` against `addr` with an optional body and reads the
/// full response. For chunked responses, `on_chunk` is called with each
/// chunk as it arrives (progress streaming); pass `|_| {}` when not needed.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
    mut on_chunk: impl FnMut(&str),
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send {addr}: {e}"))?;

    let (head, rest) =
        read_head(&mut stream, None).map_err(|e| e.message().to_string())?;
    let head = String::from_utf8(head).map_err(|_| "response head not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    let mut chunked = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value.parse::<usize>().ok();
        } else if name == "retry-after" {
            retry_after = value.parse::<u64>().ok();
        } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
    }
    if chunked {
        let body = read_chunked(&mut stream, rest, &mut on_chunk)?;
        return Ok(ClientResponse {
            status,
            body,
            retry_after,
        });
    }
    let len = content_length.unwrap_or(0).min(MAX_BODY);
    let mut body = rest;
    while body.len() < len {
        let mut chunk = [0u8; 4096];
        let want = (len - body.len()).min(chunk.len());
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            break;
        }
        body.extend_from_slice(&chunk[..n]);
    }
    Ok(ClientResponse {
        status,
        body,
        retry_after,
    })
}

/// How [`request_with_retry`] behaves: attempt count and the jittered
/// exponential backoff between attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub attempts: u32,
    /// First backoff step; doubles per retry.
    pub base: Duration,
    /// Ceiling on any single sleep, including honored `Retry-After` values.
    pub cap: Duration,
    /// Seed for the jitter (use e.g. the pid so concurrent clients
    /// de-synchronize deterministically).
    pub seed: u64,
}

impl RetryPolicy {
    /// The default policy: 5 attempts, 100 ms doubling to a 5 s cap.
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            seed,
        }
    }
}

/// Whether a response status is worth retrying: the server said "later"
/// (429 queue-full, 503 draining) — anything else is the caller's answer.
fn retryable_status(status: u16) -> bool {
    status == 429 || status == 503
}

/// [`request`] wrapped in bounded retries: transport errors and 429/503
/// responses back off (honoring `Retry-After` when present, jittered
/// exponential otherwise, both capped by the policy) and try again.
/// Returns the last error / non-retryable response. Safe for `POST
/// /v1/jobs` because the server's registry dedups resubmissions by content
/// hash.
pub fn request_with_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    timeout: Duration,
    policy: &RetryPolicy,
    mut on_chunk: impl FnMut(&str),
) -> Result<ClientResponse, String> {
    let mut rng = Rng64::new(policy.seed);
    let mut backoff = policy.base;
    let attempts = policy.attempts.max(1);
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        let (sleep, why) = match request(addr, method, path, body, timeout, &mut on_chunk) {
            Ok(resp) if retryable_status(resp.status) && attempt < attempts => {
                // Honor the server's Retry-After; fall back to our own
                // backoff schedule when it didn't send one.
                let sleep = resp
                    .retry_after
                    .map(Duration::from_secs)
                    .unwrap_or(backoff)
                    .min(policy.cap);
                last_err = format!("status {}", resp.status);
                (sleep, format!("status {}", resp.status))
            }
            Ok(resp) => return Ok(resp),
            Err(e) if attempt < attempts => {
                last_err = e.clone();
                (backoff.min(policy.cap), e)
            }
            Err(e) => return Err(format!("{e} (after {attempts} attempts)")),
        };
        let jittered = jitter(sleep, &mut rng);
        svr_sim::log::warn(
            "client_retry",
            &[
                ("method", Json::str(method)),
                ("path", Json::str(path)),
                ("why", Json::str(&why)),
                ("delay_ms", Json::u64(jittered.as_millis() as u64)),
                ("attempt", Json::u64(attempt as u64)),
                ("attempts", Json::u64(attempts as u64)),
            ],
        );
        std::thread::sleep(jittered);
        backoff = (backoff * 2).min(policy.cap);
    }
    Err(format!("{last_err} (after {attempts} attempts)"))
}

/// Half the duration plus a random half, so synchronized clients spread out.
fn jitter(d: Duration, rng: &mut Rng64) -> Duration {
    let ms = d.as_millis() as u64;
    let half = ms / 2;
    Duration::from_millis(half + rng.below(half + 1)).max(Duration::from_millis(1))
}

/// Decodes a chunked body, invoking `on_chunk` per chunk.
fn read_chunked(
    stream: &mut TcpStream,
    mut buf: Vec<u8>,
    on_chunk: &mut impl FnMut(&str),
) -> Result<Vec<u8>, String> {
    let mut body = Vec::new();
    loop {
        // Ensure one full size line is buffered.
        let line_end = loop {
            if let Some(pos) = buf.windows(2).position(|w| w == b"\r\n") {
                break pos;
            }
            if !fill(stream, &mut buf)? {
                return Err("connection closed mid-chunk-size".into());
            }
        };
        let size_line = String::from_utf8_lossy(&buf[..line_end]).to_string();
        buf.drain(..line_end + 2);
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        if size == 0 {
            return Ok(body);
        }
        if size > MAX_BODY || body.len() + size > MAX_BODY {
            return Err("chunked body exceeds 16 MiB".into());
        }
        while buf.len() < size + 2 {
            if !fill(stream, &mut buf)? {
                return Err("connection closed mid-chunk".into());
            }
        }
        let chunk: Vec<u8> = buf.drain(..size).collect();
        buf.drain(..2.min(buf.len())); // trailing \r\n
        on_chunk(String::from_utf8_lossy(&chunk).trim_end());
        body.extend_from_slice(&chunk);
    }
}

/// Reads more bytes into `buf`; `Ok(false)` on EOF.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<bool, String> {
    let mut chunk = [0u8; 4096];
    let n = stream
        .read(&mut chunk)
        .map_err(|e| format!("read: {e}"))?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n > 0)
}
