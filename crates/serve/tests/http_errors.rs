//! Hostile-connection tests: raw TCP clients that violate the protocol
//! (oversized heads, oversized bodies, malformed request lines, slow-loris
//! trickles, mid-body abandonment) must ALWAYS get a structured
//! `{kind,...}` JSON error with the right status — never a bare connection
//! drop, never a panic, never an unclassified 400.
//!
//! No fault injection here: these are real misbehaving clients against an
//! unmodified server, so the suite runs in parallel like any other.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use svr_serve::{http, Server, ServerConfig};
use svr_sim::json::Json;

const TIMEOUT: Duration = Duration::from_secs(60);

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svr-httperr-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Binds an ephemeral port and runs `srv` on it in a background thread.
fn spawn_server(srv: &Arc<Server>) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let srv = Arc::clone(srv);
    let handle = std::thread::spawn(move || srv.serve(listener));
    (addr, handle)
}

fn shutdown_server(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let resp = http::request(addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {})
        .expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join().expect("serve thread").expect("clean drain");
}

/// Reads the raw response off a socket to EOF and returns
/// `(status, parsed JSON body)`. Panics on a bare drop (empty response) —
/// that is exactly the behavior this suite exists to forbid.
fn read_response(stream: &mut TcpStream) -> (u16, Json) {
    let _ = stream.set_read_timeout(Some(TIMEOUT));
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("reading response: {e}"),
        }
    }
    let text = String::from_utf8_lossy(&raw).to_string();
    assert!(
        !text.is_empty(),
        "server dropped the connection without a response"
    );
    let status: u16 = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {text:?}"));
    let body_at = text.find("\r\n\r\n").expect("response has a head") + 4;
    let body = Json::parse(&text[body_at..])
        .unwrap_or_else(|e| panic!("response body is not JSON ({e}): {text:?}"));
    (status, body)
}

fn kind(body: &Json) -> Option<&str> {
    body.get("kind").and_then(Json::as_str)
}

#[test]
fn oversized_head_gets_413_too_large() {
    let dir = temp_cache("head");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    // One byte past the point where the server's 1 KiB-chunked reader trips
    // the 64 KiB cap — and exactly what it will consume, so the close is
    // clean (no RST racing the response).
    let flood = vec![b'X'; 65 * 1024];
    stream.write_all(&flood).expect("flood");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 413, "{}", body.pretty());
    assert_eq!(kind(&body), Some("too_large"), "{}", body.pretty());
    assert!(
        body.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("64 KiB")),
        "{}",
        body.pretty()
    );

    shutdown_server(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_declared_body_gets_413_without_reading_it() {
    let dir = temp_cache("body");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    // Declare a 17 MiB body but send none of it: the server must reject on
    // the declaration alone instead of buffering 17 MiB first.
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        17 * 1024 * 1024
    );
    stream.write_all(head.as_bytes()).expect("head");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 413, "{}", body.pretty());
    assert_eq!(kind(&body), Some("too_large"), "{}", body.pretty());
    assert!(
        body.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("16 MiB")),
        "{}",
        body.pretty()
    );

    shutdown_server(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_request_line_gets_400_bad_request() {
    let dir = temp_cache("garbage");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    // A single-token request line (no path) cannot parse as METHOD PATH.
    stream.write_all(b"garbage\r\n\r\n").expect("send");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{}", body.pretty());
    assert_eq!(kind(&body), Some("bad_request"), "{}", body.pretty());

    shutdown_server(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_loris_gets_408_timeout() {
    let dir = temp_cache("loris");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        // Short budget so the test is fast; a real deployment uses seconds.
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    // Send a fragment of a request line and then... nothing. The server's
    // overall head budget must expire and answer 408 — not hold the
    // connection slot forever, not drop it silently.
    stream.write_all(b"GET /v1/sta").expect("fragment");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 408, "{}", body.pretty());
    assert_eq!(kind(&body), Some("timeout"), "{}", body.pretty());

    shutdown_server(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trickled_head_is_bounded_by_the_overall_budget() {
    let dir = temp_cache("trickle");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    // The classic slow-loris: keep the per-read timeout from ever firing by
    // trickling one byte at a time. Only an overall deadline stops this.
    let stream = TcpStream::connect(&addr).expect("connect");
    let writer = std::thread::spawn(move || {
        let mut stream = stream;
        for b in b"GET /v1/status HTTP/1.1\r\n" {
            if stream.write_all(&[*b]).is_err() {
                break; // server gave up on us, as it should
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        stream
    });
    let mut stream = writer.join().expect("writer thread");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 408, "{}", body.pretty());
    assert_eq!(kind(&body), Some("timeout"), "{}", body.pretty());

    shutdown_server(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abandoned_mid_body_gets_400_not_a_hang() {
    let dir = temp_cache("abandon");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let head = format!(
        "POST /v1/jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 100\r\n\r\n"
    );
    stream.write_all(head.as_bytes()).expect("head");
    stream.write_all(b"{\"truncated").expect("partial body");
    stream.shutdown(Shutdown::Write).expect("half close");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 400, "{}", body.pretty());
    assert_eq!(kind(&body), Some("bad_request"), "{}", body.pretty());
    assert!(
        body.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("mid-body")),
        "{}",
        body.pretty()
    );

    shutdown_server(&addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_reports_ready_then_draining() {
    let dir = temp_cache("healthz");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let resp = http::request(&addr, "GET", "/v1/healthz", None, TIMEOUT, |_| {})
        .expect("healthz");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("json");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("draining").and_then(Json::as_bool), Some(false));

    // Once draining, readiness flips to 503 so load balancers stop routing.
    // The accept loop stops at drain, so pre-open the connection: it sits
    // ahead of the drain's wake connection in the backlog, so it is still
    // accepted and answered.
    let mut held = TcpStream::connect(&addr).expect("connect before drain");
    srv.begin_drain();
    held.write_all(format!("GET /v1/healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send healthz");
    let (status, doc) = read_response(&mut held);
    assert_eq!(status, 503, "{}", doc.pretty());
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("draining"));

    handle.join().expect("serve thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}
