//! Drains that no client connection wakes: a shutdown signal and a
//! programmatic [`Server::begin_drain`], each with nothing connected.
//!
//! The accept loop blocks in `accept`, so these pass only if the drain
//! itself wakes it. A signal sets the process-wide [`svr_sim::shutdown`]
//! flag, which is why this suite is a test binary of its own, and why its
//! tests take turns.

use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use svr_serve::{http, Server, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Serializes the tests: the shutdown flag is shared by every server in
/// the process.
static TURN: Mutex<()> = Mutex::new(());

/// Starts `srv` on an ephemeral port; the receiver yields `serve`'s result.
fn spawn_server(srv: &Arc<Server>) -> (String, mpsc::Receiver<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let srv = Arc::clone(srv);
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(srv.serve(listener));
    });
    (addr, rx)
}

/// A fresh server on its own temp cache, proven up by one `/v1/healthz`.
fn ready_server(tag: &str) -> (Arc<Server>, mpsc::Receiver<std::io::Result<()>>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("svr-sigdrain-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 2,
        ..ServerConfig::default()
    });
    let (addr, done) = spawn_server(&srv);
    let resp = http::request(&addr, "GET", "/v1/healthz", None, TIMEOUT, |_| {})
        .expect("healthz");
    assert_eq!(resp.status, 200);
    (srv, done, dir)
}

#[test]
fn shutdown_signal_drains_an_idle_server() {
    let _turn = TURN.lock().unwrap_or_else(|p| p.into_inner());
    let (_srv, done, dir) = ready_server("signal");
    svr_sim::shutdown::request();
    let result = done.recv_timeout(Duration::from_secs(2));
    svr_sim::shutdown::reset();
    result
        .expect("serve must return within 2 s of a shutdown signal")
        .expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn begin_drain_wakes_an_idle_accept() {
    let _turn = TURN.lock().unwrap_or_else(|p| p.into_inner());
    let (srv, done, dir) = ready_server("begin");
    srv.begin_drain();
    done.recv_timeout(Duration::from_secs(1))
        .expect("serve must return within 1 s of begin_drain")
        .expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}
