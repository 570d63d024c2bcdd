//! The daemon's stderr is one JSON object per line — including diagnostics
//! raised by the sweep-layer resolver it shares with bench sweeps. A corrupt
//! cache entry planted before startup makes the resolver quarantine it,
//! which must surface as a structured `cache_quarantined` event.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Duration;
use svr_serve::http;
use svr_sim::json::Json;
use svr_sim::{point_key, ResultCache, RunOptions, SimConfig};
use svr_workloads::Scale;

const TIMEOUT: Duration = Duration::from_secs(120);

#[test]
fn daemon_stderr_is_one_json_object_per_line() {
    let dir = std::env::temp_dir().join(format!("svr-stderr-json-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let key = point_key(
        "Camel",
        Scale::Tiny,
        &SimConfig::inorder(),
        &RunOptions::default(),
    );
    std::fs::write(ResultCache::new(&dir).entry_path(key.hash), b"{ not json")
        .expect("plant a corrupt cache entry");

    let mut child = Command::new(env!("CARGO_BIN_EXE_svr_serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--cache-dir"])
        .arg(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn svr_serve");
    // Drain stderr on its own thread so the daemon never blocks on a full pipe.
    let mut stderr = child.stderr.take().expect("stderr pipe");
    let stderr = std::thread::spawn(move || {
        let mut text = String::new();
        stderr.read_to_string(&mut text).map(|_| text)
    });
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("stdout pipe"))
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first stdout line {line:?}"))
        .to_string();

    let body = r#"{"client":"t","points":[{"workload":"Camel","config":"InO","scale":"tiny","mode":"detailed"}]}"#;
    let resp = http::request(
        &addr,
        "POST",
        "/v1/jobs",
        Some(body.as_bytes()),
        TIMEOUT,
        |_| {},
    )
    .expect("submit");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let doc = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("submit response");
    let hash = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .and_then(|jobs| jobs.first())
        .and_then(|j| j.get("hash"))
        .and_then(Json::as_str)
        .expect("job hash")
        .to_string();
    // The stream ends at the job's terminal state.
    let stream = http::request(
        &addr,
        "GET",
        &format!("/v1/jobs/{hash}/stream"),
        None,
        TIMEOUT,
        |_| {},
    )
    .expect("stream");
    let stream = String::from_utf8_lossy(&stream.body).to_string();
    assert!(
        stream.contains(r#""state":"done""#),
        "job did not finish:\n{stream}"
    );
    http::request(&addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {}).expect("shutdown");
    let status = child.wait().expect("daemon exit");
    let stderr = stderr.join().expect("stderr thread").expect("read stderr");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "daemon exited {status}:\n{stderr}");

    let mut events = Vec::new();
    for line in stderr.lines() {
        let obj =
            Json::parse(line).unwrap_or_else(|e| panic!("stderr line is not JSON ({e}): {line}"));
        let event = obj
            .get("event")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("stderr line has no event: {line}"));
        events.push(event.to_string());
    }
    assert!(
        events.iter().any(|e| e == "cache_quarantined"),
        "no cache_quarantined event in:\n{stderr}"
    );
}
