//! CLI client for the `svr_serve` daemon.
//!
//! ```text
//! svr_client submit   --addr HOST:PORT [--client NAME] [--stream] POINT...
//! svr_client status   --addr HOST:PORT
//! svr_client metrics  --addr HOST:PORT
//! svr_client shutdown --addr HOST:PORT
//! svr_client run-local [--cache-dir DIR] POINT
//! ```
//!
//! A `POINT` is `WORKLOAD:CONFIG[:SCALE[:MODE]]`, e.g. `Camel:SVR16` or
//! `PR_KR:OoO:tiny:warp` (scale defaults to `tiny`, mode to `detailed`).
//!
//! `submit` posts a batch; with `--stream` it then follows each job's
//! chunked progress stream to a terminal state, printing every event line,
//! and exits non-zero if any job errored. Transport failures and 429/503
//! responses are retried with jittered exponential backoff, honoring the
//! server's `Retry-After` header — a full queue is a "later", not an error
//! (resubmission is safe: the daemon dedups by content hash).
//! `metrics` prints the Prometheus text exposition of the daemon's
//! observability registry from `GET /v1/metrics` verbatim, for piping into
//! a scraper or `grep`.
//! `run-local` bypasses the daemon
//! entirely: it claims the point in the shared on-disk store and simulates
//! only on a claim win — two racing `run-local` processes (or a `run-local`
//! racing a daemon) cost one simulation; the output line `source=...` says
//! which side this process took.

use std::time::Duration;
use svr_serve::http;
use svr_serve::protocol::PointSpec;
use svr_sim::json::Json;
use svr_sim::{
    point_key, resolve_point, JobSource, LazyWorkload, PointStore, ResultCache, CLAIM_TIMEOUT,
};
use svr_trace::NullSink;

const TIMEOUT: Duration = Duration::from_secs(600);

/// The retry policy for daemon requests, seeded by pid so concurrent
/// clients jitter apart deterministically.
fn retry_policy() -> http::RetryPolicy {
    http::RetryPolicy::new(u64::from(std::process::id()))
}

fn usage() -> String {
    "usage:\n  svr_client submit   --addr HOST:PORT [--client NAME] [--stream] POINT...\n  \
     svr_client status   --addr HOST:PORT\n  \
     svr_client metrics  --addr HOST:PORT\n  \
     svr_client shutdown --addr HOST:PORT\n  \
     svr_client run-local [--cache-dir DIR] POINT\n\
     POINT is WORKLOAD:CONFIG[:SCALE[:MODE]] (e.g. Camel:SVR16)"
        .to_string()
}

/// Parses `WORKLOAD:CONFIG[:SCALE[:MODE]]`.
fn parse_point(arg: &str) -> Result<PointSpec, String> {
    let mut parts = arg.split(':');
    let (Some(workload), Some(config)) = (parts.next(), parts.next()) else {
        return Err(format!("point {arg:?} must be WORKLOAD:CONFIG[:SCALE[:MODE]]"));
    };
    Ok(PointSpec {
        workload: workload.to_string(),
        config: config.to_string(),
        scale: parts.next().unwrap_or("tiny").to_string(),
        mode: parts.next().unwrap_or("detailed").to_string(),
    })
}

fn submit(args: &[String]) -> Result<i32, String> {
    let mut addr = None;
    let mut client = "anonymous".to_string();
    let mut stream = false;
    let mut points = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().cloned(),
            "--client" => {
                client = it.next().cloned().ok_or("--client requires a value")?;
            }
            "--stream" => stream = true,
            other => points.push(parse_point(other)?),
        }
    }
    let addr = addr.ok_or_else(usage)?;
    if points.is_empty() {
        return Err(format!("no points given\n{}", usage()));
    }
    let body = Json::Obj(vec![
        ("client".into(), Json::str(&client)),
        (
            "points".into(),
            Json::Arr(points.iter().map(PointSpec::to_json).collect()),
        ),
    ])
    .pretty();
    let resp = http::request_with_retry(
        &addr,
        "POST",
        "/v1/jobs",
        Some(body.as_bytes()),
        TIMEOUT,
        &retry_policy(),
        |_| {},
    )?;
    let text = String::from_utf8_lossy(&resp.body).to_string();
    if resp.status != 200 {
        eprintln!("submit rejected ({}): {text}", resp.status);
        return Ok(1);
    }
    let doc = Json::parse(&text).map_err(|e| format!("bad response: {e}"))?;
    let jobs: Vec<(String, String)> = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .map(|arr| {
            arr.iter()
                .filter_map(|j| {
                    let hash = j.get("hash").and_then(Json::as_str)?;
                    let adm = j.get("admission").and_then(Json::as_str).unwrap_or("?");
                    Some((hash.to_string(), adm.to_string()))
                })
                .collect()
        })
        .unwrap_or_default();
    for (hash, admission) in &jobs {
        println!("job {hash} admission={admission}");
    }
    if !stream {
        return Ok(0);
    }
    let mut failed = 0;
    for (hash, _) in &jobs {
        // A dropped stream is retried whole: the server replays the full
        // event history on re-subscription, so no transition is lost
        // (duplicate lines are possible, missing ones are not).
        let resp = http::request_with_retry(
            &addr,
            "GET",
            &format!("/v1/jobs/{hash}/stream"),
            None,
            TIMEOUT,
            &retry_policy(),
            |line| println!("{line}"),
        )?;
        if resp.status != 200 {
            failed += 1;
            continue;
        }
        // The last state line carried the terminal phase.
        let text = String::from_utf8_lossy(&resp.body);
        let errored = text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .any(|e| {
                matches!(e.get("state").and_then(Json::as_str), Some("error"))
            });
        if errored {
            failed += 1;
        }
    }
    Ok(if failed > 0 { 1 } else { 0 })
}

fn simple_get(args: &[String], method: &str, path: &str) -> Result<i32, String> {
    let mut addr = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            addr = it.next().cloned();
        }
    }
    let addr = addr.ok_or_else(usage)?;
    let resp = http::request(&addr, method, path, None, TIMEOUT, |_| {})?;
    println!("{}", String::from_utf8_lossy(&resp.body).trim_end());
    Ok(if resp.status == 200 { 0 } else { 1 })
}

fn run_local(args: &[String]) -> Result<i32, String> {
    let mut cache_dir = None;
    let mut point = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => cache_dir = it.next().cloned(),
            other => point = Some(parse_point(other)?),
        }
    }
    let spec = point.ok_or_else(|| format!("no point given\n{}", usage()))?;
    let resolved = spec
        .resolve()
        .map_err(|e| format!("invalid point: {}", e.body.pretty()))?;
    let cache = match cache_dir {
        Some(d) => ResultCache::new(d),
        None => ResultCache::default_dir(),
    };
    let store = PointStore {
        cache: &cache,
        claim_timeout: CLAIM_TIMEOUT,
        max_bytes: None,
    };
    let key = point_key(&spec.workload, resolved.scale, &resolved.sim, &resolved.options);
    let (trace, result) = resolve_point(
        Some(store),
        &key,
        &resolved.sim,
        &resolved.options,
        &LazyWorkload::new(resolved.kernel, resolved.scale),
        None,
        &mut NullSink,
    );
    match result {
        Ok(report) => {
            let source = if trace.source == JobSource::Cached {
                "cached"
            } else {
                "simulated"
            };
            println!(
                "source={source} workload={} config={} cycles={}",
                spec.workload, spec.config, report.core.cycles
            );
            Ok(0)
        }
        Err(e) => {
            eprintln!("{}", e.error.to_json().pretty());
            Ok(1)
        }
    }
}

fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "submit" => submit(rest),
        "status" => simple_get(rest, "GET", "/v1/status"),
        "metrics" => simple_get(rest, "GET", "/v1/metrics"),
        "shutdown" => simple_get(rest, "POST", "/v1/shutdown"),
        "run-local" => run_local(rest),
        "--help" | "-h" => Err(usage()),
        other => Err(format!("unknown subcommand {other:?}\n{}", usage())),
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("svr_client: {e}");
            std::process::exit(2);
        }
    }
}
