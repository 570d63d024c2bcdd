//! One serve round: set-up (fresh temp cache, warm-cache fill,
//! in-process daemon start), two closed-loop clients, a `/v1/metrics`
//! scrape, the exactly-once checks, shutdown, and the report digest read
//! back from the cache.

use crate::jobs::{self, Mix, Op, OpKind, THREADS};
use crate::spans;
use crate::sweeps;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svr_serve::http::{self, RetryPolicy};
use svr_serve::{Server, ServerConfig};
use svr_sim::json::Json;
use svr_sim::metrics::{find_sample, parse_exposition, Sample};
use svr_sim::{point_key, ExecMode, ResultCache, RunReport};
use svr_workloads::Scale;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Stream requests per op before a missing terminal event is a failure.
const STREAM_ATTEMPTS: usize = 3;

/// Streams that ended without their terminal event and were re-requested.
pub static STREAM_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Healthz round trips timed on the idle daemon after a traced round.
const HEALTHZ_PROBES: usize = 20;

/// What one round produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Temp dirs, warm-cache fill and daemon start.
    pub setup_s: f64,
    /// From the first submit until both clients saw their last terminal event.
    pub wall_s: f64,
    /// `POST /v1/jobs` round trips, ms.
    pub submit_ms: Vec<f64>,
    /// Submit until the job's terminal stream event, ms.
    pub result_ms: Vec<f64>,
    /// Healthz round trips on the idle daemon, ms (traced rounds only).
    pub healthz_ms: Vec<f64>,
    /// Submissions made.
    pub attempted: u64,
    /// Submissions that failed or resolved the wrong way.
    pub failed: u64,
    /// Every pool point's report, read back from the cache.
    pub reports: Vec<RunReport>,
    /// The set-up's warm-cache fill, a sweep (its reports are not kept).
    pub fill: sweeps::SweepRep,
    /// The `/v1/metrics` scrape taken after the clients finished.
    pub scrape: Vec<Sample>,
    /// Violated checks, in words.
    pub problems: Vec<String>,
}

struct OpOutcome {
    submit_ms: f64,
    result_ms: f64,
    /// Why the op failed, if it did.
    error: Option<String>,
}

fn submit_and_stream(
    addr: &str,
    client: &str,
    op: &Op,
    policy: &RetryPolicy,
    parent: u64,
) -> OpOutcome {
    let mut out = OpOutcome {
        submit_ms: 0.0,
        result_ms: 0.0,
        error: None,
    };
    let what = format!("{} {} ({:?})", op.spec.workload, op.spec.config, op.kind);
    let body = Json::Obj(vec![
        ("client".into(), Json::str(client)),
        ("points".into(), Json::Arr(vec![op.spec.to_json()])),
    ])
    .dump();
    let t0 = Instant::now();
    let resp = spans::span("http.submit", parent, |_| {
        http::request_with_retry(
            addr,
            "POST",
            "/v1/jobs",
            Some(body.as_bytes()),
            TIMEOUT,
            policy,
            |_| {},
        )
    });
    out.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let hash = match resp {
        Ok(r) if r.status == 200 => Json::parse(&String::from_utf8_lossy(&r.body))
            .ok()
            .and_then(|d| {
                d.get("jobs")?
                    .as_arr()?
                    .first()?
                    .get("hash")?
                    .as_str()
                    .map(str::to_string)
            })
            .ok_or_else(|| "submit response names no job".to_string()),
        Ok(r) => Err(format!("submit returned {}", r.status)),
        Err(e) => Err(format!("submit failed: {e}")),
    };
    let hash = match hash {
        Ok(h) => h,
        Err(e) => {
            out.error = Some(format!("{what}: {e}"));
            return out;
        }
    };
    // The daemon can close a stream without its terminal event when the
    // job finishes between subscribing and the handler's terminal check;
    // the job is terminal by then, so streaming it again replays the event.
    // Such re-streams are counted (see `STREAM_RETRIES`), not failed.
    let want = if op.expect_cached {
        "cached"
    } else {
        "simulated"
    };
    let path = format!("/v1/jobs/{hash}/stream");
    let mut terminal: Option<(Instant, String)> = None;
    let mut resp = Err(String::new());
    for attempt in 0..STREAM_ATTEMPTS {
        if attempt > 0 {
            STREAM_RETRIES.fetch_add(1, Ordering::Relaxed);
        }
        resp = spans::span("http.stream", parent, |_| {
            http::request_with_retry(addr, "GET", &path, None, TIMEOUT, policy, |chunk| {
                for line in chunk.lines() {
                    let Ok(ev) = Json::parse(line) else { continue };
                    if terminal.is_none()
                        && ev.get("terminal").and_then(Json::as_bool) == Some(true)
                    {
                        terminal = Some((Instant::now(), line.to_string()));
                    }
                }
            })
        });
        if terminal.is_some() || !matches!(&resp, Ok(r) if r.status == 200) {
            break;
        }
    }
    out.error = match (resp, terminal) {
        (Ok(r), Some((t, line))) if r.status == 200 => {
            out.result_ms = t.saturating_duration_since(t0).as_secs_f64() * 1e3;
            let ev = Json::parse(&line).ok();
            let field = |k: &str| {
                ev.as_ref()
                    .and_then(|e| e.get(k)?.as_str().map(str::to_string))
            };
            if field("state").as_deref() == Some("done") && field("source").as_deref() == Some(want)
            {
                None
            } else {
                Some(format!(
                    "{what}: expected done/{want}, stream ended with {line}"
                ))
            }
        }
        (Ok(r), _) => Some(format!(
            "{what}: stream returned {} without a terminal event",
            r.status
        )),
        (Err(e), _) => Some(format!("{what}: stream failed: {e}")),
    };
    out
}

/// An unlabelled counter from a scrape (0 when absent).
pub fn counter(samples: &[Sample], name: &str) -> u64 {
    find_sample(samples, name, &[]).map_or(0, |s| s.value as u64)
}

/// Sum of a counter family over all its label sets.
pub fn counter_family(samples: &[Sample], name: &str) -> u64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value as u64)
        .sum()
}

/// Median of a scraped histogram, read at its bucket upper edges (the
/// daemon's own histograms are the only source for its internal times).
/// `None` when empty.
pub fn histogram_p50(samples: &[Sample], name: &str) -> Option<f64> {
    let bucket = format!("{name}_bucket");
    let mut cumulative: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == bucket)
        .filter_map(|s| {
            let le = &s.labels.iter().find(|(k, _)| k == "le")?.1;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, s.value))
        })
        .collect();
    cumulative.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = cumulative.last()?.1;
    cumulative
        .into_iter()
        .find(|&(_, n)| total > 0.0 && n >= total / 2.0)
        .map(|(le, _)| le)
}

/// Runs one round of `seqs`, drawn from the pool of `mix`, in `dir`
/// (which must be empty).
pub fn run_round(
    seqs: &[Vec<Op>; 2],
    mix: Mix,
    dir: &Path,
    seed: u64,
    parent: u64,
    probe_healthz: bool,
) -> Result<Round, String> {
    let round_span = spans::next_id();
    let round_start = Instant::now();
    let mut round = Round::default();

    // Set-up: temp dirs, warm-cache fill, daemon start.
    let setup_span = spans::next_id();
    let t_setup = Instant::now();
    let (warm_kernels, warm_configs) = jobs::warm_grid();
    let warm = jobs::SweepSpec {
        kernels: warm_kernels,
        scale: Scale::Tiny,
        mode: ExecMode::Detailed,
    };
    let mut fill = sweeps::run_rep(&warm, &warm_configs, dir, setup_span)
        .map_err(|e| format!("warm fill: {e}"))?;
    if fill.failed > 0 || fill.reports.len() != warm.kernels.len() * warm_configs.len() {
        return Err(format!(
            "warm fill failed {} of {} points",
            fill.failed, fill.attempted
        ));
    }
    fill.reports.clear();
    round.fill = fill;
    let cache_dir = dir.join("cache");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    let server = Server::new(ServerConfig {
        workers: THREADS,
        cache_dir: cache_dir.clone(),
        crash_dir: Some(dir.join("crash")),
        ..ServerConfig::default()
    });
    let daemon = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.serve(listener))
    };
    let t_ready = Instant::now();
    round.setup_s = (t_ready - t_setup).as_secs_f64();
    spans::record(setup_span, round_span, "serve.setup", t_setup, t_ready);

    // Two closed-loop clients.
    let t0 = Instant::now();
    let outcomes: Vec<Vec<OpOutcome>> = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let addr = addr.as_str();
                s.spawn(move || {
                    let name = format!("client-{c}");
                    let policy = RetryPolicy::new(seed ^ (c as u64 + 1));
                    spans::span("serve.client", round_span, |client_span| {
                        seq.iter()
                            .map(|op| {
                                spans::span("serve.op", client_span, |op_span| {
                                    submit_and_stream(addr, &name, op, &policy, op_span)
                                })
                            })
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    round.wall_s = t0.elapsed().as_secs_f64();
    for o in outcomes.iter().flatten() {
        round.attempted += 1;
        round.submit_ms.push(o.submit_ms);
        match &o.error {
            None => round.result_ms.push(o.result_ms),
            Some(e) => {
                round.failed += 1;
                round.problems.push(e.clone());
            }
        }
    }
    let expected_ops: usize = seqs.iter().map(Vec::len).sum();
    if outcomes.iter().map(Vec::len).sum::<usize>() != expected_ops {
        round.problems.push("a client thread panicked".into());
        round.failed += (expected_ops as u64).saturating_sub(round.attempted);
        round.attempted = expected_ops as u64;
    }

    // Accounting from the daemon's own counters.
    let scrape = spans::span("http.metrics", round_span, |_| {
        http::request(&addr, "GET", "/v1/metrics", None, TIMEOUT, |_| {})
    });
    match scrape {
        Ok(r) if r.status == 200 => {
            round.scrape = parse_exposition(&String::from_utf8_lossy(&r.body))
        }
        _ => round.problems.push("/v1/metrics scrape failed".into()),
    }
    if probe_healthz {
        for _ in 0..HEALTHZ_PROBES {
            let t = Instant::now();
            let ok = spans::span(
                "http.healthz",
                round_span,
                |_| matches!(http::request(&addr, "GET", "/v1/healthz", None, TIMEOUT, |_| {}), Ok(r) if r.status == 200),
            );
            if ok {
                round.healthz_ms.push(t.elapsed().as_secs_f64() * 1e3);
            } else {
                round.problems.push("healthz failed".into());
            }
        }
    }
    let count = |kind: OpKind| seqs.iter().flatten().filter(|o| o.kind == kind).count() as u64;
    let checks = [
        ("jobs_simulated_total", count(OpKind::Cold)),
        ("jobs_cached_total", count(OpKind::Warm)),
        ("jobs_joined_total", count(OpKind::Repeat)),
        ("jobs_errors_total", 0),
        ("jobs_rejected_total", 0),
    ];
    for (name, want) in checks {
        let got = counter(&round.scrape, name);
        if got != want {
            round
                .problems
                .push(format!("{name} = {got}, expected {want}"));
        }
    }

    // Shutdown: drain and join the daemon.
    spans::span("http.shutdown", round_span, |_| {
        let _ = http::request(&addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {});
    });
    match daemon.join() {
        Ok(Ok(())) => {}
        _ => round.problems.push("daemon did not drain cleanly".into()),
    }

    // Digest: every pool point must be in the cache, verified.
    let store = ResultCache::new(&cache_dir);
    for spec in jobs::serve_pool(mix) {
        let resolved = spec
            .resolve()
            .map_err(|e| format!("pool point does not resolve: {:?}", e.body))?;
        let key = point_key(
            &spec.workload,
            resolved.scale,
            &resolved.sim,
            &resolved.options,
        );
        match spans::span("cache.load", round_span, |_| store.load(&key)) {
            Some(r) if r.verified => round.reports.push(r),
            Some(_) => round
                .problems
                .push(format!("{} {} unverified", spec.workload, spec.config)),
            None => round.problems.push(format!(
                "{} {} missing from the cache",
                spec.workload, spec.config
            )),
        }
    }
    spans::record(
        round_span,
        parent,
        "serve.round",
        round_start,
        Instant::now(),
    );
    Ok(round)
}
