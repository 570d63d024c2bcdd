//! Chaos tests: the service tier driven through a hostile, deterministic
//! fault schedule (`svr_sim::fault`), asserting the invariants the
//! architecture promises survive induced failure:
//!
//! * **exactly-once** — N clients × M overlapping points cost one
//!   successful simulation per unique point key, faults or not;
//! * **bit-identical** — every report a client receives equals the
//!   fault-free run of the same point;
//! * **clean drain** — no claim files, no tmp litter, no quarantine
//!   entries, no pending-journal residue once the daemon drains;
//! * **zero-cost off** — an empty plan changes nothing.
//!
//! The fault plan is process-global, so every test here takes one lock and
//! clears the plan on drop (panic included). This binary is the ONLY place
//! in the workspace that installs plans: unit tests elsewhere run in
//! parallel threads of one process and would race a global schedule.

use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use svr_serve::http::{self, RetryPolicy};
use svr_serve::protocol::PointSpec;
use svr_serve::{Server, ServerConfig};
use svr_sim::fault::{self, FaultSite};
use svr_sim::json::Json;
use svr_sim::{
    point_key, report_from_json, resolve_point, Claim, FaultPlan, LazyWorkload, ResultCache,
    RunReport, Sweep,
};
use svr_trace::NullSink;
use svr_workloads::{Kernel, Scale};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Serializes fault-installing tests and guarantees the plan is cleared
/// when the test ends, pass or panic.
struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::clear();
    }
}

fn hold_faults() -> FaultGuard {
    static LOCK: Mutex<()> = Mutex::new(());
    // A previous test that panicked poisons the lock but its guard already
    // cleared the plan; ride through.
    FaultGuard(LOCK.lock().unwrap_or_else(|p| p.into_inner()))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("svr-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn spawn_server(srv: &Arc<Server>) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let srv = Arc::clone(srv);
    let handle = std::thread::spawn(move || srv.serve(listener));
    (addr, handle)
}

fn spec(config: &str) -> PointSpec {
    PointSpec {
        workload: "Camel".into(),
        config: config.into(),
        scale: "tiny".into(),
        mode: "detailed".into(),
    }
}

/// Simulates one point directly (no cache), returning its hash and report.
fn simulate(config: &str) -> (String, RunReport) {
    let s = spec(config);
    let r = s.resolve().expect("valid point");
    let key = point_key(&s.workload, r.scale, &r.sim, &r.options);
    let workload = LazyWorkload::new(r.kernel, r.scale);
    let (_, report) =
        resolve_point(None, &key, &r.sim, &r.options, &workload, None, &mut NullSink);
    (format!("{:016x}", key.hash), report.expect("run succeeds"))
}

/// The fault-free report of one point — computed with NO plan installed.
fn ground_truth(config: &str) -> (String, RunReport) {
    assert!(!fault::fires(FaultSite::WorkerPanic), "truth needs a clean world");
    simulate(config)
}

fn submit_body(client: &str, configs: &[&str]) -> String {
    Json::Obj(vec![
        ("client".into(), Json::str(client)),
        (
            "points".into(),
            Json::Arr(configs.iter().map(|c| spec(c).to_json()).collect()),
        ),
    ])
    .pretty()
}

fn counter(status: &Json, name: &str) -> u64 {
    status
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX)
}

/// Submits `configs` for `client`, streams every job to terminal, and
/// returns the job hashes. Retries ride through injected connection drops.
fn submit_and_stream(addr: &str, client: &str, configs: &[&str], seed: u64) -> Vec<String> {
    let policy = RetryPolicy::new(seed);
    let body = submit_body(client, configs);
    let resp = http::request_with_retry(
        addr,
        "POST",
        "/v1/jobs",
        Some(body.as_bytes()),
        TIMEOUT,
        &policy,
        |_| {},
    )
    .expect("submit");
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let doc = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("submit json");
    let hashes: Vec<String> = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("jobs array")
        .iter()
        .map(|j| j.get("hash").and_then(Json::as_str).expect("hash").to_string())
        .collect();
    assert_eq!(hashes.len(), configs.len());
    for hash in &hashes {
        let mut lines = Vec::new();
        let resp = http::request_with_retry(
            addr,
            "GET",
            &format!("/v1/jobs/{hash}/stream"),
            None,
            TIMEOUT,
            &policy,
            |line| lines.push(line.to_string()),
        )
        .expect("stream survives injected drops via retry");
        assert_eq!(resp.status, 200);
        let last = lines.last().expect("stream delivered events");
        assert!(
            last.contains("\"terminal\":true") && last.contains("\"done\""),
            "stream must end done+terminal for {hash}: {last}"
        );
    }
    hashes
}

/// The tentpole soak: three clients race overlapping batches through a
/// daemon whose cache stores tear, cache loads fail, GC fires mid-claim,
/// workers panic and stall, connections lag and streams sever mid-chunk —
/// seven distinct fault kinds — and every core invariant must hold anyway.
#[test]
fn chaos_soak_overlapping_clients_under_hostile_schedule() {
    let _guard = hold_faults();
    let configs = ["InO", "IMP", "OoO", "SVR8", "SVR16", "SVR32"];
    let truth: HashMap<String, RunReport> =
        configs.iter().map(|c| ground_truth(c)).collect();

    // Probability-1 rules with per-site caps: the damage is bounded AND
    // fully deterministic (no reliance on a lucky seed), while every site
    // still fires. Caps keep each fault recoverable within the client's
    // 5-attempt retry budget.
    fault::install(
        FaultPlan::seeded(0xC0FFEE)
            .stall_ms(25)
            .with_capped(FaultSite::CacheStoreTorn, 1.0, 2)
            .with_capped(FaultSite::CacheLoadErr, 1.0, 2)
            .with_capped(FaultSite::GcMidClaim, 1.0, 1)
            .with_capped(FaultSite::WorkerPanic, 1.0, 3)
            .with_capped(FaultSite::WorkerStall, 1.0, 2)
            .with_capped(FaultSite::ConnSlowRead, 1.0, 2)
            .with_capped(FaultSite::ConnDropChunk, 1.0, 3),
    );

    let dir = temp_dir("soak");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 2,
        claim_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    // 3 clients, overlapping subsets: 10 submissions over 6 unique points.
    let subsets: [&[&str]; 3] = [
        &["InO", "IMP", "OoO", "SVR8"],
        &["OoO", "SVR8", "SVR16", "SVR32"],
        &["InO", "SVR32"],
    ];
    let threads: Vec<_> = subsets
        .iter()
        .enumerate()
        .map(|(i, subset)| {
            let addr = addr.clone();
            let subset: Vec<&'static str> = subset.to_vec();
            std::thread::spawn(move || {
                submit_and_stream(&addr, &format!("client-{i}"), &subset, i as u64)
            })
        })
        .collect();
    let mut seen: HashSet<String> = HashSet::new();
    for t in threads {
        seen.extend(t.join().expect("client thread"));
    }
    assert_eq!(seen.len(), 6, "6 unique points across the overlapping batches");

    // Liveness check rides along: healthz is 200 under chaos.
    let resp = http::request_with_retry(
        &addr, "GET", "/v1/healthz", None, TIMEOUT, &RetryPolicy::new(9), |_| {},
    )
    .expect("healthz");
    assert_eq!(resp.status, 200);

    // Exactly-once: 10 submissions, 6 unique points, fresh cache → 6
    // accepted, 4 joined, 6 simulated, 0 cached, 0 errors. Injected panics
    // recover via the isolated retry; torn stores and load errors never
    // fail a job — they only cost cache coverage.
    let resp = http::request_with_retry(
        &addr, "GET", "/v1/status", None, TIMEOUT, &RetryPolicy::new(10), |_| {},
    )
    .expect("status");
    let status = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("status json");
    assert_eq!(counter(&status, "accepted"), 6, "{}", status.pretty());
    assert_eq!(counter(&status, "joined"), 4, "{}", status.pretty());
    assert_eq!(counter(&status, "simulated"), 6, "{}", status.pretty());
    assert_eq!(counter(&status, "cached"), 0, "{}", status.pretty());
    assert_eq!(counter(&status, "errors"), 0, "{}", status.pretty());

    // Bit-identical: every report a client can fetch equals the fault-free
    // run of the same point.
    for hash in &seen {
        let resp = http::request_with_retry(
            &addr,
            "GET",
            &format!("/v1/jobs/{hash}"),
            None,
            TIMEOUT,
            &RetryPolicy::new(11),
            |_| {},
        )
        .expect("job view");
        assert_eq!(resp.status, 200);
        let view = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("view json");
        assert_eq!(view.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(view.get("source").and_then(Json::as_str), Some("simulated"));
        let got = report_from_json(view.get("report").expect("report"))
            .expect("report parses");
        assert_eq!(
            &got,
            truth.get(hash).expect("hash maps to a truth point"),
            "report for {hash} must be bit-identical to the fault-free run"
        );
    }

    // The schedule was actually hostile: all seven armed sites fired.
    let fired: HashMap<&str, u64> = fault::fire_counts().into_iter().collect();
    for site in [
        "cache_store_torn",
        "cache_load_err",
        "gc_mid_claim",
        "worker_panic",
        "worker_stall",
        "conn_slow_read",
        "conn_drop_chunk",
    ] {
        assert!(
            fired.get(site).copied().unwrap_or(0) > 0,
            "site {site} never fired: {fired:?}"
        );
    }

    // Observability closes the loop: every fired site is visible over the
    // wire as a nonzero fault_fired_total{site=...} sample, with the same
    // count the in-process tally reports.
    let resp = http::request(&addr, "GET", "/v1/metrics", None, TIMEOUT, |_| {})
        .expect("metrics scrape");
    assert_eq!(resp.status, 200);
    let samples = svr_sim::metrics::parse_exposition(&String::from_utf8_lossy(&resp.body));
    for (site, count) in &fired {
        let sample =
            svr_sim::metrics::find_sample(&samples, "fault_fired_total", &[("site", site)])
                .unwrap_or_else(|| panic!("fault_fired_total{{site={site}}} missing from scrape"));
        assert_eq!(
            sample.value as u64, *count,
            "scraped fault_fired_total{{site={site}}} disagrees with fire_counts()"
        );
    }

    // Clean drain: shutdown over the wire, then zero residue on disk.
    let resp = http::request(&addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {})
        .expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join().expect("serve thread").expect("clean drain");

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    assert!(
        !names.iter().any(|n| n.ends_with(".claim")),
        "claim litter after drain: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.contains(".tmp.")),
        "torn tmp litter after drain: {names:?}"
    );
    for sub in ["serve-pending", "quarantine"] {
        let count = std::fs::read_dir(dir.join(sub)).map(|d| d.count()).unwrap_or(0);
        assert_eq!(count, 0, "{sub}/ must be empty after a clean drain");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled worker blows the per-job deadline: the job finishes with a
/// structured `{kind:"deadline"}` error, but the (correct, late) result is
/// still cached so nobody pays for the point again.
#[test]
fn stalled_job_past_deadline_errors_structured_but_caches_the_result() {
    let _guard = hold_faults();
    fault::install(
        FaultPlan::seeded(7)
            .stall_ms(2_000)
            .with_capped(FaultSite::WorkerStall, 1.0, 1),
    );

    let dir = temp_dir("deadline");
    let srv = Server::new(ServerConfig {
        cache_dir: dir.clone(),
        workers: 1,
        job_deadline: Some(Duration::from_secs(1)),
        ..ServerConfig::default()
    });
    let (addr, handle) = spawn_server(&srv);

    let body = submit_body("late", &["SVR16"]);
    let resp = http::request(&addr, "POST", "/v1/jobs", Some(body.as_bytes()), TIMEOUT, |_| {})
        .expect("submit");
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("json");
    let hash = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
        .and_then(|j| j.get("hash"))
        .and_then(Json::as_str)
        .expect("hash")
        .to_string();

    // Poll the job view to terminal (the stall makes this take ~2 s).
    let deadline = Instant::now() + TIMEOUT;
    let view = loop {
        let resp = http::request(&addr, "GET", &format!("/v1/jobs/{hash}"), None, TIMEOUT, |_| {})
            .expect("view");
        let view = Json::parse(&String::from_utf8_lossy(&resp.body)).expect("view json");
        match view.get("state").and_then(Json::as_str) {
            Some("done") | Some("error") => break view,
            _ => {
                assert!(Instant::now() < deadline, "job never finished: {}", view.pretty());
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    };
    assert_eq!(view.get("state").and_then(Json::as_str), Some("error"));
    let err = view.get("error").expect("error body");
    assert_eq!(err.get("kind").and_then(Json::as_str), Some("deadline"));
    assert_eq!(err.get("workload").and_then(Json::as_str), Some("Camel"));
    assert!(
        err.get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("deadline")),
        "{}",
        err.pretty()
    );

    // The late result was still stored: the point is a cache hit now.
    let s = spec("SVR16");
    let r = s.resolve().expect("valid");
    let key = point_key(&s.workload, r.scale, &r.sim, &r.options);
    assert!(
        ResultCache::new(&dir).load(&key).is_some(),
        "a late result is still a correct result and must be cached"
    );

    let resp = http::request(&addr, "POST", "/v1/shutdown", None, TIMEOUT, |_| {})
        .expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join().expect("serve thread").expect("clean drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cache faults on the sweep path: a torn store and a failed load never
/// fail a sweep or corrupt a result. They only cost cache coverage, and the
/// claims are released either way.
#[test]
fn sweep_survives_torn_stores_and_load_errors() {
    let _guard = hold_faults();
    let truth: Vec<RunReport> = ["InO", "SVR16", "SVR32"]
        .iter()
        .map(|c| ground_truth(c).1)
        .collect();
    let dir = temp_dir("sweep-faults");
    let sweep = || {
        Sweep::new(vec![Kernel::Camel], Scale::Tiny)
            .configs(
                ["InO", "SVR16", "SVR32"]
                    .iter()
                    .map(|c| svr_sim::SimConfig::from_label(c).expect("known label"))
                    .collect(),
            )
            .cache_dir(&dir)
            .no_crash_dumps()
            .run(2)
    };

    // One store tears: every point still simulates and reports correctly.
    fault::install(FaultPlan::seeded(3).with_capped(FaultSite::CacheStoreTorn, 1.0, 1));
    let first = sweep();
    assert_eq!(first.stats.simulated, 3, "{:?}", first.stats);
    assert_eq!(first.stats.failed, 0, "{:?}", first.stats);
    for (ci, want) in truth.iter().enumerate() {
        assert_eq!(first.report(ci, 0), want, "config #{ci} report must match");
    }

    // One load fails: a pure miss, rescued by the claim's re-check. Only the
    // point whose store tore is simulated again.
    fault::install(FaultPlan::seeded(4).with_capped(FaultSite::CacheLoadErr, 1.0, 1));
    let second = sweep();
    assert_eq!(second.stats.simulated, 1, "{:?}", second.stats);
    assert_eq!(second.stats.cache_hits, 2, "{:?}", second.stats);
    for (ci, want) in truth.iter().enumerate() {
        assert_eq!(second.report(ci, 0), want, "config #{ci} report must match");
    }

    // And the stores were atomic and valid: a fault-free re-run is pure
    // cache hits, with no claim left behind.
    fault::clear();
    let again = sweep();
    assert_eq!(again.stats.cache_hits, 3, "{:?}", again.stats);
    assert_eq!(again.stats.simulated, 0, "{:?}", again.stats);
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    assert!(!names.iter().any(|n| n.ends_with(".claim")), "{names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected claim-steal resolves like a stale claim: the second caller
/// takes over promptly instead of waiting out its timeout, and simulating
/// twice stays safe.
#[test]
fn injected_claim_steal_is_survivable() {
    let _guard = hold_faults();
    let (_, report) = ground_truth("InO");
    fault::install(FaultPlan::seeded(5).with_capped(FaultSite::ClaimSteal, 1.0, 1));

    let dir = temp_dir("steal");
    let cache = ResultCache::new(&dir);
    let s = spec("InO");
    let r = s.resolve().expect("valid");
    let key = point_key(&s.workload, r.scale, &r.sim, &r.options);

    let first = cache.claim(&key, Duration::from_secs(10), Duration::from_secs(600));
    let Claim::Won(first_guard) = first else {
        panic!("empty cache cannot hit")
    };
    // The second claimant would normally wait out the full 10 s timeout;
    // the injected steal lets it take over almost immediately.
    let start = Instant::now();
    let second = cache.claim(&key, Duration::from_secs(10), Duration::from_secs(600));
    let Claim::Won(second_guard) = second else {
        panic!("steal must resolve to a won claim")
    };
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "stolen claim must not wait out the timeout ({:?})",
        start.elapsed()
    );
    // Both "winners" simulating is the documented safe outcome; the store
    // is atomic, so last-writer-wins with identical bytes.
    cache.store(&key, r.scale, &report);
    drop(second_guard);
    drop(first_guard);
    assert_eq!(cache.load(&key).as_ref(), Some(&report));
    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    assert!(!names.iter().any(|n| n.ends_with(".claim")), "{names:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An injected load error is a pure miss: no crash, no quarantine, and the
/// entry is intact on the next read.
#[test]
fn injected_load_error_is_a_pure_miss() {
    let _guard = hold_faults();
    let (_, report) = ground_truth("InO");
    let dir = temp_dir("loaderr");
    let cache = ResultCache::new(&dir);
    let s = spec("InO");
    let r = s.resolve().expect("valid");
    let key = point_key(&s.workload, r.scale, &r.sim, &r.options);
    cache.store(&key, r.scale, &report);

    fault::install(FaultPlan::seeded(6).with_capped(FaultSite::CacheLoadErr, 1.0, 1));
    assert!(cache.load(&key).is_none(), "injected I/O error reads as a miss");
    assert_eq!(
        cache.load(&key).as_ref(),
        Some(&report),
        "the entry itself is untouched"
    );
    assert!(
        !dir.join("quarantine").exists(),
        "an I/O error is not corruption; nothing must be quarantined"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Installing an *empty* plan is indistinguishable from no plan at all:
/// no site fires and reports are byte-identical.
#[test]
fn empty_plan_is_zero_cost_and_changes_nothing() {
    let _guard = hold_faults();
    let (_, clean) = ground_truth("SVR8");

    fault::install(FaultPlan::seeded(0xDEAD));
    for site in FaultSite::ALL {
        assert!(!fault::fires(site), "empty plan must never fire {}", site.name());
        assert!(fault::stall(site).is_none());
    }
    // ground_truth asserts no faults fire — which is exactly the claim.
    let (_, under_empty_plan) = ground_truth("SVR8");
    assert_eq!(
        under_empty_plan, clean,
        "an empty plan must not change a single report byte"
    );
    assert!(fault::report_line().is_none(), "nothing fired, nothing to report");
}
