//! The simulation server: job registry, dedup, fair scheduling, streaming
//! progress, and graceful lifecycle.
//!
//! # Architecture
//!
//! One [`Server`] owns three pieces of shared state:
//!
//! * a **registry** of every job this daemon has seen, keyed by the design
//!   point's content hash (the same [`svr_sim::point_key`] hash the sweep
//!   engine and on-disk cache use) — N clients submitting the same point
//!   share one [`Job`];
//! * per-client **queues** drained round-robin by the worker pool, so one
//!   client submitting a 500-point batch cannot starve another's single
//!   point; admission is bounded per client (429 + `Retry-After` beyond the
//!   limit);
//! * the shared **result store** ([`svr_sim::ResultCache`]) — the same
//!   directory CLI sweeps use, so server results and sweep results are one
//!   population. Cross-*process* dedup goes through
//!   [`svr_sim::ResultCache::claim`]: two daemons (or a daemon and a sweep)
//!   racing on one point cost one simulation globally.
//!
//! # Lifecycle
//!
//! Accepted-but-unfinished jobs are journaled as one file each under
//! `<cache>/serve-pending/`; the file is removed when the job reaches a
//! terminal state. A drain (SIGTERM/SIGINT via [`svr_sim::shutdown`], or
//! `POST /v1/shutdown`) stops accepting, lets in-flight jobs finish, marks
//! still-queued jobs interrupted (their journal entries remain), and a
//! restarted daemon re-enqueues everything found in the pending directory —
//! points that completed before the kill resolve instantly from the cache.

use crate::log;
use crate::protocol::{error_body, parse_submit, PointSpec, ProtoError, ResolvedPoint};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use svr_sim::fault::{self, FaultSite};
use svr_sim::json::Json;
use svr_sim::metrics::{
    CacheMetrics, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot,
};
use svr_sim::{
    lock_ok, point_key, report_to_json, resolve_point, shutdown, JobSource, LazyWorkload,
    PointKey, PointStore, ResultCache, SimError, CLAIM_TIMEOUT,
};
use svr_trace::{TraceEvent, TraceSink};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Result-store directory (shared with CLI sweeps).
    pub cache_dir: PathBuf,
    /// When set, [`svr_sim::ResultCache::gc`] runs after each stored result.
    pub cache_max_bytes: Option<u64>,
    /// Crash-dump directory (`None` disables the flight recorder).
    pub crash_dir: Option<PathBuf>,
    /// Maximum queued (not yet running) jobs per client; submissions beyond
    /// this are rejected with 429 + `Retry-After`.
    pub queue_limit: usize,
    /// Suggested client back-off, surfaced in the `Retry-After` header.
    pub retry_after_secs: u64,
    /// How long a worker waits on another live process's cache claim
    /// before simulating anyway (duplicated work is safe, just not free).
    /// A dead holder's claim is stolen at once.
    pub claim_timeout: Duration,
    /// Wall-clock budget from acceptance to completion. A job past its
    /// deadline finishes with a structured `{kind:"deadline"}` error instead
    /// of occupying a worker (or, when the simulation already ran, instead
    /// of pretending the answer arrived in time). `None` disables deadlines.
    pub job_deadline: Option<Duration>,
    /// Per-request socket read timeout; also the overall budget for one
    /// request (head + body) to arrive, so slow-loris clients get a 408
    /// instead of a worker-less connection slot forever.
    pub read_timeout: Duration,
    /// Per-request socket write timeout (responses and stream chunks).
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            cache_dir: ResultCache::default_dir().dir().to_path_buf(),
            cache_max_bytes: None,
            crash_dir: None,
            queue_limit: 64,
            retry_after_secs: 1,
            claim_timeout: CLAIM_TIMEOUT,
            job_deadline: None,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Job lifecycle states. `Queued → Running → {Done, Error}`; `Interrupted`
/// replaces `Queued` when the daemon drains first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is resolving it (cache lookup or simulation).
    Running,
    /// Finished with a report.
    Done,
    /// Finished with a structured error.
    Error,
    /// The daemon drained before a worker picked it up; its pending-journal
    /// entry survives, so a restarted daemon resumes it.
    Interrupted,
}

impl Phase {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Error => "error",
            Phase::Interrupted => "interrupted",
        }
    }

    /// Whether the job will never change state again (this daemon's
    /// lifetime; `Interrupted` resumes only in a restarted daemon).
    pub fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Error | Phase::Interrupted)
    }
}

/// Cap on the per-job event replay buffer. At ~150 bytes per line this
/// bounds a job's history near 150 KiB; older lines are dropped first.
const HISTORY_CAP: usize = 1024;

#[derive(Debug)]
struct JobInner {
    phase: Phase,
    /// "simulated" | "cached" once terminal-done.
    source: Option<&'static str>,
    report: Option<Json>,
    error: Option<Json>,
    subs: Vec<mpsc::Sender<String>>,
    /// Every broadcast line, kept so a subscriber that arrives after the
    /// fact (or after the job finished) still sees the full progress feed.
    history: Vec<String>,
}

impl JobInner {
    /// Sends `line` to live subscribers and appends it to the replay log.
    fn emit(&mut self, line: String) {
        self.subs.retain(|tx| tx.send(line.clone()).is_ok());
        if self.history.len() == HISTORY_CAP {
            self.history.remove(0);
        }
        self.history.push(line);
    }
}

/// One deduplicated design point: every client that submits the same
/// (workload, config, scale, mode) shares this object.
#[derive(Debug)]
pub struct Job {
    /// Content hash (registry key, cache entry name).
    pub hash: u64,
    /// The submitted spec.
    pub spec: PointSpec,
    /// Resolved content key (drives cache load/store/claim).
    pub key: PointKey,
    /// Acceptance time — the zero point of the per-job deadline.
    created: Instant,
    inner: Mutex<JobInner>,
}

impl Job {
    fn new(spec: PointSpec, key: PointKey) -> Self {
        Job {
            hash: key.hash,
            spec,
            key,
            created: Instant::now(),
            inner: Mutex::new(JobInner {
                phase: Phase::Queued,
                source: None,
                report: None,
                error: None,
                subs: Vec::new(),
                history: Vec::new(),
            }),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        lock_ok(&self.inner).phase
    }

    /// Full JSON view: state, source, report/error when terminal.
    pub fn to_json(&self) -> Json {
        let inner = lock_ok(&self.inner);
        Json::Obj(vec![
            ("hash".into(), Json::str(format!("{:016x}", self.hash))),
            ("point".into(), self.spec.to_json()),
            ("state".into(), Json::str(inner.phase.as_str())),
            (
                "source".into(),
                inner.source.map_or(Json::Null, Json::str),
            ),
            (
                "report".into(),
                inner.report.clone().unwrap_or(Json::Null),
            ),
            ("error".into(), inner.error.clone().unwrap_or(Json::Null)),
        ])
    }

    /// Subscribes to this job's event stream. Returns the receiver and a
    /// replay of everything broadcast so far, ending with a state event for
    /// the state at subscription time; the receiver sees every event
    /// emitted after the replay (replay and subscription happen under one
    /// lock, so no transition is lost, and a subscriber that arrives after
    /// the job finished still sees the full progress feed).
    pub fn subscribe(&self) -> (mpsc::Receiver<String>, Vec<String>) {
        let (tx, rx) = mpsc::channel();
        let mut inner = lock_ok(&self.inner);
        let mut replay = inner.history.clone();
        let now = self.state_line(&inner);
        if replay.last() != Some(&now) {
            replay.push(now);
        }
        inner.subs.push(tx);
        (rx, replay)
    }

    /// Renders the state-transition event line for the current state.
    fn state_line(&self, inner: &JobInner) -> String {
        Json::Obj(vec![
            ("event".into(), Json::str("state")),
            ("hash".into(), Json::str(format!("{:016x}", self.hash))),
            ("workload".into(), Json::str(&self.spec.workload)),
            ("config".into(), Json::str(&self.spec.config)),
            ("state".into(), Json::str(inner.phase.as_str())),
            (
                "source".into(),
                inner.source.map_or(Json::Null, Json::str),
            ),
            ("terminal".into(), Json::Bool(inner.phase.terminal())),
        ])
        .dump()
    }

    /// Moves to `phase` and broadcasts the transition.
    fn transition(&self, phase: Phase) {
        let mut inner = lock_ok(&self.inner);
        inner.phase = phase;
        let line = self.state_line(&inner);
        inner.emit(line);
    }

    /// Terminal success.
    fn finish_done(&self, source: &'static str, report: Json) {
        let mut inner = lock_ok(&self.inner);
        inner.phase = Phase::Done;
        inner.source = Some(source);
        inner.report = Some(report);
        let line = self.state_line(&inner);
        inner.emit(line);
        inner.subs.clear();
    }

    /// Terminal failure (or drain interruption) with a structured body.
    fn finish_error(&self, phase: Phase, error: Json) {
        let mut inner = lock_ok(&self.inner);
        inner.phase = phase;
        inner.error = Some(error);
        let line = self.state_line(&inner);
        inner.emit(line);
        inner.subs.clear();
    }

    /// Broadcasts a progress (non-state) event line.
    fn broadcast(&self, line: &str) {
        let mut inner = lock_ok(&self.inner);
        inner.emit(line.to_string());
    }
}

/// Registry + per-client queues (one mutex; workers and the accept path
/// contend only for scheduling decisions, never across a simulation).
#[derive(Debug, Default)]
struct Sched {
    jobs: HashMap<u64, Arc<Job>>,
    /// Round-robin client queues, in first-seen order.
    queues: Vec<(String, std::collections::VecDeque<Arc<Job>>)>,
    rr_next: usize,
}

impl Sched {
    /// Pops the next job, rotating across clients for fairness.
    fn pick(&mut self) -> Option<Arc<Job>> {
        let n = self.queues.len();
        for i in 0..n {
            let idx = (self.rr_next + i) % n;
            if let Some(job) = self.queues[idx].1.pop_front() {
                self.rr_next = (idx + 1) % n;
                return Some(job);
            }
        }
        None
    }

    fn queue_of(&mut self, client: &str) -> &mut std::collections::VecDeque<Arc<Job>> {
        if let Some(idx) = self.queues.iter().position(|(c, _)| c == client) {
            return &mut self.queues[idx].1;
        }
        self.queues
            .push((client.to_string(), std::collections::VecDeque::new()));
        let last = self.queues.len() - 1;
        &mut self.queues[last].1
    }
}

/// Monotonic counters surfaced by `GET /v1/status` (the smoke test's
/// "exactly one simulation per unique point" check reads `simulated` here).
/// The same counters back the registry's `jobs_*_total` Prometheus series:
/// `/v1/status` and `/v1/metrics` can never disagree.
#[derive(Debug)]
pub struct Counters {
    /// New jobs accepted (unique points) — `jobs_accepted_total`.
    pub accepted: Arc<Counter>,
    /// Submissions deduplicated onto an existing job — `jobs_joined_total`.
    pub joined: Arc<Counter>,
    /// Jobs resolved by actually simulating — `jobs_simulated_total`.
    pub simulated: Arc<Counter>,
    /// Jobs resolved from the shared result store — `jobs_cached_total`.
    pub cached: Arc<Counter>,
    /// Jobs that finished with a structured error — `jobs_errors_total`.
    pub errors: Arc<Counter>,
    /// Submissions rejected for a full client queue (429) —
    /// `jobs_rejected_total`.
    pub rejected: Arc<Counter>,
    /// Jobs interrupted by a drain — `jobs_interrupted_total`.
    pub interrupted: Arc<Counter>,
}

impl Counters {
    fn register(reg: &MetricsRegistry) -> Counters {
        Counters {
            accepted: reg.counter("jobs_accepted_total", "New jobs accepted (unique points)"),
            joined: reg.counter(
                "jobs_joined_total",
                "Submissions deduplicated onto an existing job",
            ),
            simulated: reg.counter("jobs_simulated_total", "Jobs resolved by simulating"),
            cached: reg.counter("jobs_cached_total", "Jobs resolved from the result store"),
            errors: reg.counter("jobs_errors_total", "Jobs finished with a structured error"),
            rejected: reg.counter(
                "jobs_rejected_total",
                "Submissions rejected for a full client queue",
            ),
            interrupted: reg.counter("jobs_interrupted_total", "Jobs interrupted by a drain"),
        }
    }

    fn to_json(&self) -> Json {
        let f = |c: &Counter| Json::u64(c.get());
        Json::Obj(vec![
            ("accepted".into(), f(&self.accepted)),
            ("joined".into(), f(&self.joined)),
            ("simulated".into(), f(&self.simulated)),
            ("cached".into(), f(&self.cached)),
            ("errors".into(), f(&self.errors)),
            ("rejected".into(), f(&self.rejected)),
            ("interrupted".into(), f(&self.interrupted)),
        ])
    }
}

/// The service-tier instrument cluster: one registry (behind
/// `GET /v1/metrics` and `GET /v1/stats`) plus hot-path handles. All
/// recording is relaxed atomics; all formatting happens at scrape time.
pub struct ServeMetrics {
    /// The registry everything below is registered in.
    pub registry: MetricsRegistry,
    /// Jobs waiting in client queues (set authoritatively at scrape).
    pub queue_depth: Arc<Gauge>,
    /// Workers currently resolving a job.
    pub workers_busy: Arc<Gauge>,
    /// `POST /v1/jobs` handling latency (µs), client-visible.
    pub submit_latency_us: Arc<Histogram>,
    /// Acceptance → worker pickup (µs).
    pub queue_wait_us: Arc<Histogram>,
    /// Wall time inside the simulator per simulated job (µs).
    pub simulate_us: Arc<Histogram>,
    /// Duration of `GET /v1/jobs/<hash>/stream` responses (µs).
    pub stream_us: Arc<Histogram>,
    /// Cache-tier counters (shared with the [`ResultCache`]).
    pub cache: Arc<CacheMetrics>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = MetricsRegistry::new();
        ServeMetrics {
            queue_depth: registry.gauge("queue_depth", "Jobs waiting in client queues"),
            workers_busy: registry.gauge("workers_busy", "Workers currently resolving a job"),
            submit_latency_us: registry
                .histogram("submit_latency_us", "POST /v1/jobs handling latency (us)"),
            queue_wait_us: registry
                .histogram("queue_wait_us", "Job acceptance to worker pickup (us)"),
            simulate_us: registry
                .histogram("simulate_us", "Simulator wall time per simulated job (us)"),
            stream_us: registry
                .histogram("stream_us", "Progress-stream response duration (us)"),
            cache: CacheMetrics::register(&registry),
            registry,
        }
    }

    /// The per-route request counter (`http_requests_total{route=...}`).
    pub fn http_requests(&self, route: &str) -> Arc<Counter> {
        self.registry
            .counter_with("http_requests_total", "HTTP requests by route", &[("route", route)])
    }
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics").finish_non_exhaustive()
    }
}

/// Decrements a gauge on scope exit (worker-busy tracking survives early
/// returns and panics caught at the job boundary).
struct GaugeGuard<'a>(&'a Gauge);

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// The long-running simulation server. See the module docs for the
/// architecture; [`Server::serve`] is the entry point.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    cache: ResultCache,
    sched: Mutex<Sched>,
    wake: Condvar,
    draining: AtomicBool,
    /// Counters for `/v1/status`.
    pub counters: Counters,
    /// The observability cluster behind `/v1/metrics` and `/v1/stats`.
    pub metrics: ServeMetrics,
}

/// How a submission was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A new job was created and queued.
    New,
    /// Deduplicated onto an existing in-flight or finished job.
    Joined,
}

impl Server {
    /// Creates a server (no threads started yet).
    pub fn new(cfg: ServerConfig) -> Arc<Server> {
        let metrics = ServeMetrics::new();
        let counters = Counters::register(&metrics.registry);
        let cache = ResultCache::new(&cfg.cache_dir).with_metrics(Arc::clone(&metrics.cache));
        Arc::new(Server {
            cfg,
            cache,
            sched: Mutex::new(Sched::default()),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            counters,
            metrics,
        })
    }

    /// The pending-journal directory (`<cache>/serve-pending`).
    fn pending_dir(&self) -> PathBuf {
        self.cfg.cache_dir.join("serve-pending")
    }

    fn pending_path(&self, hash: u64) -> PathBuf {
        self.pending_dir().join(format!("{hash:016x}.json"))
    }

    /// Whether a drain has begun (signal, `/v1/shutdown`, or programmatic).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || shutdown::requested()
    }

    /// Begins a drain: stop accepting, finish in-flight work, journal the
    /// rest. Idempotent.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.wake.notify_all();
    }

    /// Submits one validated point for `client`. The caller resolves the
    /// spec first (submission is rejected eagerly on bad names, so a queued
    /// job can always be simulated).
    pub fn submit(
        &self,
        client: &str,
        spec: &PointSpec,
        resolved: &ResolvedPoint,
    ) -> Result<(Arc<Job>, Admission), ProtoError> {
        let key = point_key(
            &spec.workload,
            resolved.scale,
            &resolved.sim,
            &resolved.options,
        );
        let mut sched = lock_ok(&self.sched);
        if let Some(job) = sched.jobs.get(&key.hash) {
            self.counters.joined.inc();
            return Ok((Arc::clone(job), Admission::Joined));
        }
        let queue = sched.queue_of(client);
        if queue.len() >= self.cfg.queue_limit {
            self.counters.rejected.inc();
            return Err(ProtoError {
                status: 429,
                body: error_body(
                    "queue_full",
                    &format!(
                        "client {client:?} already has {} queued jobs (limit {}); \
                         retry after the queue drains",
                        queue.len(),
                        self.cfg.queue_limit
                    ),
                    Some(&spec.workload),
                    Some(&spec.config),
                ),
                retry_after: Some(self.cfg.retry_after_secs),
            });
        }
        let job = Arc::new(Job::new(spec.clone(), key));
        queue.push_back(Arc::clone(&job));
        sched.jobs.insert(job.hash, Arc::clone(&job));
        drop(sched);
        self.journal_pending(client, &job);
        self.counters.accepted.inc();
        log::info(
            "job_queued",
            &[
                ("hash", Json::str(format!("{:016x}", job.hash))),
                ("client", Json::str(client)),
                ("workload", Json::str(&spec.workload)),
                ("config", Json::str(&spec.config)),
            ],
        );
        self.wake.notify_one();
        Ok((job, Admission::New))
    }

    /// Writes the pending-journal entry for an accepted job (best-effort;
    /// a lost entry only costs resume coverage, never correctness).
    fn journal_pending(&self, client: &str, job: &Job) {
        let dir = self.pending_dir();
        if std::fs::create_dir_all(&dir).is_err() {
            return;
        }
        let doc = Json::Obj(vec![
            ("client".into(), Json::str(client)),
            ("point".into(), job.spec.to_json()),
        ]);
        let tmp = dir.join(format!("{:016x}.tmp.{}", job.hash, std::process::id()));
        if std::fs::write(&tmp, doc.pretty()).is_ok() {
            let _ = std::fs::rename(&tmp, self.pending_path(job.hash));
        }
    }

    /// Re-enqueues every job found in the pending journal (a restarted
    /// daemon resuming an interrupted batch). Points that completed before
    /// the kill resolve instantly from the shared cache. Returns how many
    /// jobs were re-enqueued.
    pub fn resume_pending(&self) -> usize {
        let Ok(dir) = std::fs::read_dir(self.pending_dir()) else {
            return 0;
        };
        let mut resumed = 0;
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|x| x.to_str()) != Some("json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(doc) = Json::parse(&text) else {
                // A torn write from a killed daemon; drop it — the client
                // will resubmit, and the result may already be cached.
                let _ = std::fs::remove_file(&path);
                continue;
            };
            let client = doc
                .get("client")
                .and_then(Json::as_str)
                .unwrap_or("resume")
                .to_string();
            let Some(point) = doc.get("point") else {
                let _ = std::fs::remove_file(&path);
                continue;
            };
            let Ok(spec) = PointSpec::from_json(point) else {
                let _ = std::fs::remove_file(&path);
                continue;
            };
            let Ok(resolved) = spec.resolve() else {
                let _ = std::fs::remove_file(&path);
                continue;
            };
            if self.submit(&client, &spec, &resolved).is_ok() {
                resumed += 1;
            }
        }
        resumed
    }

    /// Looks up a job by content hash.
    pub fn job(&self, hash: u64) -> Option<Arc<Job>> {
        lock_ok(&self.sched).jobs.get(&hash).cloned()
    }

    /// `/v1/status` document.
    pub fn status_json(&self) -> Json {
        let sched = lock_ok(&self.sched);
        let queued: u64 = sched.queues.iter().map(|(_, q)| q.len() as u64).sum();
        let clients = sched
            .queues
            .iter()
            .map(|(c, q)| {
                Json::Obj(vec![
                    ("client".into(), Json::str(c)),
                    ("queued".into(), Json::u64(q.len() as u64)),
                ])
            })
            .collect();
        let jobs = sched.jobs.len() as u64;
        drop(sched);
        Json::Obj(vec![
            ("jobs".into(), Json::u64(jobs)),
            ("queued".into(), Json::u64(queued)),
            ("draining".into(), Json::Bool(self.draining())),
            ("counters".into(), self.counters.to_json()),
            ("clients".into(), Json::Arr(clients)),
        ])
    }

    /// Freezes every metric for `/v1/metrics` and `/v1/stats`: gauges are
    /// set from authoritative scheduler state first (no incremental drift),
    /// then armed fault sites are appended as `fault_fired_total{site=...}`
    /// so the fault layer and the metrics layer attest each other.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let queued: i64 = {
            let sched = lock_ok(&self.sched);
            sched.queues.iter().map(|(_, q)| q.len() as i64).sum()
        };
        self.metrics.queue_depth.set(queued);
        let mut snap = self.metrics.registry.snapshot();
        for (site, fired) in fault::fire_counts() {
            snap.push_counter(
                "fault_fired_total",
                "Injected fault-site firings",
                &[("site", site)],
                fired,
            );
        }
        snap
    }

    /// Worker thread body: pick jobs round-robin until a drain begins.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut sched = lock_ok(&self.sched);
                loop {
                    if self.draining() {
                        break None;
                    }
                    if let Some(job) = sched.pick() {
                        break Some(job);
                    }
                    let (guard, _) = self
                        .wake
                        .wait_timeout(sched, Duration::from_millis(200))
                        .unwrap_or_else(|p| p.into_inner());
                    sched = guard;
                }
            };
            let Some(job) = job else { return };
            self.process(&job);
        }
    }

    /// Whether `job` has outlived its wall-clock budget.
    fn past_deadline(&self, job: &Job) -> bool {
        self.cfg
            .job_deadline
            .is_some_and(|d| job.created.elapsed() > d)
    }

    /// The structured `{kind:"deadline"}` error body for `job`.
    fn deadline_body(&self, job: &Job) -> Json {
        let budget = self.cfg.job_deadline.unwrap_or_default();
        error_body(
            "deadline",
            &format!(
                "job exceeded its {} ms deadline ({} ms since acceptance)",
                budget.as_millis(),
                job.created.elapsed().as_millis()
            ),
            Some(&job.spec.workload),
            Some(&job.spec.config),
        )
    }

    /// Resolves one job through [`resolve_point`] with a streaming progress
    /// relay attached. Terminal state is always set and the pending-journal
    /// entry removed, whatever happens.
    fn process(&self, job: &Arc<Job>) {
        self.metrics.workers_busy.add(1);
        let _busy = GaugeGuard(&self.metrics.workers_busy);
        let queue_wait = job.created.elapsed();
        self.metrics.queue_wait_us.record_duration_us(queue_wait);
        let hash = Json::str(format!("{:016x}", job.hash));
        if self.past_deadline(job) {
            // Expired while queued: fail it without occupying a worker.
            self.counters.errors.inc();
            job.finish_error(Phase::Error, self.deadline_body(job));
            let _ = std::fs::remove_file(self.pending_path(job.hash));
            return;
        }
        log::info(
            "job_claimed",
            &[
                ("hash", hash.clone()),
                ("queue_wait_us", Json::u64(duration_us(queue_wait))),
            ],
        );
        job.transition(Phase::Running);
        let resolved = match job.spec.resolve() {
            Ok(r) => r,
            Err(e) => {
                // Unreachable through submit (which resolves eagerly), but
                // the resume path re-resolves journal entries.
                self.counters.errors.inc();
                job.finish_error(Phase::Error, e.body);
                let _ = std::fs::remove_file(self.pending_path(job.hash));
                return;
            }
        };
        let store = PointStore {
            cache: &self.cache,
            claim_timeout: self.cfg.claim_timeout,
            max_bytes: self.cfg.cache_max_bytes,
        };
        let mut relay = ProgressRelay::new(job, resolved.sim.trace.interval.max(1));
        let (trace, result) = resolve_point(
            Some(store),
            &job.key,
            &resolved.sim,
            &resolved.options,
            &LazyWorkload::new(resolved.kernel, resolved.scale),
            self.cfg.crash_dir.as_deref(),
            &mut relay,
        );
        match (trace.source, result) {
            (JobSource::Cached, Ok(report)) => {
                self.counters.cached.inc();
                job.finish_done("cached", report_to_json(&report));
                log::info("job_cached", &[("hash", hash)]);
            }
            (_, Ok(report)) => {
                let sim_us = (trace.wall_ms * 1e3) as u64;
                self.metrics.simulate_us.record(sim_us);
                self.counters.simulated.inc();
                log::info(
                    "job_simulated",
                    &[
                        ("hash", hash),
                        ("simulate_us", Json::u64(sim_us)),
                        ("cycles", Json::u64(report.core.cycles)),
                    ],
                );
                // The result is already stored: a late result is still a
                // correct result, and caching it means nobody pays for this
                // point again — only *this* job reports the deadline miss.
                if self.past_deadline(job) {
                    self.counters.errors.inc();
                    job.finish_error(Phase::Error, self.deadline_body(job));
                } else {
                    job.finish_done("simulated", report_to_json(&report));
                }
            }
            (_, Err(e)) => {
                self.counters.errors.inc();
                let mut body = e.error.to_json();
                if let (Json::Obj(fields), Some(dump)) = (&mut body, &e.crash_dump) {
                    fields.push((
                        "crash_dump".into(),
                        Json::str(dump.display().to_string()),
                    ));
                }
                log::warn("job_error", &[("hash", hash), ("error", body.clone())]);
                job.finish_error(Phase::Error, body);
            }
        }
        let _ = std::fs::remove_file(self.pending_path(job.hash));
    }

    /// Marks every still-queued job interrupted (drain path). Pending
    /// journal entries are deliberately kept: they are what a restarted
    /// daemon resumes from.
    fn interrupt_queued(&self) {
        let drained: Vec<Arc<Job>> = {
            let mut sched = lock_ok(&self.sched);
            let mut all = Vec::new();
            for (_, q) in sched.queues.iter_mut() {
                all.extend(q.drain(..));
            }
            all
        };
        for job in drained {
            self.counters.interrupted.inc();
            job.finish_error(
                Phase::Interrupted,
                SimError::Interrupted {
                    workload: job.spec.workload.clone(),
                    config: job.spec.config.clone(),
                }
                .to_json(),
            );
        }
    }

    /// Runs the server on `listener` until a drain completes: spawns the
    /// worker pool, accepts one-request connections, and on drain joins the
    /// workers and journals unfinished work. Returns only after a clean
    /// drain.
    pub fn serve(self: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let workers: Vec<std::thread::JoinHandle<()>> = (0..self.cfg.workers.max(1))
            .map(|_| {
                let srv = Arc::clone(self);
                std::thread::spawn(move || srv.worker_loop())
            })
            .collect();
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.draining() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let srv = Arc::clone(self);
                    conns.push(std::thread::spawn(move || srv.handle_conn(stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
            conns.retain(|h| !h.is_finished());
        }
        self.begin_drain();
        for w in workers {
            let _ = w.join();
        }
        // Workers are joined: no store of ours is in flight, so any of our
        // tmp staging files left in the cache are torn writes — sweep them.
        self.cache.sweep_own_tmp();
        self.interrupt_queued();
        for c in conns {
            let _ = c.join();
        }
        Ok(())
    }

    /// Handles one `Connection: close` request.
    fn handle_conn(&self, mut stream: TcpStream) {
        if let Some(d) = fault::stall(FaultSite::ConnSlowRead) {
            // Injected network latency: the request sits unread for a while
            // (the client's retry/timeout story must absorb this).
            std::thread::sleep(d);
        }
        let _ = stream.set_read_timeout(Some(self.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let deadline = Instant::now() + self.cfg.read_timeout;
        let req = match crate::http::read_request(&mut stream, Some(deadline)) {
            Ok(r) => r,
            Err(e) => {
                // Every malformed/oversized/stalled request gets a
                // structured `{kind,...}` body, never a bare drop.
                let (status, reason, kind) = e.status();
                let body = error_body(kind, e.message(), None, None).pretty();
                let _ = crate::http::respond(
                    &mut stream,
                    status,
                    reason,
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
                return;
            }
        };
        let req_id = log::next_request_id();
        let route = route_label(&req.method, &req.path);
        self.metrics.http_requests(route).inc();
        let t0 = Instant::now();
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/v1/jobs") => self.handle_submit(&mut stream, &req.body),
            ("GET", "/v1/healthz") => {
                // Readiness: 200 while accepting, 503 once draining (load
                // balancers and orchestrators stop routing here). Queue
                // depth and busy-worker count let probes tell "idle" from
                // "saturated".
                let draining = self.draining();
                let queued: u64 = {
                    let sched = lock_ok(&self.sched);
                    sched.queues.iter().map(|(_, q)| q.len() as u64).sum()
                };
                let busy = self.metrics.workers_busy.get().max(0) as u64;
                let body = Json::Obj(vec![
                    (
                        "status".into(),
                        Json::str(if draining { "draining" } else { "ok" }),
                    ),
                    ("draining".into(), Json::Bool(draining)),
                    ("workers".into(), Json::u64(self.cfg.workers as u64)),
                    ("queued".into(), Json::u64(queued)),
                    ("workers_busy".into(), Json::u64(busy)),
                ])
                .pretty();
                let (status, reason) = if draining {
                    (503, "Service Unavailable")
                } else {
                    (200, "OK")
                };
                let _ = crate::http::respond(
                    &mut stream,
                    status,
                    reason,
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
            }
            ("GET", "/v1/status") => {
                let body = self.status_json().pretty();
                let _ = crate::http::respond(
                    &mut stream,
                    200,
                    "OK",
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
            }
            ("GET", "/v1/metrics") => {
                let body = self.metrics_snapshot().to_prometheus();
                let _ = crate::http::respond(
                    &mut stream,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    &[],
                    body.as_bytes(),
                );
            }
            ("GET", "/v1/stats") => {
                let body = Json::Obj(vec![
                    ("status".into(), self.status_json()),
                    ("metrics".into(), self.metrics_snapshot().to_json()),
                ])
                .pretty();
                let _ = crate::http::respond(
                    &mut stream,
                    200,
                    "OK",
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
            }
            ("POST", "/v1/shutdown") => {
                let body = Json::Obj(vec![("draining".into(), Json::Bool(true))]).pretty();
                let _ = crate::http::respond(
                    &mut stream,
                    200,
                    "OK",
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
                self.begin_drain();
            }
            ("GET", path) if path.starts_with("/v1/jobs/") => {
                self.handle_job_get(&mut stream, path);
            }
            (method, path) => {
                let body = error_body(
                    "not_found",
                    &format!("no route for {method} {path}"),
                    None,
                    None,
                )
                .pretty();
                let _ = crate::http::respond(
                    &mut stream,
                    404,
                    "Not Found",
                    "application/json",
                    &[],
                    body.as_bytes(),
                );
            }
        }
        let dur = t0.elapsed();
        match route {
            "submit" => self.metrics.submit_latency_us.record_duration_us(dur),
            "job_stream" => {
                self.metrics.stream_us.record_duration_us(dur);
                log::info(
                    "job_streamed",
                    &[
                        ("req", Json::u64(req_id)),
                        ("path", Json::str(&req.path)),
                        ("stream_us", Json::u64(duration_us(dur))),
                    ],
                );
            }
            _ => {}
        }
        log::debug(
            "request",
            &[
                ("req", Json::u64(req_id)),
                ("method", Json::str(&req.method)),
                ("path", Json::str(&req.path)),
                ("route", Json::str(route)),
                ("dur_us", Json::u64(duration_us(dur))),
            ],
        );
    }

    /// `POST /v1/jobs`: parse, resolve and admit a batch. All points are
    /// validated before any is admitted, so a bad batch is rejected whole;
    /// admission itself is per-point (a 429 mid-batch leaves earlier points
    /// queued — they are real work the client asked for).
    fn handle_submit(&self, stream: &mut TcpStream, body: &[u8]) {
        if self.draining() {
            let body = error_body(
                "draining",
                "server is draining and no longer accepts submissions",
                None,
                None,
            )
            .pretty();
            let _ = crate::http::respond(
                stream,
                503,
                "Service Unavailable",
                "application/json",
                &[],
                body.as_bytes(),
            );
            return;
        }
        let parsed = parse_submit(body).and_then(|(client, specs)| {
            let resolved: Result<Vec<_>, ProtoError> =
                specs.iter().map(PointSpec::resolve).collect();
            Ok((client, specs, resolved?))
        });
        let (client, specs, resolved) = match parsed {
            Ok(x) => x,
            Err(e) => {
                let _ = respond_proto_error(stream, &e);
                return;
            }
        };
        let mut jobs = Vec::new();
        for (spec, resolved) in specs.iter().zip(&resolved) {
            match self.submit(&client, spec, resolved) {
                Ok((job, admission)) => {
                    jobs.push(Json::Obj(vec![
                        ("hash".into(), Json::str(format!("{:016x}", job.hash))),
                        ("point".into(), spec.to_json()),
                        ("state".into(), Json::str(job.phase().as_str())),
                        (
                            "admission".into(),
                            Json::str(match admission {
                                Admission::New => "new",
                                Admission::Joined => "joined",
                            }),
                        ),
                    ]));
                }
                Err(e) => {
                    let _ = respond_proto_error(stream, &e);
                    return;
                }
            }
        }
        let body = Json::Obj(vec![("jobs".into(), Json::Arr(jobs))]).pretty();
        let _ = crate::http::respond(
            stream,
            200,
            "OK",
            "application/json",
            &[],
            body.as_bytes(),
        );
    }

    /// `GET /v1/jobs/<hash>` and `GET /v1/jobs/<hash>/stream`.
    fn handle_job_get(&self, stream: &mut TcpStream, path: &str) {
        let rest = path.strip_prefix("/v1/jobs/").unwrap_or("");
        let (hash_str, streaming) = match rest.strip_suffix("/stream") {
            Some(h) => (h, true),
            None => (rest, false),
        };
        let Ok(hash) = u64::from_str_radix(hash_str, 16) else {
            let body = error_body(
                "bad_request",
                &format!("malformed job hash {hash_str:?}"),
                None,
                None,
            )
            .pretty();
            let _ = crate::http::respond(
                stream,
                400,
                "Bad Request",
                "application/json",
                &[],
                body.as_bytes(),
            );
            return;
        };
        let Some(job) = self.job(hash) else {
            let body = error_body(
                "not_found",
                &format!("no job {hash:016x} in this daemon"),
                None,
                None,
            )
            .pretty();
            let _ = crate::http::respond(
                stream,
                404,
                "Not Found",
                "application/json",
                &[],
                body.as_bytes(),
            );
            return;
        };
        if !streaming {
            let body = job.to_json().pretty();
            let status = if lock_ok(&job.inner).phase == Phase::Error {
                500
            } else {
                200
            };
            let reason = if status == 500 {
                "Internal Server Error"
            } else {
                "OK"
            };
            let _ = crate::http::respond(
                stream,
                status,
                reason,
                "application/json",
                &[],
                body.as_bytes(),
            );
            return;
        }
        // Streaming: relay events as chunked JSON lines until terminal.
        let _ = stream.set_read_timeout(None);
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let (rx, replay) = job.subscribe();
        let Ok(mut chunked) =
            crate::http::Chunked::start(stream, 200, "OK", "application/x-ndjson")
        else {
            return;
        };
        if relay_events(replay, rx, |line| chunked.send(line).is_ok()) {
            let _ = chunked.finish();
        }
    }
}

/// Relays one [`Job::subscribe`] result to `send`: the replay, then live
/// events, through the terminal state line. Subscription is atomic under the
/// job lock, so the terminal line is either the replay's last line or still
/// to come on `rx` — never lost in between. Returns `false` when `send`
/// failed (the client went away).
fn relay_events(
    replay: Vec<String>,
    rx: mpsc::Receiver<String>,
    mut send: impl FnMut(&str) -> bool,
) -> bool {
    for line in replay.into_iter().chain(rx) {
        if !send(&line) {
            return false;
        }
        if line.contains("\"terminal\":true") {
            break;
        }
    }
    true
}

/// Saturating microseconds of a duration (histogram/log unit).
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Normalizes a request to its `http_requests_total{route=...}` label
/// (job hashes collapse into one label per route family).
fn route_label(method: &str, path: &str) -> &'static str {
    match (method, path) {
        ("POST", "/v1/jobs") => "submit",
        ("GET", "/v1/healthz") => "healthz",
        ("GET", "/v1/status") => "status",
        ("GET", "/v1/metrics") => "metrics",
        ("GET", "/v1/stats") => "stats",
        ("POST", "/v1/shutdown") => "shutdown",
        ("GET", p) if p.starts_with("/v1/jobs/") && p.ends_with("/stream") => "job_stream",
        ("GET", p) if p.starts_with("/v1/jobs/") => "job_get",
        _ => "other",
    }
}

/// Writes a [`ProtoError`] response (429s carry `Retry-After`).
fn respond_proto_error(stream: &mut TcpStream, e: &ProtoError) -> std::io::Result<()> {
    let reason = match e.status {
        400 => "Bad Request",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let retry = e.retry_after.map(|s| s.to_string());
    let headers: Vec<(&str, &str)> = match &retry {
        Some(s) => vec![("Retry-After", s.as_str())],
        None => Vec::new(),
    };
    let body = e.body.pretty();
    crate::http::respond(
        stream,
        e.status,
        reason,
        "application/json",
        &headers,
        body.as_bytes(),
    )
}

/// A [`TraceSink`] that folds per-cycle CPI-stack attribution into windowed
/// intervals and broadcasts one progress event per window to the job's
/// subscribers — the PR-3 trace machinery reused as a live progress feed.
#[derive(Debug)]
struct ProgressRelay<'a> {
    job: &'a Job,
    interval: u64,
    next_emit: u64,
    last_cycle: u64,
    window_base: u64,
    window_stall: u64,
    intervals_sent: u64,
}

impl<'a> ProgressRelay<'a> {
    fn new(job: &'a Job, interval: u64) -> Self {
        ProgressRelay {
            job,
            interval,
            next_emit: interval,
            last_cycle: 0,
            window_base: 0,
            window_stall: 0,
            intervals_sent: 0,
        }
    }

    fn emit_window(&mut self, cycle: u64) {
        self.intervals_sent += 1;
        let line = Json::Obj(vec![
            ("event".into(), Json::str("interval")),
            ("hash".into(), Json::str(format!("{:016x}", self.job.hash))),
            ("cycle".into(), Json::u64(cycle)),
            ("base_cycles".into(), Json::u64(self.window_base)),
            ("stall_cycles".into(), Json::u64(self.window_stall)),
            ("interval".into(), Json::u64(self.interval)),
            ("seq".into(), Json::u64(self.intervals_sent)),
        ])
        .dump();
        self.job.broadcast(&line);
        self.window_base = 0;
        self.window_stall = 0;
    }
}

impl TraceSink for ProgressRelay<'_> {
    fn emit(&mut self, ev: &TraceEvent) {
        if let TraceEvent::Attrib {
            cycle, base, stall, ..
        } = *ev
        {
            if cycle < self.last_cycle {
                // The panic-isolated retry restarted the run from cycle 0.
                self.next_emit = self.interval;
                self.window_base = 0;
                self.window_stall = 0;
            }
            self.last_cycle = cycle;
            self.window_base += u64::from(base);
            self.window_stall += stall;
            if cycle >= self.next_emit {
                self.emit_window(cycle);
                let periods = cycle / self.interval + 1;
                self.next_emit = periods * self.interval;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(workload: &str, config: &str) -> PointSpec {
        PointSpec {
            workload: workload.into(),
            config: config.into(),
            scale: "tiny".into(),
            mode: "detailed".into(),
        }
    }

    fn temp_cfg(tag: &str) -> (ServerConfig, PathBuf) {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "svr-serve-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        (
            ServerConfig {
                cache_dir: dir.clone(),
                workers: 2,
                queue_limit: 4,
                claim_timeout: Duration::from_secs(5),
                ..ServerConfig::default()
            },
            dir,
        )
    }

    #[test]
    fn submit_dedups_and_journals() {
        let (cfg, dir) = temp_cfg("dedup");
        let srv = Server::new(cfg);
        let s = spec("Camel", "SVR16");
        let r = s.resolve().expect("valid");
        let (job1, a1) = srv.submit("alice", &s, &r).expect("accepted");
        let (job2, a2) = srv.submit("bob", &s, &r).expect("accepted");
        assert_eq!(a1, Admission::New);
        assert_eq!(a2, Admission::Joined, "same point shares one job");
        assert!(Arc::ptr_eq(&job1, &job2));
        assert_eq!(srv.counters.accepted.get(), 1);
        assert_eq!(srv.counters.joined.get(), 1);
        let pending = dir.join("serve-pending");
        assert_eq!(
            std::fs::read_dir(&pending).expect("pending dir").count(),
            1,
            "one journal entry per unique job"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_snapshot_tracks_queue_and_renders_prometheus() {
        let (cfg, dir) = temp_cfg("metrics");
        let srv = Server::new(cfg);
        let s = spec("Camel", "SVR16");
        let r = s.resolve().expect("valid");
        srv.submit("alice", &s, &r).expect("accepted");
        srv.submit("bob", &s, &r).expect("joined");
        srv.metrics.http_requests("submit").inc();

        let snap = srv.metrics_snapshot();
        let text = snap.to_prometheus();
        let samples = svr_sim::metrics::parse_exposition(&text);
        let get = |name: &str| {
            svr_sim::metrics::find_sample(&samples, name, &[])
                .unwrap_or_else(|| panic!("{name} missing from exposition"))
                .value as u64
        };
        // The registry and the /v1/status counters are the same atomics.
        assert_eq!(get("jobs_accepted_total"), srv.counters.accepted.get());
        assert_eq!(get("jobs_joined_total"), 1);
        assert_eq!(
            get("queue_depth"),
            1,
            "one unique queued job, set authoritatively at scrape"
        );
        assert_eq!(get("workers_busy"), 0, "no worker pool was started");
        assert_eq!(
            svr_sim::metrics::find_sample(&samples, "http_requests_total", &[("route", "submit")])
                .expect("labeled route counter")
                .value as u64,
            1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_limit_rejects_with_429() {
        let (cfg, dir) = temp_cfg("limit");
        let srv = Server::new(cfg);
        for n in 8..12 {
            let s = spec("Camel", &format!("SVR{n}"));
            let r = s.resolve().expect("valid");
            srv.submit("greedy", &s, &r).expect("under the limit");
        }
        let s = spec("Camel", "SVR16");
        let r = s.resolve().expect("valid");
        let err = srv.submit("greedy", &s, &r).expect_err("queue full");
        assert_eq!(err.status, 429);
        assert_eq!(err.retry_after, Some(1));
        assert_eq!(
            err.body.get("kind").and_then(Json::as_str),
            Some("queue_full")
        );
        assert_eq!(
            err.body.get("workload").and_then(Json::as_str),
            Some("Camel")
        );
        // Another client is unaffected (fairness is per-client).
        srv.submit("patient", &s, &r).expect("other client admitted");
        assert_eq!(srv.counters.rejected.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let (cfg, dir) = temp_cfg("rr");
        let srv = Server::new(cfg);
        // alice queues 3 jobs, then bob queues 1: bob's must be picked
        // second, not fourth.
        let mut hashes = Vec::new();
        for n in [8, 32, 64] {
            let s = spec("Camel", &format!("SVR{n}"));
            let r = s.resolve().expect("valid");
            let (j, _) = srv.submit("alice", &s, &r).expect("ok");
            hashes.push(j.hash);
        }
        let s = spec("Camel", "SVR16");
        let r = s.resolve().expect("valid");
        let (bob_job, _) = srv.submit("bob", &s, &r).expect("ok");
        let mut sched = lock_ok(&srv.sched);
        let order: Vec<u64> = std::iter::from_fn(|| sched.pick().map(|j| j.hash)).collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], hashes[0], "alice goes first (first seen)");
        assert_eq!(order[1], bob_job.hash, "bob is not starved behind alice's batch");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_resolves_jobs_and_streams_transitions() {
        let (cfg, dir) = temp_cfg("worker");
        let srv = Server::new(cfg);
        let s = spec("Camel", "InO");
        let r = s.resolve().expect("valid");
        let (job, _) = srv.submit("alice", &s, &r).expect("ok");
        let (rx, replay) = job.subscribe();
        assert_eq!(replay.len(), 1, "nothing has happened yet: {replay:?}");
        assert!(replay[0].contains("\"queued\""));
        // Drive one job synchronously through the worker path.
        let picked = lock_ok(&srv.sched).pick().expect("one queued job");
        srv.process(&picked);
        assert_eq!(job.phase(), Phase::Done);
        let events: Vec<String> = rx.try_iter().collect();
        // A late subscriber replays the whole feed it missed.
        let (_rx2, late) = job.subscribe();
        assert!(
            late.iter().any(|e| e.contains("\"interval\"")),
            "late subscriber misses windowed progress: {late:?}"
        );
        assert!(
            late.last().is_some_and(|e| e.contains("\"terminal\":true")),
            "late replay must end terminal: {late:?}"
        );
        assert!(
            events.iter().any(|e| e.contains("\"running\"")),
            "{events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| e.contains("\"done\"") && e.contains("\"simulated\"")),
            "{events:?}"
        );
        // Windowed progress arrived between the transitions.
        assert!(
            events.iter().any(|e| e.contains("\"interval\"")),
            "expected interval events, got {events:?}"
        );
        assert_eq!(srv.counters.simulated.get(), 1);
        assert!(
            !srv.pending_path(job.hash).exists(),
            "terminal job leaves no pending journal entry"
        );
        // A second daemon-load of the same point is a cache hit.
        let s2 = spec("Camel", "InO");
        let r2 = s2.resolve().expect("valid");
        let srv2 = Server::new(ServerConfig {
            cache_dir: dir.clone(),
            ..ServerConfig::default()
        });
        let (job2, _) = srv2.submit("bob", &s2, &r2).expect("ok");
        let picked = lock_ok(&srv2.sched).pick().expect("queued");
        srv2.process(&picked);
        assert_eq!(job2.phase(), Phase::Done);
        assert_eq!(srv2.counters.cached.get(), 1);
        assert_eq!(srv2.counters.simulated.get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_relay_delivers_a_terminal_event_that_lands_after_subscribe() {
        let (cfg, dir) = temp_cfg("relay");
        let srv = Server::new(cfg);
        let s = spec("Camel", "InO");
        let r = s.resolve().expect("valid");
        let (job, _) = srv.submit("alice", &s, &r).expect("ok");
        // The job finishes between the stream handler's subscribe() and
        // its relay of the replay: the terminal line is on `rx` only.
        let (rx, replay) = job.subscribe();
        job.finish_done("simulated", Json::Null);
        assert!(!replay.last().expect("state line").contains("\"terminal\":true"));
        let mut sent = Vec::new();
        assert!(relay_events(replay, rx, |line| {
            sent.push(line.to_string());
            true
        }));
        assert!(
            sent.last().is_some_and(|l| l.contains("\"terminal\":true") && l.contains("\"done\"")),
            "the terminal event must reach the client: {sent:?}"
        );
        // A subscriber arriving after the fact gets it from the replay.
        let (rx, replay) = job.subscribe();
        let mut late = Vec::new();
        assert!(relay_events(replay, rx, |line| {
            late.push(line.to_string());
            true
        }));
        assert_eq!(late.last(), sent.last());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_produce_structured_bodies_not_bare_500s() {
        let (cfg, dir) = temp_cfg("err");
        let srv = Server::new(cfg);
        let s = spec("DiagSpin", "InO");
        let r = s.resolve().expect("valid spec");
        let (job, _) = srv.submit("alice", &s, &r).expect("ok");
        let picked = lock_ok(&srv.sched).pick().expect("queued");
        srv.process(&picked);
        assert_eq!(job.phase(), Phase::Error);
        let view = job.to_json();
        let err = view.get("error").expect("error body");
        assert_eq!(
            err.get("kind").and_then(Json::as_str),
            Some("no_forward_progress")
        );
        assert_eq!(err.get("workload").and_then(Json::as_str), Some("DiagSpin"));
        assert_eq!(err.get("config").and_then(Json::as_str), Some("InO"));
        assert_eq!(srv.counters.errors.get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn build_panics_carry_their_payload_and_a_crash_dump() {
        let (cfg, dir) = temp_cfg("buildpanic");
        let srv = Server::new(ServerConfig {
            crash_dir: Some(dir.join("crash")),
            ..cfg
        });
        let s = spec("DiagPanic", "InO");
        let r = s.resolve().expect("valid spec");
        let (job, _) = srv.submit("alice", &s, &r).expect("ok");
        let picked = lock_ok(&srv.sched).pick().expect("queued");
        srv.process(&picked);
        assert_eq!(job.phase(), Phase::Error);
        let view = job.to_json();
        let err = view.get("error").expect("error body");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("panic"));
        let message = err.get("message").and_then(Json::as_str).unwrap_or("");
        assert!(message.contains("deliberate diagnostic panic"), "payload kept: {message}");
        let dump = err.get("crash_dump").and_then(Json::as_str).expect("crash dump");
        assert!(std::path::Path::new(dump).exists(), "{dump}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_interrupts_queued_jobs_but_keeps_their_journal() {
        let (cfg, dir) = temp_cfg("drain");
        let srv = Server::new(cfg);
        let s = spec("Camel", "SVR16");
        let r = s.resolve().expect("valid");
        let (job, _) = srv.submit("alice", &s, &r).expect("ok");
        srv.begin_drain();
        assert!(srv.draining());
        srv.interrupt_queued();
        assert_eq!(job.phase(), Phase::Interrupted);
        let view = job.to_json();
        assert_eq!(
            view.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str),
            Some("interrupted")
        );
        assert!(
            srv.pending_path(job.hash).exists(),
            "interrupted jobs keep their journal entry for restart"
        );
        // A fresh daemon over the same cache dir resumes it.
        let srv2 = Server::new(ServerConfig {
            cache_dir: dir.clone(),
            ..ServerConfig::default()
        });
        assert_eq!(srv2.resume_pending(), 1);
        let resumed = srv2.job(job.hash).expect("re-enqueued");
        assert_eq!(resumed.phase(), Phase::Queued);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
