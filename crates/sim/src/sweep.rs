//! The experiment engine: declarative sweeps over (workload × configuration)
//! grids with point deduplication, an on-disk result cache, parallel
//! execution, per-job tracing — and a hardened failure path: every point
//! resolves through [`crate::resolve_point`], so jobs run panic-isolated,
//! failures come back as structured [`JobError`]s instead of tearing down
//! the sweep, and failing jobs leave a crash dump behind (see
//! [`crate::crash`]).
//!
//! Every figure of the paper is a sweep over the same few suites and design
//! points, and many figures share points (all sensitivity studies re-run the
//! SVR-16/64 and in-order baselines). The engine hashes the *full*
//! simulation configuration ([`SimConfig::cache_key`]) together with the
//! workload identity, so
//!
//! * identical points inside one sweep are simulated once (dedup), and
//! * points simulated by *any* earlier or concurrent invocation — a sweep or
//!   the daemon — are loaded from `results/cache/<hash>.json` instead of
//!   re-simulated (cache claims make this exactly once across processes).
//!
//! A killed sweep needs no journal to resume: every completed point is a
//! cache entry, and a dead sweep's claims are stolen at once (see
//! [`ResultCache::claim`]), so re-running the same command recomputes
//! nothing that finished.
//!
//! ```no_run
//! use svr_sim::{Sweep, SimConfig};
//! use svr_workloads::{irregular_suite, Scale};
//!
//! let res = Sweep::new(irregular_suite(), Scale::Small)
//!     .configs(vec![SimConfig::inorder(), SimConfig::svr(16)])
//!     .run(8);
//! res.assert_verified();
//! println!("speedup {:.2}", res.speedup(0, 1));
//! ```

use crate::cache::{point_key, PointKey, ResultCache, CLAIM_TIMEOUT};
use crate::config::{ConfigError, SimConfig};
use crate::crash::default_crash_dir;
use crate::error::SimError;
use crate::json::Json;
use crate::lock_ok;
use crate::log;
use crate::options::{ExecMode, RunOptions};
use crate::resolve::{
    resolve_point, JobError, JobResult, JobSource, JobTrace, LazyWorkload, PointStore,
};
use crate::runner::RunReport;
use crate::shutdown;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use svr_workloads::{Kernel, Scale};

/// Aggregate counters for one sweep invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Requested (workload, config) pairs.
    pub pairs: usize,
    /// Unique design points after dedup.
    pub points: usize,
    /// Points resolved by fresh simulation.
    pub simulated: usize,
    /// Points resolved from the on-disk cache.
    pub cache_hits: usize,
    /// Points whose job failed (panic, watchdog, invariant violation).
    pub failed: usize,
    /// Points skipped because a shutdown signal arrived mid-sweep (their
    /// slots carry [`SimError::Interrupted`]; completed points are cached,
    /// so an identical re-run resumes them).
    pub interrupted: usize,
    /// Pairs that aliased an identical point inside this sweep.
    pub deduped: usize,
    /// Total wall time of the sweep in milliseconds.
    pub wall_ms: u64,
}

impl SweepStats {
    /// The counters as one JSON object: the `sweep` block of a figure's
    /// JSON report and the payload of the `sweep_done` log event.
    pub fn to_json(&self) -> Json {
        let n = |v: usize| Json::u64(v as u64);
        Json::Obj(vec![
            ("pairs".into(), n(self.pairs)),
            ("points".into(), n(self.points)),
            ("simulated".into(), n(self.simulated)),
            ("cache_hits".into(), n(self.cache_hits)),
            ("failed".into(), n(self.failed)),
            ("interrupted".into(), n(self.interrupted)),
            ("deduped".into(), n(self.deduped)),
            ("wall_ms".into(), Json::u64(self.wall_ms)),
        ])
    }
}

/// A declarative sweep over `suite × configs` at one scale.
pub struct Sweep {
    suite: Vec<Kernel>,
    scale: Scale,
    configs: Vec<SimConfig>,
    options: RunOptions,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    crash_dir: Option<PathBuf>,
    on_job: Option<fn(&JobTrace)>,
    stop: Option<Arc<AtomicBool>>,
}

impl Sweep {
    /// Sweep of `suite` at `scale`. The result cache defaults to
    /// `$SVR_CACHE_DIR` or `results/cache`; see [`Sweep::no_cache`]. Crash
    /// dumps default to `$SVR_CRASH_DIR` or `results/crash`.
    pub fn new(suite: Vec<Kernel>, scale: Scale) -> Self {
        Sweep {
            suite,
            scale,
            configs: Vec::new(),
            options: RunOptions::default(),
            cache_dir: Some(ResultCache::default_dir().dir().to_path_buf()),
            cache_max_bytes: None,
            crash_dir: Some(default_crash_dir()),
            on_job: None,
            stop: None,
        }
    }

    /// Sets the execution mode for every point (default:
    /// [`ExecMode::Detailed`]). Warp points are cached under distinct keys
    /// (`;mode=warp` suffix), so a warp sweep never pollutes — or reuses —
    /// detailed results.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.options.mode = mode;
        self
    }

    /// Replaces the full per-run options (mode, instruction cap, watchdog
    /// override). The effective cap of each point is the minimum of
    /// [`Scale::max_insts`] and [`RunOptions::max_insts`].
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the configuration axis.
    pub fn configs(mut self, configs: Vec<SimConfig>) -> Self {
        self.configs = configs;
        self
    }

    /// Appends one configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Disables the on-disk result cache (in-sweep dedup still applies, but
    /// nothing is claimed, stored or resumable).
    pub fn no_cache(mut self) -> Self {
        self.cache_dir = None;
        self
    }

    /// Uses `dir` for the on-disk result cache.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Caps the on-disk result cache at `max_bytes`: after every stored
    /// point, the oldest entries (LRU by mtime) are evicted until the cache
    /// fits (see [`crate::ResultCache::gc`]; sub-directories and claim files
    /// are never evicted). Unbounded by default.
    pub fn cache_max_bytes(mut self, max_bytes: u64) -> Self {
        self.cache_max_bytes = Some(max_bytes);
        self
    }

    /// Uses `dir` for crash dumps (the flight recorder output).
    pub fn crash_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.crash_dir = Some(dir.into());
        self
    }

    /// Disables the crash flight recorder (failures still come back as
    /// structured [`JobError`]s, just without a dump on disk).
    pub fn no_crash_dumps(mut self) -> Self {
        self.crash_dir = None;
        self
    }

    /// Installs a progress hook called once per resolved point (from worker
    /// threads, so interleaving is possible) with its wall time and source.
    pub fn on_job(mut self, hook: fn(&JobTrace)) -> Self {
        self.on_job = Some(hook);
        self
    }

    /// Adds a sweep-local stop flag, checked alongside the process-wide
    /// [`crate::shutdown`] flag: when either is set, workers stop claiming
    /// points and surface the remainder as [`SimError::Interrupted`]. Tests
    /// interrupt deterministically this way without touching global state.
    pub fn stop_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.stop = Some(flag);
        self
    }

    /// Resolves every (workload, config) pair across `threads` OS threads
    /// and returns the full grid. Deterministic: simulation results do not
    /// depend on the thread count or on cache state.
    ///
    /// # Panics
    ///
    /// Panics if any configuration fails [`SimConfig::validate`] or if any
    /// job failed (listing every failure and its crash dump); see
    /// [`Sweep::try_run`] for the non-panicking form.
    ///
    /// # Exits
    ///
    /// When a shutdown signal (SIGINT/SIGTERM, with
    /// [`crate::shutdown::install`]ed handlers) arrives mid-sweep, the sweep
    /// stops starting new points, logs a `sweep_interrupted` warning with
    /// the partial counters, and exits the process with status 130 — the
    /// conventional interrupted-by-signal code — instead of panicking over
    /// the unfinished points. Completed points
    /// are cached, so re-running the identical command resumes where this
    /// one stopped. Library callers that need to survive an interruption
    /// should use [`Sweep::try_run`] and inspect
    /// [`SweepStats::interrupted`].
    pub fn run(self, threads: usize) -> SweepResult {
        let res = self.try_run(threads).unwrap_or_else(|e| panic!("{e}"));
        if res.stats.interrupted > 0 {
            log::warn(
                "sweep_interrupted",
                &[
                    ("sweep", res.stats.to_json()),
                    (
                        "hint",
                        Json::str("completed points are cached; re-run the same command to resume"),
                    ),
                ],
            );
            std::process::exit(130);
        }
        let errors = res.errors();
        if !errors.is_empty() {
            let lines: Vec<String> = errors.iter().map(|e| format!("  {e}")).collect();
            panic!("{} sweep job(s) failed:\n{}", errors.len(), lines.join("\n"));
        }
        res
    }

    /// [`Sweep::run`], but failures are data instead of panics:
    ///
    /// * an invalid configuration is surfaced eagerly as a [`ConfigError`]
    ///   naming the offending point, before any simulation starts;
    /// * a job that panics, trips the watchdog, or violates a simulator
    ///   invariant becomes a [`JobError`] on its own grid slot — sibling
    ///   jobs complete normally ([`SweepResult::errors`] lists failures).
    ///
    /// When the cache is enabled every point is claimed before it is
    /// simulated, so sweeps and daemons sharing the cache directory simulate
    /// each point once between them, and re-running a killed or failed sweep
    /// recomputes only the points that never completed.
    pub fn try_run(self, threads: usize) -> Result<SweepResult, ConfigError> {
        let t0 = Instant::now();
        for cfg in &self.configs {
            cfg.validate().map_err(|e| match self.suite.first() {
                Some(k) => e.for_workload(&k.name()),
                None => e,
            })?;
        }

        // Dedup identical points within the grid. Point identity comes from
        // the shared `point_key` (see `crate::cache`).
        struct Point {
            kernel: Kernel,
            config: SimConfig,
            key: PointKey,
        }
        let mut points: Vec<Point> = Vec::new();
        let mut by_hash: HashMap<u64, usize> = HashMap::new();
        let mut point_of: Vec<Vec<usize>> = Vec::with_capacity(self.configs.len());
        for cfg in &self.configs {
            let mut row = Vec::with_capacity(self.suite.len());
            for k in &self.suite {
                let key = point_key(&k.name(), self.scale, cfg, &self.options);
                let idx = *by_hash.entry(key.hash).or_insert_with(|| {
                    points.push(Point {
                        kernel: *k,
                        config: cfg.clone(),
                        key,
                    });
                    points.len() - 1
                });
                row.push(idx);
            }
            point_of.push(row);
        }

        // Points are grouped by workload so each kernel is *built at most
        // once per sweep*, not once per configuration: graph construction
        // (ORK/LJN inputs) costs more wall time than simulating the point
        // itself. Workers take whole groups; the group's workload is built
        // on its first cache miss and reused for every configuration in the
        // group, and a fully cached group never builds.
        let mut groups: Vec<(Kernel, Vec<usize>)> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            match groups.iter_mut().find(|(g, _)| *g == p.kernel) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((p.kernel, vec![i])),
            }
        }
        let cache = self.cache_dir.as_ref().map(ResultCache::new);
        let store = cache.as_ref().map(|cache| PointStore {
            cache,
            claim_timeout: CLAIM_TIMEOUT,
            max_bytes: self.cache_max_bytes,
        });
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<(usize, JobResult, JobTrace)>> =
            Mutex::new(Vec::with_capacity(points.len()));
        let interrupted_now = || {
            shutdown::requested() || self.stop.as_ref().is_some_and(|f| f.load(Ordering::SeqCst))
        };
        std::thread::scope(|s| {
            for _ in 0..threads.max(1).min(groups.len()) {
                s.spawn(|| loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some((kernel, idxs)) = groups.get(g) else { break };
                    let workload = LazyWorkload::new(*kernel, self.scale);
                    for &idx in idxs {
                        let p = &points[idx];
                        // A shutdown signal mid-sweep: stop starting points.
                        // Every unstarted point is surfaced as a structured
                        // `Interrupted` error; completed points are cached,
                        // so an identical re-run resumes without
                        // recomputation.
                        let (trace, result) = if interrupted_now() {
                            interrupt_failure(kernel, p.config.label())
                        } else {
                            resolve_point(
                                store,
                                &p.key,
                                &p.config,
                                &self.options,
                                &workload,
                                self.crash_dir.as_deref(),
                                &mut svr_trace::NullSink,
                            )
                        };
                        emit(&self.on_job, &trace);
                        lock_ok(&done).push((idx, result, trace));
                    }
                });
            }
        });

        // Every point was resolved exactly once: in point order, slot i is
        // point i.
        let mut done = done.into_inner().unwrap_or_else(|p| p.into_inner());
        done.sort_by_key(|(idx, ..)| *idx);
        let (reports, traces): (Vec<JobResult>, Vec<JobTrace>) =
            done.into_iter().map(|(_, result, trace)| (result, trace)).unzip();
        let count = |source: JobSource| traces.iter().filter(|t| t.source == source).count();
        let interrupted = reports
            .iter()
            .filter(|r| matches!(r, Err(e) if matches!(e.error, SimError::Interrupted { .. })))
            .count();
        let stats = SweepStats {
            pairs: self.suite.len() * self.configs.len(),
            points: points.len(),
            simulated: count(JobSource::Simulated),
            cache_hits: count(JobSource::Cached),
            failed: count(JobSource::Failed) - interrupted,
            interrupted,
            deduped: self.suite.len() * self.configs.len() - points.len(),
            wall_ms: t0.elapsed().as_millis() as u64,
        };
        Ok(SweepResult {
            suite: self.suite,
            config_labels: self.configs.iter().map(SimConfig::label).collect(),
            point_of,
            reports,
            traces,
            stats,
        })
    }
}

/// The trace and structured error for a point skipped because shutdown was
/// requested.
fn interrupt_failure(kernel: &Kernel, config: String) -> (JobTrace, JobResult) {
    let workload = kernel.name();
    let trace = JobTrace {
        workload: workload.clone(),
        config: config.clone(),
        source: JobSource::Failed,
        wall_ms: 0.0,
    };
    let error = SimError::Interrupted {
        workload: workload.clone(),
        config: config.clone(),
    };
    (
        trace,
        Err(JobError {
            workload,
            config,
            error,
            crash_dump: None,
        }),
    )
}

/// Reports one resolved point to the progress hook and the debug log.
fn emit(hook: &Option<fn(&JobTrace)>, trace: &JobTrace) {
    if let Some(f) = hook {
        f(trace);
    }
    log::debug(
        "job_resolved",
        &[
            ("workload", Json::str(&trace.workload)),
            ("config", Json::str(&trace.config)),
            (
                "source",
                Json::str(format!("{:?}", trace.source).to_lowercase()),
            ),
            ("wall_ms", Json::f64(trace.wall_ms)),
        ],
    );
}

/// The resolved grid of a [`Sweep`], indexed `[config][workload]` in the
/// order the axes were declared.
#[derive(Debug)]
pub struct SweepResult {
    suite: Vec<Kernel>,
    config_labels: Vec<String>,
    /// `point_of[config][workload]` → index into `reports`.
    point_of: Vec<Vec<usize>>,
    /// One outcome per *unique* design point.
    reports: Vec<JobResult>,
    /// Per-point traces, in point order.
    pub traces: Vec<JobTrace>,
    /// Aggregate counters.
    pub stats: SweepStats,
}

impl SweepResult {
    /// The workload axis.
    pub fn suite(&self) -> &[Kernel] {
        &self.suite
    }

    /// The configuration labels, in axis order.
    pub fn config_labels(&self) -> &[String] {
        &self.config_labels
    }

    /// The report for (config `ci`, workload `wi`).
    ///
    /// # Panics
    ///
    /// Panics (with the structured error) if that job failed; use
    /// [`SweepResult::try_report`] to handle failures.
    pub fn report(&self, ci: usize, wi: usize) -> &RunReport {
        match &self.reports[self.point_of[ci][wi]] {
            Ok(r) => r,
            Err(e) => panic!("sweep point ({ci},{wi}) failed: {e}"),
        }
    }

    /// The outcome for (config `ci`, workload `wi`).
    pub fn try_report(&self, ci: usize, wi: usize) -> Result<&RunReport, &JobError> {
        self.reports[self.point_of[ci][wi]].as_ref()
    }

    /// All reports for configuration `ci`, in suite order.
    ///
    /// # Panics
    ///
    /// Panics if any job of that configuration failed.
    pub fn config_reports(&self, ci: usize) -> Vec<&RunReport> {
        (0..self.suite.len()).map(|wi| self.report(ci, wi)).collect()
    }

    /// The deduplicated successful reports (one per unique design point
    /// whose job succeeded).
    pub fn unique_reports(&self) -> Vec<&RunReport> {
        self.reports.iter().filter_map(|r| r.as_ref().ok()).collect()
    }

    /// Every failed job, in point order.
    pub fn errors(&self) -> Vec<&JobError> {
        self.reports.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    /// Harmonic-mean IPC speedup of configuration `ci` over `base_ci`
    /// (Fig. 1's metric), matched per workload.
    ///
    /// # Panics
    ///
    /// Panics if any involved job failed, or if any speedup is non-positive
    /// or non-finite.
    pub fn speedup(&self, base_ci: usize, ci: usize) -> f64 {
        let mut denom = 0.0;
        for wi in 0..self.suite.len() {
            let b = self.report(base_ci, wi);
            let n = self.report(ci, wi);
            let s = n.ipc() / b.ipc();
            assert!(s.is_finite() && s > 0.0, "bad speedup for {}", b.workload);
            denom += 1.0 / s;
        }
        self.suite.len() as f64 / denom
    }

    /// Asserts every job succeeded and passed its architectural check.
    ///
    /// # Panics
    ///
    /// Panics if any job failed or any report failed verification.
    pub fn assert_verified(&self) {
        let errors = self.errors();
        assert!(
            errors.is_empty(),
            "{} sweep job(s) failed; first: {}",
            errors.len(),
            errors[0]
        );
        for r in self.reports.iter().filter_map(|r| r.as_ref().ok()) {
            assert!(
                r.verified,
                "workload {} under {} failed its architectural check",
                r.workload, r.config
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::runner::run_kernel;

    /// A unique temp cache dir per test (removed on drop).
    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "svr-sweep-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn tiny_suite() -> Vec<Kernel> {
        use svr_workloads::GraphInput;
        vec![Kernel::Camel, Kernel::Pr(GraphInput::Ur), Kernel::NasIs]
    }

    #[test]
    fn second_run_is_all_cache_hits_and_bit_identical() {
        let dir = TempDir::new("roundtrip");
        let configs = vec![SimConfig::inorder(), SimConfig::svr(16)];
        let fresh = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs.clone())
            .cache_dir(&dir.0)
            .run(2);
        assert_eq!(fresh.stats.simulated, 6);
        assert_eq!(fresh.stats.cache_hits, 0);

        let cached = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs)
            .cache_dir(&dir.0)
            .run(2);
        assert_eq!(cached.stats.simulated, 0, "zero simulations on second run");
        assert_eq!(cached.stats.cache_hits, 6);
        for ci in 0..2 {
            for wi in 0..3 {
                assert_eq!(
                    fresh.report(ci, wi),
                    cached.report(ci, wi),
                    "cached report differs at ({ci},{wi})"
                );
            }
        }
    }

    #[test]
    fn identical_points_are_deduped_within_a_sweep() {
        let configs = vec![
            SimConfig::inorder(),
            SimConfig::svr(16),
            SimConfig::inorder(), // shared baseline, declared twice
        ];
        let res = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs)
            .no_cache()
            .run(2);
        assert_eq!(res.stats.pairs, 9);
        assert_eq!(res.stats.points, 6, "baseline simulated once");
        assert_eq!(res.stats.deduped, 3);
        for wi in 0..3 {
            assert_eq!(res.report(0, wi), res.report(2, wi));
        }
    }

    #[test]
    fn sweep_matches_direct_runs_and_is_thread_count_invariant() {
        let configs = vec![SimConfig::inorder(), SimConfig::svr(16)];
        let base = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(configs.clone())
            .no_cache()
            .run(1);
        for threads in [2, 8] {
            let res = Sweep::new(tiny_suite(), Scale::Tiny)
                .configs(configs.clone())
                .no_cache()
                .run(threads);
            for ci in 0..2 {
                for wi in 0..3 {
                    assert_eq!(
                        base.report(ci, wi),
                        res.report(ci, wi),
                        "threads={threads} diverged at ({ci},{wi})"
                    );
                }
            }
        }
        // And against the plain runner.
        let direct = run_kernel(
            Kernel::Camel,
            Scale::Tiny,
            &SimConfig::svr(16),
            &RunOptions::default(),
        )
        .expect("camel runs");
        assert_eq!(&direct, base.report(1, 0));
    }

    #[test]
    fn warp_points_use_distinct_cache_keys() {
        let dir = TempDir::new("warpkey");
        let sweep = || {
            Sweep::new(vec![Kernel::Camel], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
        };
        let detailed = sweep().run(1);
        let warp = sweep().mode(ExecMode::Warp).run(1);
        assert_eq!(warp.stats.cache_hits, 0, "warp must not reuse detailed results");
        assert_eq!(warp.stats.simulated, 1);
        let r = warp.report(0, 0);
        assert_eq!(r.core.cycles, 0, "warp reports carry no timing");
        assert_eq!(r.core.retired, detailed.report(0, 0).core.retired);
        // Warp results are themselves cached, under their own key.
        let again = sweep().mode(ExecMode::Warp).run(1);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.report(0, 0), r);
    }

    #[test]
    fn sampled_points_key_on_mode_and_sampling_params() {
        let dir = TempDir::new("samplekey");
        let sweep = |opts: RunOptions| {
            Sweep::new(vec![Kernel::Camel], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .options(opts)
        };
        let detailed = sweep(RunOptions::default()).run(1);
        let sampled = sweep(RunOptions::sampled(u64::MAX)).run(1);
        assert_eq!(
            sampled.stats.cache_hits, 0,
            "sampled must not reuse detailed results"
        );
        let r = sampled.report(0, 0);
        let est = r.sampled.expect("sampled reports carry the estimator");
        assert_eq!(est.total_retired, detailed.report(0, 0).core.retired);
        // Same sampling parameters hit the cache; different ones miss.
        let again = sweep(RunOptions::sampled(u64::MAX)).run(1);
        assert_eq!(again.stats.cache_hits, 1);
        assert_eq!(again.report(0, 0), r);
        let other = sweep(RunOptions::sampled(u64::MAX).with_sampling(500, 500, 5_000)).run(1);
        assert_eq!(other.stats.cache_hits, 0, "params are part of the key");
    }

    #[test]
    fn corrupt_cache_entries_are_quarantined_and_resimulated() {
        let dir = TempDir::new("corrupt");
        let run = || {
            Sweep::new(vec![Kernel::Camel], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .run(1)
        };
        let fresh = run();
        assert_eq!(fresh.stats.simulated, 1);
        // Truncate every cache file.
        for entry in std::fs::read_dir(&dir.0).expect("dir") {
            let path = entry.expect("entry").path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                std::fs::write(path, "{not json").expect("truncate");
            }
        }
        let again = run();
        assert_eq!(again.stats.cache_hits, 0, "corrupt entry must not hit");
        assert_eq!(again.stats.simulated, 1);
        assert_eq!(fresh.report(0, 0), again.report(0, 0));
        // The corrupt original was moved aside for forensics, not deleted.
        let quarantined = std::fs::read_dir(dir.0.join("quarantine"))
            .expect("quarantine dir exists")
            .count();
        assert_eq!(quarantined, 1, "corrupt entry lands in quarantine/");
    }

    #[test]
    fn panicking_and_livelocking_jobs_fail_in_isolation() {
        let dir = TempDir::new("isolate");
        let crash = TempDir::new("isolate-crash");
        let res = Sweep::new(
            vec![Kernel::Camel, Kernel::DiagSpin, Kernel::DiagPanic],
            Scale::Tiny,
        )
        .config(SimConfig::inorder())
        .cache_dir(&dir.0)
        .crash_dir(&crash.0)
        .try_run(2)
        .expect("configs valid");
        assert_eq!(res.stats.failed, 2);
        assert_eq!(res.stats.simulated, 1);

        // The healthy sibling completed normally.
        let camel = res.try_report(0, 0).expect("camel unaffected");
        assert!(camel.verified);

        // The livelocking guest was terminated by the forward-progress
        // watchdog, with a non-empty flight recording.
        let spin = res.try_report(0, 1).expect_err("DiagSpin must fail");
        assert!(
            matches!(spin.error, SimError::NoForwardProgress { .. }),
            "expected NoForwardProgress, got: {}",
            spin.error
        );
        let dump = spin.crash_dump.as_ref().expect("crash dump written");
        let doc = Json::parse(&std::fs::read_to_string(dump).expect("dump readable"))
            .expect("dump is valid JSON");
        let events = doc.get("events").and_then(Json::as_arr).expect("events array");
        assert!(!events.is_empty(), "flight recording must not be empty");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("no_forward_progress")
        );

        // The build panic was contained to its own point, payload preserved.
        let pan = res.try_report(0, 2).expect_err("DiagPanic must fail");
        assert!(matches!(pan.error, SimError::Panic { .. }), "{}", pan.error);
        assert!(pan.error.to_string().contains("DiagPanic"), "{}", pan.error);
        assert!(pan.crash_dump.is_some(), "build panics get a dump too");

        // errors() lists exactly the two failures.
        assert_eq!(res.errors().len(), 2);
    }

    #[test]
    fn failed_sweeps_resume_from_the_cache_without_recomputation() {
        let dir = TempDir::new("resume");
        let crash = TempDir::new("resume-crash");
        let run = || {
            Sweep::new(vec![Kernel::Camel, Kernel::DiagSpin], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .crash_dir(&crash.0)
                .try_run(2)
                .expect("configs valid")
        };
        let first = run();
        assert_eq!(first.stats.failed, 1);
        assert_eq!(first.stats.simulated, 1);

        let second = run();
        assert_eq!(second.stats.cache_hits, 1, "Camel resumes from the cache");
        assert_eq!(second.stats.simulated, 0, "zero recomputation on resume");
        assert_eq!(second.stats.failed, 1, "the livelock still fails");
        assert!(second.traces.iter().any(|t| t.source == JobSource::Cached));
        assert_eq!(first.report(0, 0), second.report(0, 0));
    }

    #[test]
    fn interrupted_sweeps_resume_from_the_cache_without_recomputation() {
        let dir = TempDir::new("interrupt");
        let sweep = || {
            Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
        };
        // Stop flag pre-set: every point is surfaced as Interrupted without
        // simulating anything. (A sweep-local flag, not the global shutdown
        // flag, so parallel sibling tests are unaffected.)
        let stop = Arc::new(AtomicBool::new(true));
        let first = sweep().stop_flag(stop).try_run(2).expect("configs valid");
        assert_eq!(first.stats.interrupted, 2);
        assert_eq!(first.stats.simulated, 0);
        assert_eq!(first.stats.failed, 0, "interruption is not failure");
        assert_eq!(first.stats.to_json().get("interrupted"), Some(&Json::u64(2)));
        let err = first.try_report(0, 0).expect_err("point was interrupted");
        assert!(
            matches!(err.error, SimError::Interrupted { .. }),
            "{}",
            err.error
        );
        assert!(err.crash_dump.is_none(), "no crash dump for interruption");

        // The identical sweep without the flag completes the work...
        let second = sweep().try_run(2).expect("configs valid");
        assert_eq!(second.stats.interrupted, 0);
        assert_eq!(second.stats.simulated, 2);
        second.assert_verified();
        // ...and from then on resumes with zero recomputation.
        let third = sweep().try_run(2).expect("configs valid");
        assert_eq!(third.stats.cache_hits, 2);
        assert_eq!(third.stats.simulated, 0);
    }

    #[test]
    fn stop_flag_set_mid_sweep_keeps_completed_points() {
        let dir = TempDir::new("interrupt-mid");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // Single worker, two workload groups: flip the flag from the first
        // group's progress hook, so the second group must be interrupted.
        static FLAG: Mutex<Option<Arc<AtomicBool>>> = Mutex::new(None);
        *lock_ok(&FLAG) = Some(flag);
        fn hook(_: &JobTrace) {
            if let Some(f) = lock_ok(&FLAG).as_ref() {
                f.store(true, Ordering::SeqCst);
            }
        }
        let res = Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .stop_flag(stop)
            .on_job(hook)
            .try_run(1)
            .expect("configs valid");
        *lock_ok(&FLAG) = None;
        assert_eq!(res.stats.simulated, 1, "first point completed");
        assert_eq!(res.stats.interrupted, 1, "second point interrupted");
        // The completed point is cached: a re-run only simulates the rest.
        let second = Sweep::new(vec![Kernel::Camel, Kernel::Kangaroo], Scale::Tiny)
            .config(SimConfig::inorder())
            .cache_dir(&dir.0)
            .try_run(1)
            .expect("configs valid");
        assert_eq!(second.stats.simulated, 1, "completed work is not redone");
        assert_eq!(second.stats.interrupted, 0);
        second.assert_verified();
    }

    #[test]
    fn completed_sweeps_leave_only_cache_entries() {
        let dir = TempDir::new("residue");
        Sweep::new(vec![Kernel::Camel], Scale::Tiny)
            .configs(vec![SimConfig::inorder(), SimConfig::svr(16)])
            .cache_dir(&dir.0)
            .run(2);
        let names: Vec<String> = std::fs::read_dir(&dir.0)
            .expect("cache dir")
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names.iter().all(|n| n.ends_with(".json")), "claims released: {names:?}");
    }

    #[test]
    fn scales_do_not_share_cache_entries() {
        let dir = TempDir::new("scales");
        let run = |scale| {
            Sweep::new(vec![Kernel::Camel], scale)
                .config(SimConfig::inorder())
                .cache_dir(&dir.0)
                .run(1)
        };
        assert_eq!(run(Scale::Tiny).stats.simulated, 1);
        assert_eq!(run(Scale::Small).stats.simulated, 1, "different scale");
        assert_eq!(run(Scale::Tiny).stats.cache_hits, 1);
    }

    #[test]
    fn traces_cover_every_point() {
        let res = Sweep::new(tiny_suite(), Scale::Tiny)
            .config(SimConfig::inorder())
            .no_cache()
            .run(2);
        assert_eq!(res.traces.len(), 3);
        assert!(res.traces.iter().all(|t| t.source == JobSource::Simulated));
        assert!(res.traces.iter().all(|t| t.wall_ms >= 0.0));
        assert_eq!(res.stats.to_json().get("simulated"), Some(&Json::u64(3)));
    }

    #[test]
    fn speedup_matches_harmonic_mean_helper() {
        let res = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(vec![SimConfig::inorder(), SimConfig::svr(16)])
            .no_cache()
            .run(4);
        let base: Vec<RunReport> = res.config_reports(0).into_iter().cloned().collect();
        let new: Vec<RunReport> = res.config_reports(1).into_iter().cloned().collect();
        let expect = crate::harmonic_mean_speedup(&base, &new);
        assert!((res.speedup(0, 1) - expect).abs() < 1e-12);
    }

    #[test]
    fn try_run_surfaces_invalid_configs_with_context() {
        let mut bad = SimConfig::imp();
        bad.mem.imp = None; // representable, but silently equals plain InO
        let err = Sweep::new(tiny_suite(), Scale::Tiny)
            .configs(vec![SimConfig::inorder(), bad])
            .no_cache()
            .try_run(1)
            .expect_err("invalid config must fail the sweep eagerly");
        assert_eq!(err.config, "IMP");
        assert_eq!(err.workload.as_deref(), Some("Camel"));
        assert!(err.to_string().starts_with("invalid SimConfig IMP"), "{err}");
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: changing the hash silently orphans every cache entry.
        assert_eq!(crate::fnv1a64(""), 0xcbf29ce484222325);
        assert_eq!(crate::fnv1a64("a"), 0xaf63dc4c8601ec8c);
    }
}
