//! The one path that resolves a design point: claim → build → simulate →
//! store. Sweeps ([`crate::Sweep`]), the simulation daemon (`svr-serve`)
//! and `svr_client run-local` all call [`resolve_point`], so every user of a
//! shared [`ResultCache`] gets the same guarantees:
//!
//! * **exactly once** — the point is claimed in the cache before anything is
//!   built, so processes racing on one point cost one simulation; a caller
//!   never holds a claim while waiting on another, so racing sweeps cannot
//!   deadlock;
//! * **isolation** — the workload build and the simulation run
//!   panic-isolated, with one bounded retry, and a failure comes back as a
//!   structured [`JobError`] (with a crash dump when the flight recorder
//!   managed to write one) instead of unwinding into the caller.

use crate::cache::{Claim, PointKey, ResultCache};
use crate::config::SimConfig;
use crate::crash::write_crash_dump;
use crate::error::SimError;
use crate::fault::{self, FaultSite};
use crate::options::RunOptions;
use crate::panic_message;
use crate::runner::{run_workload_traced, RunReport};
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use svr_trace::{RingSink, TraceSink};
use svr_workloads::{Kernel, Scale, Workload};

/// Where a job's report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Freshly simulated by this caller.
    Simulated,
    /// Loaded from the on-disk result cache (including entries another
    /// process stored while this caller waited on its claim).
    Cached,
    /// The job failed; see the matching [`JobError`].
    Failed,
}

/// One failed job: the structured error plus the crash-dump path when the
/// flight recorder managed to write one.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// What went wrong.
    pub error: SimError,
    /// Where the crash dump landed, if one was written.
    pub crash_dump: Option<PathBuf>,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)?;
        if let Some(p) = &self.crash_dump {
            write!(f, " (crash dump: {})", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for JobError {}

/// The outcome of one job: a report, or the structured failure that
/// replaced it.
pub type JobResult = Result<RunReport, JobError>;

/// Trace record for one resolved design point (the progress hook payload).
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Workload name.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// How the report was obtained.
    pub source: JobSource,
    /// Wall time spent simulating and storing (or claiming and loading)
    /// this point, in milliseconds. Workload construction is excluded.
    pub wall_ms: f64,
}

/// A workload built on first use, panic-isolated. One instance serves every
/// point of a sweep group, so the group builds at most once — and a group
/// whose points all hit the cache never builds at all.
#[derive(Debug)]
pub struct LazyWorkload {
    kernel: Kernel,
    scale: Scale,
    built: OnceCell<Result<Workload, String>>,
}

impl LazyWorkload {
    /// `kernel` at `scale`, not built yet.
    pub fn new(kernel: Kernel, scale: Scale) -> Self {
        LazyWorkload {
            kernel,
            scale,
            built: OnceCell::new(),
        }
    }

    /// The built workload, or the build's panic message (the build runs
    /// once; a panicking build fails every later `get` the same way).
    fn get(&self) -> Result<&Workload, &str> {
        self.built
            .get_or_init(|| {
                catch_unwind(AssertUnwindSafe(|| self.kernel.build(self.scale)))
                    .map_err(panic_message)
            })
            .as_ref()
            .map_err(String::as_str)
    }
}

/// The cache side of [`resolve_point`]: the store, how long to wait on
/// another live holder's claim, and an optional size cap enforced by
/// [`ResultCache::gc`] after every store.
#[derive(Debug, Clone, Copy)]
pub struct PointStore<'a> {
    /// The shared result store.
    pub cache: &'a ResultCache,
    /// Claim-wait budget (see [`ResultCache::claim`]).
    pub claim_timeout: Duration,
    /// Cache size cap in bytes; `None` means unbounded.
    pub max_bytes: Option<u64>,
}

/// Resolves one design point.
///
/// With a store, the point is claimed first: a hit returns the cached
/// report. On a won claim the workload is built (lazily, once per
/// [`LazyWorkload`]), simulated with `sink` attached — panic-isolated, with
/// one traced retry and a crash dump on failure — stored, the cache is
/// collected when capped, and the claim is released. Without a store the
/// point is simulated directly.
///
/// `key` must be the [`crate::point_key`] of (`workload`, `config`,
/// `options`). The sink sees the events of every attempt: if the isolated
/// first attempt fails and the traced retry runs, cycle timestamps restart
/// from zero — live consumers should treat a cycle regression as "the run
/// restarted".
pub fn resolve_point<S: TraceSink>(
    store: Option<PointStore<'_>>,
    key: &PointKey,
    config: &SimConfig,
    options: &RunOptions,
    workload: &LazyWorkload,
    crash_dir: Option<&Path>,
    sink: &mut S,
) -> (JobTrace, JobResult) {
    let trace = |workload: String, source, since: Instant| JobTrace {
        workload,
        config: config.label(),
        source,
        wall_ms: since.elapsed().as_secs_f64() * 1e3,
    };
    let t = Instant::now();
    let claim = match store {
        Some(s) => match s.cache.claim(key, s.claim_timeout, crate::CLAIM_TIMEOUT) {
            Claim::Hit(report) => {
                return (
                    trace(report.workload.clone(), JobSource::Cached, t),
                    Ok(*report),
                )
            }
            Claim::Won(guard) => Some(guard),
        },
        None => None,
    };
    let built = match workload.get() {
        Ok(w) => w,
        Err(msg) => {
            let job = build_failure(workload.kernel, config.label(), &key.key, msg, crash_dir);
            let trace = trace(job.workload.clone(), JobSource::Failed, Instant::now());
            return (trace, Err(job));
        }
    };
    if let Some(d) = fault::stall(FaultSite::WorkerStall) {
        std::thread::sleep(d);
    }
    let t = Instant::now();
    let result = simulate_point(
        built,
        config,
        &key.key,
        workload.scale,
        options,
        crash_dir,
        sink,
    );
    let source = match &result {
        Ok(report) => {
            if let Some(s) = store {
                s.cache.store(key, workload.scale, report);
                if let Some(max) = s.max_bytes {
                    s.cache.gc(max);
                }
            }
            JobSource::Simulated
        }
        Err(_) => JobSource::Failed,
    };
    drop(claim);
    (trace(built.name.clone(), source, t), result)
}

/// Runs one point panic-isolated, with one bounded retry.
///
/// The first attempt runs with only the caller's sink attached. If it fails
/// *in any way* — panic or structured error — the point is retried once with
/// the ring sink teed in: the simulator is deterministic, so a real failure
/// reproduces with the event history needed for the crash dump, while a
/// flaky host-environment panic gets its one retry and recovers.
#[allow(clippy::result_large_err)] // cold path: the Err carries full diagnostics by design
fn simulate_point<S: TraceSink>(
    workload: &Workload,
    config: &SimConfig,
    key: &str,
    scale: Scale,
    options: &RunOptions,
    crash_dir: Option<&Path>,
    sink: &mut S,
) -> JobResult {
    let opts = RunOptions {
        max_insts: scale.max_insts().min(options.max_insts),
        ..*options
    };
    if let Ok(Ok(report)) = catch_unwind(AssertUnwindSafe(|| {
        // The worker-panic fault lives inside the first attempt ONLY: the
        // panic-isolated retry below is deliberately not a site, so an
        // injected panic always recovers (that recovery is the thing the
        // chaos suite is proving).
        fault::maybe_panic(FaultSite::WorkerPanic);
        run_workload_traced(workload, config, &opts, &mut *sink)
    })) {
        return Ok(report);
    }
    // The ring lives OUTSIDE the closure (inside the tee) so the events
    // leading into a panic survive the unwind and reach the crash dump.
    let mut tee = (RingSink::new(config.trace.ring_capacity), &mut *sink);
    let second = catch_unwind(AssertUnwindSafe(|| {
        run_workload_traced(workload, config, &opts, &mut tee)
    }));
    let ring = tee.0;
    let error = match second {
        Ok(Ok(report)) => return Ok(report), // flaky first failure, recovered
        Ok(Err(e)) => e,
        Err(payload) => SimError::Panic {
            workload: workload.name.clone(),
            config: config.label(),
            message: panic_message(payload),
        },
    };
    let crash_dump = crash_dir.and_then(|dir| {
        write_crash_dump(dir, &workload.name, &config.label(), key, &error, &ring)
            .map_err(|e| eprintln!("[sweep] warning: could not write crash dump: {e}"))
            .ok()
    });
    Err(JobError {
        workload: workload.name.clone(),
        config: config.label(),
        error,
        crash_dump,
    })
}

/// A workload-build panic fails the point; there is no trace history yet,
/// so the dump records only the point identity and the error.
fn build_failure(
    kernel: Kernel,
    config_label: String,
    key: &str,
    message: &str,
    crash_dir: Option<&Path>,
) -> JobError {
    let workload = kernel.name();
    let error = SimError::Panic {
        workload: workload.clone(),
        config: config_label.clone(),
        message: format!("workload build panicked: {message}"),
    };
    let empty = RingSink::new(1);
    let crash_dump = crash_dir
        .and_then(|dir| write_crash_dump(dir, &workload, &config_label, key, &error, &empty).ok());
    JobError {
        workload,
        config: config_label,
        error,
        crash_dump,
    }
}
