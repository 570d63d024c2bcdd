//! The warm-cache fill of a serve round: `Sweep::try_run` on [`THREADS`]
//! threads into the round's fresh cache, with the per-job record the
//! `on_job` hook delivers.

use crate::jobs::{SweepSpec, THREADS};
use crate::spans;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use svr_sim::{JobSource, JobTrace, RunOptions, RunReport, SimConfig, Sweep};

/// One job as the `on_job` hook saw it.
#[derive(Debug, Clone, Copy)]
struct JobMark {
    wall_ms: f64,
    ok: bool,
}

// `on_job` takes a plain `fn`, so the hook reports through statics. One
// sweep runs at a time in this process.
static JOBS: Mutex<Vec<JobMark>> = Mutex::new(Vec::new());
static SWEEP_SPAN: AtomicU64 = AtomicU64::new(0);

fn on_job(t: &JobTrace) {
    let done = Instant::now();
    let busy = std::time::Duration::from_secs_f64(t.wall_ms.max(0.0) / 1e3);
    let start = done.checked_sub(busy).unwrap_or(done);
    spans::record(
        spans::next_id(),
        SWEEP_SPAN.load(Ordering::Relaxed),
        "sweep.job",
        start,
        done,
    );
    JOBS.lock()
        .expect("job record poisoned by a panicking hook")
        .push(JobMark {
            wall_ms: t.wall_ms,
            ok: t.source != JobSource::Failed,
        });
}

/// What one sweep produced.
#[derive(Debug, Default)]
pub struct SweepRep {
    /// `try_run` wall time.
    pub wall_s: f64,
    /// Per job simulate (or load) time, ms, from the hook.
    pub job_ms: Vec<f64>,
    /// Unique successful reports.
    pub reports: Vec<RunReport>,
    /// Jobs attempted (unique points).
    pub attempted: u64,
    /// Failed jobs plus reports that failed their architectural check.
    pub failed: u64,
}

/// Runs `spec` with `configs` once, into a cache at `dir/cache` (crash
/// dumps to `dir/crash`).
pub fn run_rep(
    spec: &SweepSpec,
    configs: &[SimConfig],
    dir: &Path,
    parent: u64,
) -> std::io::Result<SweepRep> {
    let cache = dir.join("cache");
    let crash = dir.join("crash");
    std::fs::create_dir_all(&cache)?;
    std::fs::create_dir_all(&crash)?;
    let sweep = Sweep::new(spec.kernels.clone(), spec.scale)
        .options(RunOptions::default().with_mode(spec.mode))
        .configs(configs.to_vec())
        .cache_dir(&cache)
        .crash_dir(&crash)
        .on_job(on_job);
    JOBS.lock().expect("job record poisoned").clear();

    let span_id = spans::next_id();
    SWEEP_SPAN.store(span_id, Ordering::Relaxed);
    let t0 = Instant::now();
    let result = sweep.try_run(THREADS);
    let t1 = Instant::now();
    spans::record(span_id, parent, "sweep.try_run", t0, t1);

    let marks = std::mem::take(&mut *JOBS.lock().expect("job record poisoned"));
    let mut rep = SweepRep {
        wall_s: (t1 - t0).as_secs_f64(),
        job_ms: marks.iter().map(|m| m.wall_ms).collect(),
        failed: marks.iter().filter(|m| !m.ok).count() as u64,
        ..SweepRep::default()
    };
    match result {
        Ok(res) => {
            rep.attempted = res.stats.points as u64;
            rep.reports = res.unique_reports().into_iter().cloned().collect();
            rep.failed = rep.failed.max(res.errors().len() as u64);
            for e in res.errors() {
                eprintln!("perfbench: job failed: {e}");
            }
        }
        Err(e) => {
            eprintln!("perfbench: sweep rejected its configuration: {e}");
            rep.attempted = (spec.kernels.len() * configs.len()) as u64;
            rep.failed = rep.attempted;
        }
    }
    let unverified = rep.reports.iter().filter(|r| !r.verified).count() as u64;
    rep.failed += unverified;
    Ok(rep)
}
