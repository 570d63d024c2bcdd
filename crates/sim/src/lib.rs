//! # svr-sim — simulation driver for the SVR reproduction
//!
//! Glues the workspace together: configurations for every design point in
//! Table III (and the sensitivity variants of §VI-E), a runner that
//! simulates a workload on a chosen core and collects timing, memory,
//! prefetch-effectiveness and energy statistics, and helpers for the
//! aggregate metrics the paper reports (harmonic-mean speedup, grouped
//! results, parallel sweeps).
//!
//! # Examples
//!
//! ```
//! use svr_sim::{run_kernel, RunOptions, SimConfig};
//! use svr_workloads::{Kernel, Scale};
//!
//! let opts = RunOptions::default();
//! let base = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::inorder(), &opts).unwrap();
//! let svr = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::svr(16), &opts).unwrap();
//! assert!(svr.core.cycles < base.core.cycles, "SVR speeds up Camel");
//!
//! // Warp mode: functional fast-forward, no timing model at all.
//! let warp = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::inorder(), &RunOptions::default().with_mode(svr_sim::ExecMode::Warp)).unwrap();
//! assert_eq!(warp.core.retired, base.core.retired);
//! assert_eq!(warp.core.cycles, 0);
//! ```

mod cache;
mod config;
mod crash;
mod error;
pub mod fault;
pub mod metrics;
mod options;
mod profile;
mod report;
mod resolve;
mod runner;
pub mod shutdown;
mod sweep;

/// The hand-rolled JSON support now lives in the dependency-free `svr-trace`
/// crate (the streaming Perfetto writer needs it below this layer);
/// re-exported here so `svr_sim::json` keeps working.
pub use svr_trace::json;

pub use cache::{
    fnv1a64, point_key, CacheGcStats, Claim, ClaimGuard, PointKey, ResultCache,
    CACHE_FORMAT_VERSION, CLAIM_TIMEOUT,
};
pub use config::{ConfigError, CoreChoice, SimConfig, TraceConfig};
pub use crash::{default_crash_dir, write_crash_dump};
pub use error::SimError;
pub use fault::{FaultPlan, FaultSite};
pub use json::Json;
pub use metrics::{
    CacheMetrics, Counter, Gauge, HistSnapshot, Histogram, MetricsRegistry, MetricsSnapshot,
};
pub use options::{ExecMode, RunOptions};
pub use profile::{
    golden_diff, pf_source_index, PcProfile, Profiler, NUM_BUCKETS, NUM_PF_SOURCES,
    PF_SOURCE_NAMES,
};
pub use report::{report_from_json, report_to_json};
pub use resolve::{
    resolve_point, JobError, JobResult, JobSource, JobTrace, LazyWorkload, PointStore,
};
pub use runner::{
    energy_input, harmonic_mean_speedup, run_kernel, run_workload, run_workload_traced,
    RunReport, SampledStats,
};
pub use sweep::{Sweep, SweepResult, SweepStats};

/// Locks a mutex, riding through poisoning: every panic in this workspace's
/// worker threads is caught at a job boundary, and the guarded data is
/// updated atomically under the lock, so it stays consistent.
pub fn lock_ok<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Renders a panic payload (the common `&str`/`String` cases).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Groups reports by the kernel group label and averages a metric within
/// each group (used by Figs. 13 and 15, which aggregate similar workloads).
pub fn group_mean<F>(
    reports: &[(svr_workloads::Kernel, RunReport)],
    metric: F,
) -> Vec<(String, f64)>
where
    F: Fn(&RunReport) -> f64,
{
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (k, r) in reports {
        let e = acc.entry(k.group().label().to_string()).or_insert((0.0, 0));
        e.0 += metric(r);
        e.1 += 1;
    }
    acc.into_iter()
        .map(|(g, (sum, n))| (g, sum / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_workloads::{GraphInput, Kernel, Scale};

    #[test]
    fn group_mean_averages_within_groups() {
        let mk = |k: Kernel, cpi: u64| {
            (
                k,
                RunReport {
                    workload: k.name(),
                    config: "x".into(),
                    core: svr_core::CoreStats {
                        cycles: cpi * 100,
                        retired: 100,
                        ..svr_core::CoreStats::default()
                    },
                    mem: svr_mem::MemStats::default(),
                    energy: svr_energy::EnergyBreakdown::default(),
                    verified: true,
                    sampled: None,
                },
            )
        };
        let reports = vec![
            mk(Kernel::Pr(GraphInput::Kr), 4),
            mk(Kernel::Pr(GraphInput::Ur), 8),
            mk(Kernel::Camel, 10),
        ];
        let means = group_mean(&reports, |r| r.cpi());
        let pr = means.iter().find(|(g, _)| g == "PR").expect("PR group");
        assert!((pr.1 - 6.0).abs() < 1e-9);
        let hpc = means.iter().find(|(g, _)| g == "HPC-DB").expect("HPC-DB");
        assert!((hpc.1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn svr_beats_inorder_on_tiny_camel() {
        let opts = RunOptions::default();
        let base = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::inorder(), &opts).unwrap();
        let svr = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::svr(16), &opts).unwrap();
        assert!(svr.core.cycles < base.core.cycles);
    }
}
