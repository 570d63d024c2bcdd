//! Layer probes for the traced run: each times one layer's public
//! functions in isolation, on inputs taken from the workload being traced.

use crate::spans;
use crate::stats::median;
use std::path::Path;
use std::time::{Duration, Instant};
use svr_mem::{Access, AccessKind, HitLevel, MemConfig, MemoryHierarchy};
use svr_sim::{
    point_key, report_from_json, report_to_json, run_workload, run_workload_traced, Claim,
    ResultCache, RunOptions, RunReport, SimConfig,
};
use svr_trace::RingSink;
use svr_workloads::{Kernel, Rng64, Scale, Workload};

/// Instructions each core-model probe simulates (detailed).
pub const CORE_INSTS: u64 = 500_000;

/// Builds every kernel once (`Kernel::build`); returns the seconds each
/// took and the first kernel's workload for the other probes.
pub fn build(kernels: &[Kernel], scale: Scale, parent: u64) -> (Vec<f64>, Workload) {
    let mut each = Vec::new();
    let mut first = None;
    for &k in kernels {
        let t = Instant::now();
        let w = spans::span("workloads.build", parent, |_| k.build(scale));
        each.push(t.elapsed().as_secs_f64());
        first.get_or_insert(w);
    }
    (each, first.expect("a workload has at least one kernel"))
}

fn run(
    w: &Workload,
    cfg: &SimConfig,
    opts: &RunOptions,
    parent: u64,
) -> Result<(RunReport, f64), String> {
    let t = Instant::now();
    let r = spans::span("sim.run_workload", parent, |_| run_workload(w, cfg, opts));
    let s = t.elapsed().as_secs_f64();
    r.map(|r| (r, s)).map_err(|e| e.to_string())
}

/// Simulated Minst/s of the detailed core models on `w`, in the order
/// in-order, IMP, OoO, SVR16, SVR128.
pub fn cores(w: &Workload, parent: u64) -> Result<[f64; 5], String> {
    let cfgs = [
        SimConfig::inorder(),
        SimConfig::imp(),
        SimConfig::ooo(),
        SimConfig::svr(16),
        SimConfig::svr(128),
    ];
    let mut out = [0.0; 5];
    for (o, cfg) in out.iter_mut().zip(&cfgs) {
        let (r, s) = run(w, cfg, &RunOptions::detailed(CORE_INSTS), parent)?;
        *o = r.core.retired as f64 / s / 1e6;
    }
    Ok(out)
}

/// Minst/s of warp fast-forward and of sampled mode on `w` (in-order
/// config, the scale's instruction budget).
pub fn warp_and_sampled(w: &Workload, scale: Scale, parent: u64) -> Result<(f64, f64), String> {
    let cfg = SimConfig::inorder();
    let (r, s) = run(w, &cfg, &RunOptions::warp(scale.max_insts()), parent)?;
    let warp = r.core.retired as f64 / s / 1e6;
    let (r, s) = run(w, &cfg, &RunOptions::sampled(scale.max_insts()), parent)?;
    let retired = r.sampled.map_or(r.core.retired, |st| st.total_retired);
    Ok((warp, retired as f64 / s / 1e6))
}

/// Host time of an SVR16 run with a `RingSink` attached over the same run
/// with the `NullSink` (median of three alternating pairs).
pub fn ring_overhead(w: &Workload, parent: u64) -> Result<f64, String> {
    let cfg = SimConfig::svr(16);
    let opts = RunOptions::detailed(CORE_INSTS);
    let (mut null, mut ring) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        null.push(run(w, &cfg, &opts, parent)?.1);
        let mut sink = RingSink::new(1 << 16);
        let t = Instant::now();
        spans::span("sim.run_workload_traced", parent, |_| {
            run_workload_traced(w, &cfg, &opts, &mut sink)
        })
        .map_err(|e| e.to_string())?;
        ring.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&ring).unwrap_or(0.0) / median(&null).unwrap_or(f64::NAN))
}

/// One synthetic access pattern for the hierarchy microbench.
struct Pattern {
    name: &'static str,
    level: HitLevel,
    /// Whether (nearly) every access must walk the page table.
    walks: bool,
    addrs: Vec<u64>,
    /// Times the address list is replayed while measuring.
    passes: usize,
}

const LINE: u64 = 64;
const PAGE: u64 = 4096;
const BASE: u64 = 0x1000_0000;

fn patterns() -> [Pattern; 4] {
    // 16 KiB, well inside the 64 KiB L1-D.
    let l1 = (0..256).map(|i| BASE + i * LINE).collect();
    // 256 KiB: four times the L1-D, half the 512 KiB L2.
    let l2 = (0..4096).map(|i| BASE + i * LINE).collect();
    // Random lines over 16 GiB, 32768 times the L2.
    let mut rng = Rng64::new(0xd7a3);
    let dram = (0..200_000)
        .map(|_| BASE + rng.below((16 << 30) / LINE) * LINE)
        .collect();
    // One line in each of 4096 pages: twice the 2048-entry second-level
    // TLB, so every access walks; the 4096 lines (256 KiB) stay in the L2.
    // The line within the page rotates so the lines spread over the sets.
    let tlb = (0..4096u64)
        .map(|p| BASE + p * PAGE + ((p / 16) % 64) * LINE)
        .collect();
    [
        Pattern {
            name: "mem.l1_hit",
            level: HitLevel::L1,
            walks: false,
            addrs: l1,
            passes: 4000,
        },
        Pattern {
            name: "mem.l2_hit",
            level: HitLevel::L2,
            walks: false,
            addrs: l2,
            passes: 250,
        },
        Pattern {
            name: "mem.dram",
            level: HitLevel::Dram,
            walks: false,
            addrs: dram,
            passes: 1,
        },
        Pattern {
            name: "mem.tlb_walk",
            level: HitLevel::L2,
            walks: true,
            addrs: tlb,
            passes: 250,
        },
    ]
}

/// Share of a pattern's accesses that must land on the intended level.
pub const HIT_SHARE: f64 = 0.99;

/// ns per `MemoryHierarchy::access` for the L1-hit, L2-hit, DRAM and
/// TLB-walk patterns. Each pattern runs on a fresh hierarchy (Table III
/// geometry, no prefetcher) after an untimed warm-up pass, one access at a
/// time; fails unless [`HIT_SHARE`] of the timed accesses hit the intended
/// level (and walk, for the TLB pattern).
pub fn hierarchy(parent: u64) -> Result<[f64; 4], String> {
    let mut out = [0.0; 4];
    for (o, p) in out.iter_mut().zip(patterns()) {
        let cfg = MemConfig {
            stride_pf: None,
            ..MemConfig::default()
        };
        let mut h = MemoryHierarchy::new(cfg);
        let mut now = 0u64;
        let mut access = |h: &mut MemoryHierarchy, addr: u64| {
            let r = h.access(Access::new(now, addr, AccessKind::DemandLoad));
            now = r.complete_at.max(now + 1);
            r.level
        };
        // The random pattern warms up on lines it never touches again.
        let (warm, timed) = if p.level == HitLevel::Dram {
            p.addrs.split_at(10_000)
        } else {
            (&p.addrs[..], &p.addrs[..])
        };
        for &a in warm {
            access(&mut h, a);
        }
        let walks0 = h.stats().tlb_walks;
        let mut hits = 0u64;
        let n = (timed.len() * p.passes) as u64;
        let t = Instant::now();
        spans::span(p.name, parent, |_| {
            for _ in 0..p.passes {
                for &a in timed {
                    hits += u64::from(std::hint::black_box(access(&mut h, a)) == p.level);
                }
            }
        });
        *o = t.elapsed().as_secs_f64() * 1e9 / n as f64;
        let walks = h.stats().tlb_walks - walks0;
        if (hits as f64) < HIT_SHARE * n as f64 {
            return Err(format!(
                "{}: {hits} of {n} accesses hit {:?}",
                p.name, p.level
            ));
        }
        if p.walks && (walks as f64) < HIT_SHARE * n as f64 {
            return Err(format!("{}: {walks} of {n} accesses walked", p.name));
        }
    }
    Ok(out)
}

/// Median µs per `report_to_json` and per `report_from_json` over
/// `reports` (replayed until at least 2000 calls each).
pub fn report_json(reports: &[RunReport], parent: u64) -> Result<(f64, f64), String> {
    let (mut to, mut from) = (Vec::new(), Vec::new());
    while to.len() < 2000 && !reports.is_empty() {
        for r in reports {
            let t = Instant::now();
            let j = spans::span("report.to_json", parent, |_| report_to_json(r));
            to.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let back = spans::span("report.from_json", parent, |_| report_from_json(&j))?;
            from.push(t.elapsed().as_secs_f64() * 1e6);
            if &back != r {
                return Err(format!(
                    "{} {} does not round-trip through JSON",
                    r.workload, r.config
                ));
            }
        }
    }
    Ok((median(&to).unwrap_or(0.0), median(&from).unwrap_or(0.0)))
}

/// Median µs of `ResultCache::store`, `load` and a `claim` that hits, over
/// `reports` in a fresh cache at `dir` (three passes).
pub fn cache_ops(
    reports: &[RunReport],
    scale: Scale,
    opts: &RunOptions,
    dir: &Path,
    parent: u64,
) -> Result<[f64; 3], String> {
    let store = ResultCache::new(dir);
    let mut t_store = Vec::new();
    let mut t_load = Vec::new();
    let mut t_claim = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for _ in 0..3 {
        for r in reports {
            let cfg = svr_bench::config_from_label(&r.config)
                .ok_or_else(|| format!("unknown config label {}", r.config))?;
            let key = point_key(&r.workload, scale, &cfg, opts);
            let t = Instant::now();
            spans::span("cache.store", parent, |_| store.store(&key, scale, r));
            t_store.push(us(t));
            let t = Instant::now();
            let back = spans::span("cache.load", parent, |_| store.load(&key));
            t_load.push(us(t));
            if back.as_ref() != Some(r) {
                return Err(format!("{} {} did not load back", r.workload, r.config));
            }
            let t = Instant::now();
            let claim = spans::span("cache.claim", parent, |_| {
                store.claim(&key, Duration::from_secs(5), Duration::from_secs(600))
            });
            t_claim.push(us(t));
            if !matches!(claim, Claim::Hit(_)) {
                return Err(format!(
                    "{} {}: claim missed a stored entry",
                    r.workload, r.config
                ));
            }
        }
    }
    let m = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok([m(&t_load), m(&t_store), m(&t_claim)])
}
