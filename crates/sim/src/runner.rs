//! Running workloads under configurations and collecting reports.

use crate::config::{CoreChoice, SimConfig};
use crate::error::SimError;
use crate::options::{ExecMode, RunOptions};
use svr_core::{CoreModel, CoreStats, InOrderCore, OooCore};
use svr_energy::{CoreKind, EnergyBreakdown, EnergyInput, EnergyModel};
use svr_isa::{ArchState, DecodedProgram};
use svr_mem::{MemImage, MemStats};
use svr_trace::{NullSink, TraceSink};
use svr_workloads::{Kernel, Scale, Workload};

/// Sampling-estimator summary of an [`ExecMode::Sampled`] run.
///
/// The run is divided into periods of `period_insts` retired instructions;
/// each period runs `warmup_insts` detailed instructions (timed, but not
/// sampled), then `interval_insts` *measured* detailed instructions whose
/// cycle/retire deltas form one sample, then warp fast-forward for the rest
/// of the period. The CPI point estimate is the ratio of sums
/// `measured_cycles / measured_retired` (so long intervals are not
/// under-weighted), and `ci95` is the half-width of the 95% confidence
/// interval computed from the sample variance of the per-interval CPIs
/// (`1.96·s/√n`; zero when fewer than two intervals were measured).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampledStats {
    /// Number of measured intervals (samples).
    pub intervals: u64,
    /// Configured measured-interval length, instructions.
    pub interval_insts: u64,
    /// Configured detailed warm-up length, instructions.
    pub warmup_insts: u64,
    /// Effective sampling period, instructions (after clamping to at least
    /// warm-up + interval).
    pub period_insts: u64,
    /// Total instructions retired across all segments, detailed and warp.
    pub total_retired: u64,
    /// Instructions retired inside measured intervals.
    pub measured_retired: u64,
    /// Cycles elapsed inside measured intervals.
    pub measured_cycles: u64,
    /// CPI point estimate (ratio of sums over measured intervals).
    pub cpi: f64,
    /// 95% confidence-interval half-width of the CPI estimate.
    pub ci95: f64,
}

/// The result of simulating one workload under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload name ("PR_KR", ...).
    pub workload: String,
    /// Configuration label ("SVR16", ...).
    pub config: String,
    /// Core-side statistics (cycles, CPI stack, SVR activity).
    pub core: CoreStats,
    /// Memory-side statistics (misses, DRAM traffic, prefetch accuracy).
    pub mem: MemStats,
    /// Whole-system energy.
    pub energy: EnergyBreakdown,
    /// Whether the architectural check passed (always true for capped runs
    /// that did not reach `halt`).
    pub verified: bool,
    /// Sampling-estimator summary ([`ExecMode::Sampled`] runs only).
    pub sampled: Option<SampledStats>,
}

impl RunReport {
    /// Cycles per instruction: the sampling estimate for sampled runs (so
    /// figure binaries work unchanged across modes), the exact core ratio
    /// otherwise.
    pub fn cpi(&self) -> f64 {
        match &self.sampled {
            Some(s) if s.measured_retired > 0 => s.cpi,
            _ => self.core.cpi(),
        }
    }

    /// Instructions per cycle (reciprocal of [`RunReport::cpi`]).
    pub fn ipc(&self) -> f64 {
        match &self.sampled {
            Some(s) if s.measured_retired > 0 && s.cpi > 0.0 => 1.0 / s.cpi,
            _ => self.core.ipc(),
        }
    }

    /// Whole-system energy per committed instruction (nJ).
    pub fn nj_per_inst(&self) -> f64 {
        self.energy.nj_per_inst(self.core.retired)
    }

    /// SVR prefetch accuracy, if any outcomes were observed.
    pub fn svr_accuracy(&self) -> Option<f64> {
        self.mem.svr.accuracy()
    }
}

/// Simulates `workload` under `config` as directed by `opts`.
///
/// In [`ExecMode::Detailed`] (the default) this is the cycle-accurate
/// simulator and the report is bit-identical to the historical runner. In
/// [`ExecMode::Warp`] the pre-decoded program executes functionally (no
/// timing, no memory hierarchy): final architectural state and `retired`
/// match a detailed run, while every timing/memory statistic is zero. In
/// [`ExecMode::Sampled`] the run alternates warp fast-forward with detailed
/// warm-up and measurement intervals; the report's core/memory statistics
/// cover the detailed-executed portion and [`RunReport::sampled`] carries
/// the extrapolated CPI estimate with its confidence interval.
///
/// # Errors
///
/// Returns a [`SimError`] naming the workload and configuration label:
///
/// * [`SimError::Config`] if the configuration is internally inconsistent
///   (see [`SimConfig::validate`]) — e.g. [`CoreChoice::Imp`] without an
///   attached `ImpConfig`, which would silently simulate the plain in-order
///   baseline;
/// * [`SimError::NoForwardProgress`] / [`SimError::CycleBudgetExceeded`] if
///   the watchdog terminated a livelocked or runaway guest (see
///   [`svr_core::WatchdogConfig`] and [`RunOptions::watchdog`]; in warp
///   mode — and the warp gaps of sampled mode — the progress window counts
///   consecutive effect-free retired instructions, since a functional run
///   has no cycles);
/// * [`SimError::InvariantViolation`] if a post-run simulator self-check
///   failed — checked in release builds too, so accounting bugs surface in
///   real sweeps and not only under `debug_assert!`.
pub fn run_workload(
    workload: &Workload,
    config: &SimConfig,
    opts: &RunOptions,
) -> Result<RunReport, SimError> {
    run_workload_traced(workload, config, opts, &mut NullSink)
}

/// [`run_workload`] with a caller-owned trace sink attached to the core and
/// memory hierarchy.
///
/// The sink is *lent* for the duration of the run (via the forwarding
/// `TraceSink for &mut S` impl), so the caller keeps ownership of ring
/// buffers / writers and can inspect them afterwards. Passing
/// [`NullSink`] makes this exactly [`run_workload`]: all emission sites
/// monomorphize away.
///
/// Warp-mode runs emit no trace events (there is no timing to trace); the
/// sink is simply left untouched.
///
/// # Errors
///
/// Same contract as [`run_workload`].
pub fn run_workload_traced<S: TraceSink>(
    workload: &Workload,
    config: &SimConfig,
    opts: &RunOptions,
    sink: &mut S,
) -> Result<RunReport, SimError> {
    config
        .validate()
        .map_err(|e| e.for_workload(&workload.name))?;
    // A watchdog override applies to whichever core the config selects; it
    // only bounds runs that would not terminate, never the timing of one
    // that does, so (like `SimConfig`'s own watchdog) it stays out of cache
    // keys and labels.
    let owned_config;
    let config = match opts.watchdog {
        Some(wd) => {
            let mut c = config.clone();
            c.inorder.watchdog = wd;
            c.ooo.watchdog = wd;
            owned_config = c;
            &owned_config
        }
        None => config,
    };
    let max_insts = opts.max_insts;
    let label = config.label();
    let ctx = (workload.name.as_str(), label.as_str());
    let (program, mut image, mut arch) = workload.instantiate();
    let decoded = DecodedProgram::lower(&program);
    let (core_stats, mem_stats, kind, mem_check, sampled) = if opts.mode == ExecMode::Warp {
        // Warp bypasses the cores entirely: the lowered program runs straight
        // against the image, so timing stats stay zero and the shared
        // invariants below degenerate to `0 == 0`. Warp has no cycles, so the
        // watchdog's progress window counts consecutive effect-free
        // retirements instead of quiet cycles; the cycle budget does not
        // apply (retirement is bounded by the cap).
        let window = config.inorder.watchdog.window();
        let mut quiet = 0u64;
        let (retired, trip) =
            arch.run_decoded_watched(&decoded, &mut image, max_insts, window, &mut quiet);
        if let Some(pc) = trip {
            return Err(warp_spin_error(ctx, pc, retired, quiet, window));
        }
        let core = CoreStats {
            retired,
            issued_uops: retired,
            ..CoreStats::default()
        };
        (core, MemStats::default(), CoreKind::InOrder, Ok(()), None)
    } else {
        // One core model, driven one way: a detailed run is a single
        // segment to the cap, a sampled run is the interval scheduler's
        // segments with warp gaps between them. Either way the core then
        // closes the prefetch ledger (still-resident lines become
        // `resident_at_end`) and checks the hierarchy's cross-counter
        // invariants — including the per-source `issued == used + late +
        // evicted_unused + resident_at_end` balance.
        let (mut core, kind, window): (Box<dyn CoreModel + '_>, _, _) = match &config.core {
            CoreChoice::InOrder | CoreChoice::Imp => (
                Box::new(InOrderCore::with_sink(config.inorder, config.mem.clone(), sink)),
                CoreKind::InOrder,
                config.inorder.watchdog.window(),
            ),
            CoreChoice::Svr(svr) => (
                Box::new(InOrderCore::with_svr_sink(config.inorder, config.mem.clone(), *svr, sink)),
                CoreKind::InOrder,
                config.inorder.watchdog.window(),
            ),
            CoreChoice::OutOfOrder => (
                Box::new(OooCore::with_sink(config.ooo, config.mem.clone(), sink)),
                CoreKind::OutOfOrder,
                config.ooo.watchdog.window(),
            ),
        };
        let sampled = if opts.mode == ExecMode::Sampled {
            Some(run_sampled(core.as_mut(), &decoded, &mut image, &mut arch, opts, window, ctx)?)
        } else {
            core.run_decoded(&decoded, &mut image, &mut arch, max_insts)
                .map_err(|e| SimError::from_run_error(e, ctx.0, ctx.1))?;
            None
        };
        let stats = *core.stats();
        let (mem, check) = core.finish();
        (stats, mem, kind, check, sampled)
    };
    let violation = |invariant: &str, detail: String| SimError::InvariantViolation {
        workload: workload.name.clone(),
        config: label.clone(),
        invariant: invariant.to_string(),
        detail,
    };
    if let Err(detail) = mem_check {
        return Err(violation("mem-counters", detail));
    }
    // CPI-stack drift: every simulated cycle must be attributed to exactly
    // one stall bucket (pinned exact on both cores).
    if core_stats.stack.total() != core_stats.cycles {
        return Err(violation(
            "cpi-stack",
            format!(
                "stack attributes {} cycles but the core ran {}",
                core_stats.stack.total(),
                core_stats.cycles
            ),
        ));
    }
    // Retire-count mismatch: the run loop may only end by halting or by
    // exhausting the instruction cap; anything else is a lost instruction.
    // Sampled runs retire across detailed and warp segments, so the total
    // comes from the scheduler, not the (detailed-only) core stats.
    let total_retired = sampled.map_or(core_stats.retired, |s: SampledStats| s.total_retired);
    if !arch.halted() && total_retired < max_insts {
        return Err(violation(
            "retire-count",
            format!(
                "run ended without halt after {total_retired} of {max_insts} instructions"
            ),
        ));
    }
    let energy = EnergyModel::default().energy(&energy_input(&core_stats, &mem_stats, kind));
    let verified = !arch.halted() || workload.verify(&image, &arch);
    Ok(RunReport {
        workload: workload.name.clone(),
        config: label,
        core: core_stats,
        mem: mem_stats,
        energy,
        verified,
        sampled,
    })
}

/// Synthesizes the watchdog error for an effect-free spin detected in a warp
/// segment. Warp has no cycles, so the "clock" in the error is retired
/// instructions: `cycle` is the total retired count at the trip and
/// `last_effect` the retirement index of the last effectful instruction.
fn warp_spin_error(
    (workload, config): (&str, &str),
    pc: usize,
    retired: u64,
    quiet: u64,
    window: u64,
) -> SimError {
    SimError::NoForwardProgress {
        workload: workload.to_string(),
        config: config.to_string(),
        pc,
        cycle: retired,
        last_effect: retired.saturating_sub(quiet),
        window,
        stall: "EffectFreeSpin".to_string(),
        outstanding_mshrs: 0,
    }
}

/// The SMARTS interval scheduler: alternates detailed warm-up, a measured
/// detailed interval, and warp fast-forward, one period at a time, against a
/// single live core so microarchitectural state carries across segments
/// (caches and predictors stay warm through the functional gaps — slightly
/// stale, which is the documented bias the warm-up re-converges). Failures
/// carry the `(workload, config)` context.
fn run_sampled(
    core: &mut dyn CoreModel,
    prog: &DecodedProgram,
    image: &mut MemImage,
    arch: &mut ArchState,
    opts: &RunOptions,
    window: u64,
    ctx: (&str, &str),
) -> Result<SampledStats, SimError> {
    let interval = opts.sample_interval.max(1);
    let warmup = opts.sample_warmup;
    let period = opts.sample_period.max(interval.saturating_add(warmup));
    let max_insts = opts.max_insts;
    let mut warp_retired: u64 = 0;
    let mut quiet: u64 = 0; // effect-free retirement counter, carried across warp segments
    let mut samples: Vec<(u64, u64)> = Vec::new(); // (insts, cycles) per measured interval
    loop {
        let total = warp_retired + core.stats().retired;
        if total >= max_insts || arch.halted() {
            break;
        }
        // Detailed warm-up: timed (its cycles land in the core stats) but
        // not sampled, so the estimator never sees post-gap cold state.
        let warm = warmup.min(max_insts - total);
        if warm > 0 {
            let target = core.stats().retired + warm;
            core.run_decoded(prog, image, arch, target)
                .map_err(|e| SimError::from_run_error(e, ctx.0, ctx.1))?;
        }
        let total = warp_retired + core.stats().retired;
        if total >= max_insts || arch.halted() {
            break;
        }
        // Measured interval: this segment's cycle/retire delta is one sample.
        let before = *core.stats();
        let meas = interval.min(max_insts - total);
        core.run_decoded(prog, image, arch, before.retired + meas)
            .map_err(|e| SimError::from_run_error(e, ctx.0, ctx.1))?;
        let after = core.stats();
        let d_insts = after.retired - before.retired;
        let d_cycles = after.cycles - before.cycles;
        // Per-interval CPI-stack conservation: segment boundaries land after
        // each core's tail/commit attribution, so the stack delta must cover
        // the cycle delta exactly — the same invariant the whole-run check
        // pins, enforced per sample.
        let d_stack = after.stack.total() - before.stack.total();
        if d_stack != d_cycles {
            return Err(SimError::InvariantViolation {
                workload: ctx.0.to_string(),
                config: ctx.1.to_string(),
                invariant: "interval-cpi-stack".to_string(),
                detail: format!(
                    "measured interval {} attributed {d_stack} cycles in the stack but ran {d_cycles}",
                    samples.len()
                ),
            });
        }
        if d_insts > 0 {
            samples.push((d_insts, d_cycles));
        }
        let total = warp_retired + core.stats().retired;
        if total >= max_insts || arch.halted() {
            break;
        }
        // Warp fast-forward to the end of the period (functional only; no
        // cycles pass, so the core's own cycle-based watchdog is blind here
        // and the effect-free retirement window covers livelocks instead).
        let ff = (period - warmup - interval).min(max_insts - total);
        if ff > 0 {
            let (r, trip) = arch.run_decoded_watched(prog, image, ff, window, &mut quiet);
            warp_retired += r;
            if let Some(pc) = trip {
                let retired = warp_retired + core.stats().retired;
                return Err(warp_spin_error(ctx, pc, retired, quiet, window));
            }
        }
    }
    let measured_retired: u64 = samples.iter().map(|s| s.0).sum();
    let measured_cycles: u64 = samples.iter().map(|s| s.1).sum();
    let n = samples.len() as u64;
    let cpi = if measured_retired > 0 {
        measured_cycles as f64 / measured_retired as f64
    } else {
        0.0
    };
    let ci95 = if n >= 2 {
        let xs = samples.iter().map(|&(i, c)| c as f64 / i as f64);
        let mean = xs.clone().sum::<f64>() / n as f64;
        let var = xs.map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        1.96 * (var / n as f64).sqrt()
    } else {
        0.0
    };
    Ok(SampledStats {
        intervals: n,
        interval_insts: interval,
        warmup_insts: warmup,
        period_insts: period,
        total_retired: warp_retired + core.stats().retired,
        measured_retired,
        measured_cycles,
        cpi,
        ci95,
    })
}

/// Builds and runs a registry kernel (convenience wrapper).
///
/// The effective instruction cap is the *minimum* of the scale's own cap
/// ([`Scale::max_insts`]) and [`RunOptions::max_insts`], so
/// `RunOptions::default()` reproduces the historical behaviour exactly.
///
/// # Errors
///
/// Same contract as [`run_workload`]; registry kernels terminate and their
/// configurations are valid, so callers that only use paper kernels and
/// [`SimConfig`] constructors typically `.expect(...)` the result.
pub fn run_kernel(
    kernel: Kernel,
    scale: Scale,
    config: &SimConfig,
    opts: &RunOptions,
) -> Result<RunReport, SimError> {
    let w = kernel.build(scale);
    let effective = RunOptions {
        max_insts: scale.max_insts().min(opts.max_insts),
        ..*opts
    };
    run_workload(&w, config, &effective)
}

/// Assembles the energy-model event counts from simulator statistics.
pub fn energy_input(core: &CoreStats, mem: &MemStats, kind: CoreKind) -> EnergyInput {
    EnergyInput {
        cycles: core.cycles,
        retired: core.retired,
        issued_uops: core.issued_uops,
        svr_lanes: core.svr.lanes,
        l1_accesses: mem.l1d_hits
            + mem.l1d_misses
            + mem.stride.issued
            + mem.imp.issued
            + core.svr.lane_loads
            + mem.l1i_hits
            + mem.l1i_misses,
        l2_accesses: mem.l2_hits + mem.l2_misses,
        dram_lines: mem.dram_reads() + mem.writebacks,
        core: kind,
    }
}

/// Harmonic-mean speedup of `new` over `base`, matching reports by IPC
/// ratio per workload (Fig. 1's metric).
///
/// # Panics
///
/// Panics if the slices have different lengths or a base IPC is zero.
pub fn harmonic_mean_speedup(base: &[RunReport], new: &[RunReport]) -> f64 {
    assert_eq!(base.len(), new.len(), "mismatched report sets");
    assert!(!base.is_empty(), "empty report sets");
    let mut denom = 0.0;
    for (b, n) in base.iter().zip(new) {
        assert_eq!(b.workload, n.workload, "reports must align by workload");
        let s = n.ipc() / b.ipc();
        assert!(s.is_finite() && s > 0.0, "bad speedup for {}", b.workload);
        denom += 1.0 / s;
    }
    base.len() as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::options::{DEFAULT_SAMPLE_INTERVAL, DEFAULT_SAMPLE_PERIOD, DEFAULT_SAMPLE_WARMUP};

    /// Default options: detailed mode, uncapped, config-supplied watchdog.
    const OPTS: RunOptions = RunOptions {
        mode: ExecMode::Detailed,
        max_insts: u64::MAX,
        watchdog: None,
        sample_interval: DEFAULT_SAMPLE_INTERVAL,
        sample_warmup: DEFAULT_SAMPLE_WARMUP,
        sample_period: DEFAULT_SAMPLE_PERIOD,
    };

    #[test]
    fn run_kernel_produces_verified_report() {
        let r = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::inorder(), &OPTS).expect("camel runs");
        assert!(r.verified, "camel must verify");
        assert!(r.cpi() > 0.0);
        assert!(r.nj_per_inst() > 0.0);
        assert_eq!(r.config, "InO");
        assert_eq!(r.workload, "Camel");
    }

    #[test]
    fn svr_report_contains_activity() {
        let r = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::svr(16), &OPTS).expect("camel runs");
        assert!(r.core.svr.prm_rounds > 0);
        assert!(r.svr_accuracy().is_some());
        assert!(r.verified);
    }

    #[test]
    fn harmonic_mean_is_correct() {
        let mk = |w: &str, cycles: u64| RunReport {
            workload: w.into(),
            config: "x".into(),
            core: CoreStats {
                cycles,
                retired: 1000,
                ..CoreStats::default()
            },
            mem: MemStats::default(),
            energy: EnergyBreakdown::default(),
            verified: true,
            sampled: None,
        };
        let base = vec![mk("a", 4000), mk("b", 4000)];
        let new = vec![mk("a", 2000), mk("b", 1000)]; // speedups 2 and 4
        let h = harmonic_mean_speedup(&base, &new);
        assert!((h - 2.0 / (1.0 / 2.0 + 1.0 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn energy_input_accounting() {
        use svr_core::SvrActivity;
        let core = CoreStats {
            cycles: 1000,
            retired: 100,
            issued_uops: 300,
            svr: SvrActivity {
                lanes: 200,
                lane_loads: 150,
                ..SvrActivity::default()
            },
            ..CoreStats::default()
        };
        let mem = MemStats {
            l1d_hits: 40,
            l1d_misses: 10,
            l1i_hits: 5,
            l2_hits: 6,
            l2_misses: 4,
            dram_demand_data: 4,
            writebacks: 2,
            ..MemStats::default()
        };
        let input = energy_input(&core, &mem, svr_energy::CoreKind::InOrder);
        assert_eq!(input.issued_uops, 300);
        assert_eq!(input.svr_lanes, 200);
        assert_eq!(input.l1_accesses, 40 + 10 + 150 + 5);
        assert_eq!(input.l2_accesses, 10);
        assert_eq!(input.dram_lines, 4 + 2);
    }

    #[test]
    fn imp_config_actually_prefetches() {
        let r = run_kernel(Kernel::NasIs, Scale::Tiny, &SimConfig::imp(), &OPTS).expect("IS runs");
        assert!(r.mem.imp.issued > 0, "IMP should fire on IS");
        let r2 = run_kernel(Kernel::NasIs, Scale::Tiny, &SimConfig::inorder(), &OPTS).expect("IS runs");
        assert_eq!(r2.mem.imp.issued, 0);
    }

    #[test]
    fn degenerate_imp_config_is_rejected() {
        let mut cfg = SimConfig::imp();
        cfg.mem.imp = None; // representable, but silently equals plain InO
        let err = run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &OPTS).expect_err("must be rejected");
        assert!(err.to_string().starts_with("invalid SimConfig"), "{err}");
    }

    #[test]
    fn imp_prefetcher_under_wrong_core_is_rejected() {
        let mut cfg = SimConfig::svr(16);
        cfg.mem.imp = Some(svr_mem::prefetch::ImpConfig::default());
        let err = run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &OPTS).expect_err("must be rejected");
        assert!(err.to_string().starts_with("invalid SimConfig"), "{err}");
    }

    #[test]
    fn run_workload_surfaces_config_errors_with_context() {
        let mut cfg = SimConfig::imp();
        cfg.mem.imp = None;
        let w = Kernel::Camel.build(Scale::Tiny);
        let err = run_workload(&w, &cfg, &RunOptions::detailed(1000)).expect_err("degenerate IMP must be rejected");
        assert_eq!(err.kind_name(), "config");
        assert_eq!(err.workload(), Some("Camel"));
        assert_eq!(err.config(), "IMP");
        assert!(
            err.to_string().starts_with("invalid SimConfig"),
            "{err}"
        );
    }

    #[test]
    fn watchdog_errors_carry_run_context() {
        // A pathologically small cycle budget trips on a healthy kernel,
        // proving the core error is wrapped with workload/config context.
        let mut cfg = SimConfig::inorder();
        cfg.inorder.watchdog.cycles_per_inst = 0; // budget = 0 would disable;
        cfg.inorder.watchdog.progress_window = 1; // ...window of 1 must trip.
        let err = run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &OPTS)
            .expect_err("a 1-cycle progress window cannot be met");
        assert_eq!(err.workload(), Some("Camel"));
        assert_eq!(err.config(), "InO");
        assert!(
            matches!(
                err,
                SimError::NoForwardProgress { .. } | SimError::CycleBudgetExceeded { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn traced_run_report_is_bit_identical_to_untraced() {
        for cfg in [SimConfig::inorder(), SimConfig::ooo(), SimConfig::svr(16)] {
            let w = Kernel::Camel.build(Scale::Tiny);
            let base = run_workload(&w, &cfg, &RunOptions::detailed(100_000)).expect("valid config");
            let mut ring = svr_trace::RingSink::new(1 << 16);
            let traced =
                run_workload_traced(&w, &cfg, &RunOptions::detailed(100_000), &mut ring).expect("valid config");
            assert_eq!(base, traced, "tracing changed the run under {}", cfg.label());
            assert!(ring.total() > 0, "no events under {}", cfg.label());
        }
    }

    #[test]
    fn warp_mode_verifies_with_zero_timing() {
        let warp = run_kernel(
            Kernel::Camel,
            Scale::Tiny,
            &SimConfig::inorder(),
            &RunOptions::default().with_mode(ExecMode::Warp),
        )
        .expect("camel runs in warp mode");
        assert!(warp.verified, "warp run must still pass the workload check");
        assert_eq!(warp.core.cycles, 0, "warp mode models no time");
        assert_eq!(warp.mem, MemStats::default(), "warp mode touches no hierarchy");
        assert!(warp.core.retired > 0);
        let detailed =
            run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::inorder(), &OPTS).expect("camel");
        assert_eq!(
            warp.core.retired, detailed.core.retired,
            "both modes retire the same instruction stream"
        );
    }

    #[test]
    fn warp_mode_ignores_core_choice() {
        let w = Kernel::Camel.build(Scale::Tiny);
        let opts = RunOptions::warp(100_000);
        let a = run_workload(&w, &SimConfig::inorder(), &opts).expect("warp InO");
        let b = run_workload(&w, &SimConfig::ooo(), &opts).expect("warp OoO");
        assert_eq!(a.core, b.core, "warp bypasses the core models");
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn options_watchdog_override_applies() {
        use svr_core::WatchdogConfig;
        let tight = WatchdogConfig {
            cycles_per_inst: 0,
            progress_window: 1,
        };
        let opts = RunOptions::default().with_watchdog(tight);
        let err = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::inorder(), &opts)
            .expect_err("a 1-cycle progress window cannot be met");
        assert!(
            matches!(
                err,
                SimError::NoForwardProgress { .. } | SimError::CycleBudgetExceeded { .. }
            ),
            "{err}"
        );
        // Warp mode honours the watchdog too, but counts the progress
        // window in consecutive effect-free retirements (it has no cycles):
        // an effect-free spin trips the default window, and disabling the
        // watchdog via the override lets the same spin run to its cap.
        let spin = Kernel::DiagSpin.build(Scale::Tiny);
        let err = run_workload(&spin, &SimConfig::inorder(), &RunOptions::warp(200_000))
            .expect_err("an effect-free spin must trip the warp watchdog");
        assert!(matches!(err, SimError::NoForwardProgress { .. }), "{err}");
        let off = RunOptions::warp(200_000).with_watchdog(WatchdogConfig::off());
        let ok = run_workload(&spin, &SimConfig::inorder(), &off)
            .expect("a disabled watchdog lets the spin run to its cap");
        assert_eq!(ok.core.retired, 200_000);
    }

    #[test]
    fn sampled_mode_reports_estimate_and_ci() {
        let opts = RunOptions::sampled(u64::MAX).with_sampling(500, 500, 5_000);
        for cfg in [SimConfig::inorder(), SimConfig::ooo(), SimConfig::svr(16)] {
            let r = run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &opts).expect("camel samples");
            let s = r.sampled.expect("sampled runs carry the estimator block");
            assert!(s.intervals >= 2, "{}: {} intervals", cfg.label(), s.intervals);
            assert!(s.cpi > 0.0);
            assert!(s.ci95 >= 0.0);
            assert!(s.measured_retired <= s.total_retired);
            assert_eq!(r.cpi(), s.cpi, "report CPI switches to the estimate");
            assert!((r.ipc() - 1.0 / s.cpi).abs() < 1e-12);
            assert!(r.verified, "functional execution is exact, so checks pass");
            // The instruction stream is the same in every mode.
            let detailed =
                run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &OPTS).expect("camel runs");
            assert_eq!(s.total_retired, detailed.core.retired);
        }
    }

    #[test]
    fn sampled_mode_with_full_coverage_matches_detailed_exactly() {
        // period == interval and no warm-up: every instruction is measured,
        // so the "estimate" degenerates to the exact detailed run.
        let opts = RunOptions::sampled(u64::MAX).with_sampling(2_048, 0, 2_048);
        let detailed = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::svr(16), &OPTS)
            .expect("camel runs");
        let sampled = run_kernel(Kernel::Camel, Scale::Tiny, &SimConfig::svr(16), &opts)
            .expect("camel samples");
        let s = sampled.sampled.expect("estimator block");
        assert_eq!(s.measured_retired, detailed.core.retired);
        assert_eq!(s.measured_cycles, detailed.core.cycles);
        // Segment boundaries fall on instruction boundaries, so cycle totals
        // and memory traffic are exact; only stack *attribution* may shift
        // (the in-order drain charge lands in the tail bucket per segment).
        assert_eq!(sampled.core.cycles, detailed.core.cycles, "segmentation is exact");
        assert_eq!(sampled.mem, detailed.mem);
    }
}
