//! Simulator watchdog: a hard cycle budget plus a forward-progress detector.
//!
//! The guest ISA is unverified input — a hand-written listing (or a harness
//! bug) can produce a program that retires instructions forever without ever
//! doing architectural work (`j`-to-self), or whose timing degenerates so
//! badly the simulation never ends within a reasonable wall-time. Both core
//! models check two cheap conditions once per retired instruction (two `u64`
//! compares, so the hot path is unaffected):
//!
//! * **Cycle budget** — the issue clock must stay below
//!   `max_insts * cycles_per_inst`. The worst legitimate CPI in this model
//!   (a TLB-missing pointer chase at the lowest Fig. 18 DRAM bandwidth) is
//!   well under 1000, so the default 4096 cycles/inst cannot fire on real
//!   workloads but bounds every run.
//! * **Forward progress** — some instruction with an architectural effect
//!   (a register write, memory access, or flags write) must issue at least
//!   once per `progress_window` cycles. DRAM-bound phases cannot trip this:
//!   a load *is* an effect at its issue cycle, and the longest gap between
//!   consecutive effect issues is one memory round-trip (hundreds of
//!   cycles), orders of magnitude below the 100 000-cycle default window.
//!   Only effect-free spins (`j`/`nop`/`b`-only loops) accumulate an
//!   unbounded gap.

use crate::stats::StallBucket;

/// Watchdog thresholds; a field of [`crate::InOrderConfig`] and
/// [`crate::OooConfig`]. Excluded from `SimConfig::cache_key` (like the
/// trace knobs): the watchdog never changes the timing of a run that
/// completes, it only bounds runs that would not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycle budget per permitted instruction: the run is terminated once
    /// the issue clock exceeds `max_insts * cycles_per_inst`. `0` disables
    /// the budget. Saturates, so `max_insts = u64::MAX` (uncapped test
    /// runs) effectively disables it too.
    pub cycles_per_inst: u64,
    /// Maximum cycles between issues of instructions with an architectural
    /// effect. `0` disables the detector.
    pub progress_window: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            cycles_per_inst: 4096,
            progress_window: 100_000,
        }
    }
}

impl WatchdogConfig {
    /// A disabled watchdog (both checks off).
    pub fn off() -> Self {
        WatchdogConfig {
            cycles_per_inst: 0,
            progress_window: 0,
        }
    }

    /// The cycle budget for a run capped at `max_insts` instructions
    /// (`u64::MAX` when disabled).
    pub fn budget(&self, max_insts: u64) -> u64 {
        if self.cycles_per_inst == 0 {
            u64::MAX
        } else {
            max_insts.saturating_mul(self.cycles_per_inst)
        }
    }

    /// The effective progress window (`u64::MAX` when disabled).
    pub fn window(&self) -> u64 {
        if self.progress_window == 0 {
            u64::MAX
        } else {
            self.progress_window
        }
    }
}

/// A core's live watchdog: the thresholds armed for the current run segment
/// plus the forward-progress watermark, which carries across segments.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Watch {
    budget: u64,
    window: u64,
    /// Issue cycle of the last instruction with an architectural effect
    /// (register write, memory access, or flags write).
    last_effect: u64,
}

impl Watch {
    /// Arms the thresholds for a run segment capped at `max_insts`.
    pub(crate) fn arm(&mut self, cfg: &WatchdogConfig, max_insts: u64) {
        self.budget = cfg.budget(max_insts);
        self.window = cfg.window();
    }

    /// The per-instruction check, run as `pc` issues at cycle `t`: two
    /// `u64` compares (hot-path neutral). `stall` is what the instruction
    /// waited on and `mshrs` reports outstanding misses, both only for the
    /// diagnostic.
    #[inline]
    pub(crate) fn check(
        &mut self,
        pc: usize,
        t: u64,
        has_effect: bool,
        retired: u64,
        stall: StallBucket,
        mshrs: impl FnOnce() -> usize,
    ) -> Result<(), RunError> {
        if t > self.budget {
            return Err(RunError::CycleBudgetExceeded {
                pc,
                cycles: t,
                budget: self.budget,
                retired,
            });
        }
        if t.saturating_sub(self.last_effect) > self.window {
            return Err(RunError::NoForwardProgress {
                pc,
                cycle: t,
                last_effect: self.last_effect,
                window: self.window,
                stall,
                outstanding_mshrs: mshrs(),
            });
        }
        if has_effect {
            self.last_effect = t;
        }
        Ok(())
    }
}

/// Why a core's run loop terminated a guest program early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// No instruction with an architectural effect issued within the
    /// progress window: the guest is spinning without doing work.
    NoForwardProgress {
        /// PC of the instruction that tripped the detector.
        pc: usize,
        /// Issue cycle at the trip.
        cycle: u64,
        /// Issue cycle of the last architectural effect.
        last_effect: u64,
        /// The configured window.
        window: u64,
        /// What the tripping instruction was stalled on.
        stall: StallBucket,
        /// Outstanding L1-D MSHR entries at the trip cycle.
        outstanding_mshrs: usize,
    },
    /// The issue clock blew the `max_insts * cycles_per_inst` budget.
    CycleBudgetExceeded {
        /// PC of the instruction that tripped the budget.
        pc: usize,
        /// Issue cycle at the trip.
        cycles: u64,
        /// The configured budget.
        budget: u64,
        /// Instructions retired when the budget tripped.
        retired: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::NoForwardProgress {
                pc,
                cycle,
                last_effect,
                window,
                stall,
                outstanding_mshrs,
            } => write!(
                f,
                "no forward progress: pc {pc} issued at cycle {cycle} but no \
                 architectural effect since cycle {last_effect} (window {window}); \
                 stalled on {stall:?} with {outstanding_mshrs} MSHRs outstanding"
            ),
            RunError::CycleBudgetExceeded {
                pc,
                cycles,
                budget,
                retired,
            } => write!(
                f,
                "cycle budget exceeded: cycle {cycles} > budget {budget} with \
                 {retired} instructions retired (pc {pc})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_and_saturates() {
        let wd = WatchdogConfig::default();
        assert_eq!(wd.budget(1000), 1000 * 4096);
        assert_eq!(wd.budget(u64::MAX), u64::MAX, "uncapped runs are exempt");
        assert_eq!(WatchdogConfig::off().budget(1000), u64::MAX);
        assert_eq!(WatchdogConfig::off().window(), u64::MAX);
    }

    #[test]
    fn errors_format_diagnostics() {
        let e = RunError::NoForwardProgress {
            pc: 3,
            cycle: 200_123,
            last_effect: 100,
            window: 100_000,
            stall: StallBucket::Base,
            outstanding_mshrs: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains("pc 3"), "{msg}");
        assert!(msg.contains("no forward progress"), "{msg}");
        assert!(msg.contains("2 MSHRs"), "{msg}");
        let e = RunError::CycleBudgetExceeded {
            pc: 7,
            cycles: 10_000,
            budget: 4096,
            retired: 2,
        };
        assert!(e.to_string().contains("budget 4096"), "{}", e);
    }
}
