//! Structured simulation-failure taxonomy.
//!
//! Everything that can go wrong in a run — an inconsistent configuration, a
//! guest that stops making forward progress, a blown cycle budget, a broken
//! simulator invariant, or an outright panic inside a sweep job — is folded
//! into one [`SimError`] enum that always names the workload and the
//! configuration label of the failing point. Harness code matches on the
//! variant; humans read [`std::fmt::Display`]; tools read
//! [`SimError::to_json`] (the crash flight recorder embeds it verbatim).

use crate::config::ConfigError;
use crate::json::Json;
use svr_core::RunError;

/// Why a simulation run failed.
///
/// Construction goes through [`SimError::from_run_error`] /
/// `From<ConfigError>` so the workload/config context is attached exactly
/// once, at the boundary where the run was started.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration was rejected before any cycle was simulated.
    Config(ConfigError),
    /// The watchdog saw no architectural effect for a whole progress window
    /// (a livelocked guest: e.g. a branch spin whose condition can never
    /// change).
    NoForwardProgress {
        /// Workload name.
        workload: String,
        /// Configuration label.
        config: String,
        /// PC of the instruction issuing when the watchdog fired.
        pc: usize,
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Cycle of the last architectural effect.
        last_effect: u64,
        /// The configured progress window.
        window: u64,
        /// Dominant stall bucket at the firing instruction.
        stall: String,
        /// MSHRs still in flight when the watchdog fired.
        outstanding_mshrs: usize,
    },
    /// The run exceeded its hard cycle budget
    /// (`max_insts × cycles_per_inst`) while still retiring instructions —
    /// a runaway guest rather than a livelocked one.
    CycleBudgetExceeded {
        /// Workload name.
        workload: String,
        /// Configuration label.
        config: String,
        /// PC of the instruction issuing when the budget tripped.
        pc: usize,
        /// Cycle count at the trip.
        cycles: u64,
        /// The configured budget.
        budget: u64,
        /// Instructions retired before the trip.
        retired: u64,
    },
    /// A simulator self-check failed after the run: counters that hold by
    /// construction diverged (leaked MSHR, CPI-stack drift, retire-count
    /// mismatch). Always a simulator bug, never a guest bug.
    InvariantViolation {
        /// Workload name.
        workload: String,
        /// Configuration label.
        config: String,
        /// Short invariant name ("cpi-stack", "retire-count", "mshr", ...).
        invariant: String,
        /// Full diagnostic.
        detail: String,
    },
    /// A sweep job panicked; the panic was caught at the job boundary and
    /// the payload preserved. Sibling jobs are unaffected.
    Panic {
        /// Workload name.
        workload: String,
        /// Configuration label.
        config: String,
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The run was never started (or was abandoned before starting) because
    /// a shutdown was requested — SIGINT/SIGTERM mid-sweep, or a draining
    /// simulation server. Not a failure of the point itself: re-running the
    /// identical sweep resumes from the result cache, and a restarted server
    /// re-enqueues the point from its pending journal.
    Interrupted {
        /// Workload name.
        workload: String,
        /// Configuration label.
        config: String,
    },
}

impl SimError {
    /// Attaches run context to a core-level [`RunError`].
    pub fn from_run_error(e: RunError, workload: &str, config: &str) -> Self {
        match e {
            RunError::NoForwardProgress {
                pc,
                cycle,
                last_effect,
                window,
                stall,
                outstanding_mshrs,
            } => SimError::NoForwardProgress {
                workload: workload.to_string(),
                config: config.to_string(),
                pc,
                cycle,
                last_effect,
                window,
                stall: format!("{stall:?}"),
                outstanding_mshrs,
            },
            RunError::CycleBudgetExceeded {
                pc,
                cycles,
                budget,
                retired,
            } => SimError::CycleBudgetExceeded {
                workload: workload.to_string(),
                config: config.to_string(),
                pc,
                cycles,
                budget,
                retired,
            },
        }
    }

    /// Stable machine-readable variant name (crash-dump `error.kind`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            SimError::Config(_) => "config",
            SimError::NoForwardProgress { .. } => "no_forward_progress",
            SimError::CycleBudgetExceeded { .. } => "cycle_budget_exceeded",
            SimError::InvariantViolation { .. } => "invariant_violation",
            SimError::Panic { .. } => "panic",
            SimError::Interrupted { .. } => "interrupted",
        }
    }

    /// The workload the failing run was for, when known.
    pub fn workload(&self) -> Option<&str> {
        match self {
            SimError::Config(e) => e.workload.as_deref(),
            SimError::NoForwardProgress { workload, .. }
            | SimError::CycleBudgetExceeded { workload, .. }
            | SimError::InvariantViolation { workload, .. }
            | SimError::Panic { workload, .. }
            | SimError::Interrupted { workload, .. } => Some(workload),
        }
    }

    /// The configuration label of the failing run.
    pub fn config(&self) -> &str {
        match self {
            SimError::Config(e) => &e.config,
            SimError::NoForwardProgress { config, .. }
            | SimError::CycleBudgetExceeded { config, .. }
            | SimError::InvariantViolation { config, .. }
            | SimError::Panic { config, .. }
            | SimError::Interrupted { config, .. } => config,
        }
    }

    /// JSON form for the crash flight recorder and the server's error
    /// bodies: `{"kind", "message", "workload", "config"}` plus the
    /// variant's numeric diagnostics as flat fields. The workload/config
    /// context PR 4 threads through every variant is always present (the
    /// workload is `null` only for a [`ConfigError`] raised before any run
    /// was attempted), so no consumer ever has to parse it back out of the
    /// message text.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind".into(), Json::str(self.kind_name())),
            ("message".into(), Json::str(self.to_string())),
            (
                "workload".into(),
                self.workload().map_or(Json::Null, Json::str),
            ),
            ("config".into(), Json::str(self.config())),
        ];
        match self {
            SimError::NoForwardProgress {
                pc,
                cycle,
                last_effect,
                window,
                stall,
                outstanding_mshrs,
                ..
            } => {
                fields.push(("pc".into(), Json::u64(*pc as u64)));
                fields.push(("cycle".into(), Json::u64(*cycle)));
                fields.push(("last_effect".into(), Json::u64(*last_effect)));
                fields.push(("window".into(), Json::u64(*window)));
                fields.push(("stall".into(), Json::str(stall)));
                fields.push((
                    "outstanding_mshrs".into(),
                    Json::u64(*outstanding_mshrs as u64),
                ));
            }
            SimError::CycleBudgetExceeded {
                pc,
                cycles,
                budget,
                retired,
                ..
            } => {
                fields.push(("pc".into(), Json::u64(*pc as u64)));
                fields.push(("cycles".into(), Json::u64(*cycles)));
                fields.push(("budget".into(), Json::u64(*budget)));
                fields.push(("retired".into(), Json::u64(*retired)));
            }
            SimError::InvariantViolation { invariant, .. } => {
                fields.push(("invariant".into(), Json::str(invariant)));
            }
            SimError::Config(_) | SimError::Panic { .. } | SimError::Interrupted { .. } => {}
        }
        Json::Obj(fields)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => e.fmt(f),
            SimError::NoForwardProgress {
                workload,
                config,
                pc,
                cycle,
                last_effect,
                window,
                stall,
                outstanding_mshrs,
            } => write!(
                f,
                "{workload} under {config}: no forward progress — pc {pc} \
                 issued at cycle {cycle} but no architectural effect since \
                 cycle {last_effect} (window {window}); stalled on {stall} \
                 with {outstanding_mshrs} MSHRs outstanding"
            ),
            SimError::CycleBudgetExceeded {
                workload,
                config,
                pc,
                cycles,
                budget,
                retired,
            } => write!(
                f,
                "{workload} under {config}: cycle budget exceeded — cycle \
                 {cycles} > budget {budget} with {retired} instructions \
                 retired (pc {pc})"
            ),
            SimError::InvariantViolation {
                workload,
                config,
                invariant,
                detail,
            } => write!(
                f,
                "{workload} under {config}: simulator invariant '{invariant}' \
                 violated: {detail}"
            ),
            SimError::Panic {
                workload,
                config,
                message,
            } => write!(f, "{workload} under {config}: job panicked: {message}"),
            SimError::Interrupted { workload, config } => write!(
                f,
                "{workload} under {config}: interrupted before the run \
                 started (shutdown requested); completed work is cached — \
                 resume by re-running"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_workload_config_and_diagnostics() {
        let e = SimError::NoForwardProgress {
            workload: "DiagSpin".into(),
            config: "SVR16".into(),
            pc: 7,
            cycle: 200_123,
            last_effect: 100_000,
            window: 100_000,
            stall: "DCacheMiss".into(),
            outstanding_mshrs: 3,
        };
        let s = e.to_string();
        for needle in ["DiagSpin", "SVR16", "pc 7", "window 100000", "3 MSHRs"] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
        assert_eq!(e.kind_name(), "no_forward_progress");
        assert_eq!(e.workload(), Some("DiagSpin"));
        assert_eq!(e.config(), "SVR16");
    }

    #[test]
    fn json_form_is_flat_and_typed() {
        let e = SimError::CycleBudgetExceeded {
            workload: "w".into(),
            config: "c".into(),
            pc: 4,
            cycles: 900,
            budget: 800,
            retired: 12,
        };
        let j = e.to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("cycle_budget_exceeded"));
        assert_eq!(j.get("budget").and_then(Json::as_u64), Some(800));
        assert_eq!(j.get("retired").and_then(Json::as_u64), Some(12));
        // The PR-4 context rides along as first-class fields.
        assert_eq!(j.get("workload").and_then(Json::as_str), Some("w"));
        assert_eq!(j.get("config").and_then(Json::as_str), Some("c"));
    }

    #[test]
    fn interrupted_names_the_point_and_promises_resume() {
        let e = SimError::Interrupted {
            workload: "PR_KR".into(),
            config: "SVR16".into(),
        };
        assert_eq!(e.kind_name(), "interrupted");
        assert_eq!(e.workload(), Some("PR_KR"));
        assert_eq!(e.config(), "SVR16");
        assert!(e.to_string().contains("resume"), "{e}");
        let j = e.to_json();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("interrupted"));
        assert_eq!(j.get("workload").and_then(Json::as_str), Some("PR_KR"));
        assert_eq!(j.get("config").and_then(Json::as_str), Some("SVR16"));
    }

    #[test]
    fn config_errors_convert_with_context_preserved() {
        let c = ConfigError {
            config: "IMP".into(),
            workload: Some("Camel".into()),
            message: "degenerate".into(),
        };
        let e: SimError = c.into();
        assert_eq!(e.kind_name(), "config");
        assert_eq!(e.workload(), Some("Camel"));
        assert!(e.to_string().starts_with("invalid SimConfig IMP"));
    }
}
