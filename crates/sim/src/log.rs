//! Leveled structured JSON logging for the host side: the daemon, sweeps
//! and the harness binaries share this one stderr stream.
//!
//! Every line is one JSON object on stderr:
//!
//! ```json
//! {"ts_ms":1234,"level":"info","event":"job_claimed","req":7,"hash":"ab..","queue_wait_us":412}
//! ```
//!
//! * `ts_ms` — milliseconds since process logger start, from a *monotonic*
//!   clock (durations computed between lines are immune to wall-clock
//!   steps).
//! * `level` — `error` < `warn` < `info` < `debug`; the threshold comes
//!   from `--log-level` or the `SVR_LOG` environment variable (flag wins),
//!   default `info`. Disabled levels cost one relaxed atomic load.
//! * `event` — a stable machine-matchable name; the daemon's per-job span
//!   events are `job_queued` → `job_claimed` → `job_simulated` →
//!   `job_streamed`, a sweep logs `job_resolved` (debug) per point and
//!   `sweep_done` at the end.
//! * per-connection request IDs (`req`) from [`next_request_id`] tie the
//!   request line to everything that happened while serving it.
//!
//! The sink is a plain process-global level threshold — deliberately the
//! only global here, because log routing (unlike metrics ownership) really
//! is a process-wide concern. Lines are written whole via a locked stderr
//! handle so concurrent connection threads never interleave mid-line.

use crate::json::Json;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Log severity, ordered `Error < Warn < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what it was asked.
    Error = 1,
    /// Degraded but proceeding (retries, job errors).
    Warn = 2,
    /// Lifecycle and span events (default threshold).
    Info = 3,
    /// Per-request detail.
    Debug = 4,
}

impl Level {
    fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses `error|warn|info|debug|off` (case-insensitive). `off`
    /// silences everything.
    pub fn parse(s: &str) -> Option<Option<Level>> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "off" | "none" => Some(None),
            _ => None,
        }
    }
}

/// Process-wide threshold: events above this ordinal are dropped.
/// 3 == `Level::Info`, the default; 0 silences everything.
static THRESHOLD: AtomicU8 = AtomicU8::new(3);

/// Monotonic request-ID source (one per accepted connection).
static REQUEST_ID: AtomicU64 = AtomicU64::new(0);

/// Monotonic epoch for `ts_ms`.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Sets the threshold; `None` turns logging off entirely.
pub fn set_level(level: Option<Level>) {
    THRESHOLD.store(level.map_or(0, |l| l as u8), Ordering::Relaxed);
    // Pin the epoch early so ts_ms is comparable across the process life.
    let _ = EPOCH.get_or_init(Instant::now);
}

/// Applies `SVR_LOG` (if set and valid). Returns whether it applied.
pub fn init_from_env() -> bool {
    match std::env::var("SVR_LOG").ok().as_deref().and_then(Level::parse) {
        Some(level) => {
            set_level(level);
            true
        }
        None => false,
    }
}

/// Whether `level` would currently be emitted.
pub fn enabled(level: Level) -> bool {
    level as u8 <= THRESHOLD.load(Ordering::Relaxed)
}

/// Milliseconds since the logger's monotonic epoch.
pub fn ts_ms() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// A fresh per-connection request ID.
pub fn next_request_id() -> u64 {
    REQUEST_ID.fetch_add(1, Ordering::Relaxed) + 1
}

/// Emits one structured line (if `level` is enabled). `fields` follow the
/// standard `ts_ms`/`level`/`event` prefix in order.
pub fn log(level: Level, event: &str, fields: &[(&str, Json)]) {
    if !enabled(level) {
        return;
    }
    let mut obj = Vec::with_capacity(3 + fields.len());
    obj.push(("ts_ms".to_string(), Json::u64(ts_ms())));
    obj.push(("level".to_string(), Json::str(level.name())));
    obj.push(("event".to_string(), Json::str(event)));
    for (k, v) in fields {
        obj.push(((*k).to_string(), v.clone()));
    }
    let line = Json::Obj(obj).dump();
    // One locked write per line: concurrent threads never interleave.
    let stderr = std::io::stderr();
    let mut h = stderr.lock();
    let _ = writeln!(h, "{line}");
}

/// [`log`] at [`Level::Error`].
pub fn error(event: &str, fields: &[(&str, Json)]) {
    log(Level::Error, event, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(event: &str, fields: &[(&str, Json)]) {
    log(Level::Warn, event, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(event: &str, fields: &[(&str, Json)]) {
    log(Level::Info, event, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(event: &str, fields: &[(&str, Json)]) {
    log(Level::Debug, event, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert_eq!(Level::parse("info"), Some(Some(Level::Info)));
        assert_eq!(Level::parse("WARN"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Debug);
    }

    #[test]
    fn threshold_gates_levels() {
        // Tests share the process; restore the default when done.
        set_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        set_level(None);
        assert!(!enabled(Level::Error));
        set_level(Some(Level::Info));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
