//! Cooperative shutdown: a process-wide flag set by SIGINT/SIGTERM.
//!
//! The registry is vendored and offline, so there is no `signal_hook` /
//! `ctrlc` to lean on; instead we register a minimal `extern "C"` handler
//! through libc's `signal(2)` (already linked by std) that flips one
//! [`AtomicBool`]. Long-running loops check [`requested`] where they already
//! wake — sweep workers between jobs, `svr_serve`'s workers in their idle
//! wait, which turn the signal into the daemon's one drain call — and wind
//! down cleanly: in-flight jobs finish and are cached, queued work is
//! surfaced as structured [`crate::SimError::Interrupted`] errors instead
//! of dying mid-write. The handler never interrupts a blocking call:
//! glibc's `signal(2)` installs it with `SA_RESTART`.
//!
//! Installing is idempotent and opt-in: library code never installs
//! handlers behind a caller's back (a test harness may own SIGINT), the
//! binaries do it at startup. A second signal while draining falls back to
//! the default disposition, so a stuck drain can still be interrupted.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    // `signal(2)` from the libc that std already links; no crate needed.
    // usize stands in for the handler function pointer / SIG_DFL(0).
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(signum: i32) {
        super::REQUESTED.store(true, Ordering::SeqCst);
        // Restore the default disposition: a second ^C / TERM while the
        // drain is in progress kills the process the ordinary way.
        unsafe {
            signal(signum, 0);
        }
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Registers the SIGINT/SIGTERM handlers (idempotent; no-op off Unix).
/// Call once at binary startup; see the module docs for why this is not
/// done automatically.
pub fn install() {
    imp::install();
}

/// Whether a shutdown signal has been received (or [`request`] called).
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Programmatic shutdown request — same effect as receiving SIGTERM. Used
/// by tests that exercise the signal path.
pub fn request() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears the flag (tests; a daemon that chooses to survive a drain).
pub fn reset() {
    REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_and_reset_round_trip() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
        // Installing must not panic or flip the flag.
        install();
        assert!(!requested());
    }
}
