//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer's
//! public functions (the program itself is not instrumented). Each span has
//! a name, start and end (ns since the recorder's epoch), the span that
//! caused it, and the id of the repetition it belongs to. Nothing is written
//! until [`write_jsonl`] runs at the end of the benchmark. While disabled,
//! [`span`] only runs its closure.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the process, never 0.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Repetition id shared by every span of one workload pass.
    pub run: u64,
    /// Layer-qualified name, e.g. `sim.run_workload`.
    pub name: &'static str,
    /// Start, ns since the recorder epoch.
    pub start_ns: u64,
    /// End, ns since the recorder epoch.
    pub end_ns: u64,
}

// Spans are written only from enabled (traced) runs; the flag is a plain
// on/off statistic switch that publishes no data, hence `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RUN: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the recorder epoch to `t`.
fn ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    let _ = epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the repetition id stamped on spans recorded from now on.
pub fn set_run(run: u64) {
    RUN.store(run, Ordering::Relaxed);
}

/// Allocates a span id (also when disabled, so callers can pass it down).
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records a finished interval under a pre-allocated `id`.
pub fn record(id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let span = Span {
        id,
        parent,
        run: RUN.load(Ordering::Relaxed),
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking recorder")
        .push(span);
}

/// Runs `f` inside a span named `name` under `parent`. `f` receives the
/// new span's id so nested calls can name it as their parent.
pub fn span<T>(name: &'static str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
    let id = next_id();
    let start = Instant::now();
    let out = f(id);
    record(id, parent, name, start, Instant::now());
    out
}

/// Removes and returns every recorded span, in start order.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    v.sort_by_key(|s| (s.start_ns, s.id));
    v
}

/// Per-name totals: `(count, total ns, self ns)`, where self time is a
/// span's duration minus the union of its direct children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
        }
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(covered);
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            sp(1, 0, "root", 0, 100),
            sp(2, 1, "kid", 10, 40),
            sp(3, 1, "kid", 30, 50),
            sp(4, 1, "kid", 80, 90),
            sp(5, 2, "grandkid", 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 100, 100 - 40 - 10));
        assert_eq!(t["kid"], (3, 30 + 20 + 10, 60 - 10));
        assert_eq!(t["grandkid"], (1, 10, 10));
    }
}
