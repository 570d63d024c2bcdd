//! Shared pipeline resources: the [`CoreModel`] driver interface, issue-slot
//! accounting, the scoreboard, and the register-readiness table both cores
//! use.

use crate::stats::{CoreStats, StallBucket};
use crate::watchdog::RunError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use svr_isa::{AluOp, ArchState, DecodedOp, DecodedProgram, MicroOp, Program, NO_REG, NUM_REGS};
use svr_mem::{HitLevel, MemImage, MemStats};
use svr_trace::StallTag;

/// The interface every core timing model exposes to a driver.
///
/// A core keeps all pipeline state in itself and [`CoreModel::run_decoded`]
/// stops once the *cumulative* retired count reaches `max_insts` (or the
/// guest halts), so repeated calls with growing targets resume exactly where
/// the previous segment stopped. A detailed run is one segment; a sampled
/// run is many, with functional warp gaps in between.
///
/// # Examples
///
/// ```
/// use svr_core::{CoreModel, OooConfig, OooCore};
/// use svr_isa::{ArchState, Assembler, Reg};
/// use svr_mem::{MemConfig, MemImage};
///
/// let mut asm = Assembler::new("t");
/// asm.li(Reg::new(1), 5);
/// asm.halt();
/// let p = asm.finish();
/// let mut core = OooCore::new(OooConfig::default(), MemConfig::default());
/// let (mut img, mut arch) = (MemImage::new(), ArchState::new());
/// core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
/// assert_eq!(core.stats().retired, 2);
/// let (_mem, check) = core.finish();
/// assert!(check.is_ok());
/// ```
pub trait CoreModel {
    /// Runs an already-lowered program until `max_insts` cumulative retired
    /// instructions or `halt`. The hot loop dispatches pre-decoded micro-ops
    /// by instruction index — no per-cycle decode.
    ///
    /// `arch` carries initial register state (workloads pre-load base
    /// addresses) and holds final state afterwards.
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] if the core's [`crate::WatchdogConfig`] trips:
    /// the guest issued no architecturally-effectful instruction within the
    /// progress window, or blew the cycle budget. Statistics and
    /// architectural state reflect the run up to the trip point.
    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        image: &mut MemImage,
        arch: &mut ArchState,
        max_insts: u64,
    ) -> Result<(), RunError>;

    /// Core statistics accumulated so far.
    fn stats(&self) -> &CoreStats;

    /// Closes the memory hierarchy's prefetch ledger (still-resident
    /// prefetched lines become `resident_at_end`) and runs its cross-counter
    /// checks; returns the memory statistics and the check verdict. Call once
    /// after the last segment; idempotent.
    fn finish(&mut self) -> (MemStats, Result<(), String>);

    /// Lowers `program` and runs it as one segment (see
    /// [`CoreModel::run_decoded`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`CoreModel::run_decoded`].
    fn run(
        &mut self,
        program: &Program,
        image: &mut MemImage,
        arch: &mut ArchState,
        max_insts: u64,
    ) -> Result<(), RunError> {
        self.run_decoded(&DecodedProgram::lower(program), image, arch, max_insts)
    }
}

/// Execute latency of an ALU operation, cycles.
pub(crate) fn alu_latency(op: AluOp) -> u64 {
    match op {
        AluOp::Mul => 3,
        AluOp::Divu | AluOp::Remu => 12,
        _ => 1,
    }
}

/// The stall bucket a wait on a memory access served at `level` is charged
/// to.
pub(crate) fn level_bucket(level: HitLevel) -> StallBucket {
    match level {
        HitLevel::L1 => StallBucket::MemL1,
        HitLevel::L2 => StallBucket::MemL2,
        HitLevel::Dram => StallBucket::MemDram,
    }
}

/// Maps a core stall bucket onto its trace-event tag (the trace crate is a
/// leaf and defines its own mirror of the enum).
pub(crate) fn stall_tag(b: StallBucket) -> StallTag {
    match b {
        StallBucket::Base => StallTag::Base,
        StallBucket::Branch => StallTag::Branch,
        StallBucket::Fetch => StallTag::Fetch,
        StallBucket::MemL1 => StallTag::MemL1,
        StallBucket::MemL2 => StallTag::MemL2,
        StallBucket::MemDram => StallTag::MemDram,
        StallBucket::Structural => StallTag::Structural,
    }
}

/// Tracks issue bandwidth: at most `width` instructions may issue per cycle,
/// and issue times are monotonically non-decreasing (in-order issue).
///
/// # Examples
///
/// ```
/// use svr_core::IssueSlots;
/// let mut s = IssueSlots::new(3);
/// assert_eq!(s.take(10), 10);
/// assert_eq!(s.take(10), 10);
/// assert_eq!(s.take(10), 10);
/// assert_eq!(s.take(10), 11); // fourth in the same cycle spills over
/// ```
#[derive(Debug, Clone)]
pub struct IssueSlots {
    width: u8,
    cur: u64,
    used: u8,
}

impl IssueSlots {
    /// Creates an issue tracker with the given per-cycle width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u8) -> Self {
        assert!(width > 0, "issue width must be positive");
        IssueSlots {
            width,
            cur: 0,
            used: 0,
        }
    }

    /// Claims an issue slot at or after `at`; returns the actual issue cycle.
    pub fn take(&mut self, at: u64) -> u64 {
        if at > self.cur {
            self.cur = at;
            self.used = 1;
            return at;
        }
        if self.used < self.width {
            self.used += 1;
            return self.cur;
        }
        self.cur += 1;
        self.used = 1;
        self.cur
    }

    /// The cycle the next issue would occur at the earliest.
    pub fn horizon(&self) -> u64 {
        if self.used < self.width {
            self.cur
        } else {
            self.cur + 1
        }
    }

    /// Forces the issue point forward to at least `t` (structural stall).
    pub fn bump(&mut self, t: u64) {
        if t > self.cur {
            self.cur = t;
            self.used = 0;
        }
    }
}

/// An in-flight-instruction tracker (in-order scoreboard or ROB occupancy).
///
/// Holds completion times; admission blocks when `capacity` instructions are
/// still in flight.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    capacity: usize,
    inflight: BinaryHeap<Reverse<u64>>,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "scoreboard capacity must be positive");
        Scoreboard {
            capacity,
            inflight: BinaryHeap::new(),
        }
    }

    /// Admits a new instruction wanting to issue at `t`: returns the possibly
    /// delayed issue time once an entry is free.
    pub fn admit(&mut self, t: u64) -> u64 {
        while let Some(&Reverse(done)) = self.inflight.peek() {
            if done <= t {
                self.inflight.pop();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.capacity {
            return t;
        }
        let Reverse(done) = self.inflight.pop().expect("nonempty when full");
        t.max(done)
    }

    /// Records the completion time of the just-admitted instruction.
    pub fn push(&mut self, completes_at: u64) {
        self.inflight.push(Reverse(completes_at));
    }

    /// Number of entries currently tracked (including completed-but-unpopped).
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether no instructions are tracked.
    pub fn is_empty(&self) -> bool {
        self.inflight.is_empty()
    }
}

/// Register and flags readiness: when each value becomes available, the
/// stall bucket a consumer waiting on it is charged to, and the producer PC
/// (the *cause* in [`svr_trace::TraceEvent::Attrib`]; only maintained when
/// tracing is on).
#[derive(Debug, Clone)]
pub(crate) struct RegTable {
    ready: [u64; NUM_REGS],
    bucket: [StallBucket; NUM_REGS],
    pc: [u64; NUM_REGS],
    flags_ready: u64,
    flags_pc: u64,
}

impl RegTable {
    pub(crate) fn new() -> Self {
        RegTable {
            ready: [0; NUM_REGS],
            bucket: [StallBucket::Base; NUM_REGS],
            pc: [0; NUM_REGS],
            flags_ready: 0,
            flags_pc: 0,
        }
    }

    /// Operand readiness of `op` as `(cycle, bucket, cause_pc)`, starting
    /// from `floor`: the latest-ready source register wins, and a branch
    /// also waits on the flags. `cause_pc` is only meaningful when tracing.
    #[inline]
    pub(crate) fn scan(
        &self,
        op: &DecodedOp,
        floor: (u64, StallBucket, u64),
    ) -> (u64, StallBucket, u64) {
        let (mut ready, mut bucket, mut cause_pc) = floor;
        for &r in op.src_indices() {
            let r = r as usize;
            if self.ready[r] > ready {
                ready = self.ready[r];
                bucket = self.bucket[r];
                cause_pc = self.pc[r];
            }
        }
        if matches!(op.uop, MicroOp::B { .. }) && self.flags_ready > ready {
            ready = self.flags_ready;
            bucket = StallBucket::Base;
            cause_pc = self.flags_pc;
        }
        (ready, bucket, cause_pc)
    }

    /// Marks `op`'s destination register (if any) ready at `at`, charged to
    /// `bucket`; `traced` (the sink's `ENABLED`) gates the producer PC.
    #[inline]
    pub(crate) fn write(
        &mut self,
        op: &DecodedOp,
        at: u64,
        bucket: StallBucket,
        pc: usize,
        traced: bool,
    ) {
        if op.dst != NO_REG {
            let d = op.dst as usize;
            self.ready[d] = at;
            self.bucket[d] = bucket;
            if traced {
                self.pc[d] = pc as u64;
            }
        }
    }

    /// Marks the flags ready at `at` (a compare).
    #[inline]
    pub(crate) fn write_flags(&mut self, at: u64, pc: usize, traced: bool) {
        self.flags_ready = at;
        if traced {
            self.flags_pc = pc as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_respect_width() {
        let mut s = IssueSlots::new(2);
        assert_eq!(s.take(5), 5);
        assert_eq!(s.take(5), 5);
        assert_eq!(s.take(5), 6);
        assert_eq!(s.take(5), 6);
        assert_eq!(s.take(5), 7);
    }

    #[test]
    fn slots_monotonic() {
        let mut s = IssueSlots::new(3);
        assert_eq!(s.take(10), 10);
        // A request "in the past" still issues at the current cycle.
        assert_eq!(s.take(3), 10);
    }

    #[test]
    fn bump_advances() {
        let mut s = IssueSlots::new(3);
        s.take(1);
        s.bump(100);
        assert_eq!(s.take(0), 100);
        assert_eq!(s.horizon(), 100);
    }

    #[test]
    fn scoreboard_blocks_when_full() {
        let mut sb = Scoreboard::new(2);
        assert_eq!(sb.admit(0), 0);
        sb.push(50);
        assert_eq!(sb.admit(1), 1);
        sb.push(80);
        // Full: must wait for the earliest completion (50).
        assert_eq!(sb.admit(2), 50);
        sb.push(90);
        // Entries {80, 90}, capacity 2: admission waits for 80.
        assert_eq!(sb.admit(60), 80);
        assert_eq!(sb.len(), 1);
    }

    #[test]
    fn scoreboard_retires_completed() {
        let mut sb = Scoreboard::new(1);
        sb.push(10);
        assert_eq!(sb.admit(20), 20); // completed entry popped
        sb.push(30);
        assert!(!sb.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_rejected() {
        let _ = IssueSlots::new(0);
    }
}
