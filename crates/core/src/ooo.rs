//! The 3-wide out-of-order comparison core (Table III): ROB 32, LSQ 16,
//! reservation stations 32, in-order dispatch and commit.
//!
//! Modeled as a sliding dataflow window (Sniper-style interval model): an
//! instruction dispatches when a ROB slot frees, executes when its operands
//! are ready (loads also gated by the LSQ and MSHRs), and commits in order.
//! This captures exactly the property the paper leans on: the OoO core
//! overlaps every independent cache miss inside its 32-instruction window,
//! where the in-order core serializes them.

use crate::branch::{BranchPredictor, MISPREDICT_PENALTY};
use crate::pipeline::{
    alu_latency, level_bucket, stall_tag, CoreModel, IssueSlots, RegTable, Scoreboard,
};
use crate::stats::{CoreStats, StallBucket};
use crate::watchdog::{RunError, Watch, WatchdogConfig};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use svr_isa::{ArchState, DecodedProgram, MicroOp, Outcome};
use svr_mem::{Access, AccessKind, FxHasher, MemConfig, MemImage, MemStats, MemoryHierarchy};
use svr_trace::{NullSink, TraceEvent, TraceSink};

/// Out-of-order core parameters (defaults = Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Dispatch/commit width.
    pub width: u8,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Load/store-queue entries.
    pub lsq: usize,
    /// Branch misprediction penalty.
    pub mispredict_penalty: u64,
    /// Model instruction fetch through the L1-I.
    pub model_fetch: bool,
    /// Rename/RS scheduling delay between dispatch and earliest execute.
    pub rs_delay: u64,
    /// Runaway-guest protection (cycle budget + forward-progress detector).
    pub watchdog: WatchdogConfig,
}

impl Default for OooConfig {
    fn default() -> Self {
        OooConfig {
            width: 3,
            rob: 32,
            lsq: 16,
            mispredict_penalty: MISPREDICT_PENALTY,
            model_fetch: true,
            rs_delay: 2,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// See module docs.
///
/// # Examples
///
/// ```
/// use svr_core::{CoreModel, OooCore, OooConfig};
/// use svr_mem::{MemConfig, MemImage};
/// use svr_isa::{ArchState, Assembler, Reg};
///
/// let mut asm = Assembler::new("t");
/// asm.li(Reg::new(1), 5);
/// asm.halt();
/// let p = asm.finish();
/// let mut core = OooCore::new(OooConfig::default(), MemConfig::default());
/// let (mut img, mut arch) = (MemImage::new(), ArchState::new());
/// core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
/// assert_eq!(core.stats().retired, 2);
/// ```
#[derive(Debug)]
pub struct OooCore<S: TraceSink = NullSink> {
    cfg: OooConfig,
    hier: MemoryHierarchy<S>,
    bp: BranchPredictor,
    rob: Scoreboard,
    lsq: Scoreboard,
    dispatch: IssueSlots,
    commit: IssueSlots,
    regs: RegTable,
    fetch_ready: u64,
    last_fetch_line: Option<usize>,
    /// Completion time of the last store per word address (conservative
    /// same-address ordering with store-to-load forwarding). FxHash: this is
    /// probed on every load and written on every store.
    store_fwd: HashMap<u64, u64, BuildHasherDefault<FxHasher>>,
    last_commit: u64,
    watch: Watch,
    stats: CoreStats,
}

impl OooCore<NullSink> {
    /// Creates a core over a fresh hierarchy with tracing disabled.
    pub fn new(cfg: OooConfig, mem: MemConfig) -> Self {
        Self::with_sink(cfg, mem, NullSink)
    }
}

impl<S: TraceSink> OooCore<S> {
    /// Creates a core over a fresh hierarchy emitting trace events to `sink`.
    pub fn with_sink(cfg: OooConfig, mem: MemConfig, sink: S) -> Self {
        OooCore {
            hier: MemoryHierarchy::with_sink(mem, sink),
            bp: BranchPredictor::new(),
            rob: Scoreboard::new(cfg.rob),
            lsq: Scoreboard::new(cfg.lsq),
            dispatch: IssueSlots::new(cfg.width),
            commit: IssueSlots::new(cfg.width),
            regs: RegTable::new(),
            fetch_ready: 0,
            last_fetch_line: None,
            store_fwd: HashMap::default(),
            last_commit: 0,
            watch: Watch::default(),
            stats: CoreStats::default(),
            cfg,
        }
    }
}

impl<S: TraceSink> CoreModel for OooCore<S> {
    fn run_decoded(
        &mut self,
        prog: &DecodedProgram,
        image: &mut MemImage,
        arch: &mut ArchState,
        max_insts: u64,
    ) -> Result<(), RunError> {
        self.watch.arm(&self.cfg.watchdog, max_insts);
        while self.stats.retired < max_insts && !arch.halted() {
            let pc = arch.pc();
            let Some(op) = prog.get(pc) else { break };

            if self.cfg.model_fetch {
                let line = pc / 16;
                if self.last_fetch_line != Some(line) {
                    let r = self.hier.fetch_inst(self.dispatch.horizon(), pc as u64);
                    self.fetch_ready = self.fetch_ready.max(r.complete_at);
                    self.last_fetch_line = Some(line);
                }
            }

            // Dispatch: ROB slot + front-end bandwidth.
            let want = self.fetch_ready;
            let slot = self.dispatch.take(want);
            let dispatch_t = self.rob.admit(slot);
            if dispatch_t > slot {
                self.dispatch.bump(dispatch_t);
            }

            // Operand readiness — *not* bounded by older instructions'
            // completion: this is where the MLP comes from. Rename and
            // wakeup/select add a couple of cycles past dispatch.
            // `cause_pc` is only consumed in `S::ENABLED` blocks; dead in
            // untraced builds.
            let floor = (dispatch_t + self.cfg.rs_delay, StallBucket::Base, 0);
            let (ready, mut bucket, mut cause_pc) = self.regs.scan(op, floor);

            self.watch.check(
                pc,
                dispatch_t,
                op.has_effect,
                self.stats.retired,
                bucket,
                || self.hier.mshrs_in_flight(dispatch_t),
            )?;

            // `op` was fetched from `pc` above.
            let out: Outcome = arch.step_op(op, image);
            self.stats.retired += 1;
            self.stats.issued_uops += 1;

            let completion = match op.uop {
                MicroOp::Ld { .. } | MicroOp::LdX { .. } => {
                    let (_, addr) = out.mem.expect("load address");
                    let lsq_t = self.lsq.admit(dispatch_t);
                    let mut start = ready.max(lsq_t);
                    // Conservative same-address store ordering.
                    if let Some(&fwd) = self.store_fwd.get(&(addr & !7)) {
                        start = start.max(fwd);
                    }
                    let value = out.loaded.expect("load produces a value");
                    let res = self.hier.access_with_image(
                        Access::new(start, addr, AccessKind::DemandLoad)
                            .with_pc(pc as u64)
                            .with_value(value),
                        Some(image),
                    );
                    self.stats.loads += 1;
                    self.lsq.push(res.complete_at);
                    let at = res.complete_at;
                    self.regs.write(op, at, level_bucket(res.level), pc, S::ENABLED);
                    at
                }
                MicroOp::St { .. } | MicroOp::StX { .. } => {
                    let (_, addr) = out.mem.expect("store address");
                    let lsq_t = self.lsq.admit(dispatch_t);
                    let start = ready.max(lsq_t);
                    let _ = self.hier.access_with_image(
                        Access::new(start, addr, AccessKind::DemandStore).with_pc(pc as u64),
                        Some(image),
                    );
                    self.stats.stores += 1;
                    // Forwarding: dependents see the data one cycle after the
                    // store executes.
                    self.store_fwd.insert(addr & !7, start + 1);
                    self.lsq.push(start + 1);
                    start + 1
                }
                MicroOp::Alu { op: alu, .. } | MicroOp::AluI { op: alu, .. } => {
                    let done = ready + alu_latency(alu);
                    self.regs.write(op, done, StallBucket::Base, pc, S::ENABLED);
                    done
                }
                MicroOp::Li { .. } | MicroOp::Nop => {
                    self.regs.write(op, ready + 1, StallBucket::Base, pc, S::ENABLED);
                    ready + 1
                }
                MicroOp::Cmp { .. } | MicroOp::CmpI { .. } => {
                    self.regs.write_flags(ready + 1, pc, S::ENABLED);
                    ready + 1
                }
                MicroOp::B { .. } => {
                    self.stats.branches += 1;
                    let (taken, _) = out.branch.expect("branch outcome");
                    let pred = self.bp.predict(pc as u64);
                    self.bp.update(pc as u64, taken);
                    let done = ready + 1;
                    if pred != taken {
                        self.stats.mispredicts += 1;
                        // Flush: younger instructions refetch after resolve.
                        self.fetch_ready = self.fetch_ready.max(done + self.cfg.mispredict_penalty);
                        self.last_fetch_line = None;
                        bucket = StallBucket::Branch;
                        cause_pc = pc as u64;
                    }
                    done
                }
                MicroOp::J { .. } | MicroOp::Halt => ready + 1,
            };

            self.rob.push({
                // Commit in order, ≤ width per cycle.
                let c = self.commit.take(completion);
                // CPI-stack attribution on commit gaps.
                let delta = c.saturating_sub(self.last_commit);
                if delta > 0 {
                    self.stats.stack.charge(StallBucket::Base, 1);
                    let mut attr_bucket = StallBucket::Base;
                    let mut attr_pc = cause_pc;
                    if delta > 1 {
                        // A branch always charges its own bucket (mispredict
                        // or operand wait), never structural back-pressure.
                        let b = if completion > ready || matches!(op.uop, MicroOp::B { .. }) {
                            bucket
                        } else {
                            StallBucket::Structural
                        };
                        self.stats.stack.charge(b, delta - 1);
                        attr_bucket = b;
                        if matches!(b, StallBucket::Structural) {
                            // Structural back-pressure is the committing
                            // instruction's own wait, not a producer's.
                            attr_pc = pc as u64;
                        }
                    }
                    if S::ENABLED {
                        self.hier.trace(&TraceEvent::Attrib {
                            cycle: c,
                            bucket: stall_tag(attr_bucket),
                            base: 1,
                            stall: delta - 1,
                            pc: attr_pc,
                        });
                    }
                }
                self.last_commit = c;
                self.stats.cycles = self.stats.cycles.max(c);
                c
            });
        }
        // Keep the store-forward map bounded.
        if self.store_fwd.len() > 1 << 20 {
            self.store_fwd.clear();
        }
        Ok(())
    }

    fn stats(&self) -> &CoreStats {
        &self.stats
    }

    fn finish(&mut self) -> (MemStats, Result<(), String>) {
        self.hier.finalize(self.stats.cycles);
        (*self.hier.stats(), self.hier.check_invariants())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::{InOrderConfig, InOrderCore};
    use svr_isa::{AluOp, Assembler, Cond, DataMemory, Program, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Independent-miss loop: a[i] accessed with a huge stride so every load
    /// is a DRAM miss, but all are independent.
    fn independent_misses(n: i64) -> (Program, MemImage, ArchState) {
        let mut img = MemImage::new();
        let base = img.alloc_words(n as u64 * 64);
        let (b, i, s, t) = (r(1), r(2), r(3), r(4));
        let mut asm = Assembler::new("ind");
        let top = asm.label();
        asm.bind(top);
        asm.ldx(t, b, i, 6); // stride 64: one line per access
        asm.alu(AluOp::Add, s, s, t);
        asm.alui(AluOp::Add, i, i, 1);
        asm.cmpi(i, n);
        asm.b(Cond::Ne, top);
        asm.halt();
        let p = asm.finish();
        let mut arch = ArchState::new();
        arch.set_reg(b, base);
        (p, img, arch)
    }

    /// Dependent chain: p = mem[p].
    fn dependent_chain(n: i64) -> (Program, MemImage, ArchState) {
        let mut img = MemImage::new();
        let cnt = 8192u64;
        let base = img.alloc_words(cnt * 8);
        for i in 0..cnt {
            let next = base + ((i * 3067 + 1) % cnt) * 64;
            img.write_u64(base + i * 64, next);
        }
        let (p_, i) = (r(1), r(2));
        let mut asm = Assembler::new("dep");
        let top = asm.label();
        asm.bind(top);
        asm.ld(p_, p_, 0);
        asm.alui(AluOp::Add, i, i, 1);
        asm.cmpi(i, n);
        asm.b(Cond::Ne, top);
        asm.halt();
        let p = asm.finish();
        let mut arch = ArchState::new();
        arch.set_reg(p_, base);
        (p, img, arch)
    }

    fn mem_no_pf() -> MemConfig {
        MemConfig {
            stride_pf: None,
            ..MemConfig::default()
        }
    }

    #[test]
    fn architecturally_identical_to_inorder() {
        let (p, mut img1, mut a1) = independent_misses(500);
        let (_, mut img2, mut a2) = independent_misses(500);
        let mut ooo = OooCore::new(OooConfig::default(), MemConfig::default());
        let mut ino = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        ooo.run(&p, &mut img1, &mut a1, u64::MAX).unwrap();
        ino.run(&p, &mut img2, &mut a2, u64::MAX).unwrap();
        assert_eq!(a1.reg(r(3)), a2.reg(r(3)));
        assert_eq!(ooo.stats().retired, ino.stats().retired);
    }

    #[test]
    fn ooo_overlaps_independent_misses() {
        let (p, mut img, mut arch) = independent_misses(3000);
        let mut ooo = OooCore::new(OooConfig::default(), mem_no_pf());
        ooo.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let cpi_ooo = ooo.stats().cpi();

        let (p, mut img, mut arch) = independent_misses(3000);
        let mut ino = InOrderCore::new(InOrderConfig::default(), mem_no_pf());
        ino.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let cpi_ino = ino.stats().cpi();

        assert!(
            cpi_ino > 2.0 * cpi_ooo,
            "in-order {cpi_ino:.2} vs OoO {cpi_ooo:.2}"
        );
    }

    #[test]
    fn dependent_chain_defeats_ooo() {
        let (p, mut img, mut arch) = dependent_chain(2000);
        let mut ooo = OooCore::new(OooConfig::default(), mem_no_pf());
        ooo.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let cpi_ooo = ooo.stats().cpi();
        // A serial pointer chase cannot be overlapped: CPI stays high.
        assert!(cpi_ooo > 10.0, "cpi={cpi_ooo}");
    }

    #[test]
    fn store_to_load_ordering_respected() {
        // st x -> ld x: the load must see the store's timing (and value).
        let mut asm = Assembler::new("stld");
        asm.li(r(1), 0x2000);
        asm.li(r(2), 77);
        asm.st(r(2), r(1), 0);
        asm.ld(r(3), r(1), 0);
        asm.halt();
        let p = asm.finish();
        let mut img = MemImage::new();
        let mut arch = ArchState::new();
        let mut ooo = OooCore::new(OooConfig::default(), MemConfig::default());
        ooo.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        assert_eq!(arch.reg(r(3)), 77);
    }

    #[test]
    fn rob_bounds_overlap() {
        // With a 4-entry ROB the core behaves nearly in-order on misses.
        let (p, mut img, mut arch) = independent_misses(1500);
        let mut small = OooCore::new(
            OooConfig {
                rob: 4,
                ..OooConfig::default()
            },
            mem_no_pf(),
        );
        small.run(&p, &mut img, &mut arch, u64::MAX).unwrap();

        let (p, mut img, mut arch) = independent_misses(1500);
        let mut big = OooCore::new(OooConfig::default(), mem_no_pf());
        big.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        assert!(
            small.stats().cycles > big.stats().cycles * 3 / 2,
            "rob4={} rob32={}",
            small.stats().cycles,
            big.stats().cycles
        );
    }
}
