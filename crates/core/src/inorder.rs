//! The 3-wide stall-on-use in-order core (Cortex-A510-like, Table III),
//! optionally augmented with the SVR engine.

use crate::branch::{BranchPredictor, MISPREDICT_PENALTY};
use crate::pipeline::{
    alu_latency, level_bucket, stall_tag, CoreModel, IssueSlots, RegTable, Scoreboard,
};
use crate::stats::{CoreStats, StallBucket};
use crate::svr::{SvrConfig, SvrEngine};
use crate::watchdog::{RunError, Watch, WatchdogConfig};
use svr_isa::{ArchState, DecodedOp, DecodedProgram, Inst, MicroOp, Outcome};
use svr_mem::{Access, AccessKind, MemConfig, MemImage, MemStats, MemoryHierarchy};
use svr_trace::{NullSink, TraceEvent, TraceSink};

/// In-order core parameters (defaults = Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InOrderConfig {
    /// Dispatch/commit width (instructions per cycle).
    pub width: u8,
    /// Scoreboard entries (in-flight instructions).
    pub scoreboard: usize,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Whether to model instruction fetch through the L1-I.
    pub model_fetch: bool,
    /// Runaway-guest protection (cycle budget + forward-progress detector).
    pub watchdog: WatchdogConfig,
}

impl Default for InOrderConfig {
    fn default() -> Self {
        InOrderConfig {
            width: 3,
            scoreboard: 32,
            mispredict_penalty: MISPREDICT_PENALTY,
            model_fetch: true,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Everything the SVR engine can see/alter about the host pipeline when it
/// piggybacks on an issued instruction.
pub struct SvrCtx<'a, S: TraceSink = NullSink> {
    /// The memory hierarchy (for transient lane loads); also carries the
    /// trace sink.
    pub hier: &'a mut MemoryHierarchy<S>,
    /// Shared issue bandwidth (SVI lanes consume real slots).
    pub slots: &'a mut IssueSlots,
    /// Shared scoreboard (one entry per SVI, with a return counter).
    pub sb: &'a mut Scoreboard,
    /// Core statistics (SVR activity counters live here).
    pub stats: &'a mut CoreStats,
    /// Functional memory, so transient lanes chase real pointers.
    pub image: &'a MemImage,
}

/// One issued instruction as observed by the SVR engine.
#[derive(Debug, Clone, Copy)]
pub struct Observed<'a> {
    /// Static PC (instruction index).
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// The pre-decoded form (resolved source/destination indices), so the
    /// engine need not re-derive operands from `inst`.
    pub op: &'a DecodedOp,
    /// Cycle it issued.
    pub issue_t: u64,
    /// Pre-execution values of the instruction's sources, in
    /// [`Inst::srcs`] order.
    pub src_vals: [u64; 3],
    /// Functional outcome (memory address, branch direction, ...).
    pub outcome: Outcome,
    /// Value loaded from memory (loads only).
    pub loaded_value: Option<u64>,
    /// Architectural state *after* this instruction (for CV scavenging).
    pub arch: &'a ArchState,
}

/// The in-order core. Construct with [`InOrderCore::new`] for the baseline,
/// or [`InOrderCore::with_svr`] for the paper's SVR configuration.
///
/// # Examples
///
/// ```
/// use svr_core::{CoreModel, InOrderCore, InOrderConfig};
/// use svr_mem::{MemConfig, MemImage};
/// use svr_isa::{Assembler, ArchState, Reg};
///
/// let mut asm = Assembler::new("tiny");
/// asm.li(Reg::new(1), 7);
/// asm.halt();
/// let p = asm.finish();
/// let mut image = MemImage::new();
/// let mut arch = ArchState::new();
/// let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
/// core.run(&p, &mut image, &mut arch, u64::MAX).unwrap();
/// assert_eq!(arch.reg(Reg::new(1)), 7);
/// assert!(core.stats().cycles > 0);
/// ```
#[derive(Debug)]
pub struct InOrderCore<S: TraceSink = NullSink> {
    cfg: InOrderConfig,
    hier: MemoryHierarchy<S>,
    bp: BranchPredictor,
    slots: IssueSlots,
    sb: Scoreboard,
    regs: RegTable,
    fetch_ready: u64,
    fetch_bucket: StallBucket,
    fetch_pc: u64,
    last_fetch_line: Option<usize>,
    last_issue: u64,
    watch: Watch,
    max_completion: u64,
    /// Bucket describing what the longest-outstanding completion was waiting
    /// on; the post-run drain tail is charged here so the CPI stack accounts
    /// for every cycle exactly.
    tail_bucket: StallBucket,
    /// PC of the instruction owning the longest-outstanding completion.
    tail_pc: u64,
    stats: CoreStats,
    svr: Option<SvrEngine>,
}

impl InOrderCore<NullSink> {
    /// Creates a baseline in-order core over a fresh memory hierarchy.
    pub fn new(cfg: InOrderConfig, mem: MemConfig) -> Self {
        Self::with_sink(cfg, mem, NullSink)
    }

    /// Creates an SVR core: the same in-order pipeline plus the SVR engine.
    pub fn with_svr(cfg: InOrderConfig, mem: MemConfig, svr: SvrConfig) -> Self {
        Self::with_svr_sink(cfg, mem, svr, NullSink)
    }
}

impl<S: TraceSink> InOrderCore<S> {
    /// Creates a baseline in-order core that streams trace events to `sink`.
    pub fn with_sink(cfg: InOrderConfig, mem: MemConfig, sink: S) -> Self {
        InOrderCore {
            hier: MemoryHierarchy::with_sink(mem, sink),
            bp: BranchPredictor::new(),
            slots: IssueSlots::new(cfg.width),
            sb: Scoreboard::new(cfg.scoreboard),
            regs: RegTable::new(),
            fetch_ready: 0,
            fetch_bucket: StallBucket::Fetch,
            fetch_pc: 0,
            last_fetch_line: None,
            last_issue: 0,
            watch: Watch::default(),
            max_completion: 0,
            tail_bucket: StallBucket::Base,
            tail_pc: 0,
            stats: CoreStats::default(),
            svr: None,
            cfg,
        }
    }

    /// Creates a traced SVR core: the in-order pipeline plus the SVR engine.
    pub fn with_svr_sink(cfg: InOrderConfig, mem: MemConfig, svr: SvrConfig, sink: S) -> Self {
        let mut core = Self::with_sink(cfg, mem, sink);
        core.svr = Some(SvrEngine::new(svr));
        core
    }

    /// The memory hierarchy (e.g. to inspect DRAM traffic).
    pub fn hierarchy(&self) -> &MemoryHierarchy<S> {
        &self.hier
    }

    /// The SVR engine, when configured.
    pub fn svr_engine(&self) -> Option<&SvrEngine> {
        self.svr.as_ref()
    }

    /// Computes the completion time of one instruction and updates
    /// register-readiness state. Returns the completion cycle and the stall
    /// bucket that waiting on this completion should be charged to.
    fn timing_for(
        &mut self,
        op: &DecodedOp,
        pc: usize,
        t: u64,
        out: &Outcome,
        image: &MemImage,
    ) -> (u64, StallBucket) {
        match op.uop {
            MicroOp::Ld { .. } | MicroOp::LdX { .. } => {
                let (_, addr) = out.mem.expect("load accesses memory");
                let value = out.loaded.expect("load produces a value");
                let res = self.hier.access_with_image(
                    Access::new(t, addr, AccessKind::DemandLoad)
                        .with_pc(pc as u64)
                        .with_value(value),
                    Some(image),
                );
                if res.issued_at > t {
                    self.slots.bump(res.issued_at);
                }
                self.stats.loads += 1;
                let bucket = level_bucket(res.level);
                self.regs.write(op, res.complete_at, bucket, pc, S::ENABLED);
                (res.complete_at, bucket)
            }
            MicroOp::St { .. } | MicroOp::StX { .. } => {
                let (_, addr) = out.mem.expect("store accesses memory");
                let res = self.hier.access_with_image(
                    Access::new(t, addr, AccessKind::DemandStore).with_pc(pc as u64),
                    Some(image),
                );
                if res.issued_at > t {
                    self.slots.bump(res.issued_at);
                }
                self.stats.stores += 1;
                // Stores retire into the write path; the core does not wait.
                (t + 1, StallBucket::Base)
            }
            MicroOp::Alu { op: alu, .. } | MicroOp::AluI { op: alu, .. } => {
                let done = t + alu_latency(alu);
                self.regs.write(op, done, StallBucket::Base, pc, S::ENABLED);
                (done, StallBucket::Base)
            }
            MicroOp::Li { .. } | MicroOp::Nop => {
                self.regs.write(op, t + 1, StallBucket::Base, pc, S::ENABLED);
                (t + 1, StallBucket::Base)
            }
            MicroOp::Cmp { .. } | MicroOp::CmpI { .. } => {
                self.regs.write_flags(t + 1, pc, S::ENABLED);
                (t + 1, StallBucket::Base)
            }
            MicroOp::B { .. } => {
                self.stats.branches += 1;
                let (taken, _) = out.branch.expect("branch outcome");
                let pred = self.bp.predict(pc as u64);
                self.bp.update(pc as u64, taken);
                if pred != taken {
                    self.stats.mispredicts += 1;
                    let redirect = t + 1 + self.cfg.mispredict_penalty;
                    if redirect > self.fetch_ready {
                        self.fetch_ready = redirect;
                        self.fetch_bucket = StallBucket::Branch;
                        if S::ENABLED {
                            self.fetch_pc = pc as u64;
                        }
                    }
                    // The fetch line changes on the (mispredicted) path.
                    self.last_fetch_line = None;
                }
                (t + 1, StallBucket::Base)
            }
            MicroOp::J { .. } | MicroOp::Halt => (t + 1, StallBucket::Base),
        }
    }
}

impl<S: TraceSink> CoreModel for InOrderCore<S> {
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

            // Snapshot source values before execution (an instruction may
            // overwrite its own source). Only the SVR engine consumes these.
            let mut src_vals = [0u64; 3];
            if self.svr.is_some() {
                for (i, &r) in op.src_indices().iter().enumerate() {
                    src_vals[i] = arch.reg_at(r);
                }
            }

            // Instruction fetch, one access per new cache line (16 insts).
            if self.cfg.model_fetch {
                let line = pc / 16;
                if self.last_fetch_line != Some(line) {
                    let r = self.hier.fetch_inst(self.slots.horizon(), pc as u64);
                    if r.complete_at > self.fetch_ready {
                        self.fetch_ready = r.complete_at;
                        self.fetch_bucket = StallBucket::Fetch;
                        if S::ENABLED {
                            self.fetch_pc = pc as u64;
                        }
                    }
                    self.last_fetch_line = Some(line);
                }
            }

            // Data readiness (stall-on-use). `cause_pc` tracks who produced
            // the limiting operand; it is only consumed inside `S::ENABLED`
            // blocks, so untraced builds eliminate it entirely.
            let (ready, bucket, cause_pc) =
                self.regs
                    .scan(op, (self.fetch_ready, self.fetch_bucket, self.fetch_pc));

            // Claim an issue slot, then a scoreboard entry.
            let slot_t = self.slots.take(ready);
            let t = self.sb.admit(slot_t);
            if t > slot_t {
                self.slots.bump(t);
            }

            // CPI-stack attribution.
            let delta = t.saturating_sub(self.last_issue);
            if delta > 0 {
                self.stats.stack.charge(StallBucket::Base, 1);
                let mut attr_bucket = StallBucket::Base;
                let mut attr_pc = cause_pc;
                if delta > 1 {
                    let b = if t > ready {
                        // Structural stalls are the issuing instruction's
                        // own fault, not a producer's.
                        attr_pc = pc as u64;
                        StallBucket::Structural
                    } else {
                        bucket
                    };
                    self.stats.stack.charge(b, delta - 1);
                    attr_bucket = b;
                }
                if S::ENABLED {
                    self.hier.trace(&TraceEvent::Attrib {
                        cycle: t,
                        bucket: stall_tag(attr_bucket),
                        base: 1,
                        stall: delta - 1,
                        pc: attr_pc,
                    });
                }
            }
            // `last_issue` doubles as the attributed-through watermark: the
            // end-of-run drain below bumps it to `cycles`, so on a resumed
            // run the first issues can land *below* it. Letting it move
            // backwards would re-open the drained window and double-charge
            // those cycles on the next gap (breaking per-segment
            // `stack.total() == cycles` conservation in sampled mode).
            self.last_issue = self.last_issue.max(t);

            self.watch
                .check(pc, t, op.has_effect, self.stats.retired, bucket, || {
                    self.hier.mshrs_in_flight(t)
                })?;

            // Functional execution (`op` was fetched from `pc` above).
            let out: Outcome = arch.step_op(op, image);
            self.stats.retired += 1;
            self.stats.issued_uops += 1;

            let (completion, completion_bucket) = self.timing_for(op, pc, t, &out, image);
            if completion > self.max_completion {
                self.tail_bucket = completion_bucket;
                if S::ENABLED {
                    self.tail_pc = pc as u64;
                }
            }
            self.sb.push(completion);
            self.max_completion = self.max_completion.max(completion).max(t);

            // SVR piggybacking.
            if let Some(svr) = self.svr.as_mut() {
                let loaded_value = out.loaded;
                let observed = Observed {
                    pc,
                    inst: op.raw,
                    op,
                    issue_t: t,
                    src_vals,
                    outcome: out,
                    loaded_value,
                    arch,
                };
                let mut ctx = SvrCtx {
                    hier: &mut self.hier,
                    slots: &mut self.slots,
                    sb: &mut self.sb,
                    stats: &mut self.stats,
                    image,
                };
                svr.observe(&mut ctx, &observed);
            }

            self.stats.cycles = self.max_completion;
        }

        // Charge the completion drain (last issue → last completion) so
        // `CpiStack::total() == cycles` holds exactly. `last_issue` doubles
        // as the attributed-through watermark, keeping repeated `run` calls
        // from double-charging.
        let cycles = self.stats.cycles;
        if cycles > self.last_issue {
            let tail = cycles - self.last_issue;
            self.stats.stack.charge(self.tail_bucket, tail);
            if S::ENABLED {
                self.hier.trace(&TraceEvent::Attrib {
                    cycle: cycles,
                    bucket: stall_tag(self.tail_bucket),
                    base: 0,
                    stall: tail,
                    pc: self.tail_pc,
                });
            }
            self.last_issue = cycles;
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
    use svr_isa::{AluOp, Assembler, Cond, DataMemory, Program, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// Builds a pointer-chase program: p = mem[p] repeated `iters` times.
    fn pointer_chase(iters: i64) -> (Program, MemImage, ArchState) {
        let mut img = MemImage::new();
        // A cycle of pointers spread over many cache lines (2 MiB footprint,
        // well beyond the 512 KiB L2).
        let n = 32768u64;
        let mut addrs: Vec<u64> = Vec::new();
        let base = img.alloc_words(n * 8); // spread by 64B
        for i in 0..n {
            addrs.push(base + i * 64);
        }
        // Permute: next[i] = addr of (i*1663+1) mod n
        for i in 0..n {
            let next = addrs[((i * 16411 + 1) % n) as usize];
            img.write_u64(addrs[i as usize], next);
        }
        let p = r(1);
        let i = r(2);
        let mut asm = Assembler::new("chase");
        let top = asm.label();
        asm.bind(top);
        asm.ld(p, p, 0);
        asm.alui(AluOp::Add, i, i, 1);
        asm.cmpi(i, iters);
        asm.b(Cond::Ne, top);
        asm.halt();
        let prog = asm.finish();
        let mut arch = ArchState::new();
        arch.set_reg(p, addrs[0]);
        (prog, img, arch)
    }

    /// Builds a streaming-sum program over `n` consecutive words.
    fn streaming(n: i64) -> (Program, MemImage, ArchState) {
        let mut img = MemImage::new();
        let base = img.alloc_words(n as u64);
        for k in 0..n as u64 {
            img.write_u64(base + k * 8, k);
        }
        let b = r(1);
        let i = r(2);
        let s = r(3);
        let t = r(4);
        let mut asm = Assembler::new("stream");
        let top = asm.label();
        asm.bind(top);
        asm.ldx(t, b, i, 3);
        asm.alu(AluOp::Add, s, s, t);
        asm.alui(AluOp::Add, i, i, 1);
        asm.cmpi(i, n);
        asm.b(Cond::Ne, top);
        asm.halt();
        let prog = asm.finish();
        let mut arch = ArchState::new();
        arch.set_reg(b, base);
        (prog, img, arch)
    }

    #[test]
    fn executes_correctly_and_counts() {
        let (p, mut img, mut arch) = streaming(100);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        assert!(arch.halted());
        assert_eq!(arch.reg(r(3)), (0..100).sum::<u64>());
        assert_eq!(core.stats().retired, 100 * 5 + 1);
        assert!(core.stats().cycles > 0);
        assert_eq!(core.stats().loads, 100);
    }

    #[test]
    fn pointer_chase_is_memory_bound() {
        let (p, mut img, mut arch) = pointer_chase(2000);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let cpi = core.stats().cpi();
        // Each iteration (4 insts) serializes a ~100-cycle DRAM access once
        // caches are cold/thrashing: CPI must be well above 10.
        assert!(cpi > 10.0, "cpi={cpi}");
        // DRAM stalls dominate the stack.
        let stack = core.stats().stack;
        assert!(
            stack.mem_dram > stack.total() / 2,
            "dram={} total={}",
            stack.mem_dram,
            stack.total()
        );
    }

    #[test]
    fn streaming_is_fast_with_stride_prefetcher() {
        let (p, mut img, mut arch) = streaming(20_000);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let cpi = core.stats().cpi();
        assert!(cpi < 3.0, "streaming cpi={cpi}");
    }

    #[test]
    fn respects_max_insts() {
        let (p, mut img, mut arch) = streaming(1000);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&p, &mut img, &mut arch, 42).unwrap();
        assert_eq!(core.stats().retired, 42);
        assert!(!arch.halted());
    }

    #[test]
    fn branch_stats_counted() {
        let (p, mut img, mut arch) = streaming(50);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        assert_eq!(core.stats().branches, 50);
        // The loop exit is hard to predict at least once.
        assert!(core.stats().mispredicts >= 1);
    }

    #[test]
    fn cpi_stack_total_equals_cycles_exactly() {
        let (p, mut img, mut arch) = pointer_chase(500);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let total = core.stats().stack.total();
        let cycles = core.stats().cycles;
        // Issue-to-issue gaps plus the completion-drain tail account for
        // every cycle.
        assert_eq!(total, cycles);
    }

    #[test]
    fn segmented_runs_conserve_stack_totals_at_every_boundary() {
        // Sampled mode resumes the same core with growing cumulative caps;
        // the drain watermark must survive each seam or interval CPI stacks
        // double-charge the drained window.
        let (p, mut img, mut arch) = pointer_chase(500);
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        let mut target = 0u64;
        while !arch.halted() {
            target += 37;
            core.run(&p, &mut img, &mut arch, target).unwrap();
            assert_eq!(
                core.stats().stack.total(),
                core.stats().cycles,
                "conservation after {} retired",
                core.stats().retired
            );
        }

        let (p2, mut img2, mut arch2) = pointer_chase(500);
        let mut whole = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        whole.run(&p2, &mut img2, &mut arch2, u64::MAX).unwrap();
        assert_eq!(core.stats().cycles, whole.stats().cycles);
        assert_eq!(core.stats().retired, whole.stats().retired);
    }

    #[test]
    fn traced_run_emits_attribution_mirroring_the_stack() {
        use svr_trace::RingSink;
        let (p, mut img, mut arch) = streaming(200);
        let mut core = InOrderCore::with_sink(
            InOrderConfig::default(),
            MemConfig::default(),
            RingSink::new(1 << 16),
        );
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let mut attributed = 0u64;
        for ev in core.hierarchy().sink().iter() {
            if let TraceEvent::Attrib { base, stall, .. } = *ev {
                attributed += u64::from(base) + stall;
            }
        }
        assert_eq!(attributed, core.stats().cycles);
        assert_eq!(core.stats().stack.total(), core.stats().cycles);
    }
}
