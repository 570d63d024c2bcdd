//! The SVR engine: piggyback-runahead-mode control, SVI generation, and all
//! the policies of §IV, driven by the in-order pipeline via
//! [`crate::inorder::SvrCtx`] / [`crate::inorder::Observed`].

use crate::inorder::{Observed, SvrCtx};
use crate::svr::config::{LoopBoundMode, SvrConfig};
use crate::svr::detector::StrideDetector;
use crate::svr::lbd::{LcEntry, LoopBounds};
use crate::svr::monitor::AccuracyMonitor;
use crate::svr::taint::{RecycleOutcome, TaintSrf};
use svr_isa::{eval_alu, eval_cond, DataMemory, DecodedOp, Inst, Reg};
use svr_mem::{Access, AccessKind, PfSource};
use svr_trace::{PrmEnd, TraceEvent, TraceSink};

/// Why a PRM round ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndReason {
    /// The HSLR striding load came around again (§IV-A5).
    Hslr,
    /// The 256-instruction timeout fired.
    Timeout,
    /// A nested inner loop was detected; retargeting (§IV-A6).
    Retarget,
}

impl EndReason {
    fn trace_reason(self) -> PrmEnd {
        match self {
            EndReason::Hslr => PrmEnd::Hslr,
            EndReason::Timeout => PrmEnd::Timeout,
            EndReason::Retarget => PrmEnd::Retarget,
        }
    }
}

/// Per-lane flag state produced by a tainted compare.
#[derive(Debug, Clone)]
struct FlagLanes {
    a: Vec<u64>,
    b: Vec<u64>,
    #[allow(dead_code)]
    ready: Vec<u64>,
}

/// The Scalar Vector Runahead engine (§IV), attached to an in-order core via
/// [`crate::InOrderCore::with_svr`].
#[derive(Debug)]
pub struct SvrEngine {
    cfg: SvrConfig,
    sd: StrideDetector,
    lb: LoopBounds,
    ts: TaintSrf,
    monitor: AccuracyMonitor,
    in_prm: bool,
    hslr_pc: Option<usize>,
    mask: u128,
    n_lanes: usize,
    past_lil: bool,
    cur_lil: Option<u16>,
    flag_lanes: Option<FlagLanes>,
    inst_count: u64,
    prm_inst_count: u64,
    next_useful_reset: u64,
}

impl SvrEngine {
    /// Creates an engine in normal mode.
    pub fn new(cfg: SvrConfig) -> Self {
        SvrEngine {
            sd: StrideDetector::new(cfg.stride_detector_entries, cfg.stride_confidence),
            lb: LoopBounds::new(cfg.lbd_entries),
            ts: TaintSrf::new(cfg.srf_entries, cfg.vector_length, cfg.recycle),
            monitor: AccuracyMonitor::new(
                cfg.accuracy_warmup,
                cfg.accuracy_threshold,
                cfg.ban_reset_insts,
            ),
            in_prm: false,
            hslr_pc: None,
            mask: 0,
            n_lanes: 0,
            past_lil: false,
            cur_lil: None,
            flag_lanes: None,
            inst_count: 0,
            prm_inst_count: 0,
            next_useful_reset: cfg.ban_reset_insts,
            cfg,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SvrConfig {
        &self.cfg
    }

    /// Whether the engine is currently in piggyback runahead mode.
    pub fn in_prm(&self) -> bool {
        self.in_prm
    }

    /// Current head-striding-load PC, if any.
    pub fn hslr(&self) -> Option<usize> {
        self.hslr_pc
    }

    /// Whether the accuracy monitor currently bans SVR.
    pub fn banned(&self) -> bool {
        self.monitor.banned()
    }

    /// Observes one issued main-thread instruction (called by the pipeline).
    pub fn observe<S: TraceSink>(&mut self, ctx: &mut SvrCtx<'_, S>, ob: &Observed<'_>) {
        self.inst_count += 1;
        if self.cfg.accuracy_ban {
            let pf = *ctx.hier.stats().pf(PfSource::Svr);
            // Late prefetches were still wanted by the program, so they
            // count as useful for the ban decision.
            self.monitor
                .observe(self.inst_count, pf.used + pf.late, pf.evicted_unused);
        }
        if self.inst_count >= self.next_useful_reset {
            self.sd.reset_usefulness();
            self.next_useful_reset += self.cfg.ban_reset_insts;
        }

        if self.in_prm {
            self.prm_inst_count += 1;
            if self.prm_inst_count > self.cfg.timeout_insts {
                self.end_round(ctx, EndReason::Timeout, ob.issue_t);
            }
        }

        match ob.inst {
            Inst::Ld { .. } | Inst::LdX { .. } => self.on_load(ctx, ob),
            Inst::Cmp { a, b } => {
                self.lb.lc = Some(LcEntry {
                    pc: ob.pc,
                    va: ob.src_vals[0],
                    vb: ob.src_vals[1],
                    ra: Some(a),
                    rb: Some(b),
                });
                if self.in_prm {
                    self.maybe_gen_svi(ctx, ob);
                }
            }
            Inst::CmpI { a, imm } => {
                self.lb.lc = Some(LcEntry {
                    pc: ob.pc,
                    va: ob.src_vals[0],
                    vb: imm as u64,
                    ra: Some(a),
                    rb: None,
                });
                if self.in_prm {
                    self.maybe_gen_svi(ctx, ob);
                }
            }
            Inst::B { cond, target } => {
                let (taken, _) = ob.outcome.branch.expect("branch outcome");
                // LBD training on backward conditional-taken branches that
                // jump to (or before) the HSLR load (§IV-B2).
                if taken && target < ob.pc {
                    if let Some(hslr) = self.hslr_pc {
                        if target <= hslr {
                            self.lb.train_compare(hslr);
                        }
                    }
                }
                if self.in_prm {
                    self.apply_branch_mask(ctx, cond, taken);
                }
            }
            Inst::Alu { .. } | Inst::AluI { .. } | Inst::Li { .. } => {
                if self.in_prm {
                    self.maybe_gen_svi(ctx, ob);
                } else if let Some(dst) = ob.inst.dst() {
                    self.ts.untaint(dst);
                }
            }
            Inst::St { .. } | Inst::StX { .. } => {
                if self.in_prm {
                    self.maybe_gen_svi(ctx, ob);
                }
            }
            Inst::J { .. } | Inst::Nop | Inst::Halt => {}
        }
    }

    // ------------------------------------------------------------------
    // Loads: stride detection, chain tracking, triggering.
    // ------------------------------------------------------------------

    fn on_load<S: TraceSink>(&mut self, ctx: &mut SvrCtx<'_, S>, ob: &Observed<'_>) {
        let pc = ob.pc;
        let (_, addr) = ob.outcome.mem.expect("load address");
        let is_hslr = self.hslr_pc == Some(pc);

        // Waiting-mode check needs the detector state *before* this access.
        let before = self.sd.lookup(pc).copied();
        let up = self.sd.update(pc, addr);

        // Loop-bound bookkeeping for striding PCs.
        if up.continued && (up.striding || self.lb.entry(pc).is_some()) {
            self.lb.on_continue(pc);
        } else if up.discontinuity {
            self.lb.on_discontinuity(pc);
        }

        // Seen-bit housekeeping: encountering the HSLR load clears all other
        // Seen bits (§IV-A6).
        if is_hslr {
            self.sd.clear_seen_except(pc);
        }

        let mut just_ended = false;
        if self.in_prm {
            if is_hslr {
                self.end_round(ctx, EndReason::Hslr, ob.issue_t);
                just_ended = true;
            } else if self.chain_inputs(ob.op).is_some() {
                // Indirect-chain load: vectorize and remember it as the LIL
                // candidate.
                self.maybe_gen_svi(ctx, ob);
                self.cur_lil = Some(pc as u16);
                if self.cfg.lil_enabled {
                    if let Some(hslr) = self.hslr_pc {
                        if let Some(e) = self.sd.lookup(hslr) {
                            if e.lil_valid && e.lil_conf >= 2 && e.lil == pc as u16 {
                                self.past_lil = true;
                            }
                        }
                    }
                }
                return;
            } else if up.striding && self.cfg.multi_chain {
                // Another striding load during PRM: nested or unrolled loop.
                let seen = self.sd.lookup(pc).map(|e| e.seen).unwrap_or(false);
                if seen {
                    // Nested inner loop: abort and retarget (§IV-A6).
                    self.end_round(ctx, EndReason::Retarget, ob.issue_t);
                    self.hslr_pc = Some(pc);
                    self.sd.clear_seen_except(pc);
                    ctx.stats.svr.retargets += 1;
                    just_ended = true;
                } else {
                    if let Some(e) = self.sd.lookup_mut(pc) {
                        e.seen = true;
                    }
                    // Unrolled loop: vectorize this independent chain too.
                    self.gen_chain_head(ctx, ob, addr, up.stride);
                    return;
                }
            } else {
                // An untainted load overwriting a mapped register frees it.
                if let Some(dst) = ob.inst.dst() {
                    if self.chain_inputs(ob.op).is_none() {
                        self.ts.untaint(dst);
                    }
                }
            }
        }

        // Trigger evaluation (normal mode, possibly immediately after a
        // round ended on this very load).
        if (!self.in_prm) && up.striding {
            self.try_trigger(ctx, ob, addr, up.stride, before, just_ended);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn try_trigger<S: TraceSink>(
        &mut self,
        ctx: &mut SvrCtx<'_, S>,
        ob: &Observed<'_>,
        addr: u64,
        stride: i64,
        before: Option<crate::svr::detector::SdEntry>,
        just_ended: bool,
    ) {
        let pc = ob.pc;

        // Independent-loop retargeting (§IV-A6): a different striding load
        // only takes over the HSLR on its second sighting.
        if self.cfg.multi_chain && !just_ended {
            if let Some(hslr) = self.hslr_pc {
                if hslr != pc {
                    let in_waiting = before
                        .map(|e| self.cfg.waiting_mode && e.in_prefetched_range(addr))
                        .unwrap_or(false);
                    let seen = self.sd.lookup(pc).map(|e| e.seen).unwrap_or(false);
                    if seen {
                        self.hslr_pc = Some(pc);
                        self.sd.clear_seen_except(pc);
                        ctx.stats.svr.retargets += 1;
                        // fall through to trigger for the new HSLR
                    } else {
                        if !in_waiting {
                            if let Some(e) = self.sd.lookup_mut(pc) {
                                e.seen = true;
                            }
                        }
                        return;
                    }
                }
            }
        }

        // Accuracy ban (§IV-A7).
        if self.cfg.accuracy_ban && self.monitor.banned() {
            ctx.stats.svr.banned_suppressed += 1;
            return;
        }

        // Chains that never produce a dependent load are not worth running
        // ahead on (§II-C): the stride prefetcher already covers the plain
        // stream and the scalar copies would only burn issue slots.
        if self.sd.lookup(pc).map(|e| e.useful == 0).unwrap_or(false) {
            ctx.stats.svr.non_indirect_suppressed += 1;
            return;
        }

        // Waiting mode (§IV-A5): suppress while inside the prefetched range.
        if self.cfg.waiting_mode {
            if let Some(e) = before {
                if e.in_prefetched_range(addr) {
                    ctx.stats.svr.waiting_suppressed += 1;
                    return;
                }
            }
        }

        // LbdWait (DVR-discovery-style): the first trigger opportunity only
        // arms the entry; runahead starts a full iteration later, once the
        // loop compare has trained the LBD.
        if self.cfg.loop_bound_mode == LoopBoundMode::LbdWait {
            let e = self.sd.lookup_mut(pc).expect("entry exists after update");
            if !e.armed {
                e.armed = true;
                return;
            }
            e.armed = false;
        }

        self.enter_prm(ctx, ob, addr, stride);
    }

    fn enter_prm<S: TraceSink>(
        &mut self,
        ctx: &mut SvrCtx<'_, S>,
        ob: &Observed<'_>,
        addr: u64,
        stride: i64,
    ) {
        let pc = ob.pc;
        let n = self.cfg.vector_length as u64;

        // Loop-bound prediction (§IV-B2) decides how many lanes to spawn.
        let pred_ewma = self.lb.predict_ewma(pc, n);
        let arch = ob.arch;
        let pred_cv = self.lb.predict_lbd_cv(pc, n, |r: Reg| arch.reg(r));
        let pred_stored = self.lb.predict_lbd_stored(pc, n);
        let lanes = match self.cfg.loop_bound_mode {
            LoopBoundMode::Maxlength => n,
            LoopBoundMode::Ewma => pred_ewma.unwrap_or(n),
            LoopBoundMode::LbdMaxlength => pred_stored.unwrap_or(n),
            LoopBoundMode::LbdWait => pred_stored.unwrap_or(n),
            LoopBoundMode::LbdCv => pred_cv.unwrap_or(n),
            LoopBoundMode::Tournament => {
                self.lb.record_predictions(pc, pred_ewma, pred_cv);
                let pick_lbd = self.lb.tournament_picks_lbd(pc);
                match (pred_ewma, pred_cv) {
                    (Some(e), Some(l)) => {
                        if pick_lbd {
                            l
                        } else {
                            e
                        }
                    }
                    (Some(e), None) => e,
                    (None, Some(l)) => l,
                    (None, None) => n,
                }
            }
        }
        .clamp(1, n) as usize;

        // §VI-D lockstep-coupling ablation: charge the scalar-register-file
        // copy at every PRM entry.
        if self.cfg.model_register_copy {
            ctx.slots.bump(ob.issue_t + self.cfg.register_copy_cycles);
        }

        self.in_prm = true;
        self.hslr_pc = Some(pc);
        self.n_lanes = lanes;
        self.mask = if lanes >= 128 {
            u128::MAX
        } else {
            (1u128 << lanes) - 1
        };
        self.past_lil = false;
        self.cur_lil = None;
        self.prm_inst_count = 0;
        self.flag_lanes = None;
        self.ts.clear();
        ctx.stats.svr.prm_rounds += 1;
        if S::ENABLED {
            ctx.hier.trace(&TraceEvent::PrmEnter {
                cycle: ob.issue_t,
                hslr_pc: pc as u64,
                lanes: lanes as u32,
            });
        }

        self.gen_chain_head(ctx, ob, addr, stride);
    }

    /// Generates the SVI for a striding load (the head of a chain): lanes at
    /// `addr + (k+1)*stride`, and records the prefetched range for waiting
    /// mode.
    fn gen_chain_head<S: TraceSink>(
        &mut self,
        ctx: &mut SvrCtx<'_, S>,
        ob: &Observed<'_>,
        addr: u64,
        stride: i64,
    ) {
        let lanes = self.n_lanes;
        if S::ENABLED {
            ctx.hier.trace(&TraceEvent::SvrChain {
                cycle: ob.issue_t,
                pc: ob.pc as u64,
                lanes: lanes as u32,
            });
        }
        let mut vals = vec![0u64; self.cfg.vector_length];
        let mut ready = vec![0u64; self.cfg.vector_length];
        let mut max_ready = ob.issue_t;
        for k in 0..lanes {
            if self.mask & (1u128 << k) == 0 {
                continue;
            }
            let lane_addr = addr.wrapping_add((stride * (k as i64 + 1)) as u64);
            let t = self.lane_issue_time(ob.issue_t, k);
            let res = ctx.hier.access(
                Access::new(t, lane_addr, AccessKind::Prefetch(PfSource::Svr))
                    .with_pc(ob.pc as u64),
            );
            vals[k] = ctx.image.read_u64(lane_addr);
            ready[k] = res.complete_at;
            max_ready = max_ready.max(res.complete_at);
            ctx.stats.svr.lane_loads += 1;
        }
        self.finish_svi(ctx, ob, lanes, true);

        if let Some(dst) = ob.inst.dst() {
            match self.ts.map_dest(dst, self.prm_inst_count as u32) {
                RecycleOutcome::Starved => ctx.stats.svr.srf_starved += 1,
                out => {
                    if matches!(out, RecycleOutcome::Recycled(_)) {
                        ctx.stats.svr.srf_recycles += 1;
                        if S::ENABLED {
                            ctx.hier.trace(&TraceEvent::SrfRecycle { cycle: ob.issue_t });
                        }
                    }
                    let id = match out {
                        RecycleOutcome::Allocated(i) | RecycleOutcome::Recycled(i) => i,
                        RecycleOutcome::Starved => unreachable!(),
                    };
                    let srf = self.ts.srf_mut(id);
                    srf.vals.copy_from_slice(&vals);
                    srf.ready.copy_from_slice(&ready);
                }
            }
        }
        ctx.sb.push(max_ready);

        // Record the prefetched range for waiting mode (§IV-A5).
        if let Some(e) = self.sd.lookup_mut(ob.pc) {
            e.last_prefetch = addr.wrapping_add((stride * lanes as i64) as u64);
            e.lp_valid = true;
        }
    }

    /// Per-lane issue time: lanes share the pipeline at
    /// `scalars_per_cycle` lanes per cycle, after the real instruction.
    fn lane_issue_time(&self, base: u64, k: usize) -> u64 {
        base + 1 + (k as u32 / self.cfg.scalars_per_cycle) as u64
    }

    /// Accounts issue bandwidth and stats for one generated SVI.
    ///
    /// Only the *striding load's* copies block the next program-order
    /// instruction (§IV-A1); dependent-instruction SVIs execute in spare
    /// issue slots with main-thread priority, so they do not stall the pipe
    /// (the core is memory-bound during runahead).
    fn finish_svi<S: TraceSink>(
        &mut self,
        ctx: &mut SvrCtx<'_, S>,
        ob: &Observed<'_>,
        lanes: usize,
        blocks_pipe: bool,
    ) {
        let active = (0..lanes)
            .filter(|&k| self.mask & (1u128 << k) != 0)
            .count() as u64;
        if active == 0 {
            return;
        }
        if blocks_pipe {
            let last = self.lane_issue_time(ob.issue_t, lanes.saturating_sub(1));
            ctx.slots.bump(last);
        }
        ctx.stats.svr.svis += 1;
        ctx.stats.svr.lanes += active;
        ctx.stats.issued_uops += active;
    }

    /// Which SRF entries feed this instruction, if any input is tainted and
    /// still mapped. Returns per-source lane inputs. Operates on the
    /// pre-decoded source list — no per-call operand re-derivation.
    fn chain_inputs(&self, op: &DecodedOp) -> Option<Vec<Option<usize>>> {
        let mut any = false;
        let mut v = Vec::with_capacity(3);
        for &r in op.src_indices() {
            let id = self.ts.vector_input(Reg::new(r));
            any |= id.is_some();
            v.push(id);
        }
        if any {
            Some(v)
        } else {
            None
        }
    }

    /// Generates an SVI for a dependent (tainted-input) instruction.
    fn maybe_gen_svi<S: TraceSink>(&mut self, ctx: &mut SvrCtx<'_, S>, ob: &Observed<'_>) {
        let Some(inputs) = self.chain_inputs(ob.op) else {
            // Untainted result overwriting a mapped register frees it.
            if let Some(dst) = ob.inst.dst() {
                self.ts.untaint(dst);
            }
            return;
        };
        if self.past_lil {
            ctx.stats.svr.lil_suppressed += 1;
            return;
        }

        // LRU touch for every tainted source (§IV-A3).
        for (&r, id) in ob.op.src_indices().iter().zip(inputs.iter()) {
            if id.is_some() {
                self.ts.touch(Reg::new(r), self.prm_inst_count as u32);
            }
        }

        let lanes = self.n_lanes;
        let input = |slot: usize, k: usize| -> (u64, u64) {
            match inputs.get(slot).copied().flatten() {
                Some(id) => {
                    let s = self.ts.srf(id);
                    (s.vals[k], s.ready[k])
                }
                None => (ob.src_vals[slot], ob.issue_t),
            }
        };

        let mut vals = vec![0u64; self.cfg.vector_length];
        let mut ready = vec![0u64; self.cfg.vector_length];
        let mut max_ready = ob.issue_t;
        let mut flag = None;

        match ob.inst {
            Inst::Alu { op, .. } => {
                for k in 0..lanes {
                    if self.mask & (1u128 << k) == 0 {
                        continue;
                    }
                    let (a, ra) = input(0, k);
                    let (b, rb) = input(1, k);
                    let t = self.lane_issue_time(ob.issue_t, k).max(ra).max(rb);
                    vals[k] = eval_alu(op, a, b);
                    ready[k] = t + 1;
                    max_ready = max_ready.max(ready[k]);
                }
            }
            Inst::AluI { op, imm, .. } => {
                for k in 0..lanes {
                    if self.mask & (1u128 << k) == 0 {
                        continue;
                    }
                    let (a, ra) = input(0, k);
                    let t = self.lane_issue_time(ob.issue_t, k).max(ra);
                    vals[k] = eval_alu(op, a, imm as u64);
                    ready[k] = t + 1;
                    max_ready = max_ready.max(ready[k]);
                }
            }
            Inst::Ld { .. } | Inst::LdX { .. } => {
                for k in 0..lanes {
                    if self.mask & (1u128 << k) == 0 {
                        continue;
                    }
                    let (addr, rdy_in) = match ob.inst {
                        Inst::Ld { offset, .. } => {
                            let (b, rb) = input(0, k);
                            (b.wrapping_add(offset as u64), rb)
                        }
                        Inst::LdX { shift, .. } => {
                            let (b, rb) = input(0, k);
                            let (i, ri) = input(1, k);
                            (b.wrapping_add(i << shift), rb.max(ri))
                        }
                        _ => unreachable!(),
                    };
                    let t = self.lane_issue_time(ob.issue_t, k).max(rdy_in);
                    let res = ctx.hier.access(
                        Access::new(t, addr, AccessKind::Prefetch(PfSource::Svr))
                            .with_pc(ob.pc as u64),
                    );
                    vals[k] = ctx.image.read_u64(addr);
                    ready[k] = res.complete_at;
                    max_ready = max_ready.max(ready[k]);
                    ctx.stats.svr.lane_loads += 1;
                }
            }
            Inst::St { .. } | Inst::StX { .. } => {
                // Transient stores only prefetch their line (for write).
                for (k, rdy) in ready.iter_mut().enumerate().take(lanes) {
                    if self.mask & (1u128 << k) == 0 {
                        continue;
                    }
                    let addr = match ob.inst {
                        Inst::St { offset, .. } => input(1, k).0.wrapping_add(offset as u64),
                        Inst::StX { shift, .. } => {
                            input(1, k).0.wrapping_add(input(2, k).0 << shift)
                        }
                        _ => unreachable!(),
                    };
                    let rdy_in = input(1, k).1.max(input(2, k).1).max(input(0, k).1);
                    let t = self.lane_issue_time(ob.issue_t, k).max(rdy_in);
                    let res = ctx.hier.access(
                        Access::new(t, addr, AccessKind::Prefetch(PfSource::Svr))
                            .with_pc(ob.pc as u64),
                    );
                    *rdy = res.complete_at;
                    max_ready = max_ready.max(*rdy);
                    ctx.stats.svr.lane_loads += 1;
                }
            }
            Inst::Cmp { .. } | Inst::CmpI { .. } => {
                let imm_b = match ob.inst {
                    Inst::CmpI { imm, .. } => Some(imm as u64),
                    _ => None,
                };
                let mut fa = vec![0u64; self.cfg.vector_length];
                let mut fb = vec![0u64; self.cfg.vector_length];
                let mut fr = vec![0u64; self.cfg.vector_length];
                for k in 0..lanes {
                    if self.mask & (1u128 << k) == 0 {
                        continue;
                    }
                    let (a, ra) = input(0, k);
                    let (b, rb) = match imm_b {
                        Some(i) => (i, 0),
                        None => input(1, k),
                    };
                    fa[k] = a;
                    fb[k] = b;
                    fr[k] = self.lane_issue_time(ob.issue_t, k).max(ra).max(rb) + 1;
                    max_ready = max_ready.max(fr[k]);
                }
                flag = Some(FlagLanes {
                    a: fa,
                    b: fb,
                    ready: fr,
                });
            }
            _ => return,
        }

        self.finish_svi(ctx, ob, lanes, false);
        ctx.sb.push(max_ready);

        if let Some(f) = flag {
            self.flag_lanes = Some(f);
            return;
        }

        if let Some(dst) = ob.inst.dst() {
            match self.ts.map_dest(dst, self.prm_inst_count as u32) {
                RecycleOutcome::Starved => ctx.stats.svr.srf_starved += 1,
                out => {
                    if matches!(out, RecycleOutcome::Recycled(_)) {
                        ctx.stats.svr.srf_recycles += 1;
                        if S::ENABLED {
                            ctx.hier.trace(&TraceEvent::SrfRecycle { cycle: ob.issue_t });
                        }
                    }
                    let id = match out {
                        RecycleOutcome::Allocated(i) | RecycleOutcome::Recycled(i) => i,
                        RecycleOutcome::Starved => unreachable!(),
                    };
                    let srf = self.ts.srf_mut(id);
                    srf.vals.copy_from_slice(&vals);
                    srf.ready.copy_from_slice(&ready);
                }
            }
        }
    }

    /// Masks off lanes whose predicate disagrees with the real path
    /// (§IV-B1).
    fn apply_branch_mask<S: TraceSink>(
        &mut self,
        ctx: &mut SvrCtx<'_, S>,
        cond: svr_isa::Cond,
        real_taken: bool,
    ) {
        let Some(f) = self.flag_lanes.take() else {
            return;
        };
        for k in 0..self.n_lanes {
            if self.mask & (1u128 << k) == 0 {
                continue;
            }
            let lane_taken = eval_cond(cond, f.a[k], f.b[k]);
            if lane_taken != real_taken {
                self.mask &= !(1u128 << k);
                ctx.stats.svr.masked_lanes += 1;
            }
        }
    }

    fn end_round<S: TraceSink>(
        &mut self,
        ctx: &mut SvrCtx<'_, S>,
        reason: EndReason,
        cycle: u64,
    ) {
        if !self.in_prm {
            return;
        }
        if S::ENABLED {
            ctx.hier.trace(&TraceEvent::PrmExit {
                cycle,
                reason: reason.trace_reason(),
            });
        }
        self.in_prm = false;
        self.ts.clear();
        self.flag_lanes = None;
        // Track whether this chain actually contained a dependent load.
        if let Some(hslr) = self.hslr_pc {
            if let Some(e) = self.sd.lookup_mut(hslr) {
                if self.cur_lil.is_some() {
                    e.useful = 3;
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        match reason {
            EndReason::Hslr => {
                ctx.stats.svr.hslr_terminations += 1;
                // Train the LIL field of the HSLR's detector entry (§IV-A4).
                if let (Some(hslr), Some(lil)) = (self.hslr_pc, self.cur_lil) {
                    if let Some(e) = self.sd.lookup_mut(hslr) {
                        if e.lil_valid && e.lil == lil {
                            e.lil_conf = (e.lil_conf + 1).min(3);
                        } else if e.lil_valid && e.lil_conf > 0 {
                            e.lil_conf -= 1;
                        } else {
                            e.lil = lil;
                            e.lil_valid = true;
                            e.lil_conf = 1;
                        }
                    }
                }
            }
            EndReason::Timeout => ctx.stats.svr.timeouts += 1,
            EndReason::Retarget => {}
        }
        self.cur_lil = None;
        self.past_lil = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inorder::{InOrderConfig, InOrderCore};
    use crate::pipeline::CoreModel;
    use crate::svr::config::LoopBoundMode;
    use svr_isa::{AluOp, ArchState, Assembler, Cond, Program, Reg};
    use svr_mem::{MemConfig, MemImage};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// The canonical stride-indirect loop:
    /// `for i in 0..n { sum += data[idx[i]] }`, with `data` spread so each
    /// access is a distinct cache line.
    fn stride_indirect(n: u64) -> (Program, MemImage, ArchState) {
        let mut img = MemImage::new();
        let idx: Vec<u64> = (0..n).map(|i| (i * 7919 + 13) % n).collect();
        let idx_base = img.alloc_array(&idx);
        let data_base = img.alloc_words(n * 8); // 64 B per element
        for k in 0..n {
            img.write_u64(data_base + k * 64, k);
        }
        let (bi, bd, i, t, v, sum, nn) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        let mut asm = Assembler::new("si");
        let top = asm.label();
        asm.bind(top);
        asm.ldx(t, bi, i, 3); // t = idx[i]           (striding load)
        asm.alui(AluOp::Sll, t, t, 3); // element -> 64B offset via <<3 then x8? no: idx*64 = idx<<6
        asm.alui(AluOp::Sll, t, t, 3);
        asm.alu(AluOp::Add, v, bd, t);
        asm.ld(v, v, 0); // v = data[idx[i]*64]  (indirect load)
        asm.alu(AluOp::Add, sum, sum, v);
        asm.alui(AluOp::Add, i, i, 1);
        asm.cmp(i, nn);
        asm.b(Cond::Ne, top);
        asm.halt();
        let p = asm.finish();
        let mut arch = ArchState::new();
        arch.set_reg(bi, idx_base);
        arch.set_reg(bd, data_base);
        arch.set_reg(nn, n);
        (p, img, arch)
    }

    fn run_core(svr: Option<SvrConfig>, n: u64) -> (InOrderCore, ArchState) {
        let (p, mut img, mut arch) = stride_indirect(n);
        let mut core = match svr {
            Some(s) => InOrderCore::with_svr(InOrderConfig::default(), MemConfig::default(), s),
            None => InOrderCore::new(InOrderConfig::default(), MemConfig::default()),
        };
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        (core, arch)
    }

    #[test]
    fn svr_enters_prm_and_prefetches() {
        let (core, arch) = run_core(Some(SvrConfig::default()), 2000);
        assert!(arch.halted());
        let s = core.stats().svr;
        assert!(s.prm_rounds > 10, "prm_rounds={}", s.prm_rounds);
        assert!(s.lane_loads > 1000, "lane_loads={}", s.lane_loads);
        assert!(s.waiting_suppressed > 0, "waiting mode must engage");
        assert!(core.hierarchy().stats().svr.used > 100, "prefetches must be used");
    }

    #[test]
    fn svr_is_architecturally_transparent() {
        let (c0, a0) = run_core(None, 500);
        let (c1, a1) = run_core(Some(SvrConfig::default()), 500);
        assert_eq!(a0.reg(r(6)), a1.reg(r(6)), "same architectural result");
        assert_eq!(c0.stats().retired, c1.stats().retired);
    }

    #[test]
    fn svr_speeds_up_stride_indirect() {
        let (c0, _) = run_core(None, 3000);
        let (c1, _) = run_core(Some(SvrConfig::default()), 3000);
        let speedup = c0.stats().cycles as f64 / c1.stats().cycles as f64;
        assert!(speedup > 1.5, "speedup={speedup:.2}");
    }

    #[test]
    fn longer_vectors_help_more() {
        let (c16, _) = run_core(Some(SvrConfig::with_length(16)), 4000);
        let (c64, _) = run_core(Some(SvrConfig::with_length(64)), 4000);
        assert!(
            c64.stats().cycles < c16.stats().cycles,
            "svr64={} svr16={}",
            c64.stats().cycles,
            c16.stats().cycles
        );
    }

    #[test]
    fn waiting_mode_prevents_redundant_rounds() {
        let with = run_core(Some(SvrConfig::default()), 1000).0;
        let without = run_core(
            Some(SvrConfig {
                waiting_mode: false,
                ..SvrConfig::default()
            }),
            1000,
        )
        .0;
        assert!(
            without.stats().svr.prm_rounds > 4 * with.stats().svr.prm_rounds,
            "without={} with={}",
            without.stats().svr.prm_rounds,
            with.stats().svr.prm_rounds
        );
    }

    /// Nested loops (PR-shaped): outer offsets load + inner neighbor load.
    /// The HSLR must end up on the inner striding load (§IV-A6).
    fn nested_loop_workload(n: u64, inner: u64) -> (Program, MemImage, ArchState) {
        let mut img = MemImage::new();
        // offsets[u] = u * inner; data = gathered lines.
        let offsets: Vec<u64> = (0..=n).map(|u| u * inner).collect();
        let idx: Vec<u64> = (0..n * inner)
            .map(|i| (i * 613 + 7) % (n * inner))
            .collect();
        let ob = img.alloc_array(&offsets);
        let ib = img.alloc_array(&idx);
        let db = img.alloc_words(n * inner * 8);
        let (rob, rib, rdb, ru, rn, rj, rend, rv, rc, rsum, rt) = (
            r(1),
            r(2),
            r(3),
            r(4),
            r(5),
            r(6),
            r(7),
            r(8),
            r(9),
            r(10),
            r(11),
        );
        let mut asm = Assembler::new("nested");
        let outer = asm.label();
        let inner_l = asm.label();
        let after = asm.label();
        asm.bind(outer);
        asm.ldx(rj, rob, ru, 3); // striding load A (outer)
        asm.alui(AluOp::Add, rt, ru, 1);
        asm.ldx(rend, rob, rt, 3);
        asm.cmp(rj, rend);
        asm.b(Cond::Geu, after);
        asm.bind(inner_l);
        asm.ldx(rv, rib, rj, 3); // striding load B (inner)
        asm.alui(AluOp::Sll, rv, rv, 6);
        asm.alu(AluOp::Add, rv, rdb, rv);
        asm.ld(rc, rv, 0); // indirect chain load
        asm.alu(AluOp::Add, rsum, rsum, rc);
        asm.alui(AluOp::Add, rj, rj, 1);
        asm.cmp(rj, rend);
        asm.b(Cond::Ltu, inner_l);
        asm.bind(after);
        asm.alui(AluOp::Add, ru, ru, 1);
        asm.cmp(ru, rn);
        asm.b(Cond::Ltu, outer);
        asm.halt();
        let mut arch = ArchState::new();
        arch.set_reg(rob, ob);
        arch.set_reg(rib, ib);
        arch.set_reg(rdb, db);
        arch.set_reg(rn, n);
        (asm.finish(), img, arch)
    }

    #[test]
    fn nested_loops_retarget_hslr_to_inner_load() {
        let (p, mut img, mut arch) = nested_loop_workload(300, 24);
        let mut core = InOrderCore::with_svr(
            InOrderConfig::default(),
            MemConfig::default(),
            SvrConfig::default(),
        );
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        let eng = core.svr_engine().unwrap();
        // The inner striding load lives at pc 5 (`ldx rv, rib, rj`): the
        // Seen-bit protocol keeps runahead prioritized on the inner loop
        // (whether it got there by direct trigger or nested retargeting).
        assert_eq!(eng.hslr(), Some(5), "HSLR should settle on the inner loop");
        assert!(core.stats().svr.prm_rounds > 50);
        assert!(core.stats().svr.waiting_suppressed > 0);
    }

    #[test]
    fn lil_training_suppresses_tail_svis() {
        let (core, _) = run_core(Some(SvrConfig::default()), 2000);
        // The chain has ALU work after the last indirect load (`sum += v`);
        // once LIL confidence saturates those SVIs stop.
        assert!(
            core.stats().svr.lil_suppressed > 100,
            "lil_suppressed={}",
            core.stats().svr.lil_suppressed
        );
        let (no_lil, _) = {
            let cfg = SvrConfig {
                lil_enabled: false,
                ..SvrConfig::default()
            };
            run_core(Some(cfg), 2000)
        };
        assert_eq!(no_lil.stats().svr.lil_suppressed, 0);
        assert!(no_lil.stats().svr.lanes > core.stats().svr.lanes);
    }

    #[test]
    fn lbd_wait_arms_before_running_ahead() {
        let (tournament, _) = run_core(Some(SvrConfig::default()), 1500);
        let cfg = SvrConfig {
            loop_bound_mode: LoopBoundMode::LbdWait,
            ..SvrConfig::default()
        };
        let (wait, _) = run_core(Some(cfg), 1500);
        // Arming halves the trigger opportunities; fewer rounds happen.
        assert!(
            wait.stats().svr.prm_rounds < tournament.stats().svr.prm_rounds,
            "wait={} tournament={}",
            wait.stats().svr.prm_rounds,
            tournament.stats().svr.prm_rounds
        );
    }

    #[test]
    fn register_copy_ablation_costs_cycles() {
        let (plain, _) = run_core(Some(SvrConfig::default()), 1500);
        let cfg = SvrConfig {
            model_register_copy: true,
            ..SvrConfig::default()
        };
        let (copy, _) = run_core(Some(cfg), 1500);
        assert!(
            copy.stats().cycles > plain.stats().cycles,
            "copy={} plain={}",
            copy.stats().cycles,
            plain.stats().cycles
        );
    }

    #[test]
    fn tiny_srf_with_no_recycling_starves() {
        let cfg = SvrConfig {
            srf_entries: 1,
            recycle: crate::svr::RecyclePolicy::NoRecycle,
            ..SvrConfig::default()
        };
        let (core, _) = run_core(Some(cfg), 1000);
        assert!(core.stats().svr.srf_starved > 0);
        let cfg = SvrConfig {
            srf_entries: 1,
            ..SvrConfig::default()
        };
        let (lru, _) = run_core(Some(cfg), 1000);
        assert!(lru.stats().svr.srf_recycles > 0);
        assert!(
            lru.stats().cycles <= core.stats().cycles,
            "LRU recycling should not be slower than starving"
        );
    }

    #[test]
    fn scalars_per_cycle_is_memory_bound_flat() {
        // Fig. 16: widening transient execution barely moves performance.
        let (one, _) = run_core(
            Some(SvrConfig {
                scalars_per_cycle: 1,
                ..SvrConfig::default()
            }),
            2000,
        );
        let (eight, _) = run_core(
            Some(SvrConfig {
                scalars_per_cycle: 8,
                ..SvrConfig::default()
            }),
            2000,
        );
        let ratio = one.stats().cycles as f64 / eight.stats().cycles as f64;
        assert!((0.9..1.35).contains(&ratio), "ratio={ratio:.2}");
    }

    #[test]
    fn accuracy_ban_engages_on_garbage_strides() {
        // A loop whose "stride" pattern leads nowhere useful: large-stride
        // pointer walk that never revisits prefetched lines.
        let mut img = MemImage::new();
        let n = 4000u64;
        let base = img.alloc_words(n * 128);
        let (b, i, t) = (r(1), r(2), r(3));
        let mut asm = Assembler::new("waste");
        let top = asm.label();
        asm.bind(top);
        asm.ldx(t, b, i, 3);
        asm.alui(AluOp::Add, i, i, 977); // giant stride: prefetches useless
        asm.cmpi(i, (n * 16) as i64);
        asm.b(Cond::Lt, top);
        asm.halt();
        let p = asm.finish();
        let mut arch = ArchState::new();
        arch.set_reg(b, base);
        let mut core = InOrderCore::with_svr(
            InOrderConfig::default(),
            MemConfig::default(),
            SvrConfig::default(),
        );
        core.run(&p, &mut img, &mut arch, u64::MAX).unwrap();
        // With a constant large stride SVR *is* accurate (it prefetches the
        // actual future addresses), so this is a smoke test that the monitor
        // ran without banning a perfectly striding pattern.
        assert!(!core.svr_engine().unwrap().banned());
    }
}
