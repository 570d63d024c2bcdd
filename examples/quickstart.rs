//! Quickstart: assemble a tiny stride-indirect loop, run it on the in-order
//! baseline and on the same core with SVR attached, and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use svr::core::{CoreModel, InOrderConfig, InOrderCore, SvrConfig};
use svr::isa::{AluOp, ArchState, Assembler, Cond, DataMemory, Reg};
use svr::mem::{MemConfig, MemImage};

fn main() {
    // Build the data: an index array and a data array spread over cache
    // lines, the classic A[B[i]] pattern from §II of the paper.
    let n = 40_000u64;
    let mut image = MemImage::new();
    let idx: Vec<u64> = (0..n).map(|i| (i * 7919 + 13) % n).collect();
    let idx_base = image.alloc_array(&idx);
    let data_base = image.alloc_words(n * 8);
    for k in 0..n {
        image.write_u64(data_base + k * 64, k * 3);
    }

    // Assemble: for (i = 0; i < n; i++) sum += data[idx[i] * 8];
    let (bi, bd, i, t, v, sum, bound) = (
        Reg::new(1),
        Reg::new(2),
        Reg::new(3),
        Reg::new(4),
        Reg::new(5),
        Reg::new(6),
        Reg::new(7),
    );
    let mut asm = Assembler::new("quickstart");
    let top = asm.label();
    asm.bind(top);
    asm.ldx(t, bi, i, 3); //       t = idx[i]        (striding load)
    asm.alui(AluOp::Sll, t, t, 6); // element -> 64-byte slot
    asm.alu(AluOp::Add, v, bd, t);
    asm.ld(v, v, 0); //            v = data[t]       (indirect load)
    asm.alu(AluOp::Add, sum, sum, v);
    asm.alui(AluOp::Add, i, i, 1);
    asm.cmp(i, bound);
    asm.b(Cond::Ltu, top);
    asm.halt();
    let program = asm.finish();

    let init = |arch: &mut ArchState| {
        arch.set_reg(bi, idx_base);
        arch.set_reg(bd, data_base);
        arch.set_reg(bound, n);
    };

    // Baseline in-order run.
    let mut arch = ArchState::new();
    init(&mut arch);
    let mut img = image.clone();
    let mut base = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
    base.run(&program, &mut img, &mut arch, u64::MAX).unwrap();
    let base_sum = arch.reg(sum);

    // Same core + SVR.
    let mut arch = ArchState::new();
    init(&mut arch);
    let mut img = image.clone();
    let mut svr_core = InOrderCore::with_svr(
        InOrderConfig::default(),
        MemConfig::default(),
        SvrConfig::default(),
    );
    svr_core.run(&program, &mut img, &mut arch, u64::MAX).unwrap();

    assert_eq!(arch.reg(sum), base_sum, "SVR must not change architecture");
    println!(
        "in-order : {:>12} cycles (CPI {:.2})",
        base.stats().cycles,
        base.stats().cpi()
    );
    println!(
        "SVR-16   : {:>12} cycles (CPI {:.2})",
        svr_core.stats().cycles,
        svr_core.stats().cpi()
    );
    println!(
        "speedup  : {:.2}x  | PRM rounds: {}  transient lanes: {}  prefetch accuracy: {:.1}%",
        base.stats().cycles as f64 / svr_core.stats().cycles as f64,
        svr_core.stats().svr.prm_rounds,
        svr_core.stats().svr.lanes,
        svr_core.hierarchy().stats().svr.accuracy().unwrap_or(f64::NAN) * 100.0
    );
}
