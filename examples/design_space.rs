//! Design-space exploration on one workload: sweep the SVR vector length,
//! SRF size and loop-bound mode, printing speedup and hardware cost
//! (Table II bits) so the performance/area trade-off of §IV-C is visible.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use svr::core::{bit_budget, LoopBoundMode, SvrConfig};
use svr::sim::{run_kernel, RunOptions, SimConfig};
use svr::workloads::{Kernel, Scale};

fn main() {
    let kernel = Kernel::Kangaroo;
    let scale = Scale::Small;
    let base = run_kernel(kernel, scale, &SimConfig::inorder(), &RunOptions::default()).expect("valid config");
    println!(
        "Kangaroo (two-level indirection), in-order CPI {:.2}",
        base.cpi()
    );
    println!();
    println!(
        "{:>4} {:>4} {:12} {:>9} {:>9} {:>9}",
        "N", "K", "bounds", "CPI", "speedup", "KiB"
    );
    let k = 8usize;
    for n in [8usize, 16, 32, 64, 128] {
        let cfg = SimConfig::svr_with(SvrConfig {
            srf_entries: k,
            loop_bound_mode: LoopBoundMode::Tournament,
            ..SvrConfig::with_length(n)
        });
        let r = run_kernel(kernel, scale, &cfg, &RunOptions::default()).expect("valid config");
        assert!(r.verified);
        println!(
            "{:>4} {:>4} {:12} {:>9.2} {:>8.2}x {:>9.2}",
            n,
            k,
            "tournament",
            r.cpi(),
            base.core.cycles as f64 / r.core.cycles as f64,
            bit_budget(n as u64, k as u64).total_kib(),
        );
    }
    println!();
    println!(
        "{:>4} {:>4} {:12} {:>9} {:>9}",
        "N", "K", "bounds", "CPI", "speedup"
    );
    for mode in [
        LoopBoundMode::Maxlength,
        LoopBoundMode::LbdWait,
        LoopBoundMode::LbdCv,
        LoopBoundMode::Ewma,
        LoopBoundMode::Tournament,
    ] {
        let cfg = SimConfig::svr_with(SvrConfig {
            loop_bound_mode: mode,
            ..SvrConfig::with_length(16)
        });
        let r = run_kernel(kernel, scale, &cfg, &RunOptions::default()).expect("valid config");
        println!(
            "{:>4} {:>4} {:12} {:>9.2} {:>8.2}x",
            16,
            8,
            format!("{mode:?}"),
            r.cpi(),
            base.core.cycles as f64 / r.core.cycles as f64,
        );
    }
}
