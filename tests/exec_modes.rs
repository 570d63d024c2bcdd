//! Execution-mode equivalence properties.
//!
//! Warp mode (the pre-decoded functional fast-forward) must be
//! architecturally indistinguishable from detailed simulation: same final
//! registers, flags, PC, halt state, same memory contents, same retired
//! count — on *every* workload in the registry, on both core models. On top
//! of that, the `MemImage` checkpoint/restore machinery must round-trip
//! through real run segments so fast-forward-then-rewind is trustworthy.

use svr::core::{CoreModel, InOrderConfig, InOrderCore, OooConfig, OooCore, SvrConfig};
use svr::isa::{DataMemory, DecodedProgram};
use svr::mem::MemConfig;
use svr::sim::{run_workload, ExecMode, RunOptions, SimConfig};
use svr::workloads::{irregular_suite, regular_suite, Kernel, Scale};

/// Every registry kernel (the full matrix both figures sweep).
fn all_kernels() -> Vec<Kernel> {
    let mut all = irregular_suite();
    all.extend(regular_suite());
    all
}

/// Warp execution reaches the same architectural state as the detailed
/// in-order core on every workload: registers, flags, PC, halt, memory
/// contents and retired count all agree.
#[test]
fn warp_matches_detailed_arch_state_on_every_workload() {
    let budget = Scale::Tiny.max_insts();
    for kernel in all_kernels() {
        let w = kernel.build(Scale::Tiny);

        let (program, mut d_image, mut d_arch) = w.instantiate();
        let mut core = InOrderCore::new(InOrderConfig::default(), MemConfig::default());
        core.run(&program, &mut d_image, &mut d_arch, budget)
            .expect("detailed run succeeds");
        let retired = core.stats().retired;

        let (_, mut w_image, mut w_arch) = w.instantiate();
        let decoded = DecodedProgram::lower(&program);
        let w_retired = w_arch.run_decoded(&decoded, &mut w_image, budget);

        assert_eq!(w_arch, d_arch, "{}: architectural state diverged", w.name);
        assert_eq!(
            w_image.content_hash(),
            d_image.content_hash(),
            "{}: memory contents diverged",
            w.name
        );
        assert_eq!(w_retired, retired, "{}: retired counts diverged", w.name);
    }
}

/// The same equivalence holds against the out-of-order core (spot-checked:
/// OoO runs are slow, and the functional path is core-independent anyway).
#[test]
fn warp_matches_detailed_ooo_spot_check() {
    let budget = Scale::Tiny.max_insts();
    for kernel in [Kernel::Camel, Kernel::NasIs] {
        let w = kernel.build(Scale::Tiny);

        let (program, mut d_image, mut d_arch) = w.instantiate();
        let mut core = OooCore::new(OooConfig::default(), MemConfig::default());
        core.run(&program, &mut d_image, &mut d_arch, budget)
            .expect("detailed run succeeds");

        let (_, mut w_image, mut w_arch) = w.instantiate();
        let decoded = DecodedProgram::lower(&program);
        w_arch.run_decoded(&decoded, &mut w_image, budget);

        assert_eq!(w_arch, d_arch, "{}: arch state diverged vs OoO", w.name);
        assert_eq!(
            w_image.content_hash(),
            d_image.content_hash(),
            "{}: memory diverged vs OoO",
            w.name
        );
    }
}

/// The public runner agrees too: a warp `run_workload` verifies and retires
/// exactly what the detailed run retires, for every workload.
#[test]
fn warp_run_workload_verifies_every_workload() {
    let cfg = SimConfig::inorder();
    let budget = Scale::Tiny.max_insts();
    for kernel in all_kernels() {
        let w = kernel.build(Scale::Tiny);
        let warp = run_workload(&w, &cfg, &RunOptions::warp(budget)).expect("warp runs");
        let detailed = run_workload(&w, &cfg, &RunOptions::detailed(budget)).expect("detailed runs");
        assert!(warp.verified, "{}: warp failed verification", w.name);
        assert_eq!(warp.core.retired, detailed.core.retired, "{}", w.name);
        assert_eq!(warp.core.cycles, 0, "{}: warp must not model time", w.name);
    }
}

/// Metamorphic check across core models: an SVR engine whose stride
/// confidence threshold (4) is above what the 2-bit counter can reach (3)
/// never qualifies a striding load, so it never enters runahead and the SVR
/// core must time every workload exactly like the plain in-order core.
#[test]
fn svr_that_never_runs_ahead_matches_inorder_exactly() {
    let never = SimConfig::svr_with(SvrConfig {
        stride_confidence: 4,
        ..SvrConfig::with_length(16)
    });
    let opts = RunOptions::detailed(Scale::Tiny.max_insts());
    for kernel in all_kernels() {
        let w = kernel.build(Scale::Tiny);
        let base = run_workload(&w, &SimConfig::inorder(), &opts).expect("InO runs");
        let svr = run_workload(&w, &never, &opts).expect("SVR16 runs");
        assert_eq!(svr.core.svr.prm_rounds, 0, "{}: runahead started", w.name);
        assert_eq!(svr.core.cycles, base.core.cycles, "{}: cycles", w.name);
        assert_eq!(svr.core.stack, base.core.stack, "{}: CPI stack", w.name);
        assert_eq!(svr.mem, base.mem, "{}: memory stats", w.name);
    }
}

/// Checkpoint/restore round-trips through a real run segment: rewinding the
/// image to the checkpoint restores its exact contents, and replaying from
/// the restored state reproduces the original final state (registers and
/// memory). This is the contract fast-forward-and-rewind workflows rely on.
#[test]
fn checkpoint_restore_round_trips_through_run_segments() {
    for kernel in [Kernel::Camel, Kernel::HashJoin(2), Kernel::NasIs] {
        let w = kernel.build(Scale::Tiny);
        let (program, mut image, arch0) = w.instantiate();
        let decoded = DecodedProgram::lower(&program);

        // Fast-forward partway, checkpoint, then run to completion.
        let mut arch = arch0.clone();
        arch.run_decoded(&decoded, &mut image, 5_000);
        let h_mid = image.content_hash();
        let arch_mid = arch.clone();

        image.begin_tracking();
        arch.run_decoded(&decoded, &mut image, Scale::Tiny.max_insts());
        let h_end = image.content_hash();
        let arch_end = arch.clone();
        let delta = image.take_delta().expect("tracking was on");

        // Rewind: memory is bit-identical to the checkpoint.
        image.restore(&delta);
        assert_eq!(image.content_hash(), h_mid, "{}: rewind diverged", w.name);

        // Replay from the checkpoint: identical final state.
        let mut arch2 = arch_mid.clone();
        arch2.run_decoded(&decoded, &mut image, Scale::Tiny.max_insts());
        assert_eq!(arch2, arch_end, "{}: replay arch diverged", w.name);
        assert_eq!(image.content_hash(), h_end, "{}: replay memory diverged", w.name);
    }
}

/// `read_block` (the bulk checkpoint/warp hook) agrees with a word-by-word
/// loop on real workload images, including unaligned starts and unmapped
/// holes.
#[test]
fn read_block_matches_scalar_reads_on_workload_images() {
    let w = Kernel::Camel.build(Scale::Tiny);
    let (_, image, _) = w.instantiate();
    for &(addr, len) in &[(0u64, 64usize), (8, 513), (4096 - 16, 1024), (1 << 30, 32)] {
        let mut block = vec![0u64; len];
        image.read_block(addr, &mut block);
        for (i, &got) in block.iter().enumerate() {
            let want = image.read_u64(addr + 8 * i as u64);
            assert_eq!(got, want, "mismatch at addr {addr:#x} + 8*{i}");
        }
    }
}

/// `ExecMode` parses the same names it prints (the `--mode` CLI contract).
#[test]
fn exec_mode_cli_names_round_trip() {
    assert_eq!(ExecMode::from_name("warp"), Some(ExecMode::Warp));
    assert_eq!(ExecMode::from_name("detailed"), Some(ExecMode::Detailed));
    assert_eq!(ExecMode::from_name("sampled"), Some(ExecMode::Sampled));
    assert_eq!(ExecMode::default(), ExecMode::Detailed);
}

/// A capped warp segment plus a resumed warp segment equals one uncapped
/// warp run — fast-forward composes (the property `Sweep` warm-up relies
/// on).
#[test]
fn warp_fast_forward_composes_across_caps() {
    let w = Kernel::Camel.build(Scale::Tiny);
    let (program, mut image_a, mut arch_a) = w.instantiate();
    let decoded = DecodedProgram::lower(&program);
    let budget = Scale::Tiny.max_insts();

    let n1 = arch_a.run_decoded(&decoded, &mut image_a, 7_777);
    let n2 = arch_a.run_decoded(&decoded, &mut image_a, budget - n1);

    let (_, mut image_b, mut arch_b) = w.instantiate();
    let n = arch_b.run_decoded(&decoded, &mut image_b, budget);

    assert_eq!(n1 + n2, n, "retired counts must compose");
    assert_eq!(arch_a, arch_b, "split run diverged");
    assert_eq!(image_a.content_hash(), image_b.content_hash());
}
