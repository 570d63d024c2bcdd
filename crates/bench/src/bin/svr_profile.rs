//! Guest-level profiler CLI — `perf report` for the simulated program — and
//! the golden-metrics regression gate.
//!
//! **Profile mode** (default): run one (workload, configuration) pair with a
//! [`svr_sim::Profiler`] attached, print the ranked, symbolized hot-site
//! table (per-PC stall cycles, miss/level counts, TLB walks, prefetch
//! efficacy, SVR episodes) plus a per-source efficacy summary, and write the
//! full profile to `results/profile/<wl>_<cfg>.json`:
//!
//! ```sh
//! cargo run --release -p svr-bench --bin svr_profile -- HJ8 SVR16 --scale tiny
//! ```
//!
//! Every profile run re-simulates the pair *unprofiled* and compares the two
//! `RunReport`s (`profile_identical=` marker; `--check-identical` makes a
//! mismatch fatal) and asserts the profiler's conservation laws — per-PC
//! sums must equal the aggregate CPI stack and `MemStats` exactly
//! (`profile_conserved=`, always fatal on violation).
//!
//! **Golden mode** (`--golden`): simulate a small fixed matrix of
//! (workload, config) pairs at tiny scale and compare their headline
//! metrics against the checked-in baseline `results/golden/svr_profile.json`
//! — integers exactly, floats to 1e-6 relative tolerance. Drift fails the
//! gate (exit 1) listing every differing metric by JSON path. After an
//! *intended* model change, re-baseline with `--golden --bless` and commit
//! the updated file. `--golden-path PATH` redirects the baseline (used by
//! CI's tamper-detection demo).

use std::path::{Path, PathBuf};

use svr_bench::{usage, BenchArgs};
use svr_sim::{golden_diff, run_workload, run_workload_traced, Json, Profiler, RunOptions, RunReport, SimConfig};
use svr_workloads::{Kernel, Scale};

/// Relative tolerance for float metrics in the golden gate.
const GOLDEN_REL_TOL: f64 = 1e-6;

/// The fixed golden matrix: irregular + regular behaviour across every core
/// model, small enough to simulate in seconds at tiny scale.
const GOLDEN_WORKLOADS: [&str; 3] = ["Camel", "HJ8", "Kangr"];
const GOLDEN_CONFIGS: [&str; 4] = ["InO", "IMP", "OoO", "SVR16"];

fn fail(msg: &str) -> ! {
    eprintln!("svr_profile: {msg}");
    eprintln!(
        "\nusage: svr_profile [WORKLOAD] [CONFIG] [options] [--top N] [--check-identical]\n\
         \x20      svr_profile --golden [--bless] [--golden-path PATH] [options]\n\
         (defaults: HJ8 SVR16)\n\n{}",
        usage("svr_profile")
    );
    std::process::exit(2);
}

fn sim_fail(e: &svr_sim::SimError) -> ! {
    eprintln!("svr_profile: simulation failed: {e}");
    std::process::exit(1);
}

fn write_json(path: &Path, j: &Json) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
        }
    }
    std::fs::write(path, j.pretty() + "\n")
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
}

/// The headline metrics the golden gate pins for one run: exact integer
/// counters plus a couple of derived floats (to exercise the tolerance
/// path).
fn golden_metrics(r: &RunReport) -> Json {
    let pf = |c: &svr_mem::PfCounters| {
        Json::Obj(vec![
            ("issued".into(), Json::u64(c.issued)),
            ("used".into(), Json::u64(c.used)),
            ("late".into(), Json::u64(c.late)),
            ("evicted_unused".into(), Json::u64(c.evicted_unused)),
            ("resident_at_end".into(), Json::u64(c.resident_at_end)),
            ("pollution".into(), Json::u64(c.pollution)),
        ])
    };
    Json::Obj(vec![
        ("workload".into(), Json::str(r.workload.clone())),
        ("config".into(), Json::str(r.config.clone())),
        ("cycles".into(), Json::u64(r.core.cycles)),
        ("retired".into(), Json::u64(r.core.retired)),
        ("l1d_misses".into(), Json::u64(r.mem.l1d_misses)),
        ("l2_misses".into(), Json::u64(r.mem.l2_misses)),
        ("dram_reads".into(), Json::u64(r.mem.dram_reads())),
        ("writebacks".into(), Json::u64(r.mem.writebacks)),
        ("tlb_walks".into(), Json::u64(r.mem.tlb_walks)),
        ("cpi".into(), Json::f64(r.cpi())),
        ("nj_per_inst".into(), Json::f64(r.nj_per_inst())),
        ("stride".into(), pf(&r.mem.stride)),
        ("imp".into(), pf(&r.mem.imp)),
        ("svr".into(), pf(&r.mem.svr)),
    ])
}

/// Runs the fixed golden matrix and returns the baseline document.
fn golden_actual() -> Json {
    let mut runs = Vec::new();
    for wl in GOLDEN_WORKLOADS {
        let kernel = Kernel::from_name(wl).unwrap_or_else(|| fail(&format!("unknown kernel {wl}")));
        let workload = kernel.build(Scale::Tiny);
        for cfg in GOLDEN_CONFIGS {
            let config = SimConfig::from_label(cfg)
                .unwrap_or_else(|| fail(&format!("unknown config {cfg}")));
            let report = run_workload(&workload, &config, &RunOptions::detailed(Scale::Tiny.max_insts()))
                .unwrap_or_else(|e| sim_fail(&e));
            if !report.verified {
                fail(&format!("{wl} under {cfg} failed architectural verification"));
            }
            runs.push(golden_metrics(&report));
        }
    }
    Json::Obj(vec![
        ("scale".into(), Json::str("tiny")),
        ("rel_tol".into(), Json::f64(GOLDEN_REL_TOL)),
        ("runs".into(), Json::Arr(runs)),
    ])
}

fn golden_mode(bless: bool, path: &Path) -> ! {
    let actual = golden_actual();
    if bless {
        write_json(path, &actual);
        println!("golden_blessed=1");
        println!("golden_file={}", path.display());
        std::process::exit(0);
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        fail(&format!(
            "read golden baseline {}: {e}\n(run with --golden --bless to create it)",
            path.display()
        ))
    });
    let golden = Json::parse(&text)
        .unwrap_or_else(|e| fail(&format!("parse {}: {e}", path.display())));
    let diffs = golden_diff(&golden, &actual, GOLDEN_REL_TOL);
    if diffs.is_empty() {
        println!("golden_ok=1");
        std::process::exit(0);
    }
    eprintln!(
        "FAIL: {} metric(s) drifted from the golden baseline {}:",
        diffs.len(),
        path.display()
    );
    for d in &diffs {
        eprintln!("  {d}");
    }
    eprintln!("If the change is intended, re-baseline with: svr_profile --golden --bless");
    println!("golden_ok=0");
    std::process::exit(1);
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: svr_profile [WORKLOAD] [CONFIG] [options] [--top N] [--check-identical]\n\
             \x20      svr_profile --golden [--bless] [--golden-path PATH]\n\
             (defaults: HJ8 SVR16)\n\n{}",
            usage("svr_profile")
        );
        return;
    }
    // Binary-specific flags, extracted before the shared parser (which
    // rejects unknown flags) sees the command line.
    let mut golden = false;
    let mut bless = false;
    let mut check_identical = false;
    let mut top = 20usize;
    let mut golden_path = PathBuf::from("results/golden/svr_profile.json");
    {
        let mut kept = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--golden" => golden = true,
                "--bless" => bless = true,
                "--check-identical" => check_identical = true,
                "--top" => {
                    let v = it.next().unwrap_or_else(|| fail("--top requires a value"));
                    top = v
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| fail(&format!("--top needs a positive integer, got {v}")));
                }
                "--golden-path" => {
                    let v = it
                        .next()
                        .unwrap_or_else(|| fail("--golden-path requires a value"));
                    golden_path = PathBuf::from(v);
                }
                _ => kept.push(a),
            }
        }
        raw = kept;
    }
    if bless && !golden {
        fail("--bless only makes sense with --golden");
    }
    let args = BenchArgs::try_parse(&raw).unwrap_or_else(|e| fail(&e));

    if golden {
        if !args.positional.is_empty() {
            fail("--golden runs a fixed matrix; positional arguments are not accepted");
        }
        golden_mode(bless, &golden_path);
    }

    if args.positional.len() > 2 {
        fail(&format!("unexpected arguments {:?}", &args.positional[2..]));
    }
    let wl_name = args.positional.first().map_or("HJ8", String::as_str);
    let cfg_label = args.positional.get(1).map_or("SVR16", String::as_str);
    let kernel = Kernel::from_name(wl_name)
        .unwrap_or_else(|| fail(&format!("unknown workload {wl_name} (try dump_workload --list)")));
    let config: SimConfig = SimConfig::from_label(cfg_label)
        .unwrap_or_else(|| fail(&format!("unknown config {cfg_label} (InO|IMP|OoO|SVR<n>)")));

    let workload = kernel.build(args.scale);
    let budget = args.scale.max_insts();

    // Unprofiled reference run (NullSink: the instrumentation compiles out).
    let base = run_workload(&workload, &config, &RunOptions::detailed(budget)).unwrap_or_else(|e| sim_fail(&e));

    let mut prof = Profiler::new();
    let profiled =
        run_workload_traced(&workload, &config, &RunOptions::detailed(budget), &mut prof)
            .unwrap_or_else(|e| sim_fail(&e));

    println!(
        "# {} under {} at {} scale: {} cycles, {} retired, CPI {:.3}",
        workload.name,
        config.label(),
        args.scale.name(),
        profiled.core.cycles,
        profiled.core.retired,
        profiled.cpi()
    );
    let symbols = workload.program.symbols();
    print!("{}", prof.render_table(symbols, &profiled, top));

    println!("\n# prefetch efficacy (issued == used + late + evicted + resident; \
              pollution = demand misses blamed on evictions)");
    println!(
        "{:>8} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}  {:>9} {:>6}",
        "source", "issued", "used", "late", "evicted", "resident", "pollution", "accuracy", "late%"
    );
    for (name, c) in [
        ("stride", &profiled.mem.stride),
        ("imp", &profiled.mem.imp),
        ("svr", &profiled.mem.svr),
    ] {
        let pct = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0));
        println!(
            "{:>8} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9}  {:>9} {:>6}",
            name,
            c.issued,
            c.used,
            c.late,
            c.evicted_unused,
            c.resident_at_end,
            c.pollution,
            pct(c.accuracy()),
            pct(c.late_ratio()),
        );
    }

    // Conservation: the per-PC tables must reproduce the aggregate stats
    // exactly. A violation is an attribution bug, never tolerable.
    let conserved = prof.check_against(&profiled);
    println!("profile_conserved={}", u8::from(conserved.is_ok()));
    if let Err(e) = &conserved {
        eprintln!(
            "FAIL: profiler attribution does not reconcile with aggregate statistics:\n{e}"
        );
    }

    let identical = base == profiled;
    println!("profile_identical={}", u8::from(identical));
    if check_identical && !identical {
        eprintln!(
            "FAIL: profiled RunReport diverged from the unprofiled run for {} under {}",
            workload.name,
            config.label()
        );
    }

    let out = args.json.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "results/profile/{}_{}.json",
            workload.name,
            config.label().replace('/', "-")
        ))
    });
    write_json(&out, &prof.to_json(symbols, &profiled));
    println!("profile_file={}", out.display());

    if conserved.is_err() || (check_identical && !identical) {
        std::process::exit(1);
    }
}
