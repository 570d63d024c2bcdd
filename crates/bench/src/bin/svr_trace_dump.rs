//! Trace any (workload, configuration) pair: run it with the event-trace
//! subsystem attached, print a per-interval summary table (CPI stack, MLP
//! timeline, SVR activity), and — with `--trace` — stream a Chrome
//! `trace_event` / Perfetto JSON file to `results/trace/<wl>_<cfg>.json`
//! that loads directly in <https://ui.perfetto.dev> or `chrome://tracing`.
//!
//! ```sh
//! cargo run --release -p svr-bench --bin svr_trace_dump -- PR_KR SVR16 \
//!     --scale tiny --trace
//! ```
//!
//! Every run also re-simulates the pair *untraced* and compares the two
//! `RunReport`s: tracing must never change simulated timing (the greppable
//! `trace_identical=` marker; `--check-identical` makes a mismatch fatal,
//! which CI uses).

use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

use svr_bench::{usage, BenchArgs};
use svr_sim::{run_workload, run_workload_traced, Json, RunOptions, SimConfig};
use svr_trace::{PerfettoSink, StallTag, WindowReport, WindowedMetrics};
use svr_workloads::Kernel;

fn fail(msg: &str) -> ! {
    eprintln!("svr_trace_dump: {msg}");
    eprintln!(
        "\nusage: svr_trace_dump [WORKLOAD] [CONFIG] [options] [--check-identical]\n\
         (defaults: PR_KR SVR16)\n\n{}",
        usage("svr_trace_dump")
    );
    std::process::exit(2);
}

/// A simulation failure (watchdog trip, invariant violation) is not a usage
/// error: print the structured message alone and exit 1. CI's watchdog smoke
/// test relies on this being a prompt, clean failure rather than a hang.
fn sim_fail(e: &svr_sim::SimError) -> ! {
    eprintln!("svr_trace_dump: simulation failed: {e}");
    std::process::exit(1);
}

fn print_windows(report: &WindowReport) {
    println!(
        "{:>10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>6} {:>8} {:>5}",
        "cycle", "issued", "base", "branch", "l1", "l2", "dram", "struct", "chains", "srf",
        "mlp_avg", "peak"
    );
    for w in &report.windows {
        let a = |t: StallTag| w.attributed[t.index()];
        println!(
            "{:>10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>6} {:>8.2} {:>5}",
            w.start,
            w.issued,
            a(StallTag::Base),
            a(StallTag::Branch),
            a(StallTag::MemL1),
            a(StallTag::MemL2),
            a(StallTag::MemDram),
            a(StallTag::Structural),
            w.svr_chains,
            w.srf_recycles,
            w.avg_dram_inflight,
            w.peak_dram_inflight,
        );
    }
}

fn main() {
    // `--check-identical` is specific to this binary; extract it before the
    // shared parser (which rejects unknown flags) sees the command line.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: svr_trace_dump [WORKLOAD] [CONFIG] [options] [--check-identical]\n\
             (defaults: PR_KR SVR16)\n\n{}",
            usage("svr_trace_dump")
        );
        return;
    }
    let check_identical = raw.iter().any(|a| a == "--check-identical");
    raw.retain(|a| a != "--check-identical");
    let args = BenchArgs::try_parse(&raw).unwrap_or_else(|e| fail(&e));
    if args.positional.len() > 2 {
        fail(&format!("unexpected arguments {:?}", &args.positional[2..]));
    }

    let wl_name = args.positional.first().map_or("PR_KR", String::as_str);
    let cfg_label = args.positional.get(1).map_or("SVR16", String::as_str);
    let kernel = Kernel::from_name(wl_name)
        .unwrap_or_else(|| fail(&format!("unknown workload {wl_name} (try dump_workload --list)")));
    let mut config: SimConfig = SimConfig::from_label(cfg_label)
        .unwrap_or_else(|| fail(&format!("unknown config {cfg_label} (InO|IMP|OoO|SVR<n>)")));
    if let Some(n) = args.trace_interval {
        config.trace.interval = n;
    }

    let workload = kernel.build(args.scale);
    let budget = args.scale.max_insts();

    // Untraced reference run (NullSink: the instrumentation compiles out).
    let base = run_workload(&workload, &config, &RunOptions::detailed(budget)).unwrap_or_else(|e| sim_fail(&e));

    // Traced run: windowed metrics always; the Perfetto stream on --trace.
    let trace_path = args.trace.then(|| {
        args.trace_path.clone().unwrap_or_else(|| {
            PathBuf::from(format!(
                "results/trace/{}_{}.json",
                workload.name,
                config.label().replace('/', "-")
            ))
        })
    });
    let metrics = WindowedMetrics::new(config.trace.interval);
    let (traced, window_report, written) = match &trace_path {
        Some(path) => {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)
                        .unwrap_or_else(|e| fail(&format!("create {}: {e}", dir.display())));
                }
            }
            let file = File::create(path)
                .unwrap_or_else(|e| fail(&format!("create {}: {e}", path.display())));
            let perfetto = PerfettoSink::new(BufWriter::new(file))
                .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
            let mut sink = (metrics, perfetto);
            let traced = run_workload_traced(&workload, &config, &RunOptions::detailed(budget), &mut sink)
                .unwrap_or_else(|e| sim_fail(&e));
            let (metrics, perfetto) = sink;
            let report = metrics.finish();
            let metadata = Json::Obj(vec![
                ("workload".into(), Json::str(&workload.name)),
                ("config".into(), Json::str(config.label())),
                ("scale".into(), Json::str(args.scale.name())),
                ("windows".into(), report.to_json()),
            ]);
            perfetto
                .finish(Some(metadata))
                .unwrap_or_else(|e| fail(&format!("write {}: {e}", path.display())));
            (traced, report, Some(path.clone()))
        }
        None => {
            let mut sink = metrics;
            let traced = run_workload_traced(&workload, &config, &RunOptions::detailed(budget), &mut sink)
                .unwrap_or_else(|e| sim_fail(&e));
            (traced, sink.finish(), None)
        }
    };

    println!(
        "# {} under {} at {} scale: {} cycles, {} retired, CPI {:.3}",
        workload.name,
        config.label(),
        args.scale.name(),
        traced.core.cycles,
        traced.core.retired,
        traced.cpi()
    );
    print_windows(&window_report);
    println!(
        "# prm_episodes={} mshr_hist_max={} dramq_hist_max={}",
        window_report.prm_episodes.len(),
        window_report.mshr_occupancy.len().saturating_sub(1),
        window_report.dram_queue_occupancy.len().saturating_sub(1),
    );

    let identical = base == traced;
    println!("trace_events={}", window_report.events);
    println!("max_dram_overlap={}", window_report.max_dram_overlap);
    println!(
        "max_dram_overlap_in_prm={}",
        window_report.max_dram_overlap_in_prm
    );
    println!("trace_identical={}", u8::from(identical));
    if let Some(path) = &written {
        println!("trace_file={}", path.display());
    }
    if check_identical && !identical {
        eprintln!(
            "FAIL: traced RunReport diverged from the untraced run for {} under {}",
            workload.name,
            config.label()
        );
        std::process::exit(1);
    }
}
