//! The repository benchmark: end-to-end metrics of two workloads, and a
//! traced run that adds per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <serve_warm|serve_mixed>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! The exit status is 0 only when every correctness check passed.

mod host;
mod jobs;
mod probes;
mod serve;
mod spans;
mod stats;
mod sweeps;

use jobs::{Mix, THREADS};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};
use svr_sim::json::Json;
use svr_sim::{RunOptions, RunReport};
use svr_workloads::Scale;

/// Repetitions a run makes even when `--seconds` is already spent.
const MIN_REPS: usize = 3;

/// Results a run collects, even past `--seconds`, so that p99 has ten
/// samples beyond it.
const MIN_SAMPLES: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    ServeWarm,
    ServeMixed,
}

impl WorkloadName {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve_warm" => Some(Self::ServeWarm),
            "serve_mixed" => Some(Self::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeWarm => "serve_warm",
            Self::ServeMixed => "serve_mixed",
        }
    }

    fn mix(self) -> Mix {
        match self {
            Self::ServeWarm => Mix::Warm,
            Self::ServeMixed => Mix::Mixed,
        }
    }
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_warm|serve_mixed> \
                     [--seed N] [--seconds N] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Everything the repetitions of one run accumulate.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    submit_ms: Vec<f64>,
    result_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    digests: BTreeSet<u64>,
    problems: Vec<String>,
}

/// One repetition: a serve round of the workload's mix. `None` when the
/// round could not start (recorded in `acc` as a failure).
/// `probe_healthz` adds healthz round trips on the idle daemon.
fn run_round(
    args: &Args,
    scratch: &mut host::Scratch,
    acc: &mut Acc,
    parent: u64,
    probe_healthz: bool,
) -> std::io::Result<Option<serve::Round>> {
    let dir = scratch.fresh_dir("serve")?;
    let mix = args.workload.mix();
    let seqs = jobs::serve_sequences(args.seed, mix);
    let round = serve::run_round(&seqs, mix, &dir, args.seed, parent, probe_healthz);
    let _ = std::fs::remove_dir_all(&dir);
    let mut round = match round {
        Ok(r) => r,
        Err(e) => {
            acc.problems.push(e);
            acc.failed += 1;
            acc.attempted += 1;
            return Ok(None);
        }
    };
    acc.setup_s.push(round.setup_s);
    acc.wall_s.push(round.wall_s);
    acc.submit_ms.extend(&round.submit_ms);
    acc.result_ms.extend(&round.result_ms);
    acc.attempted += round.attempted;
    // Failed ops are listed among the problems too; count each once.
    acc.failed += round.failed.max(round.problems.len() as u64);
    acc.problems.append(&mut round.problems);
    acc.digests.insert(jobs::digest(&round.reports));
    Ok(Some(round))
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
    /// Metrics a standalone layer probe measured (on the workload's own
    /// kernels and reports) rather than the workload's own round.
    probes: Vec<&'static str>,
}

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    fn probe(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.probes.push(name);
        self.put(name, value, unit);
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(n, v, u)| {
                    (
                        (*n).to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::f64(*v)),
                            ("unit".into(), Json::str(*u)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// End-to-end metrics from the accumulated repetitions and the run's peak
/// RSS; notes how each percentile was read.
fn end_to_end(acc: &mut Acc, peak_rss_mb: Option<f64>, notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let reps = acc.wall_s.len();
    m.put(
        "setup_s",
        stats::median(&acc.setup_s).unwrap_or(f64::NAN),
        "s",
    );
    notes.push(format!("setup_s, wall_s: median of {reps} repetitions"));
    m.put(
        "wall_s",
        stats::median(&acc.wall_s).unwrap_or(f64::NAN),
        "s",
    );
    m.put("peak_rss_mb", peak_rss_mb.unwrap_or(f64::NAN), "MiB");
    notes.push(format!(
        "peak_rss_mb: the process's high-water mark over all {reps} repetitions"
    ));
    for (p50, p99, samples) in [
        ("submit_p50_ms", "submit_p99_ms", &acc.submit_ms),
        ("result_p50_ms", "result_p99_ms", &acc.result_ms),
    ] {
        match (stats::percentile(samples, 50.0), stats::tail(samples, 99.0)) {
            (Some(q50), Some(q99)) => {
                m.put(p50, q50.value, "ms");
                m.put(p99, q99.value, "ms");
                notes.push(format!(
                    "{p50}: p50 of n={}; {p99}: p99 of n={}",
                    q50.n, q99.n
                ));
            }
            _ => {
                acc.problems.push(format!(
                    "{p99}: {} samples leave fewer than ten beyond p99",
                    samples.len()
                ));
                m.put(p50, f64::NAN, "ms");
                m.put(p99, f64::NAN, "ms");
            }
        }
    }
    m
}

/// The kernels of the workload's pool: cold ones first (the first kernel is
/// the representative the core probes run), then the warm-fill kernels.
/// Returns them with the number of warm ones at the end.
fn pool_kernels(mix: Mix) -> (Vec<svr_workloads::Kernel>, usize) {
    let mut kernels = match mix {
        Mix::Warm => Vec::new(),
        Mix::Mixed => jobs::cold_grid().0,
    };
    let warm = jobs::warm_grid().0;
    let n_warm = warm.len();
    kernels.extend(warm);
    (kernels, n_warm)
}

/// 1 − (Σ job busy + Σ build) / (threads × wall) of one sweep.
fn idle_frac(job_ms: &[f64], build_s: f64, wall_s: f64) -> f64 {
    let busy = job_ms.iter().sum::<f64>() / 1e3 + build_s;
    1.0 - busy / (THREADS as f64 * wall_s)
}

/// The traced run: one untraced and one traced round, then every layer
/// probe. Returns the per-layer metrics.
fn traced(args: &Args, scratch: &mut host::Scratch, acc: &mut Acc) -> Result<Metrics, String> {
    let io = |e: std::io::Error| e.to_string();
    let failed = || "the round could not start".to_string();
    spans::set_enabled(false);
    let untraced = run_round(args, scratch, acc, 0, false)
        .map_err(io)?
        .ok_or_else(failed)?;
    spans::set_enabled(true);
    spans::set_run(1);
    let root = spans::next_id();
    let t_root = Instant::now();
    let rep = run_round(args, scratch, acc, root, true)
        .map_err(io)?
        .ok_or_else(failed)?;
    let mut m = Metrics::default();
    let scale = Scale::Tiny;
    let opts = RunOptions::default();

    spans::set_run(2);
    let (kernels, n_warm) = pool_kernels(args.workload.mix());
    let (build_each, rep_workload) = probes::build(&kernels, scale, root);
    m.probe("workloads.build_s", build_each.iter().sum(), "s");
    let (warp, sampled) = probes::warp_and_sampled(&rep_workload, scale, root)?;
    m.probe("isa.warp_minst_per_s", warp, "Minst/s");
    m.probe("sim.sampled_minst_per_s", sampled, "Minst/s");
    let cores = probes::cores(&rep_workload, root)?;
    for (name, v) in [
        "core.inorder_minst_per_s",
        "core.imp_minst_per_s",
        "core.ooo_minst_per_s",
        "core.svr16_minst_per_s",
        "core.svr128_minst_per_s",
    ]
    .into_iter()
    .zip(cores)
    {
        m.probe(name, v, "Minst/s");
    }
    let sum = |f: fn(&RunReport) -> u64| rep.reports.iter().map(f).sum::<u64>() as f64;
    m.put("core.retired_insts", sum(|r| r.core.retired), "count");
    m.put("core.cycles", sum(|r| r.core.cycles), "count");
    let mem = probes::hierarchy(root)?;
    for (name, v) in [
        "mem.l1_hit_ns",
        "mem.l2_hit_ns",
        "mem.dram_ns",
        "mem.tlb_walk_ns",
    ]
    .into_iter()
    .zip(mem)
    {
        m.probe(name, v, "ns");
    }
    m.put("mem.l1d_misses", sum(|r| r.mem.l1d_misses), "count");
    m.put("mem.l2_misses", sum(|r| r.mem.l2_misses), "count");
    // The sweep layer: the round's warm-cache fill.
    let fill = &rep.fill;
    let fill_build_s: f64 = build_each[build_each.len() - n_warm..].iter().sum();
    m.put(
        "sweep.idle_frac",
        idle_frac(&fill.job_ms, fill_build_s, fill.wall_s),
        "ratio",
    );
    m.put(
        "sweep.job_ms_p50",
        stats::percentile(&fill.job_ms, 50.0).map_or(f64::NAN, |q| q.value),
        "ms",
    );
    m.put(
        "sweep.job_ms_p90",
        stats::percentile(&fill.job_ms, 90.0).map_or(f64::NAN, |q| q.value),
        "ms",
    );
    let dir = scratch.fresh_dir("cacheprobe").map_err(io)?;
    let [load, store, claim] = probes::cache_ops(&rep.reports, scale, &opts, &dir, root)?;
    m.probe("cache.load_us", load, "us");
    m.probe("cache.store_us", store, "us");
    m.probe("cache.claim_hit_us", claim, "us");
    for (name, counter) in [
        ("cache.hits", "cache_hits_total"),
        ("cache.misses", "cache_misses_total"),
        ("cache.stores", "cache_stores_total"),
    ] {
        m.put(name, serve::counter(&rep.scrape, counter) as f64, "count");
    }
    let (to_us, from_us) = probes::report_json(&rep.reports, root)?;
    m.probe("report.to_json_us", to_us, "us");
    m.probe("report.from_json_us", from_us, "us");
    m.put(
        "http.healthz_rtt_ms_p50",
        stats::median(&rep.healthz_ms).unwrap_or(f64::NAN),
        "ms",
    );
    for (name, hist) in [
        ("server.queue_wait_ms_p50", "queue_wait_us"),
        ("server.simulate_ms_p50", "simulate_us"),
        ("server.stream_ms_p50", "stream_us"),
    ] {
        // 0 when the daemon timed nothing: `serve_warm` simulates nothing.
        m.put(
            name,
            serve::histogram_p50(&rep.scrape, hist).map_or(0.0, |us| us / 1e3),
            "ms",
        );
    }
    for (name, counter) in [
        ("server.jobs_simulated", "jobs_simulated_total"),
        ("server.jobs_cached", "jobs_cached_total"),
        ("server.jobs_joined", "jobs_joined_total"),
        ("server.rejected", "jobs_rejected_total"),
    ] {
        m.put(name, serve::counter(&rep.scrape, counter) as f64, "count");
    }
    m.put(
        "server.http_requests",
        serve::counter_family(&rep.scrape, "http_requests_total") as f64,
        "count",
    );
    m.probe(
        "trace.ring_overhead_ratio",
        probes::ring_overhead(&rep_workload, root)?,
        "ratio",
    );
    spans::record(root, 0, "perfbench.traced", t_root, Instant::now());
    m.put("traced.wall_s", rep.wall_s, "s");
    m.put("traced.untraced_wall_s", untraced.wall_s, "s");
    m.put("traced.overhead_s", rep.wall_s - untraced.wall_s, "s");
    Ok(m)
}

fn write_spans(args: &Args, notes: &mut Vec<String>) {
    let spans = spans::take();
    let dir = Path::new(host::OUT_DIR).join("spans");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| spans::write_jsonl(&path, &spans)) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write spans: {e}")),
    }
    println!("span self time (ms):  count      total       self  name");
    for (name, (count, total, own)) in spans::self_times(&spans) {
        println!(
            "                    {count:>7} {:>10.1} {:>10.1}  {name}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let one_arena = host::single_malloc_arena();
    let fingerprint = host::fingerprint();
    let mut scratch = host::Scratch::new().map_err(|e| format!("scratch dir: {e}"))?;
    svr_serve::log::set_level(None);
    let mut acc = Acc::default();
    let mut notes = Vec::new();
    if !one_arena {
        notes.push("malloc arenas not limited to one; peak_rss_mb is noisier".into());
    }
    let t0 = Instant::now();
    let metrics = if args.trace {
        let m = traced(args, &mut scratch, &mut acc);
        write_spans(args, &mut notes);
        m.unwrap_or_else(|e| {
            acc.problems.push(e);
            Metrics::default()
        })
    } else {
        let budget = Duration::from_secs(args.seconds);
        while acc.wall_s.len() < MIN_REPS
            || t0.elapsed() < budget
            || (acc.result_ms.len() < MIN_SAMPLES && acc.failed == 0)
        {
            let round = run_round(args, &mut scratch, &mut acc, 0, false)
                .map_err(|e| format!("repetition: {e}"))?;
            if round.is_none() {
                break; // a round that could not start has been recorded as failed
            }
        }
        end_to_end(&mut acc, host::peak_rss_mb(), &mut notes)
    };
    let restreams = serve::STREAM_RETRIES.load(std::sync::atomic::Ordering::Relaxed);
    if restreams > 0 {
        notes.push(format!(
            "{restreams} job stream(s) closed without a terminal event and were re-streamed"
        ));
    }
    if acc.digests.len() > 1 {
        acc.problems.push(format!(
            "reports differ between repetitions ({} digests)",
            acc.digests.len()
        ));
    }
    for (name, value, _) in &metrics.values {
        if !value.is_finite() {
            acc.problems.push(format!("{name} could not be measured"));
        }
    }
    let digest = acc
        .digests
        .iter()
        .next()
        .map_or("none".to_string(), |d| format!("{d:016x}"));
    let correct = acc.failed == 0 && acc.problems.is_empty();

    println!(
        "perfbench {} seed={} trace={} reps={} elapsed={:.1}s",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        acc.wall_s.len(),
        t0.elapsed().as_secs_f64()
    );
    println!("host {}", fingerprint.dump());
    println!("report digest {digest}");
    for (name, value, unit) in &metrics.values {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    for n in &notes {
        println!("  note: {n}");
    }
    println!(
        "  failed_frac = {} / {} = {:.6}",
        acc.failed,
        acc.attempted,
        acc.failed as f64 / acc.attempted.max(1) as f64
    );
    for p in &acc.problems {
        println!("  CHECK FAILED: {p}");
    }
    let result = Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::u64(args.seed)),
        ("trace".into(), Json::Bool(args.trace)),
        ("host".into(), fingerprint),
        ("digest".into(), Json::str(&digest)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(acc.attempted)),
        ("failed".into(), Json::u64(acc.failed)),
        (
            "problems".into(),
            Json::Arr(acc.problems.iter().map(Json::str).collect()),
        ),
        (
            "notes".into(),
            Json::Arr(notes.iter().map(Json::str).collect()),
        ),
        (
            "setup_s".into(),
            Json::Arr(acc.setup_s.iter().map(|&v| Json::f64(v)).collect()),
        ),
        (
            "wall_s".into(),
            Json::Arr(acc.wall_s.iter().map(|&v| Json::f64(v)).collect()),
        ),
        ("metrics".into(), metrics.to_json()),
        (
            "probe_metrics".into(),
            Json::Arr(metrics.probes.iter().map(|n| Json::str(*n)).collect()),
        ),
    ]);
    let dir = Path::new(host::OUT_DIR).join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, result.pretty() + "\n"))
    {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
    drop(scratch);
    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(acc.attempted)),
        ("failed".into(), Json::u64(acc.failed)),
        ("metrics".into(), metrics.to_json()),
    ]);
    println!("{}", last.dump());
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
