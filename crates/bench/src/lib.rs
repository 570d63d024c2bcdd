//! Shared infrastructure for the SVR harness binaries (one binary per
//! table/figure of the paper; see DESIGN.md §5 for the index): command-line
//! parsing ([`BenchArgs`]), sweep construction honouring the cache flags
//! ([`sweep`]), and the [`Figure`] recorder that prints each text table and
//! captures it — together with the raw [`RunReport`]s and sweep counters —
//! into `results/<name>.json`.

use std::path::PathBuf;
use svr_sim::{ExecMode, Json, RunOptions, RunReport, SimConfig, Sweep, SweepResult, SweepStats};
use svr_workloads::{Kernel, Scale};

pub mod chart;

/// Parsed command line shared by every harness binary.
///
/// ```text
/// --scale tiny|small|full        problem size (default small)
/// --mode detailed|warp|sampled   execution mode (default detailed)
/// --threads N               simulation threads (default: all cores)
/// --json PATH               write the JSON report here (default results/<name>.json)
/// --no-cache                ignore and do not write the result cache
/// --cache-dir DIR           result cache directory (default $SVR_CACHE_DIR or results/cache)
/// --cache-max-bytes N       evict least-recently-used cache entries beyond N bytes
/// --trace[=PATH]            capture an event trace (default results/trace/<wl>_<cfg>.json)
/// --trace-interval N        windowed-metrics interval in cycles (default 10000)
/// --sample-interval N       sampled mode: measured instructions per period
/// --sample-warmup N         sampled mode: detailed warm-up instructions per period
/// --sample-period N         sampled mode: total instructions per period
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Problem size preset.
    pub scale: Scale,
    /// Execution mode: cycle-accurate `detailed` (default) or functional
    /// `warp` fast-forward (architectural state only, zero timing).
    pub mode: ExecMode,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Explicit JSON output path (otherwise `results/<name>.json`).
    pub json: Option<PathBuf>,
    /// Disables the on-disk result cache.
    pub no_cache: bool,
    /// Overrides the result-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// Caps the result cache: after the sweep, least-recently-used entries
    /// are evicted until the cache fits (`--cache-max-bytes N`).
    pub cache_max_bytes: Option<u64>,
    /// Capture an event trace (`--trace` / `--trace=PATH`).
    pub trace: bool,
    /// Explicit trace output path (`--trace=PATH`); otherwise the binary
    /// derives `results/trace/<workload>_<config>.json`.
    pub trace_path: Option<PathBuf>,
    /// Windowed-metrics interval override in cycles (`--trace-interval N`).
    pub trace_interval: Option<u64>,
    /// Sampled mode: measured-interval override (`--sample-interval N`).
    /// `None` keeps [`svr_sim::RunOptions`]'s default.
    pub sample_interval: Option<u64>,
    /// Sampled mode: warm-up override (`--sample-warmup N`; 0 is valid).
    pub sample_warmup: Option<u64>,
    /// Sampled mode: period override (`--sample-period N`).
    pub sample_period: Option<u64>,
    /// Arguments the shared parser did not consume (binary-specific).
    pub positional: Vec<String>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: Scale::Small,
            mode: ExecMode::Detailed,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            json: None,
            no_cache: false,
            cache_dir: None,
            cache_max_bytes: None,
            trace: false,
            trace_path: None,
            trace_interval: None,
            sample_interval: None,
            sample_warmup: None,
            sample_period: None,
            positional: Vec::new(),
        }
    }
}

impl BenchArgs {
    /// Parses `args` (without the program name). Unknown `--flags` are
    /// errors; non-flag arguments are collected into `positional`.
    pub fn try_parse(args: &[String]) -> Result<BenchArgs, String> {
        let mut out = BenchArgs::default();
        let mut it = args.iter();
        let value = |flag: &str, it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = value("--scale", &mut it)?;
                    out.scale = Scale::from_name(&v)
                        .ok_or_else(|| format!("unknown --scale {v} (tiny|small|full)"))?;
                }
                "--mode" => {
                    let v = value("--mode", &mut it)?;
                    out.mode = ExecMode::from_name(&v)
                        .ok_or_else(|| format!("unknown --mode {v} (detailed|warp|sampled)"))?;
                }
                "--threads" => {
                    let v = value("--threads", &mut it)?;
                    out.threads =
                        v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--threads needs a positive integer, got {v}")
                        })?;
                }
                "--json" => out.json = Some(PathBuf::from(value("--json", &mut it)?)),
                "--no-cache" => out.no_cache = true,
                "--cache-dir" => {
                    out.cache_dir = Some(PathBuf::from(value("--cache-dir", &mut it)?));
                }
                "--cache-max-bytes" => {
                    let v = value("--cache-max-bytes", &mut it)?;
                    out.cache_max_bytes =
                        v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--cache-max-bytes needs a positive integer, got {v}")
                        })?
                        .into();
                }
                "--trace" => out.trace = true,
                "--trace-interval" => {
                    let v = value("--trace-interval", &mut it)?;
                    out.trace_interval =
                        v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--trace-interval needs a positive integer, got {v}")
                        })?
                        .into();
                }
                "--sample-interval" => {
                    let v = value("--sample-interval", &mut it)?;
                    out.sample_interval =
                        v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--sample-interval needs a positive integer, got {v}")
                        })?
                        .into();
                }
                "--sample-warmup" => {
                    let v = value("--sample-warmup", &mut it)?;
                    // 0 is a valid warm-up (measure immediately after the gap).
                    out.sample_warmup = v
                        .parse::<u64>()
                        .map_err(|_| format!("--sample-warmup needs an integer, got {v}"))?
                        .into();
                }
                "--sample-period" => {
                    let v = value("--sample-period", &mut it)?;
                    out.sample_period =
                        v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                            format!("--sample-period needs a positive integer, got {v}")
                        })?
                        .into();
                }
                path if path.starts_with("--trace=") => {
                    let p = &path["--trace=".len()..];
                    if p.is_empty() {
                        return Err("--trace= requires a path".into());
                    }
                    out.trace = true;
                    out.trace_path = Some(PathBuf::from(p));
                }
                flag if flag.starts_with("--") && flag != "--" => {
                    return Err(format!("unknown flag {flag}"));
                }
                other => out.positional.push(other.to_string()),
            }
        }
        Ok(out)
    }

    /// Parses the process command line; prints usage and exits with status 2
    /// on a bad flag, or 0 on `--help`.
    pub fn parse(bin: &str) -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", usage(bin));
            std::process::exit(0);
        }
        // Every harness binary gets graceful interruption: the first
        // SIGINT/SIGTERM lets the in-flight points finish and skips the rest
        // (exit 130 with a resume hint); the second kills as usual.
        svr_sim::shutdown::install();
        match BenchArgs::try_parse(&args) {
            Ok(parsed) => parsed,
            Err(e) => {
                eprintln!("{bin}: {e}\n\n{}", usage(bin));
                std::process::exit(2);
            }
        }
    }
}

/// The shared usage text.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [options]\n\
         \n\
         options:\n\
         \x20 --scale tiny|small|full  problem size (default small)\n\
         \x20 --mode detailed|warp|sampled  execution mode (default detailed)\n\
         \x20 --threads N              simulation threads (default: all cores)\n\
         \x20 --json PATH              JSON report path (default results/<bin>.json)\n\
         \x20 --no-cache               ignore and do not write the result cache\n\
         \x20 --cache-dir DIR          cache directory (default $SVR_CACHE_DIR or results/cache)\n\
         \x20 --cache-max-bytes N      evict least-recently-used cache entries beyond N bytes\n\
         \x20 --trace[=PATH]           capture an event trace (Perfetto/chrome://tracing JSON)\n\
         \x20 --trace-interval N       windowed-metrics interval in cycles (default 10000)\n\
         \x20 --sample-interval N      sampled mode: measured instructions per period\n\
         \x20 --sample-warmup N        sampled mode: warm-up instructions per period\n\
         \x20 --sample-period N        sampled mode: total instructions per period\n\
         \x20 --help                   show this help"
    )
}

/// The [`RunOptions`] a command line selects: the execution mode plus any
/// sampling-parameter overrides (absent flags keep the library defaults).
pub fn run_options(args: &BenchArgs) -> RunOptions {
    let mut opts = RunOptions::default().with_mode(args.mode);
    if let Some(v) = args.sample_interval {
        opts.sample_interval = v;
    }
    if let Some(v) = args.sample_warmup {
        opts.sample_warmup = v;
    }
    if let Some(v) = args.sample_period {
        opts.sample_period = v;
    }
    opts
}

/// Builds a [`Sweep`] over `suite` honouring the scale, mode/sampling and
/// cache flags.
pub fn sweep(suite: Vec<Kernel>, args: &BenchArgs) -> Sweep {
    let mut s = Sweep::new(suite, args.scale).options(run_options(args));
    if args.no_cache {
        s = s.no_cache();
    } else if let Some(dir) = &args.cache_dir {
        s = s.cache_dir(dir.clone());
    }
    if let Some(max) = args.cache_max_bytes {
        s = s.cache_max_bytes(max);
    }
    s
}

/// The paper's eight core configurations in Fig. 1/11/12 order.
pub fn paper_configs() -> Vec<SimConfig> {
    vec![
        SimConfig::inorder(),
        SimConfig::imp(),
        SimConfig::ooo(),
        SimConfig::svr(8),
        SimConfig::svr(16),
        SimConfig::svr(32),
        SimConfig::svr(64),
        SimConfig::svr(128),
    ]
}

/// Resolves a kernel by its display name (`PR_KR`, `Camel`, `HJ8`, ...),
/// searching the irregular and regular suites plus the diagnostic kernels
/// (`DiagSpin`, `DiagPanic` — used by the CI watchdog smoke test).
pub fn kernel_from_name(name: &str) -> Option<Kernel> {
    let mut all = svr_workloads::irregular_suite();
    all.extend(svr_workloads::regular_suite());
    all.push(Kernel::DiagSpin);
    all.push(Kernel::DiagPanic);
    all.into_iter().find(|k| k.name() == name)
}

/// Resolves a core configuration by its display label (`InO`, `IMP`, `OoO`,
/// `SVR16`, ...). Covers the paper configurations plus any plain `SVR<n>`
/// vector length.
pub fn config_from_label(label: &str) -> Option<SimConfig> {
    if let Some(c) = paper_configs().into_iter().find(|c| c.label() == label) {
        return Some(c);
    }
    label
        .strip_prefix("SVR")?
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=128).contains(n))
        .map(SimConfig::svr)
}

/// Asserts all runs passed their architectural checks (capped runs pass by
/// construction).
///
/// # Panics
///
/// Panics if any report failed its check.
pub fn assert_verified(reports: &[RunReport]) {
    for r in reports {
        assert!(
            r.verified,
            "workload {} under {} failed its architectural check",
            r.workload, r.config
        );
    }
}

struct Section {
    heading: String,
    label: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<Json>)>,
}

/// Records a figure's tables while printing them, then emits the whole
/// figure — tables, notes, attached raw runs and sweep counters — as
/// `results/<name>.json` (or the `--json` path). Printing and recording are
/// one call, so the text table and the JSON cannot diverge.
pub struct Figure {
    name: String,
    title: String,
    scale: Scale,
    json_path: PathBuf,
    sections: Vec<Section>,
    notes: Vec<String>,
    sweep: SweepStats,
    runs: Vec<RunReport>,
}

impl Figure {
    /// Starts a figure named `name` (the binary name) and prints its title.
    pub fn new(name: &str, title: &str, args: &BenchArgs) -> Figure {
        println!("# {title}");
        Figure {
            name: name.to_string(),
            title: title.to_string(),
            scale: args.scale,
            json_path: args
                .json
                .clone()
                .unwrap_or_else(|| PathBuf::from(format!("results/{name}.json"))),
            sections: Vec::new(),
            notes: Vec::new(),
            sweep: SweepStats::default(),
            runs: Vec::new(),
        }
    }

    /// Starts a table section: prints `# heading` (when non-empty) and the
    /// column header. `label` names the row-label column.
    pub fn section(&mut self, heading: &str, label: &str, columns: &[&str]) {
        if !heading.is_empty() {
            println!("# {heading}");
        }
        print!("{label:16}");
        for c in columns {
            print!(" {c:>10}");
        }
        println!();
        self.sections.push(Section {
            heading: heading.to_string(),
            label: label.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        });
    }

    fn push_row(&mut self, label: &str, values: Vec<Json>) {
        self.sections
            .last_mut()
            .expect("section() before row()")
            .rows
            .push((label.to_string(), values));
    }

    /// Prints and records one row of real-valued cells (printed as `%.3f`;
    /// non-finite values print and serialize as null).
    pub fn row(&mut self, label: &str, values: &[f64]) {
        print!("{label:16}");
        for v in values {
            if v.is_finite() {
                print!(" {v:>10.3}");
            } else {
                print!(" {:>10}", "-");
            }
        }
        println!();
        self.push_row(label, values.iter().map(|v| Json::f64(*v)).collect());
    }

    /// Prints and records one row of integer cells (serialized exactly).
    pub fn row_u64(&mut self, label: &str, values: &[u64]) {
        print!("{label:16}");
        for v in values {
            print!(" {v:>10}");
        }
        println!();
        self.push_row(label, values.iter().map(|v| Json::u64(*v)).collect());
    }

    /// Prints and records a free-form note line.
    pub fn note(&mut self, text: &str) {
        println!("{text}");
        self.notes.push(text.to_string());
    }

    /// Folds a sweep's counters and unique reports into the figure. Reports
    /// already attached (same workload and config label) are kept once.
    pub fn attach(&mut self, res: &SweepResult) {
        self.sweep.pairs += res.stats.pairs;
        self.sweep.points += res.stats.points;
        self.sweep.simulated += res.stats.simulated;
        self.sweep.cache_hits += res.stats.cache_hits;
        self.sweep.failed += res.stats.failed;
        self.sweep.deduped += res.stats.deduped;
        self.sweep.wall_ms += res.stats.wall_ms;
        for r in res.unique_reports() {
            if !self
                .runs
                .iter()
                .any(|have| have.workload == r.workload && have.config == r.config)
            {
                self.runs.push(r.clone());
            }
        }
    }

    /// Writes the JSON report and prints the sweep summary to stderr.
    ///
    /// # Panics
    ///
    /// Panics if the report cannot be written.
    pub fn finish(self) {
        let sections = Json::Arr(
            self.sections
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("heading".into(), Json::str(&s.heading)),
                        ("label".into(), Json::str(&s.label)),
                        (
                            "columns".into(),
                            Json::Arr(s.columns.iter().map(Json::str).collect()),
                        ),
                        (
                            "rows".into(),
                            Json::Arr(
                                s.rows
                                    .iter()
                                    .map(|(label, values)| {
                                        Json::Obj(vec![
                                            ("label".into(), Json::str(label)),
                                            ("values".into(), Json::Arr(values.clone())),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        let stats = &self.sweep;
        let doc = Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("title".into(), Json::str(&self.title)),
            ("scale".into(), Json::str(self.scale.name())),
            ("sections".into(), sections),
            (
                "notes".into(),
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "sweep".into(),
                Json::Obj(vec![
                    ("pairs".into(), Json::u64(stats.pairs as u64)),
                    ("points".into(), Json::u64(stats.points as u64)),
                    ("simulated".into(), Json::u64(stats.simulated as u64)),
                    ("cache_hits".into(), Json::u64(stats.cache_hits as u64)),
                    ("failed".into(), Json::u64(stats.failed as u64)),
                    ("deduped".into(), Json::u64(stats.deduped as u64)),
                    ("wall_ms".into(), Json::u64(stats.wall_ms)),
                ]),
            ),
            (
                "runs".into(),
                Json::Arr(self.runs.iter().map(svr_sim::report_to_json).collect()),
            ),
        ]);
        if let Some(dir) = self.json_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).expect("create results directory");
            }
        }
        std::fs::write(&self.json_path, doc.pretty())
            .unwrap_or_else(|e| panic!("write {}: {e}", self.json_path.display()));
        eprintln!("{}", self.sweep.summary());
        eprintln!("[sweep] report: {}", self.json_path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let a = BenchArgs::try_parse(&strs(&[
            "--scale",
            "tiny",
            "--threads",
            "3",
            "--json",
            "out.json",
            "--no-cache",
            "--cache-dir",
            "/tmp/c",
            "--cache-max-bytes",
            "1048576",
            "PR_KR",
        ]))
        .expect("parses");
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.threads, 3);
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(a.no_cache);
        assert_eq!(a.cache_dir.as_deref(), Some(std::path::Path::new("/tmp/c")));
        assert_eq!(a.cache_max_bytes, Some(1_048_576));
        assert_eq!(a.positional, vec!["PR_KR"]);
    }

    #[test]
    fn defaults_are_sane() {
        let a = BenchArgs::try_parse(&[]).expect("parses");
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.mode, ExecMode::Detailed);
        assert!(a.threads >= 1);
        assert!(!a.no_cache);
        assert!(a.json.is_none());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(BenchArgs::try_parse(&strs(&["--frobnicate"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--scale", "huge"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--scale"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--threads", "0"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--threads", "many"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--json"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--mode", "turbo"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--mode"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--cache-max-bytes", "0"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--cache-max-bytes", "lots"])).is_err());
    }

    #[test]
    fn parses_mode_flag() {
        let a = BenchArgs::try_parse(&strs(&["--mode", "warp"])).expect("parses");
        assert_eq!(a.mode, ExecMode::Warp);
        let a = BenchArgs::try_parse(&strs(&["--mode", "detailed"])).expect("parses");
        assert_eq!(a.mode, ExecMode::Detailed);
        let a = BenchArgs::try_parse(&strs(&["--mode", "sampled"])).expect("parses");
        assert_eq!(a.mode, ExecMode::Sampled);
    }

    #[test]
    fn parses_sampling_flags_and_builds_options() {
        let a = BenchArgs::try_parse(&strs(&[
            "--mode",
            "sampled",
            "--sample-interval",
            "500",
            "--sample-warmup",
            "0",
            "--sample-period",
            "4000",
        ]))
        .expect("parses");
        assert_eq!(a.sample_interval, Some(500));
        assert_eq!(a.sample_warmup, Some(0));
        assert_eq!(a.sample_period, Some(4000));
        let opts = run_options(&a);
        assert_eq!(opts.mode, ExecMode::Sampled);
        assert_eq!(
            (opts.sample_interval, opts.sample_warmup, opts.sample_period),
            (500, 0, 4000)
        );

        // Absent flags keep the library defaults.
        let d = run_options(&BenchArgs::default());
        assert_eq!(d, RunOptions::default());

        assert!(BenchArgs::try_parse(&strs(&["--sample-interval", "0"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--sample-period", "0"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--sample-warmup", "x"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--sample-warmup"])).is_err());
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage("fig11_cpi");
        for flag in [
            "--scale",
            "--mode",
            "--threads",
            "--json",
            "--no-cache",
            "--cache-dir",
            "--trace",
            "--trace-interval",
            "--sample-interval",
            "--sample-warmup",
            "--sample-period",
        ] {
            assert!(u.contains(flag), "usage missing {flag}");
        }
        assert!(u.contains("sampled"), "usage missing the sampled mode");
    }

    #[test]
    fn parses_trace_flags() {
        let a = BenchArgs::try_parse(&strs(&["--trace"])).expect("parses");
        assert!(a.trace);
        assert!(a.trace_path.is_none());
        assert!(a.trace_interval.is_none());

        let a = BenchArgs::try_parse(&strs(&[
            "--trace=out/t.json",
            "--trace-interval",
            "5000",
        ]))
        .expect("parses");
        assert!(a.trace);
        assert_eq!(
            a.trace_path.as_deref(),
            Some(std::path::Path::new("out/t.json"))
        );
        assert_eq!(a.trace_interval, Some(5000));

        assert!(BenchArgs::try_parse(&strs(&["--trace="])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--trace-interval", "0"])).is_err());
        assert!(BenchArgs::try_parse(&strs(&["--trace-interval"])).is_err());
    }

    #[test]
    fn kernel_and_config_lookup() {
        use svr_workloads::GraphInput;
        assert_eq!(kernel_from_name("PR_KR"), Some(Kernel::Pr(GraphInput::Kr)));
        assert_eq!(kernel_from_name("Camel"), Some(Kernel::Camel));
        assert_eq!(kernel_from_name("nope"), None);
        assert_eq!(config_from_label("InO").map(|c| c.label()).as_deref(), Some("InO"));
        assert_eq!(config_from_label("SVR16").map(|c| c.label()).as_deref(), Some("SVR16"));
        assert_eq!(config_from_label("SVR24").map(|c| c.label()).as_deref(), Some("SVR24"));
        assert!(config_from_label("SVR0").is_none());
        assert!(config_from_label("bogus").is_none());
    }

    #[test]
    fn sweep_helper_honours_cache_flags() {
        use svr_workloads::Kernel;
        // Smoke: a no-cache sweep built through the helper runs and dedupes.
        let args = BenchArgs {
            scale: Scale::Tiny,
            no_cache: true,
            ..BenchArgs::default()
        };
        let res = sweep(vec![Kernel::Camel], &args)
            .configs(vec![SimConfig::inorder(), SimConfig::inorder()])
            .run(1);
        assert_eq!(res.stats.simulated, 1);
        assert_eq!(res.stats.deduped, 1);
    }

    #[test]
    fn paper_configs_have_unique_labels() {
        let labels: Vec<String> = paper_configs().iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len(), "duplicate labels: {labels:?}");
        assert_eq!(labels.len(), 8);
    }
}
