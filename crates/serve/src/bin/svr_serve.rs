//! The simulation daemon: accepts design-point submissions over HTTP,
//! deduplicates, simulates, streams progress, and drains gracefully.
//!
//! ```text
//! svr_serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
//!           [--cache-max-bytes N] [--queue-limit N] [--crash-dir DIR]
//!           [--claim-timeout SECS] [--no-resume]
//!           [--job-deadline SECS] [--sock-timeout SECS] [--faults SPEC]
//!           [--log-level error|warn|info|debug|off]
//! ```
//!
//! `--addr 127.0.0.1:0` binds an ephemeral port; the bound address is
//! printed as `listening on <addr>` (scripts parse this line). SIGINT or
//! SIGTERM begins a drain: in-flight jobs finish, queued jobs stay
//! journaled, and a restarted daemon resumes them (`--no-resume` opts out).
//!
//! `--faults` (or the `SVR_FAULTS` environment variable) installs a seeded
//! deterministic fault-injection schedule — see `svr_sim::fault` for the
//! spec grammar and site catalog. Chaos testing only; never set it on a
//! daemon whose results you are about to trust for latency (results stay
//! correct — that is the point — but injected stalls and retries cost
//! time). Fired faults are reported on stderr at drain.
//!
//! Diagnostics go to stderr as structured JSON lines (see `svr_serve::log`);
//! `--log-level` (or `SVR_LOG`; the flag wins) sets the threshold, default
//! `info`. The stdout `listening on <addr>` line is part of the scriptable
//! interface and is never silenced.

use std::net::TcpListener;
use std::path::PathBuf;
use svr_serve::log;
use svr_serve::{Server, ServerConfig};
use svr_sim::json::Json;
use svr_sim::shutdown;

fn usage() -> String {
    "usage: svr_serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR] \
     [--cache-max-bytes N] [--queue-limit N] [--crash-dir DIR] \
     [--claim-timeout SECS] [--no-resume] \
     [--job-deadline SECS] [--sock-timeout SECS] [--faults SPEC] \
     [--log-level error|warn|info|debug|off]"
        .to_string()
}

struct Args {
    addr: String,
    resume: bool,
    faults: Option<String>,
    log_level: Option<Option<log::Level>>,
    cfg: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        resume: true,
        faults: None,
        log_level: None,
        cfg: ServerConfig::default(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value\n{}", usage()))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--cache-dir" => args.cfg.cache_dir = PathBuf::from(value("--cache-dir")?),
            "--cache-max-bytes" => {
                args.cfg.cache_max_bytes = Some(
                    value("--cache-max-bytes")?
                        .parse()
                        .map_err(|e| format!("--cache-max-bytes: {e}"))?,
                );
            }
            "--queue-limit" => {
                args.cfg.queue_limit = value("--queue-limit")?
                    .parse()
                    .map_err(|e| format!("--queue-limit: {e}"))?;
            }
            "--crash-dir" => args.cfg.crash_dir = Some(PathBuf::from(value("--crash-dir")?)),
            // How long to wait on another live process's cache claim (a
            // SIGKILLed holder's claims are stolen at once).
            "--claim-timeout" => {
                args.cfg.claim_timeout = std::time::Duration::from_secs(
                    value("--claim-timeout")?
                        .parse()
                        .map_err(|e| format!("--claim-timeout: {e}"))?,
                );
            }
            "--no-resume" => args.resume = false,
            // Wall-clock budget per job (acceptance → completion); expired
            // jobs finish with a structured {kind:"deadline"} error.
            "--job-deadline" => {
                args.cfg.job_deadline = Some(std::time::Duration::from_secs(
                    value("--job-deadline")?
                        .parse()
                        .map_err(|e| format!("--job-deadline: {e}"))?,
                ));
            }
            // Socket read AND write timeout per request (also the overall
            // budget for one request to arrive — slow-loris protection).
            "--sock-timeout" => {
                let d = std::time::Duration::from_secs(
                    value("--sock-timeout")?
                        .parse()
                        .map_err(|e| format!("--sock-timeout: {e}"))?,
                );
                args.cfg.read_timeout = d;
                args.cfg.write_timeout = d;
            }
            "--faults" => args.faults = Some(value("--faults")?),
            "--log-level" => {
                let v = value("--log-level")?;
                args.log_level = Some(
                    log::Level::parse(&v)
                        .ok_or_else(|| format!("--log-level: unknown level {v:?}\n{}", usage()))?,
                );
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    // Threshold precedence: --log-level beats SVR_LOG beats the default.
    match args.log_level {
        Some(level) => log::set_level(level),
        None => {
            let _ = log::init_from_env();
        }
    }
    // The --faults flag wins over the SVR_FAULTS environment variable.
    let faulted = match &args.faults {
        Some(spec) => {
            let plan = svr_sim::FaultPlan::parse(spec).map_err(|e| format!("--faults: {e}"))?;
            let armed = !plan.is_empty();
            svr_sim::fault::install(plan);
            armed
        }
        None => svr_sim::fault::install_from_env().map_err(|e| format!("SVR_FAULTS: {e}"))?,
    };
    if faulted {
        log::warn(
            "faults_armed",
            &[(
                "note",
                Json::str("chaos mode; results stay correct, latency does not"),
            )],
        );
    }
    shutdown::install();
    let listener =
        TcpListener::bind(&args.addr).map_err(|e| format!("bind {}: {e}", args.addr))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let server = Server::new(args.cfg.clone());
    let resumed = if args.resume { server.resume_pending() } else { 0 };
    log::info(
        "startup",
        &[
            ("addr", Json::str(bound.to_string())),
            ("workers", Json::u64(args.cfg.workers as u64)),
            (
                "cache_dir",
                Json::str(args.cfg.cache_dir.display().to_string()),
            ),
            ("resumed", Json::u64(resumed as u64)),
        ],
    );
    // Scripts wait for this exact line to learn the ephemeral port.
    println!("listening on {bound}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    server
        .serve(listener)
        .map_err(|e| format!("serve: {e}"))?;
    if let Some(report) = svr_sim::fault::report_line() {
        // Keep the legible prefix: scripts grep the fired-fault report.
        log::info("faults_fired", &[("report", Json::str(&report))]);
    }
    log::info("drained", &[]);
    Ok(())
}

fn main() {
    // A zero exit means the drain completed cleanly — queued work is
    // journaled and in-flight work finished.
    if let Err(e) = run() {
        eprintln!("svr_serve: {e}");
        std::process::exit(1);
    }
}
