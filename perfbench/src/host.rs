//! Host fingerprint, memory high-water mark and the benchmark's scratch
//! directory (always under the working directory, never the system temp
//! dir, so a run reads and writes only inside its checkout).

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use svr_sim::json::Json;

/// Where the benchmark keeps its scratch dirs, results and span files.
pub const OUT_DIR: &str = ".perfbench";

/// This process's scratch root; removed by [`Scratch::drop`].
pub struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    /// Creates `.perfbench/tmp/<pid>` afresh.
    pub fn new() -> std::io::Result<Scratch> {
        let root = Path::new(OUT_DIR)
            .join("tmp")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A new, empty directory under the scratch root.
    pub fn fresh_dir(&mut self, tag: &str) -> std::io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("{tag}-{}", self.next));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves `tmp` behind only while another run still uses it.
        if let Some(tmp) = self.root.parent() {
            let _ = std::fs::remove_dir(tmp);
        }
    }
}

/// Makes glibc malloc use one arena. Otherwise glibc adds an arena
/// whenever threads happen to contend, and each arena keeps the memory
/// freed into it, so peak RSS depends on thread timing: identical
/// `serve_mixed` runs ended between 11 and 14 MiB, and `serve_warm` runs
/// with two arenas between 6.9 and 8.2 MiB. Call before the process starts
/// any thread. Returns whether the allocator took the setting.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn single_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two plain integers, touches no memory of
    // ours, and glibc takes its own arena lock while it sets the value.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Elsewhere the allocator is left as it is.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn single_malloc_arena() -> bool {
    false
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!s.is_empty()).then_some(s)
}

/// nproc, CPU model, `rustc -V` and the git commit (`unknown` outside a
/// git checkout; the search never climbs above the working directory).
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(Path::to_path_buf).unwrap_or_default();
    let commit = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::u64(nproc as u64)),
        ("cpu".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(rustc)),
        ("commit".into(), Json::str(commit)),
    ])
}
