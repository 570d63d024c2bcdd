//! The content-addressed result store, factored out of the sweep engine so
//! it can be shared by anything that resolves design points: one-shot
//! sweeps ([`crate::Sweep`]), the long-running simulation server
//! (`svr-serve`), and ad-hoc CLI runs.
//!
//! Three capabilities live here:
//!
//! * **Point identity** — [`point_key`] renders the canonical content key of
//!   one (workload, scale, config, options) design point. The string (and
//!   its FNV-1a hash) is byte-identical to what [`crate::Sweep`] has always
//!   used, so existing caches stay valid and every consumer of the store
//!   agrees on what "the same simulation" means.
//! * **The store itself** — [`ResultCache`] loads and writes
//!   `<dir>/<hash>.json` entries atomically, quarantines corrupt entries,
//!   and (new) arbitrates *cross-process* duplicate work with claim files:
//!   two processes racing on the same key cost one simulation globally.
//! * **Eviction** — [`ResultCache::gc`] enforces a byte-size cap with an
//!   LRU-by-mtime policy over the top-level entries only: sub-directories
//!   (`quarantine/` forensic evidence, the daemon's `serve-pending/` resume
//!   state) and claim files are never evicted.

use crate::config::SimConfig;
use crate::fault::{self, FaultSite};
use crate::json::Json;
use crate::log;
use crate::metrics::CacheMetrics;
use crate::options::{ExecMode, RunOptions};
use crate::report::{report_from_json, report_to_json};
use crate::runner::RunReport;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};
use svr_workloads::{Rng64, Scale};

/// Bump when the cache-entry layout or simulator semantics change in a way
/// that invalidates stored reports; old entries then simply stop matching.
/// v2: integer fixed-point DRAM timing, `Option` MSHR `earliest_free`, and
/// racing-fill prefetch-tag accounting (PR 2) can all shift reports.
/// v3: exact CPI-stack tail attribution on the in-order core (PR 3) shifts
/// per-bucket stack entries in stored reports.
/// v4: the prefetch efficacy taxonomy (PR 5) — install-point `issued`
/// semantics (feeds the energy model's L1-access count), the late/used
/// split feeding the SVR accuracy ban, and new `PfCounters` JSON fields.
/// v5: exact per-line pollution tagging (PR 7) shifts `pollution` counters,
/// and reports gain an optional `sampled` estimator block.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// First claim-wait backoff step; doubles per miss up to the cap. The
/// actual sleep is jittered (half the step plus a random half) so waiters
/// de-synchronize instead of polling in lockstep.
const CLAIM_BACKOFF_START_MS: u64 = 4;
/// Ceiling on the claim-wait backoff step.
const CLAIM_BACKOFF_CAP_MS: u64 = 200;

/// How long a caller waits on another live holder's claim before simulating
/// anyway, and the claim age past which a holder whose liveness cannot be
/// observed (no `/proc`) counts as dead. Sweeps and the daemon share it.
pub const CLAIM_TIMEOUT: Duration = Duration::from_secs(600);

/// 64-bit FNV-1a over a string (the cache/dedup point hash).
pub fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical identity of one design point: the full content key and its
/// FNV-1a hash (the on-disk entry name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointKey {
    /// Human-readable content key (versioned; every semantic field).
    pub key: String,
    /// `fnv1a64(key)` — names the cache entry and the dedup slot.
    pub hash: u64,
}

/// Renders the canonical content key of one design point.
///
/// Detailed-mode keys are byte-identical to the historical sweep format so
/// existing caches stay valid; warp keys append a `;mode=warp` tag and
/// sampled keys a `;mode=sampled` tag carrying the three sampling
/// parameters (they change the report, so they must key the cache). The
/// watchdog override is deliberately absent (it never changes the report of
/// a run that completes; see `WatchdogConfig`).
pub fn point_key(
    workload: &str,
    scale: Scale,
    config: &SimConfig,
    options: &RunOptions,
) -> PointKey {
    let mode_key = match options.mode {
        ExecMode::Detailed => String::new(),
        ExecMode::Warp => ";mode=warp".to_string(),
        ExecMode::Sampled => format!(
            ";mode=sampled;si={};sw={};sp={}",
            options.sample_interval, options.sample_warmup, options.sample_period
        ),
    };
    let effective_insts = scale.max_insts().min(options.max_insts);
    let key = format!(
        "v{CACHE_FORMAT_VERSION};wl={workload};scale={};insts={effective_insts};{}{mode_key}",
        scale.name(),
        config.cache_key(),
    );
    let hash = fnv1a64(&key);
    PointKey { key, hash }
}

/// What [`ResultCache::claim`] resolved to.
#[derive(Debug)]
pub enum Claim {
    /// The entry already exists: here is the report.
    Hit(Box<RunReport>),
    /// This process won the claim: simulate, [`ResultCache::store`], and
    /// drop the guard (dropping without storing releases the claim so a
    /// waiter can take over).
    Won(ClaimGuard),
}

/// Holds a cross-process claim file; removed on drop.
#[derive(Debug)]
pub struct ClaimGuard {
    path: PathBuf,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Counters from one [`ResultCache::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheGcStats {
    /// Entries present before the pass.
    pub entries: usize,
    /// Bytes of entries present before the pass.
    pub bytes: u64,
    /// Entries evicted (oldest mtime first).
    pub evicted: usize,
    /// Bytes reclaimed by eviction.
    pub evicted_bytes: u64,
}

/// A content-addressed on-disk result store rooted at one directory.
///
/// Entries are `<dir>/<hash:016x>.json` documents carrying the full content
/// key (verified on load, so hash collisions and stale formats re-simulate
/// instead of aliasing). Writes are atomic (tmp + rename), corrupt entries
/// are quarantined to `<dir>/quarantine/`, and all operations are
/// best-effort: the cache is an optimization, never a correctness
/// requirement.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    metrics: Option<Arc<CacheMetrics>>,
}

impl ResultCache {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache {
            dir: dir.into(),
            metrics: None,
        }
    }

    /// Attaches an instrument cluster (see [`CacheMetrics`]): claim
    /// resolutions, steals, stores, GC evictions and claim-wait latency
    /// are recorded into it. Strictly out-of-band — nothing about the
    /// stored bytes or keys changes.
    pub fn with_metrics(mut self, metrics: Arc<CacheMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// A store at the conventional location: `$SVR_CACHE_DIR` or
    /// `results/cache`. Every default cache location reads through here.
    pub fn default_dir() -> Self {
        let dir = std::env::var("SVR_CACHE_DIR").unwrap_or_else(|_| "results/cache".into());
        ResultCache::new(dir)
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The on-disk path of the entry for `hash` (exists only after a store).
    pub fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.json"))
    }

    fn claim_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.claim"))
    }

    /// Loads the entry for `point`, returning `None` on miss, key mismatch
    /// (hash collision or stale format — both re-simulate), or corruption.
    ///
    /// A file that exists but does not parse — or parses but lacks the
    /// expected structure — is *corrupt* (torn write from a killed process,
    /// disk fault, manual edit) and is quarantined to `<dir>/quarantine/`
    /// with a warning so it never shadows the slot again and stays available
    /// for forensics.
    pub fn load(&self, point: &PointKey) -> Option<RunReport> {
        if fault::fires(FaultSite::CacheLoadErr) {
            // Injected read error: behave exactly like an I/O failure (a pure
            // miss) — the caller must re-simulate, never crash or quarantine.
            return None;
        }
        let path = self.entry_path(point.hash);
        let bytes = std::fs::read(&path).ok()?;
        let Ok(text) = String::from_utf8(bytes) else {
            quarantine(&self.dir, &path, "not valid UTF-8");
            return None;
        };
        let Ok(doc) = Json::parse(&text) else {
            quarantine(&self.dir, &path, "not valid JSON");
            return None;
        };
        match doc.get("key").and_then(Json::as_str) {
            // A different key at the same hash is a stale format or a genuine
            // hash collision, not corruption: leave the entry alone.
            Some(k) if k == point.key => {}
            Some(_) => return None,
            None => {
                quarantine(&self.dir, &path, "missing \"key\" field");
                return None;
            }
        }
        let Some(report) = doc.get("report") else {
            quarantine(&self.dir, &path, "missing \"report\" field");
            return None;
        };
        match report_from_json(report) {
            Ok(r) => Some(r),
            Err(e) => {
                quarantine(&self.dir, &path, &format!("bad report: {e}"));
                None
            }
        }
    }

    /// Writes the entry for `point` atomically (tmp file + rename), so
    /// concurrent readers never observe a torn file. Failures are
    /// non-fatal: the cache is an optimization, not a correctness
    /// requirement.
    pub fn store(&self, point: &PointKey, scale: Scale, report: &RunReport) {
        if let Some(m) = &self.metrics {
            m.stores.inc();
        }
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let doc = Json::Obj(vec![
            ("version".into(), Json::u64(u64::from(CACHE_FORMAT_VERSION))),
            ("key".into(), Json::str(&point.key)),
            ("workload".into(), Json::str(&report.workload)),
            ("config".into(), Json::str(&report.config)),
            ("scale".into(), Json::str(scale.name())),
            ("report".into(), report_to_json(report)),
        ]);
        let tmp = self
            .dir
            .join(format!("{:016x}.tmp.{}", point.hash, std::process::id()));
        let text = doc.pretty();
        if fault::fires(FaultSite::CacheStoreTorn) {
            // Injected crash mid-write: half the document lands in the
            // staging file and the rename never happens. The final path
            // stays untouched (that is the invariant tmp+rename buys), so
            // readers see a miss and the orphaned tmp is swept by gc / the
            // server's drain.
            let _ = std::fs::write(&tmp, &text.as_bytes()[..text.len() / 2]);
            return;
        }
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, self.entry_path(point.hash));
        }
    }

    /// Resolves `point` with cross-process arbitration: a cache hit returns
    /// the report; otherwise exactly one caller (across *all* processes
    /// sharing this directory) wins a claim file and must simulate, while
    /// everyone else blocks in here until the winner's entry appears.
    ///
    /// Waiters poll with jittered exponential backoff (seeded by the point
    /// hash and pid, ~4 ms doubling to a 200 ms cap) so hundreds of waiters
    /// on one hot point don't thundering-herd the filesystem in lockstep.
    /// If the claim disappears without an entry (the winner crashed or
    /// declined), the next waiter re-claims. The claim file records the
    /// holder's pid, and a claim whose holder is gone (no `/proc/<pid>`) is
    /// stolen at once: a SIGKILLed winner cannot remove its claim file, and
    /// simulating twice is always safe. Where `/proc` is absent, or the file
    /// names no pid yet, a claim older than `stale_after` is stolen instead.
    /// Holders are assumed to share this host's pid namespace. After
    /// `timeout` of unproductive waiting the caller simulates anyway (atomic
    /// entry writes make duplicated work harmless, just not free).
    pub fn claim(&self, point: &PointKey, timeout: Duration, stale_after: Duration) -> Claim {
        let t0 = Instant::now();
        let claim = self.claim_inner(point, timeout, stale_after);
        if let Some(m) = &self.metrics {
            m.claim_wait_us.record_duration_us(t0.elapsed());
            match &claim {
                Claim::Hit(_) => m.hits.inc(),
                Claim::Won(_) => m.misses.inc(),
            }
        }
        claim
    }

    fn claim_inner(&self, point: &PointKey, timeout: Duration, stale_after: Duration) -> Claim {
        let deadline = Instant::now() + timeout;
        let mut rng = Rng64::new(point.hash ^ u64::from(std::process::id()));
        let mut backoff_ms: u64 = CLAIM_BACKOFF_START_MS;
        loop {
            if let Some(report) = self.load(point) {
                return Claim::Hit(Box::new(report));
            }
            if std::fs::create_dir_all(&self.dir).is_err() {
                // Unwritable store: behave as a pure miss.
                return Claim::Won(ClaimGuard {
                    path: self.claim_path(point.hash),
                });
            }
            let path = self.claim_path(point.hash);
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Best-effort: a waiter that reads no pid falls back to
                    // the claim's age.
                    let _ = write!(file, "{}", std::process::id());
                    // Double-check: the previous holder may have stored the
                    // entry between our load miss and our claim win.
                    if let Some(report) = self.load(point) {
                        let _ = std::fs::remove_file(&path);
                        return Claim::Hit(Box::new(report));
                    }
                    if fault::fires(FaultSite::GcMidClaim) {
                        self.gc(0);
                    }
                    return Claim::Won(ClaimGuard { path });
                }
                Err(_) => {
                    // Someone else holds the claim. Steal it when its
                    // holder is dead (or, unobservably, when it is stale).
                    let stale = holder_dead(&path)
                        || std::fs::metadata(&path)
                            .and_then(|m| m.modified())
                            .ok()
                            .and_then(|m| SystemTime::now().duration_since(m).ok())
                            .is_some_and(|age| age > stale_after)
                        || fault::fires(FaultSite::ClaimSteal);
                    if stale {
                        if let Some(m) = &self.metrics {
                            m.steals.inc();
                        }
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        return Claim::Won(ClaimGuard { path });
                    }
                    // Jittered exponential backoff: sleep half the current
                    // step plus a random half, never past the deadline.
                    let half = backoff_ms / 2;
                    let jittered = half + rng.below(half + 1);
                    let remaining = deadline - now;
                    std::thread::sleep(Duration::from_millis(jittered.max(1)).min(remaining));
                    backoff_ms = (backoff_ms * 2).min(CLAIM_BACKOFF_CAP_MS);
                }
            }
        }
    }

    /// Removes orphaned `*.tmp.*` staging files older than `max_age` —
    /// residue of writers that died between the tmp write and the rename.
    /// Young tmp files are left alone (a live writer may be about to rename
    /// them). Returns the number removed.
    pub fn sweep_tmp(&self, max_age: Duration) -> usize {
        self.sweep_tmp_matching(|_, meta| {
            meta.modified()
                .ok()
                .and_then(|m| SystemTime::now().duration_since(m).ok())
                .is_some_and(|age| age > max_age)
        })
    }

    /// Removes `*.tmp.<this pid>` staging files regardless of age. Only
    /// safe when this process provably has no store in flight — e.g. a
    /// server at drain, after every worker has been joined.
    pub fn sweep_own_tmp(&self) -> usize {
        let suffix = format!(".tmp.{}", std::process::id());
        self.sweep_tmp_matching(|name, _| name.ends_with(&suffix))
    }

    fn sweep_tmp_matching(
        &self,
        remove_if: impl Fn(&str, &std::fs::Metadata) -> bool,
    ) -> usize {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0;
        for e in dir.flatten() {
            let path = e.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.contains(".tmp.") {
                continue;
            }
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_file() && remove_if(name, &meta) && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Enforces `max_bytes` over the top-level `*.json` entries with an
    /// LRU-by-mtime policy: oldest entries are removed until the total fits.
    /// Sub-directories (`quarantine/`, `serve-pending/`) and claim files are
    /// never touched — they are forensic evidence and resume state, not
    /// reloadable results. Stale `*.tmp.*` staging files (dead writers) are
    /// swept as a side effect.
    pub fn gc(&self, max_bytes: u64) -> CacheGcStats {
        self.sweep_tmp(Duration::from_secs(600));
        let mut stats = CacheGcStats::default();
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return stats;
        };
        let mut entries: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for e in dir.flatten() {
            let path = e.path();
            if path.extension().and_then(|x| x.to_str()) != Some("json") {
                continue;
            }
            let Ok(meta) = e.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((path, meta.len(), mtime));
        }
        stats.entries = entries.len();
        stats.bytes = entries.iter().map(|(_, len, _)| *len).sum();
        if stats.bytes <= max_bytes {
            return stats;
        }
        // Oldest first; ties broken by path for determinism.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut live = stats.bytes;
        for (path, len, _) in entries {
            if live <= max_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                live -= len;
                stats.evicted += 1;
                stats.evicted_bytes += len;
            }
        }
        if let Some(m) = &self.metrics {
            m.gc_evicted.add(stats.evicted as u64);
        }
        stats
    }
}

/// Whether the claim at `path` names a pid that `/proc` shows is gone.
/// `false` whenever liveness cannot be observed: no `/proc`, or a claim file
/// that names no pid (unreadable, or not yet written by its creator).
fn holder_dead(path: &Path) -> bool {
    let Some(pid) = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
    else {
        return false;
    };
    Path::new("/proc/self").exists() && !Path::new(&format!("/proc/{pid}")).exists()
}

/// Moves a corrupt cache entry aside (best-effort) and logs a
/// `cache_quarantined` warning; the caller re-simulates the point.
fn quarantine(dir: &Path, path: &Path, reason: &str) {
    let qdir = dir.join("quarantine");
    let moved = std::fs::create_dir_all(&qdir).is_ok()
        && path
            .file_name()
            .map(|n| std::fs::rename(path, qdir.join(n)).is_ok())
            .unwrap_or(false);
    log::warn(
        "cache_quarantined",
        &[
            ("path", Json::str(path.display().to_string())),
            ("reason", Json::str(reason)),
            ("moved", Json::Bool(moved)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_kernel;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use svr_workloads::Kernel;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "svr-cache-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn a_report() -> (PointKey, RunReport) {
        let cfg = SimConfig::inorder();
        let opts = RunOptions::default();
        let report =
            run_kernel(Kernel::Camel, Scale::Tiny, &cfg, &opts).expect("camel runs");
        let key = point_key("Camel", Scale::Tiny, &cfg, &opts);
        (key, report)
    }

    #[test]
    fn point_key_matches_historical_sweep_format() {
        let cfg = SimConfig::svr(16);
        let pk = point_key("PR_KR", Scale::Tiny, &cfg, &RunOptions::default());
        let expect = format!(
            "v{CACHE_FORMAT_VERSION};wl=PR_KR;scale=tiny;insts={};{}",
            Scale::Tiny.max_insts(),
            cfg.cache_key()
        );
        assert_eq!(pk.key, expect);
        assert_eq!(pk.hash, fnv1a64(&expect));
        // Mode and sampling parameters key distinctly.
        let warp = point_key("PR_KR", Scale::Tiny, &cfg, &RunOptions::warp(u64::MAX));
        assert!(warp.key.ends_with(";mode=warp"));
        let sam = point_key(
            "PR_KR",
            Scale::Tiny,
            &cfg,
            &RunOptions::sampled(u64::MAX).with_sampling(1, 2, 30),
        );
        assert!(sam.key.ends_with(";mode=sampled;si=1;sw=2;sp=30"), "{}", sam.key);
        assert_ne!(pk.hash, warp.hash);
        assert_ne!(warp.hash, sam.hash);
    }

    #[test]
    fn store_load_round_trips() {
        let dir = TempDir::new("roundtrip");
        let cache = ResultCache::new(&dir.0);
        let (key, report) = a_report();
        assert!(cache.load(&key).is_none());
        cache.store(&key, Scale::Tiny, &report);
        assert_eq!(cache.load(&key).as_ref(), Some(&report));
    }

    #[test]
    fn claim_hit_claim_won_and_release() {
        let dir = TempDir::new("claim");
        let cache = ResultCache::new(&dir.0);
        let (key, report) = a_report();
        let t = Duration::from_millis(100);
        let stale = Duration::from_secs(600);
        // Miss: first caller wins the claim.
        let won = cache.claim(&key, t, stale);
        let guard = match won {
            Claim::Won(g) => g,
            Claim::Hit(_) => panic!("empty cache cannot hit"),
        };
        assert!(cache.dir().join(format!("{:016x}.claim", key.hash)).exists());
        // A second caller times out waiting and falls back to simulating.
        let start = Instant::now();
        assert!(matches!(cache.claim(&key, t, stale), Claim::Won(_)));
        assert!(start.elapsed() >= t, "second claim must wait out the timeout");
        // Store + drop releases the claim; the next caller hits.
        cache.store(&key, Scale::Tiny, &report);
        drop(guard);
        assert!(!cache.dir().join(format!("{:016x}.claim", key.hash)).exists());
        assert!(matches!(cache.claim(&key, t, stale), Claim::Hit(_)));
    }

    #[test]
    fn stale_claims_are_stolen() {
        let dir = TempDir::new("stale");
        let cache = ResultCache::new(&dir.0);
        let (key, _) = a_report();
        // Plant a claim file that looks ancient (zero stale_after: any age
        // qualifies on the next poll).
        std::fs::create_dir_all(&dir.0).expect("dir");
        std::fs::write(cache.claim_path(key.hash), b"").expect("plant claim");
        std::thread::sleep(Duration::from_millis(30));
        let got = cache.claim(&key, Duration::from_secs(5), Duration::from_millis(1));
        assert!(matches!(got, Claim::Won(_)), "stale claim must be stolen");
    }

    #[test]
    fn claims_of_dead_holders_are_stolen_at_once() {
        if !Path::new("/proc/self").exists() {
            return; // liveness is unobservable here; the age fallback applies
        }
        let dir = TempDir::new("deadpid");
        let cache = ResultCache::new(&dir.0);
        let (key, _) = a_report();
        // A child that has exited and been reaped: its pid names no process.
        let mut child = std::process::Command::new(std::env::current_exe().expect("test exe"))
            .arg("--list")
            .stdout(std::process::Stdio::null())
            .spawn()
            .expect("spawn child");
        let dead = child.id();
        child.wait().expect("reap child");
        std::fs::write(cache.claim_path(key.hash), dead.to_string()).expect("plant claim");
        let stale_after = Duration::from_secs(600);
        let start = Instant::now();
        let got = cache.claim(&key, Duration::from_secs(5), stale_after);
        assert!(matches!(got, Claim::Won(_)), "dead holder's claim must be stolen");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stealing from a dead holder must not wait ({:?})",
            start.elapsed()
        );
        let holder = std::fs::read_to_string(cache.claim_path(key.hash)).expect("claim");
        assert_eq!(holder, std::process::id().to_string(), "the claim names its new holder");
        drop(got);

        // A live holder (this process) is waited on until the timeout.
        std::fs::write(cache.claim_path(key.hash), std::process::id().to_string())
            .expect("plant live claim");
        let t = Duration::from_millis(100);
        let start = Instant::now();
        assert!(matches!(cache.claim(&key, t, stale_after), Claim::Won(_)));
        assert!(start.elapsed() >= t, "a live holder's claim must be waited on");
    }

    #[test]
    fn loader_survives_arbitrary_corruption() {
        // Property test: feed `load` every prefix truncation of a valid
        // entry plus a batch of random single-byte corruptions (and a
        // guaranteed non-UTF-8 one); it must never panic — `None` and
        // quarantining are the only acceptable outcomes.
        let dir = TempDir::new("fuzz");
        let cache = ResultCache::new(&dir.0);
        let (key, report) = a_report();
        cache.store(&key, Scale::Tiny, &report);
        let path = cache.entry_path(key.hash);
        let valid = std::fs::read(&path).expect("entry bytes");
        // Every prefix truncation.
        for len in 0..valid.len() {
            std::fs::write(&path, &valid[..len]).expect("write");
            let _ = cache.load(&key);
        }
        // Random single-byte corruptions (deterministic xorshift).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..256 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut bytes = valid.clone();
            let pos = (state as usize) % bytes.len();
            bytes[pos] = (state >> 32) as u8;
            std::fs::write(&path, &bytes).expect("write");
            let _ = cache.load(&key);
        }
        // Guaranteed invalid UTF-8.
        std::fs::write(&path, [0xff, 0xfe, b'{', 0xff]).expect("write");
        assert!(cache.load(&key).is_none());
    }

    #[test]
    fn gc_evicts_lru_and_spares_subdirs_and_claims() {
        let dir = TempDir::new("gc");
        let cache = ResultCache::new(&dir.0);
        // Three fake entries with distinct mtimes (oldest first).
        for (i, name) in ["aaa.json", "bbb.json", "ccc.json"].iter().enumerate() {
            std::fs::write(dir.0.join(name), vec![b'x'; 100]).expect("entry");
            // Space mtimes out so the LRU order is unambiguous.
            std::thread::sleep(Duration::from_millis(20));
            let _ = i;
        }
        std::fs::create_dir_all(dir.0.join("serve-pending")).expect("pending dir");
        std::fs::write(dir.0.join("serve-pending/p.json"), b"{}").expect("pending");
        std::fs::create_dir_all(dir.0.join("quarantine")).expect("q dir");
        std::fs::write(dir.0.join("quarantine/q.json"), b"{}").expect("quarantined");
        std::fs::write(dir.0.join("held.claim"), b"").expect("claim");

        // Cap at 250 bytes: must evict exactly the oldest entry.
        let stats = cache.gc(250);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.bytes, 300);
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.evicted_bytes, 100);
        assert!(!dir.0.join("aaa.json").exists(), "oldest entry evicted");
        assert!(dir.0.join("bbb.json").exists());
        assert!(dir.0.join("ccc.json").exists());
        assert!(dir.0.join("serve-pending/p.json").exists(), "pending spared");
        assert!(dir.0.join("quarantine/q.json").exists(), "quarantine spared");
        assert!(dir.0.join("held.claim").exists(), "claims spared");

        // Under the cap: nothing to do.
        let stats = cache.gc(10_000);
        assert_eq!(stats.evicted, 0);
        // Cap of zero clears every entry.
        let stats = cache.gc(0);
        assert_eq!(stats.evicted, 2);
        assert_eq!(cache.gc(0).entries, 0);
    }

    #[test]
    fn tmp_sweeps_respect_age_and_ownership() {
        let dir = TempDir::new("tmpsweep");
        let cache = ResultCache::new(&dir.0);
        let own = format!("0000000000000001.tmp.{}", std::process::id());
        let other = "0000000000000002.tmp.99999999";
        std::fs::write(dir.0.join(&own), b"torn").expect("own tmp");
        std::fs::write(dir.0.join(other), b"torn").expect("other tmp");
        std::fs::write(dir.0.join("entry.json"), b"{}").expect("entry");
        // Fresh tmp files survive an age-based sweep (a live writer may be
        // about to rename them)...
        assert_eq!(cache.sweep_tmp(Duration::from_secs(600)), 0);
        // ...and an aggressive one takes both.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(cache.sweep_tmp(Duration::from_millis(1)), 2);
        assert!(dir.0.join("entry.json").exists(), "entries untouched");
        // Ownership sweep only touches this pid's files.
        std::fs::write(dir.0.join(&own), b"torn").expect("own tmp again");
        std::fs::write(dir.0.join(other), b"torn").expect("other tmp again");
        assert_eq!(cache.sweep_own_tmp(), 1);
        assert!(!dir.0.join(&own).exists());
        assert!(dir.0.join(other).exists(), "foreign tmp spared");
    }

    #[test]
    fn gc_on_missing_dir_is_a_noop() {
        let cache = ResultCache::new("/nonexistent/svr-cache-gc-test");
        assert_eq!(cache.gc(0), CacheGcStats::default());
    }
}
