//! Deterministic, seeded fault injection for the storage and service tiers.
//!
//! The claim protocol, quarantine, and retry paths all
//! promise to survive hostile conditions — torn writes, stolen claims,
//! panicking workers, dropped connections. This module is how those promises
//! get *provoked* instead of hoped for: a [`FaultPlan`] names injection
//! sites threaded through the existing layers and decides, deterministically
//! per seed, which consults of each site fire.
//!
//! # Sites
//!
//! | site               | layer              | effect when it fires                           |
//! |--------------------|--------------------|------------------------------------------------|
//! | `cache_store_torn` | `ResultCache`      | store writes half the entry to its tmp file and never renames (crash mid-write) |
//! | `cache_load_err`   | `ResultCache`      | load behaves as an I/O error (pure miss)       |
//! | `claim_steal`      | `ResultCache`      | a waiter steals a live claim as if it were stale |
//! | `gc_mid_claim`     | `ResultCache`      | a full GC pass (`max_bytes=0`) runs while the claim is held |
//! | `worker_panic`     | simulation workers | the *first* attempt of a point panics (the panic-isolated retry is deliberately not a site, so the fault is always recoverable) |
//! | `worker_stall`     | simulation workers | the worker sleeps `stall_ms` before simulating |
//! | `conn_slow_read`   | HTTP server        | the connection stalls `stall_ms` before the request is read |
//! | `conn_drop_chunk`  | HTTP streaming     | a chunked response writes half a frame and severs the socket |
//!
//! # Determinism
//!
//! The decision for the k-th consult of a site is a pure function of
//! `(seed, site, k)` — two runs with the same seed see the same per-site
//! decision *sequence*. Which thread lands on which consult is scheduling,
//! not randomness; per-site `max_fires` caps bound the total damage either
//! way. With no plan installed (or an empty plan) every hook is one relaxed
//! atomic load and injection changes nothing — not a byte of any report.
//!
//! # Wiring
//!
//! The plan is process-global (workers, connection threads, and the cache
//! all consult the same schedule): [`install`] / [`clear`] set it, and
//! [`install_from_env`] parses the `SVR_FAULTS` spec the `svr_serve`
//! `--faults` flag also accepts. Tests that install a plan must serialize
//! with each other (the chaos suite holds one lock across its tests).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;
use svr_workloads::Rng64;

/// A named injection point. See the module docs for the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `ResultCache` store tears mid-write (tmp written, never renamed).
    CacheStoreTorn,
    /// `ResultCache` load behaves as an I/O error.
    CacheLoadErr,
    /// A claim waiter steals a live (non-stale) claim.
    ClaimSteal,
    /// A full GC pass runs while a claim is held.
    GcMidClaim,
    /// The first simulation attempt of a point panics.
    WorkerPanic,
    /// The worker stalls before simulating.
    WorkerStall,
    /// The connection stalls before the request is read.
    ConnSlowRead,
    /// A chunked response tears a frame and severs the socket.
    ConnDropChunk,
}

/// Number of sites (array sizes below).
const NUM_SITES: usize = 8;

impl FaultSite {
    /// Every site, in spec/display order.
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::CacheStoreTorn,
        FaultSite::CacheLoadErr,
        FaultSite::ClaimSteal,
        FaultSite::GcMidClaim,
        FaultSite::WorkerPanic,
        FaultSite::WorkerStall,
        FaultSite::ConnSlowRead,
        FaultSite::ConnDropChunk,
    ];

    /// The spec name (`cache_store_torn`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CacheStoreTorn => "cache_store_torn",
            FaultSite::CacheLoadErr => "cache_load_err",
            FaultSite::ClaimSteal => "claim_steal",
            FaultSite::GcMidClaim => "gc_mid_claim",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::WorkerStall => "worker_stall",
            FaultSite::ConnSlowRead => "conn_slow_read",
            FaultSite::ConnDropChunk => "conn_drop_chunk",
        }
    }

    /// Inverse of [`FaultSite::name`].
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The site's slot in the per-site arrays.
    fn idx(self) -> usize {
        match self {
            FaultSite::CacheStoreTorn => 0,
            FaultSite::CacheLoadErr => 1,
            FaultSite::ClaimSteal => 2,
            FaultSite::GcMidClaim => 3,
            FaultSite::WorkerPanic => 4,
            FaultSite::WorkerStall => 5,
            FaultSite::ConnSlowRead => 6,
            FaultSite::ConnDropChunk => 7,
        }
    }

    /// The site's decision-stream id. Ids 4 and 5 belonged to the retired
    /// sweep-journal sites; the others keep their original values so an
    /// existing `--faults` spec replays the same decisions.
    fn stream_id(self) -> u64 {
        match self {
            FaultSite::CacheStoreTorn => 0,
            FaultSite::CacheLoadErr => 1,
            FaultSite::ClaimSteal => 2,
            FaultSite::GcMidClaim => 3,
            FaultSite::WorkerPanic => 6,
            FaultSite::WorkerStall => 7,
            FaultSite::ConnSlowRead => 8,
            FaultSite::ConnDropChunk => 9,
        }
    }
}

/// One site's schedule: fire probability per consult and a lifetime cap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rule {
    prob: f64,
    max_fires: u64,
}

/// A seeded fault schedule. Empty plans (no rules) are inert: installing
/// one changes nothing, and every hook stays a single relaxed atomic load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    stall_ms: u64,
    rules: [Option<Rule>; NUM_SITES],
}

/// Default stall for `worker_stall` / `conn_slow_read` (override with
/// `stall_ms=` in the spec).
const DEFAULT_STALL_MS: u64 = 50;

impl FaultPlan {
    /// An empty plan with `seed` (add sites with [`FaultPlan::with`]).
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            stall_ms: DEFAULT_STALL_MS,
            rules: [None; NUM_SITES],
        }
    }

    /// Arms `site` to fire each consult with probability `prob` (clamped to
    /// `[0, 1]`), with no lifetime cap.
    pub fn with(self, site: FaultSite, prob: f64) -> FaultPlan {
        self.with_capped(site, prob, u64::MAX)
    }

    /// Arms `site` with a lifetime cap: after `max_fires` fires the site
    /// never fires again (bounds the damage of high-probability schedules).
    pub fn with_capped(mut self, site: FaultSite, prob: f64, max_fires: u64) -> FaultPlan {
        self.rules[site.idx()] = Some(Rule {
            prob: prob.clamp(0.0, 1.0),
            max_fires,
        });
        self
    }

    /// Sets the stall duration used by the stalling sites.
    pub fn stall_ms(mut self, ms: u64) -> FaultPlan {
        self.stall_ms = ms;
        self
    }

    /// Whether the plan arms no site at all.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(Option::is_none)
    }

    /// Parses a spec: `;`-separated `key=value` pairs where `key` is
    /// `seed`, `stall_ms`, or a site name and a site's value is
    /// `PROB[xMAX_FIRES]` — e.g.
    /// `seed=42;stall_ms=20;worker_panic=1x2;cache_store_torn=0.5`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::seeded(0);
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                return Err(format!("fault spec item {part:?} is not key=value"));
            };
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|e| format!("fault spec seed {value:?}: {e}"))?;
                }
                "stall_ms" => {
                    plan.stall_ms = value
                        .parse()
                        .map_err(|e| format!("fault spec stall_ms {value:?}: {e}"))?;
                }
                site_name => {
                    let Some(site) = FaultSite::from_name(site_name) else {
                        let known: Vec<&str> =
                            FaultSite::ALL.iter().map(|s| s.name()).collect();
                        return Err(format!(
                            "unknown fault site {site_name:?} (known: seed, stall_ms, {})",
                            known.join(", ")
                        ));
                    };
                    let (prob_str, max) = match value.split_once('x') {
                        Some((p, m)) => (
                            p,
                            m.parse::<u64>().map_err(|e| {
                                format!("fault spec {site_name}={value:?} max fires: {e}")
                            })?,
                        ),
                        None => (value, u64::MAX),
                    };
                    let prob: f64 = prob_str
                        .parse()
                        .map_err(|e| format!("fault spec {site_name}={value:?}: {e}"))?;
                    plan = plan.with_capped(site, prob, max);
                }
            }
        }
        Ok(plan)
    }

    /// The deterministic decision for the `k`-th consult of `site`: a pure
    /// function of `(seed, site, k)`, independent of global state (the
    /// lifetime cap is applied by the installed plan, not here).
    pub fn decide(&self, site: FaultSite, k: u64) -> bool {
        let Some(rule) = self.rules[site.idx()] else {
            return false;
        };
        if rule.prob >= 1.0 {
            return true;
        }
        if rule.prob <= 0.0 {
            return false;
        }
        let stream = self.seed
            ^ (site.stream_id() + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ k.wrapping_mul(0xd134_2543_de82_ef95);
        Rng64::new(stream).next_f64() < rule.prob
    }
}

/// The installed plan plus per-site consult/fire counters.
#[derive(Debug)]
struct ActivePlan {
    plan: FaultPlan,
    consults: [AtomicU64; NUM_SITES],
    fires: [AtomicU64; NUM_SITES],
}

impl ActivePlan {
    /// One consult of `site`: advances the deterministic decision stream
    /// and applies the lifetime cap.
    fn consult(&self, site: FaultSite) -> bool {
        let i = site.idx();
        let Some(rule) = self.plan.rules[i] else {
            return false;
        };
        let k = self.consults[i].fetch_add(1, Ordering::Relaxed);
        if !self.plan.decide(site, k) {
            return false;
        }
        // Reserve a fire slot under the cap (CAS so counts stay exact).
        let mut fired = self.fires[i].load(Ordering::Relaxed);
        loop {
            if fired >= rule.max_fires {
                return false;
            }
            match self.fires[i].compare_exchange_weak(
                fired,
                fired + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => fired = now,
            }
        }
    }
}

/// Fast-path gate: false whenever no non-empty plan is installed, so every
/// hook in the hot paths is one relaxed load when injection is off.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ACTIVE: RwLock<Option<Arc<ActivePlan>>> = RwLock::new(None);

fn active() -> Option<Arc<ActivePlan>> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    ACTIVE
        .read()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(Arc::clone)
}

/// Installs `plan` process-wide, resetting all counters. An empty plan is
/// equivalent to [`clear`].
pub fn install(plan: FaultPlan) {
    let enable = !plan.is_empty();
    let state = Arc::new(ActivePlan {
        plan,
        consults: Default::default(),
        fires: Default::default(),
    });
    *ACTIVE.write().unwrap_or_else(|p| p.into_inner()) = Some(state);
    ENABLED.store(enable, Ordering::SeqCst);
}

/// Removes the installed plan; every site stops firing.
pub fn clear() {
    ENABLED.store(false, Ordering::SeqCst);
    *ACTIVE.write().unwrap_or_else(|p| p.into_inner()) = None;
}

/// Installs the plan named by the `SVR_FAULTS` environment variable.
/// Returns `Ok(true)` when a non-empty plan was installed, `Ok(false)` when
/// the variable is unset or empty, and the parse error otherwise.
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("SVR_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(&spec)?;
            let armed = !plan.is_empty();
            install(plan);
            Ok(armed)
        }
        _ => Ok(false),
    }
}

/// Consults `site` once: true when the installed plan fires it. The no-plan
/// fast path is a single relaxed atomic load.
pub fn fires(site: FaultSite) -> bool {
    match active() {
        Some(a) => a.consult(site),
        None => false,
    }
}

/// Consults a stalling site: the configured stall duration when it fires.
pub fn stall(site: FaultSite) -> Option<Duration> {
    let a = active()?;
    if a.consult(site) {
        Some(Duration::from_millis(a.plan.stall_ms))
    } else {
        None
    }
}

/// Consults `site` and panics when it fires (the injected worker fault).
/// Only call under a `catch_unwind` isolation boundary — in this codebase
/// that is the panic-isolated first simulation attempt, whose retry is
/// deliberately not a site, so the injected panic always recovers.
pub fn maybe_panic(site: FaultSite) {
    if fires(site) {
        std::panic::panic_any(format!("injected fault: {}", site.name()));
    }
}

/// Per-site fire counts of the installed plan (empty when none), for drain
/// logs and the chaos suite's "the schedule was actually hostile" check.
pub fn fire_counts() -> Vec<(&'static str, u64)> {
    let Some(a) = active() else {
        return Vec::new();
    };
    FaultSite::ALL
        .into_iter()
        .map(|s| (s.name(), a.fires[s.idx()].load(Ordering::Relaxed)))
        .collect()
}

/// One-line fire report (`worker_panic=2 cache_store_torn=3`), omitting
/// silent sites; `None` when nothing fired or no plan is installed.
pub fn report_line() -> Option<String> {
    let fired: Vec<String> = fire_counts()
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    if fired.is_empty() {
        None
    } else {
        Some(fired.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests only exercise the *pure* surface (parse, decide).
    // Tests that install a global plan live in the serve crate's chaos
    // binary, where one lock serializes them; installing here would race
    // the rest of this crate's parallel test threads through the cache.

    #[test]
    fn spec_round_trips_and_rejects_garbage() {
        let plan =
            FaultPlan::parse("seed=42; stall_ms=20; worker_panic=1x2; cache_store_torn=0.5")
                .expect("valid spec");
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.stall_ms, 20);
        assert_eq!(
            plan.rules[FaultSite::WorkerPanic.idx()],
            Some(Rule {
                prob: 1.0,
                max_fires: 2
            })
        );
        assert_eq!(
            plan.rules[FaultSite::CacheStoreTorn.idx()],
            Some(Rule {
                prob: 0.5,
                max_fires: u64::MAX
            })
        );
        assert!(!plan.is_empty());
        assert!(FaultPlan::parse("").expect("empty spec is fine").is_empty());
        assert!(FaultPlan::parse("seed=7").expect("seed only").is_empty());

        let err = FaultPlan::parse("no_such_site=1").expect_err("unknown site");
        assert!(err.contains("no_such_site") && err.contains("cache_store_torn"), "{err}");
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("worker_panic").is_err(), "missing =value");
        assert!(FaultPlan::parse("worker_panic=0.5xY").is_err());
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = FaultPlan::seeded(1).with(FaultSite::CacheLoadErr, 0.5);
        let b = FaultPlan::seeded(1).with(FaultSite::CacheLoadErr, 0.5);
        let c = FaultPlan::seeded(2).with(FaultSite::CacheLoadErr, 0.5);
        let seq = |p: &FaultPlan| -> Vec<bool> {
            (0..256).map(|k| p.decide(FaultSite::CacheLoadErr, k)).collect()
        };
        assert_eq!(seq(&a), seq(&b), "same seed, same decision stream");
        assert_ne!(seq(&a), seq(&c), "different seed, different stream");
        let hits = seq(&a).iter().filter(|&&d| d).count();
        assert!(
            (64..192).contains(&hits),
            "p=0.5 over 256 consults should fire roughly half the time, got {hits}"
        );
        // Sites draw from independent streams of the same seed.
        let torn: Vec<bool> = {
            let p = FaultPlan::seeded(1).with(FaultSite::CacheStoreTorn, 0.5);
            (0..256).map(|k| p.decide(FaultSite::CacheStoreTorn, k)).collect()
        };
        assert_ne!(seq(&a), torn, "per-site streams must be independent");
    }

    #[test]
    fn empty_and_unarmed_sites_never_fire() {
        let empty = FaultPlan::seeded(9);
        assert!(empty.is_empty());
        assert!((0..64).all(|k| !empty.decide(FaultSite::WorkerPanic, k)));
        let armed = FaultPlan::seeded(9).with(FaultSite::WorkerPanic, 1.0);
        assert!(armed.decide(FaultSite::WorkerPanic, 0));
        assert!(!armed.decide(FaultSite::WorkerStall, 0), "other sites stay quiet");
        let zero = FaultPlan::seeded(9).with(FaultSite::WorkerPanic, 0.0);
        assert!((0..64).all(|k| !zero.decide(FaultSite::WorkerPanic, k)));
    }

    #[test]
    fn decision_streams_are_pinned_per_site() {
        // The first 64 decisions of every site at seed 42 and p = 0.5, as
        // they were before the sweep-journal sites were retired: existing
        // `--faults` specs must keep replaying the same schedule.
        let pinned = [
            ("cache_store_torn", 0xf0bd_f181_d1b1_529f_u64),
            ("cache_load_err", 0x8069_132c_f38b_8937),
            ("claim_steal", 0x5a50_387f_da6f_f19f),
            ("gc_mid_claim", 0x0005_217a_cdfe_92e5),
            ("worker_panic", 0xea9b_e277_dcf5_2adc),
            ("worker_stall", 0xf0be_74a2_9b44_b14e),
            ("conn_slow_read", 0x20e4_621e_2b03_cab5),
            ("conn_drop_chunk", 0xb1b9_aad4_bc6b_4d9f),
        ];
        assert_eq!(pinned.len(), FaultSite::ALL.len());
        for (name, mask) in pinned {
            let site = FaultSite::from_name(name).expect("known site");
            let plan = FaultPlan::seeded(42).with(site, 0.5);
            let got = (0..64).fold(0u64, |m, k| m | (u64::from(plan.decide(site, k)) << k));
            assert_eq!(got, mask, "{name}: decision stream moved");
        }
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::from_name("bogus"), None);
    }
}
