//! Dependency-free observability primitives for the sweep and service
//! tiers: atomic counters, gauges, and HDR-style log₂ latency histograms,
//! collected in a global-free [`MetricsRegistry`] that snapshots into the
//! Prometheus text exposition format.
//!
//! Design constraints (see DESIGN.md §12):
//!
//! * **Global-free.** A registry is an ordinary value owned by whoever wants
//!   one (the server holds its own; tests hold theirs). Registration hands
//!   back `Arc` handles; the hot path never touches the registry lock.
//! * **Cheap when unscraped.** Recording is a handful of relaxed atomic
//!   ops — no formatting, no allocation, no branches on level. All the
//!   string work happens at scrape time in [`MetricsRegistry::snapshot`].
//! * **Out-of-band.** Nothing in here ever touches `RunReport` bytes or
//!   cache keys; metrics observe the harness, never the modeled machine.
//!
//! # Histogram bucketing
//!
//! Buckets are power-of-two octaves split into 16 linear sub-buckets
//! (`SUB_BITS = 4`), the classic HDR scheme: values below 16 get exact
//! unit buckets, and every larger value lands in a bucket whose width is
//! 1/16th of its magnitude, so quantiles are exact to ~6.25% at any scale
//! from nanoseconds to hours. 976 buckets cover the full `u64` range in
//! ~7.8 KiB of atomics per histogram. Quantiles report the *inclusive
//! upper edge* of the selected bucket — a true bound ("p99 ≤ this"), never
//! an interpolated guess — and the max is tracked exactly.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Linear sub-buckets per power-of-two octave: 2^4 = 16.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Total bucket count covering all of `u64` (index of `u64::MAX` is 975).
pub const HIST_BUCKETS: usize = 976;

/// The bucket index of a recorded value.
///
/// Values below 16 get exact unit buckets (`index == value`); a larger
/// value with most-significant bit `m` lands in octave `m - 4` at the
/// sub-bucket named by its next four bits. Monotone in `v`, continuous at
/// the seam (`index(15) == 15`, `index(16) == 16`).
fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BITS) as u64;
    (SUBS + octave * SUBS + ((v >> octave) - SUBS)) as usize
}

/// The inclusive `[lower, upper]` value range of bucket `idx`.
/// The last bucket's upper edge saturates at `u64::MAX`.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUBS {
        return (idx, idx);
    }
    let octave = (idx - SUBS) / SUBS;
    let sub = (idx - SUBS) % SUBS;
    let width = 1u64 << octave;
    let lower = (SUBS << octave) + sub * width;
    (lower, lower.saturating_add(width - 1))
}

/// A monotonically increasing counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depth, busy workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed latency histogram (see the module docs for the scheme).
/// Recording is wait-free: one relaxed `fetch_add` per of bucket/sum/count
/// plus a `fetch_max` for the exact maximum.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[AtomicU64; HIST_BUCKETS]>,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([const { AtomicU64::new(0) }; HIST_BUCKETS]),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in microseconds (saturating).
    pub fn record_duration_us(&self, d: Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// A point-in-time copy of the bucket counts (not atomic across
    /// buckets; fine for monitoring, by design).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A frozen copy of a [`Histogram`], queryable for quantiles.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (`HIST_BUCKETS` long, or empty for zero).
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    /// The inclusive upper bound of the bucket holding the sample at rank
    /// `ceil(q · count)` — an exact "q-quantile ≤ this" statement, not an
    /// interpolation. Returns 0 for an empty histogram; `q ≥ 1` returns
    /// the upper edge of the last occupied bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(idx).1;
            }
        }
        self.max
    }

    /// Median upper bound.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// The value half of one snapshot entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram reading.
    Hist(HistSnapshot),
}

/// One metric in a [`MetricsSnapshot`]: name, help, label set, value.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapEntry {
    /// Prometheus-style metric name (e.g. `jobs_simulated_total`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Label key/value pairs (unescaped values).
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SnapValue,
}

/// A frozen view of a registry (plus any entries appended at
/// scrape time — the server injects fault-site counters and
/// authoritative gauges this way).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Entries in registration/insertion order.
    pub entries: Vec<SnapEntry>,
}

impl MetricsSnapshot {
    /// Appends a counter reading.
    pub fn push_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.entries.push(SnapEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels: own_labels(labels),
            value: SnapValue::Counter(v),
        });
    }

    /// Appends a gauge reading.
    pub fn push_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: i64) {
        self.entries.push(SnapEntry {
            name: name.to_string(),
            help: help.to_string(),
            labels: own_labels(labels),
            value: SnapValue::Gauge(v),
        });
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): families grouped with one `# HELP`/`# TYPE` header,
    /// label values escaped, histograms as cumulative `_bucket{le=...}`
    /// series (empty buckets elided; `+Inf` always present) plus `_sum`
    /// and `_count`.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut family_order: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !family_order.contains(&e.name.as_str()) {
                family_order.push(&e.name);
            }
        }
        for fam in family_order {
            let members: Vec<&SnapEntry> =
                self.entries.iter().filter(|e| e.name == fam).collect();
            let Some(first) = members.first() else { continue };
            let kind = match first.value {
                SnapValue::Counter(_) => "counter",
                SnapValue::Gauge(_) => "gauge",
                SnapValue::Hist(_) => "histogram",
            };
            if !first.help.is_empty() {
                let _ = writeln!(out, "# HELP {fam} {}", escape_help(&first.help));
            }
            let _ = writeln!(out, "# TYPE {fam} {kind}");
            for e in members {
                let labels = render_labels(&e.labels);
                match &e.value {
                    SnapValue::Counter(v) => {
                        let _ = writeln!(out, "{fam}{labels} {v}");
                    }
                    SnapValue::Gauge(v) => {
                        let _ = writeln!(out, "{fam}{labels} {v}");
                    }
                    SnapValue::Hist(h) => {
                        let mut cum = 0u64;
                        for (idx, &n) in h.counts.iter().enumerate() {
                            if n == 0 {
                                continue;
                            }
                            cum += n;
                            let le = bucket_bounds(idx).1;
                            let _ = writeln!(
                                out,
                                "{fam}_bucket{} {cum}",
                                render_labels_with(&e.labels, "le", &le.to_string())
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{fam}_bucket{} {}",
                            render_labels_with(&e.labels, "le", "+Inf"),
                            h.count
                        );
                        let _ = writeln!(out, "{fam}_sum{labels} {}", h.sum);
                        let _ = writeln!(out, "{fam}_count{labels} {}", h.count);
                    }
                }
            }
        }
        out
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Escapes a label value for the exposition format: `\` → `\\`,
/// `"` → `\"`, newline → `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverts [`escape_label_value`]. Unknown escapes pass the escaped
/// character through (lenient, like real scrapers).
pub fn unescape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

fn escape_help(h: &str) -> String {
    h.replace('\\', "\\\\").replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn render_labels_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    inner.push(format!("{key}=\"{}\"", escape_label_value(value)));
    format!("{{{}}}", inner.join(","))
}

/// One parsed sample line from an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (for histograms this includes `_bucket`/`_sum`/...).
    pub name: String,
    /// Unescaped label pairs.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses Prometheus text exposition output into samples, skipping
/// comments and malformed lines (lenient: this backs test assertions and
/// `svr_loadgen`'s scrape, not a full scraper).
pub fn parse_exposition(text: &str) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value_str) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => continue,
        };
        let Ok(value) = value_str.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let Some(body) = rest.strip_suffix('}') else {
                    continue;
                };
                (name.to_string(), parse_labels(body))
            }
        };
        out.push(Sample { name, labels, value });
    }
    out
}

/// Finds one sample by name and exact label set.
pub fn find_sample<'a>(
    samples: &'a [Sample],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a Sample> {
    samples.iter().find(|s| {
        s.name == name
            && s.labels.len() == labels.len()
            && labels
                .iter()
                .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
    })
}

fn parse_labels(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches(',').trim_start();
        if rest.is_empty() {
            break;
        }
        let Some((key, after_eq)) = rest.split_once("=\"") else {
            break;
        };
        // Find the closing quote, honoring backslash escapes.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in after_eq.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            }
        }
        let Some(end) = end else { break };
        out.push((key.to_string(), unescape_label_value(&after_eq[..end])));
        rest = &after_eq[end + 1..];
    }
    out
}

enum MetricKind {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Hist(Arc<Histogram>),
}

struct MetricDef {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: MetricKind,
}

/// A set of registered metrics. Registration (get-or-create by name +
/// label set) takes a lock; the returned `Arc` handles are lock-free to
/// record into. Scraping walks the registry once and freezes everything
/// into a [`MetricsSnapshot`].
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<MetricDef>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Gets or registers an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Gets or registers a labeled counter (e.g. `{route="/v1/jobs"}`).
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let labels = own_labels(labels);
        let mut defs = crate::lock_ok(&self.metrics);
        for d in defs.iter() {
            if let MetricKind::Counter(c) = &d.kind {
                if d.name == name && d.labels == labels {
                    return Arc::clone(c);
                }
            }
        }
        let c = Arc::new(Counter::default());
        defs.push(MetricDef {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind: MetricKind::Counter(Arc::clone(&c)),
        });
        c
    }

    /// Gets or registers an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        let mut defs = crate::lock_ok(&self.metrics);
        for d in defs.iter() {
            if let MetricKind::Gauge(g) = &d.kind {
                if d.name == name && d.labels.is_empty() {
                    return Arc::clone(g);
                }
            }
        }
        let g = Arc::new(Gauge::default());
        defs.push(MetricDef {
            name: name.to_string(),
            help: help.to_string(),
            labels: Vec::new(),
            kind: MetricKind::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Gets or registers an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        let mut defs = crate::lock_ok(&self.metrics);
        for d in defs.iter() {
            if let MetricKind::Hist(h) = &d.kind {
                if d.name == name && d.labels.is_empty() {
                    return Arc::clone(h);
                }
            }
        }
        let h = Arc::new(Histogram::default());
        defs.push(MetricDef {
            name: name.to_string(),
            help: help.to_string(),
            labels: Vec::new(),
            kind: MetricKind::Hist(Arc::clone(&h)),
        });
        h
    }

    /// Freezes every registered metric into a snapshot (registration
    /// order preserved).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let defs = crate::lock_ok(&self.metrics);
        let entries = defs
            .iter()
            .map(|d| SnapEntry {
                name: d.name.clone(),
                help: d.help.clone(),
                labels: d.labels.clone(),
                value: match &d.kind {
                    MetricKind::Counter(c) => SnapValue::Counter(c.get()),
                    MetricKind::Gauge(g) => SnapValue::Gauge(g.get()),
                    MetricKind::Hist(h) => SnapValue::Hist(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// The cache-tier instrument cluster: hit/miss/steal/store/GC counters and
/// the claim-wait histogram, handed to [`crate::ResultCache::with_metrics`]
/// (the server attaches one; a bare cache records nothing). Hits and
/// misses count *resolutions* — one per [`crate::ResultCache::claim`]
/// outcome or sweep probe — not raw file reads, so `hits + misses` equals
/// the number of points resolved.
#[derive(Debug)]
pub struct CacheMetrics {
    /// Points resolved from the store.
    pub hits: Arc<Counter>,
    /// Points that required simulation.
    pub misses: Arc<Counter>,
    /// Entries written.
    pub stores: Arc<Counter>,
    /// Stale cross-process claims stolen.
    pub steals: Arc<Counter>,
    /// Entries evicted by the size-cap GC.
    pub gc_evicted: Arc<Counter>,
    /// Wall time spent inside `claim` (µs), including backoff waits.
    pub claim_wait_us: Arc<Histogram>,
}

impl CacheMetrics {
    /// Registers the cluster's metrics in `reg` under their canonical
    /// names (`cache_hits_total`, `cache_misses_total`, ...).
    pub fn register(reg: &MetricsRegistry) -> Arc<CacheMetrics> {
        Arc::new(CacheMetrics {
            hits: reg.counter("cache_hits_total", "Points resolved from the result cache"),
            misses: reg.counter("cache_misses_total", "Points that required simulation"),
            stores: reg.counter("cache_stores_total", "Result-cache entries written"),
            steals: reg.counter("cache_steals_total", "Stale cross-process claims stolen"),
            gc_evicted: reg.counter("cache_gc_evicted_total", "Entries evicted by the size-cap GC"),
            claim_wait_us: reg
                .histogram("claim_wait_us", "Wall time inside cache claim arbitration (us)"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_workloads::Rng64;

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain_values() {
        let mut rng = Rng64::new(0x5eed);
        let mut probes: Vec<u64> = (0..16u64).collect();
        probes.extend([15, 16, 17, 31, 32, 1023, 1024, 1025, u64::MAX - 1, u64::MAX]);
        for _ in 0..4000 {
            let bits = rng.below(64);
            probes.push(rng.next_u64() >> bits);
        }
        probes.sort_unstable();
        let mut last_idx = 0usize;
        for &v in &probes {
            let idx = bucket_index(v);
            assert!(idx >= last_idx, "index must be monotone (v={v})");
            assert!(idx < HIST_BUCKETS);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} outside bucket [{lo},{hi}]");
            last_idx = idx;
        }
        // Sub-16 values get exact unit buckets; the seam is continuous.
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_bounds(bucket_index(u64::MAX)).1, u64::MAX);
    }

    #[test]
    fn quantiles_bound_the_true_sample() {
        // Property: for random sample sets, the reported quantile is the
        // inclusive upper edge of the bucket holding the true rank sample,
        // so true_sample <= reported, and reported is within one bucket.
        let mut rng = Rng64::new(0xdead_beef);
        for round in 0..50 {
            let h = Histogram::default();
            let n = 1 + rng.below(400) as usize;
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Mix scales: some tiny, some huge.
                let v = rng.next_u64() >> rng.below(60);
                samples.push(v);
                h.record(v);
            }
            samples.sort_unstable();
            let snap = h.snapshot();
            assert_eq!(snap.count, n as u64);
            assert_eq!(snap.max, *samples.last().unwrap());
            for q in [0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let truth = samples[rank - 1];
                let bound = snap.quantile(q);
                assert!(
                    truth <= bound,
                    "round {round}: q={q} true={truth} > bound={bound}"
                );
                let (lo, _) = bucket_bounds(bucket_index(bound));
                assert!(
                    lo <= truth || bucket_index(truth) == bucket_index(bound),
                    "round {round}: bound {bound} not from truth's bucket (true={truth})"
                );
            }
        }
    }

    #[test]
    fn prometheus_exposition_round_trips_label_escaping() {
        let mut rng = Rng64::new(7);
        let alphabet: Vec<char> =
            "ab\"\\\nμ {}=,x".chars().collect();
        for _ in 0..60 {
            let len = rng.below(12) as usize;
            let value: String =
                (0..len).map(|_| alphabet[rng.index(alphabet.len())]).collect();
            let mut snap = MetricsSnapshot::default();
            snap.push_counter("fault_fired_total", "h", &[("site", &value)], 3);
            let text = snap.to_prometheus();
            let samples = parse_exposition(&text);
            assert_eq!(samples.len(), 1, "one sample line in:\n{text}");
            assert_eq!(samples[0].name, "fault_fired_total");
            assert_eq!(samples[0].labels, vec![("site".to_string(), value.clone())]);
            assert_eq!(samples[0].value, 3.0);
            // Direct escape/unescape inverse.
            assert_eq!(unescape_label_value(&escape_label_value(&value)), value);
        }
    }

    #[test]
    fn exposition_shape_is_valid() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_simulated_total", "Jobs simulated");
        let g = reg.gauge("queue_depth", "Queued jobs");
        let h = reg.histogram("submit_latency_us", "Submit latency (us)");
        c.add(2);
        g.set(5);
        h.record(3);
        h.record(300);
        reg.counter_with("http_requests_total", "Requests", &[("route", "/v1/jobs")])
            .inc();
        reg.counter_with("http_requests_total", "Requests", &[("route", "/v1/status")])
            .add(4);
        let text = reg.snapshot().to_prometheus();
        // Families have exactly one TYPE line each.
        assert_eq!(text.matches("# TYPE http_requests_total counter").count(), 1);
        assert!(text.contains("# TYPE jobs_simulated_total counter"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("# TYPE submit_latency_us histogram"));
        assert!(text.contains("jobs_simulated_total 2"));
        assert!(text.contains("queue_depth 5"));
        // Histogram: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("submit_latency_us_bucket{le=\"3\"} 1"));
        assert!(text.contains("submit_latency_us_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("submit_latency_us_sum 303"));
        assert!(text.contains("submit_latency_us_count 2"));
        let samples = parse_exposition(&text);
        let s = find_sample(&samples, "http_requests_total", &[("route", "/v1/status")])
            .expect("labeled sample");
        assert_eq!(s.value, 4.0);
        // Cumulative bucket counts are monotone.
        let mut last = 0.0;
        for s in samples.iter().filter(|s| s.name == "submit_latency_us_bucket") {
            assert!(s.value >= last);
            last = s.value;
        }
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "x");
        let b = reg.counter("x_total", "x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().entries.len(), 1);
        let g1 = reg.gauge("g", "");
        g1.add(7);
        g1.sub(3);
        assert_eq!(reg.gauge("g", "").get(), 4);
        let h1 = reg.histogram("h_us", "");
        h1.record_duration_us(Duration::from_micros(250));
        assert_eq!(reg.histogram("h_us", "").snapshot().count, 1);
    }

    #[test]
    fn quantile_handles_empty_and_edges() {
        let snap = HistSnapshot::default();
        assert_eq!(snap.quantile(0.5), 0);
        let h = Histogram::default();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.sum, 0);
    }
}
