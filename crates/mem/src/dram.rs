//! DRAM model: fixed access latency plus a bandwidth-limited channel.
//!
//! Channel occupancy is tracked in **integer fixed-point** sub-cycle units
//! (1 cycle = [`TICKS_PER_CYCLE`] ticks) rather than `f64`. Accumulating
//! millions of fractional line times in floating point drifts (the mantissa
//! runs out of bits once `next_free` reaches billions of cycles), which made
//! billion-cycle bandwidth sweeps (Fig. 18) depend on run length. Integer
//! ticks are associative and drift-free: the completion cycle of the n-th
//! back-to-back transfer is exactly `ceil((n*line_ticks)/1024) + latency`.

use crate::LINE_BYTES;

/// Fixed-point sub-cycle resolution: 1 core cycle = 1024 ticks.
pub const TICKS_PER_CYCLE: u64 = 1 << TICK_SHIFT;
const TICK_SHIFT: u32 = 10;

/// DRAM configuration (Table III: 45 ns latency, 50 GiB/s bandwidth, 2 GHz
/// core clock so 1 ns = 2 cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Core cycles for an unloaded access (45 ns @ 2 GHz = 90 cycles).
    pub latency_cycles: u64,
    /// Channel bandwidth in GiB/s.
    pub bandwidth_gibps: f64,
    /// Core frequency in GHz (to convert bandwidth into cycles/line).
    pub freq_ghz: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            latency_cycles: 90,
            bandwidth_gibps: 50.0,
            freq_ghz: 2.0,
        }
    }
}

impl DramConfig {
    /// Core cycles of channel occupancy per 64 B line transfer.
    pub fn cycles_per_line(&self) -> f64 {
        let bytes_per_ns = self.bandwidth_gibps * (1u64 << 30) as f64 / 1e9;
        LINE_BYTES as f64 / bytes_per_ns * self.freq_ghz
    }

    /// Channel occupancy per line in fixed-point ticks (rounded once, at
    /// configuration time — the only place floating point touches timing).
    pub fn line_ticks(&self) -> u64 {
        let ticks = (self.cycles_per_line() * TICKS_PER_CYCLE as f64).round() as u64;
        ticks.max(1)
    }
}

/// A single bandwidth-shared DRAM channel.
///
/// Each line transfer occupies the channel for [`DramConfig::line_ticks`];
/// a request arriving while the channel is busy queues behind it, and its
/// completion time is `channel_start + latency`. Reads and writes
/// (writebacks) share the channel, which is what makes over-prefetching
/// expensive (§VI-C).
///
/// # Examples
///
/// ```
/// use svr_mem::{DramModel, DramConfig};
/// let mut d = DramModel::new(DramConfig::default());
/// let a = d.access(0, false);
/// let b = d.access(0, false); // queued behind the first transfer
/// assert!(b > a);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    line_ticks: u64,
    /// Tick at which the channel next frees (fixed-point; cycle × 1024).
    next_free_ticks: u64,
    reads: u64,
    writes: u64,
}

impl DramModel {
    /// Creates an idle channel.
    pub fn new(config: DramConfig) -> Self {
        DramModel {
            line_ticks: config.line_ticks(),
            config,
            next_free_ticks: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// Issues a line transfer at `now`; returns the completion cycle.
    /// `is_write` counts the transfer as writeback traffic.
    pub fn access(&mut self, now: u64, is_write: bool) -> u64 {
        let start = self.next_free_ticks.max(now << TICK_SHIFT);
        self.next_free_ticks = start + self.line_ticks;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        // Completion rounds the fractional channel-start up to a whole cycle
        // (the integer analogue of the former `f64::ceil`).
        (start >> TICK_SHIFT)
            + u64::from(start & (TICKS_PER_CYCLE - 1) != 0)
            + self.config.latency_cycles
    }

    /// Number of read-line transfers so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write-line transfers so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes moved.
    pub fn traffic_bytes(&self) -> u64 {
        (self.reads + self.writes) * LINE_BYTES
    }

    /// The configuration in effect.
    pub fn config(&self) -> DramConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency() {
        let mut d = DramModel::new(DramConfig::default());
        let t = d.access(100, false);
        assert_eq!(t, 100 + 90);
    }

    #[test]
    fn queueing_under_bandwidth_pressure() {
        let cfg = DramConfig::default();
        let per_line = cfg.cycles_per_line();
        let mut d = DramModel::new(cfg);
        let t0 = d.access(0, false);
        let t1 = d.access(0, false);
        let t2 = d.access(0, false);
        assert!(t1 >= t0);
        assert!((t2 - t0) as f64 >= 2.0 * per_line - 2.0);
    }

    #[test]
    fn idle_channel_does_not_queue() {
        let mut d = DramModel::new(DramConfig::default());
        let t0 = d.access(0, false);
        let t1 = d.access(10_000, false);
        assert_eq!(t1, 10_000 + 90);
        assert!(t0 < t1);
    }

    #[test]
    fn traffic_accounting() {
        let mut d = DramModel::new(DramConfig::default());
        d.access(0, false);
        d.access(0, true);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.traffic_bytes(), 128);
    }

    #[test]
    fn cycles_per_line_scales_with_bandwidth() {
        let slow = DramConfig {
            bandwidth_gibps: 12.5,
            ..DramConfig::default()
        };
        let fast = DramConfig {
            bandwidth_gibps: 100.0,
            ..DramConfig::default()
        };
        assert!((slow.cycles_per_line() / fast.cycles_per_line() - 8.0).abs() < 1e-9);
        // 50 GiB/s @ 2GHz: 64B / 53.687 B/ns * 2 = ~2.38 cycles
        let c = DramConfig::default().cycles_per_line();
        assert!(c > 2.0 && c < 3.0, "{c}");
        // Fixed-point occupancy rounds that once, to 2441/1024 cycles.
        assert_eq!(DramConfig::default().line_ticks(), 2441);
    }

    /// Regression for the `f64` accumulation drift: after >10M back-to-back
    /// transfers the completion cycle must equal the closed-form integer
    /// expectation *exactly*. Under the old floating-point accumulator the
    /// n-th completion diverged from `ceil(n*line_ticks/1024)` once
    /// `next_free` grew past ~2^26 cycles (the f64 mantissa could no longer
    /// represent the 1/1024-cycle fraction).
    #[test]
    fn ten_million_transfers_are_bit_exact() {
        let cfg = DramConfig::default();
        let ticks = cfg.line_ticks();
        let lat = cfg.latency_cycles;
        let mut d = DramModel::new(cfg);
        let n: u64 = 10_000_001;
        let mut last = 0;
        for _ in 0..n {
            last = d.access(0, false);
        }
        // The n-th transfer starts at (n-1)*ticks and completes at the start
        // rounded up to a whole cycle plus the access latency.
        let start = (n - 1) * ticks;
        let expect = start / TICKS_PER_CYCLE + u64::from(!start.is_multiple_of(TICKS_PER_CYCLE)) + lat;
        assert_eq!(last, expect, "drift after {n} transfers");
        assert_eq!(d.reads(), n);
    }

    /// The same closed form holds for a non-dyadic bandwidth point (Fig. 18's
    /// 12.5 GiB/s sweep value), where the per-line time is not representable
    /// in binary floating point after scaling.
    #[test]
    fn drift_free_at_low_bandwidth() {
        let cfg = DramConfig {
            bandwidth_gibps: 12.5,
            ..DramConfig::default()
        };
        let ticks = cfg.line_ticks();
        let mut d = DramModel::new(cfg);
        let n: u64 = 2_000_000;
        let mut last = 0;
        for _ in 0..n {
            last = d.access(0, false);
        }
        let start = (n - 1) * ticks;
        let expect =
            start / TICKS_PER_CYCLE + u64::from(!start.is_multiple_of(TICKS_PER_CYCLE)) + cfg.latency_cycles;
        assert_eq!(last, expect);
    }
}
