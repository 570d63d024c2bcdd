//! Exact order statistics over raw samples. Nothing here reads histogram
//! bucket edges: every percentile is one of the recorded values.

/// A percentile read from raw samples, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample value at that rank.
    pub value: f64,
    /// The percentile, in 0..=100.
    pub pct: f64,
    /// How many samples it was read from.
    pub n: usize,
}

/// Samples required beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `pct` (0 < pct <= 100): the smallest sample with
/// at least `pct`% of the samples at or below it. `None` when empty.
pub fn percentile(samples: &[f64], pct: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(Quantile {
        value: v[rank(n, pct) - 1],
        pct,
        n,
    })
}

/// Percentile `pct` as [`percentile`] reads it, but only when at least
/// [`TAIL_BEYOND`] samples rank beyond it (p99 needs 1000 samples). Ties
/// count by rank, so a run of equal values still leaves ranks beyond.
pub fn tail(samples: &[f64], pct: f64) -> Option<Quantile> {
    let q = percentile(samples, pct)?;
    (q.n - rank(q.n, pct) >= TAIL_BEYOND).then_some(q)
}

/// The median (mean of the middle two for an even count). `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let v = sorted(samples);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample_is_every_percentile_but_has_no_tail() {
        let q = percentile(&[7.5], 50.0).unwrap();
        assert_eq!((q.value, q.n), (7.5, 1));
        assert_eq!(percentile(&[7.5], 99.0).unwrap().value, 7.5);
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(tail(&[7.5], 50.0), None);
    }

    #[test]
    fn empty_has_nothing() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven, 10.0), None, "rank 2 has nine beyond it");
        let q = tail(&eleven, 9.0).unwrap();
        assert_eq!(
            (q.value, q.n),
            (1.0, 11),
            "only the smallest has ten beyond it"
        );
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&short, 99.0), None, "p99 of 999 has nine beyond it");
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let q = tail(&thousand, 99.0).unwrap();
        assert_eq!((q.value, q.pct, q.n), (990.0, 99.0, 1000));
    }

    #[test]
    fn ties_count_by_rank() {
        let mut s = vec![5.0; 30];
        s.extend([1.0, 2.0]);
        let q = tail(&s, 50.0).unwrap();
        assert_eq!(q.value, 5.0, "ten equal values rank beyond the median");
        assert_eq!(q.n, 32);
        assert_eq!(percentile(&s, 50.0).unwrap().value, 5.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 2.0], 50.0).unwrap().value, 2.0);
    }

    #[test]
    fn nearest_rank_and_median() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 50.0).unwrap().value, 2.0);
        assert_eq!(percentile(&s, 75.0).unwrap().value, 3.0);
        assert_eq!(percentile(&s, 100.0).unwrap().value, 4.0);
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
