//! Order statistics over latency samples.

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail percentile reported for a run: the highest of p99 and p90 that
/// has at least ten samples beyond it. A run too short for either reports
/// the sample with exactly ten beyond it, or the maximum when there are
/// at most ten samples.
pub struct Tail {
    /// The percentile used, e.g. 99.0.
    pub percentile: f64,
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    for p in [99.0, 90.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 && rank >= 1 {
            return Tail {
                percentile: p,
                value: sorted[rank - 1],
                beyond: n - rank,
            };
        }
    }
    let rank = if n > 10 { n - 10 } else { n };
    Tail {
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * rank as f64 / n as f64
        },
        value: if n == 0 { 0.0 } else { sorted[rank - 1] },
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&v[..500]);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 450.0, 50));
        let t = tail(&v[..50]);
        assert_eq!((t.value, t.beyond), (40.0, 10));
        let t = tail(&v[..5]);
        assert_eq!((t.value, t.beyond), (5.0, 0));
    }
}
