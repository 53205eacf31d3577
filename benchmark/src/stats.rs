//! Order statistics for latency samples.

/// A nearest-rank percentile and the number of samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile rank, in percent.
    pub pct: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly after that rank in sorted order.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// sample at 1-based rank `ceil(pct / 100 * n)`, in integer arithmetic so
/// the rank boundaries are exact.
pub fn percentile(sorted: &[f64], pct: u32) -> Percentile {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = (pct as usize * n).div_ceil(100).clamp(1, n);
    Percentile {
        pct,
        value: sorted[rank - 1],
        beyond: n - rank,
    }
}

/// Minimum number of samples that must lie beyond a tail percentile for
/// it to be reported.
pub const TAIL_SUPPORT: usize = 10;

/// The tail latency rule: the highest of p99, p95 and p90 with at least
/// [`TAIL_SUPPORT`] samples beyond it. A sample too small for p90 falls
/// back to the median, still reporting how many samples lie beyond it.
pub fn tail(sorted: &[f64]) -> Percentile {
    [99, 95, 90]
        .into_iter()
        .map(|pct| percentile(sorted, pct))
        .find(|p| p.beyond >= TAIL_SUPPORT)
        .unwrap_or_else(|| percentile(sorted, 50))
}

/// Median of an unsorted, non-empty slice (mean of the middle pair for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A run's latency samples, summarized window by window: each window of
/// `size` consecutive samples yields its throughput, median and tail, and
/// its samples are then dropped, so memory stays bounded however long the
/// run. A run's figures are medians over its windows, so a brief stall of
/// a shared host spoils a few windows rather than the run's figures.
#[derive(Debug, Clone)]
pub struct Windows {
    size: usize,
    per_sample: f64,
    buf: Vec<f64>,
    start_s: f64,
    last_s: f64,
    rates: Vec<f64>,
    p50s: Vec<f64>,
    tails: Vec<Percentile>,
}

/// Medians over a run's windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Requests completed per second.
    pub throughput: f64,
    /// Median latency.
    pub p50: f64,
    /// Tail latency; `pct` and `beyond` are those of one window.
    pub tail: Percentile,
    /// Windows measured.
    pub windows: usize,
}

impl Default for Windows {
    fn default() -> Self {
        Windows::new(1, 1.0)
    }
}

impl Windows {
    /// Windows of `size` samples, each sample covering `per_sample`
    /// requests.
    pub fn new(size: usize, per_sample: f64) -> Self {
        Windows {
            size: size.max(1),
            per_sample,
            buf: Vec::with_capacity(size.max(1)),
            start_s: 0.0,
            last_s: 0.0,
            rates: Vec::new(),
            p50s: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// Adds a sample: its latency, and when it completed (seconds since
    /// the loop started).
    pub fn push(&mut self, latency: f64, done_s: f64) {
        self.buf.push(latency);
        self.last_s = done_s;
        if self.buf.len() == self.size {
            self.close();
        }
    }

    fn close(&mut self) {
        self.buf.sort_by(f64::total_cmp);
        let secs = self.last_s - self.start_s;
        self.rates
            .push(self.buf.len() as f64 * self.per_sample / secs);
        self.p50s.push(percentile(&self.buf, 50).value);
        self.tails.push(tail(&self.buf));
        self.start_s = self.last_s;
        self.buf.clear();
    }

    /// Medians over the full windows; a trailing partial window counts
    /// only when it is the only one. `None` without samples.
    pub fn summary(&self) -> Option<Windowed> {
        let mut w = self.clone();
        if w.rates.is_empty() && !w.buf.is_empty() {
            w.close();
        }
        let first = *w.tails.first()?;
        let tails: Vec<f64> = w.tails.iter().map(|t| t.value).collect();
        Some(Windowed {
            throughput: median(&w.rates),
            p50: median(&w.p50s),
            tail: Percentile {
                value: median(&tails),
                ..first
            },
            windows: w.rates.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50).value, 50.0);
        assert_eq!(percentile(&v, 90).value, 90.0);
        assert_eq!(percentile(&v, 90).beyond, 10);
        assert_eq!(percentile(&v, 100).beyond, 0);
        assert_eq!(percentile(&[7.0], 99).value, 7.0);
    }

    #[test]
    fn tail_takes_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.beyond), (99, 10));
        assert_eq!(t.value, 990.0);
    }

    #[test]
    fn tail_steps_down_at_each_boundary() {
        // 999 samples: only 9 beyond p99, 49 beyond p95.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.beyond), (95, 49));
        // 200 samples: exactly 10 beyond p95.
        let t = tail(&ramp(200));
        assert_eq!((t.pct, t.beyond), (95, 10));
        // 199 samples: 9 beyond p95, 19 beyond p90.
        let t = tail(&ramp(199));
        assert_eq!((t.pct, t.beyond), (90, 19));
        // 100 samples: exactly 10 beyond p90.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.beyond), (90, 10));
    }

    #[test]
    fn tail_falls_back_to_the_median_below_p90_support() {
        let t = tail(&ramp(99));
        assert_eq!((t.pct, t.value, t.beyond), (50, 50.0, 49));
        let t = tail(&[3.0]);
        assert_eq!((t.pct, t.value, t.beyond), (50, 3.0, 0));
    }

    #[test]
    fn windows_take_medians_and_drop_the_partial_tail() {
        // Three windows of 100 samples; the middle one stalled (twice as
        // long, ten times the latency). A partial fourth window is ignored.
        let mut w = Windows::new(100, 2.0);
        for (k, start) in [0.0, 1.0, 3.0].into_iter().enumerate() {
            let (scale, secs) = if k == 1 { (10.0, 2.0) } else { (1.0, 1.0) };
            for i in 1..=100 {
                w.push(i as f64 * scale, start + secs * i as f64 / 100.0);
            }
        }
        w.push(1e9, 100.0);
        let s = w.summary().unwrap();
        assert_eq!(s.windows, 3);
        assert!((s.throughput - 200.0).abs() < 1e-9);
        assert_eq!(s.p50, 50.0);
        assert_eq!((s.tail.pct, s.tail.value, s.tail.beyond), (90, 90.0, 10));
    }

    #[test]
    fn a_short_run_is_one_window() {
        let mut w = Windows::new(100, 1.0);
        assert!(w.summary().is_none());
        for i in 1..=5 {
            w.push(i as f64, i as f64);
        }
        let s = w.summary().unwrap();
        assert_eq!((s.windows, s.p50, s.tail.pct), (1, 3.0, 50));
        assert_eq!(s.throughput, 1.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
