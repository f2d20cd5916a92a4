//! Order statistics for round timings.

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// What a run reports a series of timings as: their tenth percentile.
/// On a shared host everything that disturbs a round makes it longer, by
/// up to half and for minutes at a time, so the low end of a run's
/// rounds repeats from run to run where their median does not (README,
/// "Noise": about half the median's spread over ten runs). Not the
/// minimum: one freak fast round on the threaded executor would then be
/// the run's value.
pub fn steady(samples: &[f64]) -> f64 {
    percentile(samples, 10.0)
}

/// Median of `reps` timings of `f`.
pub fn median_of(reps: usize, f: impl FnMut() -> f64) -> f64 {
    median(&std::iter::repeat_with(f).take(reps).collect::<Vec<_>>())
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// ones the acceptance driver computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to 1..=n-1, delta = k*(n+1) - 4j.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Quartile distance as a share of the median; 0 for fewer than two
/// samples or a zero median.
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, or `None` when even p75 has not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so the count beyond is exact.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Tenth percentile, median, quartiles and the supported tail of one
/// timing series.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p10: f64,
    pub p50: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Summary {
    let p50 = median(samples);
    let (q1, q3) = if samples.len() >= 2 {
        quartiles(samples)
    } else {
        (p50, p50)
    };
    Summary {
        n: samples.len(),
        p10: steady(samples),
        p50,
        q1,
        q3,
        tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn steady_sits_between_the_two_fastest_of_a_short_run() {
        // Eight rounds: 0.3 of the fastest and 0.7 of the next.
        let v = [31.0, 30.0, 29.0, 35.0, 20.0, 33.0, 32.0, 34.0];
        assert!((steady(&v) - 26.3).abs() < 1e-9);
        assert_eq!(steady(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let s = summarize(&(0..150).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 150);
        assert_eq!(s.p50, 74.5);
        assert!((s.p10 - 14.9).abs() < 1e-9);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 134.1).abs() < 1e-9);
        // At least ten samples lie beyond the reported tail.
        assert_eq!((0..150).filter(|&x| f64::from(x) > v).count(), 15);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
