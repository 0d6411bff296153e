//! The benchmark's own statistics: medians, quartiles, step floors,
//! the fastest quarter and the tail percentile rule.
//!
//! The simulation is bit-identical in every repetition of a run, so
//! the spread between repetitions is host noise. On a shared host that
//! noise only ever slows a repetition down, in episodes lasting from
//! seconds to half a minute. A repetition is therefore timed in small
//! steps, and each step's *floor* (its fastest time over the
//! repetitions) estimates its cost without interference: an episode
//! has to cover that step in every repetition to move it. Timings that
//! are not stepwise (set-up, layer replays) take the median of the
//! fastest quarter of their samples.
//!
//! A tail percentile is only quoted when at least [`TAIL_MIN_BEYOND`]
//! samples lie beyond it; with fewer samples the highest percentile
//! that still has them is reported instead, and the output says which.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Returns `values` sorted ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the two middle
/// samples. `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Step floors: element `i` is the smallest `reps[r][i]` over the
/// repetitions `r`. Every repetition must have the same number of
/// steps.
pub fn floor_profile(reps: &[Vec<f64>]) -> Vec<f64> {
    let steps = reps.first().map_or(0, Vec::len);
    assert!(reps.iter().all(|r| r.len() == steps), "ragged repetitions");
    (0..steps)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The fastest quarter of `items` by `time` (rounded up, so at least
/// one item), fastest first.
pub fn fastest_quarter<T>(mut items: Vec<T>, time: impl Fn(&T) -> f64) -> Vec<T> {
    items.sort_by(|a, b| time(a).total_cmp(&time(b)));
    items.truncate(items.len().div_ceil(4));
    items
}

/// The median of the fastest quarter of `times`: the benchmark's
/// estimate of an uncontended time. `None` for an empty slice.
pub fn low_median(times: &[f64]) -> Option<f64> {
    median(&fastest_quarter(times.to_vec(), |&t| t))
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so figures printed here match the acceptance arithmetic.
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The 1-based nearest rank of percentile `p` among `n` samples: the
/// smallest rank with at least `p`% of the samples at or below it.
fn nearest_rank(n: usize, p: u32) -> usize {
    ((p as usize * n).div_ceil(100)).max(1)
}

/// The highest whole percentile, at most `want`, that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it among `n` samples. `None`
/// when even the median does not.
pub fn tail_percentile(n: usize, want: u32) -> Option<u32> {
    (50..=want)
        .rev()
        .find(|&p| n >= nearest_rank(n, p) + TAIL_MIN_BEYOND)
}

/// Nearest-rank percentile `p` of ascending `sorted` samples; NaN
/// when there are no samples or no percentile qualifies (`None`, as
/// [`tail_percentile`] returns it).
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], p: Option<u32>) -> f64 {
    match p {
        Some(p) if !sorted.is_empty() => sorted[nearest_rank(sorted.len(), p) - 1].into(),
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn floor_profile_takes_each_step_minimum() {
        let reps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 2.0, 0.5],
        ];
        assert_eq!(floor_profile(&reps), [2.0, 1.0, 0.5]);
        assert!(floor_profile(&[]).is_empty());
    }

    #[test]
    fn fastest_quarter_keeps_the_lowest_quarter() {
        let v = vec![5.0, 1.0, 8.0, 4.0, 2.0, 7.0, 3.0, 6.0, 9.0];
        assert_eq!(fastest_quarter(v, |&t| t), [1.0, 2.0, 3.0]);
        assert_eq!(fastest_quarter(vec![4.0, 1.0, 3.0, 2.0], |&t| t), [1.0]);
        assert_eq!(fastest_quarter(vec![9.0], |&t| t), [9.0]);
        // Contended repetitions (slow episodes) do not move the figure
        // while they are fewer than three quarters.
        let reps = [1.5, 1.0, 1.45, 1.4, 1.1, 1.6, 1.55, 0.9];
        assert_eq!(low_median(&reps), Some(0.95));
        assert_eq!(low_median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values from `statistics.quantiles(v, n=4)`.
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!((q1, q3), (2.75, 8.25));
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((q1, q3), (1.5, 4.5));
        // Two samples: Python extrapolates past both ends.
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((q1, q3), (0.75, 2.25));
        let (q1, q3) = quartiles(&[0.5, 1.5, 9.0, 2.0, 7.0, 3.0, 3.5]).unwrap();
        assert_eq!((q1, q3), (1.5, 7.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly ten above.
        assert_eq!(tail_percentile(1000, 99), Some(99));
        // 999 samples: p99 is rank 990, leaving nine; fall back.
        assert_eq!(tail_percentile(999, 99), Some(98));
        // 500 samples: p98 is rank 490, leaving ten.
        assert_eq!(tail_percentile(500, 99), Some(98));
        assert_eq!(tail_percentile(100, 99), Some(90));
        // Too few samples for any tail beyond the median.
        assert_eq!(tail_percentile(15, 99), None);
        for n in [20usize, 37, 100, 250, 999, 1000, 5000] {
            let p = tail_percentile(n, 99).unwrap();
            assert!(n - nearest_rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
            if p < 99 {
                assert!(n - nearest_rank(n, p + 1) < TAIL_MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, Some(50)), 500.0);
        assert_eq!(percentile(&v, Some(99)), 990.0);
        assert_eq!(percentile(&[4u32], Some(99)), 4.0);
        assert!(percentile(&v, None).is_nan());
        assert!(percentile::<f64>(&[], Some(50)).is_nan());
    }
}
