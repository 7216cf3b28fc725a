//! Order statistics and attribution arithmetic for the ledger.
//!
//! Every reported figure is a median or a percentile of raw samples; no
//! mean of timings is reported anywhere, because one slow sample (a page
//! fault storm, a neighbour's burst) moves a mean but not a median.

/// The median of `xs` (mean of the two middle values for an even
/// count), or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The first and third quartiles exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the default
/// "exclusive" method, which extrapolates past the extreme samples when
/// there are few), so spreads read the same as any external check of
/// the same samples. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    const Q: usize = 4;
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / Q).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * Q) as f64;
        (s[j - 1] * (Q as f64 - delta) + s[j] * delta) / Q as f64
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the spread figure the
/// benchmark's bounds are stated in.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs);
    if s.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// What is left of an end-to-end time after subtracting the self time
/// of every measured layer. Negative when the layers overlap (parallel
/// work counted once per worker) — reported as measured, never clamped.
pub fn residual(end_to_end: f64, layer_self_times: &[f64]) -> f64 {
    end_to_end - layer_self_times.iter().sum::<f64>()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&xs).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0, 1.0, 4.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&xs, 101.0), None);
    }

    #[test]
    fn residual_subtracts_layer_self_times() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 4.0]), 1.0);
        assert_eq!(residual(1.0, &[]), 1.0);
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
    }
}
