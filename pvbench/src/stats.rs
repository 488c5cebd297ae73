//! The benchmark's own arithmetic: medians, the tail percentile it is
//! willing to report, and the quartile spread used to judge whether two
//! sets of runs agree.

/// Minimum number of samples that must lie strictly beyond a reported
/// tail percentile. Below that the percentile is an anecdote, not a
/// statistic, and is refused.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), as
/// Python's `statistics.median` computes it. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A smoothed median: the mean of the samples ranked from the 40th to
/// the 60th percentile. When the samples are few and spread over a wide
/// range (a corpus of documents of log-uniform size) a single middle
/// sample jumps with every change of the input mix; the middle fifth
/// does not. `None` for no samples.
pub fn middle_mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let lo = (n * 2 / 5).min(n - 1);
    let hi = (n * 3).div_ceil(5).max(lo + 1);
    Some(mean(&v[lo..hi]))
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted`, together with the
/// number of samples strictly above the selected rank.
fn nearest_rank(sorted: &[f64], q: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// A tail percentile, refused unless at least [`MIN_BEYOND`] samples lie
/// beyond it. `samples` need not be sorted.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if samples.is_empty() {
        return Err("no samples".into());
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (value, beyond) = nearest_rank(&v, q);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            v.len()
        ));
    }
    Ok(value)
}

/// The three quartile cut points of `xs`, exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
                [2.75, 5.5, 8.25],
            ),
            (&[5., 1., 3.], [1., 3., 5.]),
            (&[2., 2., 2., 9.], [2., 2., 7.25]),
            (&[1.5, 2.5, 10., 4., 3.25, 7., 8.], [2.5, 4., 8.]),
        ];
        for (data, want) in cases {
            let got = quartiles(data).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() < 1e-12,
                    "{data:?}: got {got:?}, want {want:?}"
                );
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs = [1., 2., 3., 4., 5., 6., 7., 8., 9., 10.];
        assert!((spread(&xs).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(median(&[3., 1., 2., 10.]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn middle_mean_averages_the_middle_fifth() {
        // Ranks 4..6 of 10 (0-based): 5, 6.
        let xs = [10., 1., 9., 2., 8., 3., 7., 4., 6., 5.];
        assert_eq!(middle_mean(&xs), Some(5.5));
        assert_eq!(middle_mean(&[3.0]), Some(3.0));
        assert_eq!(middle_mean(&[1.0, 100.0]), Some(50.5));
        assert_eq!(middle_mean(&[]), None);
        // Outliers at either end do not move it.
        assert_eq!(middle_mean(&[0.0, 5.0, 5.0, 5.0, 1e9]), Some(5.0));
    }

    #[test]
    fn p99_refuses_thin_tails() {
        // 999 samples: nearest rank 990, so 9 lie beyond it — refused.
        let thin: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail_percentile(&thin, 0.99).is_err());
        // 1000 samples: rank 990, exactly 10 beyond — reported.
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.99), Ok(990.0));
        assert!(tail_percentile(&[], 0.5).is_err());
        // The median of a small sample is fine: half of it lies beyond.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 0.5), Ok(11.0));
    }
}
