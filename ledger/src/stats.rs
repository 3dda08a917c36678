//! Order statistics used by the ledger: medians, quartiles, and the
//! percentile rule for timings.
//!
//! Percentiles are written in per-mille (`950` is p95) so that the rank
//! arithmetic stays exact integer math.

/// Percentiles a timing may be reported at, lowest first.
const LADDER_PERMILLE: [u32; 5] = [500, 900, 950, 990, 999];

/// Samples that must lie strictly beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty sample or a NaN.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so the
/// quartiles the ledger prints match the ones a comparison computes.
///
/// # Panics
/// With fewer than two samples (Python raises there too) or a NaN.
#[must_use]
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need at least two samples");
    let s = sorted(v);
    let ld = s.len();
    let m = ld as i64 + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative when the clamp moved `j` up: Python extrapolates there.
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// 1-based nearest rank of the `permille` percentile among `n` samples.
#[must_use]
pub fn rank(permille: u32, n: usize) -> usize {
    (permille as usize * n).div_ceil(1000).max(1)
}

/// Samples strictly beyond the `permille` percentile among `n`.
#[must_use]
pub fn beyond(permille: u32, n: usize) -> usize {
    n.saturating_sub(rank(permille, n))
}

/// Nearest-rank percentile of `v`.
///
/// # Panics
/// On an empty sample or a NaN.
#[must_use]
pub fn percentile(v: &[f64], permille: u32) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    sorted(v)[rank(permille, v.len()) - 1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it among `n` samples, or `None` when even the median lacks them.
#[must_use]
pub fn tail_permille(n: usize) -> Option<u32> {
    LADDER_PERMILLE.iter().rev().copied().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Samples needed for `permille` to have [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn samples_for(permille: u32) -> usize {
    (1..).find(|&n| beyond(permille, n) >= MIN_BEYOND).expect("some count qualifies")
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timings"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.5, 5.0, 7.5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 950), 190.0);
        assert_eq!(beyond(950, 200), 10);
        assert_eq!(percentile(&v, 500), 100.0);
        assert_eq!(percentile(&[5.0], 999), 5.0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(99), Some(500));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(999), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
        assert_eq!(samples_for(950), 200);
        assert_eq!(samples_for(500), 20);
    }
}
