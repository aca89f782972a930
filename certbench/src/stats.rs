//! Order statistics for the benchmark's timings.
//!
//! Every timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it, with the sample
//! count; the fixed-level `p95` in the JSON uses the same nearest-rank rule.

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Median of a sample (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile: the smallest sample value with at least a `q`
/// share of the sample at or below it (`0 < q ≤ 1`).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "percentile of an empty sample");
    // The small slack keeps an exact rank such as `(n - 10) / n · n` from
    // rounding up past itself.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    s[rank.clamp(1, n) - 1]
}

/// The highest percentile level that leaves at least `beyond` samples
/// strictly above its nearest rank, or `None` when the sample is too small.
pub fn tail_level(n: usize, beyond: usize) -> Option<f64> {
    (n > beyond).then(|| (n - beyond) as f64 / n as f64)
}

/// A timing's human-readable summary: `p50 … | p<level> … | n=…`.
pub fn describe(values: &[f64], unit: &str) -> String {
    if values.is_empty() {
        return "n=0".into();
    }
    let mut out = format!("p50 {:.4} {unit}", median(values));
    if let Some(q) = tail_level(values.len(), TAIL_BEYOND) {
        out += &format!(" | p{:.1} {:.4} {unit}", 100.0 * q, percentile(values, q));
    }
    out + &format!(" | n={}", values.len())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        // Input order does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.95), 95.0);
        assert_eq!(percentile(&[2.0, 1.0], 0.95), 2.0);
    }

    #[test]
    fn tail_level_leaves_enough_samples_beyond() {
        assert_eq!(tail_level(10, 10), None);
        assert_eq!(tail_level(11, 10), Some(1.0 / 11.0));
        for n in [11usize, 20, 57, 100, 600, 1001] {
            let q = tail_level(n, TAIL_BEYOND).expect("large enough");
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&v, q) as usize;
            let beyond = n - 1 - at;
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
        }
    }

    #[test]
    fn describe_states_the_sample_count() {
        assert_eq!(describe(&[], "ms"), "n=0");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let d = describe(&v, "ms");
        assert!(d.starts_with("p50 10.5000 ms | p50.0 10.0000 ms"), "{d}");
        assert!(d.ends_with("n=20"), "{d}");
    }
}
