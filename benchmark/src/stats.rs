//! Order statistics for the ladder: medians, nearest-rank percentiles and
//! the "highest percentile with at least ten samples beyond it" rule.

/// Samples required beyond a percentile before it is reported.
const MIN_BEYOND: f64 = 10.0;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    })
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. `None` when empty.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let rank = (f64::from(p) / 100.0 * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of p99/p95/p90/p80 that still has at least ten samples beyond
/// it; 50 (the median) when even p80 does not.
pub fn tail_percentile(n: usize) -> u32 {
    [99u32, 95, 90, 80]
        .into_iter()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Smallest and largest sample. `None` when empty.
pub fn min_max(values: &[f64]) -> Option<(f64, f64)> {
    let first = *values.first()?;
    Some(
        values
            .iter()
            .fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(30.0));
        assert_eq!(percentile(&v, 80), Some(48.0));
        assert_eq!(percentile(&v, 100), Some(60.0));
        assert_eq!(percentile(&[5.0], 99), Some(5.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 60 samples: p80 leaves 12 beyond, p90 only 6.
        assert_eq!(tail_percentile(60), 80);
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(49), 50);
        assert_eq!(tail_percentile(3), 50);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(1000), 99);
    }

    #[test]
    fn min_max_spans_the_samples() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), Some((-1.0, 5.0)));
        assert_eq!(min_max(&[]), None);
    }
}
