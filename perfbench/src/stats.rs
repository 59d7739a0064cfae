//! Order statistics over measured samples. Every percentile the
//! benchmark prints, for every workload, comes from `percentile`.

/// The tail percentile every workload gates on (`latency_tail_ms`). It is
/// fixed, so a faster build or host that fits more samples into a run is
/// still compared on the same statistic. Higher percentiles of a 24 s run
/// hinge on a handful of host hiccups.
pub const TAIL_P: f64 = 90.0;

/// Nearest-rank percentile, `p ∈ [0, 100]`: the smallest sample with at
/// least `p`% of the samples at or below it. It is always one of the
/// samples, so an infinite latency (an unanswered or wrong query) stays
/// visible. Infinite for empty input.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::INFINITY;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) * v.len() as f64 / 100.0).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest whole percentile that leaves at least `beyond` samples
/// above it, if `n` samples allow one above the median.
pub fn supported_percentile(n: usize, beyond: usize) -> Option<u32> {
    if n == 0 || n < 2 * beyond {
        return None;
    }
    let p = (100.0 * (1.0 - beyond as f64 / n as f64)).floor() as u32;
    (p > 50).then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, TAIL_P), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[3.0, f64::INFINITY, 1.0], 99.0), f64::INFINITY);
        assert_eq!(percentile(&[], 50.0), f64::INFINITY);
        let many: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(percentile(&many, 90.0), 540.0);
        assert_eq!(percentile(&many, 99.0), 594.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(supported_percentile(1000, 10), Some(99));
        assert_eq!(supported_percentile(100, 10), Some(90));
        assert_eq!(supported_percentile(19, 10), None);
    }
}
