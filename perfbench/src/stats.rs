//! Order statistics over latency samples.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly between
/// the closest ranks. `values` need not be sorted; an empty slice gives 0.
/// Infinite samples (failed requests) sort above every finite one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (a, b) = (sorted[lo], sorted[hi]);
    if lo == hi || a == b {
        a
    } else {
        a + (b - a) * (rank - lo as f64)
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(mean(&v), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
