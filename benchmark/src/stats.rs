//! Order statistics for the harness: trial medians, the inter-quartile
//! spread printed beside them, and in-trial percentiles.

/// Linear-interpolated quantile of unsorted `values` (`q` in `[0, 1]`).
/// NaN on an empty slice, so a missing measurement cannot pass a gate.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Inter-quartile range of `values` (0 for fewer than two samples).
pub fn iqr(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// Mean of `values` (NaN when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(iqr(&v), 1.5);
        assert!(median(&[]).is_nan());
        assert_eq!(iqr(&[7.0]), 0.0);
    }
}
