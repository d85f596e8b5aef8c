//! Summary statistics over samples: percentiles, geometric means and
//! scaling exponents.

/// The `p`-th percentile (`0.0..=100.0`) of `values`, linearly
/// interpolated between the two nearest ranks (the rule NumPy uses by
/// default). `None` for an empty sample or a NaN in it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median (50th percentile) of `values`.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The percentile that stands for one repeated measurement. Interference
/// from other work on the host only ever slows a measurement down, and it
/// comes in phases of seconds, so the low tail of the repetitions tracks
/// the code's own speed far more steadily than their median does.
pub const FLOOR_PCT: f64 = 10.0;

/// The [`FLOOR_PCT`] percentile of one measurement's repetitions.
pub fn floor(values: &[f64]) -> Option<f64> {
    percentile(values, FLOOR_PCT)
}

/// The `p`-th percentile, across measurements, of each measurement's
/// [`floor`]. Measurements without samples are skipped.
pub fn percentile_of_floors(groups: &[Vec<f64>], p: f64) -> Option<f64> {
    let floors: Vec<f64> = groups.iter().filter_map(|g| floor(g)).collect();
    percentile(&floors, p)
}

/// The geometric mean of `values`. `None` for an empty sample or any
/// value that is not finite and positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The exponent `k` in `t ∝ n^k` from two measurements `(n_small,
/// t_small)` and `(n_large, t_large)`: `ln(t_large / t_small) /
/// ln(n_large / n_small)`.
pub fn scaling_exponent(n_small: f64, t_small: f64, n_large: f64, t_large: f64) -> Option<f64> {
    let ok = |v: f64| v.is_finite() && v > 0.0;
    if !(ok(n_small) && ok(t_small) && ok(n_large) && ok(t_large)) || n_small == n_large {
        return None;
    }
    Some((t_large / t_small).ln() / (n_large / n_small).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 25.0), Some(1.75));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 90.0), Some(4.6));
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        for p in [0.0, 37.5, 50.0, 90.0, 100.0] {
            assert_eq!(percentile(&[7.25], p), Some(7.25));
        }
    }

    #[test]
    fn percentile_rejects_empty_and_nan() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -5.0), Some(1.0));
        assert_eq!(percentile(&v, 250.0), Some(3.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[10.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn floor_is_the_low_tail() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(floor(&v), Some(2.0));
        assert_eq!(floor(&[3.0]), Some(3.0));
        assert_eq!(floor(&[]), None);
    }

    #[test]
    fn percentile_of_floors_skips_empty_groups() {
        let groups = vec![vec![10.0, 1.0], vec![], vec![5.0, 3.0, 30.0], vec![2.0]];
        // floors: 1.9, 3.4, 2.0
        let p50 = percentile_of_floors(&groups, 50.0).unwrap();
        assert!((p50 - 2.0).abs() < 1e-12, "{p50}");
        let p100 = percentile_of_floors(&groups, 100.0).unwrap();
        assert!((p100 - 3.4).abs() < 1e-12, "{p100}");
        assert_eq!(percentile_of_floors(&[vec![]], 50.0), None);
    }

    #[test]
    fn geomean_of_known_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[5.5]), Some(5.5));
    }

    #[test]
    fn geomean_rejects_empty_zero_and_negative() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn scaling_exponent_recovers_power_laws() {
        // linear: 4x the size, 4x the time
        let k = scaling_exponent(2000.0, 10.0, 8000.0, 40.0).unwrap();
        assert!((k - 1.0).abs() < 1e-12, "{k}");
        // quadratic: 4x the size, 16x the time
        let k = scaling_exponent(2000.0, 10.0, 8000.0, 160.0).unwrap();
        assert!((k - 2.0).abs() < 1e-12, "{k}");
        assert_eq!(scaling_exponent(2000.0, 0.0, 8000.0, 1.0), None);
        assert_eq!(scaling_exponent(2000.0, 1.0, 2000.0, 1.0), None);
    }
}
