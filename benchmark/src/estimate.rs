//! Estimators: per-round-index profiles over the timed units, medians and
//! the percentile rule.
//!
//! Every timed unit of an engine workload does the same amount of work at
//! the same round index (the input schedule and the break-in pattern repeat
//! each unit), so two units differ at index `k` only by what the host added.
//! On readings as they went that is one-sided — interference only ever adds
//! time — and the minimum over units is the natural estimate
//! ([`profile_min`]). It breaks down when the host's slow state covers most
//! of a run: then no unit has round `k` free of it. The benchmark therefore
//! first divides every node step by the slowdown the reference kernel saw
//! around it ([`crate::calib`]); what is left is two-sided estimation error,
//! not one-sided interference, and its natural summary is the middle
//! ([`profile_median`]) — a minimum would pick, for every round, the unit
//! whose slowdown happened to be most overestimated.

/// `min over units of units[u][k]` for every round index `k`.
///
/// # Panics
///
/// Panics when `units` is empty or the units differ in length.
pub fn profile_min(units: &[Vec<f64>]) -> Vec<f64> {
    per_index(units, |column| {
        column.iter().copied().fold(f64::INFINITY, f64::min)
    })
}

/// `median over units of units[u][k]` for every round index `k`.
///
/// # Panics
///
/// Panics when `units` is empty or the units differ in length.
pub fn profile_median(units: &[Vec<f64>]) -> Vec<f64> {
    per_index(units, median)
}

fn per_index(units: &[Vec<f64>], summary: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let len = units.first().expect("at least one timed unit").len();
    assert!(
        units.iter().all(|u| u.len() == len),
        "units differ in length"
    );
    (0..len)
        .map(|k| summary(&units.iter().map(|u| u[k]).collect::<Vec<f64>>()))
        .collect()
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]` of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0 - 1e-9
}

/// Quantile `q` of a power-bucketed histogram, interpolated geometrically
/// inside the bucket that holds the rank (the registry's own
/// `quantile_bounded` returns the bucket's upper bound, which on power-of-4
/// buckets cannot show anything short of a 4× change).
pub fn histogram_quantile(counts: &[u64], bounds: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = (total as f64) * q;
    let mut seen = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= rank {
            let hi = bounds.get(i).copied().unwrap_or(u64::MAX) as f64;
            let lo = if i == 0 {
                hi / 4.0
            } else {
                bounds[i - 1] as f64
            };
            if i >= bounds.len() {
                return lo; // overflow bucket: no upper edge to interpolate to
            }
            let frac = (rank - seen) / c;
            return lo * (hi / lo).powf(frac);
        }
        seen += c;
    }
    bounds.last().copied().unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic units with a 1.5x contention regime on a third of the
    /// rounds of every unit (a different third each unit): the minimum of
    /// the raw readings comes back exact, while the median of unit sums is
    /// visibly inflated.
    #[test]
    fn minimum_recovers_truth_under_scattered_contention() {
        let rounds = 44;
        let truth: Vec<f64> = (0..rounds).map(|k| 1.0 + (k % 7) as f64 * 0.25).collect();
        let units: Vec<Vec<f64>> = (0..4)
            .map(|u| {
                truth
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| if (k + u) % 3 == 0 { t * 1.5 } else { t })
                    .collect()
            })
            .collect();
        assert_eq!(profile_min(&units), truth);
        let true_sum: f64 = truth.iter().sum();
        let sums: Vec<f64> = units.iter().map(|u| u.iter().sum()).collect();
        assert!(
            median(&sums) > true_sum * 1.10,
            "contention must show in unit sums"
        );
    }

    #[test]
    fn minimum_ignores_a_slow_first_unit_and_so_does_the_median_of_three() {
        let units = vec![
            vec![9.0, 9.0, 9.0],
            vec![1.0, 2.5, 3.0],
            vec![1.5, 2.0, 3.0],
        ];
        assert_eq!(profile_min(&units), vec![1.0, 2.0, 3.0]);
        assert_eq!(profile_median(&units), vec![1.5, 2.5, 3.0]);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_beyond() {
        // The median of 19 samples has 9 beyond it, of 20 it has 10.
        assert!(!percentile_supported(19, 0.50));
        assert!(percentile_supported(20, 0.50));
        assert!(!percentile_supported(99, 0.90));
        assert!(percentile_supported(100, 0.90));
        assert!(percentile_supported(960, 0.90));
        assert!(!percentile_supported(960, 0.99));
        assert!(percentile_supported(1_000, 0.99));
        assert!(!percentile_supported(8, 0.90));
    }

    #[test]
    fn histogram_quantile_interpolates_inside_the_bucket() {
        let bounds = [250u64, 1_000, 4_000];
        // Everything in the (1000, 4000] bucket.
        let counts = [0u64, 0, 10, 0];
        let p50 = histogram_quantile(&counts, &bounds, 0.5);
        assert!(
            (p50 - 2_000.0).abs() < 1.0,
            "geometric midpoint of 1000..4000, got {p50}"
        );
        assert_eq!(histogram_quantile(&[0, 0, 0, 0], &bounds, 0.5), 0.0);
        // Rank in the first bucket interpolates from bound/4.
        let low = histogram_quantile(&[4, 0, 0, 0], &bounds, 1.0);
        assert!((low - 250.0).abs() < 1e-6);
    }
}
