//! Order statistics over small samples: median, percentile, spread.

/// The `q`-quantile (`0.0..=1.0`) of `values` by the nearest-rank rule:
/// the smallest value with at least `q` of the sample at or below it.
/// Nearest rank returns a value that was actually measured, which is what
/// a latency percentile should be.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The op counts at which the rounds of a phase of `ops` ops end: at most
/// `at_most` rounds, as equal as whole repeats of `cycle` ops allow, the
/// last ending at `ops`. A round that held part of a cycle would not be
/// comparable with the others — it might hold only a cycle's cheap ops.
pub fn round_ends(ops: usize, cycle: usize, at_most: usize) -> Vec<usize> {
    let cycle = cycle.max(1);
    let cycles = (ops / cycle).max(1);
    let rounds = cycles.min(at_most.max(1));
    (1..=rounds)
        .map(|r| {
            if r == rounds {
                ops
            } else {
                cycles * r / rounds * cycle
            }
        })
        .collect()
}

/// `(max − min) ÷ median`: the run-to-run spread printed beside a median.
/// Zero when the median is zero (an all-zero sample has no spread).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med.abs()
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
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Unsorted input, tiny sample: p95 of three values is the largest.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.95), 9.0);
    }

    #[test]
    fn rounds_are_whole_cycles_and_end_with_the_phase() {
        // 15 ops, 5 rounds: three each.
        assert_eq!(round_ends(15, 1, 5), [3, 6, 9, 12, 15]);
        // 12 ops do not divide by 5: rounds of 2 and 3.
        assert_eq!(round_ends(12, 1, 5), [2, 4, 7, 9, 12]);
        // 7 cycles of 8 ops: every round ends on a cycle boundary.
        assert_eq!(round_ends(56, 8, 5), [8, 16, 32, 40, 56]);
        // Fewer cycles than rounds: one cycle a round.
        assert_eq!(round_ends(4, 2, 5), [2, 4]);
        assert_eq!(round_ends(1, 1, 5), [1]);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
