//! Order statistics, tail selection and failure counting.

use crate::timing::Span;
use std::collections::BTreeMap;

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`): the smallest
/// value with at least a `q` share of the samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Samples strictly above the nearest-rank `q` percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// Percentiles the tail is chosen from, highest first.
pub const TAIL_LADDER: [f64; 11] = [
    0.999, 0.995, 0.99, 0.98, 0.975, 0.95, 0.9, 0.8, 0.75, 0.6, 0.5,
];

/// The tail a run reports: its percentile, value, and how many
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// `None` when fewer than eleven samples exist, so no percentile
    /// has ten beyond it; the value is then the maximum.
    pub q: Option<f64>,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// The workload's fixed tail percentile `q`, if at least ten samples
/// lie beyond it; otherwise the highest ladder rung that has ten
/// beyond it; otherwise (fewer than eleven samples) the maximum.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    let n = values.len();
    let max = percentile(values, 1.0)?;
    let pick = std::iter::once(q)
        .chain(TAIL_LADDER.iter().copied().filter(|&r| r < q))
        .find(|&r| beyond(n, r) >= 10);
    Some(match pick {
        Some(r) => Tail {
            q: Some(r),
            value: percentile(values, r)?,
            beyond: beyond(n, r),
            samples: n,
        },
        None => Tail {
            q: None,
            value: max,
            beyond: 0,
            samples: n,
        },
    })
}

/// Operations attempted and failed. An operation fails when the
/// program refuses it, returns an error, or its output check fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Per-operation total time, ms, of every span named `name`, keyed by
/// operation id. Operations without such a span are absent.
pub fn per_op_ms(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.op).or_insert(0.0) += s.ms();
    }
    out
}

/// Completed operations per second of a closed loop: the sum over its
/// load threads of operations ÷ window. A thread is `(operations,
/// seconds from load start to its last completion, seconds of that
/// spent on benchmark work between operations)`; that work is left out
/// of the window.
pub fn closed_loop_rate(threads: &[(usize, f64, f64)]) -> f64 {
    threads
        .iter()
        .filter(|&&(n, _, _)| n > 0)
        .map(|&(n, window_s, between_s)| n as f64 / (window_s - between_s))
        .sum()
}

/// Arithmetic mean; 0 for an empty slice (a layer the run never
/// called).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean over operations of the per-operation total of `name` spans.
/// Per-layer times are means, not medians, because means add up: the
/// layer means of a workload sum to the mean operation time, even when
/// repeat and fresh tenants make the per-operation times bimodal.
pub fn mean_op_ms(spans: &[Span], name: &str) -> f64 {
    mean(&per_op_ms(spans, name).into_values().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.9), Some(9.0));
        assert_eq!(percentile(&v, 0.95), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(median(&rev), Some(5.0));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(100, 0.95), 5);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(5, 1.0), 0);
    }

    #[test]
    fn tail_keeps_the_fixed_percentile_when_it_has_ten_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 0.95).unwrap();
        assert_eq!(t.q, Some(0.95));
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 200);
    }

    #[test]
    fn tail_steps_down_the_ladder_when_samples_are_few() {
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        // p95 of 60 has 3 beyond, p90 has 6, p80 has 12.
        let t = tail(&v, 0.95).unwrap();
        assert_eq!(t.q, Some(0.8));
        assert_eq!(t.beyond, 12);
        assert_eq!(t.value, 48.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum_below_eleven_samples() {
        let v = [3.0, 1.0, 2.0];
        let t = tail(&v, 0.95).unwrap();
        assert_eq!(t.q, None);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 0);
        assert!(tail(&[], 0.95).is_none());
    }

    #[test]
    fn closed_loop_rate_leaves_out_work_between_operations() {
        // Thread 0: two operations in 10 s, 2 s of it between them;
        // thread 1: one in 5 s, 1 s between; thread 2: none.
        let rate = closed_loop_rate(&[(2, 10.0, 2.0), (1, 5.0, 1.0), (0, 0.0, 0.0)]);
        assert_eq!(rate, 2.0 / 8.0 + 1.0 / 4.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
    }

    #[test]
    fn per_op_sums_spans_of_one_operation() {
        let span = |name, op, start_ns, end_ns| Span {
            name,
            op,
            parent: None,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("a", 1, 0, 1_000_000),
            span("a", 1, 2_000_000, 4_000_000),
            span("a", 2, 0, 5_000_000),
            span("b", 2, 0, 9_000_000),
        ];
        let per = per_op_ms(&spans, "a");
        assert_eq!(per.get(&1), Some(&3.0));
        assert_eq!(per.get(&2), Some(&5.0));
        assert_eq!(mean_op_ms(&spans, "a"), 4.0);
        assert_eq!(mean_op_ms(&spans, "missing"), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
