//! Order statistics: medians, nearest-rank percentiles, and the highest
//! percentile a sample supports (at least ten samples beyond it).

/// Percentiles a latency report may quote, lowest first, each with the
/// reciprocal of the share of samples beyond it (p99 leaves 1 in 100).
const CANDIDATE_PERCENTILES: [(f64, usize); 5] = [
    (50.0, 2),
    (90.0, 10),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// Samples that must lie beyond a percentile for it to be quoted.
const SAMPLES_BEYOND: usize = 10;

/// Sorts in place (values are finite by construction: they are measured
/// durations and counts).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `p` (0–100) of an ascending-sorted sample; 0 for
/// an empty one.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps products such as 0.9 * 100 = 90.00000000000001 from
    // rounding up a whole rank.
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest candidate percentile with at least ten samples beyond it,
/// or `None` when even the median has fewer.
#[must_use]
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES
        .iter()
        .rev()
        .find(|(_, one_in)| samples / one_in >= SAMPLES_BEYOND)
        .map(|&(p, _)| p)
}

/// A latency sample reduced to what a report quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Sample count.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
}

/// Summarises a latency sample (any unit); sorts it in place.
#[must_use]
pub fn summarize(values: &mut [f64]) -> LatencySummary {
    sort(values);
    LatencySummary {
        samples: values.len(),
        p50: percentile(values, 50.0),
        p99: percentile(values, 99.0),
        tail: highest_supported_percentile(values.len()).map(|p| (p, percentile(values, p))),
    }
}

/// Latency samples collected unit by unit (an epoch, a block, a checkpoint
/// cycle). The end-to-end metrics quote the median over units of each
/// unit's percentile, so one disturbed stretch of a run moves one unit, not
/// the result; the pooled sample serves the printed tail percentile.
#[derive(Debug, Default)]
pub struct UnitLatencies {
    /// `(p50, p99)` of each unit.
    units: Vec<(f64, f64)>,
    pooled: Vec<f64>,
}

impl UnitLatencies {
    /// Adds one unit's samples.
    pub fn push_unit(&mut self, mut samples: Vec<f64>) {
        sort(&mut samples);
        self.units
            .push((percentile(&samples, 50.0), percentile(&samples, 99.0)));
        self.pooled.append(&mut samples);
    }

    /// Median over units of the unit medians.
    #[must_use]
    pub fn p50(&self) -> f64 {
        median(&self.units.iter().map(|u| u.0).collect::<Vec<_>>())
    }

    /// Median over units of the unit 99th percentiles.
    #[must_use]
    pub fn p99(&self) -> f64 {
        median(&self.units.iter().map(|u| u.1).collect::<Vec<_>>())
    }

    /// Summary of all samples pooled.
    #[must_use]
    pub fn pooled(&mut self) -> LatencySummary {
        summarize(&mut self.pooled)
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.3}  p99 {:.3}", self.p50, self.p99)?;
        if let Some((p, v)) = self.tail {
            write!(f, "  p{p} {v:.3}")?;
        }
        write!(f, "  (n={})", self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(5_000_000), Some(99.99));
    }

    #[test]
    fn unit_latencies_quote_medians_over_units() {
        let mut units = UnitLatencies::default();
        for scale in [1.0, 2.0, 10.0] {
            units.push_unit((1..=100).rev().map(|v| f64::from(v) * scale).collect());
        }
        // Unit medians 50, 100, 500; unit p99s 99, 198, 990.
        assert_eq!(units.p50(), 100.0);
        assert_eq!(units.p99(), 198.0);
        assert_eq!(units.pooled().samples, 300);
    }

    #[test]
    fn summary_quotes_the_supported_tail() {
        let mut v: Vec<f64> = (1..=2_000).map(f64::from).collect();
        v.reverse();
        let s = summarize(&mut v);
        assert_eq!(s.samples, 2_000);
        assert_eq!(s.p50, 1_000.0);
        assert_eq!(s.p99, 1_980.0);
        assert_eq!(s.tail, Some((99.0, 1_980.0)));
    }
}
