//! Robust reduction of timing samples.
//!
//! A timed window is split into equal slices; every timing metric is
//! computed inside each slice and reported from the **best slice** (lowest
//! latency or cost, highest throughput), with the median and quartiles
//! across slices printed beside it.
//!
//! Interference on a shared host is one-sided: it only ever slows the
//! program. The reference VM spends seconds at a time running everything
//! 45 % slower (CPU time inflates with wall time, so it is not descheduling),
//! often for more than half of a window; the median across slices then reads
//! 30 ms or 42 ms for the same code depending on which state held longer,
//! while the best slice reads 29 to 30 ms. A code change moves every slice,
//! the best one included.
//!
//! Percentiles are nearest-rank, and a percentile is refused when the
//! pooled sample has fewer than [`MIN_BEYOND`] samples beyond it: p90 needs
//! 100 samples, p99 needs 1000.

use std::fmt;

/// Slices per timed window.
pub const SLICES: usize = 10;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample is too small to support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TooFewSamples {
    /// Requested quantile, `0.0..1.0`.
    pub q: f64,
    /// Samples available.
    pub n: usize,
    /// Samples beyond the quantile's rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{:.0} refused: {} of {} samples lie beyond it, {MIN_BEYOND} are needed",
            self.q * 100.0,
            self.beyond,
            self.n
        )
    }
}

/// 1-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether a pooled sample of `n` supports quantile `q`.
pub fn supports(n: usize, q: f64) -> Result<(), TooFewSamples> {
    let beyond = n.saturating_sub(rank(n, q));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples { q, n, beyond });
    }
    Ok(())
}

/// Nearest-rank percentile of an unsorted sample, refused when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, TooFewSamples> {
    supports(samples.len(), q)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(nearest_rank(&sorted, q))
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile, by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// benchmark driver uses for its run-to-run spread. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Index of the slice that offset `at_ns` falls into, for a window of
/// `window_ns` split into [`SLICES`]; `None` at or past the window's end.
pub fn slice_of(at_ns: u128, window_ns: u128) -> Option<usize> {
    (at_ns < window_ns).then(|| (at_ns * SLICES as u128 / window_ns.max(1)) as usize)
}

/// Which way a figure is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    /// Latency, cost.
    Lower,
    /// Throughput.
    Higher,
}

/// A per-slice figure reduced across slices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reduced {
    /// The best slice's figure: the reported value.
    pub best: f64,
    /// Median across slices.
    pub median: f64,
    /// First quartile across slices.
    pub q1: f64,
    /// Third quartile across slices.
    pub q3: f64,
    /// Pooled samples behind the figure.
    pub samples: usize,
    /// Slices that contributed (empty slices are skipped).
    pub slices: usize,
}

/// Reduce one value per slice (NaN marks an empty slice).
pub fn across_slices(per_slice: &[f64], samples: usize, better: Better) -> Reduced {
    let kept: Vec<f64> = per_slice
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    if kept.is_empty() {
        return Reduced {
            best: f64::NAN,
            median: f64::NAN,
            q1: f64::NAN,
            q3: f64::NAN,
            samples,
            slices: 0,
        };
    }
    let (q1, q3) = if kept.len() >= 2 {
        quartiles(&kept)
    } else {
        (kept[0], kept[0])
    };
    let best = match better {
        Better::Lower => kept.iter().copied().fold(f64::INFINITY, f64::min),
        Better::Higher => kept.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    Reduced {
        best,
        median: median(&kept),
        q1,
        q3,
        samples,
        slices: kept.len(),
    }
}

/// Nearest-rank quantile `q` inside every slice, reduced across slices,
/// whatever the sample size.
pub fn sliced_nearest_rank(slices: &[Vec<f64>], q: f64) -> Reduced {
    let per_slice: Vec<f64> = slices
        .iter()
        .map(|s| {
            if s.is_empty() {
                return f64::NAN;
            }
            let mut sorted = s.clone();
            sorted.sort_by(f64::total_cmp);
            nearest_rank(&sorted, q)
        })
        .collect();
    across_slices(&per_slice, slices.iter().map(Vec::len).sum(), Better::Lower)
}

/// Quantile `q` inside every slice, reduced across slices. Refused when
/// the pooled sample does not support `q`.
pub fn sliced_percentile(slices: &[Vec<f64>], q: f64) -> Result<Reduced, TooFewSamples> {
    supports(slices.iter().map(Vec::len).sum(), q)?;
    Ok(sliced_nearest_rank(slices, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 0.5), 5.0);
        assert_eq!(nearest_rank(&v, 0.9), 9.0);
        assert_eq!(nearest_rank(&v, 0.91), 10.0);
        assert_eq!(nearest_rank(&v, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        // Unsorted input goes through `percentile`.
        let mut shuffled = ramp(200);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5), Ok(100.0));
        assert_eq!(percentile(&shuffled, 0.9), Ok(180.0));
    }

    #[test]
    fn percentile_refused_when_fewer_than_ten_samples_lie_beyond_it() {
        // n = 99: rank ceil(89.1) = 90, so 9 samples lie beyond p90.
        assert_eq!(
            percentile(&ramp(99), 0.9),
            Err(TooFewSamples {
                q: 0.9,
                n: 99,
                beyond: 9
            })
        );
        // n = 100: rank 90, 10 beyond.
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert!(supports(999, 0.99).is_err());
        assert!(supports(1000, 0.99).is_ok());
        assert!(supports(20, 0.5).is_ok());
        assert!(supports(19, 0.5).is_err());
        assert!(supports(0, 0.5).is_err());
        let msg = percentile(&ramp(50), 0.9).unwrap_err().to_string();
        assert!(
            msg.contains("p90 refused") && msg.contains("of 50"),
            "{msg}"
        );
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]), (15.0, 45.0));
    }

    #[test]
    fn slices_split_the_window_evenly() {
        assert_eq!(slice_of(0, 1000), Some(0));
        assert_eq!(slice_of(99, 1000), Some(0));
        assert_eq!(slice_of(100, 1000), Some(1));
        assert_eq!(slice_of(999, 1000), Some(9));
        assert_eq!(slice_of(1000, 1000), None);
    }

    #[test]
    fn one_slice_ruined_by_a_stall_does_not_move_the_reported_p90() {
        let clean: Vec<Vec<f64>> = (0..SLICES).map(|_| ramp(20)).collect();
        let mut stalled = clean.clone();
        for v in &mut stalled[3] {
            *v += 40_000.0;
        }
        let a = sliced_percentile(&clean, 0.9).unwrap();
        let b = sliced_percentile(&stalled, 0.9).unwrap();
        assert_eq!((a.best, a.median), (18.0, 18.0));
        assert_eq!((b.best, b.median), (18.0, 18.0));
        assert_eq!(b.samples, 200);
        assert_eq!(b.slices, SLICES);
        // The pooled p90 would have moved: 20 of 200 samples are ruined.
        let pooled: Vec<f64> = stalled.concat();
        assert!(percentile(&pooled, 0.9).unwrap() > 18.0);
    }

    #[test]
    fn a_window_slowed_for_most_of_its_slices_still_reports_the_quiet_figure() {
        // Seven of ten slices run 45 % slower, as the reference VM does for
        // seconds at a time: the median across slices reads the slow state,
        // the best slice the program.
        let slices: Vec<Vec<f64>> = (0..SLICES)
            .map(|i| {
                let factor = if (2..9).contains(&i) { 1.45 } else { 1.0 };
                ramp(20).iter().map(|v| v * factor).collect()
            })
            .collect();
        let r = sliced_percentile(&slices, 0.5).unwrap();
        assert_eq!(r.best, 10.0);
        assert_eq!(r.median, 14.5);
        let throughput = across_slices(&[20.0, 29.0, 28.5, f64::NAN, 21.0], 80, Better::Higher);
        assert_eq!(
            (throughput.best, throughput.median, throughput.slices),
            (29.0, 24.75, 4)
        );
    }

    #[test]
    fn empty_slices_are_skipped_and_support_is_pooled() {
        let mut slices: Vec<Vec<f64>> = (0..SLICES).map(|_| ramp(20)).collect();
        slices[9].clear();
        let r = sliced_percentile(&slices, 0.5).unwrap();
        assert_eq!(
            (r.best, r.median, r.slices, r.samples),
            (10.0, 10.0, 9, 180)
        );
        let thin: Vec<Vec<f64>> = (0..SLICES).map(|_| ramp(9)).collect();
        assert!(sliced_percentile(&thin, 0.9).is_err());
        assert!(across_slices(&[f64::NAN; 3], 0, Better::Lower)
            .best
            .is_nan());
    }
}
