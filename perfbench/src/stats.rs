//! Order statistics for latency samples and repeated measurements.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Returns the value and
/// how many samples lie beyond it, so a caller can tell whether the tail
/// it reports is backed by enough observations.
pub fn percentile(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.len() - sorted.partition_point(|&x| x <= value);
    Some((value, beyond))
}

/// The `q` quantile of unsorted values, interpolating linearly between
/// the two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency samples of one operation class, in nanoseconds, kept per
/// measurement slice.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<Vec<u64>>);

/// The reported view of a [`Samples`] set over a choice of slices.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples in the chosen slices.
    pub n: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Samples above the p99.
    pub beyond_p99: usize,
}

impl Samples {
    pub fn push(&mut self, slice: usize, ns: u64) {
        if self.0.len() <= slice {
            self.0.resize_with(slice + 1, Vec::new);
        }
        self.0[slice].push(ns);
    }

    pub fn extend(&mut self, other: Samples) {
        for (slice, v) in other.0.into_iter().enumerate() {
            if self.0.len() <= slice {
                self.0.resize_with(slice + 1, Vec::new);
            }
            self.0[slice].extend(v);
        }
    }

    /// Median and p99 of the samples pooled over `slices`, or `None` when
    /// those slices hold no sample.
    pub fn summary(&self, slices: &[usize]) -> Option<Summary> {
        let mut pooled: Vec<u64> = slices
            .iter()
            .filter_map(|&i| self.0.get(i))
            .flatten()
            .copied()
            .collect();
        pooled.sort_unstable();
        let (p50, _) = percentile(&pooled, 0.50)?;
        let (p99, beyond_p99) = percentile(&pooled, 0.99)?;
        Some(Summary {
            n: pooled.len(),
            p50_us: p50 as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            beyond_p99,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_counts_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), Some((500, 500)));
        assert_eq!(percentile(&v, 0.99), Some((990, 10)));
        assert_eq!(percentile(&v, 1.0), Some((1000, 0)));
        assert_eq!(percentile(&v, 0.0), Some((1, 999)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    /// Ties at the percentile are not "beyond" it.
    #[test]
    fn percentile_ties_are_not_beyond() {
        let mut v = vec![5u64; 995];
        v.extend([9, 9, 9, 9, 9]);
        assert_eq!(percentile(&v, 0.99), Some((5, 5)));
        let mut v = vec![1u64; 980];
        v.extend([2; 20]);
        assert_eq!(percentile(&v, 0.99), Some((2, 0)));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_in_microseconds() {
        let mut s = Samples::default();
        for ns in 1..=2000u64 {
            s.push(0, ns * 1000);
        }
        let sum = s.summary(&[0]).unwrap();
        assert_eq!(sum.n, 2000);
        assert_eq!(sum.p50_us, 1000.0);
        assert_eq!(sum.p99_us, 1980.0);
        assert_eq!(sum.beyond_p99, 20);
        assert!(s.summary(&[1]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.1), 1.1);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    /// Pooling only the chosen slices leaves out the others' samples.
    #[test]
    fn summary_pools_the_chosen_slices() {
        let mut s = Samples::default();
        let mut t = Samples::default();
        for ns in 1..=1000u64 {
            s.push(0, ns);
            s.push(1, ns * 1_000_000);
            t.push(2, ns + 1000);
        }
        s.extend(t);
        assert_eq!(s.summary(&[0, 2]).unwrap().p50_us, 1.0);
        assert_eq!(s.summary(&[0, 2]).unwrap().n, 2000);
        assert_eq!(s.summary(&[0, 1]).unwrap().p99_us, 980_000.0);
    }
}
