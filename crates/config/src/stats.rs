//! Lightweight statistics primitives shared by the timing models.

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// let mut hits = qei_config::Counter::default();
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A hit/miss style ratio with safe division.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator events (e.g. hits).
    pub hits: u64,
    /// Total events.
    pub total: u64,
}

impl Ratio {
    /// Records one event, a hit if `hit` is true.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Hit fraction in `[0, 1]`; zero when nothing was recorded.
    pub fn fraction(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Miss count.
    pub fn misses(self) -> u64 {
        self.total - self.hits
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.1}%)",
            self.hits,
            self.total,
            self.fraction() * 100.0
        )
    }
}

/// An exact, all-integer latency histogram with log2 bucketing.
///
/// Bucket `0` holds the value 0 and bucket `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)`, so the full `u64` range fits in 65 fixed `u64`
/// counters — no allocation, no floats, `Copy`. Percentiles use the
/// nearest-rank rule and report the bucket's inclusive upper bound, which
/// makes them a deterministic pure function of the recorded multiset:
/// `h.percentile(p) == Log2Histogram::bucket_upper_bound(bucket(sorted[rank]))`
/// for the naive sorted-vector nearest-rank sample (the property test pins
/// this identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; 65],
    n: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; 65],
            n: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: 0 for 0, else `floor(log2(v)) + 1`.
    pub fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The largest value bucket `k` can hold (`u64::MAX` for the top bucket).
    pub fn bucket_upper_bound(k: usize) -> u64 {
        match k {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << k) - 1,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.n += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram's samples into this one (bucket-wise sum;
    /// the aggregate is exactly what recording both sample sets would give).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `p`-th percentile, reported as the holding bucket's
    /// upper bound (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    pub fn percentile(&self, p: u32) -> u64 {
        assert!(p <= 100, "percentile out of range");
        if self.n == 0 {
            return 0;
        }
        // Nearest rank: the ceil(p·n/100)-th smallest sample, 1-based.
        // u128 keeps p·n exact for any u64 count.
        let rank = ((u128::from(p) * u128::from(self.n)).div_ceil(100)).max(1);
        let mut seen: u128 = 0;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += u128::from(c);
            if seen >= rank {
                return Self::bucket_upper_bound(k);
            }
        }
        self.max
    }

    /// Median (nearest-rank, bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99)
    }

    /// The occupied buckets as `(bucket index, count)` pairs in ascending
    /// bucket order — the registry/JSON encoding.
    pub fn nonzero_buckets(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k as u32, c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(Counter::default().to_string(), "0");
    }

    #[test]
    fn ratio_fraction_and_display() {
        let mut r = Ratio::default();
        assert_eq!(r.fraction(), 0.0);
        r.record(true);
        r.record(true);
        r.record(false);
        assert!((r.fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.misses(), 1);
        assert!(r.to_string().contains("2/3"));
    }

    #[test]
    fn log2_bucketing_boundaries() {
        assert_eq!(Log2Histogram::bucket(0), 0);
        assert_eq!(Log2Histogram::bucket(1), 1);
        assert_eq!(Log2Histogram::bucket(2), 2);
        assert_eq!(Log2Histogram::bucket(3), 2);
        assert_eq!(Log2Histogram::bucket(4), 3);
        assert_eq!(Log2Histogram::bucket(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Log2Histogram::bucket_upper_bound(1), 1);
        assert_eq!(Log2Histogram::bucket_upper_bound(2), 3);
        assert_eq!(Log2Histogram::bucket_upper_bound(64), u64::MAX);
        // Every nonzero value's bucket upper bound is >= the value and the
        // previous bucket's bound is < the value.
        for v in [1u64, 2, 3, 7, 8, 1023, 1024, 1 << 40, u64::MAX] {
            let k = Log2Histogram::bucket(v);
            assert!(Log2Histogram::bucket_upper_bound(k) >= v);
            assert!(Log2Histogram::bucket_upper_bound(k - 1) < v);
        }
    }

    #[test]
    fn log2_histogram_records_and_summarizes() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.percentile(99), 0);
        for v in [0u64, 1, 1, 5, 900] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 907);
        assert_eq!(h.max(), 900);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (3, 1), (10, 1)]);
        // Rank of p50 over 5 samples is ceil(2.5) = 3 → the second `1`.
        assert_eq!(h.p50(), 1);
        // p99 rank is ceil(4.95) = 5 → 900, bucket 10 upper bound 1023.
        assert_eq!(h.p99(), 1023);
    }

    #[test]
    fn log2_histogram_saturates_sum() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(100), u64::MAX);
    }

    #[test]
    fn log2_merge_equals_recording_both_sets() {
        let (mut a, mut b, mut both) = (
            Log2Histogram::new(),
            Log2Histogram::new(),
            Log2Histogram::new(),
        );
        for v in [0u64, 3, 17, 900] {
            a.record(v);
            both.record(v);
        }
        for v in [5u64, 17, 40_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.count(), 7);
        assert_eq!(a.max(), 40_000);
    }

    /// The naive reference: sort the samples, take the nearest-rank value,
    /// and quantize it to its bucket's upper bound.
    fn naive_percentile(samples: &[u64], p: u32) -> u64 {
        if samples.is_empty() {
            return 0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((u128::from(p) * sorted.len() as u128).div_ceil(100)).max(1);
        let v = sorted[(rank - 1) as usize];
        Log2Histogram::bucket_upper_bound(Log2Histogram::bucket(v))
    }

    #[test]
    fn log2_percentiles_match_naive_sorted_vector() {
        let mut rng = crate::SimRng::seed_from_u64(0x000B_5E4A_B1E5);
        for trial in 0..64 {
            let n = 1 + (rng.next_u64() % 400) as usize;
            let mut h = Log2Histogram::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                // Skew toward small values but hit every magnitude, and
                // force exact bucket-boundary values (2^k - 1, 2^k) often.
                let shift = rng.next_u64() % 64;
                let v = match rng.next_u64() % 4 {
                    0 => rng.next_u64() >> shift,
                    1 => (1u64 << (shift.min(63))) - 1,
                    2 => 1u64 << (shift.min(63)),
                    _ => rng.next_u64() % 5,
                };
                h.record(v);
                samples.push(v);
            }
            for p in [0u32, 1, 25, 50, 90, 99, 100] {
                assert_eq!(
                    h.percentile(p),
                    naive_percentile(&samples, p),
                    "trial {trial}: p{p} diverged over {n} samples"
                );
            }
        }
    }
}
