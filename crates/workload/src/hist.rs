//! Log-bucketed latency histogram with lock-free per-thread merge.
//!
//! Each worker thread owns a private [`LatencyHistogram`] and records into it
//! with plain (non-atomic) stores; the driver merges the per-thread
//! histograms after `join`, so no lock or atomic is ever taken on the hot
//! path. Values are recorded in **nanoseconds** and summarised in
//! microseconds.
//!
//! The bucket layout is HDR-style: values below `2^SUB_BITS` get one exact
//! bucket each, and every power-of-two octave above that is split into
//! `2^SUB_BITS` equal sub-buckets, bounding the relative quantisation error
//! at `2^-SUB_BITS` (~3 % for `SUB_BITS = 5`) across the full `u64` range.
//! Percentiles report the *inclusive upper bound* of the bucket they land in,
//! which keeps reported quantiles monotone (p50 ≤ p95 ≤ p99 ≤ p999) by
//! construction — the property the `face-bench schema` suite asserts on committed
//! benchmark JSON.

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Octaves cover exponents `SUB_BITS ..= 63`.
const OCTAVES: usize = 64 - SUB_BITS as usize;
const BUCKETS: usize = SUB_BUCKETS + OCTAVES * SUB_BUCKETS;

/// A fixed-size log-bucketed histogram of nanosecond latencies.
///
/// ```
/// use face_workload::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for us in [100u64, 200, 300, 10_000] {
///     h.record_ns(us * 1_000);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 4);
/// assert!(s.p50_us <= s.p95_us && s.p95_us <= s.p99_us && s.p99_us <= s.p999_us);
/// assert!(s.p999_us >= 10_000.0);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram. ~15 KiB of flat `u64` counters.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0u64; BUCKETS]),
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn bucket_index(value_ns: u64) -> usize {
        if value_ns < SUB_BUCKETS as u64 {
            value_ns as usize
        } else {
            let exp = 63 - value_ns.leading_zeros();
            let sub = ((value_ns >> (exp - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
            SUB_BUCKETS + (exp - SUB_BITS) as usize * SUB_BUCKETS + sub
        }
    }

    /// Inclusive upper bound (ns) of the values mapped to bucket `idx`.
    fn bucket_upper_ns(idx: usize) -> u64 {
        if idx < SUB_BUCKETS {
            idx as u64
        } else {
            let oct = (idx - SUB_BUCKETS) / SUB_BUCKETS;
            let sub = ((idx - SUB_BUCKETS) % SUB_BUCKETS) as u64;
            let exp = oct as u32 + SUB_BITS;
            let width = 1u64 << (exp - SUB_BITS);
            (1u64 << exp) + (sub + 1) * width - 1
        }
    }

    /// Record one latency observation, in nanoseconds.
    pub fn record_ns(&mut self, value_ns: u64) {
        self.counts[Self::bucket_index(value_ns)] += 1;
        self.count += 1;
        self.sum_ns += value_ns as u128;
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Convenience: record a [`std::time::Duration`].
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_ns(elapsed.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another histogram into this one (used to merge per-thread
    /// histograms after `join`).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of recorded values in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the inclusive upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Returns 0 for an empty histogram; the exact
    /// maximum is reported for any quantile landing in the last occupied
    /// bucket's range above `max_ns`.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper_ns(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Flat percentile summary in microseconds.
    pub fn summary(&self) -> LatencySummary {
        let us = |ns: u64| ns as f64 / 1_000.0;
        LatencySummary {
            count: self.count,
            mean_us: self.mean_ns() / 1_000.0,
            p50_us: us(self.quantile_ns(0.50)),
            p95_us: us(self.quantile_ns(0.95)),
            p99_us: us(self.quantile_ns(0.99)),
            p999_us: us(self.quantile_ns(0.999)),
            max_us: us(self.max_ns),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Debug doubles as the serialisation surface in this workspace, so
        // render the summary, never the 1920 raw buckets.
        self.summary().fmt(f)
    }
}

/// Flat percentile summary of a [`LatencyHistogram`], in microseconds.
///
/// `Debug`-derives so it can be embedded in serialisable benchmark rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Exact maximum, µs.
    pub max_us: f64,
}

impl LatencySummary {
    /// An all-zero summary (used for windows that saw no transactions).
    pub fn empty() -> Self {
        Self {
            count: 0,
            mean_us: 0.0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            p999_us: 0.0,
            max_us: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_linear_cutoff() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record_ns(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.quantile_ns(1.0), 31);
        assert_eq!(h.quantile_ns(1.0 / 32.0), 0);
    }

    #[test]
    fn relative_error_bounded() {
        for exp in 6..40u32 {
            let v = (1u64 << exp) + (1u64 << (exp - 2));
            let mut h = LatencyHistogram::new();
            h.record_ns(v);
            h.record_ns(u64::MAX / 2); // pin the max far above v's bucket
            let q = h.quantile_ns(0.25);
            assert!(q >= v, "quantile {q} under-reports {v}");
            assert!(
                (q - v) as f64 <= v as f64 * 0.04,
                "quantile {q} too far above {v}"
            );
        }
    }

    #[test]
    fn quantiles_monotone_and_max_exact() {
        let mut h = LatencyHistogram::new();
        let mut x = 0x1234_5678u64;
        for _ in 0..10_000 {
            // xorshift; values spread over ~6 orders of magnitude
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record_ns(x % 5_000_000_000);
        }
        let s = h.summary();
        assert!(s.p50_us <= s.p95_us);
        assert!(s.p95_us <= s.p99_us);
        assert!(s.p99_us <= s.p999_us);
        assert!(s.p999_us <= s.max_us);
        assert_eq!(h.quantile_ns(1.0), h.max_ns());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 997 + 13;
            if i % 2 == 0 {
                a.record_ns(v);
            } else {
                b.record_ns(v);
            }
            all.record_ns(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max_ns(), all.max_ns());
        for q in [0.5, 0.95, 0.99, 0.999] {
            assert_eq!(a.quantile_ns(q), all.quantile_ns(q));
        }
    }
}
