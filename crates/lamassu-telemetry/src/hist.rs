//! Fixed-bucket log-linear latency histograms.
//!
//! A [`Histogram`] is a preallocated array of `AtomicU64` buckets covering
//! the whole `u64` range: values below 8 get their own width-1 bucket, and
//! every octave above that is split into 8 linear sub-buckets, so relative
//! bucket width is at most 12.5 % everywhere. That gives HdrHistogram-style
//! quantile accuracy (estimates are off by less than one bucket width, i.e.
//! one part in eight) from a flat 496-slot table of ~4 KiB — small enough to
//! keep one histogram per latency category per mount, preallocated, with a
//! completely lock-free, allocation-free [`Histogram::record`].
//!
//! [`HistSnapshot`] is the read side: a plain copied-out bucket vector that
//! can be [merged](HistSnapshot::merge) across threads, jobs or mounts
//! (merged snapshots are exactly the histogram of the union of the inputs)
//! and reduced to p50/p95/p99/max via [`HistSnapshot::quantile`] or the
//! compact [`LatencySummary`].

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sub-buckets per octave (8 → ≤ 12.5 % relative bucket width).
const SUB_BUCKETS: usize = 8;

/// Total bucket count: indices 0..16 are width-1, then 8 sub-buckets for
/// each of the remaining 60 octaves up to `u64::MAX`.
pub const NUM_BUCKETS: usize = 496;

/// The bucket index holding `v`. Monotone in `v`; total over all of `u64`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        // Bit length of v (≥ 4). The top bit picks the octave, the next
        // three bits pick the linear sub-bucket inside it.
        let b = 64 - v.leading_zeros() as usize;
        let sub = ((v >> (b - 4)) & 7) as usize;
        (b - 3) * SUB_BUCKETS + sub
    }
}

/// Smallest value landing in bucket `i` (the bucket is
/// `[bucket_lower(i), bucket_lower(i + 1))`; the last bucket is closed at
/// `u64::MAX`).
pub fn bucket_lower(i: usize) -> u64 {
    if i < 2 * SUB_BUCKETS {
        i as u64
    } else {
        let octave = i / SUB_BUCKETS; // ≥ 2
        let sub = (i % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + sub) << (octave - 1)
    }
}

/// Largest value landing in bucket `i`.
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

struct HistInner {
    buckets: Box<[AtomicU64]>, // NUM_BUCKETS long, preallocated
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64, // u64::MAX until the first record
    max: AtomicU64,
}

/// A shareable, preallocated, lock-free latency histogram (see the module
/// docs). Cloning is cheap and shares the same buckets.
///
/// # Examples
///
/// ```
/// use lamassu_telemetry::Histogram;
///
/// let h = Histogram::new();
/// for v in [10, 12, 900, 90_000] {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.max, 90_000);
/// assert!(snap.quantile(0.5) >= 10 && snap.quantile(0.5) <= 13);
/// ```
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.quantile(0.5))
            .field("max", &s.max)
            .finish()
    }
}

impl Histogram {
    /// Creates an empty histogram. This is the **one** allocating call —
    /// everything after construction is atomics on preallocated storage.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// True if `other` shares this histogram's buckets.
    pub fn same_histogram(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Records one value. Lock-free, allocation-free, wait-free on every
    /// mainstream platform — safe on the zero-allocation hot path.
    #[inline]
    pub fn record(&self, value: u64) {
        let i = &self.inner;
        i.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        i.count.fetch_add(1, Ordering::Relaxed);
        i.sum.fetch_add(value, Ordering::Relaxed);
        i.min.fetch_min(value, Ordering::Relaxed);
        i.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Copies the current state out. Concurrent recorders may land between
    /// the individual loads, so a snapshot's totals can trail its buckets by
    /// in-flight records; each counter itself is exact and monotone.
    pub fn snapshot(&self) -> HistSnapshot {
        let i = &self.inner;
        let buckets: Vec<u64> = i
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = i.count.load(Ordering::Relaxed);
        HistSnapshot {
            buckets,
            count,
            sum: i.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                i.min.load(Ordering::Relaxed)
            },
            max: i.max.load(Ordering::Relaxed),
        }
    }

    /// Estimates the `q`-quantile directly from the live buckets, without
    /// copying a snapshot out — **allocation-free**, so hot-path consumers
    /// (e.g. a hedged-read threshold refresh) can call it per-op. Same
    /// bucket-resolution estimate as [`HistSnapshot::quantile`]; under
    /// concurrent recording the walk sees each bucket once, so the estimate
    /// can trail in-flight records by at most those records. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let i = &self.inner;
        let count = i.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let max = i.max.load(Ordering::Relaxed);
        let min = i.min.load(Ordering::Relaxed);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, bucket) in i.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(b).min(max).max(min);
            }
        }
        max
    }

    /// Total recorded values (allocation-free; see [`Histogram::quantile`]).
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of the recorded values (allocation-free, wrapping).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Zeroes every bucket and counter (a measurement-window reset). Racing
    /// recorders are not lost wholesale — each atomic is cleared
    /// independently — but a record striding the reset may split across the
    /// windows; don't reset while precise cross-window accounting matters.
    pub fn reset(&self) {
        let i = &self.inner;
        for b in i.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        i.count.store(0, Ordering::Relaxed);
        i.sum.store(0, Ordering::Relaxed);
        i.min.store(u64::MAX, Ordering::Relaxed);
        i.max.store(0, Ordering::Relaxed);
    }
}

/// A copied-out histogram state: mergeable, quantile-queryable, serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts, [`NUM_BUCKETS`] long (see [`bucket_lower`]).
    pub buckets: Vec<u64>,
    /// Total recorded values.
    pub count: u64,
    /// Sum of all recorded values (wrapping only after ~584 years of
    /// nanoseconds).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Element-wise union: the merged snapshot is exactly the histogram of
    /// all values recorded into either input.
    pub fn merge(&self, other: &HistSnapshot) -> HistSnapshot {
        let buckets = self
            .buckets
            .iter()
            .zip(other.buckets.iter())
            .map(|(a, b)| a + b)
            .collect();
        HistSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
            min: match (self.count, other.count) {
                (0, _) => other.min,
                (_, 0) => self.min,
                _ => self.min.min(other.min),
            },
            max: self.max.max(other.max),
        }
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) of the recorded values.
    /// The estimate lies in the same bucket as the exact quantile, so the
    /// error is below one bucket width (≤ 12.5 % of the value). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The exact rank-th value is somewhere in bucket i; report
                // the bucket's top clamped into the observed range.
                return bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median estimate (see [`HistSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Reduces to the compact fixed-size summary used in result structs.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ns: self.mean() as u64,
            p50_ns: self.p50(),
            p95_ns: self.p95(),
            p99_ns: self.p99(),
            max_ns: self.max,
        }
    }
}

impl Serialize for HistSnapshot {
    /// Compact form: totals, quantiles, and only the non-empty buckets as
    /// `[bucket lower bound, count]` pairs.
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Value::Array(vec![Value::U64(bucket_lower(i)), Value::U64(n)]))
            .collect();
        Value::Object(vec![
            ("count".into(), Value::U64(self.count)),
            ("sum".into(), Value::U64(self.sum)),
            ("min".into(), Value::U64(self.min)),
            ("max".into(), Value::U64(self.max)),
            ("p50".into(), Value::U64(self.p50())),
            ("p95".into(), Value::U64(self.p95())),
            ("p99".into(), Value::U64(self.p99())),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }
}

/// Fixed-size latency roll-up (nanoseconds) for embedding in `Copy` result
/// structs like `lamassu-workloads`' `FioResult`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Operations measured.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: u64,
    /// Median latency estimate in nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency estimate in nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency estimate in nanoseconds.
    pub p99_ns: u64,
    /// Worst observed latency in nanoseconds.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_quantile_matches_snapshot_quantile() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0, "empty histogram");
        let mut x = 0x1234_5678u64;
        for _ in 0..500 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 1_000_000);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), snap.quantile(q), "q={q}");
        }
        assert_eq!(h.count(), 500);
    }

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let probes = [
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = None;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < NUM_BUCKETS, "index {i} out of range for {v}");
            assert!(bucket_lower(i) <= v, "lower bound violated for {v}");
            assert!(v <= bucket_upper(i), "upper bound violated for {v}");
            if let Some(prev) = last {
                assert!(i >= prev, "index not monotone at {v}");
            }
            last = Some(i);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_tile_the_line() {
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(
                bucket_upper(i) + 1,
                bucket_lower(i + 1),
                "gap or overlap after bucket {i}"
            );
        }
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn record_snapshot_quantiles() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        // Exact p50 is 500; one bucket width at 500 is 32.
        let p50 = s.p50();
        assert!((468..=532).contains(&p50), "p50 estimate {p50}");
        let p99 = s.p99();
        assert!((926..=1000).contains(&p99), "p99 estimate {p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.p50(), 0);
        assert_eq!(s.summary(), LatencySummary::default());
    }

    #[test]
    fn merge_is_the_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [3u64, 9, 40, 700] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 40, 1_000_000] {
            b.record(v);
            both.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn merge_with_empty_keeps_min() {
        let a = Histogram::new();
        a.record(42);
        let merged = a.snapshot().merge(&HistSnapshot::default());
        assert_eq!(merged.min, 42);
        let merged = HistSnapshot::default().merge(&a.snapshot());
        assert_eq!(merged.min, 42);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record(5);
        h.record(12345);
        h.reset();
        assert_eq!(h.snapshot(), HistSnapshot::default());
        h.record(7);
        assert_eq!(h.snapshot().min, 7);
    }

    #[test]
    fn clones_share_buckets() {
        let h = Histogram::new();
        let h2 = h.clone();
        h2.record(99);
        assert!(h.same_histogram(&h2));
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + (i % 997));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn serializes_compactly() {
        let h = Histogram::new();
        h.record(10);
        h.record(10);
        let json = serde_json::to_string(&h.snapshot()).unwrap();
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("[10,2]"), "{json}");
    }
}
