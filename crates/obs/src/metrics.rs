//! Typed metrics: counters, gauges, log₂ histograms, and a name-keyed
//! registry.
//!
//! Every primitive is lock-free on the hot path (relaxed atomics); the
//! registry takes a mutex only on first lookup of a name, after which
//! callers hold an `Arc` to the instrument and never touch the map
//! again. Relaxed ordering is sufficient throughout: each instrument is
//! independent, and a snapshot is a statistically consistent view, not
//! a transactional one.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of log₂ histogram buckets. Bucket 0 holds the value `0`,
/// bucket `i` (for `1 <= i < 63`) holds values in `[2^(i-1), 2^i)`, and
/// bucket 63 holds everything from `2^62` up to and including
/// `u64::MAX` — every `u64` lands in exactly one bucket, no value
/// panics or is silently dropped.
pub const BUCKETS: usize = 64;

/// The bucket a value lands in. Total over all of `u64`:
/// `bucket_index(0) == 0`, `bucket_index(u64::MAX) == BUCKETS - 1`.
pub fn bucket_index(v: u64) -> usize {
    // leading_zeros(0) == 64, so 0 maps to bucket 0 without a branch;
    // the min() clamp folds the open-ended top range into bucket 63.
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add 1; returns the previous value.
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Add `n` (relaxed); returns the previous value.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Add `n` with an explicit ordering; returns the previous value.
    /// Mirrors `AtomicU64::fetch_add` so counters drop in where a raw
    /// atomic used to live.
    pub fn fetch_add(&self, n: u64, order: Ordering) -> u64 {
        self.0.fetch_add(n, order)
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Current value with an explicit ordering.
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }
}

/// A gauge: a value that can move in either direction.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the value (relaxed).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed)
    }

    /// Set the value with an explicit ordering. Mirrors
    /// `AtomicU64::store`.
    pub fn store(&self, v: u64, order: Ordering) {
        self.0.store(v, order)
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Current value with an explicit ordering.
    pub fn load(&self, order: Ordering) -> u64 {
        self.0.load(order)
    }
}

/// A trace-id exemplar pinned to a histogram bucket: the most recent
/// traced observation that landed there, so a p99 outlier bucket links
/// straight to the flight record / trace of a request that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observing request's 128-bit trace id (never 0 — untraced
    /// observations record no exemplar).
    pub trace_id: u128,
    /// The observed value.
    pub value: u64,
}

/// A fixed-bucket log₂ histogram over unit-agnostic `u64` observations
/// (callers pick nanoseconds, microseconds, bytes, …).
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    total: AtomicU64,
    count: AtomicU64,
    /// Last-write-wins per-bucket exemplars. A mutex, not atomics: only
    /// [`Histogram::observe_with_exemplar`] (one lock per served wire
    /// request) touches it — plain [`Histogram::observe`] stays
    /// lock-free.
    exemplars: Mutex<Vec<Option<Exemplar>>>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            count: AtomicU64::new(0),
            exemplars: Mutex::new(vec![None; BUCKETS]),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation. Total for the whole `u64` domain: `0`
    /// lands in the first bucket, `u64::MAX` in the last, and the
    /// running sum saturates instead of wrapping.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // Saturating accumulate: a wrapped sum would silently corrupt
        // every mean derived from it, and `u64::MAX` observations are a
        // supported input.
        let mut cur = self.total.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self
                .total
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation and pin it as its bucket's exemplar when
    /// `trace_id` is nonzero. Last write wins — the exemplar always
    /// names a *recent* request that landed in the bucket.
    pub fn observe_with_exemplar(&self, v: u64, trace_id: u128) {
        self.observe(v);
        if trace_id != 0 {
            unpoison(&self.exemplars)[bucket_index(v)] = Some(Exemplar { trace_id, value: v });
        }
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            exemplars: unpoison(&self.exemplars).clone(),
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Saturating sum of all observations.
    pub total: u64,
    /// Per-bucket counts, [`BUCKETS`] long.
    pub buckets: Vec<u64>,
    /// Per-bucket trace-id exemplars (empty or [`BUCKETS`] long).
    pub exemplars: Vec<Option<Exemplar>>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Upper bound of the bucket containing the q-quantile
    /// (`0.0 ..= 1.0`), or 0 when empty — an upper estimate within a
    /// factor of two, like any log₂ sketch.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank.max(1) {
                return Self::bucket_bound(i);
            }
        }
        u64::MAX
    }

    /// Inclusive lower bound of bucket `i` (`0` for the first).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The q-quantile (`0.0 ..= 1.0`) with **sub-bucket linear
    /// interpolation**, or 0.0 when empty.
    ///
    /// The target rank is `q · count` (a fractional sample count); the
    /// walk finds the bucket where the cumulative count crosses it and
    /// interpolates linearly between the bucket's inclusive bounds
    /// `[lo, hi]` by the fraction of the bucket's samples below the
    /// rank: `lo + (rank − cum_below) / bucket_count · (hi − lo)`.
    /// This assumes samples are uniform *within* a bucket, so the
    /// estimate is exact at bucket edges and off by at most one bucket
    /// width (a factor of two in value) in the worst case — much
    /// tighter than [`HistogramSnapshot::quantile_bound`]'s hard upper
    /// bound whenever the data half-fills its top buckets. Bucket 0
    /// holds only the value 0, so it never interpolates.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (self.count as f64) * q.clamp(0.0, 1.0);
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let cum = below + c;
            if (cum as f64) >= rank {
                let lo = Self::bucket_floor(i) as f64;
                let hi = Self::bucket_bound(i) as f64;
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            below = cum;
        }
        Self::bucket_bound(BUCKETS - 1) as f64
    }
}

/// Recover a possibly-poisoned mutex: everything guarded here is a
/// plain map or counter whose invariants survive any panic.
fn unpoison<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A name-keyed registry of instruments. Keys are full Prometheus
/// sample names, labels included (e.g. `xac_oracle_hits_total` or
/// `xac_serve_reads{backend="native/xml"}`); the exporter splits the
/// family name back out at render time.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = unpoison(&self.counters);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = unpoison(&self.gauges);
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = unpoison(&self.histograms);
        map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new())).clone()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        unpoison(&self.counters).iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        unpoison(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect()
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        unpoison(&self.histograms).iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sweep every bucket boundary: `2^i - 1`, `2^i` and `2^i + 1` for
    /// each `i`, plus the two extremes the issue calls out — `0` must
    /// land in the first bucket and `u64::MAX` in the last, without a
    /// panic or a dropped sample.
    #[test]
    fn bucket_boundary_sweep() {
        assert_eq!(bucket_index(0), 0, "zero lands in the first bucket");
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1, "u64::MAX lands in the last bucket");
        assert_eq!(bucket_index(1), 1);
        for i in 1..64u32 {
            let v = 1u64 << i;
            // 2^i opens bucket i+1 (clamped to the last bucket).
            assert_eq!(bucket_index(v), ((i + 1) as usize).min(BUCKETS - 1), "at 2^{i}");
            assert_eq!(bucket_index(v - 1), (i as usize).min(BUCKETS - 1), "at 2^{i}-1");
            if v < u64::MAX {
                assert_eq!(
                    bucket_index(v + 1),
                    ((i + 1) as usize).min(BUCKETS - 1),
                    "at 2^{i}+1"
                );
            }
        }
        // Buckets are monotone in the value: no value can sort below a
        // smaller value's bucket.
        let probes = [0u64, 1, 2, 3, 4, 1023, 1024, 1025, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for w in probes.windows(2) {
            assert!(bucket_index(w[0]) <= bucket_index(w[1]), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn histogram_extremes_never_drop_or_wrap() {
        let h = Histogram::new();
        h.observe(0);
        h.observe(u64::MAX);
        h.observe(u64::MAX); // would wrap a plain sum
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets.iter().sum::<u64>(), 3, "no sample dropped");
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[BUCKETS - 1], 2);
        assert_eq!(s.total, u64::MAX, "sum saturates instead of wrapping");
        assert_eq!(s.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        for v in [0u64, 1, 3, 8, 100, 1000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.total, 1112);
        assert!(s.mean() > 100.0);
        assert!(s.quantile_bound(1.0) >= 1000);
        let empty = HistogramSnapshot { count: 0, total: 0, buckets: vec![], exemplars: vec![] };
        assert_eq!(empty.quantile_bound(0.5), 0);
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn exemplars_pin_the_last_traced_observation_per_bucket() {
        let h = Histogram::new();
        h.observe(100); // untraced: no exemplar
        h.observe_with_exemplar(100, 0xAB); // bucket 7
        h.observe_with_exemplar(70, 0xCD); // same bucket: last write wins
        h.observe_with_exemplar(5000, 0xEF); // bucket 13
        h.observe_with_exemplar(3, 0); // zero trace id: untraced
        let s = h.snapshot();
        assert_eq!(s.exemplars[bucket_index(100)], Some(Exemplar { trace_id: 0xCD, value: 70 }));
        assert_eq!(s.exemplars[bucket_index(5000)], Some(Exemplar { trace_id: 0xEF, value: 5000 }));
        assert_eq!(s.exemplars[bucket_index(3)], None);
        assert_eq!(s.count, 5, "exemplar observations still count");
    }

    /// The interpolated quantile against *exact* order statistics of a
    /// SplitMix64 sample stream: every estimate must land inside the
    /// bucket that contains the exact quantile (the documented error
    /// bound), be monotone in q, and — for a stream uniform over
    /// `[0, 2^20)`, where the within-bucket uniformity assumption holds
    /// exactly in the limit — track the exact value within 5%.
    #[test]
    fn quantile_interpolation_tracks_a_splitmix_stream() {
        let mut state = 42u64;
        let h = Histogram::new();
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            let v = crate::splitmix64(&mut state) % (1 << 20);
            h.observe(v);
            samples.push(v);
        }
        samples.sort_unstable();
        let s = h.snapshot();
        let mut prev = -1.0f64;
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = s.quantile(q);
            // Exact q-quantile at the same rank convention (count * q,
            // ceil to a 1-based rank).
            let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let b = bucket_index(exact);
            let (lo, hi) =
                (HistogramSnapshot::bucket_floor(b), HistogramSnapshot::bucket_bound(b));
            assert!(
                est >= lo as f64 && est <= hi as f64,
                "q={q}: estimate {est} outside exact bucket [{lo}, {hi}] (exact {exact})"
            );
            assert!(
                (est - exact as f64).abs() / (exact as f64).max(1.0) < 0.05,
                "q={q}: estimate {est} vs exact {exact} off by > 5%"
            );
            assert!(est >= prev, "quantiles must be monotone in q");
            prev = est;
        }
        // The uniform stream's median is ~2^19: a direct sanity anchor
        // on the interpolation arithmetic, not just its error bound.
        let p50 = s.quantile(0.5);
        assert!((p50 - (1 << 19) as f64).abs() < 0.05 * (1 << 19) as f64, "median {p50}");
    }

    #[test]
    fn quantile_degenerate_shapes() {
        // All-zero stream: bucket 0 never interpolates.
        let h = Histogram::new();
        for _ in 0..5 {
            h.observe(0);
        }
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
        // Single value: every quantile lands in its bucket.
        let h = Histogram::new();
        h.observe(700);
        let est = h.snapshot().quantile(0.5);
        let b = bucket_index(700);
        assert!(est >= HistogramSnapshot::bucket_floor(b) as f64);
        assert!(est <= HistogramSnapshot::bucket_bound(b) as f64);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        assert_eq!(c.inc(), 0);
        assert_eq!(c.add(4), 1);
        assert_eq!(c.fetch_add(5, Ordering::Relaxed), 5);
        assert_eq!(c.get(), 10);
        assert_eq!(c.load(Ordering::Relaxed), 10);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.store(3, Ordering::Relaxed);
        assert_eq!(g.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn registry_returns_the_same_instrument_per_name() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x_total").get(), 5);
        assert_eq!(r.counters(), vec![("x_total".to_string(), 5)]);
        r.gauge("g").set(9);
        assert_eq!(r.gauges(), vec![("g".to_string(), 9)]);
        r.histogram("h").observe(1);
        assert_eq!(r.histograms().len(), 1);
        assert_eq!(r.histograms()[0].1.count, 1);
    }
}
