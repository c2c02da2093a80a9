//! Metrics primitives: counters, gauges, log-bucketed histograms.
//!
//! The paper's measurement discipline (§3.4) is "count what the code
//! actually did on every processor" — messages, bytes, seconds per
//! component. These primitives are the process-local generalization: all
//! are lock-free atomics, safe to update from every rank thread, and —
//! critically for the hot path — **allocation-free to update**. Allocation
//! happens only at registration time, which call sites do once.
//!
//! Histograms bucket by the binary exponent of the observed value (one
//! bucket per power of two), the classic trick for latency-style
//! distributions: constant-time insert, fixed memory, relative-error
//! bounded by 2×.

use crate::json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at 0.0.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: exponents −32..=30 plus an underflow bucket
/// (index 0, values < 2⁻³²  or ≤ 0) and an overflow bucket (index 63).
const BUCKETS: usize = 64;
/// Bias added to a value's binary exponent to get its bucket index.
const EXP_BIAS: i32 = 33;

/// A log-bucketed histogram of non-negative `f64` observations.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of observations, as `f64` bits, updated by CAS.
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: 0 for ≤ 0 / tiny, 63 for huge, else one
    /// bucket per binary exponent.
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 || !v.is_finite() {
            return 0;
        }
        // IEEE-754 biased exponent; subnormals land in the underflow bucket.
        let biased = ((v.to_bits() >> 52) & 0x7ff) as i32;
        let exp = biased - 1023;
        (exp + EXP_BIAS).clamp(0, BUCKETS as i32 - 1) as usize
    }

    /// Lower bound of a bucket (0.0 for the underflow bucket).
    fn bucket_floor(idx: usize) -> f64 {
        if idx == 0 {
            0.0
        } else {
            (2.0f64).powi(idx as i32 - EXP_BIAS)
        }
    }

    /// Record one observation. Lock-free and allocation-free.
    pub fn observe(&self, v: f64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + v).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Snapshot the non-empty buckets as `(lower_bound, count)`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then(|| (Self::bucket_floor(i), n))
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the log-spaced bucket containing the target rank. Accurate
    /// to within one power of two — the resolution the histogram keeps.
    /// Returns 0.0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).max(1.0);
        let mut seen = 0.0;
        for &(lo, n) in &self.buckets {
            let n = n as f64;
            if seen + n >= target {
                // Each bucket spans one binary exponent: [lo, 2·lo). The
                // underflow bucket (lo = 0) tops out at the first real
                // bucket's floor.
                let hi = if lo == 0.0 {
                    Histogram::bucket_floor(1)
                } else {
                    lo * 2.0
                };
                return lo + (hi - lo) * ((target - seen) / n);
            }
            seen += n;
        }
        // Rounding left the target past the last bucket: report its edge.
        self.buckets
            .last()
            .map_or(0.0, |&(lo, _)| if lo == 0.0 { 0.0 } else { lo * 2.0 })
    }
}

/// A named collection of metrics. Handles are `Arc`s, so call sites register
/// once (allocating) and update forever after without touching the registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<Counter>)>>,
    gauges: Mutex<Vec<(String, Arc<Gauge>)>>,
    histograms: Mutex<Vec<(String, Arc<Histogram>)>>,
}

fn get_or_insert<T: Default>(list: &Mutex<Vec<(String, Arc<T>)>>, name: &str) -> Arc<T> {
    let mut list = list.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, v)) = list.iter().find(|(n, _)| n == name) {
        return Arc::clone(v);
    }
    let v = Arc::new(T::default());
    list.push((name.to_string(), Arc::clone(&v)));
    v
}

impl MetricsRegistry {
    /// An empty registry.
    pub const fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(Vec::new()),
            gauges: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
        }
    }

    /// Get (or create) the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Get (or create) the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Get (or create) the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Serialize as a JSON object.
    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Value::Num(*v as f64)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Value::Num(*v)))
                .collect(),
        );
        let histograms = Value::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    let buckets = Value::Arr(
                        h.buckets
                            .iter()
                            .map(|&(lo, c)| Value::Arr(vec![Value::Num(lo), Value::Num(c as f64)]))
                            .collect(),
                    );
                    (
                        n.clone(),
                        Value::obj(vec![
                            ("count", Value::Num(h.count as f64)),
                            ("sum", Value::Num(h.sum)),
                            ("buckets", buckets),
                        ]),
                    )
                })
                .collect(),
        );
        Value::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_last_value_wins() {
        let g = Gauge::new();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::new();
        h.observe(1.5); // exponent 0
        h.observe(1.9); // exponent 0
        h.observe(4.0); // exponent 2
        h.observe(0.0); // underflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 7.4).abs() < 1e-12);
        assert_eq!(s.buckets, vec![(0.0, 1), (1.0, 2), (4.0, 1)]);
    }

    #[test]
    fn histogram_extremes_clamp() {
        let h = Histogram::new();
        h.observe(1e300); // overflow bucket
        h.observe(1e-300); // underflow bucket
        h.observe(-5.0); // underflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets.len(), 2);
        assert_eq!(s.buckets[0].1, 2); // the two tiny/negative values
    }

    #[test]
    fn registry_returns_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("steps");
        let b = r.counter("steps");
        a.inc();
        b.inc();
        assert_eq!(r.counter("steps").get(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_serializes() {
        let r = MetricsRegistry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.gauge("imbalance").set(0.25);
        r.histogram("step_seconds").observe(0.5);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0, "a.first");
        let json = s.to_json().to_string();
        let parsed = Value::parse(&json).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("a.first")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("imbalance")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("step_seconds")
                .unwrap()
                .get("count")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn quantile_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_brackets_observations_and_is_monotone() {
        let h = Histogram::new();
        // 90 fast observations near 0.001, 10 slow near 10.0.
        for _ in 0..90 {
            h.observe(0.001);
        }
        for _ in 0..10 {
            h.observe(10.0);
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5);
        let p95 = snap.quantile(0.95);
        // p50 must land in the bucket holding 0.001 (one power of two
        // around it), p95 in the bucket holding 10.0.
        assert!(p50 > 0.0005 && p50 < 0.002, "p50 {p50}");
        assert!((8.0..=16.0).contains(&p95), "p95 {p95}");
        // Monotone in q, and the extremes stay within the data's buckets.
        let mut prev = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = snap.quantile(q);
            assert!(
                v >= prev,
                "quantile must be monotone: q={q} v={v} prev={prev}"
            );
            prev = v;
        }
        assert!(snap.quantile(1.0) <= 16.0);
    }

    #[test]
    fn quantile_single_observation() {
        let h = Histogram::new();
        h.observe(3.0);
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.95, 1.0] {
            let v = snap.quantile(q);
            assert!((2.0..=4.0).contains(&v), "q={q} v={v}");
        }
    }
}
