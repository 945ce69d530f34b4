//! The metrics registry: counters, gauges and log2-bucketed histograms
//! behind cheap cloneable handles.
//!
//! A [`Registry`] is a named directory of metrics. Handles returned by
//! [`Registry::counter`] / [`Registry::gauge`] / [`Registry::histogram`]
//! / [`Registry::timing`] share the underlying atomics: asking twice
//! for the same name yields handles onto the *same* metric, which is
//! how per-store counters aggregate deployment-wide without any
//! coordination — every store increments the one `store.syncs` counter.
//!
//! Recording is lock-free (one `AtomicU64` op); only handle creation
//! and snapshots take the registry lock. Histograms bucket values by
//! their power of two: bucket 0 holds exactly the value `0`, bucket
//! `i ≥ 1` holds `[2^(i-1), 2^i - 1]`, and the top bucket ends at
//! `u64::MAX` — 65 buckets cover the full `u64` range, which is plenty
//! of resolution for nanosecond latencies and byte counts alike.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for `0`, else `1 + floor(log2(v))`.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The smallest value bucket `index` holds (`0`, then `2^(index-1)`).
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter attached to no registry (testing, default handles).
    pub fn detached() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value set to the latest observation.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge attached to no registry.
    pub fn detached() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram state.
#[derive(Debug)]
struct HistogramCore {
    /// Marks wall-clock timing data, excluded from
    /// [`Registry::deterministic_snapshot`].
    timing: bool,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// A log2-bucketed histogram handle.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(timing: bool) -> Histogram {
        Histogram(Arc::new(HistogramCore {
            timing,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// A histogram attached to no registry.
    pub fn detached() -> Histogram {
        Histogram::new(false)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &self.0;
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Whether this histogram holds wall-clock timing data.
    pub fn is_timing(&self) -> bool {
        self.0.timing
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        HistogramSnapshot {
            timing: core.timing,
            count: core.count.load(Ordering::Relaxed),
            sum: core.sum.load(Ordering::Relaxed),
            max: core.max.load(Ordering::Relaxed),
            buckets: core
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Whether the histogram holds wall-clock timing data.
    pub timing: bool,
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Largest observation.
    pub max: u64,
    /// Occupied buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One metric's snapshotted value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram's state.
    Histogram(HistogramSnapshot),
}

/// The registry-internal handle union. The `bool` on counters marks
/// *volatile* metrics — values that legitimately differ between runs of
/// the same deterministic workload (reader cache hits, injected-fault
/// counts) and are therefore excluded from
/// [`Registry::deterministic_snapshot`], exactly like wall-clock timing
/// histograms.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter, bool),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(..) => "counter",
            Metric::Gauge(..) => "gauge",
            Metric::Histogram(h) => {
                if h.is_timing() {
                    "timing"
                } else {
                    "histogram"
                }
            }
        }
    }
}

/// A named directory of metrics. Cloning shares the directory.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        make: impl FnOnce() -> Metric,
        extract: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let metric = metrics.entry(name.to_string()).or_insert_with(make).clone();
        extract(&metric)
            .unwrap_or_else(|| panic!("metric '{name}' already registered as a {}", metric.kind()))
    }

    /// A counter handle for `name` (created on first ask; later asks
    /// share the same atomic).
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            || Metric::Counter(Counter::detached(), false),
            |m| match m {
                Metric::Counter(c, _) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// A counter handle for `name` marked *volatile*: its value depends
    /// on scheduling (e.g. how often reader threads hit a cache), so
    /// it is excluded from [`Registry::deterministic_snapshot`]. The
    /// flag is fixed at first registration — a later plain
    /// [`Registry::counter`] ask for the same name shares the atomic
    /// and keeps the volatile marking.
    pub fn volatile_counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            || Metric::Counter(Counter::detached(), true),
            |m| match m {
                Metric::Counter(c, _) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// A gauge handle for `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            || Metric::Gauge(Gauge::detached()),
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// A histogram handle for `name` (deterministic data: byte sizes,
    /// record counts — included in every snapshot flavour).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            || Metric::Histogram(Histogram::new(false)),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// A histogram handle for `name` marked as wall-clock timing data:
    /// excluded from [`Registry::deterministic_snapshot`], since two
    /// runs of the same deterministic workload never agree on
    /// nanoseconds.
    pub fn timing(&self, name: &str) -> Histogram {
        self.get_or_insert(
            name,
            || Metric::Histogram(Histogram::new(true)),
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        self.snapshot_filtered(|_| true)
    }

    /// Snapshot excluding wall-clock timing histograms and volatile
    /// counters — the flavour two runs of one workload can
    /// compare, since counts, gauges and size histograms are
    /// deterministic while nanosecond timings and scheduling-dependent
    /// values (reader cache hits, injected-fault counts) never are.
    pub fn deterministic_snapshot(&self) -> Snapshot {
        self.snapshot_filtered(|m| match m {
            Metric::Histogram(h) => !h.is_timing(),
            Metric::Counter(_, volatile) => !volatile,
            Metric::Gauge(_) => true,
        })
    }

    fn snapshot_filtered(&self, keep: impl Fn(&Metric) -> bool) -> Snapshot {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        Snapshot {
            entries: metrics
                .iter()
                .filter(|(_, m)| keep(m))
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c, _) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }

    /// Every wall-clock timing histogram, sorted by name — the phase
    /// breakdown `tests/observability.rs` reads.
    pub fn timings(&self) -> Vec<(String, HistogramSnapshot)> {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        metrics
            .iter()
            .filter_map(|(name, m)| match m {
                Metric::Histogram(h) if h.is_timing() => Some((name.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }
}

/// A point-in-time copy of a registry, comparable and renderable.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Metric values by name (sorted: `BTreeMap` iteration order).
    pub entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The named counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram's state, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(v) => writeln!(f, "{name} = {v} (counter)")?,
                MetricValue::Gauge(v) => writeln!(f, "{name} = {v} (gauge)")?,
                MetricValue::Histogram(h) => writeln!(
                    f,
                    "{name} count={} sum={} max={} mean={:.1}",
                    h.count,
                    h.sum,
                    h.max,
                    h.mean()
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_cover_the_u64_range() {
        // 0 is its own bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_lower_bound(0), 0);
        // 1 starts bucket 1; each power of two starts a new bucket and
        // the value just below it ends the previous one.
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_lower_bound(1), 1);
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            assert_eq!(bucket_index(lo), i, "2^{} starts bucket {i}", i - 1);
            assert_eq!(bucket_index(lo * 2 - 1), i, "top of bucket {i}");
            assert_eq!(bucket_lower_bound(i), lo);
        }
        // The extremes land inside the array.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_lower_bound(HISTOGRAM_BUCKETS - 1), 1u64 << 63);
    }

    #[test]
    fn histogram_records_zero_and_max_without_loss() {
        let h = Histogram::detached();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.buckets, vec![(0, 1), (1u64 << 63, 1)]);
        // The sum wrapped? No: 0 + MAX fits exactly.
        assert_eq!(snap.sum, u64::MAX);
    }

    #[test]
    fn registry_handles_share_state_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x").get(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn deterministic_snapshot_excludes_timing_histograms() {
        let reg = Registry::new();
        reg.counter("net.sent").add(7);
        reg.gauge("store.live_bytes").set(42);
        reg.histogram("store.replay_bytes").record(100);
        reg.timing("quiesce.step_ns").record(12345);

        let full = reg.snapshot();
        assert!(full.histogram("quiesce.step_ns").is_some());

        let det = reg.deterministic_snapshot();
        assert!(det.histogram("quiesce.step_ns").is_none());
        assert_eq!(det.counter("net.sent"), Some(7));
        assert_eq!(det.gauge("store.live_bytes"), Some(42));
        assert!(det.histogram("store.replay_bytes").is_some());
    }

    #[test]
    fn deterministic_snapshot_excludes_volatile_metrics() {
        let reg = Registry::new();
        reg.volatile_counter("cache.hits").add(3);
        reg.counter("net.sent").add(1);

        let full = reg.snapshot();
        assert_eq!(full.counter("cache.hits"), Some(3));

        let det = reg.deterministic_snapshot();
        assert_eq!(det.counter("cache.hits"), None);
        assert_eq!(det.counter("net.sent"), Some(1));

        // The volatile flag sticks: a later plain ask shares the atomic
        // and the metric stays excluded.
        reg.counter("cache.hits").inc();
        assert_eq!(reg.snapshot().counter("cache.hits"), Some(4));
        assert_eq!(reg.deterministic_snapshot().counter("cache.hits"), None);
    }

    #[test]
    fn snapshots_compare_independent_of_registration_order() {
        let a = Registry::new();
        a.counter("one").add(1);
        a.counter("two").add(2);
        let b = Registry::new();
        b.counter("two").add(2);
        b.counter("one").add(1);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        let h = reg.timing("lat_ns");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
