//! The global metrics registry: sharded atomic counters, gauges, and
//! log-bucketed histograms with percentile readout.
//!
//! Metric kinds and their determinism contract:
//!
//! * **Counter** — monotone `u64`, sharded across cache lines so hot paths
//!   on different threads never contend. Counters record *logical* event
//!   counts (frames written, hops applied, chunks scripted) and are
//!   **deterministic**: for a fixed seed and configuration their totals do
//!   not depend on thread scheduling or worker count.
//! * **Histogram** — log-bucketed distribution of *logical* values (batch
//!   sizes, class counts). Also deterministic.
//! * **Gauge** — instantaneous level with a high-water mark (queue depths,
//!   reorder-buffer occupancy). Scheduling-dependent, **not** deterministic.
//! * **Timer** — a histogram of durations in nanoseconds. Wall-clock
//!   dependent, **not** deterministic.
//!
//! [`Snapshot::deterministic_json`] serializes only the deterministic kinds
//! (counters + histograms); [`Snapshot::to_json`] serializes everything.
//! Both order metrics alphabetically, so equal registries produce
//! byte-identical documents.
//!
//! Recording is gated on a single global flag: every `Lazy*` handle checks
//! [`enabled`] first, so a disabled site costs exactly one relaxed atomic
//! load.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::json::JsonWriter;

/// Global recording flag. All `Lazy*` handles are no-ops while it is off.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether metric recording is currently on (one relaxed load — the entire
/// disabled-path cost of an instrumentation site).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Counter shards. Eight is plenty: the workspace's pipelines run at most a
/// few dozen threads and the shard index is a cheap thread-local.
const COUNTER_SHARDS: usize = 8;

/// A 64-byte-aligned atomic, so neighbouring shards never share a cache
/// line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// This thread's counter shard, assigned round-robin on first use.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    INDEX.with(|i| *i)
}

/// A monotone counter, sharded across cache lines.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

impl Counter {
    pub(crate) fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The exact total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// An instantaneous level with a high-water mark.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
    max: AtomicI64,
}

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
            max: AtomicI64::new(i64::MIN),
        }
    }

    /// Sets the level, updating the high-water mark.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `delta`, updating the high-water mark.
    #[inline]
    pub fn add(&self, delta: i64) {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.max.fetch_max(now, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level seen since the last reset.
    pub fn high_water(&self) -> i64 {
        self.max.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.max.store(i64::MIN, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: values 0–7 get exact buckets, then four
/// linear sub-buckets per power-of-two octave up to `u64::MAX` (relative
/// quantization error ≤ 25%).
pub const HIST_BUCKETS: usize = 252;

/// The bucket index of `v`. Exact for `v < 8`.
fn bucket_of(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // v in [2^msb, 2^(msb+1))
    let sub = ((v >> (msb - 2)) & 3) as usize;
    4 * (msb - 1) + sub
}

/// The largest value mapping to bucket `b` — the deterministic value a
/// percentile readout reports for that bucket.
fn bucket_upper(b: usize) -> u64 {
    if b < 8 {
        return b as u64;
    }
    let msb = b / 4 + 1;
    let sub = (b % 4) as u128;
    let upper = (1u128 << msb) + ((sub + 1) << (msb - 2)) - 1;
    upper.min(u64::MAX as u128) as u64
}

/// The value at quantile `q` of a raw bucket-count vector (as copied by
/// [`Histogram::bucket_counts`], or a delta of two copies): the upper bound
/// of the first bucket whose cumulative count reaches `ceil(q · total)`.
/// This is how `obs::timeseries` reads sliding window percentiles out of
/// cumulative histograms without a per-window histogram allocation.
pub fn bucket_percentile(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    for (b, n) in buckets.iter().enumerate() {
        cum += n;
        if cum >= rank {
            return bucket_upper(b);
        }
    }
    bucket_upper(buckets.len().saturating_sub(1))
}

/// A log-bucketed histogram with an exact count, sum and max.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The exact largest observation.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Copies the raw per-bucket counts (index = `bucket_of` of the
    /// observed value). Two copies taken at different times subtract into a
    /// window delta whose percentiles [`bucket_percentile`] reads out.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q · count)`, clamped to
    /// the exact max. Deterministic for a fixed multiset of observations.
    /// Exact for values below 8 (each has its own bucket).
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cum = 0u64;
        for (b, slot) in self.buckets.iter().enumerate() {
            cum += slot.load(Ordering::Relaxed);
            if cum >= rank {
                return bucket_upper(b).min(self.max());
            }
        }
        self.max()
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// What a registered metric is, which decides both its snapshot section and
/// its determinism contract (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Deterministic monotone count.
    Counter,
    /// Scheduling-dependent level + high-water mark.
    Gauge,
    /// Deterministic value distribution.
    Histogram,
    /// Wall-clock duration distribution (nanoseconds).
    Timer,
}

#[derive(Clone, Copy)]
enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
    Timer(&'static Histogram),
}

impl MetricRef {
    fn kind(&self) -> MetricKind {
        match self {
            MetricRef::Counter(_) => MetricKind::Counter,
            MetricRef::Gauge(_) => MetricKind::Gauge,
            MetricRef::Histogram(_) => MetricKind::Histogram,
            MetricRef::Timer(_) => MetricKind::Timer,
        }
    }
}

/// The process-wide metric registry.
struct Registry {
    metrics: Mutex<BTreeMap<String, MetricRef>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        metrics: Mutex::new(BTreeMap::new()),
    })
}

impl Registry {
    /// Looks up or creates a metric. Panics if `name` is already registered
    /// with a different kind — that is a naming bug, not a runtime state.
    fn resolve(&self, name: &str, kind: MetricKind) -> MetricRef {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| match kind {
                MetricKind::Counter => MetricRef::Counter(Box::leak(Box::new(Counter::new()))),
                MetricKind::Gauge => MetricRef::Gauge(Box::leak(Box::new(Gauge::new()))),
                MetricKind::Histogram => {
                    MetricRef::Histogram(Box::leak(Box::new(Histogram::new())))
                }
                MetricKind::Timer => MetricRef::Timer(Box::leak(Box::new(Histogram::new()))),
            });
        assert!(
            entry.kind() == kind,
            "metric `{name}` registered as {:?}, requested as {kind:?}",
            entry.kind()
        );
        // The metric itself is leaked and never removed, so the copied
        // reference inside the entry is 'static.
        *entry
    }
}

/// Zeroes every registered metric (the metrics themselves stay registered).
/// Meant for test harnesses that compare snapshots across runs in one
/// process.
pub fn reset() {
    let metrics = registry().metrics.lock().unwrap_or_else(|e| e.into_inner());
    for metric in metrics.values() {
        match metric {
            MetricRef::Counter(c) => c.reset(),
            MetricRef::Gauge(g) => g.reset(),
            MetricRef::Histogram(h) | MetricRef::Timer(h) => h.reset(),
        }
    }
}

/// A statically-declarable counter handle: resolves its registry entry on
/// first recorded value, never before.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<&'static Counter>,
}

impl LazyCounter {
    /// Declares a counter named `name` (not yet registered).
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Adds `n` if recording is enabled; otherwise a single relaxed load.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.force().add(n);
        }
    }

    /// The underlying registered counter (registers it if needed).
    pub fn force(&self) -> &'static Counter {
        self.cell.get_or_init(
            || match registry().resolve(self.name, MetricKind::Counter) {
                MetricRef::Counter(c) => c,
                _ => unreachable!("resolve checks the kind"),
            },
        )
    }
}

/// A statically-declarable gauge handle.
pub struct LazyGauge {
    name: &'static str,
    cell: OnceLock<&'static Gauge>,
}

impl LazyGauge {
    /// Declares a gauge named `name` (not yet registered).
    pub const fn new(name: &'static str) -> LazyGauge {
        LazyGauge {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Sets the level if recording is enabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.force().set(v);
        }
    }

    /// Adjusts the level if recording is enabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.force().add(delta);
        }
    }

    /// The underlying registered gauge (registers it if needed).
    pub fn force(&self) -> &'static Gauge {
        self.cell
            .get_or_init(|| match registry().resolve(self.name, MetricKind::Gauge) {
                MetricRef::Gauge(g) => g,
                _ => unreachable!("resolve checks the kind"),
            })
    }
}

/// A statically-declarable histogram handle (deterministic values).
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyHistogram {
    /// Declares a histogram named `name` (not yet registered).
    pub const fn new(name: &'static str) -> LazyHistogram {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records `v` if recording is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.force().record(v);
        }
    }

    /// The underlying registered histogram (registers it if needed).
    pub fn force(&self) -> &'static Histogram {
        self.cell.get_or_init(
            || match registry().resolve(self.name, MetricKind::Histogram) {
                MetricRef::Histogram(h) => h,
                _ => unreachable!("resolve checks the kind"),
            },
        )
    }
}

/// A statically-declarable timer handle: a histogram of nanosecond
/// durations, reported in the snapshot's (non-deterministic) timer section.
pub struct LazyTimer {
    name: &'static str,
    cell: OnceLock<&'static Histogram>,
}

impl LazyTimer {
    /// Declares a timer named `name` (not yet registered).
    pub const fn new(name: &'static str) -> LazyTimer {
        LazyTimer {
            name,
            cell: OnceLock::new(),
        }
    }

    /// Records a duration if recording is enabled.
    #[inline]
    pub fn record(&self, d: Duration) {
        if enabled() {
            self.force()
                .record(d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// The underlying registered histogram (registers it if needed).
    pub fn force(&self) -> &'static Histogram {
        self.cell
            .get_or_init(|| match registry().resolve(self.name, MetricKind::Timer) {
                MetricRef::Timer(h) => h,
                _ => unreachable!("resolve checks the kind"),
            })
    }
}

/// Point-in-time readout of a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnap {
    /// The level at snapshot time.
    pub value: i64,
    /// The high-water mark since the last reset (`i64::MIN` if never set).
    pub high_water: i64,
}

/// Point-in-time readout of a histogram or timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnap {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Median (bucket upper bound, clamped to max).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum observation.
    pub max: u64,
}

impl HistSnap {
    fn of(h: &Histogram) -> HistSnap {
        HistSnap {
            count: h.count(),
            sum: h.sum(),
            p50: h.percentile(0.50),
            p90: h.percentile(0.90),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }
}

/// An alphabetically-ordered readout of every registered metric.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, total)` per counter, alphabetical.
    pub counters: Vec<(String, u64)>,
    /// `(name, readout)` per gauge, alphabetical.
    pub gauges: Vec<(String, GaugeSnap)>,
    /// `(name, readout)` per histogram, alphabetical.
    pub histograms: Vec<(String, HistSnap)>,
    /// `(name, readout)` per timer, alphabetical.
    pub timers: Vec<(String, HistSnap)>,
}

/// Takes a snapshot of the whole registry.
pub fn snapshot() -> Snapshot {
    let metrics = registry().metrics.lock().unwrap_or_else(|e| e.into_inner());
    let mut snap = Snapshot::default();
    for (name, metric) in metrics.iter() {
        match metric {
            MetricRef::Counter(c) => snap.counters.push((name.clone(), c.get())),
            MetricRef::Gauge(g) => snap.gauges.push((
                name.clone(),
                GaugeSnap {
                    value: g.get(),
                    high_water: g.high_water(),
                },
            )),
            MetricRef::Histogram(h) => snap.histograms.push((name.clone(), HistSnap::of(h))),
            MetricRef::Timer(h) => snap.timers.push((name.clone(), HistSnap::of(h))),
        }
    }
    snap
}

impl Snapshot {
    /// The total of a counter by name, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn write_hist_section(w: &mut JsonWriter, key: &str, entries: &[(String, HistSnap)]) {
        w.key(key);
        w.begin_object();
        for (name, h) in entries {
            w.key(name);
            w.begin_inline_object();
            w.field_u64("count", h.count);
            w.field_u64("sum", h.sum);
            w.field_u64("p50", h.p50);
            w.field_u64("p90", h.p90);
            w.field_u64("p99", h.p99);
            w.field_u64("max", h.max);
            w.end_inline_object();
        }
        w.end_object();
    }

    fn write_counters(&self, w: &mut JsonWriter) {
        w.key("counters");
        w.begin_object();
        for (name, v) in &self.counters {
            w.field_u64(name, *v);
        }
        w.end_object();
    }

    /// Serializes every section (counters, gauges, histograms, timers),
    /// prefixed with the `RUN_METRICS.json` schema version.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("schema_version", u64::from(crate::report::SCHEMA_VERSION));
        self.write_counters(&mut w);
        w.key("gauges");
        w.begin_object();
        for (name, g) in &self.gauges {
            w.key(name);
            w.begin_inline_object();
            w.field_i64("value", g.value);
            // A gauge that was registered but never set reports high_water
            // as its value to keep the document free of i64::MIN noise.
            w.field_i64(
                "high_water",
                if g.high_water == i64::MIN {
                    g.value
                } else {
                    g.high_water
                },
            );
            w.end_inline_object();
        }
        w.end_object();
        Snapshot::write_hist_section(&mut w, "histograms", &self.histograms);
        Snapshot::write_hist_section(&mut w, "timers_ns", &self.timers);
        w.end_object();
        w.finish()
    }

    /// Serializes only the deterministic sections (counters + histograms):
    /// for a fixed seed and configuration, this document is byte-identical
    /// regardless of worker count or scheduling.
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("schema_version", u64::from(crate::report::SCHEMA_VERSION));
        self.write_counters(&mut w);
        Snapshot::write_hist_section(&mut w, "histograms", &self.histograms);
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests in this module share the global registry; every test that
    /// touches it runs under this lock with a reset.
    fn with_registry(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        f();
        set_enabled(false);
        reset();
    }

    #[test]
    fn buckets_are_exact_below_eight() {
        for v in 0..8 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn bucket_edges_are_continuous_and_ordered() {
        // Every octave boundary lands in a fresh bucket, and upper bounds
        // are the true largest member of each bucket.
        assert_eq!(bucket_of(8), 8);
        assert_eq!(bucket_of(9), 8);
        assert_eq!(bucket_upper(8), 9);
        assert_eq!(bucket_of(10), 9);
        assert_eq!(bucket_of(15), 11);
        assert_eq!(bucket_upper(11), 15);
        assert_eq!(bucket_of(16), 12);
        assert_eq!(bucket_upper(12), 19);
        let mut prev = None;
        for b in 0..HIST_BUCKETS {
            let upper = bucket_upper(b);
            assert_eq!(bucket_of(upper), b, "upper bound must stay in bucket {b}");
            if let Some(p) = prev {
                assert!(upper > p, "bucket uppers must increase");
            }
            prev = Some(upper);
        }
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_exact_at_bucket_edges() {
        let h = Histogram::new();
        for v in 1..=7 {
            h.record(v);
        }
        // Seven exact single-value buckets: the median is the 4th value.
        assert_eq!(h.percentile(0.50), 4);
        assert_eq!(h.percentile(0.90), 7);
        assert_eq!(h.percentile(0.99), 7);
        assert_eq!(h.max(), 7);
        assert_eq!(h.sum(), 28);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn percentiles_report_bucket_upper_bounds_above_eight() {
        let h = Histogram::new();
        h.record(8); // bucket 8 (8..=9)
        h.record(16); // bucket 12 (16..=19)
        assert_eq!(h.percentile(0.50), 9, "first bucket's upper bound");
        assert_eq!(h.percentile(0.99), 16, "clamped to the exact max");
        assert_eq!(h.max(), 16);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn counter_totals_are_exact_under_eight_threads() {
        with_registry(|| {
            static HITS: LazyCounter = LazyCounter::new("test.concurrency.hits");
            const PER_THREAD: u64 = 100_000;
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for i in 0..PER_THREAD {
                            HITS.add(1 + (i & 1));
                        }
                    });
                }
            });
            // Each thread adds 1 and 2 alternating: 150k per thread.
            assert_eq!(HITS.force().get(), 8 * (PER_THREAD + PER_THREAD / 2));
        });
    }

    #[test]
    fn disabled_sites_record_nothing() {
        with_registry(|| {
            static C: LazyCounter = LazyCounter::new("test.disabled.counter");
            C.add(5);
            set_enabled(false);
            C.add(100);
            set_enabled(true);
            assert_eq!(C.force().get(), 5);
        });
    }

    #[test]
    fn snapshot_is_alphabetical_and_sectioned() {
        with_registry(|| {
            static B: LazyCounter = LazyCounter::new("test.snap.b");
            static A: LazyCounter = LazyCounter::new("test.snap.a");
            static G: LazyGauge = LazyGauge::new("test.snap.gauge");
            static H: LazyHistogram = LazyHistogram::new("test.snap.hist");
            static T: LazyTimer = LazyTimer::new("test.snap.timer");
            B.add(2);
            A.add(1);
            G.set(7);
            G.set(3);
            H.record(5);
            T.record(Duration::from_nanos(1_000));
            let snap = snapshot();
            let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "counters must be alphabetical");
            assert_eq!(snap.counter("test.snap.a"), Some(1));
            assert_eq!(snap.counter("test.snap.b"), Some(2));
            let gauge = snap
                .gauges
                .iter()
                .find(|(n, _)| n == "test.snap.gauge")
                .map(|&(_, g)| g)
                .expect("gauge registered");
            assert_eq!(gauge.value, 3);
            assert_eq!(gauge.high_water, 7);
            let histogram = |name: &str| snap.histograms.iter().find(|(n, _)| n == name);
            assert_eq!(histogram("test.snap.hist").unwrap().1.count, 1);
            // Timers land in their own section, not in histograms.
            assert!(histogram("test.snap.timer").is_none());
            assert!(snap.timers.iter().any(|(n, _)| n == "test.snap.timer"));
        });
    }

    #[test]
    fn deterministic_json_excludes_gauges_and_timers() {
        with_registry(|| {
            static C: LazyCounter = LazyCounter::new("test.det.counter");
            static G: LazyGauge = LazyGauge::new("test.det.gauge");
            static T: LazyTimer = LazyTimer::new("test.det.timer");
            C.add(1);
            G.set(9);
            T.record(Duration::from_nanos(123));
            let json = snapshot().deterministic_json();
            assert!(json.contains("test.det.counter"));
            assert!(!json.contains("test.det.gauge"));
            assert!(!json.contains("test.det.timer"));
        });
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        with_registry(|| {
            static C: LazyCounter = LazyCounter::new("test.reset.counter");
            C.add(9);
            reset();
            assert_eq!(C.force().get(), 0);
            assert_eq!(snapshot().counter("test.reset.counter"), Some(0));
        });
    }
}
