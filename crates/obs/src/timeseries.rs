//! Ring-buffered windowed metrics for the live admin plane.
//!
//! The global [`crate::metrics`] registry is cumulative: a counter only
//! ever grows, a histogram's percentiles converge to the whole run's
//! distribution. A live observer — the `/timeseries` admin endpoint, the
//! `validator_watch` example — wants *windows*: what happened in the last
//! 500 ms, not since boot. [`TimeSeries`] closes that gap without a second
//! set of instrumentation sites:
//!
//! * every tracked **counter** reports a per-window delta and rate;
//! * every tracked **histogram** reports per-window count/sum and sliding
//!   p50/p90/p99 computed from deltas of the cumulative log-bucket counts
//!   ([`crate::metrics::bucket_percentile`]) — no per-window histogram is
//!   allocated;
//! * every tracked **gauge** reports its level at window close and the
//!   window high-water mark of sampled levels.
//!
//! [`TimeSeries::tick`] is meant to be called from an event loop every few
//! milliseconds: it costs a handful of relaxed loads until a window
//! boundary passes, at which point the closing window is sampled and
//! pushed onto a fixed-capacity ring (oldest windows evicted). A stalled
//! loop that misses whole windows emits them as explicit empty windows, so
//! the time axis never silently skips.

use std::collections::VecDeque;

use crate::json::JsonWriter;
use crate::metrics::{bucket_percentile, Counter, Gauge, Histogram};

/// Default number of retained windows.
pub const DEFAULT_WINDOWS: usize = 120;

struct CounterSource {
    name: &'static str,
    counter: &'static Counter,
    last: u64,
}

struct GaugeSource {
    name: &'static str,
    gauge: &'static Gauge,
    window_max: i64,
}

struct HistSource {
    name: &'static str,
    hist: &'static Histogram,
    last_buckets: Vec<u64>,
    last_count: u64,
    last_sum: u64,
}

/// One histogram's per-window readout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistPoint {
    /// Observations recorded inside the window.
    pub count: u64,
    /// Sum of those observations.
    pub sum: u64,
    /// Window median (bucket upper bound).
    pub p50: u64,
    /// Window 90th percentile.
    pub p90: u64,
    /// Window 99th percentile.
    pub p99: u64,
}

/// One closed window across every tracked source.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window start, in the caller's clock (the node passes Unix ms).
    pub start_ms: u64,
    /// Per-counter deltas, in registration order.
    pub counters: Vec<u64>,
    /// Per-gauge `(level at close, window high-water)` pairs.
    pub gauges: Vec<(i64, i64)>,
    /// Per-histogram window readouts.
    pub hists: Vec<HistPoint>,
}

/// A fixed-capacity ring of windowed metric readouts. See the module docs.
pub struct TimeSeries {
    window_ms: u64,
    capacity: usize,
    start_ms: u64,
    total_windows: u64,
    windows: VecDeque<Window>,
    counters: Vec<CounterSource>,
    gauges: Vec<GaugeSource>,
    hists: Vec<HistSource>,
}

impl TimeSeries {
    /// A series of `window_ms`-wide windows, retaining the most recent
    /// `capacity` of them (0 selects [`DEFAULT_WINDOWS`]).
    pub fn new(window_ms: u64, capacity: usize) -> TimeSeries {
        TimeSeries {
            window_ms: window_ms.max(1),
            capacity: if capacity == 0 {
                DEFAULT_WINDOWS
            } else {
                capacity
            },
            start_ms: 0,
            total_windows: 0,
            windows: VecDeque::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Tracks a counter (per-window delta + rate). Call before the first
    /// [`TimeSeries::tick`].
    pub fn counter(&mut self, name: &'static str, counter: &'static Counter) {
        self.counters.push(CounterSource {
            name,
            counter,
            last: 0,
        });
    }

    /// Tracks a gauge (level at close + window high-water of samples).
    pub fn gauge(&mut self, name: &'static str, gauge: &'static Gauge) {
        self.gauges.push(GaugeSource {
            name,
            gauge,
            window_max: i64::MIN,
        });
    }

    /// Tracks a histogram (window count/sum + sliding p50/p90/p99).
    pub fn histogram(&mut self, name: &'static str, hist: &'static Histogram) {
        self.hists.push(HistSource {
            name,
            hist,
            last_buckets: Vec::new(),
            last_count: 0,
            last_sum: 0,
        });
    }

    /// Advances the series to `now_ms`, closing any window boundaries that
    /// passed. Returns the number of windows closed by this call (usually
    /// 0 — the cheap common case is two comparisons and a few relaxed
    /// gauge loads).
    pub fn tick(&mut self, now_ms: u64) -> u64 {
        if self.start_ms == 0 {
            // First tick anchors the window grid and baselines every
            // cumulative source so the first window reports deltas from
            // here, not from process start.
            self.start_ms = now_ms;
            for c in &mut self.counters {
                c.last = c.counter.get();
            }
            for h in &mut self.hists {
                h.last_buckets = h.hist.bucket_counts();
                h.last_count = h.hist.count();
                h.last_sum = h.hist.sum();
            }
            for g in &mut self.gauges {
                g.window_max = g.gauge.get();
            }
            return 0;
        }
        for g in &mut self.gauges {
            g.window_max = g.window_max.max(g.gauge.get());
        }
        let mut closed = 0u64;
        while now_ms >= self.start_ms + self.window_ms {
            self.close_window();
            closed += 1;
            if closed as usize > self.capacity {
                // Far behind (a long stall): everything older than the
                // ring would be evicted anyway, so jump the grid forward
                // and account for the skipped windows in the total.
                let skip = (now_ms - self.start_ms) / self.window_ms;
                self.total_windows += skip;
                self.start_ms += skip * self.window_ms;
                break;
            }
        }
        closed
    }

    /// Closes the window starting at `self.start_ms`: samples every
    /// cumulative source, pushes the delta window, advances the grid. The
    /// first close after activity absorbs all deltas since the previous
    /// close; catch-up closes behind a stall come out empty.
    fn close_window(&mut self) {
        let mut counters = Vec::with_capacity(self.counters.len());
        for c in &mut self.counters {
            let now = c.counter.get();
            counters.push(now.saturating_sub(c.last));
            c.last = now;
        }
        let mut gauges = Vec::with_capacity(self.gauges.len());
        for g in &mut self.gauges {
            let level = g.gauge.get();
            let max = g.window_max.max(level);
            gauges.push((level, max));
            g.window_max = level;
        }
        let mut hists = Vec::with_capacity(self.hists.len());
        for h in &mut self.hists {
            let buckets = h.hist.bucket_counts();
            let count = h.hist.count();
            let sum = h.hist.sum();
            let delta: Vec<u64> = buckets
                .iter()
                .zip(h.last_buckets.iter())
                .map(|(now, then)| now.saturating_sub(*then))
                .collect();
            hists.push(HistPoint {
                count: count.saturating_sub(h.last_count),
                sum: sum.saturating_sub(h.last_sum),
                p50: bucket_percentile(&delta, 0.50),
                p90: bucket_percentile(&delta, 0.90),
                p99: bucket_percentile(&delta, 0.99),
            });
            h.last_buckets = buckets;
            h.last_count = count;
            h.last_sum = sum;
        }
        self.windows.push_back(Window {
            start_ms: self.start_ms,
            counters,
            gauges,
            hists,
        });
        if self.windows.len() > self.capacity {
            self.windows.pop_front();
        }
        self.total_windows += 1;
        self.start_ms += self.window_ms;
    }

    /// Serializes the most recent `last` windows (0 = all retained) as the
    /// byte-stable `/timeseries` endpoint body: series-major, one point
    /// per window per tracked metric, rates in events/second.
    pub fn to_json(&self, last: usize) -> String {
        let take = if last == 0 {
            self.windows.len()
        } else {
            last.min(self.windows.len())
        };
        let skip = self.windows.len() - take;
        let windows: Vec<&Window> = self.windows.iter().skip(skip).collect();
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("window_ms", self.window_ms);
        w.field_u64("total_windows", self.total_windows);
        w.field_u64("returned", windows.len() as u64);
        w.key("start_ms");
        w.begin_array();
        for win in &windows {
            w.value_u64(win.start_ms);
        }
        w.end_array();
        w.key("counters");
        w.begin_object();
        for (i, c) in self.counters.iter().enumerate() {
            w.key(c.name);
            w.begin_array();
            for win in &windows {
                let n = win.counters[i];
                w.begin_inline_object();
                w.field_u64("n", n);
                w.field_f64("rate", n as f64 * 1000.0 / self.window_ms as f64, 3);
                w.end_inline_object();
            }
            w.end_array();
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (i, g) in self.gauges.iter().enumerate() {
            w.key(g.name);
            w.begin_array();
            for win in &windows {
                let (value, max) = win.gauges[i];
                w.begin_inline_object();
                w.field_i64("value", value);
                w.field_i64("max", max);
                w.end_inline_object();
            }
            w.end_array();
        }
        w.end_object();
        w.key("histograms");
        w.begin_object();
        for (i, h) in self.hists.iter().enumerate() {
            w.key(h.name);
            w.begin_array();
            for win in &windows {
                let p = win.hists[i];
                w.begin_inline_object();
                w.field_u64("count", p.count);
                w.field_u64("sum", p.sum);
                w.field_u64("p50", p.p50);
                w.field_u64("p90", p.p90);
                w.field_u64("p99", p.p99);
                w.end_inline_object();
            }
            w.end_array();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Leaked sources outside the global registry, so these tests are
    /// immune to concurrent `metrics::reset()` calls from other modules.
    fn leaked_counter() -> &'static Counter {
        Box::leak(Box::new(Counter::new()))
    }

    fn leaked_gauge() -> &'static Gauge {
        Box::leak(Box::new(Gauge::new()))
    }

    fn leaked_hist() -> &'static Histogram {
        Box::leak(Box::new(Histogram::new()))
    }

    #[test]
    fn counter_windows_report_deltas_and_rates() {
        let c = leaked_counter();
        let mut ts = TimeSeries::new(100, 8);
        ts.counter("test.frames", c);
        c.add(50); // before the first tick: baselined away
        assert_eq!(ts.tick(1_000), 0);
        c.add(7);
        assert_eq!(ts.tick(1_100), 1);
        c.add(3);
        assert_eq!(ts.tick(1_250), 1);
        let windows: Vec<&Window> = ts.windows.iter().collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start_ms, 1_000);
        assert_eq!(windows[0].counters, vec![7]);
        assert_eq!(windows[1].start_ms, 1_100);
        assert_eq!(windows[1].counters, vec![3]);
        let json = ts.to_json(0);
        assert!(json.contains("\"rate\": 70.000"), "7/100ms = 70/s: {json}");
        assert!(json.contains("\"rate\": 30.000"), "3/100ms = 30/s: {json}");
    }

    #[test]
    fn ring_wraps_and_total_keeps_counting() {
        let c = leaked_counter();
        let mut ts = TimeSeries::new(10, 3);
        ts.counter("test.wrap", c);
        ts.tick(100);
        for i in 1..=6u64 {
            c.add(i);
            ts.tick(100 + i * 10);
        }
        assert_eq!(ts.total_windows, 6);
        let deltas: Vec<u64> = ts.windows.iter().map(|w| w.counters[0]).collect();
        assert_eq!(deltas, vec![4, 5, 6], "only the newest 3 retained");
        let starts: Vec<u64> = ts.windows.iter().map(|w| w.start_ms).collect();
        assert_eq!(starts, vec![130, 140, 150]);
    }

    #[test]
    fn stalled_loop_emits_empty_windows() {
        let c = leaked_counter();
        let mut ts = TimeSeries::new(10, 8);
        ts.counter("test.stall", c);
        ts.tick(100);
        c.add(5);
        // The next tick arrives 3 windows late: the delta lands in the
        // first closed window, the rest are explicit empties.
        assert_eq!(ts.tick(130), 3);
        let deltas: Vec<u64> = ts.windows.iter().map(|w| w.counters[0]).collect();
        assert_eq!(deltas, vec![5, 0, 0]);
        let starts: Vec<u64> = ts.windows.iter().map(|w| w.start_ms).collect();
        assert_eq!(starts, vec![100, 110, 120], "time axis has no gaps");
    }

    #[test]
    fn long_stall_fast_forwards_instead_of_looping() {
        let c = leaked_counter();
        let mut ts = TimeSeries::new(10, 4);
        ts.counter("test.ff", c);
        ts.tick(100);
        // 1000 windows behind: the ring only keeps 4, so the series jumps.
        ts.tick(100 + 10_000);
        assert!(ts.windows.len() <= 5);
        assert_eq!(ts.total_windows, 1_000);
        // The grid stays aligned after the jump.
        c.add(1);
        ts.tick(100 + 10_000 + 10);
        let last = ts.windows.back().unwrap();
        assert_eq!(last.counters[0], 1);
        assert_eq!((last.start_ms - 100) % 10, 0);
    }

    #[test]
    fn window_percentiles_differ_from_cumulative() {
        let h = leaked_hist();
        let mut ts = TimeSeries::new(100, 8);
        ts.histogram("test.lat", h);
        ts.tick(1_000);
        for _ in 0..10 {
            h.record(1);
        }
        ts.tick(1_100);
        for _ in 0..10 {
            h.record(1_000);
        }
        ts.tick(1_200);
        let points: Vec<HistPoint> = ts.windows.iter().map(|w| w.hists[0]).collect();
        assert_eq!(points[0].count, 10);
        assert_eq!(points[0].p50, 1, "first window only saw 1s");
        assert_eq!(points[1].count, 10);
        assert!(
            points[1].p50 >= 1_000,
            "second window only saw 1000s, got {}",
            points[1].p50
        );
        // The cumulative histogram mixes both windows: its median sits in
        // the low cluster, unlike the second window's.
        assert_eq!(h.percentile(0.50), 1);
        assert_eq!(points[0].sum, 10);
        assert_eq!(points[1].sum, 10_000);
    }

    #[test]
    fn gauges_report_window_high_water() {
        let g = leaked_gauge();
        let mut ts = TimeSeries::new(100, 8);
        ts.gauge("test.depth", g);
        ts.tick(1_000);
        g.set(9);
        ts.tick(1_050); // mid-window sample catches the spike
        g.set(2);
        ts.tick(1_100);
        g.set(4);
        ts.tick(1_200);
        let gauges: Vec<(i64, i64)> = ts.windows.iter().map(|w| w.gauges[0]).collect();
        assert_eq!(gauges[0], (2, 9), "close level 2, window max 9");
        assert_eq!(gauges[1], (4, 4));
    }

    #[test]
    fn empty_series_serializes_cleanly() {
        let ts = TimeSeries::new(500, 4);
        let json = ts.to_json(0);
        assert_eq!(
            json,
            "{\n  \"window_ms\": 500,\n  \"total_windows\": 0,\n  \
             \"returned\": 0,\n  \"start_ms\": [],\n  \"counters\": {},\n  \
             \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
        let value = crate::json::parse(&json).expect("parses");
        assert_eq!(value.get("returned").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    fn to_json_last_n_takes_the_newest_windows() {
        let c = leaked_counter();
        let mut ts = TimeSeries::new(10, 8);
        ts.counter("test.lastn", c);
        ts.tick(100);
        for i in 1..=5u64 {
            c.add(i);
            ts.tick(100 + i * 10);
        }
        let json = ts.to_json(2);
        let value = crate::json::parse(&json).expect("parses");
        assert_eq!(value.get("returned").and_then(|v| v.as_u64()), Some(2));
        let starts = value.get("start_ms").and_then(|v| v.as_arr()).unwrap();
        let starts: Vec<u64> = starts.iter().filter_map(|v| v.as_u64()).collect();
        assert_eq!(starts, vec![130, 140], "newest two windows");
    }
}
