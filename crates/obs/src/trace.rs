//! Span tracing into one overwrite-oldest event ring, read by cursor, with
//! `chrome://tracing` export.
//!
//! A [`Span`] is an RAII guard: [`span`] stamps a monotonic start time and
//! bumps this thread's span-stack depth, and dropping the guard appends one
//! *complete* event (start, duration, thread, depth, optional round id) to
//! a fixed-capacity ring; [`crate::flight::note`] appends the other kind of
//! event, a note with named values. A disabled span site costs one relaxed
//! atomic load; an enabled one reads `Instant` at each end and takes a short
//! mutex to push. A full ring overwrites its oldest event, so the traced
//! code never blocks and the newest events are always held.
//!
//! Every event gets a sequence number and nothing drains the ring: each
//! reader keeps its own cursor and calls [`read_from`], which also says how
//! many events were overwritten before that reader saw them. The readers:
//!
//! * `GET /trace?cursor=N` ([`crate::http::admin_response`]) — one cursor
//!   per client, so a second client steals nothing from the first;
//! * [`drain`] / [`export`] — stop tracing and read from 0 (the end-of-run
//!   `--trace PATH` file);
//! * [`crate::flight`] — the newest events as a crash dump.
//!
//! [`to_chrome_json`] serializes spans in the Trace Event Format that both
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load directly.
//! Timestamps are nanoseconds since the process's trace epoch, whose Unix
//! anchor ([`epoch_unix_ms`]) is taken once, and thread ids are small
//! integers assigned in first-span order.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::escape_into;
use crate::metrics::LazyGauge;

/// Default ring capacity (events held before the oldest is overwritten).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// One ring event: a completed span, or a note when `note` is set.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (e.g. `script_chunk`) or note label (e.g. `round`).
    pub name: &'static str,
    /// Category — the emitting layer (e.g. `synth`, `node`).
    pub cat: &'static str,
    /// Start (a note's moment), in nanoseconds since the tracing epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for a note).
    pub dur_ns: u64,
    /// Small per-thread id, assigned in first-span order.
    pub tid: u64,
    /// Depth on the emitting thread's span stack (1 = outermost span).
    pub depth: u32,
    /// Optional tag — consensus round id for node events.
    pub id: Option<u64>,
    /// A note's named values (counter deltas, outcomes); `None` for a span.
    pub note: Option<Box<[(&'static str, i64)]>>,
}

/// The fixed-capacity ring with its monotone sequence counter.
struct Ring {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    /// Sequence number of the next event.
    next_seq: u64,
}

impl Ring {
    /// Sequence number of the oldest held event — also the number of
    /// events overwritten so far.
    fn oldest(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }
}

static TRACE_ON: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RING: Mutex<Option<Ring>> = Mutex::new(None);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn ring() -> MutexGuard<'static, Option<Ring>> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

/// The trace epoch and its Unix wall-clock anchor in ms, taken together
/// once, on first use.
fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        (Instant::now(), unix_ms)
    })
}

/// Nanoseconds from the trace epoch to `t`.
pub(crate) fn since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch().0)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// The trace epoch as Unix wall-clock milliseconds: the anchor a cluster
/// harness uses to translate this process's `ts_ns` values into cluster
/// time. Stored once, so every call in a process returns the same value.
pub fn epoch_unix_ms() -> u64 {
    epoch().1
}

/// This thread's small id and current span-stack depth.
pub(crate) fn here() -> (u64, u32) {
    (TID.with(|t| *t), DEPTH.with(Cell::get))
}

/// Starts recording into a fresh ring of `capacity` events (0 selects
/// [`DEFAULT_CAPACITY`]), numbered from 0.
pub fn enable(capacity: usize) {
    let capacity = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    epoch();
    *ring() = Some(Ring {
        buf: VecDeque::with_capacity(capacity.min(1024)),
        capacity,
        next_seq: 0,
    });
    TRACE_ON.store(true, Ordering::Relaxed);
}

/// Whether events are being recorded (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

/// Events overwritten since the last [`enable`].
pub fn dropped() -> u64 {
    ring().as_ref().map_or(0, Ring::oldest)
}

/// Appends `event`, overwriting the oldest one when the ring is full.
pub(crate) fn record(event: TraceEvent) {
    if let Some(ring) = ring().as_mut() {
        if ring.buf.len() == ring.capacity {
            ring.buf.pop_front();
        }
        ring.buf.push_back(event);
        ring.next_seq += 1;
    }
}

/// Reads, without consuming anything, every held event from sequence `seq`
/// on, oldest first. Returns the events, the cursor for the next read, and
/// how many events from `seq` on were overwritten before this read. A `seq`
/// past the head belongs to an earlier ring (a restarted process or a fresh
/// [`enable`]), so the read starts from the oldest held event.
pub fn read_from(seq: u64) -> (Vec<TraceEvent>, u64, u64) {
    let guard = ring();
    let Some(ring) = guard.as_ref() else {
        return (Vec::new(), 0, 0);
    };
    let from = if seq > ring.next_seq { 0 } else { seq };
    let skip = from.saturating_sub(ring.oldest()) as usize;
    let events = ring.buf.range(skip..).cloned().collect();
    (events, ring.next_seq, ring.oldest().saturating_sub(from))
}

/// The newest `n` held events, oldest first, and how many events came
/// before them.
pub(crate) fn newest(n: usize) -> (Vec<TraceEvent>, u64) {
    let guard = ring();
    let Some(ring) = guard.as_ref() else {
        return (Vec::new(), 0);
    };
    let skip = ring.buf.len().saturating_sub(n);
    let events = ring.buf.range(skip..).cloned().collect();
    (events, ring.oldest() + skip as u64)
}

/// The spans among `events` (notes left out), ordered by start time (ties:
/// longer spans — enclosing ones — first, then thread id).
pub(crate) fn spans(mut events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events.retain(|e| e.note.is_none());
    events.sort_by_key(|e| (e.ts_ns, Reverse(e.dur_ns), e.tid));
    events
}

/// Stops tracing and returns every held span from sequence 0 on, ordered
/// by start time (ties: enclosing spans first, then thread id). The ring
/// goes with it.
pub fn drain() -> Vec<TraceEvent> {
    TRACE_ON.store(false, Ordering::Relaxed);
    let events = ring().take().map_or_else(Vec::new, |r| r.buf.into());
    spans(events)
}

/// One `/trace` read (see [`read_from`]).
#[derive(Debug, Default)]
pub struct TraceChunk {
    /// The spans read, in start-time order.
    pub events: Vec<TraceEvent>,
    /// Cursor to pass to the next read.
    pub cursor: u64,
    /// Events overwritten before this reader saw them.
    pub lost: u64,
    /// Events overwritten since [`enable`] (monotone, not a delta).
    pub dropped: u64,
}

/// Publishes collector health into the metrics registry (gauges
/// `obs.trace.dropped` — events overwritten, `obs.trace.buffered` and
/// `obs.trace.accepted`), so `RUN_METRICS.json` and the `/metrics`
/// endpoint show a ring too small for its run. No-op while metrics
/// recording is disabled.
pub fn publish_health() {
    static TRACE_DROPPED: LazyGauge = LazyGauge::new("obs.trace.dropped");
    static TRACE_BUFFERED: LazyGauge = LazyGauge::new("obs.trace.buffered");
    static TRACE_ACCEPTED: LazyGauge = LazyGauge::new("obs.trace.accepted");
    let (dropped, buffered, accepted) = match ring().as_ref() {
        Some(ring) => (ring.oldest(), ring.buf.len() as u64, ring.next_seq),
        None => (0, 0, 0),
    };
    let gauge = |v: u64| v.min(i64::MAX as u64) as i64;
    TRACE_DROPPED.set(gauge(dropped));
    TRACE_BUFFERED.set(gauge(buffered));
    TRACE_ACCEPTED.set(gauge(accepted));
}

/// An RAII span guard: records one [`TraceEvent`] when dropped. Inert (one
/// relaxed load at creation, nothing at drop) while tracing is off.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    name: &'static str,
    cat: &'static str,
    id: Option<u64>,
    start: Option<Instant>,
}

/// Opens a span named `name` in category `cat` on this thread's stack.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    span_tagged(cat, name, None)
}

/// Opens a span tagged with a consensus round id (`args.round` in the
/// trace, `round` in a flight dump).
#[inline]
pub fn span_round(cat: &'static str, name: &'static str, round: u64) -> Span {
    span_tagged(cat, name, Some(round))
}

fn span_tagged(cat: &'static str, name: &'static str, id: Option<u64>) -> Span {
    let start = if enabled() {
        DEPTH.with(|d| d.set(d.get() + 1));
        Some(Instant::now())
    } else {
        None
    };
    Span {
        name,
        cat,
        id,
        start,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let (tid, depth) = here();
        DEPTH.with(|d| d.set(depth.saturating_sub(1)));
        record(TraceEvent {
            name: self.name,
            cat: self.cat,
            ts_ns: since_epoch(start),
            dur_ns,
            tid,
            depth,
            id: self.id,
            note: None,
        });
    }
}

fn push_us(out: &mut String, ns: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Serializes events in the Trace Event Format (JSON object form) accepted
/// by `chrome://tracing` and Perfetto: complete (`"ph": "X"`) events with
/// microsecond timestamps. Round-tagged events carry `args.round`.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("{\"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("  {\"name\": \"");
        escape_into(&mut out, e.name);
        out.push_str("\", \"cat\": \"");
        escape_into(&mut out, e.cat);
        out.push_str("\", \"ph\": \"X\", \"ts\": ");
        push_us(&mut out, e.ts_ns);
        out.push_str(", \"dur\": ");
        push_us(&mut out, e.dur_ns);
        use std::fmt::Write as _;
        let _ = write!(out, ", \"pid\": 1, \"tid\": {}, \"args\": {{", e.tid);
        let _ = write!(out, "\"depth\": {}", e.depth);
        if let Some(round) = e.id {
            let _ = write!(out, ", \"round\": {round}");
        }
        out.push_str("}}");
    }
    if !events.is_empty() {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Serializes a [`TraceChunk`] as the byte-stable `/trace` endpoint body:
/// integer-only fields (`cursor`, `lost`, `dropped`, `events[]` with
/// `ts_ns`/`dur_ns`/`tid`/`depth`/`round`), parseable by
/// [`crate::json::parse`].
pub fn chunk_json(chunk: &TraceChunk) -> String {
    let mut w = crate::json::JsonWriter::pretty();
    w.begin_object();
    w.field_u64("cursor", chunk.cursor);
    w.field_u64("lost", chunk.lost);
    w.field_u64("dropped", chunk.dropped);
    w.key("events");
    w.begin_array();
    for e in &chunk.events {
        w.begin_inline_object();
        w.field_str("name", e.name);
        w.field_str("cat", e.cat);
        w.field_u64("ts_ns", e.ts_ns);
        w.field_u64("dur_ns", e.dur_ns);
        w.field_u64("tid", e.tid);
        w.field_u64("depth", u64::from(e.depth));
        match e.id {
            Some(round) => w.field_u64("round", round),
            None => w.field_null("round"),
        }
        w.end_inline_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Stops tracing and writes every held span as a `chrome://tracing`-loadable
/// file to `path`. Returns the number of spans written.
pub fn export(path: &Path) -> io::Result<usize> {
    let events = drain();
    std::fs::write(path, to_chrome_json(&events))?;
    Ok(events.len())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Tests share the global ring; serialize them and start each from an
    /// empty, disabled collector.
    pub(crate) fn with_tracer(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = drain();
        f();
        let _ = drain();
    }

    #[test]
    fn disabled_spans_emit_nothing() {
        with_tracer(|| {
            {
                let _s = span("test", "ghost");
            }
            enable(16);
            let events = drain();
            assert!(events.iter().all(|e| e.name != "ghost"));
        });
    }

    #[test]
    fn nested_spans_record_depth_and_ordering() {
        with_tracer(|| {
            enable(16);
            {
                let _outer = span("test", "outer");
                std::thread::sleep(std::time::Duration::from_millis(1));
                let _inner = span_round("test", "inner", 7);
            }
            let events = drain();
            assert_eq!(events.len(), 2);
            // Sorted: the enclosing span first.
            assert_eq!(events[0].name, "outer");
            assert_eq!(events[0].depth, 1);
            assert_eq!(events[0].id, None);
            assert_eq!(events[1].name, "inner");
            assert_eq!(events[1].depth, 2);
            assert_eq!(events[1].id, Some(7));
            assert_eq!(events[0].tid, events[1].tid);
            assert!(events[0].ts_ns <= events[1].ts_ns);
            assert!(events[0].dur_ns >= events[1].dur_ns);
        });
    }

    #[test]
    fn spans_from_many_threads_all_arrive() {
        with_tracer(|| {
            enable(1024);
            std::thread::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        for _ in 0..10 {
                            let _sp = span("test", "worker");
                        }
                    });
                }
            });
            assert_eq!(dropped(), 0);
            let events = drain();
            assert_eq!(events.iter().filter(|e| e.name == "worker").count(), 80);
            let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
            assert_eq!(tids.len(), 8, "each thread gets its own tid");
        });
    }

    #[test]
    fn full_ring_overwrites_its_oldest_events_and_counts_them() {
        with_tracer(|| {
            enable(2);
            for round in 0..5 {
                let _sp = span_round("test", "burst", round);
            }
            assert_eq!(dropped(), 3);
            let (events, next, lost) = read_from(0);
            assert_eq!((events.len(), next, lost), (2, 5, 3));
            let rounds: Vec<Option<u64>> = drain().iter().map(|e| e.id).collect();
            assert_eq!(rounds, [Some(3), Some(4)], "the newest events are kept");
        });
    }

    #[test]
    fn incremental_read_keeps_tracing_and_advances_cursor() {
        with_tracer(|| {
            enable(16);
            {
                let _a = span("test", "first");
            }
            let (events, cursor, lost) = read_from(0);
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "first");
            assert_eq!((cursor, lost), (1, 0));
            assert!(enabled(), "a read must not stop tracing");
            {
                let _b = span_round("test", "second", 3);
            }
            let (events, cursor, lost) = read_from(cursor);
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].id, Some(3));
            assert_eq!((cursor, lost), (2, 0));
            // An empty poll is cheap and stable.
            let (events, cursor, _) = read_from(cursor);
            assert!(events.is_empty());
            assert_eq!(cursor, 2);
            // Nothing was consumed: a reader from 0 still sees both.
            assert_eq!(read_from(0).0.len(), 2);
        });
    }

    #[test]
    fn stale_cursor_reports_lost_events() {
        with_tracer(|| {
            enable(2);
            for _ in 0..3 {
                let _sp = span("test", "tick");
            }
            // A reader still at 0 missed the one overwritten event, and
            // one at 1 missed none.
            assert_eq!(read_from(0).2, 1);
            assert_eq!(read_from(1).2, 0);
        });
    }

    #[test]
    fn epoch_anchor_is_taken_once() {
        let first = epoch_unix_ms();
        let until = Instant::now() + std::time::Duration::from_millis(5);
        while Instant::now() < until {
            assert_eq!(epoch_unix_ms(), first);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        assert_eq!(epoch_unix_ms(), first);
    }

    #[test]
    fn chunk_json_is_byte_stable() {
        let chunk = TraceChunk {
            events: vec![TraceEvent {
                name: "round",
                cat: "node",
                ts_ns: 1_500,
                dur_ns: 250,
                tid: 2,
                depth: 1,
                id: Some(9),
                note: None,
            }],
            cursor: 5,
            lost: 1,
            dropped: 0,
        };
        assert_eq!(
            chunk_json(&chunk),
            "{\n  \"cursor\": 5,\n  \"lost\": 1,\n  \"dropped\": 0,\n  \
             \"events\": [\n    \
             {\"name\": \"round\", \"cat\": \"node\", \"ts_ns\": 1500, \
             \"dur_ns\": 250, \"tid\": 2, \"depth\": 1, \"round\": 9}\n  ]\n}\n"
        );
    }

    #[test]
    fn chrome_json_shape() {
        let events = [
            TraceEvent {
                name: "script_chunk",
                cat: "synth",
                ts_ns: 1_234_567,
                dur_ns: 1_500,
                tid: 3,
                depth: 1,
                id: None,
                note: None,
            },
            TraceEvent {
                name: "q\"uote",
                cat: "test",
                ts_ns: 0,
                dur_ns: 42,
                tid: 1,
                depth: 2,
                id: Some(11),
                note: None,
            },
        ];
        let json = to_chrome_json(&events);
        assert_eq!(
            json,
            "{\"traceEvents\": [\n  \
             {\"name\": \"script_chunk\", \"cat\": \"synth\", \"ph\": \"X\", \
             \"ts\": 1234.567, \"dur\": 1.500, \"pid\": 1, \"tid\": 3, \
             \"args\": {\"depth\": 1}},\n  \
             {\"name\": \"q\\\"uote\", \"cat\": \"test\", \"ph\": \"X\", \
             \"ts\": 0.000, \"dur\": 0.042, \"pid\": 1, \"tid\": 1, \
             \"args\": {\"depth\": 2, \"round\": 11}}\n]}\n"
        );
        assert_eq!(to_chrome_json(&[]), "{\"traceEvents\": []}\n");
    }
}
