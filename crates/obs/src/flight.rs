//! The crash flight recorder: an always-on bounded ring of recent spans
//! and counter deltas, dumped as a byte-stable `FLIGHT_<node>.json` when a
//! process panics, trips an invariant, or is shut down by the harness.
//!
//! Unlike [`crate::trace`], which buffers *everything* until a consumer
//! drains it, the flight ring keeps only the most recent
//! [`DEFAULT_CAPACITY`] entries and overwrites the oldest — it answers
//! "what were this node's last N rounds doing" after a `kill -9`
//! postmortem, not "what did the whole run look like". Arming it
//! ([`arm`]) also makes [`crate::trace::span`] guards live even while
//! tracing proper is disabled: completed spans are mirrored into the ring
//! with wall-clock timestamps.
//!
//! Entries are wall-clock stamped (`ts_ms`, Unix milliseconds) so dumps
//! from different machines can be correlated without sharing a monotonic
//! epoch. [`to_json`] is a pure function of its inputs — fixed entries
//! produce byte-identical documents, which the dump-determinism unit tests
//! and the cluster harness's postmortem parser both rely on.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::JsonWriter;
use crate::trace::TraceEvent;

/// Default ring capacity — enough for several rounds of a busy validator
/// (a round emits a handful of spans and one note).
pub const DEFAULT_CAPACITY: usize = 4096;

/// One flight-recorder entry: a mirrored span or an explicit note with
/// counter deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Wall-clock timestamp, Unix milliseconds.
    pub ts_ms: u64,
    /// `"span"` (mirrored from a trace guard) or `"note"` (explicit).
    pub kind: &'static str,
    /// Span name or note label.
    pub label: String,
    /// Emitting layer (span category; notes default to their caller's).
    pub cat: String,
    /// Consensus round the entry belongs to, when known.
    pub round: Option<u64>,
    /// Span duration in nanoseconds (0 for notes).
    pub dur_ns: u64,
    /// Named values — counter deltas, levels, outcomes.
    pub fields: Vec<(String, i64)>,
}

struct Recorder {
    buf: VecDeque<FlightEntry>,
    capacity: usize,
    evicted: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

/// Unix wall-clock milliseconds (0 before the epoch, which never happens).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Arms the recorder with a ring of `capacity` entries (0 selects
/// [`DEFAULT_CAPACITY`]), clearing any prior contents.
pub fn arm(capacity: usize) {
    let capacity = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    *RECORDER.lock().unwrap_or_else(|e| e.into_inner()) = Some(Recorder {
        buf: VecDeque::with_capacity(capacity.min(1024)),
        capacity,
        evicted: 0,
    });
    ARMED.store(true, Ordering::Relaxed);
}

/// Whether the recorder is armed (one relaxed load).
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Appends `entry` to the ring, evicting the oldest entry when full.
pub fn record(entry: FlightEntry) {
    let mut guard = RECORDER.lock().unwrap_or_else(|e| e.into_inner());
    let Some(rec) = guard.as_mut() else { return };
    if rec.buf.len() == rec.capacity {
        rec.buf.pop_front();
        rec.evicted += 1;
    }
    rec.buf.push_back(entry);
}

/// Mirrors a completed trace span into the ring (called by the span guard
/// whenever the recorder is armed).
pub(crate) fn record_span(event: &TraceEvent) {
    record(FlightEntry {
        ts_ms: unix_ms(),
        kind: "span",
        label: event.name.to_string(),
        cat: event.cat.to_string(),
        round: event.id,
        dur_ns: event.dur_ns,
        fields: Vec::new(),
    });
}

/// Records an explicit note — the per-round counter-delta entries a node
/// writes at each finalize, and one-off markers like `shutdown`.
pub fn note(cat: &str, label: &str, round: Option<u64>, fields: &[(&str, i64)]) {
    if !armed() {
        return;
    }
    record(FlightEntry {
        ts_ms: unix_ms(),
        kind: "note",
        label: label.to_string(),
        cat: cat.to_string(),
        round,
        dur_ns: 0,
        fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    });
}

/// Copies the ring's contents (oldest first) and the eviction count.
pub fn contents() -> (Vec<FlightEntry>, u64) {
    match &*RECORDER.lock().unwrap_or_else(|e| e.into_inner()) {
        Some(rec) => (rec.buf.iter().cloned().collect(), rec.evicted),
        None => (Vec::new(), 0),
    }
}

/// Serializes a flight dump. Pure: fixed inputs give byte-identical
/// output.
pub fn to_json(node: &str, reason: &str, entries: &[FlightEntry], evicted: u64) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("schema_version", u64::from(crate::report::SCHEMA_VERSION));
    w.field_str("node", node);
    w.field_str("reason", reason);
    w.field_u64("evicted", evicted);
    w.field_u64("entries_len", entries.len() as u64);
    w.key("entries");
    w.begin_array();
    for e in entries {
        w.begin_inline_object();
        w.field_u64("ts_ms", e.ts_ms);
        w.field_str("kind", e.kind);
        w.field_str("label", &e.label);
        w.field_str("cat", &e.cat);
        match e.round {
            Some(r) => w.field_u64("round", r),
            None => w.field_null("round"),
        }
        w.field_u64("dur_ns", e.dur_ns);
        w.key("fields");
        w.begin_inline_object();
        for (k, v) in &e.fields {
            w.field_i64(k, *v);
        }
        w.end_inline_object();
        w.end_inline_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Snapshots the ring and writes `FLIGHT_<node>.json`-style dump to
/// `path`. Returns the number of entries written. Safe to call from a
/// panic hook: never panics, reports failures as `io::Error`.
pub fn dump(path: &Path, node: &str, reason: &str) -> io::Result<usize> {
    let (entries, evicted) = contents();
    std::fs::write(path, to_json(node, reason, &entries, evicted))?;
    Ok(entries.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ts_ms: u64, label: &str, round: u64, fields: &[(&str, i64)]) -> FlightEntry {
        FlightEntry {
            ts_ms,
            kind: "note",
            label: label.to_string(),
            cat: "node".to_string(),
            round: Some(round),
            dur_ns: 0,
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Disarms the recorder and discards its contents.
    fn disarm() {
        ARMED.store(false, Ordering::Relaxed);
        *RECORDER.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Flight tests share the global recorder; serialize them.
    fn with_recorder(f: impl FnOnce()) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        f();
        disarm();
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        with_recorder(|| {
            arm(3);
            for i in 0..5u64 {
                record(entry(i, "round", i, &[]));
            }
            let (entries, evicted) = contents();
            assert_eq!(evicted, 2);
            let rounds: Vec<u64> = entries.iter().filter_map(|e| e.round).collect();
            assert_eq!(rounds, vec![2, 3, 4], "oldest entries evicted first");
        });
    }

    #[test]
    fn disarmed_recorder_ignores_everything() {
        with_recorder(|| {
            note("node", "ghost", None, &[]);
            record(entry(1, "ghost", 0, &[]));
            // record() without an armed ring is dropped silently.
            assert_eq!(contents().0.len(), 0);
        });
    }

    #[test]
    fn spans_are_mirrored_while_armed_even_without_tracing() {
        with_recorder(|| {
            arm(16);
            assert!(!crate::trace::enabled());
            {
                let _sp = crate::trace::span_round("node", "flight_round", 7);
            }
            let (entries, _) = contents();
            let span = entries
                .iter()
                .find(|e| e.label == "flight_round")
                .expect("span mirrored into flight ring");
            assert_eq!(span.kind, "span");
            assert_eq!(span.round, Some(7));
        });
    }

    #[test]
    fn dump_json_is_deterministic_for_fixed_entries() {
        let entries = vec![
            entry(100, "round", 4, &[("committed", 1), ("proposals", 4)]),
            entry(150, "shutdown", 5, &[]),
        ];
        let a = to_json("3", "shutdown", &entries, 7);
        let b = to_json("3", "shutdown", &entries, 7);
        assert_eq!(a, b);
        assert_eq!(
            a,
            "{\n  \"schema_version\": 1,\n  \"node\": \"3\",\n  \
             \"reason\": \"shutdown\",\n  \"evicted\": 7,\n  \
             \"entries_len\": 2,\n  \"entries\": [\n    \
             {\"ts_ms\": 100, \"kind\": \"note\", \"label\": \"round\", \
             \"cat\": \"node\", \"round\": 4, \"dur_ns\": 0, \
             \"fields\": {\"committed\": 1, \"proposals\": 4}},\n    \
             {\"ts_ms\": 150, \"kind\": \"note\", \"label\": \"shutdown\", \
             \"cat\": \"node\", \"round\": 5, \"dur_ns\": 0, \
             \"fields\": {}}\n  ]\n}\n"
        );
    }

    #[test]
    fn dump_writes_a_parseable_document() {
        with_recorder(|| {
            arm(8);
            note("node", "round", Some(11), &[("committed", 1)]);
            let dir = std::env::temp_dir().join("obs_flight_test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("FLIGHT_test.json");
            let written = dump(&path, "test", "shutdown").unwrap();
            assert_eq!(written, 1);
            let doc = std::fs::read_to_string(&path).unwrap();
            let value = crate::json::parse(&doc).expect("dump parses");
            let entries = value.get("entries").and_then(|v| v.as_arr()).unwrap();
            assert_eq!(entries.len(), 1);
            assert_eq!(entries[0].get("round").and_then(|v| v.as_u64()), Some(11));
            std::fs::remove_file(&path).ok();
        });
    }
}
