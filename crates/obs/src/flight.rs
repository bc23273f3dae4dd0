//! The crash flight recorder: the newest events of the trace ring, dumped as
//! a byte-stable `FLIGHT_<node>.json` when a process panics, trips an
//! invariant, or is shut down by the harness.
//!
//! There is no second ring. A dump renders the newest [`FLIGHT_ENTRIES`]
//! events of [`crate::trace`]'s ring: spans, and the notes [`note`] adds
//! (a node's per-round counter deltas, its `shutdown` marker). It answers
//! "what were this node's last rounds doing" after a `kill -9` postmortem,
//! not "what did the whole run look like"; [`crate::trace::enable`] is the
//! one switch for both.
//!
//! Entries are wall-clock stamped: `ts_ms` is the ring's Unix anchor
//! ([`crate::trace::epoch_unix_ms`]) plus the event's end, so dumps from
//! different machines can be correlated without sharing a monotonic epoch.
//! The document is a pure function of the events — fixed events produce
//! byte-identical documents, which the dump-determinism unit test and the
//! cluster harness's postmortem parser both rely on.

use std::io;
use std::path::Path;
use std::time::Instant;

use crate::json::JsonWriter;
use crate::trace::{self, TraceEvent};

/// Events a dump holds — enough for several rounds of a busy validator
/// (a round emits a handful of spans and one note).
pub const FLIGHT_ENTRIES: usize = 4096;

/// Records a note — the per-round counter-delta entries a node writes at
/// each finalize, and one-off markers like `shutdown` — while tracing is
/// on.
pub fn note(
    cat: &'static str,
    label: &'static str,
    round: Option<u64>,
    fields: &[(&'static str, i64)],
) {
    if !trace::enabled() {
        return;
    }
    let (tid, depth) = trace::here();
    trace::record(TraceEvent {
        name: label,
        cat,
        ts_ns: trace::since_epoch(Instant::now()),
        dur_ns: 0,
        tid,
        depth,
        id: round,
        note: Some(fields.into()),
    });
}

/// Serializes a flight dump of `events` (oldest first), `evicted` older
/// events having come before them. Pure: fixed inputs give byte-identical
/// output.
fn to_json(
    node: &str,
    reason: &str,
    anchor_unix_ms: u64,
    events: &[TraceEvent],
    evicted: u64,
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("schema_version", u64::from(crate::report::SCHEMA_VERSION));
    w.field_str("node", node);
    w.field_str("reason", reason);
    w.field_u64("evicted", evicted);
    w.field_u64("entries_len", events.len() as u64);
    w.key("entries");
    w.begin_array();
    for e in events {
        let end_ms = e.ts_ns.saturating_add(e.dur_ns) / 1_000_000;
        w.begin_inline_object();
        w.field_u64("ts_ms", anchor_unix_ms.saturating_add(end_ms));
        w.field_str("kind", if e.note.is_some() { "note" } else { "span" });
        w.field_str("label", e.name);
        w.field_str("cat", e.cat);
        match e.id {
            Some(r) => w.field_u64("round", r),
            None => w.field_null("round"),
        }
        w.field_u64("dur_ns", e.dur_ns);
        w.key("fields");
        w.begin_inline_object();
        for &(k, v) in e.note.as_deref().unwrap_or_default() {
            w.field_i64(k, v);
        }
        w.end_inline_object();
        w.end_inline_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// The newest [`FLIGHT_ENTRIES`] events as a flight document, and how many
/// entries it holds (`/flight` serves it with reason `"live"`).
pub fn render(node: &str, reason: &str) -> (String, usize) {
    let (events, evicted) = trace::newest(FLIGHT_ENTRIES);
    let doc = to_json(node, reason, trace::epoch_unix_ms(), &events, evicted);
    (doc, events.len())
}

/// Writes [`render`]'s document to `path`. Returns the number of entries
/// written. Safe to call from a panic hook: never panics, reports failures
/// as `io::Error`.
pub fn dump(path: &Path, node: &str, reason: &str) -> io::Result<usize> {
    let (doc, entries) = render(node, reason);
    std::fs::write(path, doc)?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tests::with_tracer;

    fn entry(
        ts_ms: u64,
        label: &'static str,
        round: u64,
        fields: &[(&'static str, i64)],
    ) -> TraceEvent {
        TraceEvent {
            name: label,
            cat: "node",
            ts_ns: ts_ms * 1_000_000,
            dur_ns: 0,
            tid: 1,
            depth: 0,
            id: Some(round),
            note: Some(fields.into()),
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_entries() {
        with_tracer(|| {
            trace::enable(0);
            let total = FLIGHT_ENTRIES as u64 + 2;
            for round in 0..total {
                note("node", "round", Some(round), &[]);
            }
            let (events, evicted) = trace::newest(FLIGHT_ENTRIES);
            assert_eq!(evicted, 2);
            assert_eq!(events.len(), FLIGHT_ENTRIES);
            assert_eq!(events[0].id, Some(2), "oldest entries evicted first");
            assert_eq!(events[FLIGHT_ENTRIES - 1].id, Some(total - 1));
        });
    }

    #[test]
    fn disarmed_recorder_ignores_everything() {
        with_tracer(|| {
            note("node", "ghost", None, &[]);
            let _sp = trace::span("node", "ghost");
            assert_eq!(render("n", "live").1, 0);
        });
    }

    #[test]
    fn dump_holds_spans_and_notes_from_the_one_ring() {
        with_tracer(|| {
            trace::enable(16);
            {
                let _sp = trace::span_round("node", "flight_round", 7);
            }
            note("node", "round", Some(7), &[("committed", 1)]);
            let (doc, entries) = render("n", "live");
            assert_eq!(entries, 2);
            let doc = crate::json::parse(&doc).expect("dump parses");
            let entries = doc.get("entries").and_then(|v| v.as_arr()).unwrap();
            let kinds: Vec<_> = entries
                .iter()
                .map(|e| e.get("kind").and_then(|v| v.as_str()).unwrap())
                .collect();
            assert_eq!(kinds, ["span", "note"]);
            assert_eq!(entries[0].get("round").and_then(|v| v.as_u64()), Some(7));
            // The span stays in the ring for `/trace` readers too.
            assert_eq!(trace::read_from(0).0.len(), 2);
        });
    }

    #[test]
    fn dump_json_is_deterministic_for_fixed_entries() {
        let entries = vec![
            entry(100, "round", 4, &[("committed", 1), ("proposals", 4)]),
            entry(150, "shutdown", 5, &[]),
        ];
        let a = to_json("3", "shutdown", 0, &entries, 7);
        let b = to_json("3", "shutdown", 0, &entries, 7);
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
        with_tracer(|| {
            trace::enable(8);
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
