//! The schema-versioned `RUN_METRICS.json` artifact.
//!
//! Every instrumented run ends by snapshotting the metrics registry and
//! writing one document:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters": {"synth.exec.payments": 100000, ...},
//!   "gauges": {"synth.exec.reorder_buffer": {"value": 0, "high_water": 3}, ...},
//!   "histograms": {"synth.sink.batch_events": {"count": ..., "sum": ...,
//!                  "p50": ..., "p90": ..., "p99": ..., "max": ...}, ...},
//!   "timers_ns": {"synth.script.chunk_ns": {...}, ...}
//! }
//! ```
//!
//! Sections and the metrics inside them are alphabetical. `counters` and
//! `histograms` hold logical (scheduling-independent) quantities: for a
//! fixed seed and configuration they are byte-identical across worker
//! counts ([`Snapshot::deterministic_json`] extracts exactly that stable
//! subset, plus the schema version). `gauges` and `timers_ns` vary run to
//! run. [`SCHEMA_VERSION`] bumps whenever a key is renamed, removed, or
//! changes meaning; additions are backwards-compatible and don't bump it.

use std::io;
use std::path::Path;

use crate::metrics::{self, Snapshot};

/// Version stamped into every `RUN_METRICS.json` (`schema_version` key).
pub const SCHEMA_VERSION: u32 = 1;

/// Serializes a snapshot as a `RUN_METRICS.json` document.
fn run_metrics_json(snapshot: &Snapshot) -> String {
    snapshot.to_json()
}

/// Snapshots the registry and writes `RUN_METRICS.json` to `path`.
/// Returns the snapshot so callers can also print or inspect it.
///
/// Collector health (`obs.trace.dropped` / `buffered` / `accepted`) is
/// published into the gauge section first, so backpressure on the trace
/// ring is visible in every run artifact.
pub fn write_run_metrics(path: &Path) -> io::Result<Snapshot> {
    crate::trace::publish_health();
    let snapshot = metrics::snapshot();
    std::fs::write(path, run_metrics_json(&snapshot))?;
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_leads_with_the_schema_version() {
        let json = run_metrics_json(&Snapshot::default());
        assert!(
            json.starts_with("{\n  \"schema_version\": 1,\n"),
            "schema_version must be the first key: {json}"
        );
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"timers_ns\""));
    }

    #[test]
    fn deterministic_subset_keeps_the_schema_version() {
        let json = Snapshot::default().deterministic_json();
        assert!(json.starts_with("{\n  \"schema_version\": 1,\n"));
        assert!(!json.contains("timers_ns"));
    }
}
