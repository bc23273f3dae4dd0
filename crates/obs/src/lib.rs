//! Unified observability for the Ripple Observatory workspace.
//!
//! Six facilities, all dependency-free:
//!
//! * [`metrics`] — a global registry of lock-free sharded counters, gauges
//!   and log-bucketed histograms (p50/p90/p99/max readout), snapshotable to
//!   a deterministic, alphabetically-ordered JSON document;
//! * [`trace`] — thread-local span tracing with monotonic timing and a
//!   bounded ring collector supporting both one-shot drains and cursor-based
//!   incremental reads, exportable as a `chrome://tracing` /
//!   Perfetto-loadable trace-event JSON file;
//! * [`timeseries`] — ring-buffered windowed readouts of registry metrics
//!   (per-window rates, sliding percentiles, window high-water gauges),
//!   ticked cheaply from a poll loop and served live over `/timeseries`;
//! * [`flight`] — an always-on bounded crash flight recorder of recent
//!   spans and counter-delta notes, dumped as byte-stable
//!   `FLIGHT_<node>.json` on panic, invariant violation, or shutdown;
//! * [`http`] — the shared hand-rolled HTTP/1.1 admin/query server
//!   (keep-alive, GET-only, pollable from an event loop or threaded);
//! * [`json`] + [`report`] — one hand-rolled JSON writer (escaping, fixed
//!   float formatting, insertion-ordered keys) and a matching exact parser
//!   behind every machine-readable artifact the workspace emits
//!   (`BENCH_synth.json`, `BENCH_liquidity.json`, `RUN_METRICS.json`), so
//!   schemas stay byte-stable.
//!
//! Instrumentation is compiled in everywhere but costs one relaxed atomic
//! load per site while disabled; [`metrics::set_enabled`],
//! [`trace::enable`] and [`flight::arm`] switch recording on (the
//! `experiments` binary does so under `--metrics` / `--trace`, and
//! `ripple-node` under `--admin`).
//!
//! # Examples
//!
//! ```
//! use ripple_obs::metrics::{self, LazyCounter};
//!
//! static FRAMES: LazyCounter = LazyCounter::new("store.writer.frames");
//!
//! metrics::set_enabled(true);
//! FRAMES.add(3);
//! let snap = metrics::snapshot();
//! assert_eq!(snap.counter("store.writer.frames"), Some(3));
//! # metrics::set_enabled(false);
//! # metrics::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod http;
pub mod json;
pub mod metrics;
pub mod report;
pub mod timeseries;
pub mod trace;

pub use metrics::{LazyCounter, LazyGauge, LazyHistogram, LazyTimer, Snapshot};
pub use trace::{span, span_round, Span};
