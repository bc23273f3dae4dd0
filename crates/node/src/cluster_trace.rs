//! Harness-side client for the node admin plane: per-node trace/flight
//! polling with hard deadlines, clock alignment, and the merged
//! `TRACE_cluster.json` writer.
//!
//! Every instrumented `ripple-node` serves `/health`, `/metrics`,
//! `/trace` and `/flight` from its own poll loop (see
//! [`ripple_obs::http`]). During a cluster run the harness drives one
//! [`NodeProbe`] per validator: a small state machine that periodically
//! issues blocking HTTP GETs with a *per-request deadline*, so a banned,
//! crashed, or wedged node can never stall fault injection — a failed
//! poll is recorded as a telemetry gap and retried with exponential
//! backoff rather than awaited.
//!
//! Clock alignment: every trace event a node reports carries `ts_ns`
//! relative to that process's private monotonic epoch. `/health` exposes
//! the epoch as Unix wall-clock milliseconds (`trace_epoch_unix_ms`) plus
//! `skew_bound_ms`, the node's min-over-heartbeats bound on peer clock
//! skew + one-way delay. The probe resolves each event to corrected
//! absolute nanoseconds at collection time (`anchor - skew/2 + ts_ns`),
//! so events from a process that was killed and restarted (new epoch, new
//! cursor) still land on one shared timeline. The anchor is fixed for a
//! process's life, so the probe keys its `/trace` cursor to it: a new
//! anchor is a new process, whose ring it reads from 0.
//! [`merge_cluster_trace`] then emits a single `chrome://tracing` document with one process lane
//! per validator.

use std::collections::BTreeMap;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ripple_obs::json::{escape_into, parse, Value};
use ripple_obs::LazyCounter;

static PROBE_POLLS: LazyCounter = LazyCounter::new("harness.admin.polls");
static PROBE_GAPS: LazyCounter = LazyCounter::new("harness.admin.gaps");
static PROBE_EVENTS: LazyCounter = LazyCounter::new("harness.admin.trace_events");

/// Cap on one admin response body (the trace ring is bounded, so any
/// larger body is a protocol error, not data).
const MAX_BODY: usize = 8 * 1024 * 1024;

/// The round-metric histograms lifted out of each node's `/metrics`
/// snapshot into `BENCH_node.json`.
pub const ROUND_HISTOGRAMS: [&str; 3] = [
    "node.round.proposal_dispersion_ms",
    "node.round.validation_latency_ms",
    "node.round.quorum_collect_ms",
];

/// One blocking `GET` with a hard deadline covering connect, write, and
/// the whole read (the admin servers honor `Connection: close`, so EOF
/// terminates the body). Returns the body of a `200` response.
///
/// # Errors
///
/// Connect/read/write failures, deadline expiry, non-200 statuses, and
/// malformed responses all surface as `io::Error` — the caller treats
/// every one of them as a poll gap.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<String> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: admin\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw: Vec<u8> = Vec::with_capacity(4096);
    let mut buf = [0u8; 16 * 1024];
    loop {
        let left = timeout.saturating_sub(started.elapsed());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "admin response deadline expired",
            ));
        }
        stream.set_read_timeout(Some(left))?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if raw.len() > MAX_BODY {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "admin response too large",
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let text = String::from_utf8(raw)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "truncated HTTP response",
        ));
    };
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .unwrap_or(0);
    if status != 200 {
        return Err(std::io::Error::other(format!("HTTP {status} for {path}")));
    }
    Ok(body.to_string())
}

/// A trace event collected from a remote node, resolved to corrected
/// absolute time at collection (see the module docs).
#[derive(Debug, Clone)]
pub struct RemoteEvent {
    /// Span name.
    pub name: String,
    /// Span category.
    pub cat: String,
    /// Corrected absolute start time, Unix nanoseconds.
    pub unix_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Thread id inside the emitting process.
    pub tid: u64,
    /// Span-stack depth on that thread.
    pub depth: u64,
    /// Consensus round tag, if the span carried one.
    pub round: Option<u64>,
}

/// A percentile readout of one remote histogram, parsed back out of a
/// node's `/metrics` snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// What one probe saw over the whole run — the part of [`NodeProbe`]
/// that outlives it, embedded in the cluster report.
#[derive(Debug, Clone, Default)]
pub struct ProbeSummary {
    /// Trace events collected.
    pub events: usize,
    /// Successful poll cycles.
    pub polls_ok: u64,
    /// Failed poll cycles (unreachable/timed-out admin endpoint). A dead
    /// node keeps accruing gaps at the backed-off cadence — the gap *is*
    /// the telemetry.
    pub gaps: u64,
    /// Events the node's ring overwrote before this probe read them (the
    /// ring overtook the poll cadence).
    pub lost: u64,
    /// Events the node's ring has overwritten in all, as it reports them.
    pub dropped: u64,
    /// The node's trace epoch as Unix ms, once a `/health` probe landed.
    pub anchor_unix_ms: Option<u64>,
    /// The node's latest heartbeat-derived clock-skew bound.
    pub skew_bound_ms: Option<i64>,
    /// Round-metric histograms from the latest `/metrics` snapshot.
    pub round_metrics: BTreeMap<String, HistSummary>,
}

/// Polls one validator's admin endpoint on a fixed cadence with
/// per-request deadlines and exponential backoff on failure.
#[derive(Debug)]
pub struct NodeProbe {
    /// Validator index.
    pub node: usize,
    /// Admin endpoint address.
    pub addr: SocketAddr,
    /// Collected events, corrected to absolute time.
    pub events: Vec<RemoteEvent>,
    /// Latest `/flight` body, for crash snapshots of killed nodes.
    pub flight: Option<String>,
    /// Run summary (gaps, anchors, round metrics, ...).
    pub summary: ProbeSummary,
    cursor: u64,
    /// The anchor of the process `cursor` belongs to.
    cursor_anchor: Option<u64>,
    next_poll: Option<Instant>,
    interval: Duration,
    backoff: Duration,
}

impl NodeProbe {
    /// A probe that polls `addr` every `interval` once [`Self::poll_due`]
    /// starts being called.
    pub fn new(node: usize, addr: SocketAddr, interval: Duration) -> NodeProbe {
        NodeProbe {
            node,
            addr,
            events: Vec::new(),
            flight: None,
            summary: ProbeSummary::default(),
            cursor: 0,
            cursor_anchor: None,
            next_poll: None,
            interval,
            backoff: interval,
        }
    }

    /// Polls if the cadence says so; returns `true` if a poll cycle ran
    /// (successful or not). The whole cycle is bounded by a few
    /// `timeout`-limited requests, never by the remote node's health.
    pub fn poll_due(&mut self, now: Instant, timeout: Duration) -> bool {
        match self.next_poll {
            Some(at) if now < at => return false,
            _ => {}
        }
        let ok = self.poll_now(timeout);
        self.backoff = if ok {
            self.interval
        } else {
            // Unreachable endpoints get probed less and less often, up to
            // 8x the base cadence — cheap enough to keep trying forever.
            (self.backoff * 2).min(self.interval * 8)
        };
        self.next_poll = Some(now + self.backoff);
        true
    }

    /// One immediate poll cycle regardless of cadence: `/health` (clock
    /// anchor + skew), `/trace` (spans since our cursor), `/flight` and
    /// `/metrics` snapshots. Returns `true` on full success.
    pub fn poll_now(&mut self, timeout: Duration) -> bool {
        PROBE_POLLS.add(1);
        let ok = self.fetch_health(timeout)
            && self.fetch_trace(timeout)
            && self.fetch_flight(timeout)
            && self.fetch_metrics(timeout);
        if ok {
            self.summary.polls_ok += 1;
        } else {
            self.summary.gaps += 1;
            PROBE_GAPS.add(1);
        }
        ok
    }

    /// The anchor used to resolve `ts_ns` into absolute time: the node's
    /// trace epoch minus half its skew bound (the symmetric-delay
    /// estimate of the one-way component).
    fn corrected_anchor_ms(&self) -> Option<i64> {
        let anchor = i64::try_from(self.summary.anchor_unix_ms?).ok()?;
        Some(anchor - self.summary.skew_bound_ms.unwrap_or(0) / 2)
    }

    fn fetch_health(&mut self, timeout: Duration) -> bool {
        let Ok(body) = http_get(self.addr, "/health", timeout) else {
            return false;
        };
        let Ok(doc) = parse(&body) else { return false };
        // Refresh on every poll: a restarted process has a brand-new
        // epoch, and /health is the only way to notice.
        self.summary.anchor_unix_ms = doc.get("trace_epoch_unix_ms").and_then(Value::as_u64);
        self.summary.skew_bound_ms = doc.get("skew_bound_ms").and_then(Value::as_i64);
        self.summary.anchor_unix_ms.is_some()
    }

    fn fetch_trace(&mut self, timeout: Duration) -> bool {
        if self.cursor_anchor != self.summary.anchor_unix_ms {
            // A new anchor is a new process: its ring numbers from 0.
            self.cursor = 0;
            self.cursor_anchor = self.summary.anchor_unix_ms;
        }
        let path = format!("/trace?cursor={}", self.cursor);
        let Ok(body) = http_get(self.addr, &path, timeout) else {
            return false;
        };
        let Ok(doc) = parse(&body) else { return false };
        self.cursor = doc.get("cursor").and_then(Value::as_u64).unwrap_or(0);
        self.summary.lost += doc.get("lost").and_then(Value::as_u64).unwrap_or(0);
        self.summary.dropped = doc.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        let Some(anchor_ms) = self.corrected_anchor_ms() else {
            return false;
        };
        let anchor_ns = anchor_ms.saturating_mul(1_000_000).max(0) as u64;
        if let Some(events) = doc.get("events").and_then(|v| v.as_arr()) {
            for e in events {
                let ts_ns = e.get("ts_ns").and_then(Value::as_u64).unwrap_or(0);
                self.events.push(RemoteEvent {
                    name: e
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    cat: e
                        .get("cat")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    unix_ns: anchor_ns.saturating_add(ts_ns),
                    dur_ns: e.get("dur_ns").and_then(Value::as_u64).unwrap_or(0),
                    tid: e.get("tid").and_then(Value::as_u64).unwrap_or(0),
                    depth: e.get("depth").and_then(Value::as_u64).unwrap_or(0),
                    round: e.get("round").and_then(Value::as_u64),
                });
                PROBE_EVENTS.add(1);
            }
        }
        self.summary.events = self.events.len();
        true
    }

    fn fetch_flight(&mut self, timeout: Duration) -> bool {
        match http_get(self.addr, "/flight", timeout) {
            Ok(body) => {
                self.flight = Some(body);
                true
            }
            Err(_) => false,
        }
    }

    fn fetch_metrics(&mut self, timeout: Duration) -> bool {
        let Ok(body) = http_get(self.addr, "/metrics", timeout) else {
            return false;
        };
        let Ok(doc) = parse(&body) else { return false };
        let Some(hists) = doc.get("histograms") else {
            return false;
        };
        for name in ROUND_HISTOGRAMS {
            if let Some(h) = hists.get(name) {
                let field = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
                self.summary.round_metrics.insert(
                    name.to_string(),
                    HistSummary {
                        count: field("count"),
                        sum: field("sum"),
                        p50: field("p50"),
                        p90: field("p90"),
                        p99: field("p99"),
                        max: field("max"),
                    },
                );
            }
        }
        true
    }
}

/// A count-weighted cluster-level aggregate of per-node histogram
/// readouts (`count`/`sum` add; percentiles are count-weighted means,
/// `max` is the true max).
pub fn aggregate_hist(per_node: &[HistSummary]) -> HistSummary {
    let total: u64 = per_node.iter().map(|h| h.count).sum();
    if total == 0 {
        return HistSummary::default();
    }
    let weighted = |pick: fn(&HistSummary) -> u64| -> u64 {
        let acc: u128 = per_node
            .iter()
            .map(|h| u128::from(pick(h)) * u128::from(h.count))
            .sum();
        (acc / u128::from(total)) as u64
    };
    HistSummary {
        count: total,
        sum: per_node.iter().map(|h| h.sum).sum(),
        p50: weighted(|h| h.p50),
        p90: weighted(|h| h.p90),
        p99: weighted(|h| h.p99),
        max: per_node.iter().map(|h| h.max).max().unwrap_or(0),
    }
}

fn push_us(out: &mut String, ns: u64) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Merges every probe's corrected events into one `chrome://tracing`
/// document: one process lane (`pid` = validator id + 1) per node, with
/// `process_name` metadata, timestamps relative to the earliest event
/// across the cluster, and a top-level `metadata` object recording the
/// shared round-0 epoch and each node's anchor, skew bound, and poll
/// gaps.
pub fn merge_cluster_trace(probes: &[NodeProbe], epoch_unix_ms: u64) -> String {
    use std::fmt::Write as _;
    let base_ns = probes
        .iter()
        .flat_map(|p| p.events.iter().map(|e| e.unix_ns))
        .min()
        .unwrap_or(epoch_unix_ms.saturating_mul(1_000_000));
    let mut merged: Vec<(usize, &RemoteEvent)> = probes
        .iter()
        .flat_map(|p| p.events.iter().map(move |e| (p.node, e)))
        .collect();
    merged.sort_by_key(|&(node, e)| (e.unix_ns, std::cmp::Reverse(e.dur_ns), node, e.tid));

    let mut out = String::with_capacity(256 + merged.len() * 160);
    out.push_str("{\"traceEvents\": [");
    let mut first = true;
    let mut sep = |out: &mut String| {
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
    };
    for p in probes {
        sep(&mut out);
        let _ = write!(
            out,
            "  {{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": \"validator {}\"}}}}",
            p.node + 1,
            p.node
        );
    }
    for (node, e) in &merged {
        sep(&mut out);
        out.push_str("  {\"name\": \"");
        escape_into(&mut out, &e.name);
        out.push_str("\", \"cat\": \"");
        escape_into(&mut out, &e.cat);
        out.push_str("\", \"ph\": \"X\", \"ts\": ");
        push_us(&mut out, e.unix_ns.saturating_sub(base_ns));
        out.push_str(", \"dur\": ");
        push_us(&mut out, e.dur_ns);
        let _ = write!(
            out,
            ", \"pid\": {}, \"tid\": {}, \"args\": {{",
            node + 1,
            e.tid
        );
        let _ = write!(out, "\"depth\": {}", e.depth);
        if let Some(round) = e.round {
            let _ = write!(out, ", \"round\": {round}");
        }
        out.push_str("}}");
    }
    if !first {
        out.push('\n');
    }
    out.push_str("], \"metadata\": {");
    let _ = write!(
        out,
        "\"epoch_unix_ms\": {epoch_unix_ms}, \"base_unix_ns\": {base_ns}, \"nodes\": ["
    );
    for (i, p) in probes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"node\": {}, \"events\": {}, \"polls_ok\": {}, \"gaps\": {}, \
             \"lost\": {}, \"dropped\": {}, ",
            p.node,
            p.events.len(),
            p.summary.polls_ok,
            p.summary.gaps,
            p.summary.lost,
            p.summary.dropped
        );
        match p.summary.anchor_unix_ms {
            Some(a) => {
                let _ = write!(out, "\"anchor_unix_ms\": {a}, ");
            }
            None => out.push_str("\"anchor_unix_ms\": null, "),
        }
        match p.summary.skew_bound_ms {
            Some(s) => {
                let _ = write!(out, "\"skew_bound_ms\": {s}}}");
            }
            None => out.push_str("\"skew_bound_ms\": null}"),
        }
    }
    out.push_str("]}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_with(
        node: usize,
        anchor_ms: u64,
        skew: Option<i64>,
        events: Vec<RemoteEvent>,
    ) -> NodeProbe {
        let mut p = NodeProbe::new(
            node,
            "127.0.0.1:1".parse().expect("addr"),
            Duration::from_millis(100),
        );
        p.summary.anchor_unix_ms = Some(anchor_ms);
        p.summary.skew_bound_ms = skew;
        p.summary.events = events.len();
        p.events = events;
        p
    }

    fn ev(name: &str, unix_ns: u64, round: Option<u64>) -> RemoteEvent {
        RemoteEvent {
            name: name.to_string(),
            cat: "node".to_string(),
            unix_ns,
            dur_ns: 500,
            tid: 1,
            depth: 1,
            round,
        }
    }

    #[test]
    fn merged_trace_gives_each_validator_its_own_lane() {
        let probes = vec![
            probe_with(0, 1_000, None, vec![ev("round", 1_000_000_000, Some(3))]),
            probe_with(1, 1_000, Some(2), vec![ev("round", 1_000_500_000, Some(3))]),
        ];
        let json = merge_cluster_trace(&probes, 1_000);
        assert!(json.contains("\"name\": \"validator 0\""));
        assert!(json.contains("\"name\": \"validator 1\""));
        assert!(json.contains("\"pid\": 1"));
        assert!(json.contains("\"pid\": 2"));
        assert!(json.contains("\"round\": 3"));
        // Timestamps are relative to the earliest event: node 0 at 0 us,
        // node 1 half a millisecond later.
        assert!(json.contains("\"ts\": 0.000"));
        assert!(json.contains("\"ts\": 500.000"));
        // The merged document parses as JSON.
        let doc = parse(&json).expect("valid json");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|v| v.as_arr())
                .map(<[_]>::len),
            Some(4),
            "2 metadata + 2 span events"
        );
        let meta = doc.get("metadata").expect("metadata");
        assert_eq!(
            meta.get("epoch_unix_ms").and_then(Value::as_u64),
            Some(1_000)
        );
        assert_eq!(
            meta.get("nodes").and_then(|v| v.as_arr()).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn empty_probe_set_still_emits_a_loadable_document() {
        let json = merge_cluster_trace(&[], 42);
        let doc = parse(&json).expect("valid json");
        assert_eq!(
            doc.get("traceEvents")
                .and_then(|v| v.as_arr())
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn aggregate_hist_weights_by_count() {
        let a = HistSummary {
            count: 3,
            sum: 30,
            p50: 10,
            p90: 10,
            p99: 10,
            max: 10,
        };
        let b = HistSummary {
            count: 1,
            sum: 50,
            p50: 50,
            p90: 50,
            p99: 50,
            max: 50,
        };
        let agg = aggregate_hist(&[a, b]);
        assert_eq!(agg.count, 4);
        assert_eq!(agg.sum, 80);
        assert_eq!(agg.p50, 20, "(10*3 + 50*1) / 4");
        assert_eq!(agg.max, 50);
        assert_eq!(aggregate_hist(&[]), HistSummary::default());
    }

    #[test]
    fn unreachable_endpoint_is_a_gap_not_a_stall() {
        // A port nobody listens on: the poll must come back quickly with
        // a recorded gap, and the cadence must back off.
        let addr: SocketAddr = {
            let hold = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            hold.local_addr().expect("addr")
        }; // listener dropped: connections now refused
        let mut probe = NodeProbe::new(0, addr, Duration::from_millis(50));
        let started = Instant::now();
        assert!(probe.poll_due(Instant::now(), Duration::from_millis(200)));
        assert!(
            started.elapsed() < Duration::from_millis(1_000),
            "refused connect must fail fast"
        );
        assert_eq!(probe.summary.gaps, 1);
        assert_eq!(probe.summary.polls_ok, 0);
        // Immediately after, the probe is not due again (backoff).
        assert!(!probe.poll_due(Instant::now(), Duration::from_millis(200)));
    }

    #[test]
    fn a_restarted_node_is_read_from_its_first_event() {
        use ripple_obs::http::{query_param, serve, Request, Response};
        use ripple_obs::trace::{chunk_json, TraceChunk, TraceEvent};
        use std::sync::{Arc, Mutex};
        // The process behind the endpoint: its trace anchor and how many
        // round spans its ring holds (sequence number i is round i).
        let process = Arc::new(Mutex::new((1_000u64, 3u64)));
        let state = process.clone();
        let server = serve("127.0.0.1:0", "fake-node", move |req: &Request| {
            let (anchor, held) = *state.lock().expect("state");
            match req.path.as_str() {
                "/health" => Response::json(format!("{{\"trace_epoch_unix_ms\": {anchor}}}")),
                "/trace" => {
                    let cursor = query_param(&req.query, "cursor").and_then(|c| c.parse().ok());
                    let from = cursor.filter(|&c| c <= held).unwrap_or(0);
                    let events = (from..held)
                        .map(|round| TraceEvent {
                            name: "round",
                            cat: "node",
                            ts_ns: round * 1_000,
                            dur_ns: 10,
                            tid: 1,
                            depth: 1,
                            id: Some(round),
                            note: None,
                        })
                        .collect();
                    Response::json(chunk_json(&TraceChunk {
                        events,
                        cursor: held,
                        lost: 0,
                        dropped: 0,
                    }))
                }
                "/metrics" => Response::json("{\"histograms\": {}}".to_string()),
                _ => Response::json("{}".to_string()),
            }
        })
        .expect("serve");
        let mut probe = NodeProbe::new(0, server.addr(), Duration::from_millis(10));
        assert!(probe.poll_now(Duration::from_secs(2)));
        // Killed and restarted: the new process has already recorded more
        // events than the old one handed out as our cursor.
        *process.lock().expect("state") = (2_000, 5);
        assert!(probe.poll_now(Duration::from_secs(2)));
        let seen: Vec<(u64, Option<u64>)> = probe
            .events
            .iter()
            .map(|e| (e.unix_ns / 1_000_000, e.round))
            .collect();
        let expected: Vec<(u64, Option<u64>)> = (0..3)
            .map(|r| (1_000, Some(r)))
            .chain((0..5).map(|r| (2_000, Some(r))))
            .collect();
        assert_eq!(seen, expected);
        assert_eq!(probe.summary.lost, 0);
        server.shutdown();
    }
}
