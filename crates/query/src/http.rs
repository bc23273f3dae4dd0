//! The query engine's HTTP/1.1 front end.
//!
//! Transport lives in the shared [`ripple_obs::http`] server (non-blocking
//! accept, `peek`-probe readiness, keep-alive connections, `GET`-only);
//! this module owns only the routing and the body builders. Every body is
//! byte-stable JSON from [`ripple_obs::json::JsonWriter`]: the same query
//! against the same archive returns the same bytes, so endpoint outputs
//! diff cleanly across runs (the same property every `BENCH_*.json`
//! artifact relies on).
//!
//! Connections are keep-alive by default and honor `Connection: close`
//! from the client, so a closed-loop pollster pays one TCP handshake for
//! its whole run.
//!
//! # Endpoints
//!
//! | Route | Query parameters | Serves |
//! |---|---|---|
//! | `/health` | — | liveness + record count |
//! | `/stats` | — | index + cache counters |
//! | `/account/<hex40>` | `limit` | account history (postings + block cache) |
//! | `/range` | `from`, `to`, `limit` | `[from, to)` window (exact block seek + admission-gated frame walk) |
//! | `/flow` | `currency`, `day` | per-(currency, day) flow aggregate |
//! | `/class` | `amount`, `time`, `currency`, `strength`, `dest`, `spec` | fingerprint-class candidates |
//! | `/metrics` | — | full metrics-registry snapshot |
//! | `/timeseries` | `last` | windowed request rates and handle-latency percentiles |
//! | `/trace` | `cursor` | trace-ring events after `cursor` (reading consumes nothing) |
//! | `/flight` | — | live flight-recorder contents |
//!
//! The last four are the shared admin plane ([`ripple_obs::http::admin_response`])
//! every instrumented process in the workspace exposes; `ripple-node`
//! serves the same routes from its round loop.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ripple_crypto::{hex, AccountId};
use ripple_deanon::{
    AmountResolution, CurrencyStrength, Observation, ResolutionSpec, TimeResolution,
};
use ripple_ledger::{Currency, RippleTime};
use ripple_obs::http::{admin_response, query_param, timeseries_response, Request, Response};
use ripple_obs::json::JsonWriter;
use ripple_obs::timeseries::TimeSeries;
use ripple_obs::{LazyCounter, LazyTimer};
use ripple_store::HistoryEvent;

use crate::engine::QueryEngine;

pub use ripple_obs::http::HttpServer;

static HTTP_REQUESTS: LazyCounter = LazyCounter::new("query.http.requests");
static HTTP_ERRORS: LazyCounter = LazyCounter::new("query.http.errors");
static HTTP_TIMER: LazyTimer = LazyTimer::new("query.http.handle");

/// Most events one response will carry; `limit` above this is clamped.
const MAX_LIMIT: usize = 10_000;

/// Default `limit` when the query string omits it.
const DEFAULT_LIMIT: usize = 100;

/// `/timeseries` window width for the query server.
const WINDOW_MS: u64 = 1_000;

/// Builds the query server's live time series: request/error rates and
/// handle-latency window percentiles.
fn build_timeseries() -> TimeSeries {
    let mut ts = TimeSeries::new(WINDOW_MS, 120);
    ts.counter("query.http.requests", HTTP_REQUESTS.force());
    ts.counter("query.http.errors", HTTP_ERRORS.force());
    ts.histogram("query.http.handle", HTTP_TIMER.force());
    ts
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and serves `engine` from a
/// background thread.
///
/// # Errors
///
/// [`io::Error`] if the bind fails.
pub fn serve(engine: Arc<QueryEngine>, addr: &str) -> io::Result<HttpServer> {
    let series = Mutex::new(build_timeseries());
    let epoch = Instant::now();
    ripple_obs::http::serve(addr, "query-httpd", move |req: &Request| {
        let started = Instant::now();
        let response = dispatch(&engine, &series, epoch, req);
        HTTP_TIMER.record(started.elapsed());
        HTTP_REQUESTS.add(1);
        if response.status >= 400 {
            HTTP_ERRORS.add(1);
        }
        response
    })
}

/// Routes one request: engine endpoints first, then the shared admin
/// plane. The time series is ticked lazily on `/timeseries` reads — the
/// series' own stall handling emits the empty windows in between.
fn dispatch(
    engine: &QueryEngine,
    series: &Mutex<TimeSeries>,
    epoch: Instant,
    req: &Request,
) -> Response {
    if req.path == "/timeseries" {
        let mut series = series.lock().unwrap_or_else(|e| e.into_inner());
        series.tick(epoch.elapsed().as_millis().min(u128::from(u64::MAX)) as u64);
        return timeseries_response(&series, &req.query);
    }
    if let Some(response) = admin_response("query", req) {
        return response;
    }
    let query = req.query.as_str();
    let path = req.path.as_str();
    let result = if path == "/health" {
        Ok(health_body(engine))
    } else if path == "/stats" {
        Ok(stats_body(engine))
    } else if let Some(account) = path.strip_prefix("/account/") {
        account_body(engine, account, query)
    } else if path == "/range" {
        range_body(engine, query)
    } else if path == "/flow" {
        flow_body(engine, query)
    } else if path == "/class" {
        class_body(engine, query)
    } else {
        return Response::error(404, "no such endpoint");
    };
    match result {
        Ok(body) => Response::json(body),
        Err(message) => Response::error(400, &message),
    }
}

/// The `limit` parameter, defaulting to [`DEFAULT_LIMIT`] and capped at
/// [`MAX_LIMIT`].
fn limit(query: &str) -> Result<usize, String> {
    match query_param(query, "limit") {
        None => Ok(DEFAULT_LIMIT),
        Some(raw) => raw
            .parse::<usize>()
            .map(|n| n.min(MAX_LIMIT))
            .map_err(|_| format!("invalid limit {raw:?}")),
    }
}

fn health_body(engine: &QueryEngine) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("status", "ok");
    w.field_u64("records", engine.records());
    w.end_object();
    w.finish()
}

fn stats_body(engine: &QueryEngine) -> String {
    let postings = engine.postings();
    let cache = engine.cache();
    let stats = postings.stats();
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("records", postings.records());
    w.field_u64("accounts", postings.accounts() as u64);
    w.field_u64("flow_classes", postings.flow_classes() as u64);
    w.field_u64("blocks", postings.blocks().len() as u64);
    w.field_u64("block_records", u64::from(postings.block_records()));
    w.field_u64("archive_bytes", postings.archive_len());
    w.field_u64("skipped_bytes", stats.skipped_bytes);
    w.field_u64("corrupt_regions", stats.corrupt_regions);
    w.field_u64("range_scans", engine.range_scans());
    w.field_u64("range_frames", engine.range_frames());
    w.key("cache");
    w.begin_object();
    w.field_u64("hits", cache.hits());
    w.field_u64("misses", cache.misses());
    w.field_f64("hit_rate", cache.hit_rate(), 4);
    w.field_u64("resident_bytes", cache.resident_bytes() as u64);
    w.field_u64("resident_blocks", cache.resident_blocks() as u64);
    w.end_object();
    w.end_object();
    w.finish()
}

/// One event as an inline JSON row; field order is fixed per kind.
fn event_row(w: &mut JsonWriter, offset: u64, event: &HistoryEvent) {
    w.begin_inline_object();
    match event {
        HistoryEvent::Payment(p) => {
            w.field_str("kind", "payment");
            w.field_u64("offset", offset);
            w.field_u64("time", p.timestamp.seconds());
            w.field_str("tx", &hex::encode(p.tx_hash.as_bytes()));
            w.field_str("sender", &hex::encode(p.sender.as_bytes()));
            w.field_str("destination", &hex::encode(p.destination.as_bytes()));
            w.field_str("currency", &p.currency.to_string());
            w.field_str("amount", &p.amount.to_string());
            w.field_u64("ledger_seq", u64::from(p.ledger_seq));
            w.field_bool("cross_currency", p.cross_currency);
        }
        HistoryEvent::OfferPlaced {
            owner,
            offer_seq,
            base,
            quote,
            gets,
            pays,
            timestamp,
        } => {
            w.field_str("kind", "offer");
            w.field_u64("offset", offset);
            w.field_u64("time", timestamp.seconds());
            w.field_str("owner", &hex::encode(owner.as_bytes()));
            w.field_u64("offer_seq", u64::from(*offer_seq));
            w.field_str("base", &base.to_string());
            w.field_str("quote", &quote.to_string());
            w.field_str("gets", &gets.to_string());
            w.field_str("pays", &pays.to_string());
        }
        HistoryEvent::TrustSet {
            truster,
            trustee,
            currency,
            limit,
            timestamp,
        } => {
            w.field_str("kind", "trust_set");
            w.field_u64("offset", offset);
            w.field_u64("time", timestamp.seconds());
            w.field_str("truster", &hex::encode(truster.as_bytes()));
            w.field_str("trustee", &hex::encode(trustee.as_bytes()));
            w.field_str("currency", &currency.to_string());
            w.field_str("limit", &limit.to_string());
        }
        HistoryEvent::AccountCreated { account, timestamp } => {
            w.field_str("kind", "account_created");
            w.field_u64("offset", offset);
            w.field_u64("time", timestamp.seconds());
            w.field_str("account", &hex::encode(account.as_bytes()));
        }
    }
    w.end_inline_object();
}

fn parse_account(s: &str) -> Result<AccountId, String> {
    let bytes = hex::decode(s).map_err(|_| format!("invalid account hex {s:?}"))?;
    let array: [u8; 20] = bytes
        .try_into()
        .map_err(|_| "account hex must be 20 bytes".to_string())?;
    Ok(AccountId::from_bytes(array))
}

fn parse_currency(s: &str) -> Result<Currency, String> {
    Currency::try_code(s).ok_or_else(|| format!("invalid currency code {s:?}"))
}

fn account_body(engine: &QueryEngine, raw: &str, query: &str) -> Result<String, String> {
    let account = parse_account(raw)?;
    let limit = limit(query)?;
    let total = engine.postings().account_offsets(&account).len() as u64;
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("account", &hex::encode(account.as_bytes()));
    w.field_u64("total", total);
    w.key("events");
    w.begin_array();
    engine
        .visit_account_history(&account, limit, |offset, event| {
            event_row(&mut w, offset, event);
        })
        .map_err(|e| e.to_string())?;
    w.end_array();
    w.end_object();
    Ok(w.finish())
}

fn range_body(engine: &QueryEngine, query: &str) -> Result<String, String> {
    let from: u64 = query_param(query, "from")
        .ok_or("missing from")?
        .parse()
        .map_err(|_| "invalid from".to_string())?;
    let to: u64 = query_param(query, "to")
        .ok_or("missing to")?
        .parse()
        .map_err(|_| "invalid to".to_string())?;
    let limit = limit(query)?;
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("from", from);
    w.field_u64("to", to);
    w.key("events");
    w.begin_array();
    let matched = engine
        .visit_range(
            RippleTime::from_seconds(from),
            RippleTime::from_seconds(to),
            limit,
            |offset, event| event_row(&mut w, offset, event),
        )
        .map_err(|e| e.to_string())?;
    w.end_array();
    w.field_u64("returned", matched as u64);
    w.end_object();
    Ok(w.finish())
}

fn flow_body(engine: &QueryEngine, query: &str) -> Result<String, String> {
    let currency = parse_currency(&query_param(query, "currency").ok_or("missing currency")?)?;
    let day: u64 = query_param(query, "day")
        .ok_or("missing day")?
        .parse()
        .map_err(|_| "invalid day".to_string())?;
    let at = RippleTime::from_seconds(day);
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("currency", &currency.to_string());
    w.field_u64("day", at.truncate_to_day().seconds());
    match engine.flow(currency, at) {
        Some(flow) => {
            w.field_u64("payments", flow.payments);
            w.field_str("total", &flow.total().to_string());
        }
        None => {
            w.field_u64("payments", 0);
            w.field_str("total", "0");
        }
    }
    w.end_object();
    Ok(w.finish())
}

fn parse_spec(raw: Option<&str>) -> Result<ResolutionSpec, String> {
    let Some(raw) = raw else {
        return Ok(ResolutionSpec::full());
    };
    let parts: Vec<&str> = raw.split(',').collect();
    if parts.len() != 4 {
        return Err("spec must be four comma-separated tokens, e.g. m,sc,c,d".to_string());
    }
    let amount = match parts[0] {
        "m" => Some(AmountResolution::Maximum),
        "h" => Some(AmountResolution::High),
        "a" => Some(AmountResolution::Average),
        "l" => Some(AmountResolution::Low),
        "-" => None,
        other => return Err(format!("invalid amount resolution {other:?}")),
    };
    let time = match parts[1] {
        "sc" => Some(TimeResolution::Seconds),
        "mn" => Some(TimeResolution::Minutes),
        "hr" => Some(TimeResolution::Hours),
        "dy" => Some(TimeResolution::Days),
        "-" => None,
        other => return Err(format!("invalid time resolution {other:?}")),
    };
    let currency = match parts[2] {
        "c" => true,
        "-" => false,
        other => return Err(format!("invalid currency token {other:?}")),
    };
    let destination = match parts[3] {
        "d" => true,
        "-" => false,
        other => return Err(format!("invalid destination token {other:?}")),
    };
    Ok(ResolutionSpec {
        amount,
        time,
        currency,
        destination,
    })
}

fn spec_token(spec: ResolutionSpec) -> String {
    let amount = match spec.amount {
        Some(AmountResolution::Maximum) => "m",
        Some(AmountResolution::High) => "h",
        Some(AmountResolution::Average) => "a",
        Some(AmountResolution::Low) => "l",
        None => "-",
    };
    let time = match spec.time {
        Some(TimeResolution::Seconds) => "sc",
        Some(TimeResolution::Minutes) => "mn",
        Some(TimeResolution::Hours) => "hr",
        Some(TimeResolution::Days) => "dy",
        None => "-",
    };
    format!(
        "{amount},{time},{},{}",
        if spec.currency { "c" } else { "-" },
        if spec.destination { "d" } else { "-" }
    )
}

fn class_body(engine: &QueryEngine, query: &str) -> Result<String, String> {
    let spec = parse_spec(query_param(query, "spec").as_deref())?;
    let amount = query_param(query, "amount")
        .as_deref()
        .map(|s| s.parse().map_err(|_| format!("invalid amount {s:?}")))
        .transpose()?;
    let time = query_param(query, "time")
        .as_deref()
        .map(|s| {
            s.parse::<u64>()
                .map(RippleTime::from_seconds)
                .map_err(|_| format!("invalid time {s:?}"))
        })
        .transpose()?;
    let currency = query_param(query, "currency")
        .as_deref()
        .map(parse_currency)
        .transpose()?;
    let strength = query_param(query, "strength")
        .as_deref()
        .map(|s| match s {
            "powerful" => Ok(CurrencyStrength::Powerful),
            "medium" => Ok(CurrencyStrength::Medium),
            "weak" => Ok(CurrencyStrength::Weak),
            other => Err(format!("invalid strength {other:?}")),
        })
        .transpose()?;
    let destination = query_param(query, "dest")
        .as_deref()
        .map(parse_account)
        .transpose()?;
    let observation = Observation {
        amount,
        time,
        currency,
        strength,
        destination,
    };
    let candidates = engine.class_candidates(spec, &observation);
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("spec", &spec_token(spec));
    w.field_u64("count", candidates.len() as u64);
    w.key("candidates");
    w.begin_array();
    for account in &candidates {
        w.value_str(&hex::encode(account.as_bytes()));
    }
    w.end_array();
    w.end_object();
    Ok(w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{PathSummary, PaymentRecord};
    use ripple_store::Writer;
    use std::io::{BufRead, Read, Write};
    use std::net::{SocketAddr, TcpStream};

    fn test_engine() -> Arc<QueryEngine> {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for i in 0..40u64 {
            writer
                .write(&HistoryEvent::Payment(PaymentRecord {
                    tx_hash: sha512_half(&i.to_be_bytes()),
                    sender: AccountId::from_bytes([(i % 4) as u8; 20]),
                    destination: AccountId::from_bytes([9; 20]),
                    currency: Currency::USD,
                    issuer: None,
                    amount: "1.5".parse().unwrap(),
                    timestamp: RippleTime::from_seconds(1000 + i * 10),
                    ledger_seq: i as u32,
                    paths: PathSummary::direct(),
                    cross_currency: false,
                    source_currency: None,
                }))
                .unwrap();
        }
        writer.finish().unwrap();
        let config = EngineConfig {
            block_records: 8,
            ..EngineConfig::default()
        };
        Arc::new(QueryEngine::open(buf, &config).unwrap().0)
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .unwrap();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// Reads one keep-alive response (headers + Content-Length body).
    fn read_one(reader: &mut impl BufRead) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .unwrap();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line.trim_end().is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn endpoints_answer_over_real_sockets() {
        let server = serve(test_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/health");
        assert_eq!(status, 200);
        assert!(body.contains("\"records\": 40"), "{body}");

        let account = hex::encode(&[0u8; 20]);
        let (status, body) = get(addr, &format!("/account/{account}?limit=3"));
        assert_eq!(status, 200);
        assert!(body.contains("\"total\": 10"), "{body}");
        assert_eq!(body.matches("\"kind\": \"payment\"").count(), 3);

        let (status, body) = get(addr, "/range?from=1100&to=1150");
        assert_eq!(status, 200);
        assert!(body.contains("\"returned\": 5"), "{body}");
        // Two frames of the seek block skipped, five matched, one
        // terminator.
        let (_, body) = get(addr, "/stats");
        assert!(body.contains("\"range_scans\": 1"), "{body}");
        assert!(body.contains("\"range_frames\": 8"), "{body}");

        let (status, body) = get(addr, "/flow?currency=USD&day=1000");
        assert_eq!(status, 200);
        assert!(body.contains("\"payments\": 40"), "{body}");

        let dest = hex::encode(&[9u8; 20]);
        let (status, body) = get(
            addr,
            &format!("/class?amount=1.5&time=1000&currency=USD&dest={dest}&spec=m,sc,c,d"),
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"count\": 1"), "{body}");
        assert!(body.contains(&hex::encode(&[0u8; 20])), "{body}");

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/account/zz");
        assert_eq!(status, 400);

        server.shutdown();
    }

    #[test]
    fn one_connection_serves_the_whole_session() {
        let server = serve(test_engine(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(stream);
        // Keep-alive: health, stats and a point lookup over ONE socket.
        let account = hex::encode(&[0u8; 20]);
        for target in ["/health", "/stats", &format!("/account/{account}?limit=1")] {
            write!(writer, "GET {target} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
            writer.flush().unwrap();
            let (status, _) = read_one(&mut reader);
            assert_eq!(status, 200, "{target}");
        }
        server.shutdown();
    }

    #[test]
    fn admin_plane_answers_on_the_query_server() {
        ripple_obs::metrics::set_enabled(true);
        let server = serve(test_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("\"schema_version\": 1"), "{body}");
        assert!(body.contains("obs.trace.dropped"), "{body}");

        let (status, body) = get(addr, "/timeseries?last=5");
        assert_eq!(status, 200);
        assert!(body.contains("\"window_ms\": 1000"), "{body}");
        assert!(body.contains("query.http.requests"), "{body}");

        let (status, body) = get(addr, "/trace");
        assert_eq!(status, 200);
        assert!(body.contains("\"cursor\""), "{body}");

        let (status, body) = get(addr, "/flight");
        assert_eq!(status, 200);
        assert!(body.contains("\"node\": \"query\""), "{body}");
        assert!(body.contains("\"reason\": \"live\""), "{body}");

        let (status, _) = get(addr, "/trace?cursor=oops");
        assert_eq!(status, 400);

        server.shutdown();
    }

    #[test]
    fn responses_are_byte_stable() {
        let server = serve(test_engine(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        let (_, first) = get(addr, "/range?from=1000&to=1400&limit=10");
        let (_, second) = get(addr, "/range?from=1000&to=1400&limit=10");
        assert_eq!(first, second);
        server.shutdown();
    }

    #[test]
    fn spec_tokens_round_trip() {
        for token in ["m,sc,c,d", "h,mn,-,d", "-,dy,c,-", "l,-,-,-"] {
            let spec = parse_spec(Some(token)).unwrap();
            assert_eq!(spec_token(spec), token);
        }
        assert!(parse_spec(Some("x,sc,c,d")).is_err());
        assert!(parse_spec(Some("m,sc,c")).is_err());
        assert_eq!(parse_spec(None).unwrap(), ResolutionSpec::full());
    }
}
