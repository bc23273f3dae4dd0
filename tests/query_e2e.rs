//! End-to-end tests for the indexed query-serving store: golden
//! byte-stability of the postings sidecar across shard counts and
//! reopen, a property test that every account-posting offset
//! round-trips through the raw archive to an event touching that
//! account, and an HTTP integration pass exercising every endpoint
//! against a synthesized archive over real sockets.

use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use ripple_core::crypto::{hex, AccountId};
use ripple_core::query::{serve, EngineConfig, QueryEngine};
use ripple_core::store::{decode_frame_at, HistoryEvent, PostingsConfig, PostingsIndex};
use ripple_core::{Generator, SynthConfig};

/// One synthesized archive shared by every test in this file.
fn archive() -> &'static [u8] {
    static ARCHIVE: OnceLock<Vec<u8>> = OnceLock::new();
    ARCHIVE.get_or_init(|| {
        let out = Generator::new(SynthConfig {
            payments: 3_000,
            seed: 20_130_777,
            ..SynthConfig::default()
        })
        .run();
        let mut buf = Vec::new();
        out.write_archive(&mut buf).expect("archive encode");
        buf
    })
}

fn postings() -> &'static PostingsIndex {
    static POSTINGS: OnceLock<PostingsIndex> = OnceLock::new();
    POSTINGS
        .get_or_init(|| PostingsIndex::build(archive(), &PostingsConfig::default()).expect("build"))
}

/// Account list with offsets, stable order, built once for the property
/// test below.
fn account_table() -> &'static Vec<(AccountId, Vec<u64>)> {
    static TABLE: OnceLock<Vec<(AccountId, Vec<u64>)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table: Vec<(AccountId, Vec<u64>)> = postings()
            .iter_accounts()
            .map(|(a, o)| (*a, o.to_vec()))
            .collect();
        table.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
        table
    })
}

fn touches(event: &HistoryEvent, account: &AccountId) -> bool {
    match event {
        HistoryEvent::Payment(p) => p.sender == *account || p.destination == *account,
        HistoryEvent::OfferPlaced { owner, .. } => owner == account,
        HistoryEvent::TrustSet {
            truster, trustee, ..
        } => truster == account || trustee == account,
        HistoryEvent::AccountCreated { account: a, .. } => a == account,
    }
}

/// Golden test: the sidecar encoding is byte-identical for any build
/// shard count, and reopening the bytes reproduces them exactly.
#[test]
fn sidecar_bytes_are_identical_across_shard_counts_and_reopen() {
    let golden = postings().to_bytes();
    assert!(!golden.is_empty());
    for shards in [2usize, 8] {
        let built = PostingsIndex::build(
            archive(),
            &PostingsConfig {
                shards,
                ..PostingsConfig::default()
            },
        )
        .expect("sharded build");
        assert_eq!(
            built.to_bytes(),
            golden,
            "{shards}-shard build diverged from the single-shard sidecar"
        );
    }
    let reopened = PostingsIndex::from_bytes(&golden).expect("reopen");
    assert_eq!(reopened.to_bytes(), golden, "reopen must round-trip");
    assert_eq!(reopened.records(), postings().records());
    assert_eq!(reopened.accounts(), postings().accounts());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every posting offset names a frame in the raw archive whose event
    /// actually touches the posting's account.
    #[test]
    fn posting_offsets_decode_to_the_accounts_events(pick_a in 0usize..4096, pick_o in 0usize..4096) {
        let table = account_table();
        let (account, offsets) = &table[pick_a % table.len()];
        let offset = offsets[pick_o % offsets.len()];
        let (event, _len) = decode_frame_at(archive(), offset).expect("frame decode");
        prop_assert!(
            touches(&event, account),
            "offset {} decoded to an event not touching {}",
            offset,
            hex::encode(account.as_bytes())
        );
    }
}

fn get(addr: std::net::SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Without `Connection: close` the keep-alive server holds the socket
    // open until its idle timeout, and reading to EOF waits that out.
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Serves the synthesized archive and exercises every endpoint once,
/// asserting both status and load-bearing body content.
#[test]
fn http_api_serves_every_endpoint() {
    let (engine, report) =
        QueryEngine::open(archive().to_vec(), &EngineConfig::default()).expect("engine open");
    let engine = Arc::new(engine);
    let server = serve(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // /health
    let (status, body) = get(addr, "/health");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"records\": {}", report.records)),
        "{body}"
    );

    // /stats
    let (status, body) = get(addr, "/stats");
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"accounts\": {}", report.accounts)),
        "{body}"
    );
    assert!(body.contains("\"cache\""), "{body}");

    // /account/<hex40>: busiest account, limit applies to the tail.
    let (account, total) = engine
        .postings()
        .iter_accounts()
        .max_by_key(|(_, o)| o.len())
        .map(|(a, o)| (*a, o.len()))
        .expect("non-empty archive");
    let account_hex = hex::encode(account.as_bytes());
    let (status, body) = get(addr, &format!("/account/{account_hex}?limit=5"));
    assert_eq!(status, 200);
    assert!(body.contains(&format!("\"total\": {total}")), "{body}");
    assert_eq!(body.matches("\"offset\":").count(), 5.min(total), "{body}");

    // /range over the archive's real time bounds.
    let (lo, hi) = engine.time_bounds().expect("bounds");
    let (status, body) = get(
        addr,
        &format!(
            "/range?from={}&to={}&limit=25",
            lo.seconds(),
            hi.seconds() + 1
        ),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"returned\": 25"), "{body}");

    // /flow for a (currency, day) class that exists.
    let (&(currency, day), stat) = engine
        .postings()
        .iter_flows()
        .next()
        .expect("at least one flow class");
    let (status, body) = get(addr, &format!("/flow?currency={currency}&day={day}"));
    assert_eq!(status, 200);
    assert!(
        body.contains(&format!("\"payments\": {}", stat.payments)),
        "{body}"
    );

    // /class with a full-resolution observation taken from a real payment:
    // its sender must be among the candidates.
    let arena = engine.payment_arena();
    let p = &arena[arena.len() / 2];
    let (status, body) = get(
        addr,
        &format!(
            "/class?amount={}&time={}&currency={}&dest={}&spec=m,sc,c,d",
            p.amount,
            p.timestamp.seconds(),
            p.currency,
            hex::encode(p.destination.as_bytes())
        ),
    );
    assert_eq!(status, 200);
    assert!(body.contains(&hex::encode(p.sender.as_bytes())), "{body}");

    // Errors stay structured.
    let (status, body) = get(addr, "/flow?currency=USD");
    assert_eq!(status, 400);
    assert!(body.contains("\"error\""), "{body}");
    let (status, _) = get(addr, "/no-such");
    assert_eq!(status, 404);

    server.shutdown();
}

/// The engine's indexed account history equals a full linear rescan for
/// a sample of accounts, through the archive actually served above.
#[test]
fn indexed_history_matches_linear_rescan() {
    let (engine, _) =
        QueryEngine::open(archive().to_vec(), &EngineConfig::default()).expect("engine open");
    let table = account_table();
    for (account, offsets) in table.iter().step_by(table.len() / 16 + 1) {
        let indexed = engine
            .account_history(account, usize::MAX)
            .expect("indexed history");
        let rescan = engine
            .rescan_account_history(account)
            .expect("linear rescan");
        assert_eq!(indexed, rescan, "{}", hex::encode(account.as_bytes()));
        assert_eq!(indexed.len(), offsets.len());
    }
}
