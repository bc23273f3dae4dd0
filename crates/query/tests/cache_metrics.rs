//! The block cache's admission and eviction policy as counts: a scripted
//! sequence of point lookups on a small archive pins exact
//! `query.cache.{hits, misses, admits, evictions}`.
//!
//! The metrics registry is process-global, so this test has a binary to
//! itself.

use ripple_crypto::{sha512_half, AccountId};
use ripple_ledger::{Currency, PathSummary, PaymentRecord, RippleTime};
use ripple_obs::metrics;
use ripple_query::{EngineConfig, QueryEngine};
use ripple_store::{HistoryEvent, PostingsConfig, PostingsIndex, Writer};

const BLOCK_RECORDS: usize = 8;
const BLOCKS: usize = 8;

fn acct(n: u8) -> AccountId {
    AccountId::from_bytes([n; 20])
}

/// Block `b` holds the eight payments of sender `acct(b + 1)`, so the
/// newest event of that sender lives in block `b` alone.
fn archive() -> Vec<u8> {
    let mut buf = Vec::new();
    let mut writer = Writer::new(&mut buf);
    for i in 0..(BLOCKS * BLOCK_RECORDS) as u64 {
        let record = PaymentRecord {
            tx_hash: sha512_half(&i.to_be_bytes()),
            sender: acct(1 + (i as usize / BLOCK_RECORDS) as u8),
            destination: acct(200),
            currency: Currency::USD,
            issuer: None,
            amount: "1".parse().unwrap(),
            timestamp: RippleTime::from_seconds(1_000 + i),
            ledger_seq: i as u32,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        };
        writer.write(&HistoryEvent::Payment(record)).unwrap();
    }
    writer.finish().unwrap();
    buf
}

fn counter(name: &str) -> u64 {
    metrics::snapshot().counter(name).unwrap_or(0)
}

#[test]
fn scripted_lookups_pin_hits_misses_admits_and_evictions() {
    let archive = archive();
    // What the cache charges for one block: its encoded span plus 96
    // bytes per event. Every frame encodes to the same length here.
    let postings = PostingsIndex::build(
        &archive,
        &PostingsConfig {
            block_records: BLOCK_RECORDS,
            ..PostingsConfig::default()
        },
    )
    .unwrap();
    let starts = postings.blocks();
    assert_eq!(starts.len(), BLOCKS);
    let span = (starts[1] - starts[0]) as usize;
    assert!(starts.windows(2).all(|w| (w[1] - w[0]) as usize == span));
    let block_bytes = span + BLOCK_RECORDS * 96;

    metrics::set_enabled(true);
    // One shard with room for two and a half blocks: the third resident
    // evicts the coldest.
    let config = EngineConfig {
        block_records: BLOCK_RECORDS,
        cache_bytes: 2 * block_bytes + block_bytes / 2,
        cache_shards: 1,
        ..EngineConfig::default()
    };
    let (engine, _) = QueryEngine::open(archive, &config).unwrap();
    let lookup = |block: u8, times: usize| {
        for _ in 0..times {
            let newest = engine.account_history(&acct(block + 1), 1).unwrap();
            let want = 1_000 + (u64::from(block) + 1) * BLOCK_RECORDS as u64 - 1;
            assert_eq!(newest[0].1.timestamp().seconds(), want);
        }
    };

    lookup(0, 3); // three misses admit block 0
    lookup(0, 2); // two hits
    lookup(1, 3); // block 1 admitted
    lookup(1, 1); // one hit
    lookup(2, 3); // block 2 admitted, evicts block 0 (hit, so the bar stays 3)
    lookup(3, 3); // block 3 admitted, evicts block 1
    lookup(4, 3); // block 4 admitted, evicts block 2, never hit: the bar doubles to 6
    lookup(5, 5); // five misses are not enough any more
    lookup(5, 1); // the sixth admits block 5, evicting never-hit block 3 (bar 12)
    lookup(5, 1); // a first hit walks the bar back to 11

    metrics::set_enabled(false);
    let cache = engine.cache();
    assert_eq!(counter("query.cache.hits"), 4);
    assert_eq!(counter("query.cache.misses"), 21);
    assert_eq!(counter("query.cache.admits"), 6);
    assert_eq!(counter("query.cache.evictions"), 4);
    assert_eq!((cache.hits(), cache.misses()), (4, 21));
    assert_eq!(cache.resident_blocks(), 2);
    assert_eq!(cache.resident_bytes(), 2 * block_bytes);
    assert_eq!(counter("query.engine.lookups"), 25);
}
