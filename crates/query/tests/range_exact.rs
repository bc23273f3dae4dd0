//! `visit_range` returns exactly what a linear filter over the archive
//! returns — same offsets, same order — and examines no more frames than
//! its matches, one block of skipped frames and one terminator, whatever
//! state the block cache is in.
//!
//! Two archives: a generated history at the product's block size, and a
//! crafted one whose runs of equal timestamps straddle four-record block
//! seams. Three cache states per archive: a freshly opened engine, the
//! same engine after every query has run four more times (the admission
//! counter has promoted what it touches), and an engine whose cache holds
//! a single block (every promotion evicts).

use ripple_crypto::AccountId;
use ripple_ledger::RippleTime;
use ripple_query::{EngineConfig, QueryEngine};
use ripple_store::{HistoryEvent, Reader, Writer};
use ripple_synth::{Generator, SynthConfig};

const WINDOWS: usize = 256;
const LIMITS: [usize; 4] = [1, 7, 128, usize::MAX];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `(frame offset, timestamp seconds)` of every event, by linear read.
fn linear_index(archive: &[u8]) -> Vec<(u64, u64)> {
    let mut reader = Reader::new(archive).expect("archive magic");
    let mut out = Vec::new();
    while let Some((offset, event)) = reader.next_event_at().expect("clean archive") {
        out.push((offset, event.timestamp().seconds()));
    }
    out
}

fn linear_filter(index: &[(u64, u64)], from: u64, to: u64, limit: usize) -> Vec<u64> {
    index
        .iter()
        .filter(|&&(_, t)| from <= t && t < to)
        .take(limit)
        .map(|&(offset, _)| offset)
        .collect()
}

/// Runs one query and checks its answer and its frame count.
fn check(
    engine: &QueryEngine,
    index: &[(u64, u64)],
    block_records: usize,
    (from, to, limit): (u64, u64, usize),
) {
    let frames_before = engine.range_frames();
    let mut got = Vec::new();
    let visited = engine
        .visit_range(
            RippleTime::from_seconds(from),
            RippleTime::from_seconds(to),
            limit,
            |offset, _| got.push(offset),
        )
        .expect("range scan over a clean archive");
    assert_eq!(visited, got.len());
    assert_eq!(
        got,
        linear_filter(index, from, to, limit),
        "window [{from}, {to}) limit {limit}"
    );
    // At most one block skipped, the matches, one terminator.
    let frames = engine.range_frames() - frames_before;
    assert!(
        frames <= (got.len() + block_records + 1) as u64,
        "window [{from}, {to}) limit {limit}: {frames} frames for {} matches",
        got.len()
    );
    assert!(frames >= got.len() as u64);
}

/// 256 seeded windows × 4 limits, biased toward the shapes that break
/// seeks: empty and one-second windows, windows hanging off either end,
/// inverted windows.
fn queries(index: &[(u64, u64)], seed: u64) -> Vec<(u64, u64, usize)> {
    let lo = index.first().expect("non-empty archive").1;
    let hi = index.last().expect("non-empty archive").1;
    let span = hi - lo + 1;
    let mut rng = seed;
    let mut out = Vec::new();
    for w in 0..WINDOWS {
        // Starts range from before the first event to after the last.
        let from =
            (lo + splitmix64(&mut rng) % (span + span / 8 + 2)).saturating_sub(span / 16 + 1);
        let width = match w % 4 {
            0 => splitmix64(&mut rng) % 3,
            1 => splitmix64(&mut rng) % (span / 256 + 2),
            2 => splitmix64(&mut rng) % (span / 16 + 2),
            _ => splitmix64(&mut rng) % (span + 2),
        };
        let to = if w % 32 == 31 {
            from.saturating_sub(width)
        } else {
            from + width
        };
        for limit in LIMITS {
            out.push((from, to, limit));
        }
    }
    out
}

fn exercise(archive: Vec<u8>, block_records: usize, seed: u64) {
    let index = linear_index(&archive);
    let queries = queries(&index, seed);
    let config = EngineConfig {
        block_records,
        ..EngineConfig::default()
    };

    // Cold: nothing is resident when the first scan runs, and the pass
    // takes the frame-at-a-time path.
    let (engine, report) = QueryEngine::open(archive.clone(), &config).expect("open");
    assert_eq!(report.records as usize, index.len());
    assert_eq!(engine.cache().resident_blocks(), 0);
    for &query in &queries {
        check(&engine, &index, block_records, query);
    }
    assert!(engine.cache().misses() > 0, "no cold walk was exercised");

    // Promoted: the same query four more times, then checked again.
    for &(from, to, limit) in &queries {
        for _ in 0..4 {
            engine
                .visit_range(
                    RippleTime::from_seconds(from),
                    RippleTime::from_seconds(to),
                    limit,
                    |_, _| {},
                )
                .expect("range scan");
        }
        check(&engine, &index, block_records, (from, to, limit));
    }
    assert!(engine.cache().resident_blocks() > 0, "nothing was promoted");
    assert!(engine.cache().hits() > 0, "no resident block was read");

    // Evictions: a cache that holds one block.
    let tiny = EngineConfig {
        cache_bytes: 1,
        cache_shards: 1,
        ..config
    };
    let (engine, _) = QueryEngine::open(archive, &tiny).expect("open");
    for &query in &queries {
        for _ in 0..4 {
            check(&engine, &index, block_records, query);
        }
    }
    assert_eq!(engine.cache().resident_blocks(), 1);

    // The edges, by name.
    let (lo, hi) = (index[0].1, index[index.len() - 1].1);
    let count = |from, to, limit| linear_filter(&index, from, to, limit).len();
    for (from, to) in [(hi, lo), (lo + 1, lo), (0, lo), (hi + 1, u64::MAX)] {
        assert_eq!(count(from, to, usize::MAX), 0);
        check(&engine, &index, block_records, (from, to, usize::MAX));
    }
    // A window that opens before the first event returns the head of the
    // archive.
    let head: Vec<u64> = index.iter().take(10).map(|&(offset, _)| offset).collect();
    assert_eq!(linear_filter(&index, 0, u64::MAX, 10), head);
    check(&engine, &index, block_records, (0, u64::MAX, 10));
}

#[test]
fn generated_history_windows_match_a_linear_filter() {
    let out = Generator::new(SynthConfig {
        seed: 31_337,
        ..SynthConfig::small(6_000)
    })
    .run();
    let mut archive = Vec::new();
    out.write_archive(&mut archive).expect("archive encode");
    exercise(archive, EngineConfig::default().block_records, 0x5eed_0001);
}

#[test]
fn equal_timestamps_across_block_seams_match_a_linear_filter() {
    // Runs of equal timestamps, 1 to 11 long, over four-record blocks:
    // most runs straddle a seam, some cover whole blocks.
    let mut archive = Vec::new();
    let mut writer = Writer::new(&mut archive);
    let (mut t, mut n) = (1_000u64, 0u64);
    for run in 0..150u64 {
        for _ in 0..1 + (run * 7) % 11 {
            writer
                .write(&HistoryEvent::AccountCreated {
                    account: AccountId::from_bytes([(n % 251) as u8; 20]),
                    timestamp: RippleTime::from_seconds(t),
                })
                .expect("in-memory write");
            n += 1;
        }
        t += 1 + run % 3;
    }
    writer.finish().expect("in-memory flush");
    exercise(archive, 4, 0x5eed_0002);
}
