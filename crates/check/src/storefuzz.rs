//! Store fuzzing: mutation corpora through the archive reader's resync
//! path, asserting it never panics and its recovery stats stay honest.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripple_crypto::AccountId;
use ripple_ledger::{Currency, RippleTime, Value};
use ripple_store::{corrupt_bytes, CorruptionOp, HistoryEvent, Reader, Writer};

/// The most corpus events a replayed [`StorePlan`] may ask for.
/// [`gen_store_plan`] draws 5–29; the cap keeps a hand-edited case file
/// from making [`corpus_events`] allocate without bound.
pub const MAX_STORE_EVENTS: usize = 1024;

/// A replayable store-fuzz case: the archive is regenerated from
/// `corpus_seed`/`events`, then damaged by `ops`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePlan {
    /// Seed for the event corpus.
    pub corpus_seed: u64,
    /// Number of corpus events.
    pub events: usize,
    /// Corruption steps applied to the clean archive.
    pub ops: Vec<CorruptionOp>,
}

/// A deterministic mixed corpus of history events.
pub fn corpus_events(seed: u64, n: usize) -> Vec<HistoryEvent> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5704e);
    (0..n)
        .map(|i| {
            let t = RippleTime::from_seconds(i as u64 * 10);
            match rng.gen_range(0u8..3) {
                0 => HistoryEvent::AccountCreated {
                    account: AccountId::from_bytes([rng.gen(); 20]),
                    timestamp: t,
                },
                1 => HistoryEvent::TrustSet {
                    truster: AccountId::from_bytes([rng.gen(); 20]),
                    trustee: AccountId::from_bytes([rng.gen(); 20]),
                    currency: Currency::USD,
                    limit: Value::from_raw(rng.gen_range(1i128..1_000_000_000)),
                    timestamp: t,
                },
                _ => HistoryEvent::OfferPlaced {
                    owner: AccountId::from_bytes([rng.gen(); 20]),
                    offer_seq: rng.gen_range(1u32..1_000),
                    base: Currency::EUR,
                    quote: Currency::USD,
                    gets: Value::from_raw(rng.gen_range(1i128..1_000_000_000)),
                    pays: Value::from_raw(rng.gen_range(1i128..1_000_000_000)),
                    timestamp: t,
                },
            }
        })
        .collect()
}

/// Serializes the corpus into a clean archive.
fn write_archive(events: &[HistoryEvent]) -> Vec<u8> {
    let mut clean = Vec::new();
    let mut writer = Writer::new(&mut clean);
    for event in events {
        writer.write(event).expect("in-memory write");
    }
    writer.finish().expect("in-memory finish");
    clean
}

/// Generates a store-fuzz case. Offsets are drawn within the actual
/// archive length, which is itself a pure function of the corpus seed, so
/// the case replays exactly.
pub fn gen_store_plan(seed: u64) -> StorePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf022);
    let events = rng.gen_range(5usize..30);
    let len = write_archive(&corpus_events(seed, events)).len() as u64;
    let ops = (0..rng.gen_range(1usize..=6))
        .map(|_| match rng.gen_range(0u8..8) {
            0 => CorruptionOp::TruncateAt {
                offset: rng.gen_range(0..len),
            },
            1 | 2 => {
                let offset = rng.gen_range(0..len);
                CorruptionOp::DropRange {
                    offset,
                    len: rng.gen_range(1..=(len - offset).min(40)),
                }
            }
            3 | 4 => {
                let offset = rng.gen_range(0..len);
                CorruptionOp::ZeroRange {
                    offset,
                    len: rng.gen_range(1..=(len - offset).min(40)),
                }
            }
            _ => CorruptionOp::FlipBit {
                offset: rng.gen_range(0..len),
                bit: rng.gen_range(0..8),
            },
        })
        .collect();
    StorePlan {
        corpus_seed: seed,
        events,
        ops,
    }
}

/// Runs one store-fuzz case; `None` means the reader behaved. Violations:
/// a panic anywhere in the resync path, recovery stats disagreeing with
/// the salvaged records, salvage that is not a subsequence of what was
/// written, or an untouched archive that does not read back verbatim.
pub fn run_store_plan(plan: &StorePlan) -> Option<String> {
    let events = corpus_events(plan.corpus_seed, plan.events);
    let clean = write_archive(&events);
    let damaged = corrupt_bytes(&clean, &plan.ops.iter().copied().collect());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let reader = match Reader::recovering(damaged.as_slice()) {
            Ok(reader) => reader,
            // A mangled magic prefix is a legitimate hard error.
            Err(_) => return None,
        };
        match reader.read_all_with_stats() {
            Ok((salvaged, stats)) => Some((salvaged, stats)),
            Err(_) => None,
        }
    }));
    let Ok(read) = outcome else {
        return Some(format!(
            "resync reader panicked on a {}-byte damaged archive ({} corruption ops)",
            damaged.len(),
            plan.ops.len()
        ));
    };
    // A reader error on a damaged archive is acceptable; only panics and
    // inconsistent salvage are violations.
    let (salvaged, stats) = read?;
    if stats.records as usize != salvaged.len() {
        return Some(format!(
            "recovery stats claim {} records but {} were returned",
            stats.records,
            salvaged.len()
        ));
    }
    // Salvaged records must be a subsequence of what was written: resync
    // may drop records, never invent or reorder them.
    let mut cursor = 0usize;
    for (i, record) in salvaged.iter().enumerate() {
        match events[cursor..].iter().position(|e| e == record) {
            Some(found) => cursor += found + 1,
            None => {
                return Some(format!(
                    "salvaged record {i} is not a subsequence match of the written corpus"
                ))
            }
        }
    }
    if plan.ops.is_empty() {
        if salvaged != events {
            return Some("an untouched archive did not read back verbatim".to_string());
        }
        if stats.skipped_bytes != 0 || stats.corrupt_regions != 0 {
            return Some(format!(
                "an untouched archive reported {} skipped bytes across {} corrupt regions",
                stats.skipped_bytes, stats.corrupt_regions
            ));
        }
    }
    None
}
