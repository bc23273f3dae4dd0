//! Store fuzz driver: mutation corpora through the archive reader's
//! resync path. The generated sweep asserts no panics and honest
//! recovery stats; the fixed cases below are the hostile shapes worth
//! pinning as regressions (header damage, boundary truncations,
//! stacked mutations) regardless of what the sweep happens to draw.

use ripple_core::check::storefuzz::{corpus_events, gen_store_plan, run_store_plan, StorePlan};
use ripple_core::store::{corrupt_bytes, CorruptionOp, CorruptionPlan, Reader, Writer};

fn assert_behaves(what: &str, plan: &StorePlan) {
    if let Some(violation) = run_store_plan(plan) {
        panic!("{what}: {violation}");
    }
}

#[test]
fn generated_corpora_never_break_the_reader() {
    for seed in 0..120u64 {
        let plan = gen_store_plan(seed);
        assert_behaves(&format!("seed {seed}"), &plan);
    }
}

#[test]
fn untouched_archives_read_back_verbatim() {
    for seed in [1u64, 9, 77] {
        assert_behaves(
            "identity",
            &StorePlan {
                corpus_seed: seed,
                events: 12,
                ops: Vec::new(),
            },
        );
    }
}

#[test]
fn header_damage_is_a_clean_error_not_a_panic() {
    // Flipping magic bytes must fail construction gracefully; the driver
    // treats reader errors as acceptable but panics as violations.
    for bit in 0..8u8 {
        for offset in 0..8u64 {
            assert_behaves(
                "magic flip",
                &StorePlan {
                    corpus_seed: 5,
                    events: 6,
                    ops: vec![CorruptionOp::FlipBit { offset, bit }],
                },
            );
        }
    }
}

#[test]
fn boundary_truncations_behave() {
    // Truncation at every prefix of a small archive: mid-magic, mid-frame
    // header, mid-record, and at the exact end.
    let len = {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for event in corpus_events(3, 5) {
            writer.write(&event).expect("in-memory write");
        }
        writer.finish().expect("finish");
        buf.len() as u64
    };
    for offset in 0..=len {
        assert_behaves(
            "truncation",
            &StorePlan {
                corpus_seed: 3,
                events: 5,
                ops: vec![CorruptionOp::TruncateAt { offset }],
            },
        );
    }
}

#[test]
fn stacked_mutations_behave() {
    // Overlapping damage classes on one archive — the shape a shrinker
    // would hand back if a multi-op case ever minimized to an interacting
    // pair.
    assert_behaves(
        "drop+flip",
        &StorePlan {
            corpus_seed: 11,
            events: 15,
            ops: vec![
                CorruptionOp::DropRange { offset: 30, len: 7 },
                CorruptionOp::FlipBit { offset: 31, bit: 3 },
            ],
        },
    );
    assert_behaves(
        "zero-over-drop",
        &StorePlan {
            corpus_seed: 11,
            events: 15,
            ops: vec![
                CorruptionOp::ZeroRange {
                    offset: 40,
                    len: 40,
                },
                CorruptionOp::DropRange {
                    offset: 44,
                    len: 12,
                },
                CorruptionOp::TruncateAt { offset: 200 },
            ],
        },
    );
}

#[test]
fn salvage_counts_match_damage_extent() {
    // One flipped bit in the middle of the body ruins at most one record;
    // the rest must survive with consistent stats.
    let events = corpus_events(21, 20);
    let mut clean = Vec::new();
    let mut writer = Writer::new(&mut clean);
    for event in &events {
        writer.write(event).expect("write");
    }
    writer.finish().expect("finish");
    let mid = clean.len() as u64 / 2;
    let damaged = corrupt_bytes(&clean, &CorruptionPlan::new().flip_bit(mid, 5));
    let (salvaged, stats) = Reader::recovering(damaged.as_slice())
        .expect("magic intact")
        .read_all_with_stats()
        .expect("resync read");
    assert_eq!(stats.records as usize, salvaged.len());
    assert!(
        salvaged.len() >= events.len() - 2,
        "one flip may ruin at most the record it lands in (plus a torn \
         neighbour): {} of {}",
        salvaged.len(),
        events.len()
    );
    if salvaged.len() < events.len() {
        assert!(stats.corrupt_regions >= 1);
    }
}
