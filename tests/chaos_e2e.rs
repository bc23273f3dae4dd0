//! End-to-end chaos harness: consensus campaigns under timed fault
//! schedules, plus corruption-recovering history reads.
//!
//! Five scenarios (partition+heal, crash+restart, loss burst, delay
//! spike, combined storm) each run a multi-round [`ChaosCampaign`]; the
//! no-fork safety invariant must hold in every one, and liveness is
//! measured as quorum-stall windows and rounds-to-recover — the §IV
//! `validator_watch` observation automated at the message level.

use std::collections::BTreeSet;

use ripple_check::testkit::{chaos_run as run, ms};
use ripple_netsim::{FaultPlan, NodeId, SimTime};
use ripple_store::{CorruptionPlan, HistoryEvent, Reader, Writer};

// ---------------------------------------------------------------------
// Scenario 1: partition + heal.
// ---------------------------------------------------------------------
#[test]
fn chaos_partition_and_heal_preserves_safety_and_recovers() {
    // Split 2|3 during rounds 1–2 (500ms rounds): neither side holds 80%.
    let plan = FaultPlan::new()
        .partition_at(
            ms(500),
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(2), NodeId(3), NodeId(4)],
        )
        .heal_at(ms(1_500));
    let outcome = run(plan, 8, 101);
    // Safety held (run() would have errored) and the partition stalled
    // full commits of the disputed rounds — but never forked.
    for record in &outcome.rounds {
        assert!(record.agreement <= 1.0);
    }
    let recovery = outcome.recovery.expect("healed network must recover");
    assert!(
        recovery.rounds_to_recover <= 2,
        "recovery took {} rounds",
        recovery.rounds_to_recover
    );
    // Once healed, the tail of the campaign commits every round.
    assert!(outcome.rounds[4..].iter().all(|r| r.committed.is_some()));
}

// ---------------------------------------------------------------------
// Scenario 2: crash + restart — the paper's §IV quorum stall.
// ---------------------------------------------------------------------
#[test]
fn chaos_crash_restart_reproduces_quorum_stall_with_measured_recovery() {
    // §IV: on November 18, 2016 two of the five Ripple validators went
    // offline (40% > the 20% tolerance) and "no new pages could be
    // created" until they returned. Crash validators 3 and 4 for rounds
    // 2–3, then restart them.
    let plan = FaultPlan::new()
        .crash_at(ms(1_000), NodeId(3))
        .crash_at(ms(1_000), NodeId(4))
        .restart_at(ms(2_000), NodeId(3))
        .restart_at(ms(2_000), NodeId(4));
    let outcome = run(plan, 8, 202);

    // One stall window, covering exactly the crashed rounds.
    let stalls: Vec<(u64, u64)> = outcome
        .stalls
        .iter()
        .map(|stall| (stall.first_round, stall.rounds))
        .collect();
    assert_eq!(stalls, [(2, 2)], "40% offline must stall quorum");

    // Measured recovery: the first full round after the restart commits.
    let recovery = outcome.recovery.expect("validators returned");
    assert_eq!(recovery.faults_cleared_at, ms(2_000));
    assert_eq!(recovery.rounds_to_recover, 1);
    assert_eq!(recovery.time_to_recover, ms(500));
    assert_eq!(outcome.committed_rounds, 6);
}

// ---------------------------------------------------------------------
// Scenario 3: loss burst.
// ---------------------------------------------------------------------
#[test]
fn chaos_loss_burst_degrades_but_never_forks() {
    let plan = FaultPlan::new().loss_burst(ms(500), ms(2_000), 0.6);
    let outcome = run(plan, 8, 303);
    let dropped: u64 = outcome.rounds.iter().map(|r| r.messages_dropped).sum();
    assert!(dropped > 0, "a 60% burst must actually drop traffic");
    // Rounds after the burst clear cleanly.
    assert!(outcome.rounds[5..].iter().all(|r| r.committed.is_some()));
}

// ---------------------------------------------------------------------
// Scenario 4: delay spike.
// ---------------------------------------------------------------------
#[test]
fn chaos_delay_spike_stalls_only_while_messages_outrun_deadlines() {
    // +600ms on every message while rounds are 500ms: every proposal
    // arrives in the next round, names the round it left, and is discarded
    // for that — whatever iteration it lands in. With no peer support,
    // every honest validator strips every transaction, so the spiked rounds
    // close *empty* pages — the real network's response to disputed
    // traffic — rather than forking or committing junk.
    let empty_page = ripple_consensus::rounds::page_hash(&BTreeSet::new());
    let plan = FaultPlan::new().delay_spike(ms(500), ms(1_500), ms(600));
    let outcome = run(plan, 8, 404);
    for spiked in &outcome.rounds[1..3] {
        assert!(
            spiked.committed.is_none() || spiked.committed == Some(empty_page),
            "spiked round {} must stall or close empty, got {:?}",
            spiked.round,
            spiked.committed
        );
    }
    // Clean rounds before and after commit real (non-empty) pages.
    assert!(outcome.rounds[0].committed.is_some_and(|p| p != empty_page));
    assert!(outcome.rounds[5..]
        .iter()
        .all(|r| r.committed.is_some_and(|p| p != empty_page)));
    assert!(outcome.recovery.is_some());
}

// ---------------------------------------------------------------------
// Scenario 5: combined storm (partition + crash + loss + skew).
// ---------------------------------------------------------------------
#[test]
fn chaos_combined_storm_holds_the_safety_line() {
    let plan = FaultPlan::new()
        .partition_at(
            ms(500),
            vec![NodeId(0), NodeId(1)],
            vec![NodeId(2), NodeId(3), NodeId(4)],
        )
        .crash_at(ms(800), NodeId(4))
        .heal_at(ms(1_500))
        .restart_at(ms(2_000), NodeId(4))
        .loss_burst(ms(2_200), ms(2_700), 0.4)
        .clock_skew(NodeId(1), ms(40));
    let outcome = run(plan, 10, 505);
    // The storm clears by t=2.7s (round 5); everything after commits.
    assert!(outcome.rounds[6..].iter().all(|r| r.committed.is_some()));
    let recovery = outcome.recovery.expect("storm clears inside the horizon");
    assert!(recovery.rounds_to_recover <= 2);
}

// ---------------------------------------------------------------------
// Randomized schedules stay safe too.
// ---------------------------------------------------------------------
#[test]
fn chaos_randomized_plans_never_fork() {
    for seed in 0..5u64 {
        let plan = FaultPlan::randomized(seed, 5, SimTime::from_secs(3));
        let outcome = run(plan, 8, 1_000 + seed);
        assert!(outcome.rounds.len() == 8);
    }
}

// ---------------------------------------------------------------------
// Determinism: same seed + same plan ⇒ byte-identical outcome.
// ---------------------------------------------------------------------
#[test]
fn chaos_campaigns_are_deterministic_across_runs() {
    let scenario = || {
        FaultPlan::new()
            .partition_at(
                ms(500),
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(2), NodeId(3), NodeId(4)],
            )
            .heal_at(ms(1_200))
            .crash_at(ms(1_600), NodeId(2))
            .restart_at(ms(2_100), NodeId(2))
            .loss_burst(ms(2_300), ms(2_900), 0.5)
            .delay_spike(ms(3_000), ms(3_300), ms(150))
    };
    let a = run(scenario(), 10, 777);
    let b = run(scenario(), 10, 777);
    assert_eq!(
        a.digest, b.digest,
        "determinism digest must be byte-identical"
    );
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.stalls, b.stalls);
    assert_eq!(a.recovery, b.recovery);
    // And a different seed perturbs the digest.
    let c = run(scenario(), 10, 778);
    assert_ne!(a.digest, c.digest);
}

// ---------------------------------------------------------------------
// Absolute pins: every fault path, at two sizes.
// ---------------------------------------------------------------------
#[test]
fn chaos_outcomes_match_the_pinned_digest() {
    // One `ChaosOutcome::digest` per (scenario, n): eight 500 ms rounds of
    // n honest validators under one plan. A digest folds each round's
    // start time, committed page, agreement, honest validations and
    // dropped-message count, so it moves if the order of RNG draws, the
    // window a late message lands in, or the round an in-flight drop is
    // counted in moves.
    use ripple_check::testkit::honest_validators;
    use ripple_consensus::ChaosCampaign;

    // scenario, digest at n = 5, digest at n = 20.
    const PINNED: &str = "
        partition-heal  5a90db507aa630d36c7ee832aa02f02cc5edc7ef175fb3f7a8154695b2bb843a 660986f7d311a158b06f0abe378bcfbac36950b013e34f0bb61c9f5f03120d47
        crash-restart   e8a730e7d102845d708b0a3288ae211b58521ea5e3836befc959cf14d70e59e3 46c13d901f663200ea1e39bb024e1fe880f2e89a581d67f5c9e6faa4c33c8fca
        loss-burst      0d404ca30b35b2c4c2eafdd7604bc7677d076587c7b1d5dbe6377e77e0e29548 3226a141fc4ba5081f5d39613d8d1d9b0fb3922aa2927db5b63c3c1fa0079043
        delay-spike     3adbf908ec15a84915ea5889db012ef2783428c13e3accc2d3a3eaca9996fc71 cfc645e89bf91a382a8ff3fedf85bfc72a969f423b745e70ac8d417c9ad7ef8a
        stale-skew      f6e24b2dea94425da1876a0e2e0176f14c5feec35f49dad5244308d9297d3231 89f3ab5c205ae003747a7b5b8f9f1663620bef1337ee1d19b53d61750e322ece
        crash-in-flight f2755aa79ad5b89104db1370cb3050e20bfaeacd2545be3d6637919d50cbe2ca 444c4a4ddf7619d8233424d397a98bebbc6f542edf2c5818b7d4ce6d955b4dc8
        randomized      2122a9b4f413eecac497133c00b06ba7ad8ea29ea3e6eef476678fdf4e8e076e f96edadb4022b48660a90ff01c8a4e84d695f26b34cc31113ee1a5bcdd0f4d76";
    let plan = |scenario: &str, n: usize| -> FaultPlan {
        let nodes = |range: std::ops::Range<usize>| range.map(NodeId).collect::<Vec<_>>();
        let cut = n * 2 / 5;
        match scenario {
            "partition-heal" => FaultPlan::new()
                .partition_at(ms(500), nodes(0..cut), nodes(cut..n))
                .heal_at(ms(1_500)),
            // 40 % of the validators down for rounds 2 and 3.
            "crash-restart" => (n - cut..n).fold(FaultPlan::new(), |plan, v| {
                plan.crash_at(ms(1_000), NodeId(v))
                    .restart_at(ms(2_000), NodeId(v))
            }),
            "loss-burst" => FaultPlan::new().loss_burst(ms(500), ms(2_000), 0.6),
            // +150 ms on 20–50 ms links against 100 ms iterations: every
            // proposal of rounds 1 and 2 misses its deadline.
            "delay-spike" => FaultPlan::new().delay_spike(ms(500), ms(1_500), ms(150)),
            // Longer than a round: the skewed validator's proposals all
            // arrive in the next round, and are dropped as stale.
            "stale-skew" => FaultPlan::new().clock_skew(NodeId(n - 1), ms(600)),
            // Validator 1 crashes at 1,030 ms with messages to it in flight:
            // round 1's validations, sent at 900 ms into a 150 ms spike, and
            // round 2's first proposals, sent at 1,000 ms. Both are dropped
            // on arrival and count in round 2.
            "crash-in-flight" => FaultPlan::new()
                .delay_spike(ms(900), ms(1_000), ms(150))
                .crash_at(ms(1_030), NodeId(1))
                .restart_at(ms(2_000), NodeId(1)),
            "randomized" => FaultPlan::randomized(0xc4a05 + n as u64, n, SimTime::from_secs(4)),
            other => panic!("unknown scenario {other}"),
        }
    };

    let mut moved = Vec::new();
    let mut dropped_somewhere = 0;
    for row in PINNED.lines().skip(1) {
        let [scenario, at_5, at_20] = row.split_whitespace().collect::<Vec<_>>()[..] else {
            panic!("malformed row {row:?}");
        };
        let mut got = Vec::new();
        for n in [5usize, 20] {
            let seed = 0xc4a0_5000 + n as u64;
            let outcome = ChaosCampaign::new(honest_validators(n), plan(scenario, n), 8, seed)
                .with_iteration_timeout(ms(100))
                .run()
                .expect("no-fork invariant must hold");
            assert_eq!(outcome.rounds.len(), 8);
            dropped_somewhere += usize::from(outcome.rounds.iter().any(|r| r.messages_dropped > 0));
            got.push(outcome.digest.to_hex());
        }
        if got != [at_5, at_20] {
            moved.push(format!("{scenario:<15} {} {}", got[0], got[1]));
        }
    }
    // Every plan but the two timing-only ones drops traffic, at both sizes.
    assert_eq!(dropped_somewhere, 10, "cells whose plan dropped a message");
    assert!(
        moved.is_empty(),
        "chaos outcomes moved in these rows:\n{}",
        moved.join("\n")
    );
}

// ---------------------------------------------------------------------
// Corruption-recovering history reads, end to end.
// ---------------------------------------------------------------------
#[test]
fn chaos_store_salvages_history_written_through_a_corrupting_sink() {
    use ripple_crypto::{sha512_half, AccountId};
    use ripple_ledger::RippleTime;

    let events: Vec<HistoryEvent> = (0..50u8)
        .map(|n| HistoryEvent::AccountCreated {
            account: AccountId::from_bytes([n; 20]),
            timestamp: RippleTime::from_seconds(n as u64),
        })
        .collect();
    let _ = sha512_half(b"anchor"); // crypto crate is genuinely linked

    // Damage the archive with scattered bit flips over the middle third
    // of the stream.
    let clean = {
        let mut clean = Vec::new();
        let mut writer = Writer::new(&mut clean);
        for e in &events {
            writer.write(e).unwrap();
        }
        writer.finish().unwrap();
        clean
    };
    let clean_len = clean.len() as u64;
    let plan = CorruptionPlan::scattered_flips(9, 6, clean_len / 3, 2 * clean_len / 3);
    let damaged = ripple_store::corrupt_bytes(&clean, &plan);

    // Strict mode refuses the damaged archive; resync salvages every
    // record outside the flipped frames.
    assert!(Reader::new(damaged.as_slice()).unwrap().read_all().is_err());
    let (salvaged, stats) = Reader::recovering(damaged.as_slice())
        .unwrap()
        .read_all_with_stats()
        .unwrap();
    // 6 bit flips can ruin at most 6 records; everything else survives,
    // in order, bit-for-bit.
    assert!(
        stats.records >= 44,
        "salvaged only {} records",
        stats.records
    );
    assert_eq!(stats.records as usize, salvaged.len());
    assert!(stats.corrupt_regions >= 1 && stats.corrupt_regions <= 6);
    let mut remaining = events.iter();
    for got in &salvaged {
        // Each salvaged record matches the next not-yet-matched original:
        // salvage preserves order and content.
        assert!(
            remaining.any(|want| want == got),
            "salvaged record not in original order"
        );
    }
}

// ---------------------------------------------------------------------
// The two layers compose: a campaign's committed pages survive a round
// trip through a damaged archive.
// ---------------------------------------------------------------------
#[test]
fn chaos_committed_pages_survive_archival_corruption() {
    use ripple_crypto::AccountId;
    use ripple_ledger::RippleTime;

    let plan = FaultPlan::new()
        .crash_at(ms(1_000), NodeId(3))
        .crash_at(ms(1_000), NodeId(4))
        .restart_at(ms(2_000), NodeId(3))
        .restart_at(ms(2_000), NodeId(4));
    let outcome = run(plan, 8, 606);

    // Archive one AccountCreated marker per committed round (stand-in for
    // page contents; the codec under test is the same).
    let events: Vec<HistoryEvent> = outcome
        .rounds
        .iter()
        .filter(|r| r.committed.is_some())
        .map(|r| HistoryEvent::AccountCreated {
            account: AccountId::from_bytes([r.round as u8; 20]),
            timestamp: RippleTime::from_seconds(r.round),
        })
        .collect();
    assert_eq!(events.len(), 6);

    let mut buf = Vec::new();
    let mut writer = Writer::new(&mut buf);
    for e in &events {
        writer.write(e).unwrap();
    }
    writer.finish().unwrap();

    // Truncate mid-final-record (a crash during the flush of the last
    // page) and flip one bit early on.
    let damaged = ripple_store::corrupt_bytes(
        &buf,
        &CorruptionPlan::new()
            .flip_bit(20, 1)
            .truncate_at(buf.len() as u64 - 2),
    );
    let (salvaged, stats) = Reader::recovering(damaged.as_slice())
        .unwrap()
        .read_all_with_stats()
        .unwrap();
    assert_eq!(
        stats.records, 4,
        "first and last records lost, middle intact"
    );
    assert_eq!(salvaged, events[1..5]);
}
