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

    // The stall window covers exactly the crashed rounds.
    let stall = outcome
        .worst_stall()
        .expect("40% offline must stall quorum");
    assert_eq!(
        (stall.first_round, stall.rounds),
        (2, 2),
        "stall = {stall:?}"
    );

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
