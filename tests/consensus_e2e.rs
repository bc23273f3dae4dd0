//! Cross-crate consensus tests: the §IV measurement pipeline end to end,
//! plus protocol-level failure injection through the message-level engine.

use std::collections::BTreeSet;

use ripple_core::check::testkit::honest_validators as honest;
use ripple_core::consensus::metrics::{persistent_actives, total_observed};
use ripple_core::consensus::rounds::{page_hash, RoundEngine};
use ripple_core::consensus::{Campaign, CollectionPeriod};
use ripple_core::netsim::NodeId;

#[test]
fn three_periods_reproduce_figure2_narrative() {
    let rounds = 2_000;
    let outcomes: Vec<_> = CollectionPeriod::all()
        .iter()
        .map(|p| (p.name(), p.run(rounds, 17)))
        .collect();
    let reports: Vec<_> = outcomes.iter().map(|(_, o)| o.report()).collect();

    // December 2015: 3 active non-Labs, 21 signing-but-never-valid.
    let dec = &reports[0];
    assert_eq!(dec.observed(), 34);
    assert_eq!(dec.active(0.5).len(), 8, "R1-R5 plus 3 actives");
    assert_eq!(dec.never_valid().len(), 21);

    // July 2016: 10 active non-Labs; 5 test-net validators sign in volume
    // with zero valid pages.
    let jul = &reports[1];
    assert_eq!(jul.active(0.5).len(), 15);
    let testnet: Vec<_> = jul
        .rows
        .iter()
        .filter(|r| r.label.starts_with("testnet.ripple.com"))
        .collect();
    assert_eq!(testnet.len(), 5);
    for row in &testnet {
        assert!(row.total as f64 > rounds as f64 * 0.7);
        assert_eq!(row.valid, 0);
    }

    // November 2016: only 8 active non-Labs; freewallet collapses by an
    // order of magnitude.
    let nov = &reports[2];
    assert_eq!(nov.active(0.5).len(), 13);
    let fw_jul = jul
        .rows
        .iter()
        .find(|r| r.label == "freewallet1.net")
        .unwrap()
        .total;
    let fw_nov = nov
        .rows
        .iter()
        .find(|r| r.label == "freewallet1.net")
        .unwrap()
        .total;
    assert!(
        fw_nov * 8 < fw_jul,
        "freewallet collapse: {fw_jul} -> {fw_nov}"
    );

    // Churn: exactly 9 persistent actives over ~70 distinct validators.
    let refs: Vec<_> = reports.iter().collect();
    assert_eq!(persistent_actives(&refs, 0.0).len(), 9);
    let seen = total_observed(&refs);
    assert!((65..=85).contains(&seen), "distinct validators: {seen}");
}

#[test]
fn compromising_core_validators_halts_consensus() {
    // The paper's §IV warning: "a malicious party hijacking or compromising
    // the majority of these validators could endanger the whole system".
    let campaign = Campaign::new(CollectionPeriod::December2015.validators())
        .with_outage(0, 0..500)
        .with_outage(1, 0..500)
        .with_outage(2, 0..500);
    let outcome = campaign.run(1_000, 3);
    assert!(
        outcome.failed_rounds >= 500,
        "3 of 5 Labs validators down must stall quorum: {} failed",
        outcome.failed_rounds
    );
    // After the outage the ledger recovers.
    assert!(
        outcome.failed_rounds < 700,
        "recovery after the outage window"
    );
}

#[test]
fn round_engine_agrees_on_intersection_under_churny_positions() {
    // 20 validators. RPCA's avalanche dynamic: once a transaction clears an
    // iteration's threshold, every honest validator adopts it, so support
    // snaps to 100% — majority-backed transactions commit, sub-majority
    // ones are stripped.
    let n = 20;
    let mut positions: Vec<BTreeSet<u64>> = vec![BTreeSet::from([1, 2]); n];
    for p in positions.iter_mut().take(12) {
        p.insert(60); // 60% support: clears 50%, snowballs to unanimity
    }
    for p in positions.iter_mut().take(6) {
        p.insert(30); // 30% support: dies at the first gate
    }
    let mut engine = RoundEngine::new(honest(n));
    let outcome = engine.run_round(&positions, 5).unwrap();
    let (_, set) = outcome.committed.expect("honest majority commits");
    assert!(set.contains(&1) && set.contains(&2));
    assert!(!set.contains(&30), "minority tx dropped by thresholds");
    assert!(set.contains(&60), "majority tx snowballs to inclusion");
}

#[test]
fn round_engine_partition_prevents_disagreement() {
    let n = 10;
    let mut engine = RoundEngine::new(honest(n));
    let left: Vec<NodeId> = (0..5).map(NodeId).collect();
    let right: Vec<NodeId> = (5..10).map(NodeId).collect();
    engine.network_mut().partition_groups(&left, &right);
    let mut positions: Vec<BTreeSet<u64>> = vec![BTreeSet::from([1]); n];
    for p in positions.iter_mut().skip(5) {
        *p = BTreeSet::from([2]);
    }
    let outcome = engine.run_round(&positions, 6).unwrap();
    // Safety: under partition, no conflicting transaction set can commit.
    if let Some((_, set)) = outcome.committed {
        assert!(
            set.is_empty(),
            "a partitioned network may only close empty ledgers, got {set:?}"
        );
    }
}

#[test]
fn round_engine_validations_are_page_hashes() {
    let mut engine = RoundEngine::new(honest(4));
    let positions = vec![BTreeSet::from([7, 8]); 4];
    let outcome = engine.run_round(&positions, 9).unwrap();
    let (hash, set) = outcome.committed.expect("commit");
    assert_eq!(hash, page_hash(&set));
    for page in outcome.validations.values() {
        assert_eq!(*page, hash, "all honest validators signed the same page");
    }
}

#[test]
fn campaign_streams_are_verifiable() {
    // Every validation in the stream carries a verifiable signature over
    // the page hash — the property the paper's measurement relies on to
    // attribute pages to validators.
    use ripple_core::crypto::SimKeypair;
    let outcome = CollectionPeriod::December2015.run(50, 21);
    assert!(!outcome.stream.is_empty());
    for event in &outcome.stream {
        assert!(
            SimKeypair::verify(
                &event.validator,
                event.page_hash.as_bytes(),
                &event.signature
            ),
            "stream signature must verify for {}",
            event.label
        );
    }
}

/// Initial positions for the pinned matrix: a shared core of six
/// transactions, two extras unique to each validator, one transaction held
/// by exactly ⌈0.5 n⌉ validators — so the first (inclusive 50%) gate is met
/// with no slack and the non-holders must adopt a transaction they never
/// proposed — and one that everybody retries in every round, with an id
/// above all the others. With `split` set, the validators from `split` on start from a
/// disjoint core instead (the conflicting sides of a partition).
fn matrix_positions(n: usize, round: u64, split: Option<usize>) -> Vec<BTreeSet<u64>> {
    let base = round * 10_000;
    (0..n)
        .map(|v| {
            let far_side = split.is_some_and(|at| v >= at);
            let core = if far_side { base + 500 } else { base };
            let mut set: BTreeSet<u64> = (core..core + 6).collect();
            set.insert(base + 1_000 + 2 * v as u64);
            set.insert(base + 1_001 + 2 * v as u64);
            if v < n.div_ceil(2) {
                set.insert(base + 9_000);
            }
            set.insert(4_000_000_000);
            set
        })
        .collect()
}

#[test]
fn round_outcomes_match_the_pinned_digest() {
    // Every fault mode `RoundEngine` models, at two sizes, eight
    // consecutive rounds on one engine each (so the clock and the network
    // counters carry over), one pinned digest per (size, scenario). A
    // digest covers everything a caller can observe; it moves if the order
    // of RNG draws, the same-iteration overwrite rule, the threshold rule,
    // the stale-round rule or the page encoding moves.
    use ripple_core::consensus::{Validator, ValidatorProfile};
    use ripple_core::crypto::sha512_half;
    use ripple_core::netsim::{FaultPlan, LatencyModel, SimTime};

    // validators, scenario, digest. Only `late-inbox` delivers a proposal
    // in the iteration it was sent for of a *later* round, so only those two
    // rows depend on the stale-round rule.
    const PINNED: &str = "
         5 honest      bab36a54a901a5a4d3f880712b122e900080b1a61b86371bf71791f3cf0c3f1d
         5 byzantine-1 b30be4647647defb204b7dfaea110f1aa73ccde53501a06d0ba8c179040c1925
         5 byzantine-2 c207a623e80cfd84563249f1a5d0c93f485ffea17c60e0b6cd93efe1531b7f28
         5 crashed     a333173bdd88a4ddf4d7a34b15542f6a98bce41c4f20f074d8550a5e6b7b4931
         5 partition   068cea8e32b47dd724aadf33ac76bb37789b86234f7a5e25f90f0850f047f92b
         5 slow-uplink aafc83262a1f66197a44114b717e5a116236e15006219c54f095c1888ecaed19
         5 loss        4db930720311fa0ba1b01a71f36ac0dd5a70dc33352305a1fc1ab7163107af4a
         5 late-inbox  83eca5f1e1a531d4bf54db21a327eb0f00eafbd0e5c840d1bcb2204e4ec7130c
        20 honest      c428f57a1029460c268a20648b42972538c010ed8eead56e512f3d029a904141
        20 byzantine-1 911732ee3e45894f0e2927c4b1fa8756a93a5607e2ebdc536ce49997dce1830d
        20 byzantine-2 63e1be870f183c7c537c2737274041f5a0dd7a2e3e75dfc07c488bd2bad28789
        20 crashed     7fa89342a64c8ee15d5bc03b36a8fc526b940d67f3eb692bcad239853828be80
        20 partition   3c73812f278d588941d04bad0e77b900044b2eb210ed777c9b2f18cc4b8aae07
        20 slow-uplink 6eed31c8ede7833d91122645dce4d7f2dc362471c3a601199eee86df818d3efe
        20 loss        6a0f0ff412ff10a9a766082295ab91f483d9ce3640a7c4608575d53597fe6365
        20 late-inbox  b761e5f6bac24dcae7dd8a06524f69560cb5cd7be7c64e40fa10d3f32ba68201";
    let byzantine =
        |i: usize| Validator::new(i, "byz", ValidatorProfile::Byzantine { availability: 1.0 });

    let mut committed_rounds = 0usize;
    let mut moved = Vec::new();
    for (s, row) in PINNED.lines().skip(1).enumerate() {
        let [n, scenario, pinned] = row.split_whitespace().collect::<Vec<_>>()[..] else {
            panic!("malformed row {row:?}");
        };
        let n: usize = n.parse().expect("validator count");
        let mut validators = honest(n);
        match scenario {
            "byzantine-1" => validators[1] = byzantine(1),
            "byzantine-2" => {
                validators[1] = byzantine(1);
                validators[n - 1] = byzantine(n - 1);
            }
            _ => {}
        }
        let mut engine = RoundEngine::new(validators);
        let mut split = None;
        match scenario {
            "crashed" => engine.network_mut().crash(NodeId(2)),
            "partition" => {
                let at = n * 3 / 5;
                let left: Vec<NodeId> = (0..at).map(NodeId).collect();
                let right: Vec<NodeId> = (at..n).map(NodeId).collect();
                engine.network_mut().partition_groups(&left, &right);
                split = Some(at);
            }
            "slow-uplink" => {
                // The last validator's proposals land exactly five rounds
                // late, on the deadline of the phase before the one they
                // were sent for: the wrong round and the wrong iteration.
                engine = engine.with_iteration_timeout(SimTime::from_millis(200));
                engine.network_mut().set_node_uplink_latency(
                    NodeId(n - 1),
                    LatencyModel::Fixed(SimTime::from_millis(5_000)),
                );
            }
            "loss" => {
                // A 10 % loss burst that outlasts all eight rounds.
                let past_the_last = SimTime::from_millis(9 * engine.round_duration().as_millis());
                engine
                    .network_mut()
                    .install_plan(FaultPlan::new().loss_burst(SimTime::ZERO, past_the_last, 0.1));
            }
            "late-inbox" => {
                // Everything the last validator hears is one round (and a
                // little) old, so it names the previous round and is
                // dropped: that validator hears nothing and seals its own
                // initial position's survivors — nothing.
                let late = LatencyModel::Fixed(engine.round_duration() + SimTime::from_millis(100));
                for from in 0..n - 1 {
                    engine
                        .network_mut()
                        .set_link_latency(NodeId(from), NodeId(n - 1), late);
                }
            }
            _ => {}
        }
        let mut material = Vec::new();
        for round in 0..8u64 {
            let positions = matrix_positions(n, round, split);
            let seed = 0x5eed_0000 + 1_000 * n as u64 + 10 * (s % 8) as u64 + round;
            let outcome = engine.run_round(&positions, seed).unwrap();
            match &outcome.committed {
                Some((page, set)) => {
                    committed_rounds += 1;
                    material.push(1);
                    material.extend_from_slice(page.as_bytes());
                    material.extend_from_slice(&(set.len() as u64).to_be_bytes());
                    for tx in set {
                        material.extend_from_slice(&tx.to_be_bytes());
                    }
                }
                None => material.push(0),
            }
            let mut validations: Vec<_> = outcome.validations.iter().collect();
            validations.sort();
            material.extend_from_slice(&(validations.len() as u64).to_be_bytes());
            for (validator, page) in validations {
                material.extend_from_slice(&(*validator as u64).to_be_bytes());
                material.extend_from_slice(page.as_bytes());
            }
            material.extend_from_slice(&outcome.agreement.to_bits().to_be_bytes());
            let network = engine.network();
            material.extend_from_slice(&network.sent().to_be_bytes());
            material.extend_from_slice(&network.dropped().to_be_bytes());
            material.extend_from_slice(&network.now().as_millis().to_be_bytes());
        }
        let got = sha512_half(&material).to_hex();
        if got != pinned {
            moved.push(format!("{n:>2} {scenario:<11} {got}"));
        }
    }
    // The matrix is not vacuous: most rounds commit, the blocked ones don't.
    assert!(
        (64..128).contains(&committed_rounds),
        "committed {committed_rounds} of 128 rounds"
    );
    assert!(
        moved.is_empty(),
        "RoundEngine's observable behaviour moved in these rows:\n{}",
        moved.join("\n")
    );
}
