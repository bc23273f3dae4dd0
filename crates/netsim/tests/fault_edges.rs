//! Edge cases in [`FaultPlan`] event schedules.
//!
//! These are the shapes a shrinker (or a hand-written plan file) can
//! produce that the fluent builder's argument checks never would:
//! overlapping partitions, a restart scheduled before its crash, a
//! zero-length loss burst (via [`FaultPlan::from_events`], which skips
//! builder asserts by design), and duplicate timestamps. In every case the
//! link model's fate function, [`Network::delivery_fate`], must stay
//! *total* (an answer for every message, never a panic) and
//! *deterministic* (same seed, same fates).

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripple_netsim::faults::FaultEvent;
use ripple_netsim::{DeliveryFate, FaultPlan, Network, NodeId, SimTime};

fn ms(t: u64) -> SimTime {
    SimTime::from_millis(t)
}

fn delivered(fate: &DeliveryFate) -> bool {
    matches!(fate, DeliveryFate::Delivered { .. })
}

/// Every ordered pair's fate at the network's current virtual time.
fn all_fates(net: &Network, n: usize, seed: u64) -> Vec<DeliveryFate> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fates = Vec::new();
    for from in 0..n {
        for to in 0..n {
            if from != to {
                fates.push(net.delivery_fate(NodeId(from), NodeId(to), &mut rng));
            }
        }
    }
    fates
}

#[test]
fn overlapping_partitions_accumulate_and_one_heal_clears_both() {
    let plan = FaultPlan::new()
        .partition_at(ms(100), vec![NodeId(0)], vec![NodeId(1), NodeId(2)])
        .partition_at(ms(150), vec![NodeId(0), NodeId(1)], vec![NodeId(2)])
        .heal_at(ms(300));
    let mut net = Network::new(3);
    net.install_plan(plan);

    net.advance_to(ms(120));
    // Only the first cut is in force: 0 is cut from {1, 2}, 1 still talks
    // to 2.
    let fates = all_fates(&net, 3, 9);
    assert_eq!(fates.iter().filter(|f| delivered(f)).count(), 2);

    net.advance_to(ms(200));
    // Both cuts are in force: 0 is cut from {1,2}; 1 is also cut from 2.
    // Fate stays total under the overlap: every pair gets an answer.
    let fates = all_fates(&net, 3, 9);
    assert_eq!(fates.len(), 6);
    assert!(fates.iter().all(|f| *f == DeliveryFate::Partitioned));

    net.advance_to(ms(350));
    // One heal clears every accumulated cut, not just the latest.
    let fates = all_fates(&net, 3, 9);
    assert!(fates.iter().all(delivered));
}

#[test]
fn restart_before_crash_leaves_the_node_down() {
    // A shrinker can reorder a crash/restart pair so the restart fires
    // first. The plan must execute both without panicking; the net effect
    // is a node that goes down at the (later) crash and stays down.
    let plan = FaultPlan::from_events(vec![
        FaultEvent::RestartAt {
            at: ms(50),
            node: NodeId(1),
        },
        FaultEvent::CrashAt {
            at: ms(100),
            node: NodeId(1),
        },
    ]);
    let mut net = Network::new(3);
    net.install_plan(plan);

    net.advance_to(ms(60));
    assert!(
        !net.is_crashed(NodeId(1)),
        "restart of a live node is a no-op"
    );
    net.advance_to(ms(120));
    assert!(net.is_crashed(NodeId(1)));
    let mut probe = StdRng::seed_from_u64(3);
    assert_eq!(
        net.delivery_fate(NodeId(1), NodeId(0), &mut probe),
        DeliveryFate::SenderCrashed
    );
    assert_eq!(
        net.delivery_fate(NodeId(0), NodeId(1), &mut probe),
        DeliveryFate::ReceiverCrashed
    );
}

#[test]
fn zero_length_loss_burst_never_applies() {
    // from == until is rejected by the builder but reachable through
    // from_events (a shrinker truncating a window to nothing). The
    // half-open [from, until) window is empty: no instant is inside it.
    let plan = FaultPlan::from_events(vec![FaultEvent::LossBurst {
        from: ms(100),
        until: ms(100),
        loss: 1.0,
    }]);
    assert_eq!(plan.extra_loss(ms(99)), 0.0);
    assert_eq!(plan.extra_loss(ms(100)), 0.0, "empty window has no inside");
    assert_eq!(plan.extra_loss(ms(101)), 0.0);

    let mut net = Network::new(2);
    net.install_plan(plan);
    net.advance_to(ms(100));
    // Even with loss=1.0 in the (empty) window, everything is delivered.
    let fates = all_fates(&net, 2, 5);
    assert!(fates.iter().all(delivered));
}

#[test]
fn duplicate_timestamps_fire_in_insertion_order() {
    // Crash and restart of the same node at the same instant: the stable
    // sort keeps insertion order, so crash-then-restart nets out alive
    // and restart-then-crash nets out dead. Both must be deterministic.
    let crash_then_restart = FaultPlan::from_events(vec![
        FaultEvent::CrashAt {
            at: ms(100),
            node: NodeId(0),
        },
        FaultEvent::RestartAt {
            at: ms(100),
            node: NodeId(0),
        },
    ]);
    let restart_then_crash = FaultPlan::from_events(vec![
        FaultEvent::RestartAt {
            at: ms(100),
            node: NodeId(0),
        },
        FaultEvent::CrashAt {
            at: ms(100),
            node: NodeId(0),
        },
    ]);

    let mut up = Network::new(2);
    let mut down = Network::new(2);
    up.install_plan(crash_then_restart);
    down.install_plan(restart_then_crash);
    // Read at an arrival time past the instant, before anything fires...
    assert!(up.arrives(NodeId(1), NodeId(0), ms(150)));
    assert!(!down.arrives(NodeId(1), NodeId(0), ms(150)));
    // ...and once it has.
    up.advance_to(ms(150));
    down.advance_to(ms(150));
    assert!(!up.is_crashed(NodeId(0)));
    assert!(down.is_crashed(NodeId(0)));
}

#[test]
fn delivery_fate_is_deterministic_across_replays_of_an_edge_case_plan() {
    // One plan exercising every edge at once, replayed twice with the
    // same seeds: the full fate trace must match exactly.
    let events = vec![
        FaultEvent::RestartAt {
            at: ms(40),
            node: NodeId(2),
        },
        FaultEvent::PartitionAt {
            at: ms(80),
            left: vec![NodeId(0)],
            right: vec![NodeId(1), NodeId(2)],
        },
        FaultEvent::PartitionAt {
            at: ms(80),
            left: vec![NodeId(0), NodeId(1)],
            right: vec![NodeId(2)],
        },
        FaultEvent::LossBurst {
            from: ms(90),
            until: ms(90),
            loss: 1.0,
        },
        FaultEvent::CrashAt {
            at: ms(120),
            node: NodeId(2),
        },
        FaultEvent::HealAt { at: ms(160) },
    ];
    let trace = |seed: u64| -> Vec<DeliveryFate> {
        let mut net = Network::new(3);
        net.install_plan(FaultPlan::from_events(events.clone()));
        let mut all = Vec::new();
        for t in [50u64, 100, 130, 170] {
            net.advance_to(ms(t));
            all.extend(all_fates(&net, 3, seed ^ t));
        }
        all
    };
    assert_eq!(trace(11), trace(11), "same seed, same fates");
}
