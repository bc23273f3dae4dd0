//! The engine's edge-patched router against a router that never patches:
//! the post-snapshot IOU payments of a generated history go through one
//! long-lived `PaymentEngine` on one ledger and, payment by payment,
//! through a fresh engine on a clone of that ledger (a new lineage, so a
//! full graph build). Every `Result` must be equal — delivered paths and
//! `NoPath` carried amounts included — on the control network and on the
//! network with every Market Maker severed.

use ripple_core::analytics::mm_removal::request_from_record;
use ripple_core::ledger::LedgerState;
use ripple_core::paths::{PaymentEngine, PaymentRequest, RouterStats};
use ripple_core::synth::PipelineConfig;
use ripple_core::{Generator, SynthConfig};

/// Replays `window` on `state` through one engine, checking each payment
/// against a fresh engine first; returns how many were delivered and the
/// long-lived engine's router counters.
fn replay_against_fresh_engines(
    mut state: LedgerState,
    window: &[PaymentRequest],
) -> (usize, RouterStats) {
    let engine = PaymentEngine::new();
    let mut delivered = 0;
    for (i, request) in window.iter().enumerate() {
        let fresh = PaymentEngine::new().pay(&mut state.clone(), request);
        let patched = engine.pay(&mut state, request);
        assert_eq!(patched, fresh, "payment {i}: {request:?}");
        delivered += patched.is_ok() as usize;
    }
    (delivered, engine.router_stats())
}

#[test]
fn long_lived_engine_equals_a_fresh_engine_on_every_replayed_payment() {
    // `credit_probe`'s history.
    let output = Generator::new(SynthConfig {
        seed: 20130101,
        payments: 10_000,
        ..SynthConfig::default()
    })
    .run_pipelined(&PipelineConfig::default())
    .expect("pipelined generation")
    .output;
    let (at, snapshot) = output.snapshot.as_ref().expect("snapshot exists");
    // Table II's window plus the MTL/CCK spam chains it leaves out: the
    // eight-hop paths are the longest the router walks.
    let window: Vec<PaymentRequest> = output
        .payments()
        .filter(|p| p.timestamp >= *at && !p.currency.is_xrp())
        .map(request_from_record)
        .collect();
    assert!(window.len() > 1_000, "window of {}", window.len());

    let (control, stats) = replay_against_fresh_engines(snapshot.clone(), &window);
    assert!(control > 0, "the control network delivers nothing");
    assert!(stats.edges_refreshed > 0, "{stats:?}");

    let mut severed = snapshot.clone();
    severed.strip_all_offers();
    for &maker in &output.cast.market_makers {
        severed.sever_account(maker);
    }
    let (without_makers, stats) = replay_against_fresh_engines(severed, &window);
    assert!(without_makers > 0 && without_makers < control);
    // No offers, so no bridge ever rolls back: after the first build of a
    // currency's graph every delivered payment patches it.
    assert!(stats.edges_refreshed > 0, "{stats:?}");
    assert!(stats.graph_builds * 10 < stats.misses, "{stats:?}");
}
