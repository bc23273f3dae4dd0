//! The countermeasure's cost claim as a count: wallets are derived per
//! `(sender, slot)`, never per payment.
//!
//! The metrics registry and the tracer are process-global, so this test
//! has a binary to itself.

use std::collections::HashSet;

use ripple_deanon::countermeasure::{ground_truth, link_wallets_by_habit, split_wallets};
use ripple_deanon::ResolutionSpec;
use ripple_ledger::{FeeSchedule, PaymentRecord};
use ripple_obs::{metrics, trace};
use ripple_synth::{Generator, SynthConfig};

#[test]
fn wallets_are_derived_once_per_sender_slot() {
    let records: Vec<PaymentRecord> = Generator::new(SynthConfig {
        seed: 31_337,
        ..SynthConfig::small(6_000)
    })
    .run()
    .payments()
    .cloned()
    .collect();
    let senders = records
        .iter()
        .map(|r| r.sender)
        .collect::<HashSet<_>>()
        .len() as u64;
    let fees = FeeSchedule::mainnet();
    let ks = [1usize, 2, 4, 8];

    // Off unless metrics are enabled.
    let _ = split_wallets(&records, 2, ResolutionSpec::full(), &fees);
    let _ = ground_truth(&records, 2);
    assert_eq!(
        metrics::snapshot().counter("deanon.countermeasure.wallets_derived"),
        None
    );

    metrics::set_enabled(true);
    trace::enable(trace::DEFAULT_CAPACITY);
    let mut expected = 0u64;
    for k in ks {
        let (split, report) = split_wallets(&records, k, ResolutionSpec::full(), &fees);
        let truth = ground_truth(&records, k);
        let _ = link_wallets_by_habit(&split, &truth, k);
        expected += report.new_wallets + senders * k as u64;
    }
    let events = trace::drain();
    metrics::set_enabled(false);

    let snap = metrics::snapshot();
    let records_seen = snap.counter("deanon.countermeasure.records");
    assert_eq!(records_seen, Some((records.len() * ks.len()) as u64));
    let derived = snap
        .counter("deanon.countermeasure.wallets_derived")
        .expect("counter registered by an enabled run");
    assert_eq!(derived, expected);
    let bound = 2 * senders * ks.iter().sum::<usize>() as u64;
    assert!(derived <= bound, "{derived} derivations > {bound}");
    // A per-payment derivation is (2 + k) per record: 23 over these k.
    assert!(derived < records.len() as u64 * 23 / 4);

    for name in ["split_wallets", "ground_truth", "link_wallets_by_habit"] {
        let spans = events.iter().filter(|e| e.name == name).count();
        assert_eq!(spans, ks.len(), "one {name} span per call");
    }
}
