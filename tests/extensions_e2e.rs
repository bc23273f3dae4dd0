//! Integration tests for the extension studies, run against generated
//! histories rather than crafted fixtures.

use ripple_core::deanon::countermeasure::{ground_truth, link_wallets_by_habit, split_wallets};
use ripple_core::deanon::ResolutionSpec;
use ripple_core::ledger::FeeSchedule;
use ripple_core::query::{EngineConfig, QueryEngine};
use ripple_core::{PaymentRecord, Study, SynthConfig};

fn study() -> Study {
    Study::generate(SynthConfig {
        seed: 31_337,
        ..SynthConfig::small(6_000)
    })
}

#[test]
fn archive_index_window_matches_linear_filter() {
    let study = study();
    let mut buf = Vec::new();
    study.output().write_archive(&mut buf).expect("write");
    let (engine, report) =
        QueryEngine::open(buf, &EngineConfig::default()).expect("time-ordered archive");
    assert_eq!(report.records as usize, study.output().events.len());

    let (from, to) = {
        let payments = study.payments();
        let a = payments[payments.len() / 4].timestamp;
        let b = payments[3 * payments.len() / 4].timestamp;
        (a, b)
    };
    let windowed = engine.range(from, to, usize::MAX).expect("scan");
    let linear = study
        .output()
        .events
        .iter()
        .filter(|e| e.timestamp() >= from && e.timestamp() < to)
        .count();
    assert_eq!(windowed.len(), linear);
    assert!(!windowed.is_empty());
}

#[test]
fn wallet_split_on_generated_history_has_expected_tradeoffs() {
    let study = study();
    let records: Vec<PaymentRecord> = study.payments().into_iter().cloned().collect();
    let fees = FeeSchedule::mainnet();
    let (split, report) = split_wallets(&records, 4, ResolutionSpec::full(), &fees);
    assert_eq!(split.len(), records.len());
    // Exposure near 1/k, never below it.
    assert!(report.profile_exposure < 0.45);
    assert!(report.profile_exposure >= 0.24);
    // Strict IG unchanged by construction.
    assert_eq!(report.ig_before.unique, report.ig_after.unique);
    // The split is expensive: tens of thousands of XRP locked.
    assert!(report.reserve_cost_xrp > 10_000);
    // And the re-linking attack stays sound: whatever it claims is
    // measured honestly (precision and recall in [0, 1]).
    let truth = ground_truth(&records, 4);
    let link = link_wallets_by_habit(&split, &truth, 4);
    assert!((0.0..=1.0).contains(&link.recall));
    assert!((0.0..=1.0).contains(&link.precision));
}

#[test]
fn reward_economy_composes_with_campaign_robustness() {
    use ripple_core::consensus::{
        simulate_reward_economy, Campaign, EconomyConfig, RewardPolicy, Validator, ValidatorProfile,
    };
    // Grow the validator set with a funded reward policy…
    let outcome = simulate_reward_economy(
        RewardPolicy {
            tax_bps: 150,
            operating_cost_per_round: 0.01,
        },
        EconomyConfig::default(),
        5,
    );
    let grown = outcome.equilibrium_validators();
    assert!(grown > 20);
    // …then verify a campaign with that many reliable validators tolerates
    // an outage the small set could not.
    let build = |n: usize| -> Vec<Validator> {
        (0..n)
            .map(|i| {
                Validator::new(
                    i,
                    format!("v{i}"),
                    ValidatorProfile::Reliable { availability: 1.0 },
                )
            })
            .collect()
    };
    let small = Campaign::new(build(5))
        .with_outage(0, 0..100)
        .with_outage(1, 0..100)
        .run(100, 9);
    assert_eq!(small.failed_rounds, 100, "2 of 5 down kills quorum");
    let big = Campaign::new(build(grown))
        .with_outage(0, 0..100)
        .with_outage(1, 0..100)
        .run(100, 9);
    assert_eq!(big.failed_rounds, 0, "2 of {grown} down is absorbed");
}
