//! The paper's three collection periods as ready-to-run validator
//! populations.
//!
//! Populations mirror Figure 2's observations:
//!
//! * **December 2015** — R1–R5 plus 29 others: 3 actively contributing
//!   (unidentified), 5 lagging ("struggling to stay in sync"), 21 signing
//!   pages that never match the main ledger.
//! * **July 2016** — R1–R5 plus 28 others: 10 active (4 with public domains:
//!   `bougalis.net` ×2, `freewallet1.net`, `freewallet2.net`, `mduo13.com`,
//!   `youwant.to` — 6 anonymous), 5 running the test-net's parallel ledger,
//!   the rest desynced.
//! * **November 2016** — R1–R5 plus 34 others: only 8 active;
//!   `freewallet1/2.net` drop to an order of magnitude fewer pages; 5
//!   test-net validators persist.
//!
//! Nine validators (R1–R5 plus four long-lived anonymous keys) are active in
//! all three periods, matching the paper's churn observation.

use crate::campaign::{Campaign, CampaignOutcome};
use crate::metrics::ValidatorReport;
use crate::validator::{Validator, ValidatorProfile};

/// One of the paper's three two-week capture windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectionPeriod {
    /// First half of December 2015 (Fig. 2a).
    December2015,
    /// First half of July 2016 (Fig. 2b).
    July2016,
    /// First half of November 2016 (Fig. 2c).
    November2016,
}

/// The four anonymous validators active in *all three* periods (their
/// abbreviated keys appear in every panel of Figure 2). Together with R1–R5
/// they form the paper's 9 persistent actives.
const SHARED_ANON_SEEDS: [&str; 4] = [
    "shared-anon-n9KDJn",
    "shared-anon-n9KDWe",
    "shared-anon-n9L6Xc",
    "shared-anon-n9Mb8Z",
];

fn ripple_labs(validators: &mut Vec<Validator>) {
    for i in 1..=5 {
        validators.push(Validator::new(
            validators.len(),
            format!("R{i}"),
            ValidatorProfile::Reliable { availability: 1.0 },
        ));
    }
}

fn shared_anon(validators: &mut Vec<Validator>, availability: f64) {
    for seed in SHARED_ANON_SEEDS {
        let index = validators.len();
        let keys = ripple_crypto::SimKeypair::from_seed(seed.as_bytes());
        validators.push(Validator {
            index,
            label: keys.public_key().node_short(),
            keys,
            profile: ValidatorProfile::Reliable { availability },
        });
    }
}

fn anon(validators: &mut Vec<Validator>, salt: &str, n: usize, profile: ValidatorProfile) {
    for k in 0..n {
        let index = validators.len();
        let keys =
            ripple_crypto::SimKeypair::from_seed(format!("anon:{salt}:{index}:{k}").as_bytes());
        validators.push(Validator {
            index,
            label: keys.public_key().node_short(),
            keys,
            profile,
        });
    }
}

fn named(validators: &mut Vec<Validator>, label: &str, profile: ValidatorProfile) {
    let index = validators.len();
    validators.push(Validator::new(index, label, profile));
}

impl CollectionPeriod {
    /// All three periods, in chronological order.
    pub fn all() -> [CollectionPeriod; 3] {
        [
            CollectionPeriod::December2015,
            CollectionPeriod::July2016,
            CollectionPeriod::November2016,
        ]
    }

    /// Human-readable name matching the paper's sub-captions.
    pub fn name(&self) -> &'static str {
        match self {
            CollectionPeriod::December2015 => "First half of December 2015",
            CollectionPeriod::July2016 => "First half of July 2016",
            CollectionPeriod::November2016 => "First half of November 2016",
        }
    }

    /// Builds the period's validator population.
    pub fn validators(&self) -> Vec<Validator> {
        let mut v = Vec::new();
        ripple_labs(&mut v);
        match self {
            CollectionPeriod::December2015 => {
                // 3 actively contributing (unidentified): the persistent
                // anonymous cohort was only partially active this early —
                // 3 of the 4 shared keys run hot, one is still lagging.
                shared_anon(&mut v, 0.92);
                // Demote the fourth shared key to lagging this period by
                // replacing its profile.
                if let Some(last) = v.last_mut() {
                    last.profile = ValidatorProfile::Lagging {
                        availability: 0.45,
                        sync_prob: 0.12,
                    };
                }
                // 4 more lagging validators with very small valid fractions.
                named(
                    &mut v,
                    "mycooldomain.com",
                    ValidatorProfile::Lagging {
                        availability: 0.4,
                        sync_prob: 0.08,
                    },
                );
                anon(
                    &mut v,
                    "dec2015",
                    3,
                    ValidatorProfile::Lagging {
                        availability: 0.35,
                        sync_prob: 0.1,
                    },
                );
                // 21 desynced / private-ledger validators.
                named(
                    &mut v,
                    "xagate.com",
                    ValidatorProfile::Desynced { availability: 0.7 },
                );
                anon(
                    &mut v,
                    "dec2015",
                    20,
                    ValidatorProfile::Desynced { availability: 0.65 },
                );
            }
            CollectionPeriod::July2016 => {
                // 10 active: 4 shared anonymous + 6 named/anonymous.
                shared_anon(&mut v, 0.93);
                named(
                    &mut v,
                    "bougalis.net",
                    ValidatorProfile::Reliable { availability: 0.97 },
                );
                named(
                    &mut v,
                    "bougalis.net (2)",
                    ValidatorProfile::Reliable { availability: 0.96 },
                );
                named(
                    &mut v,
                    "freewallet1.net",
                    ValidatorProfile::Reliable { availability: 0.88 },
                );
                named(
                    &mut v,
                    "freewallet2.net",
                    ValidatorProfile::Reliable { availability: 0.86 },
                );
                named(
                    &mut v,
                    "mduo13.com",
                    ValidatorProfile::Reliable { availability: 0.82 },
                );
                named(
                    &mut v,
                    "youwant.to",
                    ValidatorProfile::Reliable { availability: 0.8 },
                );
                // 5 test-net validators (~200k pages, none valid on main).
                for i in 1..=5 {
                    named(
                        &mut v,
                        &format!("testnet.ripple.com ({i})"),
                        ValidatorProfile::TestNet { availability: 0.85 },
                    );
                }
                // Remaining observed: desynced or barely-alive validators.
                named(
                    &mut v,
                    "rippled.media.mit.edu",
                    ValidatorProfile::Desynced { availability: 0.6 },
                );
                named(
                    &mut v,
                    "rippled.mr.exchange",
                    ValidatorProfile::Desynced { availability: 0.55 },
                );
                anon(
                    &mut v,
                    "jul2016",
                    6,
                    ValidatorProfile::Desynced { availability: 0.5 },
                );
                anon(
                    &mut v,
                    "jul2016",
                    5,
                    ValidatorProfile::Lagging {
                        availability: 0.3,
                        sync_prob: 0.07,
                    },
                );
            }
            CollectionPeriod::November2016 => {
                // Only 8 active now: 4 shared anonymous + 4 others.
                shared_anon(&mut v, 0.9);
                named(
                    &mut v,
                    "bougalis.net",
                    ValidatorProfile::Reliable { availability: 0.9 },
                );
                anon(
                    &mut v,
                    "nov2016",
                    3,
                    ValidatorProfile::Reliable { availability: 0.85 },
                );
                // freewallet1/2 collapse to ~an order of magnitude fewer
                // pages (paper: "less than 20 000 ledger pages" vs +200k).
                // Present for an order of magnitude fewer rounds, but still
                // in sync when they do show up. Modelled as Lagging (out of
                // the trusted UNL) so their absence cannot stall quorum.
                named(
                    &mut v,
                    "freewallet1.net",
                    ValidatorProfile::Lagging {
                        availability: 0.07,
                        sync_prob: 0.97,
                    },
                );
                named(
                    &mut v,
                    "freewallet2.net",
                    ValidatorProfile::Lagging {
                        availability: 0.06,
                        sync_prob: 0.97,
                    },
                );
                // 5 test-net validators persist.
                for i in 1..=5 {
                    named(
                        &mut v,
                        &format!("testnet.ripple.com ({i})"),
                        ValidatorProfile::TestNet { availability: 0.85 },
                    );
                }
                named(
                    &mut v,
                    "awsstatic.com/fin-serv",
                    ValidatorProfile::Desynced { availability: 0.6 },
                );
                named(
                    &mut v,
                    "duke67.com",
                    ValidatorProfile::Desynced { availability: 0.55 },
                );
                named(
                    &mut v,
                    "paleorbglow.com",
                    ValidatorProfile::Desynced { availability: 0.5 },
                );
                named(
                    &mut v,
                    "rippled.media.mit.edu",
                    ValidatorProfile::Desynced { availability: 0.6 },
                );
                named(
                    &mut v,
                    "rippled.mr.exchange",
                    ValidatorProfile::Desynced { availability: 0.5 },
                );
                anon(
                    &mut v,
                    "nov2016",
                    9,
                    ValidatorProfile::Desynced { availability: 0.45 },
                );
                anon(
                    &mut v,
                    "nov2016",
                    5,
                    ValidatorProfile::Lagging {
                        availability: 0.25,
                        sync_prob: 0.06,
                    },
                );
            }
        }
        v
    }

    /// Runs the period for `rounds` consensus rounds (the real captures span
    /// ~250 000; scale down for tests).
    pub fn run(&self, rounds: u64, seed: u64) -> CampaignOutcome {
        Campaign::new(self.validators()).run(rounds, seed)
    }

    /// Figure 2: runs all three periods for `rounds` rounds each and
    /// returns their reports in [`CollectionPeriod::all`] order.
    ///
    /// The periods share nothing, so each runs on its own scoped thread
    /// and reduces its validation stream to a report before joining; only
    /// the reports outlive the threads. The result equals
    /// `period.run(rounds, seed).report()` taken period by period.
    pub fn run_all(rounds: u64, seed: u64) -> Vec<(CollectionPeriod, ValidatorReport)> {
        std::thread::scope(|scope| {
            let handles = CollectionPeriod::all()
                .map(|period| scope.spawn(move || (period, period.run(rounds, seed).report())));
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{persistent_actives, total_observed};

    #[test]
    fn run_all_equals_the_sequential_periods() {
        for (rounds, seed) in [(0, 1), (1, 2), (60, 7), (250, 20_130_101)] {
            let all = CollectionPeriod::run_all(rounds, seed);
            let sequential: Vec<_> = CollectionPeriod::all()
                .into_iter()
                .map(|period| (period, period.run(rounds, seed).report()))
                .collect();
            assert_eq!(all, sequential, "rounds {rounds}, seed {seed}");
        }
    }

    #[test]
    fn population_sizes_match_paper() {
        for period in CollectionPeriod::all() {
            // The paper observed 29, 28 and 34 validators besides R1–R5.
            let non_labs = match period {
                CollectionPeriod::December2015 => 29,
                CollectionPeriod::July2016 => 28,
                CollectionPeriod::November2016 => 34,
            };
            let v = period.validators();
            assert_eq!(v.len(), non_labs + 5, "{} population", period.name());
        }
    }

    #[test]
    fn labels_are_unique_within_period() {
        for period in CollectionPeriod::all() {
            let v = period.validators();
            let mut labels: Vec<&str> = v.iter().map(|x| x.label.as_str()).collect();
            labels.sort_unstable();
            let before = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), before, "{}", period.name());
        }
    }

    #[test]
    fn december_has_three_active_non_labs() {
        let out = CollectionPeriod::December2015.run(400, 7);
        let report = out.report();
        let active = report.active(0.5);
        let non_labs: Vec<&str> = active
            .iter()
            .map(|r| r.label.as_str())
            .filter(|l| !l.starts_with('R') || l.len() > 2)
            .collect();
        assert_eq!(non_labs.len(), 3, "active non-labs: {non_labs:?}");
    }

    #[test]
    fn july_activity_exceeds_december_and_november() {
        let dec = CollectionPeriod::December2015.run(400, 8).report();
        let jul = CollectionPeriod::July2016.run(400, 8).report();
        let nov = CollectionPeriod::November2016.run(400, 8).report();
        let count = |r: &crate::metrics::ValidatorReport| r.active(0.5).len();
        assert!(count(&jul) > count(&dec), "july should gain actives");
        assert!(count(&jul) > count(&nov), "november should lose actives");
        // Paper: 10 active non-labs in July, 8 in November (plus R1-R5).
        assert_eq!(count(&jul), 15);
        assert_eq!(count(&nov), 13);
    }

    #[test]
    fn testnet_validators_sign_many_but_zero_valid() {
        let out = CollectionPeriod::July2016.run(400, 9);
        let report = out.report();
        let testnet: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.label.starts_with("testnet.ripple.com"))
            .collect();
        assert_eq!(testnet.len(), 5);
        for row in testnet {
            assert!(row.total > 250, "{} total {}", row.label, row.total);
            assert_eq!(row.valid, 0, "{}", row.label);
        }
    }

    #[test]
    fn nine_persistent_actives_across_periods() {
        let outs: Vec<_> = CollectionPeriod::all()
            .iter()
            .map(|p| p.run(400, 11))
            .collect();
        let reports: Vec<_> = outs.iter().map(|o| o.report()).collect();
        let refs: Vec<&crate::metrics::ValidatorReport> = reports.iter().collect();
        // "Active contributor" here means contributing at least one valid
        // page in the period (fraction 0.0 degrades to valid >= 1).
        let persistent = persistent_actives(&refs, 0.0);
        assert_eq!(persistent.len(), 9, "persistent = {persistent:?}");
        // Around 70 distinct labels seen across the three periods.
        let seen = total_observed(&refs);
        assert!((60..=80).contains(&seen), "seen = {seen}");
    }

    #[test]
    fn freewallet_collapse_between_july_and_november() {
        let jul = CollectionPeriod::July2016.run(1_000, 13).report();
        let nov = CollectionPeriod::November2016.run(1_000, 13).report();
        let get = |r: &crate::metrics::ValidatorReport, l: &str| {
            r.rows
                .iter()
                .find(|row| row.label == l)
                .map(|row| row.total)
                .unwrap_or(0)
        };
        let jul_fw = get(&jul, "freewallet1.net");
        let nov_fw = get(&nov, "freewallet1.net");
        assert!(
            nov_fw * 8 < jul_fw,
            "expected order-of-magnitude collapse: jul={jul_fw} nov={nov_fw}"
        );
    }
}
