//! The statistical campaign engine: runs collection-period-scale validation
//! campaigns (the paper's ~250 000 rounds per two-week capture) quickly,
//! emitting the same event schema as the message-level engine.
//!
//! Per round, every participating validator signs exactly one page:
//!
//! * in-sync validators sign the round's main-chain page;
//! * lagging validators usually sign a stale page;
//! * desynced/private validators sign their own chain;
//! * test-net validators sign the parallel test-net chain;
//! * byzantine validators sign an arbitrary page.
//!
//! The main-chain page is *committed* only if at least [`QUORUM_PCT`]
//! percent of the trusted UNL signed it — the paper: "only those pages that
//! are signed by at least 80% of the validators end up in the distributed
//! ledger".

use std::collections::HashSet;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ripple_crypto::{sha512_half, Digest256};

use crate::metrics::ValidatorReport;
use crate::rounds::{support_required, QUORUM_PCT};
use crate::stream::{ValidationEvent, ValidationStream};
use crate::validator::{Validator, ValidatorProfile};

/// A configured validation campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    validators: Vec<Validator>,
    outages: Vec<(usize, Range<u64>)>,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The captured validation stream.
    pub stream: ValidationStream,
    /// Hashes of pages committed to the main ledger.
    pub committed: HashSet<Digest256>,
    /// Rounds executed.
    pub rounds: u64,
    /// Rounds in which the main chain failed to reach quorum.
    pub failed_rounds: u64,
    /// The validator population (labels preserved for reporting).
    pub validators: Vec<Validator>,
}

impl Campaign {
    /// Creates a campaign over `validators` with the standard 80% quorum.
    pub fn new(validators: Vec<Validator>) -> Campaign {
        Campaign {
            validators,
            outages: Vec::new(),
        }
    }

    /// Takes validator `index` offline for the given round range — failure
    /// injection for the paper's §IV concern that "a malicious party
    /// hijacking or compromising the majority of these validators could
    /// endanger the whole Ripple system".
    pub fn with_outage(mut self, index: usize, rounds: Range<u64>) -> Campaign {
        self.outages.push((index, rounds));
        self
    }

    /// The trusted UNL: validators whose profile follows the main chain and
    /// participates (the quorum denominator).
    fn unl(&self) -> Vec<usize> {
        self.validators
            .iter()
            .filter(|v| matches!(v.profile, ValidatorProfile::Reliable { .. }))
            .map(|v| v.index)
            .collect()
    }

    fn is_out(&self, index: usize, round: u64) -> bool {
        self.outages
            .iter()
            .any(|(i, range)| *i == index && range.contains(&round))
    }

    /// Runs `rounds` consensus rounds with the given RNG seed.
    pub fn run(&self, rounds: u64, seed: u64) -> CampaignOutcome {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stream = ValidationStream::new();
        let mut committed = HashSet::new();
        let mut failed_rounds = 0;
        let unl = self.unl();
        let quorum_needed = support_required(unl.len(), QUORUM_PCT);

        for round in 0..rounds {
            let main_hash = sha512_half(format!("main:{seed}:{round}").as_bytes());
            let testnet_hash = sha512_half(format!("testnet:{seed}:{round}").as_bytes());
            let mut main_signers = 0usize;

            for v in &self.validators {
                if self.is_out(v.index, round) {
                    continue;
                }
                let avail = v.profile.availability();
                if avail < 1.0 && !rng.gen_bool(avail.clamp(0.0, 1.0)) {
                    continue;
                }
                let page_hash = match v.profile {
                    ValidatorProfile::Reliable { .. } => main_hash,
                    ValidatorProfile::Lagging { sync_prob, .. } => {
                        if rng.gen_bool(sync_prob.clamp(0.0, 1.0)) {
                            main_hash
                        } else {
                            sha512_half(format!("stale:{}:{round}", v.index).as_bytes())
                        }
                    }
                    ValidatorProfile::Desynced { .. } => {
                        sha512_half(format!("private:{}:{round}", v.index).as_bytes())
                    }
                    ValidatorProfile::TestNet { .. } => testnet_hash,
                    ValidatorProfile::Byzantine { .. } => sha512_half(
                        format!("byz:{}:{}:{round}", v.index, rng.gen::<u64>()).as_bytes(),
                    ),
                };
                if page_hash == main_hash && unl.contains(&v.index) {
                    main_signers += 1;
                }
                stream.record(ValidationEvent {
                    round,
                    validator: v.public_key(),
                    label: v.label.clone(),
                    page_hash,
                    signature: v.keys.sign(page_hash.as_bytes()),
                });
            }

            if main_signers >= quorum_needed && !unl.is_empty() {
                committed.insert(main_hash);
            } else {
                failed_rounds += 1;
            }
        }

        CampaignOutcome {
            stream,
            committed,
            rounds,
            failed_rounds,
            validators: self.validators.clone(),
        }
    }
}

impl CampaignOutcome {
    /// Aggregates the stream into the paper's Figure 2 rows.
    pub fn report(&self) -> ValidatorReport {
        ValidatorReport::from_stream(&self.stream, &self.committed, self.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reliable(i: usize, label: &str) -> Validator {
        Validator::new(i, label, ValidatorProfile::Reliable { availability: 1.0 })
    }

    fn population() -> Vec<Validator> {
        let mut v = vec![
            reliable(0, "R1"),
            reliable(1, "R2"),
            reliable(2, "R3"),
            reliable(3, "R4"),
            reliable(4, "R5"),
        ];
        v.push(Validator::new(
            5,
            "laggy.example",
            ValidatorProfile::Lagging {
                availability: 0.5,
                sync_prob: 0.1,
            },
        ));
        v.push(Validator::new(
            6,
            "private.example",
            ValidatorProfile::Desynced { availability: 1.0 },
        ));
        v.push(Validator::new(
            7,
            "testnet.ripple.com",
            ValidatorProfile::TestNet { availability: 1.0 },
        ));
        v
    }

    #[test]
    fn reliable_validators_sign_every_round_validly() {
        let out = Campaign::new(population()).run(100, 1);
        let report = out.report();
        let r1 = report.rows.iter().find(|r| r.label == "R1").unwrap();
        assert_eq!(r1.total, 100);
        assert_eq!(r1.valid, 100);
        assert_eq!(out.failed_rounds, 0);
    }

    #[test]
    fn desynced_and_testnet_never_valid() {
        let out = Campaign::new(population()).run(100, 2);
        let report = out.report();
        for label in ["private.example", "testnet.ripple.com"] {
            let row = report.rows.iter().find(|r| r.label == label).unwrap();
            assert_eq!(row.valid, 0, "{label} should never be valid");
            assert_eq!(row.total, 100);
        }
    }

    #[test]
    fn lagging_validator_mostly_invalid() {
        let out = Campaign::new(population()).run(1_000, 3);
        let report = out.report();
        let row = report
            .rows
            .iter()
            .find(|r| r.label == "laggy.example")
            .unwrap();
        assert!(row.total > 350 && row.total < 650, "total = {}", row.total);
        assert!(
            (row.valid as f64) < 0.25 * row.total as f64,
            "valid = {} of {}",
            row.valid,
            row.total
        );
        assert!(row.valid > 0);
    }

    #[test]
    fn quorum_loss_halts_commitment() {
        // Take 2 of 5 UNL members offline: 3/5 = 60% < 80% quorum.
        let out = Campaign::new(population())
            .with_outage(0, 0..50)
            .with_outage(1, 0..50)
            .run(100, 4);
        assert_eq!(out.failed_rounds, 50);
        let report = out.report();
        let r3 = report.rows.iter().find(|r| r.label == "R3").unwrap();
        // R3 signed all 100 rounds but only 50 of its pages were committed.
        assert_eq!(r3.total, 100);
        assert_eq!(r3.valid, 50);
    }

    #[test]
    fn byzantine_signatures_are_never_committed() {
        let mut pop = population();
        pop.push(Validator::new(
            8,
            "evil.example",
            ValidatorProfile::Byzantine { availability: 1.0 },
        ));
        let out = Campaign::new(pop).run(200, 5);
        let report = out.report();
        let row = report
            .rows
            .iter()
            .find(|r| r.label == "evil.example")
            .unwrap();
        assert_eq!(row.valid, 0);
        assert_eq!(row.total, 200);
        // The honest quorum is unaffected.
        assert_eq!(out.failed_rounds, 0);
    }

    #[test]
    fn same_seed_reproduces_stream() {
        let a = Campaign::new(population()).run(50, 9);
        let b = Campaign::new(population()).run(50, 9);
        assert!(a.stream.into_iter().eq(&b.stream));
    }
}
