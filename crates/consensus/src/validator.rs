//! Validator identities and behavioral profiles.
//!
//! The paper's §IV observes several distinct validator behaviours in the
//! wild; each gets a profile here:
//!
//! * Ripple Labs' R1–R5 — always on, always in sync.
//! * Active independents — high availability, sign the main chain.
//! * Lagging validators — "struggling to stay in sync with the rest of the
//!   system, due to limited hardware or network performance", so only a
//!   small fraction of their signed pages match the main ledger.
//! * Desynced/private — "either were contributing to a different, private
//!   Ripple ledger, or their latency made it almost impossible to
//!   participate"; none of their pages are valid.
//! * Test-net — run consensus for `testnet.ripple.com`, a parallel ledger;
//!   ~200k signed pages, none on the main chain.
//! * Byzantine — equivocate or sign garbage (used in failure injection).

use ripple_crypto::{PublicKey, SimKeypair};
use serde::{Deserialize, Serialize};

/// Behavioural profile of a validator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ValidatorProfile {
    /// Always available, always in sync (Ripple Labs R1–R5 and the active
    /// independents).
    Reliable {
        /// Fraction of rounds the validator participates in (1.0 = all).
        availability: f64,
    },
    /// Participates, but often signs a stale or divergent page.
    Lagging {
        /// Fraction of rounds the validator participates in.
        availability: f64,
        /// Probability that a signed page matches the main chain.
        sync_prob: f64,
    },
    /// Signs its own private chain; never matches the main ledger.
    Desynced {
        /// Fraction of rounds the validator participates in.
        availability: f64,
    },
    /// Validates the parallel test-net ledger.
    TestNet {
        /// Fraction of rounds the validator participates in.
        availability: f64,
    },
    /// Byzantine: signs a random (equivocating) page each round.
    Byzantine {
        /// Fraction of rounds the validator participates in.
        availability: f64,
    },
}

impl ValidatorProfile {
    /// The profile's participation rate.
    pub fn availability(&self) -> f64 {
        match *self {
            ValidatorProfile::Reliable { availability }
            | ValidatorProfile::Lagging { availability, .. }
            | ValidatorProfile::Desynced { availability }
            | ValidatorProfile::TestNet { availability }
            | ValidatorProfile::Byzantine { availability } => availability,
        }
    }
}

/// A validator: identity, display label, and behaviour.
#[derive(Debug, Clone)]
pub struct Validator {
    /// Index in the campaign's population.
    pub index: usize,
    /// Display label: a domain (`bougalis.net`), an `R1`-style Ripple Labs
    /// tag, or the abbreviated public key (`n9KDJn...Q7KhQ2`).
    pub label: String,
    /// Signing keys.
    pub keys: SimKeypair,
    /// Behaviour.
    pub profile: ValidatorProfile,
}

impl Validator {
    /// Creates a validator with a deterministic keypair derived from the
    /// label and index.
    pub fn new(index: usize, label: impl Into<String>, profile: ValidatorProfile) -> Validator {
        let label = label.into();
        let seed = format!("validator:{index}:{label}");
        Validator {
            index,
            label,
            keys: SimKeypair::from_seed(seed.as_bytes()),
            profile,
        }
    }

    /// Creates an *anonymous* validator labelled by its abbreviated key,
    /// like the unidentified entities dominating the paper's Figure 2.
    pub fn anonymous(index: usize, profile: ValidatorProfile) -> Validator {
        let seed = format!("validator:{index}:anon");
        let keys = SimKeypair::from_seed(seed.as_bytes());
        Validator {
            index,
            label: keys.public_key().node_short(),
            keys,
            profile,
        }
    }

    /// The validator's public key.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ValidatorProfile {
        /// Whether this validator follows the main chain when in sync.
        fn follows_main_chain(&self) -> bool {
            matches!(
                self,
                ValidatorProfile::Reliable { .. } | ValidatorProfile::Lagging { .. }
            )
        }
    }

    #[test]
    fn availability_accessor_covers_all_profiles() {
        let profiles = [
            ValidatorProfile::Reliable { availability: 1.0 },
            ValidatorProfile::Lagging {
                availability: 0.5,
                sync_prob: 0.1,
            },
            ValidatorProfile::Desynced { availability: 0.9 },
            ValidatorProfile::TestNet { availability: 0.8 },
            ValidatorProfile::Byzantine { availability: 0.7 },
        ];
        let avails: Vec<f64> = profiles.iter().map(|p| p.availability()).collect();
        assert_eq!(avails, vec![1.0, 0.5, 0.9, 0.8, 0.7]);
    }

    #[test]
    fn only_synced_profiles_follow_main_chain() {
        assert!(ValidatorProfile::Reliable { availability: 1.0 }.follows_main_chain());
        assert!(ValidatorProfile::Lagging {
            availability: 1.0,
            sync_prob: 0.5
        }
        .follows_main_chain());
        assert!(!ValidatorProfile::Desynced { availability: 1.0 }.follows_main_chain());
        assert!(!ValidatorProfile::TestNet { availability: 1.0 }.follows_main_chain());
    }

    #[test]
    fn anonymous_label_is_abbreviated_key() {
        let v = Validator::anonymous(3, ValidatorProfile::Desynced { availability: 1.0 });
        assert!(v.label.starts_with('n'));
        assert!(v.label.contains("..."));
    }

    #[test]
    fn keys_are_deterministic_per_identity() {
        let a = Validator::new(1, "R1", ValidatorProfile::Reliable { availability: 1.0 });
        let b = Validator::new(1, "R1", ValidatorProfile::Reliable { availability: 1.0 });
        assert_eq!(a.public_key(), b.public_key());
        let c = Validator::new(2, "R2", ValidatorProfile::Reliable { availability: 1.0 });
        assert_ne!(a.public_key(), c.public_key());
    }
}
