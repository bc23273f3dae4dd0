//! The end-to-end attacker API: index, query, profile.
//!
//! This is §V's "Alice in the coffee line" made executable: Alice observes
//! the bar's address, the price, the currency and the time; the index maps
//! that observation to candidate senders; if a single candidate remains,
//! [`DeanonIndex::profile`] unrolls "the entire financial life of the
//! user": balance flows, previous payments, monthly income, the places
//! they shop, the people they trust.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, PaymentRecord, RippleTime, Value};

use crate::fingerprint::{Fingerprint, ResolutionSpec};
use crate::resolution::CurrencyStrength;

/// What the attacker observed about one payment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Observed amount (pre-rounding; the index rounds it).
    pub amount: Option<Value>,
    /// Observed time (pre-coarsening).
    pub time: Option<RippleTime>,
    /// Observed currency.
    pub currency: Option<Currency>,
    /// Market-strength hint for amount rounding when the exact currency was
    /// *not* observed: Alice may not catch the currency code, yet still know
    /// what kind of money changed hands ("a few dollars" vs "a pile of
    /// XRP"). Ignored when [`Observation::currency`] is set — the observed
    /// currency's own group always wins.
    pub strength: Option<CurrencyStrength>,
    /// Observed destination (the bar's address).
    pub destination: Option<AccountId>,
}

impl Observation {
    /// The observation corresponding to a full view of `record` — useful
    /// in tests and examples.
    pub fn of(record: &PaymentRecord) -> Observation {
        Observation {
            amount: Some(record.amount),
            time: Some(record.timestamp),
            currency: Some(record.currency),
            strength: Some(CurrencyStrength::of(record.currency)),
            destination: Some(record.destination),
        }
    }

    /// The strength group used to round the observed amount: the observed
    /// currency's group when known, otherwise the explicit [`strength`]
    /// hint, otherwise `Weak` (the XRP-like catch-all).
    ///
    /// The index rounds every record with its *true* strength group, so an
    /// observation of a currency-dropped spec (`⟨A, T, −, D⟩`) must round
    /// the same way or real matches are silently missed — that is what the
    /// hint is for.
    ///
    /// [`strength`]: Observation::strength
    fn rounding_strength(&self) -> CurrencyStrength {
        self.currency
            .map(CurrencyStrength::of)
            .or(self.strength)
            .unwrap_or(CurrencyStrength::Weak)
    }

    fn fingerprint(&self, spec: ResolutionSpec) -> Fingerprint {
        let strength = self.rounding_strength();
        Fingerprint {
            amount: match (spec.amount, self.amount) {
                (Some(res), Some(v)) => Some(res.round_for(strength, v).raw()),
                _ => None,
            },
            time: match (spec.time, self.time) {
                (Some(res), Some(t)) => Some(res.coarsen(t).seconds()),
                _ => None,
            },
            currency: if spec.currency { self.currency } else { None },
            destination: if spec.destination {
                self.destination
            } else {
                None
            },
        }
    }
}

/// Everything the ledger reveals about one account once de-anonymized.
#[derive(Debug, Clone, PartialEq)]
pub struct FinancialProfile {
    /// The account.
    pub account: AccountId,
    /// Number of payments sent.
    pub payments_sent: u64,
    /// Number of payments received.
    pub payments_received: u64,
    /// Total sent per currency.
    pub sent_by_currency: Vec<(Currency, Value)>,
    /// The account's favourite destinations ("the places where we shop"),
    /// most frequent first.
    pub top_destinations: Vec<(AccountId, u64)>,
    /// First payment seen.
    pub first_seen: Option<RippleTime>,
    /// Last payment seen.
    pub last_seen: Option<RippleTime>,
    /// Mean sent volume per 30-day window, in the account's most-used
    /// currency ("our monthly income" mirror-image).
    pub monthly_outflow: Option<(Currency, Value)>,
}

/// The attack index: fingerprints of an entire payment history under one
/// resolution spec.
///
/// The history lives in a shared `Arc<[PaymentRecord]>` arena: building ten
/// indexes (one per Figure 3 row) over the same history shares one copy of
/// the records instead of cloning 23M payments per spec.
#[derive(Debug)]
pub struct DeanonIndex {
    spec: ResolutionSpec,
    by_fingerprint: HashMap<Fingerprint, Vec<u32>>,
    records: Arc<[PaymentRecord]>,
}

impl DeanonIndex {
    /// Builds the index over a history, copying the records into a private
    /// arena. Prefer [`DeanonIndex::build_shared`] when several indexes are
    /// built over the same history.
    pub fn build<'a>(
        records: impl Iterator<Item = &'a PaymentRecord>,
        spec: ResolutionSpec,
    ) -> DeanonIndex {
        let records: Arc<[PaymentRecord]> = records.cloned().collect();
        DeanonIndex::build_shared(records, spec)
    }

    /// Builds the index over a shared record arena without cloning the
    /// history.
    pub fn build_shared(records: Arc<[PaymentRecord]>, spec: ResolutionSpec) -> DeanonIndex {
        assert!(
            records.len() <= u32::MAX as usize,
            "index supports at most 2^32 - 1 payments"
        );
        let mut by_fingerprint: HashMap<Fingerprint, Vec<u32>> = HashMap::new();
        for (i, record) in records.iter().enumerate() {
            by_fingerprint
                .entry(Fingerprint::of(record, spec))
                .or_default()
                .push(i as u32);
        }
        DeanonIndex {
            spec,
            by_fingerprint,
            records,
        }
    }

    /// The candidate senders matching an observation (deduplicated,
    /// insertion order). A singleton means the observation de-anonymizes
    /// its sender.
    pub fn query(&self, observation: &Observation) -> Vec<AccountId> {
        let fp = observation.fingerprint(self.spec);
        let mut out = Vec::new();
        if let Some(indices) = self.by_fingerprint.get(&fp) {
            // Spam campaigns (MTL/CCK) make single classes huge, so dedup
            // through a seen-set rather than a quadratic `contains` scan.
            let mut seen = HashSet::with_capacity(indices.len());
            for &i in indices {
                let sender = self.records[i as usize].sender;
                if seen.insert(sender) {
                    out.push(sender);
                }
            }
        }
        out
    }

    /// Unrolls the full financial profile of `account` from the indexed
    /// history — everything §V says an attacker gains after linking a
    /// single payment.
    pub fn profile(&self, account: AccountId) -> FinancialProfile {
        let mut payments_sent = 0u64;
        let mut payments_received = 0u64;
        let mut sent_by_currency: HashMap<Currency, Value> = HashMap::new();
        let mut destinations: HashMap<AccountId, u64> = HashMap::new();
        let mut first_seen: Option<RippleTime> = None;
        let mut last_seen: Option<RippleTime> = None;
        for record in self.records.iter() {
            if record.sender == account {
                payments_sent += 1;
                let entry = sent_by_currency
                    .entry(record.currency)
                    .or_insert(Value::ZERO);
                *entry = *entry + record.amount;
                *destinations.entry(record.destination).or_insert(0) += 1;
                first_seen = Some(first_seen.map_or(record.timestamp, |t| t.min(record.timestamp)));
                last_seen = Some(last_seen.map_or(record.timestamp, |t| t.max(record.timestamp)));
            }
            if record.destination == account {
                payments_received += 1;
            }
        }
        let mut sent_by_currency: Vec<(Currency, Value)> = sent_by_currency.into_iter().collect();
        sent_by_currency.sort_by_key(|&(_, total)| std::cmp::Reverse(total));
        let mut top_destinations: Vec<(AccountId, u64)> = destinations.into_iter().collect();
        top_destinations.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top_destinations.truncate(10);

        let monthly_outflow = match (first_seen, last_seen, sent_by_currency.first()) {
            (Some(first), Some(last), Some(&(currency, total))) => {
                let days = ((last.seconds() - first.seconds()) / 86_400).max(30);
                let months = (days as i64 / 30).max(1);
                Some((currency, Value::from_raw(total.raw() / months as i128)))
            }
            _ => None,
        };

        FinancialProfile {
            account,
            payments_sent,
            payments_received,
            sent_by_currency,
            top_destinations,
            first_seen,
            last_seen,
            monthly_outflow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::sha512_half;
    use ripple_ledger::PathSummary;

    fn rec(sender: u8, dest: u8, amount: &str, secs: u64, currency: Currency) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(&[sender, dest, secs as u8]),
            sender: AccountId::from_bytes([sender; 20]),
            destination: AccountId::from_bytes([dest; 20]),
            currency,
            issuer: None,
            amount: amount.parse().unwrap(),
            timestamp: RippleTime::from_seconds(secs),
            ledger_seq: 1,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        }
    }

    fn history() -> Vec<PaymentRecord> {
        vec![
            // Bob(7)'s latte at the bar(9).
            rec(7, 9, "4.5", 1_000, Currency::USD),
            // Bob's other life.
            rec(7, 11, "120", 5_000, Currency::USD),
            rec(7, 9, "4.5", 90_000, Currency::USD),
            rec(7, 12, "0.3", 95_000, Currency::BTC),
            // Unrelated traffic.
            rec(2, 9, "15", 2_000, Currency::USD),
            rec(3, 13, "4.5", 1_000, Currency::USD),
            rec(3, 7, "9", 3_000, Currency::USD),
        ]
    }

    #[test]
    fn latte_observation_identifies_bob() {
        let history = history();
        let index = DeanonIndex::build(history.iter(), ResolutionSpec::full());
        let observation = Observation {
            amount: Some("4.5".parse().unwrap()),
            time: Some(RippleTime::from_seconds(1_000)),
            currency: Some(Currency::USD),
            strength: None,
            destination: Some(AccountId::from_bytes([9; 20])),
        };
        let candidates = index.query(&observation);
        assert_eq!(candidates, vec![AccountId::from_bytes([7; 20])]);
    }

    #[test]
    fn approximate_amount_still_matches_after_rounding() {
        // Alice misheard the price: 4.9 instead of 4.5 — both round to 0
        // at the USD maximum resolution (closest tens).
        let history = history();
        let index = DeanonIndex::build(history.iter(), ResolutionSpec::full());
        let observation = Observation {
            amount: Some("4.9".parse().unwrap()),
            time: Some(RippleTime::from_seconds(1_000)),
            currency: Some(Currency::USD),
            strength: None,
            destination: Some(AccountId::from_bytes([9; 20])),
        };
        assert_eq!(
            index.query(&observation),
            vec![AccountId::from_bytes([7; 20])]
        );
    }

    #[test]
    fn ambiguous_observation_returns_multiple_candidates() {
        let history = history();
        // Drop the destination: (amount 4.5, second 1000, USD) matches both
        // Bob's latte and sender 3's payment.
        let spec = ResolutionSpec {
            destination: false,
            ..ResolutionSpec::full()
        };
        let index = DeanonIndex::build(history.iter(), spec);
        let observation = Observation {
            amount: Some("4.5".parse().unwrap()),
            time: Some(RippleTime::from_seconds(1_000)),
            currency: Some(Currency::USD),
            strength: None,
            destination: None,
        };
        let candidates = index.query(&observation);
        assert_eq!(candidates.len(), 2);
    }

    #[test]
    fn profile_unrolls_financial_life() {
        let history = history();
        let index = DeanonIndex::build(history.iter(), ResolutionSpec::full());
        let bob = AccountId::from_bytes([7; 20]);
        let profile = index.profile(bob);
        assert_eq!(profile.payments_sent, 4);
        assert_eq!(profile.payments_received, 1);
        // Favourite place: the bar, twice.
        assert_eq!(
            profile.top_destinations[0],
            (AccountId::from_bytes([9; 20]), 2)
        );
        // USD dominates his outflow.
        assert_eq!(profile.sent_by_currency[0].0, Currency::USD);
        assert_eq!(
            profile.sent_by_currency[0].1,
            "129".parse::<Value>().unwrap()
        );
        assert_eq!(profile.first_seen, Some(RippleTime::from_seconds(1_000)));
        assert_eq!(profile.last_seen, Some(RippleTime::from_seconds(95_000)));
        assert!(profile.monthly_outflow.is_some());
    }

    #[test]
    fn no_match_returns_empty() {
        let history = history();
        let index = DeanonIndex::build(history.iter(), ResolutionSpec::full());
        let observation = Observation {
            amount: Some("123456".parse().unwrap()),
            time: Some(RippleTime::from_seconds(77)),
            currency: Some(Currency::EUR),
            strength: None,
            destination: Some(AccountId::from_bytes([50; 20])),
        };
        assert!(index.query(&observation).is_empty());
    }

    #[test]
    fn currency_dropped_spec_finds_usd_payment_via_strength_hint() {
        // The <Am; Tsc; -; D> row: currency is excluded from the
        // fingerprint, but amounts are still rounded by the record's true
        // strength group. Bob's 120 USD payment is indexed as
        // round_medium(120) = 120; the old query path rounded the observed
        // amount with an XRP (Weak, 10^5) exponent, producing 0 — a silent
        // false negative. With a Medium strength hint the match survives.
        let history = history();
        let spec = ResolutionSpec {
            currency: false,
            ..ResolutionSpec::full()
        };
        let index = DeanonIndex::build(history.iter(), spec);
        let observation = Observation {
            amount: Some("120".parse().unwrap()),
            time: Some(RippleTime::from_seconds(5_000)),
            currency: None,
            strength: Some(CurrencyStrength::Medium),
            destination: Some(AccountId::from_bytes([11; 20])),
        };
        assert_eq!(
            index.query(&observation),
            vec![AccountId::from_bytes([7; 20])],
            "the USD payment must be found when the attacker knows the money kind"
        );

        // The same observation without the hint falls back to Weak rounding
        // and (correctly, per the documented fallback) misses — showing the
        // hint is what carries the match.
        let hintless = Observation {
            strength: None,
            ..observation
        };
        assert!(index.query(&hintless).is_empty());
    }

    #[test]
    fn observed_currency_overrides_strength_hint() {
        let history = history();
        let index = DeanonIndex::build(history.iter(), ResolutionSpec::full());
        // A wrong hint must not derail rounding when the currency itself
        // was observed.
        let observation = Observation {
            amount: Some("4.5".parse().unwrap()),
            time: Some(RippleTime::from_seconds(1_000)),
            currency: Some(Currency::USD),
            strength: Some(CurrencyStrength::Powerful),
            destination: Some(AccountId::from_bytes([9; 20])),
        };
        assert_eq!(
            index.query(&observation),
            vec![AccountId::from_bytes([7; 20])]
        );
    }

    #[test]
    fn query_dedups_spam_scale_classes_in_order() {
        // One fingerprint class with many repeats from two senders: dedup
        // must preserve first-seen order and stay linear.
        let mut history = Vec::new();
        for i in 0..500 {
            history.push(rec(
                if i % 2 == 0 { 3 } else { 2 },
                9,
                "15",
                2_000,
                Currency::MTL,
            ));
        }
        let index = DeanonIndex::build(history.iter(), ResolutionSpec::full());
        let candidates = index.query(&Observation::of(&history[0]));
        assert_eq!(
            candidates,
            vec![
                AccountId::from_bytes([3; 20]),
                AccountId::from_bytes([2; 20])
            ]
        );
    }

    #[test]
    fn build_shared_reuses_one_arena() {
        let arena: std::sync::Arc<[PaymentRecord]> = history().into();
        let full = DeanonIndex::build_shared(arena.clone(), ResolutionSpec::full());
        let coarse = DeanonIndex::build_shared(
            arena.clone(),
            ResolutionSpec {
                destination: false,
                ..ResolutionSpec::full()
            },
        );
        assert_eq!(full.records.len(), arena.len());
        assert_eq!(coarse.records.len(), arena.len());
        // Three owners: the local arena handle plus the two indexes.
        assert_eq!(std::sync::Arc::strong_count(&arena), 3);
    }
}
