//! The information-gain metric (Fig. 3).
//!
//! The paper's Figure 3 caption defines the plotted quantity as the
//! "percentage of Ripple payments producing a **unique fingerprint**": a
//! payment counts only if *no other payment in the history* shares its
//! coarsened `⟨A, T, C, D⟩` tuple. That strict reading is implemented by
//! [`information_gain`].
//!
//! A weaker — attacker-friendlier — reading also appears in §V's prose
//! ("the percentage of Ripple transactions whose sender address field S can
//! be uniquely identified"): a fingerprint shared only by payments of the
//! *same sender* still de-anonymizes that sender. That variant is
//! [`sender_information_gain`]; it upper-bounds the strict metric.

use std::collections::HashMap;

use ripple_crypto::FxHashMap;
use ripple_ledger::PaymentRecord;
use serde::{Deserialize, Serialize};

use crate::fingerprint::{Fingerprint, ResolutionSpec};

/// Result of an information-gain computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IgResult {
    /// Payments counted as de-anonymized.
    pub unique: u64,
    /// Total payments considered.
    pub total: u64,
}

impl IgResult {
    /// The IG as a fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.unique as f64 / self.total as f64
        }
    }

    /// The IG as a percentage.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

/// Strict Figure 3 metric: the fraction of payments whose fingerprint is
/// shared by **no other payment**.
///
/// # Examples
///
/// ```
/// use ripple_deanon::{information_gain, ResolutionSpec};
///
/// let ig = information_gain(std::iter::empty(), ResolutionSpec::full());
/// assert_eq!(ig.total, 0);
/// ```
pub fn information_gain<'a>(
    records: impl Iterator<Item = &'a PaymentRecord>,
    spec: ResolutionSpec,
) -> IgResult {
    let mut classes: FxHashMap<Fingerprint, u64> = FxHashMap::default();
    let mut total = 0u64;
    for record in records {
        total += 1;
        *classes.entry(Fingerprint::of(record, spec)).or_insert(0) += 1;
    }
    let unique = classes.values().filter(|&&count| count == 1).count() as u64;
    IgResult { unique, total }
}

/// Attack-oriented metric: the fraction of payments whose fingerprint class
/// contains a **single sender** (repeats by the same account still
/// de-anonymize it). Always ≥ [`information_gain`].
pub fn sender_information_gain<'a>(
    records: impl Iterator<Item = &'a PaymentRecord>,
    spec: ResolutionSpec,
) -> IgResult {
    let mut classes: HashMap<Fingerprint, (ripple_crypto::AccountId, u64, bool)> = HashMap::new();
    let mut total = 0u64;
    for record in records {
        total += 1;
        let fp = Fingerprint::of(record, spec);
        match classes.get_mut(&fp) {
            None => {
                classes.insert(fp, (record.sender, 1, false));
            }
            Some((sender, count, mixed)) => {
                *count += 1;
                if *sender != record.sender {
                    *mixed = true;
                }
            }
        }
    }
    let unique: u64 = classes
        .values()
        .filter(|(_, _, mixed)| !mixed)
        .map(|(_, count, _)| count)
        .sum();
    IgResult { unique, total }
}

/// Computes the strict IG of every Figure 3 row over the same history,
/// returning `(label, result)` pairs in the paper's row order.
///
/// At paper scale (23M payments) this is the pipeline's hottest analysis,
/// so it delegates to the sharded single-pass engine
/// ([`crate::engine::figure3_sweep`]): one scan of the history covers all
/// ten rows, with the coarsening ladder memoized per record. Use the engine
/// directly for the sender metric and throughput telemetry.
pub fn figure3(records: &[&PaymentRecord]) -> Vec<(&'static str, IgResult)> {
    crate::engine::figure3_sweep(records, crate::engine::EngineConfig::default())
        .rows
        .into_iter()
        .map(|row| (row.label, row.strict))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolution::{AmountResolution, TimeResolution};
    use ripple_crypto::{sha512_half, AccountId};
    use ripple_ledger::{Currency, PathSummary, RippleTime};

    fn rec(sender: u8, amount: &str, secs: u64, dest: u8) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(&[sender, dest]),
            sender: AccountId::from_bytes([sender; 20]),
            destination: AccountId::from_bytes([dest; 20]),
            currency: Currency::USD,
            issuer: None,
            amount: amount.parse().unwrap(),
            timestamp: RippleTime::from_seconds(secs),
            ledger_seq: 1,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        }
    }

    #[test]
    fn distinct_fingerprints_are_unique() {
        let records = [
            rec(1, "100", 10, 5),
            rec(2, "200", 20, 6),
            rec(3, "300", 30, 7),
        ];
        let ig = information_gain(records.iter(), ResolutionSpec::full());
        assert_eq!(ig.unique, 3);
        assert_eq!(ig.percent(), 100.0);
    }

    #[test]
    fn any_fingerprint_collision_kills_strict_uniqueness() {
        // Same rounded amount, same second, same destination — regardless
        // of sender.
        let cross_sender = [rec(1, "100", 10, 5), rec(2, "100", 10, 5)];
        let ig = information_gain(cross_sender.iter(), ResolutionSpec::full());
        assert_eq!(ig.unique, 0);
        let same_sender = [rec(1, "100", 10, 5), rec(1, "100", 10, 5)];
        let ig = information_gain(same_sender.iter(), ResolutionSpec::full());
        assert_eq!(ig.unique, 0, "strict metric ignores sender identity");
    }

    #[test]
    fn sender_metric_forgives_same_sender_repeats() {
        let same_sender = [rec(1, "100", 10, 5), rec(1, "100", 10, 5)];
        let ig = sender_information_gain(same_sender.iter(), ResolutionSpec::full());
        assert_eq!(ig.unique, 2, "one account repeating is still identified");
        let mixed = [rec(1, "100", 10, 5), rec(2, "100", 10, 5)];
        let ig = sender_information_gain(mixed.iter(), ResolutionSpec::full());
        assert_eq!(ig.unique, 0);
    }

    #[test]
    fn sender_metric_dominates_strict_metric() {
        let records = [
            rec(1, "100", 10, 5),
            rec(1, "100", 10, 5),
            rec(2, "200", 20, 5),
            rec(3, "200", 20, 5),
            rec(4, "300", 30, 5),
        ];
        for (_, spec) in ResolutionSpec::figure3_rows() {
            let strict = information_gain(records.iter(), spec).fraction();
            let sender = sender_information_gain(records.iter(), spec).fraction();
            assert!(sender >= strict, "sender IG must dominate strict IG");
        }
    }

    #[test]
    fn coarsening_time_merges_and_reduces_ig() {
        let records = [rec(1, "100", 60, 5), rec(2, "100", 65, 5)];
        let fine = information_gain(records.iter(), ResolutionSpec::full());
        assert_eq!(fine.unique, 2);
        let coarse_spec = ResolutionSpec {
            time: Some(TimeResolution::Minutes),
            ..ResolutionSpec::full()
        };
        let coarse = information_gain(records.iter(), coarse_spec);
        assert_eq!(coarse.unique, 0);
    }

    #[test]
    fn dropping_fields_reduces_ig() {
        let records = [rec(1, "100", 10, 5), rec(2, "100", 20, 5)];
        let full = information_gain(records.iter(), ResolutionSpec::full());
        assert_eq!(full.unique, 2);
        let no_time = ResolutionSpec {
            time: None,
            ..ResolutionSpec::full()
        };
        let ig = information_gain(records.iter(), no_time);
        assert_eq!(ig.unique, 0);
    }

    #[test]
    fn amount_resolution_ladder_is_monotone() {
        let records: Vec<PaymentRecord> = (0..40u8)
            .map(|i| rec(i, &format!("{}", 100 + i as u32 * 7), 0, 1))
            .collect();
        let mut prev = f64::INFINITY;
        for res in AmountResolution::all() {
            let spec = ResolutionSpec {
                amount: Some(res),
                time: None,
                currency: true,
                destination: true,
            };
            let ig = information_gain(records.iter(), spec).fraction();
            assert!(ig <= prev + 1e-12, "coarser must not increase IG");
            prev = ig;
        }
    }

    #[test]
    fn figure3_rows_ordering_sanity() {
        let mut records = Vec::new();
        for i in 0..30u8 {
            records.push(rec(i, "40", (i as u64) * 100, 1));
            records.push(rec(i, &format!("{}", 50 + i as u32), i as u64 * 100 + 7, 2));
        }
        let refs: Vec<&PaymentRecord> = records.iter().collect();
        let rows = figure3(&refs);
        assert_eq!(rows.len(), 10);
        let get = |label: &str| {
            rows.iter()
                .find(|(l, _)| *l == label)
                .map(|(_, ig)| ig.fraction())
                .unwrap()
        };
        assert!(get("<Am; Tsc; C; D>") >= get("<Al; Tdy; C; D>"));
        assert!(get("<Al; Tdy; C; D>") >= get("<Al; Tdy; -; ->"));
    }

    #[test]
    fn empty_history_has_zero_ig() {
        let ig = information_gain(std::iter::empty(), ResolutionSpec::full());
        assert_eq!(ig.fraction(), 0.0);
        assert_eq!(ig.percent(), 0.0);
    }
}
