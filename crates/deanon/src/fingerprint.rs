//! Feature extraction: `⟨A_res, T_res, C_res, D_res⟩`.

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, PaymentRecord};
use serde::{Deserialize, Serialize};

use crate::resolution::{AmountResolution, TimeResolution};

/// Which fields enter the fingerprint, and at what resolution.
///
/// `None` on amount/time (or `false` on currency/destination) excludes the
/// field entirely — the paper's `−` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ResolutionSpec {
    /// Amount resolution, or `None` to drop `A`.
    pub amount: Option<AmountResolution>,
    /// Timestamp resolution, or `None` to drop `T`.
    pub time: Option<TimeResolution>,
    /// Include the delivered currency `C`?
    pub currency: bool,
    /// Include the destination `D`?
    pub destination: bool,
}

impl ResolutionSpec {
    /// The strongest attacker: `⟨A_m, T_sc, C, D⟩`.
    pub fn full() -> ResolutionSpec {
        ResolutionSpec {
            amount: Some(AmountResolution::Maximum),
            time: Some(TimeResolution::Seconds),
            currency: true,
            destination: true,
        }
    }

    /// The paper's Figure 3 feature lists, in row order, with their
    /// notation labels.
    pub fn figure3_rows() -> Vec<(&'static str, ResolutionSpec)> {
        use AmountResolution as A;
        use TimeResolution as T;
        let spec = |amount: Option<A>, time: Option<T>, currency: bool, destination: bool| {
            ResolutionSpec {
                amount,
                time,
                currency,
                destination,
            }
        };
        vec![
            (
                "<Am; Tsc; C; D>",
                spec(Some(A::Maximum), Some(T::Seconds), true, true),
            ),
            (
                "<Am; Tsc; -; D>",
                spec(Some(A::Maximum), Some(T::Seconds), false, true),
            ),
            (
                "<Am; Tsc; C; ->",
                spec(Some(A::Maximum), Some(T::Seconds), true, false),
            ),
            ("<- ; Tsc; C; D>", spec(None, Some(T::Seconds), true, true)),
            (
                "<Ah; Tmn; C; D>",
                spec(Some(A::High), Some(T::Minutes), true, true),
            ),
            (
                "<Aa; Thr; C; D>",
                spec(Some(A::Average), Some(T::Hours), true, true),
            ),
            (
                "<Al; Tdy; C; D>",
                spec(Some(A::Low), Some(T::Days), true, true),
            ),
            ("<Am; - ; C; D>", spec(Some(A::Maximum), None, true, true)),
            ("<Am; - ; -; ->", spec(Some(A::Maximum), None, false, false)),
            (
                "<Al; Tdy; -; ->",
                spec(Some(A::Low), Some(T::Days), false, false),
            ),
        ]
    }
}

/// A fingerprint: the coarsened feature tuple. Hashable and comparable, so
/// it can key the attack index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Rounded amount (raw micro-units), if included.
    pub amount: Option<i128>,
    /// Coarsened timestamp (seconds), if included.
    pub time: Option<u64>,
    /// Currency, if included.
    pub currency: Option<Currency>,
    /// Destination, if included.
    pub destination: Option<AccountId>,
}

impl Fingerprint {
    /// Extracts the fingerprint of a payment under `spec`.
    ///
    /// Note: amount rounding depends on the currency's strength group even
    /// when the currency itself is excluded from the fingerprint — the
    /// attacker knows roughly what was paid, in what kind of money, without
    /// keying on the exact code.
    pub fn of(record: &PaymentRecord, spec: ResolutionSpec) -> Fingerprint {
        Fingerprint {
            amount: spec
                .amount
                .map(|res| res.round(record.currency, record.amount).raw()),
            time: spec.time.map(|res| res.coarsen(record.timestamp).seconds()),
            currency: spec.currency.then_some(record.currency),
            destination: spec.destination.then_some(record.destination),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{PathSummary, RippleTime, Value};

    fn rec(amount: &str, secs: u64, currency: Currency, dest: u8) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(&secs.to_be_bytes()),
            sender: AccountId::from_bytes([1; 20]),
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

    #[test]
    fn figure3_has_ten_rows() {
        let rows = ResolutionSpec::figure3_rows();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, "<Am; Tsc; C; D>");
        assert_eq!(rows[9].0, "<Al; Tdy; -; ->");
    }

    #[test]
    fn full_spec_keeps_all_fields() {
        let r = rec("123", 1000, Currency::USD, 5);
        let fp = Fingerprint::of(&r, ResolutionSpec::full());
        assert!(fp.amount.is_some());
        assert!(fp.time.is_some());
        assert_eq!(fp.currency, Some(Currency::USD));
        assert!(fp.destination.is_some());
    }

    #[test]
    fn dropped_fields_are_none() {
        let r = rec("123", 1000, Currency::USD, 5);
        let spec = ResolutionSpec {
            amount: None,
            time: None,
            currency: false,
            destination: false,
        };
        let fp = Fingerprint::of(&r, spec);
        assert_eq!(
            fp,
            Fingerprint {
                amount: None,
                time: None,
                currency: None,
                destination: None
            }
        );
    }

    #[test]
    fn nearby_amounts_collide_after_rounding() {
        // 44 and 46 USD both round to 40/50 boundary? 44 -> 40, 46 -> 50.
        let spec = ResolutionSpec::full();
        let a = Fingerprint::of(&rec("44", 1000, Currency::USD, 5), spec);
        let b = Fingerprint::of(&rec("43", 1000, Currency::USD, 5), spec);
        assert_eq!(a.amount, b.amount, "both round to 40");
        let c = Fingerprint::of(&rec("46", 1000, Currency::USD, 5), spec);
        assert_ne!(a.amount, c.amount, "46 rounds to 50");
    }

    #[test]
    fn coarser_time_merges_same_minute() {
        let spec = ResolutionSpec {
            time: Some(TimeResolution::Minutes),
            ..ResolutionSpec::full()
        };
        let a = Fingerprint::of(&rec("100", 60, Currency::USD, 5), spec);
        let b = Fingerprint::of(&rec("100", 119, Currency::USD, 5), spec);
        assert_eq!(a, b);
    }

    #[test]
    fn rounding_uses_strength_even_without_currency_field() {
        let spec = ResolutionSpec {
            currency: false,
            ..ResolutionSpec::full()
        };
        // 4.5 USD (medium group) rounds to 0 at max resolution.
        let fp = Fingerprint::of(&rec("4.5", 0, Currency::USD, 5), spec);
        assert_eq!(fp.amount, Some(0));
        // 4.5 BTC (powerful group) keeps its value.
        let fp = Fingerprint::of(&rec("4.5", 0, Currency::BTC, 5), spec);
        assert_eq!(fp.amount, Some(Value::from_f64(4.5).raw()));
    }
}
