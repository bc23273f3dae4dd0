//! The replay harness behind the paper's Table II.
//!
//! "We started from a stable snapshot […] of the Ripple network. Then, we
//! extracted all payments submitted after the snapshot and successfully
//! delivered […]. So, we remove them [Market Makers] and the exchange orders
//! from the system and replay the extracted payments on the modified trust
//! network. During this simulation we carefully handled the user balances by
//! updating them after each successful payment."

use ripple_ledger::LedgerState;
use serde::{Deserialize, Serialize};

use crate::engine::{PaymentEngine, PaymentRequest};

/// Payment category used in Table II's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplayCategory {
    /// The sender pays in a different currency than is delivered.
    CrossCurrency,
    /// Same currency end to end.
    SingleCurrency,
}

/// Per-category and total delivery statistics (Table II's rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayStats {
    /// Cross-currency payments submitted.
    pub cross_submitted: u64,
    /// Cross-currency payments delivered.
    pub cross_delivered: u64,
    /// Single-currency payments submitted.
    pub single_submitted: u64,
    /// Single-currency payments delivered.
    pub single_delivered: u64,
}

impl ReplayStats {
    /// Total submitted.
    pub fn total_submitted(&self) -> u64 {
        self.cross_submitted + self.single_submitted
    }

    /// Total delivered.
    pub fn total_delivered(&self) -> u64 {
        self.cross_delivered + self.single_delivered
    }

    /// Cross-currency delivery rate in [0, 1].
    fn cross_rate(&self) -> f64 {
        rate(self.cross_delivered, self.cross_submitted)
    }

    /// Single-currency delivery rate in [0, 1].
    pub fn single_rate(&self) -> f64 {
        rate(self.single_delivered, self.single_submitted)
    }

    /// Overall delivery rate in [0, 1].
    pub fn total_rate(&self) -> f64 {
        rate(self.total_delivered(), self.total_submitted())
    }

    /// Renders the stats as the paper's Table II.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>14}\n",
            "Category", "Submitted", "Delivered", "Delivery rate"
        ));
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>13.1}%\n",
            "Cross-currency",
            self.cross_submitted,
            self.cross_delivered,
            self.cross_rate() * 100.0
        ));
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>13.1}%\n",
            "Single-currency",
            self.single_submitted,
            self.single_delivered,
            self.single_rate() * 100.0
        ));
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>13.1}%\n",
            "Total",
            self.total_submitted(),
            self.total_delivered(),
            self.total_rate() * 100.0
        ));
        out
    }
}

fn rate(delivered: u64, submitted: u64) -> f64 {
    if submitted == 0 {
        0.0
    } else {
        delivered as f64 / submitted as f64
    }
}

/// Replays `requests` against `state` (mutating balances after each
/// successful payment, exactly as the paper describes), tallying delivery
/// per category.
pub fn replay(
    state: &mut LedgerState,
    engine: &PaymentEngine,
    requests: &[PaymentRequest],
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for request in requests {
        let cross = request.is_cross_currency();
        if cross {
            stats.cross_submitted += 1;
        } else {
            stats.single_submitted += 1;
        }
        if engine.pay(state, request).is_ok() {
            if cross {
                stats.cross_delivered += 1;
            } else {
                stats.single_delivered += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::AccountId;
    use ripple_ledger::{Currency, Drops, IouAmount, Value};

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    /// Sender 1 pays dest 3 through MM 2; MM also bridges USD->EUR.
    fn snapshot() -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(1_000));
        }
        s.set_trust(acct(2), acct(1), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::EUR, v("1000"))
            .unwrap();
        s.place_offer(
            acct(2),
            1,
            IouAmount::new(v("100"), Currency::EUR, acct(2)).into(),
            IouAmount::new(v("110"), Currency::USD, acct(2)).into(),
        )
        .unwrap();
        s
    }

    fn single(amount: &str) -> PaymentRequest {
        PaymentRequest {
            sender: acct(1),
            destination: acct(3),
            currency: Currency::USD,
            amount: v(amount),
            source_currency: None,
            send_max: None,
        }
    }

    fn cross(amount: &str) -> PaymentRequest {
        PaymentRequest {
            sender: acct(1),
            destination: acct(3),
            currency: Currency::EUR,
            amount: v(amount),
            source_currency: Some(Currency::USD),
            send_max: None,
        }
    }

    #[test]
    fn full_network_delivers_everything() {
        let mut state = snapshot();
        let stats = replay(
            &mut state,
            &PaymentEngine::new(),
            &[single("10"), single("20"), cross("5")],
        );
        assert_eq!(stats.total_submitted(), 3);
        assert_eq!(stats.total_delivered(), 3);
        assert_eq!(stats.cross_rate(), 1.0);
    }

    #[test]
    fn stripped_offers_kill_cross_currency() {
        let mut state = snapshot();
        state.strip_all_offers();
        let stats = replay(
            &mut state,
            &PaymentEngine::new(),
            &[cross("5"), cross("5"), single("10")],
        );
        assert_eq!(stats.cross_delivered, 0);
        assert_eq!(stats.single_delivered, 1);
        assert!((stats.total_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn balances_update_between_replayed_payments() {
        let mut state = snapshot();
        // Capacity 1->2 is 1000; two payments of 600 cannot both fit.
        let stats = replay(
            &mut state,
            &PaymentEngine::new(),
            &[single("600"), single("600")],
        );
        assert_eq!(stats.single_submitted, 2);
        assert_eq!(
            stats.single_delivered, 1,
            "second must fail on spent capacity"
        );
    }

    #[test]
    fn table_formatting_includes_rates() {
        let stats = ReplayStats {
            cross_submitted: 1_185_521,
            cross_delivered: 0,
            single_submitted: 538_169,
            single_delivered: 194_300,
        };
        let table = stats.to_table();
        assert!(table.contains("Cross-currency"));
        assert!(table.contains("0.0%"));
        assert!(table.contains("36.1%"));
        assert!(table.contains("11.3%") || table.contains("11.2%"));
    }
}
