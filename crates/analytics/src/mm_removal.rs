//! Table II: replaying a payment window with Market Makers removed.
//!
//! The experiment, per the paper: take a stable snapshot of the network,
//! extract the payments submitted (and originally delivered) after it,
//! remove the Market Makers and all exchange offers, and replay the
//! payments on the modified trust network with live balance updates.

use ripple_crypto::AccountId;
use ripple_ledger::{LedgerState, PaymentRecord};
use ripple_paths::{replay, PaymentEngine, PaymentRequest, ReplayStats};
use serde::{Deserialize, Serialize};

/// Outcome of the Market-Maker removal replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MmRemovalReport {
    /// Offers stripped from the snapshot.
    pub offers_stripped: usize,
    /// Market-Maker accounts severed.
    pub makers_severed: usize,
    /// The replay statistics (Table II's cells).
    pub stats: ReplayStats,
}

/// Converts a recorded payment back into a replayable request.
pub fn request_from_record(record: &PaymentRecord) -> PaymentRequest {
    PaymentRequest {
        sender: record.sender,
        destination: record.destination,
        currency: record.currency,
        amount: record.amount,
        source_currency: record.source_currency,
        send_max: None,
    }
}

/// Runs the Table II experiment: severs `market_makers` from a clone of
/// `snapshot`, strips every resting offer, and replays `window` on the
/// modified trust network.
pub fn mm_removal_replay<'a>(
    snapshot: &LedgerState,
    market_makers: &[AccountId],
    window: impl Iterator<Item = &'a PaymentRecord>,
) -> MmRemovalReport {
    let mut state = snapshot.clone();
    let offers_stripped = state.strip_all_offers();
    state.sever_accounts(market_makers);
    let requests: Vec<PaymentRequest> = window.map(request_from_record).collect();
    let stats = replay(&mut state, &PaymentEngine::new(), &requests);
    MmRemovalReport {
        offers_stripped,
        makers_severed: market_makers.len(),
        stats,
    }
}

/// Replays the same window on the *unmodified* snapshot — the control run
/// showing the network delivered these payments before the removal.
pub fn control_replay<'a>(
    snapshot: &LedgerState,
    window: impl Iterator<Item = &'a PaymentRecord>,
) -> ReplayStats {
    let mut state = snapshot.clone();
    let requests: Vec<PaymentRequest> = window.map(request_from_record).collect();
    replay(&mut state, &PaymentEngine::new(), &requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{Currency, Drops, IouAmount, PathSummary, RippleTime, Value};

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    /// Sender 1, dest 4. Community gateway 2 reaches dest directly; MM 3
    /// bridges USD->EUR and also glues a second USD route.
    fn snapshot() -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=4 {
            s.create_account(acct(i), Drops::from_xrp(1_000));
        }
        // Deposits: gateway 2 owes sender 1.
        s.set_trust(acct(1), acct(2), Currency::USD, v("1000"))
            .unwrap();
        s.ripple_hop(acct(2), acct(1), Currency::USD, v("500"))
            .unwrap();
        // Dest trusts the gateway (same community).
        s.set_trust(acct(4), acct(2), Currency::USD, v("1000"))
            .unwrap();
        // Dest accepts MM's EUR.
        s.set_trust(acct(4), acct(3), Currency::EUR, v("1000"))
            .unwrap();
        // MM trusts the gateway (can receive the sender's USD).
        s.set_trust(acct(3), acct(2), Currency::USD, v("1000"))
            .unwrap();
        // MM sells EUR for USD.
        s.place_offer(
            acct(3),
            1,
            IouAmount::new(v("300"), Currency::EUR, acct(3)).into(),
            IouAmount::new(v("330"), Currency::USD, acct(3)).into(),
        )
        .unwrap();
        s
    }

    fn payment(currency: Currency, amount: &str, source: Option<Currency>) -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(amount.as_bytes()),
            sender: acct(1),
            destination: acct(4),
            currency,
            issuer: None,
            amount: v(amount),
            timestamp: RippleTime::EPOCH,
            ledger_seq: 1,
            paths: PathSummary::from_paths(vec![vec![acct(2)]]),
            cross_currency: source.is_some(),
            source_currency: source,
        }
    }

    #[test]
    fn control_replay_delivers() {
        let window = [
            payment(Currency::USD, "10", None),
            payment(Currency::EUR, "5", Some(Currency::USD)),
        ];
        let stats = control_replay(&snapshot(), window.iter());
        assert_eq!(stats.total_delivered(), 2);
    }

    #[test]
    fn removal_kills_cross_currency_entirely() {
        let window = [
            payment(Currency::EUR, "5", Some(Currency::USD)),
            payment(Currency::EUR, "7", Some(Currency::USD)),
        ];
        let report = mm_removal_replay(&snapshot(), &[acct(3)], window.iter());
        assert_eq!(report.stats.cross_submitted, 2);
        assert_eq!(report.stats.cross_delivered, 0);
        assert_eq!(report.offers_stripped, 1);
        assert_eq!(report.makers_severed, 1);
    }

    #[test]
    fn same_community_single_currency_survives() {
        let window = [payment(Currency::USD, "10", None)];
        let report = mm_removal_replay(&snapshot(), &[acct(3)], window.iter());
        assert_eq!(report.stats.single_delivered, 1);
    }

    #[test]
    fn mm_routed_single_currency_dies() {
        // A second destination only reachable through the MM.
        let mut s = snapshot();
        s.create_account(acct(5), Drops::from_xrp(1_000));
        s.set_trust(acct(5), acct(3), Currency::USD, v("1000"))
            .unwrap();
        let record = PaymentRecord {
            destination: acct(5),
            ..payment(Currency::USD, "10", None)
        };
        // Control: deliverable via 1 -> 2 -> 3 -> 5.
        let control = control_replay(&s, [record.clone()].iter());
        assert_eq!(control.single_delivered, 1);
        // With the MM severed the route is gone.
        let report = mm_removal_replay(&s, &[acct(3)], [record].iter());
        assert_eq!(report.stats.single_delivered, 0);
    }

    #[test]
    fn report_shape_matches_table2() {
        let window = [
            payment(Currency::EUR, "5", Some(Currency::USD)),
            payment(Currency::USD, "10", None),
            payment(Currency::USD, "9999", None), // exceeds capacity: fails
        ];
        let report = mm_removal_replay(&snapshot(), &[acct(3)], window.iter());
        let table = report.stats.to_table();
        assert!(table.contains("Cross-currency"));
        assert!(table.contains("Single-currency"));
        assert!(table.contains("Total"));
        assert!(report.stats.total_rate() < 1.0);
    }
}
