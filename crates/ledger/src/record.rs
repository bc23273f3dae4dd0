//! Payment records — the per-payment metadata the study mines.
//!
//! For each transaction the paper extracts (§V.A): "i) the sender account S
//! that submitted the payment; ii) the amount A delivered; iii) the timestamp
//! T of the transaction […]; iv) the currency C delivered; v) the destination
//! account D that received the payment". The appendix additionally needs the
//! path structure (intermediate hops and parallel paths) of every payment.

use serde::{Deserialize, Serialize};

use crate::amount::Value;
use crate::currency::Currency;
use crate::time::RippleTime;
use ripple_crypto::{AccountId, Digest256};

/// Structure of the paths a payment actually took.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PathSummary {
    /// Each executed path as its sequence of *intermediate* accounts
    /// (sender and destination excluded). A direct payment has one empty
    /// path.
    pub paths: Vec<Vec<AccountId>>,
}

impl PathSummary {
    /// A direct payment (no intermediaries, one path).
    pub fn direct() -> PathSummary {
        PathSummary {
            paths: vec![Vec::new()],
        }
    }

    /// Builds a summary from explicit intermediate-hop lists.
    pub fn from_paths(paths: Vec<Vec<AccountId>>) -> PathSummary {
        PathSummary { paths }
    }

    /// Number of parallel paths the payment was split across (Fig. 6(b)).
    pub fn parallel_paths(&self) -> usize {
        self.paths.len()
    }

    /// Number of intermediate hops, reported as the *maximum* across the
    /// parallel paths (Fig. 6(a) counts hops per payment path; the analytics
    /// layer also offers per-path counting).
    pub fn max_intermediate_hops(&self) -> usize {
        self.paths.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over every intermediate account on every path.
    pub fn intermediaries(&self) -> impl Iterator<Item = &AccountId> {
        self.paths.iter().flatten()
    }

    /// Whether the payment needed at least one intermediary.
    pub fn is_multi_hop(&self) -> bool {
        self.paths.iter().any(|p| !p.is_empty())
    }
}

/// One mined payment: exactly the fields the de-anonymization study uses,
/// plus the path structure the appendix analyses.
///
/// # Examples
///
/// ```
/// use ripple_ledger::{Currency, PathSummary, PaymentRecord, RippleTime};
/// use ripple_crypto::{sha512_half, AccountId};
///
/// let rec = PaymentRecord {
///     tx_hash: sha512_half(b"tx"),
///     sender: AccountId::from_bytes([1; 20]),
///     destination: AccountId::from_bytes([2; 20]),
///     currency: Currency::USD,
///     issuer: Some(AccountId::from_bytes([3; 20])),
///     amount: "4.5".parse().unwrap(),
///     timestamp: RippleTime::from_ymd_hms(2015, 8, 24, 15, 41, 3),
///     ledger_seq: 1000,
///     paths: PathSummary::direct(),
///     cross_currency: false,
///     source_currency: None,
/// };
/// assert!(!rec.paths.is_multi_hop());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaymentRecord {
    /// Hash of the transaction that produced the payment.
    pub tx_hash: Digest256,
    /// The sender account `S` — the field the attack recovers.
    pub sender: AccountId,
    /// The destination account `D`.
    pub destination: AccountId,
    /// The delivered currency `C`.
    pub currency: Currency,
    /// Issuer of the delivered IOU (`None` for native XRP).
    pub issuer: Option<AccountId>,
    /// The delivered amount `A` (in XRP units when `currency` is XRP).
    pub amount: Value,
    /// The timestamp `T`: close time of the sealing ledger page.
    pub timestamp: RippleTime,
    /// Sequence of the sealing ledger page.
    pub ledger_seq: u32,
    /// Executed path structure.
    pub paths: PathSummary,
    /// Whether the payment crossed currencies (needed a Market-Maker
    /// bridge).
    pub cross_currency: bool,
    /// Currency the sender paid with, when it differs from the delivered
    /// one (`None` for same-currency payments).
    pub source_currency: Option<Currency>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    #[test]
    fn direct_summary() {
        let s = PathSummary::direct();
        assert_eq!(s.parallel_paths(), 1);
        assert_eq!(s.max_intermediate_hops(), 0);
        assert!(!s.is_multi_hop());
    }

    #[test]
    fn hop_counting() {
        let s = PathSummary::from_paths(vec![vec![acct(3)], vec![acct(3), acct(4), acct(5)]]);
        assert_eq!(s.parallel_paths(), 2);
        assert_eq!(s.max_intermediate_hops(), 3);
        assert_eq!(s.intermediaries().count(), 4);
        assert!(s.is_multi_hop());
    }
}
