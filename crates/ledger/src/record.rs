//! Payment records — the per-payment metadata the study mines.
//!
//! For each transaction the paper extracts (§V.A): "i) the sender account S
//! that submitted the payment; ii) the amount A delivered; iii) the timestamp
//! T of the transaction […]; iv) the currency C delivered; v) the destination
//! account D that received the payment". The appendix additionally needs the
//! path structure (intermediate hops and parallel paths) of every payment.

use std::fmt;
use std::sync::{Arc, LazyLock};

use serde::{Deserialize, Serialize};

use crate::amount::Value;
use crate::currency::Currency;
use crate::time::RippleTime;
use ripple_crypto::{AccountId, Digest256};

/// Header words (`u32`, big-endian) packed into one table slot.
const WORDS_PER_SLOT: usize = 20 / 4;

/// The one table every direct payment shares: one empty path.
static DIRECT: LazyLock<Arc<[AccountId]>> =
    LazyLock::new(|| build_table(std::iter::once(std::iter::empty())));

/// Structure of the paths a payment actually took: each executed path as
/// its sequence of *intermediate* accounts (sender and destination
/// excluded). A direct payment has one empty path.
///
/// The paths are one immutable, reference-counted table, so cloning a
/// summary — and so a [`PaymentRecord`] — copies no hop. The table's
/// leading slots are a header of `u32` words packed five to a slot: the
/// path count, then each path's end offset into the hops. The hops of every
/// path follow, in path order. A payment with intermediaries costs one
/// allocation; a direct payment (and [`Default`]) shares one static table.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSummary {
    table: Arc<[AccountId]>,
}

/// Lays out `paths` as one table in one allocation: the range-driven
/// iterator has an exact length, so the `Arc` is filled in place.
fn build_table<P: ExactSizeIterator<Item = AccountId>>(
    paths: impl Iterator<Item = P> + Clone,
) -> Arc<[AccountId]> {
    let count = paths.clone().count();
    let hops: usize = paths.clone().map(|p| p.len()).sum();
    let header = count / WORDS_PER_SLOT + 1;
    let ends = paths.clone().scan(0usize, |end, p| {
        *end += p.len();
        Some(*end as u32)
    });
    let mut words = std::iter::once(count as u32).chain(ends);
    let mut flat = paths.flatten();
    (0..header + hops)
        .map(|slot| {
            if slot < header {
                let mut bytes = [0u8; 20];
                for (chunk, word) in bytes.chunks_exact_mut(4).zip(&mut words) {
                    chunk.copy_from_slice(&word.to_be_bytes());
                }
                AccountId::from_bytes(bytes)
            } else {
                flat.next().unwrap_or(AccountId::ZERO)
            }
        })
        .collect()
}

impl PathSummary {
    /// A direct payment (no intermediaries, one path).
    pub fn direct() -> PathSummary {
        PathSummary {
            table: Arc::clone(&DIRECT),
        }
    }

    /// Writes the summary of `paths`, each yielding its intermediate
    /// accounts, once: one allocation, none for a direct payment.
    pub fn from_path_iters<P: ExactSizeIterator<Item = AccountId>>(
        paths: impl Iterator<Item = P> + Clone,
    ) -> PathSummary {
        let mut shape = paths.clone();
        let direct = matches!((shape.next(), shape.next()), (Some(p), None) if p.len() == 0);
        if direct {
            return PathSummary::direct();
        }
        PathSummary {
            table: build_table(paths),
        }
    }

    /// Builds a summary from explicit intermediate-hop lists.
    pub fn from_paths<P: AsRef<[AccountId]>>(paths: impl AsRef<[P]>) -> PathSummary {
        PathSummary::from_path_iters(paths.as_ref().iter().map(|p| p.as_ref().iter().copied()))
    }

    /// Header word `k`: the path count at 0, path `i`'s end at `i + 1`.
    fn word(&self, k: usize) -> usize {
        let bytes = self.table[k / WORDS_PER_SLOT].as_bytes();
        let at = k % WORDS_PER_SLOT * 4;
        u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize
    }

    /// Every path's hops, back to back.
    fn hops(&self) -> &[AccountId] {
        &self.table[self.parallel_paths() / WORDS_PER_SLOT + 1..]
    }

    /// Each executed path as its intermediate accounts, in order.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &[AccountId]> + '_ {
        let hops = self.hops();
        (0..self.parallel_paths()).map(move |i| {
            let start = if i == 0 { 0 } else { self.word(i) };
            &hops[start..self.word(i + 1)]
        })
    }

    /// Number of parallel paths the payment was split across (Fig. 6(b)).
    pub fn parallel_paths(&self) -> usize {
        self.word(0)
    }

    /// Number of intermediate hops, reported as the *maximum* across the
    /// parallel paths ([`PathSummary::hop_counts`] gives one per path).
    pub fn max_intermediate_hops(&self) -> usize {
        self.paths().map(<[AccountId]>::len).max().unwrap_or(0)
    }

    /// Fig. 6(a)'s samples: the hop count of every path that has
    /// intermediaries, in path order. A direct payment yields none.
    pub fn hop_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.paths().map(<[AccountId]>::len).filter(|&n| n > 0)
    }

    /// Iterates over every intermediate account on every path.
    pub fn intermediaries(&self) -> impl Iterator<Item = &AccountId> {
        self.hops().iter()
    }

    /// Whether the payment needed at least one intermediary.
    pub fn is_multi_hop(&self) -> bool {
        !self.hops().is_empty()
    }
}

impl Default for PathSummary {
    /// A direct payment.
    fn default() -> PathSummary {
        PathSummary::direct()
    }
}

impl fmt::Debug for PathSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let paths: Vec<&[AccountId]> = self.paths().collect();
        f.debug_struct("PathSummary")
            .field("paths", &paths)
            .finish()
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
        assert_eq!(s.hop_counts().collect::<Vec<_>>(), [1, 3]);
    }

    #[test]
    fn records_do_not_grow() {
        assert!(std::mem::size_of::<PathSummary>() <= 16);
        assert!(std::mem::size_of::<PaymentRecord>() <= 160);
    }

    #[test]
    fn direct_summaries_share_one_table() {
        let a = PathSummary::direct();
        for b in [
            PathSummary::direct(),
            PathSummary::default(),
            PathSummary::from_paths(vec![Vec::new()]),
        ] {
            assert!(Arc::ptr_eq(&a.table, &b.table));
        }
    }

    #[test]
    fn a_clone_shares_its_table() {
        let s = PathSummary::from_paths(vec![vec![acct(3), acct(4)], vec![acct(5)]]);
        assert!(Arc::ptr_eq(&s.table, &s.clone().table));
    }

    proptest::proptest! {
        /// The table answers every query as the hop lists it was built
        /// from, across header-slot boundaries (0, 4, 5, 9, 10+ paths)
        /// and with empty paths among non-empty ones.
        #[test]
        fn table_matches_its_hop_lists(
            lens in proptest::collection::vec(0usize..6, 0..13),
            seed in proptest::prelude::any::<u8>(),
        ) {
            let mut next = seed;
            let paths: Vec<Vec<_>> = lens
                .iter()
                .map(|&len| {
                    (0..len)
                        .map(|_| {
                            next = next.wrapping_add(1);
                            acct(next)
                        })
                        .collect()
                })
                .collect();
            let s = PathSummary::from_paths(&paths);
            proptest::prop_assert!(s.paths().eq(paths.iter().map(Vec::as_slice)));
            proptest::prop_assert_eq!(s.paths().len(), paths.len());
            proptest::prop_assert_eq!(s.parallel_paths(), paths.len());
            proptest::prop_assert_eq!(
                s.max_intermediate_hops(),
                paths.iter().map(Vec::len).max().unwrap_or(0)
            );
            proptest::prop_assert!(s.intermediaries().eq(paths.iter().flatten()));
            proptest::prop_assert_eq!(s.is_multi_hop(), paths.iter().any(|p| !p.is_empty()));
            proptest::prop_assert!(s
                .hop_counts()
                .eq(paths.iter().map(Vec::len).filter(|&n| n > 0)));
            proptest::prop_assert_eq!(
                format!("{s:?}"),
                format!("PathSummary {{ paths: {paths:?} }}")
            );
            proptest::prop_assert_eq!(&s, &PathSummary::from_paths(paths));
        }
    }
}
