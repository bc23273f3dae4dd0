//! Transactions: the signed instructions that modify the ledger.

use serde::{Deserialize, Serialize};

use crate::amount::{Amount, Drops, Value};
use crate::currency::Currency;
use ripple_crypto::{AccountId, PublicKey, SimKeypair, SimSignature};

/// The operation a [`Transaction`] performs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxKind {
    /// Deliver an amount to a destination, optionally along explicit paths
    /// (each path lists *intermediate* accounts only).
    Payment {
        /// Receiving account.
        destination: AccountId,
        /// Amount to deliver.
        amount: Amount,
        /// Cap on what the sender is willing to spend (cross-currency).
        send_max: Option<Amount>,
        /// Candidate paths of intermediate hops.
        paths: Vec<Vec<AccountId>>,
    },
    /// Declare trust towards `trustee` for up to `limit` of `currency`.
    TrustSet {
        /// The account being trusted.
        trustee: AccountId,
        /// The trusted currency.
        currency: Currency,
        /// Maximum IOU exposure the sender accepts.
        limit: Value,
    },
    /// Place a currency-exchange offer: sell `taker_gets`, buy `taker_pays`.
    OfferCreate {
        /// What the offer owner gives (what a taker gets).
        taker_gets: Amount,
        /// What the offer owner wants (what a taker pays).
        taker_pays: Amount,
    },
    /// Withdraw a previously placed offer by its sequence number.
    OfferCancel {
        /// Sequence number of the `OfferCreate` being cancelled.
        offer_seq: u32,
    },
    /// Adjust account flags (modelled but not interpreted by the study).
    AccountSet {
        /// Raw flags word.
        flags: u32,
    },
}

impl TxKind {
    /// Short label used in reports and the store codec.
    pub fn label(&self) -> &'static str {
        match self {
            TxKind::Payment { .. } => "Payment",
            TxKind::TrustSet { .. } => "TrustSet",
            TxKind::OfferCreate { .. } => "OfferCreate",
            TxKind::OfferCancel { .. } => "OfferCancel",
            TxKind::AccountSet { .. } => "AccountSet",
        }
    }
}

/// A signed ledger transaction.
///
/// # Examples
///
/// ```
/// use ripple_ledger::{Drops, Transaction, TxKind};
/// use ripple_crypto::{AccountId, SimKeypair};
///
/// let keys = SimKeypair::from_seed(b"alice");
/// let alice = AccountId::from_public_key(&keys.public_key());
/// let tx = Transaction::build(
///     alice,
///     1,
///     Drops::new(10),
///     TxKind::Payment {
///         destination: AccountId::from_bytes([9; 20]),
///         amount: Drops::from_xrp(5).into(),
///         send_max: None,
///         paths: Vec::new(),
///     },
/// )
/// .signed(&keys);
/// assert_eq!(tx.signing_key, keys.public_key());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// The account submitting (and paying for) the transaction.
    pub account: AccountId,
    /// Per-account sequence number; must match the account root.
    pub sequence: u32,
    /// XRP fee burned on application.
    pub fee: Drops,
    /// The operation.
    pub kind: TxKind,
    /// Key the transaction claims to be signed with.
    pub signing_key: PublicKey,
    /// Simulated signature over the canonical bytes.
    pub signature: SimSignature,
}

/// A transaction under construction (no signature yet).
#[derive(Debug, Clone)]
pub struct TxBuilder {
    account: AccountId,
    sequence: u32,
    fee: Drops,
    kind: TxKind,
}

impl Transaction {
    /// Starts building a transaction; finish with [`TxBuilder::signed`].
    pub fn build(account: AccountId, sequence: u32, fee: Drops, kind: TxKind) -> TxBuilder {
        TxBuilder {
            account,
            sequence,
            fee,
            kind,
        }
    }

    /// Canonical byte serialization used for hashing and signing.
    ///
    /// The encoding is deterministic: fixed field order, big-endian integers,
    /// length-prefixed variable parts.
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"TXN0");
        out.extend_from_slice(self.account.as_bytes());
        out.extend_from_slice(&self.sequence.to_be_bytes());
        out.extend_from_slice(&self.fee.as_drops().to_be_bytes());
        encode_kind(&self.kind, &mut out);
        out
    }
}

impl TxBuilder {
    /// Signs the transaction, producing the final [`Transaction`].
    pub fn signed(self, keys: &SimKeypair) -> Transaction {
        let mut tx = Transaction {
            account: self.account,
            sequence: self.sequence,
            fee: self.fee,
            kind: self.kind,
            signing_key: keys.public_key(),
            signature: keys.sign(&[]),
        };
        tx.signature = keys.sign(&tx.canonical_bytes());
        tx
    }
}

fn encode_amount(amount: &Amount, out: &mut Vec<u8>) {
    match amount {
        Amount::Xrp(d) => {
            out.push(0);
            out.extend_from_slice(&d.as_drops().to_be_bytes());
        }
        Amount::Iou(iou) => {
            out.push(1);
            out.extend_from_slice(&iou.value.raw().to_be_bytes());
            out.extend_from_slice(iou.currency.as_bytes());
            out.extend_from_slice(iou.issuer.as_bytes());
        }
    }
}

fn encode_kind(kind: &TxKind, out: &mut Vec<u8>) {
    match kind {
        TxKind::Payment {
            destination,
            amount,
            send_max,
            paths,
        } => {
            out.push(1);
            out.extend_from_slice(destination.as_bytes());
            encode_amount(amount, out);
            match send_max {
                Some(m) => {
                    out.push(1);
                    encode_amount(m, out);
                }
                None => out.push(0),
            }
            out.extend_from_slice(&(paths.len() as u32).to_be_bytes());
            for path in paths {
                out.extend_from_slice(&(path.len() as u32).to_be_bytes());
                for hop in path {
                    out.extend_from_slice(hop.as_bytes());
                }
            }
        }
        TxKind::TrustSet {
            trustee,
            currency,
            limit,
        } => {
            out.push(2);
            out.extend_from_slice(trustee.as_bytes());
            out.extend_from_slice(currency.as_bytes());
            out.extend_from_slice(&limit.raw().to_be_bytes());
        }
        TxKind::OfferCreate {
            taker_gets,
            taker_pays,
        } => {
            out.push(3);
            encode_amount(taker_gets, out);
            encode_amount(taker_pays, out);
        }
        TxKind::OfferCancel { offer_seq } => {
            out.push(4);
            out.extend_from_slice(&offer_seq.to_be_bytes());
        }
        TxKind::AccountSet { flags } => {
            out.push(5);
            out.extend_from_slice(&flags.to_be_bytes());
        }
    }
}

/// Result of applying a transaction to the ledger state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxResult {
    /// The transaction applied successfully; the fee was burned.
    Applied,
    /// The transaction failed validation; nothing changed (not even the fee —
    /// a simplification relative to the real network's `tec` class).
    Rejected,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx(seed: &[u8]) -> Transaction {
        let keys = SimKeypair::from_seed(seed);
        let account = AccountId::from_public_key(&keys.public_key());
        Transaction::build(
            account,
            7,
            Drops::new(10),
            TxKind::Payment {
                destination: AccountId::from_bytes([3; 20]),
                amount: Drops::from_xrp(1).into(),
                send_max: None,
                paths: vec![vec![AccountId::from_bytes([4; 20])]],
            },
        )
        .signed(&keys)
    }

    fn verify_signature(tx: &Transaction) -> bool {
        SimKeypair::verify(&tx.signing_key, &tx.canonical_bytes(), &tx.signature)
    }

    #[test]
    fn signature_verifies() {
        assert!(verify_signature(&sample_tx(b"a")));
    }

    #[test]
    fn tampering_breaks_signature() {
        let mut tx = sample_tx(b"a");
        tx.sequence += 1;
        assert!(!verify_signature(&tx));
    }

    #[test]
    fn hash_is_deterministic_and_sensitive() {
        let a = sample_tx(b"a");
        let b = sample_tx(b"a");
        assert_eq!(a, b);
        let c = sample_tx(b"c");
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_distinguish_kinds() {
        let keys = SimKeypair::from_seed(b"k");
        let account = AccountId::from_public_key(&keys.public_key());
        let t1 = Transaction::build(account, 1, Drops::new(10), TxKind::AccountSet { flags: 0 })
            .signed(&keys);
        let t2 = Transaction::build(
            account,
            1,
            Drops::new(10),
            TxKind::OfferCancel { offer_seq: 0 },
        )
        .signed(&keys);
        assert_ne!(t1.canonical_bytes(), t2.canonical_bytes());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(sample_tx(b"x").kind.label(), "Payment");
        assert_eq!(TxKind::AccountSet { flags: 1 }.label(), "AccountSet");
    }

    #[test]
    fn iou_amounts_encode_issuer() {
        use crate::amount::IouAmount;
        let keys = SimKeypair::from_seed(b"k");
        let account = AccountId::from_public_key(&keys.public_key());
        let mk = |issuer: u8| {
            Transaction::build(
                account,
                1,
                Drops::new(10),
                TxKind::Payment {
                    destination: AccountId::from_bytes([3; 20]),
                    amount: IouAmount::new(
                        "5".parse().unwrap(),
                        Currency::USD,
                        AccountId::from_bytes([issuer; 20]),
                    )
                    .into(),
                    send_max: None,
                    paths: Vec::new(),
                },
            )
            .signed(&keys)
        };
        assert_ne!(mk(1).canonical_bytes(), mk(2).canonical_bytes());
    }
}
