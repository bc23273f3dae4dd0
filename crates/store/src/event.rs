//! The history-event vocabulary stored in an archive.

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, PaymentRecord, RippleTime, Value};

use crate::codec::{Decode, Encode};
use crate::stream::StoreError;

/// One archived event. Payments dominate (they are what the paper mines),
/// but trust-line changes, offers and account creations are archived too so
/// a snapshot can be reconstructed at any point in history.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryEvent {
    /// A delivered payment.
    Payment(PaymentRecord),
    /// An exchange offer placed on a book.
    OfferPlaced {
        /// Offer owner (Market Maker).
        owner: AccountId,
        /// Offer identity.
        offer_seq: u32,
        /// Sold currency.
        base: Currency,
        /// Payment currency.
        quote: Currency,
        /// Amount of base offered.
        gets: Value,
        /// Amount of quote wanted.
        pays: Value,
        /// When the offer entered the ledger.
        timestamp: RippleTime,
    },
    /// A trust-line declaration or change.
    TrustSet {
        /// The trusting account.
        truster: AccountId,
        /// The trusted account.
        trustee: AccountId,
        /// Currency trusted.
        currency: Currency,
        /// New limit.
        limit: Value,
        /// When the change entered the ledger.
        timestamp: RippleTime,
    },
    /// An account funded into existence.
    AccountCreated {
        /// The new account.
        account: AccountId,
        /// When it appeared.
        timestamp: RippleTime,
    },
}

impl HistoryEvent {
    /// The frame tag identifying the event kind on disk.
    pub fn tag(&self) -> u8 {
        match self {
            HistoryEvent::Payment(_) => 1,
            HistoryEvent::OfferPlaced { .. } => 2,
            HistoryEvent::TrustSet { .. } => 3,
            HistoryEvent::AccountCreated { .. } => 4,
        }
    }

    /// The event's ledger timestamp.
    pub fn timestamp(&self) -> RippleTime {
        match self {
            HistoryEvent::Payment(p) => p.timestamp,
            HistoryEvent::OfferPlaced { timestamp, .. }
            | HistoryEvent::TrustSet { timestamp, .. }
            | HistoryEvent::AccountCreated { timestamp, .. } => *timestamp,
        }
    }

    /// Encodes the payload (without the frame) into a caller-provided
    /// buffer, appending to whatever it already holds. Lets hot write
    /// paths reuse one scratch allocation across events.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            HistoryEvent::Payment(p) => p.encode(out),
            HistoryEvent::OfferPlaced {
                owner,
                offer_seq,
                base,
                quote,
                gets,
                pays,
                timestamp,
            } => {
                owner.encode(out);
                offer_seq.encode(out);
                base.encode(out);
                quote.encode(out);
                gets.encode(out);
                pays.encode(out);
                timestamp.encode(out);
            }
            HistoryEvent::TrustSet {
                truster,
                trustee,
                currency,
                limit,
                timestamp,
            } => {
                truster.encode(out);
                trustee.encode(out);
                currency.encode(out);
                limit.encode(out);
                timestamp.encode(out);
            }
            HistoryEvent::AccountCreated { account, timestamp } => {
                account.encode(out);
                timestamp.encode(out);
            }
        }
    }

    /// Decodes a payload for the given tag.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on malformed payloads or unknown tags.
    pub fn decode_payload(tag: u8, mut buf: &[u8]) -> Result<HistoryEvent, StoreError> {
        let buf = &mut buf;
        let event = match tag {
            1 => HistoryEvent::Payment(Decode::decode(buf)?),
            2 => HistoryEvent::OfferPlaced {
                owner: Decode::decode(buf)?,
                offer_seq: Decode::decode(buf)?,
                base: Decode::decode(buf)?,
                quote: Decode::decode(buf)?,
                gets: Decode::decode(buf)?,
                pays: Decode::decode(buf)?,
                timestamp: Decode::decode(buf)?,
            },
            3 => HistoryEvent::TrustSet {
                truster: Decode::decode(buf)?,
                trustee: Decode::decode(buf)?,
                currency: Decode::decode(buf)?,
                limit: Decode::decode(buf)?,
                timestamp: Decode::decode(buf)?,
            },
            4 => HistoryEvent::AccountCreated {
                account: Decode::decode(buf)?,
                timestamp: Decode::decode(buf)?,
            },
            other => return Err(StoreError::corrupt(format!("unknown event tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(StoreError::corrupt("trailing bytes in event payload"));
        }
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::sha512_half;
    use ripple_ledger::PathSummary;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn events() -> Vec<HistoryEvent> {
        vec![
            HistoryEvent::Payment(PaymentRecord {
                tx_hash: sha512_half(b"p"),
                sender: acct(1),
                destination: acct(2),
                currency: Currency::XRP,
                issuer: None,
                amount: "10".parse().unwrap(),
                timestamp: RippleTime::from_seconds(100),
                ledger_seq: 7,
                paths: PathSummary::direct(),
                cross_currency: false,
                source_currency: None,
            }),
            HistoryEvent::OfferPlaced {
                owner: acct(3),
                offer_seq: 9,
                base: Currency::EUR,
                quote: Currency::USD,
                gets: "100".parse().unwrap(),
                pays: "110".parse().unwrap(),
                timestamp: RippleTime::from_seconds(200),
            },
            HistoryEvent::TrustSet {
                truster: acct(4),
                trustee: acct(5),
                currency: Currency::BTC,
                limit: "2".parse().unwrap(),
                timestamp: RippleTime::from_seconds(300),
            },
            HistoryEvent::AccountCreated {
                account: acct(6),
                timestamp: RippleTime::from_seconds(400),
            },
        ]
    }

    #[test]
    fn all_variants_round_trip() {
        for event in events() {
            let mut payload = Vec::new();
            event.encode_payload_into(&mut payload);
            let back = HistoryEvent::decode_payload(event.tag(), &payload).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn tags_are_distinct() {
        let tags: Vec<u8> = events().iter().map(HistoryEvent::tag).collect();
        assert_eq!(tags, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(HistoryEvent::decode_payload(99, &[]).is_err());
    }

    #[test]
    fn timestamps_accessible() {
        let ts: Vec<u64> = events().iter().map(|e| e.timestamp().seconds()).collect();
        assert_eq!(ts, vec![100, 200, 300, 400]);
    }
}
