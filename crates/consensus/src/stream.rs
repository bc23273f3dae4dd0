//! The validation stream — what the paper's measurement server subscribed
//! to: "we needed to collect real-time information on the consensus rounds
//! and the validation process […] by setting up a Ripple server that made
//! use of the Ripple's validation stream" (§IV).

use ripple_crypto::{Digest256, PublicKey, SimSignature};
use serde::{Deserialize, Serialize};

/// One captured validation message: a validator announcing its signature
/// over a ledger page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationEvent {
    /// Consensus round number within the collection period.
    pub round: u64,
    /// Validator's public key (the stream's only identity information —
    /// mapping keys to operators is exactly the paper's attribution
    /// problem).
    pub validator: PublicKey,
    /// Display label resolved offline (domain or abbreviated key).
    pub label: String,
    /// The page hash the validator signed.
    pub page_hash: Digest256,
    /// The signature.
    pub signature: SimSignature,
}

/// Collects validation events, replicating the paper's two-week captures.
///
/// # Examples
///
/// ```
/// use ripple_consensus::{ValidationStream, scenario::CollectionPeriod};
///
/// let outcome = CollectionPeriod::December2015.run(50, 1);
/// assert!(outcome.stream.into_iter().count() > 50 * 5); // at least R1-R5 each round
/// ```
#[derive(Debug, Clone, Default)]
pub struct ValidationStream {
    events: Vec<ValidationEvent>,
}

impl ValidationStream {
    /// Creates an empty stream.
    pub fn new() -> ValidationStream {
        ValidationStream::default()
    }

    /// Records an event.
    pub fn record(&mut self, event: ValidationEvent) {
        self.events.push(event);
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Extend<ValidationEvent> for ValidationStream {
    fn extend<T: IntoIterator<Item = ValidationEvent>>(&mut self, iter: T) {
        self.events.extend(iter);
    }
}

impl FromIterator<ValidationEvent> for ValidationStream {
    fn from_iter<T: IntoIterator<Item = ValidationEvent>>(iter: T) -> Self {
        ValidationStream {
            events: Vec::from_iter(iter),
        }
    }
}

impl<'a> IntoIterator for &'a ValidationStream {
    type Item = &'a ValidationEvent;
    type IntoIter = std::slice::Iter<'a, ValidationEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::{sha512_half, SimKeypair};

    fn event(round: u64, seed: &[u8]) -> ValidationEvent {
        let keys = SimKeypair::from_seed(seed);
        let page_hash = sha512_half(&round.to_be_bytes());
        ValidationEvent {
            round,
            validator: keys.public_key(),
            label: keys.public_key().node_short(),
            page_hash,
            signature: keys.sign(page_hash.as_bytes()),
        }
    }

    #[test]
    fn records_and_filters_by_round() {
        let mut s = ValidationStream::new();
        s.record(event(1, b"a"));
        s.record(event(1, b"b"));
        s.record(event(2, b"a"));
        assert_eq!(s.events.len(), 3);
        let in_round = |r| s.events.iter().filter(|e| e.round == r).count();
        assert_eq!(in_round(1), 2);
        assert_eq!(in_round(2), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let s: ValidationStream = (0..5).map(|r| event(r, b"x")).collect();
        assert_eq!(s.events.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn signatures_in_stream_verify() {
        let e = event(7, b"val");
        assert!(SimKeypair::verify(
            &e.validator,
            e.page_hash.as_bytes(),
            &e.signature
        ));
    }
}
