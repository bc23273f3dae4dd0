//! The 160-bit account identifier at the heart of the paper's
//! de-anonymization study.

use crate::base58::{check_encode, VERSION_ACCOUNT_ID};
use crate::hash::sha512_half;
use crate::keys::PublicKey;
use serde::{Deserialize, Serialize};

/// A 160-bit Ripple account identifier.
///
/// Identifiers are "randomly generated and contain no semantic information on
/// the real-world entity that created the account" (paper, §V) — the study's
/// whole point is that this alone does not provide anonymity.
///
/// The real system derives the identifier as `RIPEMD-160(SHA-256(pubkey))`;
/// we substitute the first 20 bytes of `SHA-512Half(pubkey)`, which preserves
/// the properties the study relies on (fixed width, uniform, deterministic in
/// the key) without pulling in RIPEMD-160. The substitution is recorded in
/// `DESIGN.md`.
///
/// # Examples
///
/// ```
/// use ripple_crypto::{AccountId, SimKeypair};
///
/// let account = AccountId::from_public_key(&SimKeypair::from_seed(b"bob").public_key());
/// let addr = account.to_base58();
/// assert!(addr.starts_with('r'));
/// assert_eq!(addr, account.to_string());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct AccountId([u8; 20]);

impl AccountId {
    /// The special account that initially owns all XRP ("ACCOUNT_ZERO" in the
    /// paper's appendix). Its secret is publicly known, which real-world
    /// spammers exploited to ping-pong XRP dust.
    pub const ZERO: AccountId = AccountId([0u8; 20]);

    /// Wraps raw identifier bytes.
    pub const fn from_bytes(bytes: [u8; 20]) -> Self {
        AccountId(bytes)
    }

    /// Derives the identifier from a public key.
    pub fn from_public_key(key: &PublicKey) -> Self {
        let digest = sha512_half(key.as_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest.as_bytes()[..20]);
        AccountId(out)
    }

    /// Returns the raw identifier bytes.
    pub fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Renders the identifier as a classic `r...` address.
    pub fn to_base58(&self) -> String {
        check_encode(VERSION_ACCOUNT_ID, &self.0)
    }

    /// Short display form used in the paper's figures (`rp2PaY...X1mEx7`).
    pub fn short(&self) -> String {
        let full = self.to_base58();
        if full.len() <= 12 {
            return full;
        }
        format!("{}...{}", &full[..6], &full[full.len() - 6..])
    }
}

impl std::fmt::Display for AccountId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_base58())
    }
}

impl AsRef<[u8]> for AccountId {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 20]> for AccountId {
    fn from(bytes: [u8; 20]) -> Self {
        AccountId(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base58::tests::check_decode;
    use crate::keys::SimKeypair;
    use proptest::prelude::*;

    /// Parses a classic `r...` address: the round-trip oracle for
    /// [`AccountId::to_base58`].
    fn from_base58(s: &str) -> AccountId {
        let payload = check_decode(VERSION_ACCOUNT_ID, s).unwrap();
        AccountId(payload.try_into().unwrap())
    }

    #[test]
    fn derivation_is_deterministic() {
        let a = AccountId::from_public_key(&SimKeypair::from_seed(b"alice").public_key());
        let b = AccountId::from_public_key(&SimKeypair::from_seed(b"alice").public_key());
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_seeds_distinct_accounts() {
        let a = AccountId::from_public_key(&SimKeypair::from_seed(b"alice").public_key());
        let b = AccountId::from_public_key(&SimKeypair::from_seed(b"bob").public_key());
        assert_ne!(a, b);
    }

    #[test]
    fn address_starts_with_r() {
        let a = AccountId::from_public_key(&SimKeypair::from_seed(b"carol").public_key());
        assert!(a.to_base58().starts_with('r'));
    }

    #[test]
    fn account_zero_round_trips() {
        let addr = AccountId::ZERO.to_base58();
        assert_eq!(from_base58(&addr), AccountId::ZERO);
        // All-zero payload collapses into the alphabet's zero digit: an
        // address of mostly leading 'r's, mirroring the real rrrrr... form.
        assert!(addr.starts_with("rrrr"));
    }

    #[test]
    fn short_form_has_ellipsis() {
        let a = AccountId::from_bytes([9; 20]);
        let s = a.short();
        assert!(s.contains("..."));
        assert_eq!(s.len(), 15);
    }

    proptest! {
        #[test]
        fn base58_round_trip(bytes in any::<[u8; 20]>()) {
            let a = AccountId::from_bytes(bytes);
            prop_assert_eq!(from_base58(&a.to_base58()), a);
        }
    }
}
