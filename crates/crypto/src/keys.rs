//! Deterministic *simulated* key and signature scheme.
//!
//! None of the paper's analyses verify real asymmetric signatures — they only
//! need (a) stable account/validator identities and (b) signature-shaped
//! fields attached to transactions and validations. We therefore substitute a
//! keyed-hash scheme:
//!
//! * a keypair is derived deterministically from a seed,
//! * a "signature" is `SHA-512(public_key ‖ message)`,
//! * verification recomputes the same hash.
//!
//! **This scheme is not secure** — anyone holding the public key can forge a
//! signature. That is acceptable here because adversaries are *modeled inside
//! the simulator* (byzantine validator actors), not expected to attack the
//! binary. The substitution is documented in `DESIGN.md`.

use crate::hash::{Digest512, Sha512};
use serde::{Deserialize, Serialize};

/// A 32-byte public key for the simulated scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PublicKey([u8; 32]);

impl PublicKey {
    /// Returns the raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the key in the validator form used by the paper's Figure 2
    /// labels (`n9KDJn...Q7KhQ2`): Base58Check with the node-public version
    /// byte, abbreviated.
    pub fn node_short(&self) -> String {
        let full = self.node_base58();
        if full.len() <= 12 {
            return full;
        }
        format!("{}...{}", &full[..6], &full[full.len() - 6..])
    }

    /// Full validator address: Base58Check over a 33-byte payload (a
    /// compressed-key style `0x02` prefix plus the key bytes), which yields
    /// the familiar `n9...` form.
    fn node_base58(&self) -> String {
        let mut payload = Vec::with_capacity(33);
        payload.push(0x02);
        payload.extend_from_slice(&self.0);
        crate::base58::check_encode(crate::base58::VERSION_NODE_PUBLIC, &payload)
    }
}

impl AsRef<[u8]> for PublicKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A 64-byte simulated signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimSignature(#[serde(with = "sig_bytes")] [u8; 64]);

// Referenced via `#[serde(with = ...)]`; the vendored offline serde derive
// expands to nothing, so the helpers look dead to rustc.
#[allow(dead_code)]
mod sig_bytes {
    use serde::de::Error;
    use serde::{Deserialize, Deserializer, Serializer};

    pub(super) fn serialize<S: Serializer>(bytes: &[u8; 64], ser: S) -> Result<S::Ok, S::Error> {
        ser.serialize_bytes(bytes)
    }

    pub(super) fn deserialize<'de, D: Deserializer<'de>>(de: D) -> Result<[u8; 64], D::Error> {
        let v: Vec<u8> = Deserialize::deserialize(de)?;
        v.try_into()
            .map_err(|_| D::Error::custom("expected 64 bytes"))
    }
}

impl SimSignature {
    /// Returns the raw signature bytes.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }
}

/// A deterministic keypair for the simulated signature scheme.
///
/// # Examples
///
/// ```
/// use ripple_crypto::SimKeypair;
///
/// let keys = SimKeypair::from_seed(b"validator-R1");
/// let sig = keys.sign(b"ledger page 42");
/// assert!(SimKeypair::verify(&keys.public_key(), b"ledger page 42", &sig));
/// assert!(!SimKeypair::verify(&keys.public_key(), b"ledger page 43", &sig));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimKeypair {
    secret: [u8; 32],
    public: PublicKey,
}

impl SimKeypair {
    /// Derives a keypair from an arbitrary seed.
    pub fn from_seed(seed: &[u8]) -> Self {
        let secret = sha512_of(&[b"secret:", seed]).first_half().into_bytes();
        let public = PublicKey(sha512_of(&[b"public:", &secret]).first_half().into_bytes());
        SimKeypair { secret, public }
    }

    /// Returns the public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs `message` (simulated — see module docs).
    pub fn sign(&self, message: &[u8]) -> SimSignature {
        SimSignature(sign_with_public(&self.public, message).into_bytes())
    }

    /// Verifies `signature` over `message` under `public`.
    pub fn verify(public: &PublicKey, message: &[u8], signature: &SimSignature) -> bool {
        sign_with_public(public, message).as_bytes() == signature.as_bytes()
    }
}

fn sign_with_public(public: &PublicKey, message: &[u8]) -> Digest512 {
    sha512_of(&[b"sig:", &public.0, message])
}

/// SHA-512 of the concatenated `parts`, streamed without joining them.
fn sha512_of(parts: &[&[u8]]) -> Digest512 {
    let mut h = Sha512::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keypair_is_deterministic() {
        assert_eq!(SimKeypair::from_seed(b"x"), SimKeypair::from_seed(b"x"));
    }

    #[test]
    fn different_seeds_different_keys() {
        assert_ne!(
            SimKeypair::from_seed(b"x").public_key(),
            SimKeypair::from_seed(b"y").public_key()
        );
    }

    #[test]
    fn node_short_starts_with_n() {
        let k = SimKeypair::from_seed(b"validator");
        assert!(k.public_key().node_short().starts_with('n'));
    }

    #[test]
    fn wrong_key_fails_verification() {
        let a = SimKeypair::from_seed(b"a");
        let b = SimKeypair::from_seed(b"b");
        let sig = a.sign(b"msg");
        assert!(!SimKeypair::verify(&b.public_key(), b"msg", &sig));
    }

    proptest! {
        #[test]
        fn sign_verify_round_trip(seed in proptest::collection::vec(any::<u8>(), 1..16),
                                  msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            let kp = SimKeypair::from_seed(&seed);
            let sig = kp.sign(&msg);
            prop_assert!(SimKeypair::verify(&kp.public_key(), &msg, &sig));
        }

        #[test]
        fn tampered_message_fails(seed in proptest::collection::vec(any::<u8>(), 1..16),
                                  msg in proptest::collection::vec(any::<u8>(), 1..64)) {
            let kp = SimKeypair::from_seed(&seed);
            let sig = kp.sign(&msg);
            let mut tampered = msg.clone();
            tampered[0] = tampered[0].wrapping_add(1);
            prop_assert!(!SimKeypair::verify(&kp.public_key(), &tampered, &sig));
        }
    }
}
