//! Base58Check encoding using the Ripple alphabet.
//!
//! The XRP Ledger renders account identifiers with a Base58 alphabet that
//! starts with `r` (which is why every classic address begins with an `r`):
//!
//! ```text
//! rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz
//! ```
//!
//! Encoded payloads carry a leading version byte and a trailing 4-byte
//! checksum. The real system computes the checksum as the first four bytes of
//! `SHA-256(SHA-256(payload))`; we follow the same construction.

use crate::hash::sha256;

/// The Ripple Base58 alphabet ("r" first, hence `r...` addresses).
pub const RIPPLE_ALPHABET: &[u8; 58] =
    b"rpshnaf39wBUDNEGHJKLM4PQRST7VWXYZ2bcdeCg65jkm8oFqi1tuvAxyz";

/// Version byte prefixed to account identifiers (yields addresses starting
/// with `r`).
pub const VERSION_ACCOUNT_ID: u8 = 0x00;

/// Version byte prefixed to node/validator public keys (yields `n...`).
pub const VERSION_NODE_PUBLIC: u8 = 0x1C;

fn checksum(payload: &[u8]) -> [u8; 4] {
    let first = sha256(payload);
    let second = sha256(first.as_bytes());
    let mut out = [0u8; 4];
    out.copy_from_slice(&second.as_bytes()[..4]);
    out
}

/// Encodes `payload` (without version or checksum) in raw Base58.
fn encode_raw(payload: &[u8]) -> String {
    // Count leading zero bytes: they become leading 'r' (alphabet[0]).
    let zeros = payload.iter().take_while(|&&b| b == 0).count();
    let mut digits: Vec<u8> = Vec::with_capacity(payload.len() * 138 / 100 + 1);
    for &byte in payload {
        let mut carry = byte as u32;
        for digit in digits.iter_mut() {
            carry += (*digit as u32) << 8;
            *digit = (carry % 58) as u8;
            carry /= 58;
        }
        while carry > 0 {
            digits.push((carry % 58) as u8);
            carry /= 58;
        }
    }
    let mut out = String::with_capacity(zeros + digits.len());
    for _ in 0..zeros {
        out.push(RIPPLE_ALPHABET[0] as char);
    }
    for &d in digits.iter().rev() {
        out.push(RIPPLE_ALPHABET[d as usize] as char);
    }
    out
}

/// Encodes `payload` with a version byte and Base58Check checksum.
///
/// # Examples
///
/// ```
/// use ripple_crypto::base58::{check_encode, VERSION_ACCOUNT_ID};
/// use ripple_crypto::AccountId;
///
/// let s = check_encode(VERSION_ACCOUNT_ID, &[7u8; 20]);
/// assert_eq!(s, AccountId::from_bytes([7u8; 20]).to_base58());
/// assert!(s.starts_with('r'));
/// ```
pub fn check_encode(version: u8, payload: &[u8]) -> String {
    let mut buf = Vec::with_capacity(payload.len() + 5);
    buf.push(version);
    buf.extend_from_slice(payload);
    let ck = checksum(&buf);
    buf.extend_from_slice(&ck);
    encode_raw(&buf)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Why the test decoders refused an input.
    #[derive(Debug, PartialEq, Eq)]
    pub(crate) enum DecodeError {
        /// A character outside the Ripple alphabet.
        InvalidCharacter(char),
        /// The trailing checksum did not match the payload.
        BadChecksum,
        /// Too short to carry a version byte and a checksum.
        BadLength { expected: usize, actual: usize },
        /// The version byte did not match the expected identifier kind.
        BadVersion { expected: u8, actual: u8 },
    }

    /// Decodes raw Base58 into bytes: the round-trip oracle for [`encode_raw`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidCharacter`] on characters outside the Ripple
    /// alphabet.
    pub(crate) fn decode_raw(s: &str) -> Result<Vec<u8>, DecodeError> {
        let mut index = [255u8; 128];
        for (i, &c) in RIPPLE_ALPHABET.iter().enumerate() {
            index[c as usize] = i as u8;
        }
        let zeros = s.bytes().take_while(|&b| b == RIPPLE_ALPHABET[0]).count();
        let mut bytes: Vec<u8> = Vec::with_capacity(s.len() * 733 / 1000 + 1);
        for c in s.chars() {
            let v = if (c as usize) < 128 {
                index[c as usize]
            } else {
                255
            };
            if v == 255 {
                return Err(DecodeError::InvalidCharacter(c));
            }
            let mut carry = v as u32;
            for byte in bytes.iter_mut() {
                carry += (*byte as u32) * 58;
                *byte = (carry & 0xff) as u8;
                carry >>= 8;
            }
            while carry > 0 {
                bytes.push((carry & 0xff) as u8);
                carry >>= 8;
            }
        }
        let mut out = vec![0u8; zeros];
        out.extend(bytes.iter().rev());
        Ok(out)
    }

    /// Decodes a Base58Check string, verifying the checksum and version byte,
    /// and returns the payload: the round-trip oracle for [`check_encode`].
    ///
    /// # Errors
    ///
    /// * [`DecodeError::InvalidCharacter`] — non-alphabet character.
    /// * [`DecodeError::BadLength`] — too short to carry version + checksum.
    /// * [`DecodeError::BadChecksum`] — checksum mismatch.
    /// * [`DecodeError::BadVersion`] — version byte mismatch.
    pub(crate) fn check_decode(version: u8, s: &str) -> Result<Vec<u8>, DecodeError> {
        let raw = decode_raw(s)?;
        if raw.len() < 5 {
            return Err(DecodeError::BadLength {
                expected: 5,
                actual: raw.len(),
            });
        }
        let (body, ck) = raw.split_at(raw.len() - 4);
        if checksum(body) != ck {
            return Err(DecodeError::BadChecksum);
        }
        if body[0] != version {
            return Err(DecodeError::BadVersion {
                expected: version,
                actual: body[0],
            });
        }
        Ok(body[1..].to_vec())
    }

    #[test]
    fn alphabet_is_58_unique_chars() {
        let mut seen = [false; 128];
        for &c in RIPPLE_ALPHABET.iter() {
            assert!(!seen[c as usize], "duplicate alphabet char {}", c as char);
            seen[c as usize] = true;
        }
    }

    #[test]
    fn account_version_encodes_with_leading_r() {
        let s = check_encode(VERSION_ACCOUNT_ID, &[0x42; 20]);
        assert!(s.starts_with('r'), "got {s}");
    }

    #[test]
    fn leading_zeros_preserved() {
        let payload = [0u8, 0, 0, 1, 2, 3];
        let s = encode_raw(&payload);
        assert_eq!(decode_raw(&s).unwrap(), payload);
    }

    #[test]
    fn checksum_detects_corruption() {
        let s = check_encode(VERSION_ACCOUNT_ID, &[9u8; 20]);
        let mut corrupted: Vec<char> = s.chars().collect();
        let last = *corrupted.last().unwrap();
        let replacement = RIPPLE_ALPHABET
            .iter()
            .map(|&b| b as char)
            .find(|&c| c != last)
            .unwrap();
        *corrupted.last_mut().unwrap() = replacement;
        let corrupted: String = corrupted.into_iter().collect();
        assert!(matches!(
            check_decode(VERSION_ACCOUNT_ID, &corrupted),
            Err(DecodeError::BadChecksum) | Err(DecodeError::BadVersion { .. })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let s = check_encode(VERSION_NODE_PUBLIC, &[1u8; 32]);
        assert!(matches!(
            check_decode(VERSION_ACCOUNT_ID, &s),
            Err(DecodeError::BadVersion { .. })
        ));
    }

    #[test]
    fn invalid_character_reported() {
        // '0', 'O', 'I' and 'l' are all absent from the Ripple alphabet.
        assert_eq!(decode_raw("r0"), Err(DecodeError::InvalidCharacter('0')));
    }

    proptest! {
        #[test]
        fn raw_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..64)) {
            let encoded = encode_raw(&payload);
            prop_assert_eq!(decode_raw(&encoded).unwrap(), payload);
        }

        #[test]
        fn check_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..40), version in any::<u8>()) {
            let encoded = check_encode(version, &payload);
            prop_assert_eq!(check_decode(version, &encoded).unwrap(), payload);
        }
    }
}
