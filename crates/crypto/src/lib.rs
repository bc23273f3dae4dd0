//! Cryptographic primitives for the Ripple Observatory study.
//!
//! This crate provides the hashing and identifier machinery that the rest of
//! the workspace builds on:
//!
//! * [`sha256`] and [`sha512`] — from-scratch FIPS 180-4 implementations,
//!   validated against the official test vectors.
//! * [`sha512_half`] — the XRP Ledger's canonical object hash (the first 256
//!   bits of SHA-512).
//! * [`base58`] — Base58Check encoding with the Ripple alphabet, used to
//!   render account identifiers in the familiar `r...` form.
//! * [`AccountId`] — the 160-bit account identifier studied by the paper.
//! * [`SimKeypair`] / [`SimSignature`] — a *simulated*, deterministic
//!   signature scheme. See the module docs of [`keys`] for why a real
//!   asymmetric scheme is unnecessary for this reproduction.
//!
//! # Examples
//!
//! ```
//! use ripple_crypto::{sha512_half, AccountId, SimKeypair};
//!
//! let keys = SimKeypair::from_seed(b"alice");
//! let account = AccountId::from_public_key(&keys.public_key());
//! let address = account.to_base58();
//! assert!(address.starts_with('r'));
//! assert_eq!(account.short().len(), 15);
//!
//! let digest = sha512_half(b"ledger page body");
//! assert_eq!(digest.as_bytes().len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod base58;
pub mod fxhash;
pub mod hash;
pub mod hex;
pub mod keys;

mod account;

pub use account::AccountId;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hash::{mix128, sha256, sha512, sha512_half, Digest256, Digest512};
pub use keys::{PublicKey, SimKeypair, SimSignature};

/// Errors produced when decoding encoded payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The input was not valid hexadecimal.
    InvalidHex,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::InvalidHex => write!(f, "invalid hexadecimal input"),
        }
    }
}

impl std::error::Error for DecodeError {}
