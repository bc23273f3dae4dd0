//! Core data model of the Ripple Observatory study: accounts, trust lines,
//! offers, transactions and the mutable ledger state.
//!
//! This crate is a from-scratch reimplementation of the XRP Ledger concepts
//! the ICDCS 2017 paper measures:
//!
//! * **XRP and IOU amounts** ([`Drops`], [`Value`], [`Amount`]) — XRP is the
//!   only asset transferred balance-to-balance; everything else is an
//!   "I-Owe-You" riding on trust lines.
//! * **Trust lines** ([`TrustLine`], [`state::LedgerState`]) — the credit
//!   network edges that payments travel (in the opposite direction of trust).
//! * **Transactions** ([`Transaction`], [`TxKind`]) — payments, trust-line
//!   changes, and currency-exchange offers.
//! * **Payment records** ([`PaymentRecord`]) — the per-payment metadata the
//!   paper mines from 500 GB of history (sender, amount, timestamp, currency,
//!   destination, path structure).
//!
//! # Examples
//!
//! ```
//! use ripple_ledger::{Currency, Drops, LedgerState};
//! use ripple_crypto::AccountId;
//!
//! let mut state = LedgerState::new();
//! let alice = AccountId::from_bytes([1; 20]);
//! let bob = AccountId::from_bytes([2; 20]);
//! state.create_account(alice, Drops::from_xrp(100));
//! state.create_account(bob, Drops::from_xrp(100));
//!
//! // Bob trusts Alice for 50 USD, so Alice can pay Bob up to 50 USD in IOUs.
//! state.set_trust(bob, alice, Currency::USD, "50".parse().unwrap()).unwrap();
//! state
//!     .ripple_hop(alice, bob, Currency::USD, "20".parse().unwrap())
//!     .unwrap();
//! assert_eq!(
//!     state.iou_balance(bob, alice, Currency::USD),
//!     "20".parse().unwrap()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amount;
pub mod currency;
pub mod fees;
pub mod record;
pub mod state;
pub mod time;
pub mod tx;

pub use amount::{Amount, Drops, IouAmount, Value, ValueParseError};
pub use currency::Currency;
pub use fees::FeeSchedule;
pub use record::{PathSummary, PaymentRecord};
pub use state::{AccountRoot, Hop, LedgerError, LedgerState, RippleState, TrustLine};
pub use time::RippleTime;
pub use tx::{Transaction, TxKind, TxResult};

pub use ripple_crypto::AccountId;
