//! Offer books and the matching engine.
//!
//! "Transactions of this kind are called 'cross-currency' IOUs and they
//! require a 'bridge' between the two currencies at some point of the
//! transaction path. The bridging is done by Market Makers […] Ripple's
//! path-finding algorithm exploits Market Makers to deliver cross-currency
//! payments and it does so by selecting the path with the best exchange rate
//! available." (paper §III.C)
//!
//! This crate provides:
//!
//! * [`Rate`] — exact rational exchange rates (no floating point in the
//!   matching path);
//! * [`OrderBook`] — a price-time-priority book for one currency pair, built
//!   as a view over the ledger's resting offers;
//! * [`BookSet`] — all books in the system, keyed by currency pair;
//! * [`RateTable`] — reference mid-rates for the study period.
//!
//! # Examples
//!
//! ```
//! use ripple_orderbook::{OrderBook, Rate};
//! use ripple_ledger::{Currency, Value};
//! use ripple_crypto::AccountId;
//!
//! let mm = AccountId::from_bytes([9; 20]);
//! let mut book = OrderBook::new(Currency::EUR, Currency::USD);
//! // Sell 100 EUR at 1.10 USD/EUR.
//! book.insert(mm, 1, "100".parse().unwrap(), Rate::new(110, 100));
//! let fill = book.fill("40".parse().unwrap());
//! assert_eq!(fill.filled, "40".parse().unwrap());
//! assert_eq!(fill.paid, "44".parse().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod book;
pub mod rate;
pub mod rates;

pub use book::{BookEntry, BookSet, FillOutcome, FillPart, OrderBook};
pub use rate::Rate;
pub use rates::RateTable;
