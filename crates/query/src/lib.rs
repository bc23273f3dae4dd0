//! Indexed query serving over the history store.
//!
//! The paper's measurement pipeline ends in questions, not archives: "what
//! did this wallet do", "how much USD moved that day", "which senders match
//! this ⟨Am, Tsc, C, D⟩ fingerprint". This crate answers those questions at
//! interactive rates over the `ripple-store` archive format, without ever
//! rescanning the file per query:
//!
//! - [`engine::QueryEngine`] — opens an archive, builds the postings
//!   sidecar ([`ripple_store::PostingsIndex`]) in one pass — its block
//!   table doubles as the time index — and serves account history, time
//!   windows, per-(currency, day) flow aggregates and fingerprint-class
//!   lookups (reusing `ripple-deanon`'s resolution ladder).
//! - [`cache::BlockCache`] — fixed-budget shard-locked LRU over decoded
//!   frame blocks with adaptive admission, so skewed traffic decodes each
//!   hot block once and one-off scans decode only the frames they return.
//! - [`http`] — routing and body builders over the shared
//!   [`ripple_obs::http`] keep-alive server (admin plane included);
//!   every response is byte-stable JSON.
//!
//! What the engine sustains under load is measured by the benchmark's
//! `archive_serve` workload, which drives it with loops of its own.
//!
//! # Examples
//!
//! ```
//! use ripple_query::{EngineConfig, QueryEngine};
//! use ripple_store::{HistoryEvent, Writer};
//! use ripple_ledger::{Currency, PathSummary, PaymentRecord, RippleTime};
//! use ripple_crypto::{sha512_half, AccountId};
//!
//! let mut buf = Vec::new();
//! let mut writer = Writer::new(&mut buf);
//! writer.write(&HistoryEvent::Payment(PaymentRecord {
//!     tx_hash: sha512_half(b"tx"),
//!     sender: AccountId::from_bytes([1; 20]),
//!     destination: AccountId::from_bytes([2; 20]),
//!     currency: Currency::USD,
//!     issuer: None,
//!     amount: "4.5".parse().unwrap(),
//!     timestamp: RippleTime::from_seconds(86_400),
//!     ledger_seq: 17,
//!     paths: PathSummary::direct(),
//!     cross_currency: false,
//!     source_currency: None,
//! }))?;
//! writer.finish()?;
//!
//! let (engine, report) = QueryEngine::open(buf, &EngineConfig::default())?;
//! assert_eq!(report.records, 1);
//! let history = engine.account_history(&AccountId::from_bytes([1; 20]), 10)?;
//! assert_eq!(history.len(), 1);
//! # Ok::<(), ripple_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod http;

pub use cache::{Block, BlockCache};
pub use engine::{BuildReport, EngineConfig, QueryEngine};
pub use http::{serve, HttpServer};
