//! Canonical binary codec and streaming history store.
//!
//! The paper processed "more than 500 GB worth of data" downloaded from the
//! public ledger with "an ad-hoc Ripple client". This crate is our
//! equivalent of that pipeline: a compact, field-ordered binary format for
//! history events, a streaming [`Writer`]/[`Reader`] pair, and per-record
//! CRC-32 framing so truncation and corruption are detected rather than
//! silently mis-parsed.
//!
//! # Format
//!
//! ```text
//! file   := magic "RPLSTOR1" , record*
//! record := tag:u8 , len:u32be , payload[len] , crc32:u32be
//! ```
//!
//! The CRC covers tag, length and payload. Integers are big-endian; strings
//! and paths are length-prefixed.
//!
//! That record is the workspace's one frame layout ([`frame`]): the
//! `RPLSIDX1` postings sidecar ([`postings`]) stores its sections in it and
//! `ripple-node`'s socket transport sends its messages in it, each with its
//! own payload cap, and all three encode fields with [`codec`].
//!
//! # Examples
//!
//! ```
//! use ripple_store::{HistoryEvent, Reader, Writer};
//! use ripple_ledger::{Currency, PathSummary, PaymentRecord, RippleTime};
//! use ripple_crypto::{sha512_half, AccountId};
//!
//! let record = PaymentRecord {
//!     tx_hash: sha512_half(b"tx"),
//!     sender: AccountId::from_bytes([1; 20]),
//!     destination: AccountId::from_bytes([2; 20]),
//!     currency: Currency::USD,
//!     issuer: None,
//!     amount: "4.5".parse().unwrap(),
//!     timestamp: RippleTime::from_ymd_hms(2015, 8, 24, 15, 41, 3),
//!     ledger_seq: 17,
//!     paths: PathSummary::direct(),
//!     cross_currency: false,
//!     source_currency: None,
//! };
//!
//! let mut buf = Vec::new();
//! let mut writer = Writer::new(&mut buf);
//! writer.write(&HistoryEvent::Payment(record.clone()))?;
//! writer.finish()?;
//!
//! let mut reader = Reader::new(buf.as_slice())?;
//! match reader.next_event()? {
//!     Some(HistoryEvent::Payment(back)) => assert_eq!(back, record),
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok::<(), ripple_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod codec;
pub mod crc;
pub mod event;
pub mod frame;
pub mod postings;
pub mod stream;

pub use chaos::{corrupt_bytes, CorruptionOp, CorruptionPlan};
pub use event::HistoryEvent;
pub use postings::{
    decode_block, decode_frame_at, FlowStat, PostingsConfig, PostingsIndex, SIDECAR_MAGIC,
};
pub use stream::{ReadMode, Reader, RecoveryStats, StoreError, Writer};
