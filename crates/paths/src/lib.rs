//! Trust-graph path finding and the multi-path payment engine.
//!
//! "Every time that a user needs to make a IOU payment to another user, a
//! route is created that can potentially serve as a payment path of the
//! given amount. The payment path is then submitted to the system for a
//! validity check of the trust-lines in the path — amount of trust and
//! current debit." (paper §III.B)
//!
//! The engine implements:
//!
//! * shortest-path routing over the trust graph with live capacities: one
//!   capacity-aware router with per-`(source, destination)` path
//!   enumeration and generation-stamped invalidation ([`router::Router`]),
//!   checked against the cold search in `ripple_check::oracle`;
//! * multi-path splitting when no single path carries the amount (the
//!   paper's Figure 6(b) parallel paths) — an Edmonds–Karp-style residual
//!   decomposition;
//! * transfer fees: a fee-bearing payment takes the cheapest of the
//!   router's candidates ([`Router::cheapest`]);
//! * cross-currency delivery through Market-Maker offers, including the XRP
//!   auto-bridge ([`engine::PaymentEngine::pay`]);
//! * all-or-nothing semantics with rollback on partial failure;
//! * the replay harness used by the paper's Table II experiment
//!   ([`replay`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fees;
pub mod replay;
pub mod router;

pub use engine::{ExecutedPayment, PaymentEngine, PaymentError, PaymentRequest};
pub use fees::{FeePath, TransferFees};
pub use replay::{replay, ReplayCategory, ReplayStats};
pub use router::{carried, FoundPath, PathLimits, Router, RouterStats};
