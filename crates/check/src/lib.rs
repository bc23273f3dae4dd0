//! Differential testing, invariant oracles, and replayable counterexamples
//! for the Ripple reproduction workspace.
//!
//! The crate checks the production engines against independent,
//! obviously-correct reference implementations:
//!
//! - [`model::ModelLedger`] — a naive map-based ledger replayed step by
//!   step against `LedgerState::apply` ([`diff::run_ledger_plan`]);
//! - [`oracle::max_deliverable`] — a brute-force max-flow oracle for the
//!   payment engine ([`diff::run_engine_plan`]);
//! - [`oracle::find_payment_paths`] — the cold shortest-first path search
//!   the cached router must reproduce plan for plan;
//! - [`oracle::NaiveBook`] — a linear-scan order-book matcher
//!   ([`diff::run_book_plan`]);
//! - [`explore`] — seed-randomized consensus fault schedules checked
//!   against the chaos campaign's no-fork invariant;
//! - [`storefuzz`] — corruption corpora through the archive reader's
//!   resync path;
//! - [`diff::run_router_plan`] — the cached capacity-aware router
//!   (`ripple_paths::Router`) against the cold search, the max-flow
//!   oracle, and a full `PaymentEngine::pay` replay, across query streams
//!   interleaved with trust mutations.
//!
//! Any disagreement is shrunk with [`shrink::ddmin`] and packaged as a
//! [`CheckCase`] that serializes to `CHECK_CASE.json` and replays
//! byte-deterministically ([`case::replay_document`]). The budgeted
//! round-robin driver is [`run::run_check`]; [`testkit`] carries the
//! shared scaffolding the workspace's integration tests build on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod diff;
pub mod explore;
mod find;
pub mod gen;
pub mod model;
pub mod oracle;
pub mod run;
pub mod shrink;
pub mod storefuzz;
pub mod testkit;

pub use case::{replay_document, CasePayload, CheckCase, ReplayOutcome};
pub use run::{run_check, CheckConfig, CheckReport};
pub use shrink::ddmin;
