//! The Ripple Protocol Consensus Algorithm (RPCA), simulated, plus the
//! validation-stream measurement harness of the paper's §IV.
//!
//! Two engines share the same validator population model:
//!
//! * [`rounds::RoundEngine`] — a message-level implementation of RPCA over
//!   [`ripple_netsim`]'s link model, each message handed to the deadline
//!   window it lands in: proposal rounds with escalating agreement
//!   thresholds (50% → 55% → 60% → 80%) within each validator's UNL, and
//!   signed validations. The only in-process RPCA driver: the
//!   safety/liveness demos and the [`unl`] fork analysis run on it. Each of
//!   its validators is a [`core::ValidatorCore`], the sans-IO state machine
//!   `ripple-node` drives over TCP too; the engine keeps only what a
//!   simulator alone has (crashes, byzantine lies, the omniscient outcome).
//! * [`campaign::Campaign`] — a round-granular statistical engine able to
//!   run the paper's two-week collection periods (~250 000 consensus rounds)
//!   quickly, producing the same [`stream::ValidationEvent`] schema a
//!   measurement server would capture from the live validation stream.
//!
//! [`metrics::ValidatorReport`] aggregates either stream into the paper's
//! Figure 2: per-validator *total* signed pages vs. pages that ended up
//! *valid* in the main ledger. [`scenario`] packages the three collection
//! periods (December 2015, July 2016, November 2016) with validator
//! populations matching the paper's observations.
//!
//! # Examples
//!
//! ```
//! use ripple_consensus::scenario::CollectionPeriod;
//!
//! // A scaled-down December-2015 campaign: 200 rounds instead of ~250k.
//! let outcome = CollectionPeriod::December2015.run(200, 42);
//! let report = outcome.report();
//! // Ripple Labs' five validators sign every round; almost every page is
//! // valid (a round only fails if too few of the wider UNL showed up).
//! let r1 = report.rows.iter().find(|r| r.label == "R1").unwrap();
//! assert_eq!(r1.total, 200);
//! assert!(r1.valid >= 190);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod core;
pub mod metrics;
pub mod rewards;
pub mod rounds;
pub mod scenario;
pub mod stream;
pub mod unl;
pub mod validator;

pub use campaign::{Campaign, CampaignOutcome};
pub use chaos::{
    ChaosCampaign, ChaosOutcome, ForkViolation, InvariantChecker, Recovery, RoundRecord,
    StallWindow,
};
pub use core::{Refused, ValidatorCore};
pub use metrics::{ValidatorReport, ValidatorRow};
pub use rewards::{simulate_reward_economy, EconomyConfig, EconomyOutcome, RewardPolicy};
pub use rounds::{
    page_hash, support_required, tally_validations, RoundEngine, RoundError, RoundOutcome,
    ValidationTally, PHASES, QUORUM_PCT, RPCA_THRESHOLDS,
};
pub use scenario::CollectionPeriod;
pub use stream::{ValidationEvent, ValidationStream};
pub use unl::{fork_sweep, run_unl_round, two_clique_unls, UnlRoundOutcome};
pub use validator::{Validator, ValidatorProfile};
