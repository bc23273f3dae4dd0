//! Calibrated synthetic Ripple history generator.
//!
//! The paper mined 500 GB of real ledger history (January 2013 – September
//! 2015, 23M payments). We have no access to that data, so this crate
//! generates a history whose *marginals* match what the paper reports, and
//! executes every event against the real ledger substrate so that balances,
//! trust lines and offers are always consistent:
//!
//! * currency mix (Fig. 4), including the `CCK`/`MTL` spam codes;
//! * per-currency amount distributions (Fig. 5's survival functions);
//! * path structure (Fig. 6): hop counts, parallel-path counts, and the MTL
//!   campaign forced through exactly 8 intermediate hops and 6 parallel
//!   paths;
//! * the `ACCOUNT_ZERO` ping-pong and `~Ripple Spin` gambling traffic;
//! * a community topology in which Market Makers are the inter-community
//!   glue (driving Table II), two super-hub "common users" dominate routing
//!   (Fig. 7a), and gateways hold the trust and the debt (Fig. 7b/c);
//! * per-user payment habits (favourite merchants, menu prices, repeated
//!   amounts) that give the fingerprint-collision structure behind the
//!   paper's Figure 3 information-gain profile.
//!
//! There is one history executor, the three-stage [`pipeline`] (parallel
//! scripting, serial execution against the live ledger, overlapped archive
//! and tally sinks). [`Generator::run`] is that pipeline with default
//! settings returning the [`SynthOutput`] alone;
//! [`Generator::run_pipelined`] also hands back the streaming tallies, the
//! archive bytes and the stage timings. Both produce the same events for
//! the same [`SynthConfig`], and those events are the run's one copy of the
//! history.
//!
//! # Examples
//!
//! ```
//! use ripple_synth::{Generator, PipelineConfig, SynthConfig};
//!
//! let config = SynthConfig {
//!     payments: 2_000,
//!     ..SynthConfig::default()
//! };
//! let out = Generator::new(config.clone()).run();
//! assert_eq!(out.payments().count(), 2_000);
//! assert!(out.final_state.account_count() > 100);
//!
//! let run = Generator::new(config)
//!     .run_pipelined(&PipelineConfig::default())
//!     .unwrap();
//! assert_eq!(run.output.events, out.events);
//! assert_eq!(run.tallies.payments, 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod config;
pub mod dist;
pub mod generate;
pub mod pipeline;
pub mod probes;
pub mod script;

pub use cast::{Cast, Role};
pub use config::SynthConfig;
pub use generate::{Generator, SynthOutput};
pub use pipeline::{HistoryTallies, PipelineConfig, PipelineError, PipelineRun, SynthBench};
pub use probes::{payment_probes, PaymentProbe};
pub use script::{
    build_chunk, build_script, derive_seed, plan_history, CastIndex, ScriptChunk, ScriptedBody,
    ScriptedPayment,
};
