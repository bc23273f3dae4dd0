//! Deterministic network model for the consensus simulator.
//!
//! The paper monitored the *live* Ripple validation stream; we reproduce the
//! measurement on a simulated network. This crate is its link model
//! ([`Network`]): per-link latency, loss, partitions and crashes, and a
//! timed [`FaultPlan`] that changes them as virtual time ([`SimTime`])
//! passes. It keeps no queue: a send draws the message's fate — dropped, or
//! an arrival time — and the caller holds what is in flight, asking the
//! network at the arrival time whether a crash or cut on the way dropped it.
//! `RoundEngine` in the consensus crate hands each message to the deadline
//! window it lands in.
//!
//! Determinism matters: the same seed draws the same fates and arrival
//! times, so experiments are exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use ripple_netsim::{FaultPlan, LatencyModel, Network, NodeId, SimTime};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Network::new(3);
//! net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(20)));
//! net.install_plan(FaultPlan::new().crash_at(SimTime::from_millis(10), NodeId(2)));
//! let at = net.send(NodeId(0), NodeId(1), &mut rng).expect("link is up");
//! assert_eq!(at, SimTime::from_millis(20));
//! assert!(net.arrives(NodeId(0), NodeId(1), at));
//! // Node 2 crashes while this one is on its way: dropped in flight.
//! let at = net.send(NodeId(0), NodeId(2), &mut rng).expect("link is up");
//! assert!(!net.arrives(NodeId(0), NodeId(2), at));
//! assert_eq!((net.sent(), net.dropped()), (2, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod latency;
pub mod live;
pub mod network;
pub mod sim;

pub use faults::{FaultEvent, FaultPlan};
pub use latency::LatencyModel;
pub use live::{lower, parse_plan, LiveAction, LivePlan};
pub use network::{DeliveryFate, Network, NodeId};
pub use sim::SimTime;
