//! Deterministic discrete-event network simulator.
//!
//! The paper monitored the *live* Ripple validation stream; we reproduce the
//! measurement on a simulated network. This crate is the substrate: a
//! discrete-event engine ([`Simulation`]) plus a message-passing overlay
//! ([`Network`]) with configurable per-link latency, loss and partitions.
//! The consensus crate drives validator actors on top of it.
//!
//! Determinism matters: two runs with the same seed must produce the same
//! event order, so experiments are exactly reproducible. Ties in delivery
//! time are broken by a monotonically increasing sequence number.
//!
//! # Examples
//!
//! ```
//! use ripple_netsim::{LatencyModel, Network, NodeId, SimTime};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net: Network<&'static str> = Network::new(3);
//! net.set_default_latency(LatencyModel::Fixed(SimTime::from_millis(20)));
//! net.send(NodeId(0), NodeId(1), "hello", &mut rng);
//! let (at, delivery) = net
//!     .step_until(SimTime::from_millis(100))
//!     .expect("one message in flight");
//! assert_eq!(at, SimTime::from_millis(20));
//! assert_eq!(delivery.msg, "hello");
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
pub use network::{Delivery, DeliveryFate, Network, NodeId};
pub use sim::{SimTime, Simulation};
