//! Live networked validators: RPCA over real TCP sockets with
//! socket-level fault injection and supervised reconnect.
//!
//! The rest of the workspace proves consensus properties inside a
//! deterministic simulator; this crate proves the *robustness* story on
//! real operating-system primitives. A validator here is a process
//! ([`Node`], shipped as the `ripple-node` binary) speaking length-framed,
//! CRC-checked messages ([`frame`], [`wire`] — the store's one frame
//! layout and field codec) over non-blocking sockets driven by a
//! hand-rolled readiness-polling event loop ([`poll`]; the workspace
//! forbids `unsafe`, so no `poll(2)` FFI).
//!
//! The robustness core is the peer-supervision layer ([`peer`]): per-peer
//! heartbeats, read/connect timeouts, exponential backoff with
//! seed-deterministic jitter, bounded reconnect budgets, and graceful
//! degradation — a validator below quorum connectivity keeps proposing
//! (flagging rounds degraded) and resubscribes state on reconnect rather
//! than crashing.
//!
//! The cluster harness ([`harness`]) spawns real child processes and
//! executes [`ripple_netsim::FaultPlan`]s as OS actions — `kill -9`
//! mid-round, socket-level partitions via connection bans, restart with
//! state resync — then reassembles every validator's wire reports, feeds
//! them to the simulator's own `InvariantChecker` (zero forks means the
//! same thing in both backends), and reports wall-clock rounds-to-recover.
//!
//! # Examples
//!
//! Framing survives corruption by resyncing, exactly like the store:
//!
//! ```
//! use ripple_node::frame::{encode_frame, FrameDecoder};
//!
//! let mut bytes = Vec::new();
//! encode_frame(1, b"alpha", &mut bytes);
//! encode_frame(2, b"beta", &mut bytes);
//! bytes[2] ^= 0xFF; // corrupt the first frame's length field
//!
//! let mut dec = FrameDecoder::new();
//! dec.push(&bytes);
//! let survivor = dec.next_frame().expect("second frame survives");
//! assert_eq!(survivor.tag, 2);
//! assert_eq!(survivor.payload, b"beta");
//! assert!(dec.stats().resyncs >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster_trace;
pub mod frame;
pub mod harness;
pub mod node;
pub mod peer;
pub mod poll;
pub mod wire;

pub use cluster_trace::{merge_cluster_trace, NodeProbe};
pub use frame::{encode_frame, DecoderStats, Frame, FrameDecoder};
pub use harness::{run_cluster, ClusterConfig, ClusterReport};
pub use node::{unix_ms, LocalRound, Node, NodeConfig, NodeReport, FEED_ID};
pub use peer::{Backoff, BackoffPolicy, LinkState, Supervisor};
pub use poll::{drain_into, probe, try_accept, Drained, Poller, Probe};
pub use wire::{LinkKind, Telemetry, WireError, WireMsg};
