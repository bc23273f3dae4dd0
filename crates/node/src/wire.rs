//! The validator wire protocol: typed messages over CRC-checked frames.
//!
//! Every field goes through the store's one field codec
//! ([`ripple_store::codec`]: fixed field order, big-endian integers, `u32`
//! count prefixes, 0/1 bytes for options and bools) and every message is
//! one frame of the store's one frame layout ([`crate::frame`]).
//! Decoding is total: any byte sequence either parses or returns a
//! [`WireError`]; it never panics and never allocates proportionally to a
//! corrupt length field.

use std::collections::BTreeSet;

use ripple_crypto::Digest256;
use ripple_store::codec::{Decode, Encode};
use ripple_store::StoreError;

use crate::frame::encode_with;

/// Why a peer opened a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Validator-to-validator traffic (proposals, validations).
    Validator,
    /// A harness control link (bans, shutdown).
    Control,
    /// A node-to-harness feed link (round reports, telemetry).
    Feed,
}

/// Cumulative per-node transport and supervision counters, shipped to the
/// harness over the feed link so per-process numbers survive `kill -9`
/// of the process that produced them (the harness keeps the last value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Outbound dial attempts (first connects and reconnects).
    pub reconnect_attempts: u64,
    /// Dial attempts that produced a connection.
    pub reconnect_successes: u64,
    /// Total backoff delay scheduled, in milliseconds.
    pub backoff_ms_total: u64,
    /// Frames written to any socket.
    pub frames_sent: u64,
    /// Verified frames read from any socket.
    pub frames_received: u64,
    /// CRC-corrupt frames observed.
    pub crc_errors: u64,
    /// Corrupt regions resynced past.
    pub resyncs: u64,
    /// State resubscriptions sent after a reconnect.
    pub state_resubs: u64,
    /// Rounds proposed while below quorum connectivity.
    pub degraded_rounds: u64,
    /// Heartbeats written.
    pub heartbeats_sent: u64,
}

impl Telemetry {
    /// Stable field order shared by [`Telemetry::fields`] and the JSON
    /// reports the harness writes.
    pub const FIELD_NAMES: [&'static str; 10] = [
        "reconnect_attempts",
        "reconnect_successes",
        "backoff_ms_total",
        "frames_sent",
        "frames_received",
        "crc_errors",
        "resyncs",
        "state_resubs",
        "degraded_rounds",
        "heartbeats_sent",
    ];

    /// The counters in [`Telemetry::FIELD_NAMES`] order.
    pub fn fields(&self) -> [u64; 10] {
        [
            self.reconnect_attempts,
            self.reconnect_successes,
            self.backoff_ms_total,
            self.frames_sent,
            self.frames_received,
            self.crc_errors,
            self.resyncs,
            self.state_resubs,
            self.degraded_rounds,
            self.heartbeats_sent,
        ]
    }

    fn from_fields(f: [u64; 10]) -> Telemetry {
        Telemetry {
            reconnect_attempts: f[0],
            reconnect_successes: f[1],
            backoff_ms_total: f[2],
            frames_sent: f[3],
            frames_received: f[4],
            crc_errors: f[5],
            resyncs: f[6],
            state_resubs: f[7],
            degraded_rounds: f[8],
            heartbeats_sent: f[9],
        }
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &Telemetry) {
        let mut sum = self.fields();
        for (dst, src) in sum.iter_mut().zip(other.fields()) {
            *dst += src;
        }
        *self = Telemetry::from_fields(sum);
    }
}

/// Every message the live transport carries.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// Link introduction: who is connecting and why.
    Hello {
        /// The sender's validator id (or harness id for control/feed).
        from: u32,
        /// The link's purpose.
        kind: LinkKind,
    },
    /// An RPCA position broadcast for one proposal iteration.
    ///
    /// Carries compact trace context (`from`, `round`, `seq`, `sent_ms`)
    /// so the cluster harness can reconstruct cross-node message flow
    /// when merging per-node traces.
    Proposal {
        /// Sending validator (trace-context origin).
        from: u32,
        /// Wall-clock round index.
        round: u64,
        /// Proposal iteration within the round (0-based).
        iteration: u8,
        /// Per-sender consensus-message sequence number (trace context).
        seq: u64,
        /// Sender wall-clock at send, Unix milliseconds (trace context).
        sent_ms: u64,
        /// The proposed transaction set.
        txs: BTreeSet<u64>,
    },
    /// A sealed page announcement after the final iteration.
    ///
    /// Carries the same compact trace context as [`WireMsg::Proposal`].
    Validation {
        /// Sending validator (trace-context origin).
        from: u32,
        /// Wall-clock round index.
        round: u64,
        /// Per-sender consensus-message sequence number (trace context).
        seq: u64,
        /// Sender wall-clock at send, Unix milliseconds (trace context).
        sent_ms: u64,
        /// The sealed page hash.
        page: Digest256,
    },
    /// Keepalive; also the write that detects dead outbound sockets.
    Heartbeat {
        /// Sending node.
        from: u32,
        /// The sender's current round.
        round: u64,
        /// Sender wall-clock at send, Unix milliseconds. Receivers take
        /// `min(local_ms - sent_ms)` over a link's heartbeats as a bound
        /// on clock skew + one-way delay, which the harness reads back
        /// as the residual-skew estimate for trace alignment.
        sent_ms: u64,
    },
    /// Ask a peer for its committed tip (sent after (re)connecting).
    StateRequest {
        /// Requesting node.
        from: u32,
    },
    /// Reply to [`WireMsg::StateRequest`]: the peer's committed tip.
    StateSnapshot {
        /// Responding node.
        from: u32,
        /// The responder's current round.
        round: u64,
        /// Last committed page, if any round has committed yet.
        last_committed: Option<Digest256>,
    },
    /// Control: sever connectivity to the listed peers (socket-level
    /// partition — drop links and refuse new ones).
    Ban {
        /// Peer ids to cut off.
        peers: Vec<u32>,
    },
    /// Control: lift all bans on the listed peers (partition heal).
    Unban {
        /// Peer ids to restore.
        peers: Vec<u32>,
    },
    /// Control: finish the current round report and exit cleanly.
    Shutdown,
    /// Feed: one validator's view of a finished round.
    RoundReport {
        /// Reporting validator.
        from: u32,
        /// The finished round.
        round: u64,
        /// The page this validator sealed.
        page: Digest256,
        /// Whether this validator saw quorum on a single page.
        committed: bool,
        /// Agreement on the winning page, in thousandths.
        agreement_milli: u32,
        /// Whether the round ran below quorum connectivity.
        degraded: bool,
        /// Connected validator peers when the round was sealed.
        connected: u32,
    },
    /// Feed: cumulative transport/supervision counters.
    TelemetryReport {
        /// Reporting node.
        from: u32,
        /// The counters (absolute values, not deltas).
        counters: Telemetry,
    },
}

/// Frame tags, one per message variant.
mod tag {
    pub const HELLO: u8 = 1;
    pub const PROPOSAL: u8 = 2;
    pub const VALIDATION: u8 = 3;
    pub const HEARTBEAT: u8 = 4;
    pub const STATE_REQUEST: u8 = 5;
    pub const STATE_SNAPSHOT: u8 = 6;
    pub const BAN: u8 = 7;
    pub const UNBAN: u8 = 8;
    pub const SHUTDOWN: u8 = 9;
    pub const ROUND_REPORT: u8 = 10;
    pub const TELEMETRY: u8 = 11;
}

/// A malformed or unknown wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<StoreError> for WireError {
    fn from(e: StoreError) -> WireError {
        WireError(match e {
            StoreError::Corrupt(msg) => msg,
            other => other.to_string(),
        })
    }
}

impl Encode for LinkKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let byte: u8 = match self {
            LinkKind::Validator => 0,
            LinkKind::Control => 1,
            LinkKind::Feed => 2,
        };
        byte.encode(out);
    }
}

impl Decode for LinkKind {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        match u8::decode(buf)? {
            0 => Ok(LinkKind::Validator),
            1 => Ok(LinkKind::Control),
            2 => Ok(LinkKind::Feed),
            other => Err(StoreError::corrupt(format!("invalid link kind {other}"))),
        }
    }
}

impl Encode for Telemetry {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self.fields() {
            v.encode(out);
        }
    }
}

impl Decode for Telemetry {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        let mut f = [0u64; 10];
        for slot in &mut f {
            *slot = u64::decode(buf)?;
        }
        Ok(Telemetry::from_fields(f))
    }
}

impl WireMsg {
    /// The frame tag this message encodes under.
    pub fn tag(&self) -> u8 {
        match self {
            WireMsg::Hello { .. } => tag::HELLO,
            WireMsg::Proposal { .. } => tag::PROPOSAL,
            WireMsg::Validation { .. } => tag::VALIDATION,
            WireMsg::Heartbeat { .. } => tag::HEARTBEAT,
            WireMsg::StateRequest { .. } => tag::STATE_REQUEST,
            WireMsg::StateSnapshot { .. } => tag::STATE_SNAPSHOT,
            WireMsg::Ban { .. } => tag::BAN,
            WireMsg::Unban { .. } => tag::UNBAN,
            WireMsg::Shutdown => tag::SHUTDOWN,
            WireMsg::RoundReport { .. } => tag::ROUND_REPORT,
            WireMsg::TelemetryReport { .. } => tag::TELEMETRY,
        }
    }

    /// Appends this message as one complete frame to `out`.
    ///
    /// # Panics
    ///
    /// If the payload exceeds [`crate::frame::MAX_PAYLOAD`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_with(out, self.tag(), |out| match self {
            WireMsg::Hello { from, kind } => {
                from.encode(out);
                kind.encode(out);
            }
            WireMsg::Proposal {
                from,
                round,
                iteration,
                seq,
                sent_ms,
                txs,
            } => {
                from.encode(out);
                round.encode(out);
                iteration.encode(out);
                seq.encode(out);
                sent_ms.encode(out);
                txs.encode(out);
            }
            WireMsg::Validation {
                from,
                round,
                seq,
                sent_ms,
                page,
            } => {
                from.encode(out);
                round.encode(out);
                seq.encode(out);
                sent_ms.encode(out);
                page.encode(out);
            }
            WireMsg::Heartbeat {
                from,
                round,
                sent_ms,
            } => {
                from.encode(out);
                round.encode(out);
                sent_ms.encode(out);
            }
            WireMsg::StateRequest { from } => from.encode(out),
            WireMsg::StateSnapshot {
                from,
                round,
                last_committed,
            } => {
                from.encode(out);
                round.encode(out);
                last_committed.encode(out);
            }
            WireMsg::Ban { peers } | WireMsg::Unban { peers } => peers.encode(out),
            WireMsg::Shutdown => {}
            WireMsg::RoundReport {
                from,
                round,
                page,
                committed,
                agreement_milli,
                degraded,
                connected,
            } => {
                from.encode(out);
                round.encode(out);
                page.encode(out);
                committed.encode(out);
                agreement_milli.encode(out);
                degraded.encode(out);
                connected.encode(out);
            }
            WireMsg::TelemetryReport { from, counters } => {
                from.encode(out);
                counters.encode(out);
            }
        });
    }

    /// Encodes this message as one complete frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a verified frame's payload.
    ///
    /// # Errors
    ///
    /// [`WireError`] on an unknown tag, truncated payload, invalid
    /// enum byte, or trailing garbage.
    pub fn decode(frame_tag: u8, mut payload: &[u8]) -> Result<WireMsg, WireError> {
        let buf = &mut payload;
        let msg = match frame_tag {
            tag::HELLO => WireMsg::Hello {
                from: Decode::decode(buf)?,
                kind: Decode::decode(buf)?,
            },
            tag::PROPOSAL => WireMsg::Proposal {
                from: Decode::decode(buf)?,
                round: Decode::decode(buf)?,
                iteration: Decode::decode(buf)?,
                seq: Decode::decode(buf)?,
                sent_ms: Decode::decode(buf)?,
                txs: Decode::decode(buf)?,
            },
            tag::VALIDATION => WireMsg::Validation {
                from: Decode::decode(buf)?,
                round: Decode::decode(buf)?,
                seq: Decode::decode(buf)?,
                sent_ms: Decode::decode(buf)?,
                page: Decode::decode(buf)?,
            },
            tag::HEARTBEAT => WireMsg::Heartbeat {
                from: Decode::decode(buf)?,
                round: Decode::decode(buf)?,
                sent_ms: Decode::decode(buf)?,
            },
            tag::STATE_REQUEST => WireMsg::StateRequest {
                from: Decode::decode(buf)?,
            },
            tag::STATE_SNAPSHOT => WireMsg::StateSnapshot {
                from: Decode::decode(buf)?,
                round: Decode::decode(buf)?,
                last_committed: Decode::decode(buf)?,
            },
            tag::BAN => WireMsg::Ban {
                peers: Decode::decode(buf)?,
            },
            tag::UNBAN => WireMsg::Unban {
                peers: Decode::decode(buf)?,
            },
            tag::SHUTDOWN => WireMsg::Shutdown,
            tag::ROUND_REPORT => WireMsg::RoundReport {
                from: Decode::decode(buf)?,
                round: Decode::decode(buf)?,
                page: Decode::decode(buf)?,
                committed: Decode::decode(buf)?,
                agreement_milli: Decode::decode(buf)?,
                degraded: Decode::decode(buf)?,
                connected: Decode::decode(buf)?,
            },
            tag::TELEMETRY => WireMsg::TelemetryReport {
                from: Decode::decode(buf)?,
                counters: Decode::decode(buf)?,
            },
            other => return Err(WireError(format!("unknown frame tag {other}"))),
        };
        if !buf.is_empty() {
            return Err(WireError("trailing bytes after payload".to_string()));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameDecoder, HEADER_LEN, TRAILER_LEN};
    use ripple_crypto::sha512_half;

    fn samples() -> Vec<WireMsg> {
        vec![
            WireMsg::Hello {
                from: 3,
                kind: LinkKind::Feed,
            },
            WireMsg::Proposal {
                from: 1,
                round: 42,
                iteration: 2,
                seq: 17,
                sent_ms: 1_700_000_000_123,
                txs: [7u64, 9, 4200].into_iter().collect(),
            },
            WireMsg::Validation {
                from: 0,
                round: 42,
                seq: 18,
                sent_ms: 1_700_000_000_456,
                page: sha512_half(b"page"),
            },
            WireMsg::Heartbeat {
                from: 4,
                round: 43,
                sent_ms: 1_700_000_000_789,
            },
            WireMsg::StateRequest { from: 2 },
            WireMsg::StateSnapshot {
                from: 2,
                round: 41,
                last_committed: Some(sha512_half(b"tip")),
            },
            WireMsg::StateSnapshot {
                from: 2,
                round: 0,
                last_committed: None,
            },
            WireMsg::Ban { peers: vec![0, 1] },
            WireMsg::Unban {
                peers: vec![0, 1, 2, 3, 4],
            },
            WireMsg::Shutdown,
            WireMsg::RoundReport {
                from: 1,
                round: 9,
                page: sha512_half(b"r9"),
                committed: true,
                agreement_milli: 800,
                degraded: false,
                connected: 4,
            },
            WireMsg::TelemetryReport {
                from: 1,
                counters: Telemetry {
                    reconnect_attempts: 3,
                    reconnect_successes: 2,
                    backoff_ms_total: 450,
                    frames_sent: 100,
                    frames_received: 97,
                    crc_errors: 1,
                    resyncs: 1,
                    state_resubs: 2,
                    degraded_rounds: 1,
                    heartbeats_sent: 20,
                },
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_the_framing() {
        let mut stream = Vec::new();
        let msgs = samples();
        for m in &msgs {
            m.encode_into(&mut stream);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame() {
            got.push(WireMsg::decode(f.tag, &f.payload).expect("decode"));
        }
        assert_eq!(got, msgs);
    }

    /// Absolute pin of every sample's frame bytes: the wire format is
    /// shared with the store's frame layout and field codec, and no byte
    /// may move. Constant taken at commit a75b81f.
    #[test]
    fn sample_frames_match_the_pinned_digest() {
        let mut stream = Vec::new();
        for m in samples() {
            m.encode_into(&mut stream);
        }
        assert_eq!(
            sha512_half(&stream).to_hex(),
            "7105e05337ba2f1d2aa65565fbfd4d6b38b9870e5c3eaa84d8e7684260f28e0b"
        );
    }

    #[test]
    fn unknown_tag_is_an_error() {
        assert!(WireMsg::decode(200, &[]).is_err());
    }

    #[test]
    fn truncations_never_panic() {
        for msg in samples() {
            let framed = msg.encode();
            let payload = &framed[HEADER_LEN..framed.len() - TRAILER_LEN];
            let tag = framed[0];
            for cut in 0..payload.len() {
                // Every strict prefix must decode to an error (or, for
                // self-delimiting prefixes, a different valid message —
                // never a panic, never an over-allocation).
                let _ = WireMsg::decode(tag, &payload[..cut]);
            }
            assert_eq!(WireMsg::decode(tag, payload).unwrap(), msg);
        }
    }

    #[test]
    fn corrupt_list_length_fails_fast() {
        // A Proposal whose tx-count claims more items than the payload
        // carries must error. The codec grows collections as items decode,
        // so the count alone allocates nothing
        // (`codec::tests::huge_corrupt_length_does_not_allocate`).
        let msg = WireMsg::Proposal {
            from: 0,
            round: 1,
            iteration: 0,
            seq: 0,
            sent_ms: 0,
            txs: [1u64].into_iter().collect(),
        };
        let framed = msg.encode();
        let mut payload = framed[HEADER_LEN..framed.len() - TRAILER_LEN].to_vec();
        // The count field sits after from(4) + round(8) + iteration(1)
        // + seq(8) + sent_ms(8).
        payload[29] = 0xff;
        payload[30] = 0xff;
        assert!(WireMsg::decode(framed[0], &payload).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let framed = WireMsg::Shutdown.encode();
        assert_eq!(framed.len(), HEADER_LEN + TRAILER_LEN);
        assert!(WireMsg::decode(framed[0], &[0u8]).is_err());
    }

    #[test]
    fn random_payload_bytes_never_panic() {
        // Cheap deterministic fuzz over all tags.
        let mut x = 0x9e3779b97f4a7c15u64;
        for tag in 0..=20u8 {
            for len in [0usize, 1, 4, 9, 13, 32, 64, 120] {
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x as u8
                    })
                    .collect();
                let _ = WireMsg::decode(tag, &bytes);
            }
        }
    }
}
