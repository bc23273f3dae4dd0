//! The live socket transport's framing: the workspace's one frame layout
//! ([`ripple_store::frame`]) under a 1 MiB payload cap, and no file magic —
//! a connection is a stream of frames, not a file.
//!
//! [`FrameDecoder`] is incremental: bytes arrive in whatever chunks the
//! socket produces (`push`), and whole verified frames come out
//! (`next_frame`). Torn reads and frames split across `read()` boundaries
//! are the normal case, not an error. A frame that fails verification
//! triggers *resync-and-continue*: the decoder tries
//! [`ripple_store::frame::parse`] at successive offsets until the next
//! CRC-valid frame and accounts for what it skipped in [`DecoderStats`].
//! Unlike the archive reader's resync, it waits at a plausible but
//! incomplete candidate, because more bytes may still arrive.

use ripple_store::frame::{self, Parsed};

pub use ripple_store::frame::{HEADER_LEN, TRAILER_LEN};

/// Maximum payload a frame may carry. A corrupt length field must never
/// stall the decoder waiting for gigabytes that will not come.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Appends one encoded frame to `out`.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_PAYLOAD`].
pub fn encode_frame(tag: u8, payload: &[u8], out: &mut Vec<u8>) {
    encode_with(out, tag, |o| o.extend_from_slice(payload));
}

/// Appends one frame whose payload `body` writes in place.
///
/// # Panics
///
/// If the payload exceeds [`MAX_PAYLOAD`].
pub(crate) fn encode_with(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let len = frame::encode(out, tag, body);
    assert!(
        len <= MAX_PAYLOAD,
        "frame payload over cap: {len} > {MAX_PAYLOAD}"
    );
}

/// One verified frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's type tag.
    pub tag: u8,
    /// The frame payload.
    pub payload: Vec<u8>,
}

/// Decoder-side damage and throughput accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecoderStats {
    /// Verified frames produced.
    pub frames: u64,
    /// Frame candidates whose CRC check failed.
    pub crc_errors: u64,
    /// Corrupt regions crossed (one resync may skip many bytes).
    pub resyncs: u64,
    /// Bytes discarded while hunting for the next valid frame.
    pub skipped_bytes: u64,
}

/// Incremental, resyncing frame decoder over an in-memory byte buffer.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted periodically).
    pos: usize,
    /// Inside a corrupt region: the next valid frame ends it.
    resyncing: bool,
    stats: DecoderStats,
}

/// Compact the consumed prefix away once it crosses this threshold.
const COMPACT_AT: usize = 64 * 1024;

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends bytes received from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos >= COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Damage and throughput counters so far.
    pub fn stats(&self) -> DecoderStats {
        self.stats
    }

    /// Extracts the next verified frame, or `None` if the buffer holds no
    /// complete valid frame yet. A frame that fails verification starts a
    /// resync: each later offset is tried in turn until one verifies, and
    /// corrupt data never surfaces as a frame.
    pub fn next_frame(&mut self) -> Option<Frame> {
        let rem = &self.buf[self.pos..];
        // Offsets past this cannot even fit a header yet.
        let tail = rem.len().saturating_sub(HEADER_LEN - 1);
        let mut park: Option<usize> = None;
        for offset in 0..tail {
            match frame::parse(&rem[offset..], MAX_PAYLOAD) {
                Parsed::Frame { tag, payload, len } => {
                    let frame = Frame {
                        tag,
                        payload: payload.to_vec(),
                    };
                    if self.resyncing {
                        self.resyncing = false;
                        self.stats.resyncs += 1;
                    }
                    self.stats.skipped_bytes += offset as u64;
                    self.stats.frames += 1;
                    self.pos += offset + len;
                    return Some(frame);
                }
                // In sync, a partial frame is the normal case: wait for
                // the rest.
                Parsed::Short(_) if !self.resyncing => return None,
                // Resyncing, a plausible but incomplete candidate cannot be
                // judged until more bytes arrive. Remember the earliest such
                // spot and keep scanning for a complete frame beyond it.
                Parsed::Short(_) => {
                    park.get_or_insert(offset);
                }
                // Complete candidate, bad CRC: one corrupt frame.
                Parsed::BadCrc if !self.resyncing => {
                    self.stats.crc_errors += 1;
                    self.resyncing = true;
                }
                // An implausible length field is corruption by
                // construction: never wait for bytes that will not come.
                Parsed::Oversize(_) => self.resyncing = true,
                Parsed::BadCrc => {}
            }
        }
        // No complete valid frame in the buffer. Discard everything before
        // the earliest still-plausible candidate (or all but a header's
        // worth of tail bytes) so garbage cannot pile up.
        let keep_from = park.unwrap_or(tail);
        self.stats.skipped_bytes += keep_from as u64;
        self.pos += keep_from;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_store::{corrupt_bytes, CorruptionPlan};

    fn frames(n: u8) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            let payload: Vec<u8> = (0..(i as usize * 7 + 3)).map(|b| b as u8 ^ i).collect();
            encode_frame(i, &payload, &mut out);
        }
        out
    }

    fn drain(dec: &mut FrameDecoder) -> Vec<Frame> {
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame() {
            out.push(f);
        }
        out
    }

    #[test]
    fn round_trip_in_one_push() {
        let mut dec = FrameDecoder::new();
        dec.push(&frames(5));
        let got = drain(&mut dec);
        assert_eq!(got.len(), 5);
        assert_eq!(got[2].tag, 2);
        assert_eq!(dec.stats().crc_errors, 0);
        assert_eq!(dec.buf.len(), dec.pos, "nothing left unconsumed");
    }

    #[test]
    fn torn_reads_byte_by_byte() {
        // The worst torn read: one byte per `read()` call.
        let bytes = frames(4);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &bytes {
            dec.push(std::slice::from_ref(b));
            got.extend(drain(&mut dec));
        }
        assert_eq!(got.len(), 4);
        assert_eq!(dec.stats().skipped_bytes, 0);
    }

    #[test]
    fn partial_frames_across_every_split_point() {
        // Two frames split at every possible boundary must always decode
        // to exactly the same two frames.
        let bytes = frames(2);
        for cut in 0..=bytes.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&bytes[..cut]);
            let mut got = drain(&mut dec);
            dec.push(&bytes[cut..]);
            got.extend(drain(&mut dec));
            assert_eq!(got.len(), 2, "split at {cut}");
            assert_eq!(dec.stats().crc_errors, 0, "split at {cut}");
        }
    }

    #[test]
    fn crc_corruption_triggers_resync_and_continue() {
        // Flip one payload byte in the middle frame of five: the decoder
        // must drop only that frame and keep decoding the rest.
        let mut bytes = frames(5);
        let f = frames(2).len(); // offset of frame 2
        bytes[f + HEADER_LEN + 1] ^= 0xff;
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let got = drain(&mut dec);
        assert_eq!(got.len(), 4, "one frame lost, no more");
        assert!(got.iter().all(|fr| fr.tag != 2));
        let stats = dec.stats();
        assert_eq!(stats.crc_errors, 1);
        assert_eq!(stats.resyncs, 1);
        assert!(stats.skipped_bytes > 0);
    }

    #[test]
    fn corrupt_length_field_does_not_stall() {
        // Damage the length field to a huge value: the decoder must not
        // sit waiting for 4 GiB, it must resync past the bad header.
        let mut bytes = frames(3);
        let f = frames(1).len();
        bytes[f + 1] = 0xff; // most-significant length byte of frame 1
        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let got = drain(&mut dec);
        assert_eq!(got.len(), 2);
        assert!(dec.stats().skipped_bytes > 0);
    }

    #[test]
    fn chaos_corpora_never_panic_and_salvage_the_rest() {
        // Reuse the store's corruption corpora: scattered bit flips plus a
        // torn tail over a 40-frame stream. Decoding must never panic and
        // must salvage frames outside the blast radius.
        let clean = frames(40);
        let len = clean.len() as u64;
        for seed in 0..20u64 {
            let plan =
                CorruptionPlan::scattered_flips(seed, 4, len / 4, 3 * len / 4).truncate_at(len - 7);
            let damaged = corrupt_bytes(&clean, &plan);
            let mut dec = FrameDecoder::new();
            // Feed in ragged chunks to combine corruption with torn reads.
            for chunk in damaged.chunks(11) {
                dec.push(chunk);
            }
            let got = drain(&mut dec);
            assert!(got.len() >= 8, "seed {seed}: salvaged only {}", got.len());
            assert!(got.len() < 40, "seed {seed}: corruption must cost frames");
            let stats = dec.stats();
            assert_eq!(stats.frames, got.len() as u64);
            assert!(stats.crc_errors >= 1, "seed {seed}");
        }
    }

    #[test]
    fn ragged_chunks_yield_exactly_the_parse_walk() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let clean = frames(40);
        let mut walk = Vec::new();
        let mut pos = 0;
        while let Parsed::Frame { tag, payload, len } = frame::parse(&clean[pos..], MAX_PAYLOAD) {
            walk.push(Frame {
                tag,
                payload: payload.to_vec(),
            });
            pos += len;
        }
        assert_eq!((walk.len(), pos), (40, clean.len()));
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut rest = clean.as_slice();
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..=rest.len().min(97)));
                dec.push(chunk);
                got.extend(drain(&mut dec));
                rest = tail;
            }
            assert_eq!(got, walk, "seed {seed}");
            let stats = DecoderStats {
                frames: 40,
                ..DecoderStats::default()
            };
            assert_eq!(dec.stats(), stats, "seed {seed}");
        }
    }

    #[test]
    fn pure_garbage_yields_nothing() {
        let mut dec = FrameDecoder::new();
        let junk: Vec<u8> = (0..4096u32).map(|i| (i * 37 % 251) as u8).collect();
        dec.push(&junk);
        assert!(drain(&mut dec).is_empty());
        assert_eq!(dec.stats().frames, 0);
    }

    #[test]
    #[should_panic(expected = "frame payload over cap")]
    fn oversize_payload_rejected_at_encode() {
        let mut out = Vec::new();
        encode_frame(0, &vec![0u8; MAX_PAYLOAD + 1], &mut out);
    }
}
