//! Deterministic corruption injection for archive robustness testing.
//!
//! [`corrupt_bytes`] applies a [`CorruptionPlan`] — bit flips, dropped byte
//! ranges (torn writes), zeroed pages, and truncation — to a clean archive.
//! Offsets in the plan always refer to positions in the **uncorrupted**
//! stream, so a plan describes "what the disk lost".
//!
//! This module exists to exercise [`Reader`](crate::Reader) in
//! [`ReadMode::Resync`](crate::ReadMode::Resync): damage a clean archive,
//! then assert that every record outside the damaged regions is salvaged.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One corruption primitive, addressed by uncorrupted-stream offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionOp {
    /// XOR one bit (0–7) of the byte at `offset`.
    FlipBit {
        /// Byte position in the uncorrupted stream.
        offset: u64,
        /// Bit index within that byte, 0 = least significant.
        bit: u8,
    },
    /// Remove `len` bytes starting at `offset` — a torn write: later bytes
    /// shift down to fill the hole.
    DropRange {
        /// First byte removed.
        offset: u64,
        /// Number of bytes removed.
        len: u64,
    },
    /// Overwrite `len` bytes starting at `offset` with zeros — a lost
    /// page that kept its length.
    ZeroRange {
        /// First byte zeroed.
        offset: u64,
        /// Number of bytes zeroed.
        len: u64,
    },
    /// Discard everything at and after `offset` — a crash mid-flush.
    TruncateAt {
        /// First byte discarded.
        offset: u64,
    },
}

/// An ordered set of [`CorruptionOp`]s applied by [`corrupt_bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionPlan {
    ops: Vec<CorruptionOp>,
}

impl CorruptionPlan {
    /// An empty plan ([`corrupt_bytes`] returns the input unchanged).
    pub fn new() -> CorruptionPlan {
        CorruptionPlan::default()
    }

    /// Appends `op`. Panics on a [`CorruptionOp::FlipBit`] whose bit index
    /// is above 7.
    #[must_use]
    pub(crate) fn push(mut self, op: CorruptionOp) -> CorruptionPlan {
        if let CorruptionOp::FlipBit { bit, .. } = op {
            assert!(bit < 8, "bit index must be 0–7, got {bit}");
        }
        self.ops.push(op);
        self
    }

    /// Adds a single-bit flip at `offset`.
    #[must_use]
    pub fn flip_bit(self, offset: u64, bit: u8) -> CorruptionPlan {
        self.push(CorruptionOp::FlipBit { offset, bit })
    }

    /// Truncates the stream at `offset`.
    #[must_use]
    pub fn truncate_at(self, offset: u64) -> CorruptionPlan {
        self.push(CorruptionOp::TruncateAt { offset })
    }

    /// Seed-deterministic scatter of `count` bit flips over
    /// `range_start..range_end` of the stream. Same arguments, same plan.
    pub fn scattered_flips(seed: u64, count: usize, range_start: u64, range_end: u64) -> Self {
        assert!(range_start < range_end, "empty scatter range");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca7_7e4f_1195_u64);
        let mut plan = CorruptionPlan::new();
        for _ in 0..count {
            let offset = rng.gen_range(range_start..range_end);
            let bit = rng.gen_range(0..8u8);
            plan = plan.flip_bit(offset, bit);
        }
        plan
    }

    /// The smallest `TruncateAt` offset, if any.
    fn truncation_point(&self) -> Option<u64> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                CorruptionOp::TruncateAt { offset } => Some(*offset),
                _ => None,
            })
            .min()
    }

    /// Transforms one byte at uncorrupted-stream `offset`; `None` means
    /// the byte is dropped entirely.
    fn transform(&self, offset: u64, byte: u8) -> Option<u8> {
        let mut out = byte;
        for op in &self.ops {
            match *op {
                CorruptionOp::FlipBit { offset: at, bit } if at == offset => {
                    out ^= 1 << bit;
                }
                CorruptionOp::DropRange { offset: at, len }
                    if offset >= at && offset < at.saturating_add(len) =>
                {
                    return None;
                }
                CorruptionOp::ZeroRange { offset: at, len }
                    if offset >= at && offset < at.saturating_add(len) =>
                {
                    out = 0;
                }
                _ => {}
            }
        }
        Some(out)
    }
}

/// Collects ops into a plan in order, with [`CorruptionPlan::flip_bit`]'s
/// bit-index check.
impl FromIterator<CorruptionOp> for CorruptionPlan {
    fn from_iter<I: IntoIterator<Item = CorruptionOp>>(ops: I) -> CorruptionPlan {
        ops.into_iter()
            .fold(CorruptionPlan::new(), CorruptionPlan::push)
    }
}

/// Applies `plan` to an in-memory byte string.
pub fn corrupt_bytes(clean: &[u8], plan: &CorruptionPlan) -> Vec<u8> {
    let truncate = plan.truncation_point().unwrap_or(u64::MAX);
    clean
        .iter()
        .enumerate()
        .take_while(|(i, _)| (*i as u64) < truncate)
        .filter_map(|(i, &byte)| plan.transform(i as u64, byte))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_transparent() {
        let clean = b"hello, archive".to_vec();
        assert_eq!(corrupt_bytes(&clean, &CorruptionPlan::new()), clean);
    }

    #[test]
    fn flip_bit_xors_exactly_one_bit() {
        let clean = vec![0u8; 8];
        let out = corrupt_bytes(&clean, &CorruptionPlan::new().flip_bit(5, 3));
        assert_eq!(out[5], 0b0000_1000);
        assert!(out.iter().enumerate().all(|(i, &b)| i == 5 || b == 0));
    }

    #[test]
    fn drop_range_shortens_stream() {
        let clean: Vec<u8> = (0..10).collect();
        let out = corrupt_bytes(
            &clean,
            &CorruptionPlan::new().push(CorruptionOp::DropRange { offset: 2, len: 3 }),
        );
        assert_eq!(out, vec![0, 1, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn zero_range_keeps_length() {
        let clean: Vec<u8> = (1..=6).collect();
        let out = corrupt_bytes(
            &clean,
            &CorruptionPlan::new().push(CorruptionOp::ZeroRange { offset: 1, len: 2 }),
        );
        assert_eq!(out, vec![1, 0, 0, 4, 5, 6]);
    }

    #[test]
    fn truncate_discards_tail_across_chunks() {
        let clean: Vec<u8> = (0..20).collect();
        let out = corrupt_bytes(&clean, &CorruptionPlan::new().truncate_at(7));
        assert_eq!(out, (0..7).collect::<Vec<u8>>());
    }

    #[test]
    fn scattered_flips_are_seed_deterministic() {
        let a = CorruptionPlan::scattered_flips(7, 16, 8, 4096);
        let b = CorruptionPlan::scattered_flips(7, 16, 8, 4096);
        let c = CorruptionPlan::scattered_flips(8, 16, 8, 4096);
        assert_eq!(a, b, "same seed must give the same plan");
        assert_ne!(a, c, "different seeds should differ");
        assert_eq!(a.ops.len(), 16);
    }

    #[test]
    #[should_panic(expected = "bit index")]
    fn flip_bit_rejects_out_of_range_bit() {
        let _ = CorruptionPlan::new().flip_bit(0, 8);
    }
}
