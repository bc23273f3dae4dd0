//! The one frame layout: the archive's records, the sidecar's sections and
//! the validator socket's messages are all
//!
//! ```text
//! frame := tag:u8 , len:u32be , payload[len] , crc32:u32be
//! ```
//!
//! with the CRC over tag, length and payload, so damage anywhere —
//! header included — fails verification. [`encode`] is the only writer and
//! [`parse`] the only reader of that layout; callers differ only in the
//! payload cap they pass and in what they do with a frame that does not
//! verify (the archive reader and the socket decoder each resync by calling
//! [`parse`] at successive offsets).

use crate::crc::crc32;

/// Frame header size: tag byte plus big-endian payload length.
pub const HEADER_LEN: usize = 5;
/// Frame trailer size: the CRC-32.
pub const TRAILER_LEN: usize = 4;

/// What [`parse`] found at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parsed<'a> {
    /// A verified frame: its tag, its payload and its total length in
    /// bytes, header and CRC included.
    Frame {
        /// The frame's type tag.
        tag: u8,
        /// The payload the CRC covers.
        payload: &'a [u8],
        /// Total frame length.
        len: usize,
    },
    /// The buffer holds fewer bytes than the header or than the frame its
    /// header declares; the value is the byte count that would settle it.
    Short(usize),
    /// The declared payload length is above the caller's cap.
    Oversize(usize),
    /// The frame is complete but its CRC does not match.
    BadCrc,
}

/// Appends one frame to `out`: `body` writes the payload in place, and the
/// length and CRC are filled in around it. Returns the payload length.
pub fn encode(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - start - HEADER_LEN;
    out[start + 1..start + HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
    len
}

/// Parses the frame at the front of `buf`, accepting payloads of at most
/// `cap` bytes. Total: every input maps to one [`Parsed`], never a panic.
pub fn parse(buf: &[u8], cap: usize) -> Parsed<'_> {
    let Some(&[tag, a, b, c, d]) = buf.first_chunk::<HEADER_LEN>() else {
        return Parsed::Short(HEADER_LEN);
    };
    let len = u32::from_be_bytes([a, b, c, d]) as usize;
    if len > cap {
        return Parsed::Oversize(len);
    }
    let covered = HEADER_LEN + len;
    let Some(&[w, x, y, z]) = buf.get(covered..).and_then(<[u8]>::first_chunk) else {
        return Parsed::Short(covered + TRAILER_LEN);
    };
    if crc32(&buf[..covered]) != u32::from_be_bytes([w, x, y, z]) {
        return Parsed::BadCrc;
    }
    Parsed::Frame {
        tag,
        payload: &buf[HEADER_LEN..covered],
        len: covered + TRAILER_LEN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CAP: usize = 1 << 16;

    /// 40 frames with payloads of 0..=195 bytes and distinct tags.
    fn clean_buffer() -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..40u8 {
            let body: Vec<u8> = (0..usize::from(i) * 5).map(|b| (b as u8) ^ i).collect();
            encode(&mut out, i, |o| o.extend_from_slice(&body));
        }
        out
    }

    /// Checks `parse`'s contract on one input: each verdict only when its
    /// condition holds.
    fn check_contract(buf: &[u8]) {
        match parse(buf, CAP) {
            Parsed::Frame { tag, payload, len } => {
                assert!(len <= buf.len());
                assert_eq!(len, HEADER_LEN + payload.len() + TRAILER_LEN);
                assert_eq!(tag, buf[0]);
                let stored = u32::from_be_bytes(buf[len - 4..len].try_into().unwrap());
                assert_eq!(crc32(&buf[..len - 4]), stored, "Frame without a valid CRC");
            }
            Parsed::Short(need) => {
                assert!(need > buf.len(), "Short({need}) on {} bytes", buf.len());
                if buf.len() >= HEADER_LEN {
                    let declared = u32::from_be_bytes(buf[1..5].try_into().unwrap()) as usize;
                    assert_eq!(need, HEADER_LEN + declared + TRAILER_LEN);
                } else {
                    assert_eq!(need, HEADER_LEN);
                }
            }
            Parsed::Oversize(len) => {
                assert!(len > CAP);
                assert_eq!(
                    len,
                    u32::from_be_bytes(buf[1..5].try_into().unwrap()) as usize
                );
            }
            Parsed::BadCrc => {
                let declared = u32::from_be_bytes(buf[1..5].try_into().unwrap()) as usize;
                let covered = HEADER_LEN + declared;
                assert!(buf.len() >= covered + TRAILER_LEN);
                let stored = u32::from_be_bytes(buf[covered..covered + 4].try_into().unwrap());
                assert_ne!(crc32(&buf[..covered]), stored);
            }
        }
    }

    #[test]
    fn encode_writes_the_layout() {
        let mut out = vec![0xAA];
        let len = encode(&mut out, 7, |o| o.extend_from_slice(b"hello"));
        assert_eq!(len, 5);
        assert_eq!(&out[..6], &[0xAA, 7, 0, 0, 0, 5]);
        assert_eq!(&out[6..11], b"hello");
        assert_eq!(&out[11..], &crc32(&out[1..11]).to_be_bytes());
        assert_eq!(
            parse(&out[1..], CAP),
            Parsed::Frame {
                tag: 7,
                payload: b"hello",
                len: 14
            }
        );
    }

    /// Seeded offline fuzz of the one layout: random bytes, every
    /// truncation and every single-bit flip of a clean 40-frame buffer.
    #[test]
    fn parse_is_total_and_honest_on_hostile_bytes() {
        let mut rng = StdRng::seed_from_u64(0xF2A3E);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..64);
            let mut junk: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // Half the cases get a small, plausible length field.
            if len >= HEADER_LEN && rng.gen() {
                junk[1..5].copy_from_slice(&rng.gen_range(0u32..80).to_be_bytes());
            }
            check_contract(&junk);
        }
        let clean = clean_buffer();
        // Start offset of every frame, by an in-order walk.
        let mut starts = vec![0];
        while let Parsed::Frame { len, .. } = parse(&clean[starts[starts.len() - 1]..], CAP) {
            starts.push(starts[starts.len() - 1] + len);
        }
        assert_eq!((starts.len(), starts[40]), (41, clean.len()));
        for cut in 0..=clean.len() {
            check_contract(&clean[..cut]);
            check_contract(&clean[cut..]);
        }
        let mut flipped = clean.clone();
        for bit in 0..clean.len() * 8 {
            let byte = bit / 8;
            let start = starts[starts.partition_point(|&s| s <= byte) - 1];
            flipped[byte] ^= 1 << (bit % 8);
            check_contract(&flipped[start..]);
            assert!(
                !matches!(parse(&flipped[start..], CAP), Parsed::Frame { .. }),
                "flip of bit {bit} verified"
            );
            flipped[byte] ^= 1 << (bit % 8);
        }
    }
}
