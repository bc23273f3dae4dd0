//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8 over compile-time tables.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC state after byte `b` and then `k` zero bytes, which lets
/// [`update`] fold eight input bytes per step with eight independent
/// lookups.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Advances the raw (pre-inversion) CRC `state` over `data`.
fn update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // The classic check value.
/// assert_eq!(ripple_store::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    !update(0xFFFF_FFFF, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `update` replaced, with its table entry
    /// computed inline so the reference shares nothing with [`TABLES`].
    fn crc32_reference(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            let mut entry = (crc ^ byte as u32) & 0xFF;
            for _ in 0..8 {
                entry = if entry & 1 != 0 {
                    (entry >> 1) ^ POLY
                } else {
                    entry >> 1
                };
            }
            crc = (crc >> 8) ^ entry;
        }
        !crc
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_alignment() {
        let buf = patterned(8 + 130);
        for start in 0..8 {
            for len in 0..=130 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_reference(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = patterned(1000);
        let whole = crc32_reference(&data);
        assert_eq!(crc32(&data), whole);
        for split in 0..=data.len() {
            let state = update(update(0xFFFF_FFFF, &data[..split]), &data[split..]);
            assert_eq!(!state, whole, "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let clean = crc32(&data);
        data[40] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
