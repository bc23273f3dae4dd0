//! From-scratch implementations of SHA-256 and SHA-512 (FIPS 180-4), plus the
//! XRP Ledger's `SHA-512Half` convention (the first 32 bytes of a SHA-512
//! digest). Both functions are validated against the official NIST test
//! vectors in this module's test suite, and the SHA-512 kernel against a
//! textbook FIPS 180-4 compressor kept there as its oracle.

use serde::{Deserialize, Serialize};

/// A 256-bit digest, as produced by [`sha256`] and [`sha512_half`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest256([u8; 32]);

/// A 512-bit digest, as produced by [`sha512`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest512([u8; 64]);

impl Digest256 {
    /// Wraps raw digest bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Self {
        Digest256(bytes)
    }

    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the digest, returning the underlying bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }
}

impl Digest512 {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }

    /// Consumes the digest, returning the underlying bytes.
    pub fn into_bytes(self) -> [u8; 64] {
        self.0
    }

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Returns the first half of the digest — the XRP Ledger `SHA-512Half`.
    pub fn first_half(&self) -> Digest256 {
        let mut out = [0u8; 32];
        out.copy_from_slice(&self.0[..32]);
        Digest256(out)
    }
}

impl std::fmt::Display for Digest256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl std::fmt::Display for Digest512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Digest512 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const SHA512_K: [u64; 80] = [
    0x428a2f98d728ae22,
    0x7137449123ef65cd,
    0xb5c0fbcfec4d3b2f,
    0xe9b5dba58189dbbc,
    0x3956c25bf348b538,
    0x59f111f1b605d019,
    0x923f82a4af194f9b,
    0xab1c5ed5da6d8118,
    0xd807aa98a3030242,
    0x12835b0145706fbe,
    0x243185be4ee4b28c,
    0x550c7dc3d5ffb4e2,
    0x72be5d74f27b896f,
    0x80deb1fe3b1696b1,
    0x9bdc06a725c71235,
    0xc19bf174cf692694,
    0xe49b69c19ef14ad2,
    0xefbe4786384f25e3,
    0x0fc19dc68b8cd5b5,
    0x240ca1cc77ac9c65,
    0x2de92c6f592b0275,
    0x4a7484aa6ea6e483,
    0x5cb0a9dcbd41fbd4,
    0x76f988da831153b5,
    0x983e5152ee66dfab,
    0xa831c66d2db43210,
    0xb00327c898fb213f,
    0xbf597fc7beef0ee4,
    0xc6e00bf33da88fc2,
    0xd5a79147930aa725,
    0x06ca6351e003826f,
    0x142929670a0e6e70,
    0x27b70a8546d22ffc,
    0x2e1b21385c26c926,
    0x4d2c6dfc5ac42aed,
    0x53380d139d95b3df,
    0x650a73548baf63de,
    0x766a0abb3c77b2a8,
    0x81c2c92e47edaee6,
    0x92722c851482353b,
    0xa2bfe8a14cf10364,
    0xa81a664bbc423001,
    0xc24b8b70d0f89791,
    0xc76c51a30654be30,
    0xd192e819d6ef5218,
    0xd69906245565a910,
    0xf40e35855771202a,
    0x106aa07032bbd1b8,
    0x19a4c116b8d2d0c8,
    0x1e376c085141ab53,
    0x2748774cdf8eeb99,
    0x34b0bcb5e19b48a8,
    0x391c0cb3c5c95a63,
    0x4ed8aa4ae3418acb,
    0x5b9cca4f7763e373,
    0x682e6ff3d6b2b8a3,
    0x748f82ee5defb2fc,
    0x78a5636f43172f60,
    0x84c87814a1f0ab72,
    0x8cc702081a6439ec,
    0x90befffa23631e28,
    0xa4506cebde82bde9,
    0xbef9a3f7b2c67915,
    0xc67178f2e372532b,
    0xca273eceea26619c,
    0xd186b8c721c0c207,
    0xeada7dd6cde0eb1e,
    0xf57d4f7fee6ed178,
    0x06f067aa72176fba,
    0x0a637dc5a2c898a6,
    0x113f9804bef90dae,
    0x1b710b35131c471b,
    0x28db77f523047d84,
    0x32caab7b40c72493,
    0x3c9ebe0a15c9bebc,
    0x431d67c49c100d4c,
    0x4cc5d4becb3e42b6,
    0x597f299cfc657e2a,
    0x5fcb6fab3ad6faec,
    0x6c44198c4a475817,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// let mut h = ripple_crypto::hash::Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), ripple_crypto::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            let mut arr = [0u8; 64];
            arr.copy_from_slice(block);
            self.compress(&arr);
            data = rest;
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffered = data.len();
        }
    }

    /// Finishes the computation, producing the digest.
    pub fn finalize(mut self) -> Digest256 {
        let bit_len = self.length.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buffered != 56 {
            self.update(&[0]);
        }
        // `update` adjusts `length`, but padding is not counted: use saved value.
        let mut block = self.buffer;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block.clone());
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest256(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        let prev = self.state;
        self.state = [
            prev[0].wrapping_add(a),
            prev[1].wrapping_add(b),
            prev[2].wrapping_add(c),
            prev[3].wrapping_add(d),
            prev[4].wrapping_add(e),
            prev[5].wrapping_add(f),
            prev[6].wrapping_add(g),
            prev[7].wrapping_add(h),
        ];
    }
}

/// Streaming SHA-512 hasher.
///
/// # Examples
///
/// ```
/// let mut h = ripple_crypto::hash::Sha512::new();
/// h.update(b"abc");
/// assert_eq!(h.finalize(), ripple_crypto::sha512(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha512 {
    state: [u64; 8],
    buffer: [u8; 128],
    buffered: usize,
    length: u128,
}

impl Default for Sha512 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha512 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha512 {
            state: [
                0x6a09e667f3bcc908,
                0xbb67ae8584caa73b,
                0x3c6ef372fe94f82b,
                0xa54ff53a5f1d36f1,
                0x510e527fade682d1,
                0x9b05688c2b3e6c1f,
                0x1f83d9abfb41bd6b,
                0x5be0cd19137e2179,
            ],
            buffer: [0u8; 128],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u128);
        if self.buffered > 0 {
            let take = (128 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 128 {
                return;
            }
            sha512_compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<128>();
        for block in blocks {
            sha512_compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes the computation, producing the digest.
    pub fn finalize(self) -> Digest512 {
        // Buffered bytes, the 0x80 marker, zeros and the 128-bit message
        // length in bits, written in one go: one block, or two when fewer
        // than 17 bytes are free after the buffered ones.
        let buffered = self.buffered;
        let mut tail = [0u8; 256];
        tail[..buffered].copy_from_slice(&self.buffer[..buffered]);
        tail[buffered] = 0x80;
        let end = if buffered < 112 { 128 } else { 256 };
        tail[end - 16..end].copy_from_slice(&self.length.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        for block in tail[..end].as_chunks::<128>().0 {
            sha512_compress(&mut state, block);
        }
        let mut out = [0u8; 64];
        for (bytes, word) in out.as_chunks_mut::<8>().0.iter_mut().zip(state) {
            *bytes = word.to_be_bytes();
        }
        Digest512(out)
    }
}

#[inline(always)]
fn sha512_ch(e: u64, f: u64, g: u64) -> u64 {
    (e & f) ^ (!e & g)
}

#[inline(always)]
fn sha512_maj(a: u64, b: u64, c: u64) -> u64 {
    (a & b) ^ (a & c) ^ (b & c)
}

#[inline(always)]
fn sha512_big_sigma0(a: u64) -> u64 {
    a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39)
}

#[inline(always)]
fn sha512_big_sigma1(e: u64) -> u64 {
    e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41)
}

#[inline(always)]
fn sha512_sigma0(w: u64) -> u64 {
    w.rotate_right(1) ^ w.rotate_right(8) ^ (w >> 7)
}

#[inline(always)]
fn sha512_sigma1(w: u64) -> u64 {
    w.rotate_right(19) ^ w.rotate_right(61) ^ (w >> 6)
}

/// One SHA-512 block. The message schedule is a rolling window of 16
/// words: round `t` of a group of 16 reads `w[t % 16]`, which the group
/// before refreshed in place (`W[t] = W[t-16] + σ0(W[t-15]) + W[t-7] +
/// σ1(W[t-2])`, all of them still in the window). The rounds are unrolled
/// eight at a time with the working variables renamed rather than shifted.
fn sha512_compress(state: &mut [u64; 8], block: &[u8; 128]) {
    let mut w = [0u64; 16];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<8>().0) {
        *word = u64::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round with the roles rotated: the caller's `d` and `h` receive
    // the new `e` and `a`.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $k:expr, $w:expr) => {
            let t1 = $h
                .wrapping_add(sha512_big_sigma1($e))
                .wrapping_add(sha512_ch($e, $f, $g))
                .wrapping_add($k)
                .wrapping_add($w);
            let t2 = sha512_big_sigma0($a).wrapping_add(sha512_maj($a, $b, $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    // Eight rounds: after them every variable is back in its own role.
    macro_rules! rounds8 {
        ($k:expr, $w:expr, $i:expr) => {
            round!(a, b, c, d, e, f, g, h, $k[$i], $w[$i]);
            round!(h, a, b, c, d, e, f, g, $k[$i + 1], $w[$i + 1]);
            round!(g, h, a, b, c, d, e, f, $k[$i + 2], $w[$i + 2]);
            round!(f, g, h, a, b, c, d, e, $k[$i + 3], $w[$i + 3]);
            round!(e, f, g, h, a, b, c, d, $k[$i + 4], $w[$i + 4]);
            round!(d, e, f, g, h, a, b, c, $k[$i + 5], $w[$i + 5]);
            round!(c, d, e, f, g, h, a, b, $k[$i + 6], $w[$i + 6]);
            round!(b, c, d, e, f, g, h, a, $k[$i + 7], $w[$i + 7]);
        };
    }

    let (groups, _) = SHA512_K.as_chunks::<16>();
    for (group, k) in groups.iter().enumerate() {
        if group > 0 {
            for i in 0..16 {
                w[i] = w[i]
                    .wrapping_add(sha512_sigma0(w[(i + 1) & 15]))
                    .wrapping_add(w[(i + 9) & 15])
                    .wrapping_add(sha512_sigma1(w[(i + 14) & 15]));
            }
        }
        rounds8!(k, w, 0);
        rounds8!(k, w, 8);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// Computes the SHA-256 digest of `data` in one call.
///
/// # Examples
///
/// ```
/// let d = ripple_crypto::sha256(b"abc");
/// assert_eq!(
///     d.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the SHA-512 digest of `data` in one call.
///
/// # Examples
///
/// ```
/// let d = ripple_crypto::sha512(b"");
/// assert!(d.to_hex().starts_with("cf83e1357eefb8bd"));
/// ```
pub fn sha512(data: &[u8]) -> Digest512 {
    let mut h = Sha512::new();
    h.update(data);
    h.finalize()
}

/// Computes `SHA-512Half(data)` — the first 256 bits of SHA-512 — which is the
/// hash the XRP Ledger uses for all object identities (transaction hashes,
/// ledger page hashes, and so on).
///
/// # Examples
///
/// ```
/// let h = ripple_crypto::sha512_half(b"page");
/// assert_eq!(h.as_bytes(), &ripple_crypto::sha512(b"page").as_bytes()[..32]);
/// ```
pub fn sha512_half(data: &[u8]) -> Digest256 {
    sha512(data).first_half()
}

/// Computes a fast, non-cryptographic 128-bit fingerprint of `data`
/// (MurmurHash3 x64-128). Collision probability between any two distinct
/// inputs is ~2⁻¹²⁸, so the digest can stand in for the full input as a
/// hash-map key in analytics pipelines — but it offers no preimage
/// resistance and must never gate anything security-relevant; use
/// [`sha512_half`] for object identities.
///
/// # Examples
///
/// ```
/// let a = ripple_crypto::mix128(b"fingerprint tuple");
/// let b = ripple_crypto::mix128(b"fingerprint tuple");
/// assert_eq!(a, b);
/// assert_ne!(a, ripple_crypto::mix128(b"another tuple"));
/// ```
pub fn mix128(data: &[u8]) -> u128 {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    fn fmix64(mut k: u64) -> u64 {
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^= k >> 33;
        k
    }

    let mut h1: u64 = 0x9e37_79b9_7f4a_7c15; // seed: golden-ratio constant
    let mut h2: u64 = h1;
    // A block's two little-endian words are the halves of one
    // little-endian `u128`.
    let halves = |block: [u8; 16]| {
        let v = u128::from_le_bytes(block);
        (v as u64, (v >> 64) as u64)
    };
    let (blocks, tail) = data.as_chunks::<16>();
    for block in blocks {
        let (mut k1, mut k2) = halves(*block);
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 = (h1 ^ k1)
            .rotate_left(27)
            .wrapping_add(h2)
            .wrapping_mul(5)
            .wrapping_add(0x52dc_e729);
        k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 = (h2 ^ k2)
            .rotate_left(31)
            .wrapping_add(h1)
            .wrapping_mul(5)
            .wrapping_add(0x3849_5ab5);
    }
    if !tail.is_empty() {
        let mut block = [0u8; 16];
        block[..tail.len()].copy_from_slice(tail);
        let (mut k1, mut k2) = halves(block);
        k2 = k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        h2 ^= k2;
        k1 = k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        h1 ^= k1;
    }
    h1 ^= data.len() as u64;
    h2 ^= data.len() as u64;
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    h1 = fmix64(h1);
    h2 = fmix64(h2);
    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);
    ((h1 as u128) << 64) | h2 as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook FIPS 180-4 compressor, kept as the oracle for
    /// [`sha512_compress`]: the full 80-word schedule expanded up front, one
    /// round per iteration, the eight working variables shifted each round.
    fn sha512_compress_textbook(state: &mut [u64; 8], block: &[u8; 128]) {
        let mut w = [0u64; 80];
        for (i, chunk) in block.chunks_exact(8).enumerate() {
            w[i] = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        for i in 16..80 {
            let s0 = w[i - 15].rotate_right(1) ^ w[i - 15].rotate_right(8) ^ (w[i - 15] >> 7);
            let s1 = w[i - 2].rotate_right(19) ^ w[i - 2].rotate_right(61) ^ (w[i - 2] >> 6);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..80 {
            let s1 = e.rotate_right(14) ^ e.rotate_right(18) ^ e.rotate_right(41);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA512_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(28) ^ a.rotate_right(34) ^ a.rotate_right(39);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }

    /// SHA-512 through the textbook compressor, padded the textbook way:
    /// the message, 0x80, zeros up to 112 mod 128, the 128-bit bit length.
    fn sha512_textbook(data: &[u8]) -> Digest512 {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 128 != 112 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u128 * 8).to_be_bytes());
        let mut state = Sha512::new().state;
        for block in padded.chunks_exact(128) {
            sha512_compress_textbook(&mut state, block.try_into().expect("128-byte block"));
        }
        let mut out = [0u8; 64];
        for (i, word) in state.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&word.to_be_bytes());
        }
        Digest512(out)
    }

    /// Deterministic, non-repeating test bytes.
    fn message(len: usize) -> Vec<u8> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn sha512_matches_the_textbook_compressor_at_every_length() {
        let data = message(1_024);
        for len in 0..=data.len() {
            assert_eq!(
                sha512(&data[..len]),
                sha512_textbook(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn sha512_padding_boundaries_match_the_textbook_compressor() {
        // 111 leaves exactly room for the marker and the length; 112 and
        // 127 push the length into a second block; 128 starts a new one;
        // 239 and 240 are the same edges one block later.
        for len in [111, 112, 127, 128, 239, 240] {
            let data = message(len);
            let oracle = sha512_textbook(&data);
            assert_eq!(sha512(&data), oracle, "one-shot, length {len}");
            let mut h = Sha512::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), oracle, "byte at a time, length {len}");
        }
    }

    proptest! {
        #[test]
        fn sha512_random_update_splits_match_the_textbook_compressor(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            cuts in proptest::collection::vec(0usize..700, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Sha512::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&data[from..cut]);
                from = cut;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finalize(), sha512_textbook(&data));
        }
    }

    #[test]
    fn sha256_nist_vectors() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha512_nist_vectors() {
        assert_eq!(
            sha512(b"").to_hex(),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce\
             47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            sha512(b"abc").to_hex(),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
             2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
                .replace(char::is_whitespace, "")
        );
        assert_eq!(
            sha512(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )
            .to_hex(),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018\
             501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn sha512_million_a() {
        let mut h = Sha512::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb\
             de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b"
                .replace(char::is_whitespace, "")
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1021u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 128, 129, 500] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "sha256 split at {split}");

            let mut h = Sha512::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha512(&data), "sha512 split at {split}");
        }
    }

    #[test]
    fn sha512_half_is_prefix() {
        let d = sha512(b"hello world");
        assert_eq!(sha512_half(b"hello world").as_bytes(), &d.as_bytes()[..32]);
    }

    #[test]
    fn digest_display_is_hex() {
        let d = sha256(b"x");
        assert_eq!(format!("{d}"), d.to_hex());
        assert_eq!(d.to_hex().len(), 64);
    }

    #[test]
    fn mix128_is_deterministic_and_spread() {
        assert_eq!(mix128(b""), mix128(b""));
        assert_eq!(mix128(b"abc"), mix128(b"abc"));
        // Length is absorbed: a zero-padded tail differs from the shorter
        // input it pads.
        assert_ne!(mix128(b"abc"), mix128(b"abc\0"));
        // Single-bit input changes flip roughly half the output bits.
        let a = mix128(&[0u8; 48]);
        let mut flipped = [0u8; 48];
        flipped[47] = 1;
        let b = mix128(&flipped);
        let differing = (a ^ b).count_ones();
        assert!(
            (32..=96).contains(&differing),
            "poor avalanche: {differing} bits"
        );
    }

    #[test]
    fn mix128_no_collisions_over_dense_inputs() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..20_000 {
            assert!(seen.insert(mix128(&i.to_le_bytes())), "collision at {i}");
        }
    }
}
