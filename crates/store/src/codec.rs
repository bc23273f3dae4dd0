//! Field-level binary encoding.
//!
//! Every type encodes with a fixed field order and big-endian integers;
//! variable-length parts carry `u32` count prefixes, options and bools one
//! 0/1 byte. Archive payloads, sidecar fields and the validator wire
//! messages (`ripple_node::wire`) all use this one codec. The format
//! favours sequential scan speed: a reader can skip any record from its
//! frame header without decoding the payload.

use std::collections::BTreeSet;

use bytes::{Buf, BufMut};

use ripple_crypto::{AccountId, Digest256};
use ripple_ledger::{Currency, PathSummary, PaymentRecord, RippleTime, Value};

use crate::stream::StoreError;

/// Serializes a value into the canonical binary form.
pub trait Encode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Deserializes a value from the canonical binary form.
pub trait Decode: Sized {
    /// Reads a value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on malformed or truncated input.
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError>;
}

fn need(buf: &&[u8], n: usize) -> Result<(), StoreError> {
    if buf.len() < n {
        Err(StoreError::corrupt("unexpected end of payload"))
    } else {
        Ok(())
    }
}

/// Big-endian fixed-width integers.
macro_rules! be_int {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.$put(*self);
            }
        }

        impl Decode for $t {
            fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
                need(buf, std::mem::size_of::<$t>())?;
                Ok(buf.$get())
            }
        }
    )*};
}

be_int! {
    u8: put_u8, get_u8;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    i128: put_i128, get_i128;
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u8(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StoreError::corrupt(format!("invalid bool byte {other}"))),
        }
    }
}

impl Encode for AccountId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_slice(self.as_bytes());
    }
}

impl Decode for AccountId {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 20)?;
        let mut bytes = [0u8; 20];
        buf.copy_to_slice(&mut bytes);
        Ok(AccountId::from_bytes(bytes))
    }
}

impl Encode for Digest256 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_slice(self.as_bytes());
    }
}

impl Decode for Digest256 {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 32)?;
        let mut bytes = [0u8; 32];
        buf.copy_to_slice(&mut bytes);
        Ok(Digest256::from_bytes(bytes))
    }
}

impl Encode for Currency {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_slice(self.as_bytes());
    }
}

impl Decode for Currency {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 3)?;
        let mut bytes = [0u8; 3];
        buf.copy_to_slice(&mut bytes);
        let code = std::str::from_utf8(&bytes)
            .map_err(|_| StoreError::corrupt("non-UTF8 currency code"))?;
        Currency::try_code(code).ok_or_else(|| StoreError::corrupt("invalid currency code"))
    }
}

impl Encode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_i128(self.raw());
    }
}

impl Decode for Value {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 16)?;
        Ok(Value::from_raw(buf.get_i128()))
    }
}

impl Encode for RippleTime {
    fn encode(&self, out: &mut Vec<u8>) {
        out.put_u64(self.seconds());
    }
}

impl Decode for RippleTime {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 8)?;
        Ok(RippleTime::from_seconds(buf.get_u64()))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.put_u8(0),
            Some(v) => {
                out.put_u8(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            other => Err(StoreError::corrupt(format!("invalid option byte {other}"))),
        }
    }
}

/// A `u32` count, then the items.
fn encode_seq<'a, T: Encode + 'a>(items: impl ExactSizeIterator<Item = &'a T>, out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    for item in items {
        item.encode(out);
    }
}

/// Reads what [`encode_seq`] wrote. The collection grows as items decode:
/// a corrupt count must not trigger a huge allocation up front.
fn decode_seq<T: Decode, C: Default + Extend<T>>(buf: &mut &[u8]) -> Result<C, StoreError> {
    let len = u32::decode(buf)?;
    let mut out = C::default();
    for _ in 0..len {
        out.extend(Some(T::decode(buf)?));
    }
    Ok(out)
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        decode_seq(buf)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self.iter(), out);
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        decode_seq(buf)
    }
}

/// The same bytes as a `Vec<Vec<AccountId>>`: the path count, then each
/// path's hop count and hops.
impl Encode for PathSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.parallel_paths() as u32).encode(out);
        for path in self.paths() {
            encode_seq(path.iter(), out);
        }
    }
}

impl Decode for PathSummary {
    /// Every length is checked against the bytes present before the table
    /// is allocated, and the table is then written once from the bytes.
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        let count = u32::decode(buf)?;
        let mut rest = *buf;
        for _ in 0..count {
            let hops = u32::decode(&mut rest)? as usize;
            need(&rest, hops.saturating_mul(20))?;
            rest.advance(hops * 20);
        }
        let (paths, rest) = buf.split_at(buf.len() - rest.len());
        *buf = rest;
        Ok(PathSummary::from_path_iters(EncodedPaths(paths)))
    }
}

/// Walks validated path bytes (each path a `u32` hop count, then its
/// hops), yielding each path's accounts.
#[derive(Clone)]
struct EncodedPaths<'a>(&'a [u8]);

impl<'a> Iterator for EncodedPaths<'a> {
    type Item = std::iter::Map<std::slice::Iter<'a, [u8; 20]>, fn(&[u8; 20]) -> AccountId>;

    fn next(&mut self) -> Option<Self::Item> {
        let (hops, rest) = self.0.split_first_chunk::<4>()?;
        let (path, rest) = rest.split_at_checked(u32::from_be_bytes(*hops) as usize * 20)?;
        self.0 = rest;
        let to_account: fn(&[u8; 20]) -> AccountId = |bytes| AccountId::from_bytes(*bytes);
        Some(path.as_chunks::<20>().0.iter().map(to_account))
    }
}

impl Encode for PaymentRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tx_hash.encode(out);
        self.sender.encode(out);
        self.destination.encode(out);
        self.currency.encode(out);
        self.issuer.encode(out);
        self.amount.encode(out);
        self.timestamp.encode(out);
        self.ledger_seq.encode(out);
        self.paths.encode(out);
        self.cross_currency.encode(out);
        self.source_currency.encode(out);
    }
}

impl Decode for PaymentRecord {
    fn decode(buf: &mut &[u8]) -> Result<Self, StoreError> {
        Ok(PaymentRecord {
            tx_hash: Decode::decode(buf)?,
            sender: Decode::decode(buf)?,
            destination: Decode::decode(buf)?,
            currency: Decode::decode(buf)?,
            issuer: Decode::decode(buf)?,
            amount: Decode::decode(buf)?,
            timestamp: Decode::decode(buf)?,
            ledger_seq: Decode::decode(buf)?,
            paths: Decode::decode(buf)?,
            cross_currency: Decode::decode(buf)?,
            source_currency: Decode::decode(buf)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ripple_crypto::sha512_half;

    /// Encodes a value to a fresh buffer.
    fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.encode(&mut out);
        out
    }

    /// Decodes a value from a buffer, requiring full consumption.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on malformed input or trailing bytes.
    fn from_bytes<T: Decode>(mut buf: &[u8]) -> Result<T, StoreError> {
        let value = T::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(StoreError::corrupt("trailing bytes after payload"));
        }
        Ok(value)
    }

    fn sample_record() -> PaymentRecord {
        PaymentRecord {
            tx_hash: sha512_half(b"x"),
            sender: AccountId::from_bytes([1; 20]),
            destination: AccountId::from_bytes([2; 20]),
            currency: Currency::BTC,
            issuer: Some(AccountId::from_bytes([3; 20])),
            amount: "0.003".parse().unwrap(),
            timestamp: RippleTime::from_seconds(123_456),
            ledger_seq: 42,
            paths: PathSummary::from_paths(vec![vec![AccountId::from_bytes([4; 20])], vec![]]),
            cross_currency: true,
            source_currency: Some(Currency::USD),
        }
    }

    #[test]
    fn payment_record_round_trip() {
        let rec = sample_record();
        let bytes = to_bytes(&rec);
        let back: PaymentRecord = from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn truncated_payload_is_corrupt() {
        let bytes = to_bytes(&sample_record());
        for cut in [0, 1, 10, bytes.len() - 1] {
            assert!(
                from_bytes::<PaymentRecord>(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&sample_record());
        bytes.push(0);
        assert!(from_bytes::<PaymentRecord>(&bytes).is_err());
    }

    #[test]
    fn invalid_option_byte_rejected() {
        let bytes = vec![7u8];
        assert!(from_bytes::<Option<u32>>(&bytes).is_err());
    }

    #[test]
    fn huge_corrupt_length_does_not_allocate() {
        // A length prefix of u32::MAX with no data must fail fast.
        let bytes = u32::MAX.to_be_bytes().to_vec();
        assert!(from_bytes::<Vec<u32>>(&bytes).is_err());
    }

    /// The encoder before the path table: the hop lists as a
    /// `Vec<Vec<AccountId>>`. The table must write the same bytes.
    fn encode_hop_lists(paths: &Vec<Vec<AccountId>>) -> Vec<u8> {
        to_bytes(paths)
    }

    /// What the decoder before the path table read from `bytes`.
    fn decode_hop_lists(bytes: &[u8]) -> Option<Vec<Vec<AccountId>>> {
        from_bytes(bytes).ok()
    }

    /// Seeded shapes plus the edges: zero paths, empty paths among
    /// non-empty ones, the 44-hop probe and 8+ parallel paths. The table
    /// writes the bytes its hop lists wrote. On every truncation of those
    /// bytes, and on bit flips in their lengths, the table's decoder agrees
    /// with the hop lists' decoder.
    #[test]
    fn path_table_encodes_as_its_hop_lists() {
        let hops = |from: u8, n: u8| -> Vec<AccountId> {
            (from..from + n)
                .map(|i| AccountId::from_bytes([i; 20]))
                .collect()
        };
        let mut shapes: Vec<Vec<Vec<AccountId>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![], vec![]],
            vec![hops(1, 2), vec![], hops(3, 1), vec![]],
            vec![hops(1, 44)],
            (0..9).map(|i| hops(i * 8, 8)).collect(),
            (0..12).map(|i| hops(i, i % 3)).collect(),
        ];
        let mut rng = StdRng::seed_from_u64(0x9A7B5);
        for _ in 0..400 {
            let count = rng.gen_range(0..14);
            shapes.push(
                (0..count)
                    .map(|_| {
                        let n = rng.gen_range(0..6);
                        (0..n)
                            .map(|_| AccountId::from_bytes([rng.gen(); 20]))
                            .collect()
                    })
                    .collect(),
            );
        }
        let table_decode = |bytes: &[u8]| {
            from_bytes::<PathSummary>(bytes)
                .ok()
                .map(|s| s.paths().map(<[AccountId]>::to_vec).collect::<Vec<_>>())
        };
        for paths in shapes {
            let summary = PathSummary::from_paths(&paths);
            let bytes = to_bytes(&summary);
            assert_eq!(bytes, encode_hop_lists(&paths), "{paths:?}");
            assert_eq!(from_bytes::<PathSummary>(&bytes).unwrap(), summary);
            for cut in 0..bytes.len() {
                let cut = &bytes[..cut];
                assert_eq!(table_decode(cut), None);
                assert_eq!(decode_hop_lists(cut), None);
            }
            // Bytes 3 and 7: the low bytes of the path count and of the
            // first path's hop count.
            let mut flipped = bytes.clone();
            for bit in (0..16).filter(|bit| bit / 8 * 4 + 3 < bytes.len()) {
                let byte = bit / 8 * 4 + 3;
                flipped[byte] ^= 1 << (bit % 8);
                assert_eq!(table_decode(&flipped), decode_hop_lists(&flipped));
                flipped[byte] ^= 1 << (bit % 8);
            }
        }
    }

    /// A path length past the bytes left fails before anything is sized
    /// by it: at 20 bytes a hop, `u32::MAX` hops would ask for ~86 GB, and
    /// `u32::MAX` paths for a ~17 GB header.
    #[test]
    fn path_length_past_the_payload_is_corrupt() {
        for (count, hops) in [(1u32, u32::MAX), (2, 1), (u32::MAX, 0)] {
            let mut bytes = Vec::new();
            count.encode(&mut bytes);
            hops.encode(&mut bytes);
            AccountId::from_bytes([7; 20]).encode(&mut bytes);
            let mut buf = &bytes[..];
            assert!(
                PathSummary::decode(&mut buf).is_err(),
                "{count} paths, {hops} hops"
            );
        }
    }

    proptest! {
        #[test]
        fn value_round_trip(raw in any::<i64>()) {
            let v = Value::from_raw(raw as i128);
            prop_assert_eq!(from_bytes::<Value>(&to_bytes(&v)).unwrap(), v);
        }

        #[test]
        fn vec_of_accounts_round_trip(seeds in proptest::collection::vec(any::<[u8; 20]>(), 0..8)) {
            let accounts: Vec<AccountId> = seeds.into_iter().map(AccountId::from_bytes).collect();
            prop_assert_eq!(from_bytes::<Vec<AccountId>>(&to_bytes(&accounts)).unwrap(), accounts);
        }
    }
}
