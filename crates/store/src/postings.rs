//! Secondary indexes: per-account postings, per-(currency, day) flows, and
//! the block table the query layer's cache is keyed on.
//!
//! The paper's attack is a *query* workload — "which senders could have
//! produced this fingerprint?" — and the explorer-style follow-up work
//! (flow indexes over XRP history) serves per-account and per-currency
//! aggregates. This module gives the archive that read path: one pass over
//! the frames produces
//!
//! * **account postings** — for every account, the sorted byte offsets of
//!   the frames whose event touches it (payment sender/destination, offer
//!   owner, trust-line endpoints, created account);
//! * **flow postings** — for every `(currency, UTC day)` pair, the payment
//!   count, summed amount and frame offsets of that day's payments;
//! * **a block table** — every `block_records`-th frame offset, defining
//!   the fixed decode units the block cache works in.
//!
//! Archives must be time-ordered (the generator emits them that way): the
//! query layer serves `[from, to)` windows by seeking through the block
//! table on each block's first timestamp, so [`PostingsIndex::build`]
//! rejects a timestamp regression instead of indexing it.
//!
//! The index persists as a *sidecar*: its own magic, then sections in the
//! archive's frame layout ([`crate::frame`]) with fields in
//! [`crate::codec`], so it loads (and fails loudly on corruption) without
//! touching event frames.
//!
//! # Determinism
//!
//! Builds are sharded across threads for clean archives, but the output is
//! defined purely by the archive bytes: shards own contiguous frame ranges
//! and merge in range order, so any shard count produces byte-identical
//! sidecars (a golden test enforces this). Postings offsets are
//! delta-varint coded — sorted offsets make the deltas small.
//!
//! The account postings are a `HashMap` under std's randomly keyed SipHash,
//! so a point lookup is one hash probe rather than a tree walk, and a
//! crafted archive cannot aim collisions at a fixed hash. Its iteration
//! order is arbitrary, so every ordered read sorts first:
//! [`PostingsIndex::iter_accounts`] yields account order, and the sidecar
//! writes its accounts in that order. The first shard's maps move into the
//! index whole; later shards append to them.

use std::collections::{BTreeMap, HashMap};

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, RippleTime, Value};
use ripple_obs::LazyCounter;

use crate::codec::{Decode, Encode};
use crate::event::HistoryEvent;
use crate::frame::{self, Parsed};
use crate::stream::{ReadMode, Reader, RecoveryStats, StoreError, MAGIC, MAX_PAYLOAD};

static INDEX_BUILDS: LazyCounter = LazyCounter::new("store.postings.builds");
static INDEX_RECORDS: LazyCounter = LazyCounter::new("store.postings.records");
static INDEX_BYTES: LazyCounter = LazyCounter::new("store.postings.sidecar_bytes");

/// The 8-byte sidecar magic.
pub const SIDECAR_MAGIC: &[u8; 8] = b"RPLSIDX1";

/// Sidecar format version carried in the header section.
const SIDECAR_VERSION: u32 = 1;

/// Section tags.
const SEC_HEADER: u8 = 1;
const SEC_BLOCKS: u8 = 2;
const SEC_ACCOUNTS: u8 = 3;
const SEC_FLOWS: u8 = 4;

/// Soft cap on one section's payload: big maps split across sections so a
/// sidecar never hits the reader's [`MAX_PAYLOAD`] frame cap. The split
/// points depend only on the encoded sizes, keeping output deterministic.
const SECTION_BUDGET: usize = 4 * 1024 * 1024;

/// Decoded `SEC_HEADER` fields, in wire order: records, archive_len,
/// block_records, skipped_bytes, corrupt_regions, account count,
/// flow count, block count.
type SidecarHeader = (u64, u64, u32, u64, u64, u64, u64, u64);

/// How a [`PostingsIndex`] build walks the archive.
#[derive(Debug, Clone, Copy)]
pub struct PostingsConfig {
    /// Worker threads decoding frame payloads. Any value produces the same
    /// bytes; more shards only change wall-clock time.
    pub shards: usize,
    /// Corruption handling: [`ReadMode::Strict`] aborts on the first bad
    /// frame, [`ReadMode::Resync`] indexes what salvages and tallies the
    /// skipped bytes in [`PostingsIndex::stats`].
    pub mode: ReadMode,
    /// Records per cache block (the block table samples every
    /// `block_records`-th frame offset).
    pub block_records: usize,
}

impl Default for PostingsConfig {
    fn default() -> PostingsConfig {
        PostingsConfig {
            shards: 1,
            mode: ReadMode::Strict,
            block_records: 64,
        }
    }
}

/// Aggregate payment flow for one `(currency, UTC day)` class.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowStat {
    /// Payments in the class.
    pub payments: u64,
    /// Summed payment amount (raw fixed-point units).
    pub total_raw: i128,
    /// Frame offsets of the class's payments, sorted ascending.
    pub offsets: Vec<u64>,
}

impl FlowStat {
    /// The summed amount as a [`Value`].
    pub fn total(&self) -> Value {
        Value::from_raw(self.total_raw)
    }
}

/// The secondary indexes over one archive. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingsIndex {
    /// std's keyed SipHash on purpose: the ids come from untrusted bytes
    /// (see the module docs). Unordered — every ordered read sorts.
    accounts: HashMap<AccountId, Vec<u64>>,
    flows: BTreeMap<(Currency, u64), FlowStat>,
    blocks: Vec<u64>,
    block_records: u32,
    archive_len: u64,
    records: u64,
    skipped_bytes: u64,
    corrupt_regions: u64,
}

/// Per-shard accumulator; merged in shard order.
#[derive(Default)]
struct ShardPartial {
    accounts: HashMap<AccountId, Vec<u64>>,
    flows: BTreeMap<(Currency, u64), FlowStat>,
    /// Archive record number of the next event absorbed.
    next_record: u64,
    /// Record number and timestamp of the first event absorbed and the
    /// timestamp of the last, for the time-order checks.
    span: Option<(u64, RippleTime, RippleTime)>,
}

fn not_time_ordered(record: u64, t: RippleTime, prev: RippleTime) -> StoreError {
    StoreError::corrupt(format!(
        "archive is not time-ordered at record {record}: {t} < {prev}"
    ))
}

impl ShardPartial {
    /// A shard whose first event is archive record `first_record`.
    fn starting_at(first_record: u64) -> ShardPartial {
        ShardPartial {
            next_record: first_record,
            ..ShardPartial::default()
        }
    }

    /// Indexes the event framed at `offset`, rejecting a timestamp below
    /// its predecessor's: window queries seek by block start time, so a
    /// regression would make them silently wrong.
    fn absorb(&mut self, offset: u64, event: &HistoryEvent) -> Result<(), StoreError> {
        let t = event.timestamp();
        let (first_record, first) = match self.span {
            Some((_, _, last)) if t < last => {
                return Err(not_time_ordered(self.next_record, t, last))
            }
            Some((record, first, _)) => (record, first),
            None => (self.next_record, t),
        };
        self.span = Some((first_record, first, t));
        self.next_record += 1;
        match event {
            HistoryEvent::Payment(p) => {
                self.post(p.sender, offset);
                if p.destination != p.sender {
                    self.post(p.destination, offset);
                }
                let day = p.timestamp.truncate_to_day().seconds();
                let flow = self.flows.entry((p.currency, day)).or_default();
                flow.payments += 1;
                flow.total_raw += p.amount.raw();
                flow.offsets.push(offset);
            }
            HistoryEvent::OfferPlaced { owner, .. } => self.post(*owner, offset),
            HistoryEvent::TrustSet {
                truster, trustee, ..
            } => {
                self.post(*truster, offset);
                if trustee != truster {
                    self.post(*trustee, offset);
                }
            }
            HistoryEvent::AccountCreated { account, .. } => self.post(*account, offset),
        }
        Ok(())
    }

    fn post(&mut self, account: AccountId, offset: u64) {
        self.accounts.entry(account).or_default().push(offset);
    }

    /// Appends this shard to the merged maps, checking time order across
    /// the seam with the shards merged before it. Into empty maps (the
    /// first shard, and the whole of a one-shard build) the partial's maps
    /// move instead of being copied list by list.
    fn merge_into(
        self,
        accounts: &mut HashMap<AccountId, Vec<u64>>,
        flows: &mut BTreeMap<(Currency, u64), FlowStat>,
        last_time: &mut Option<RippleTime>,
    ) -> Result<(), StoreError> {
        if let Some((record, first, last)) = self.span {
            match *last_time {
                Some(prev) if first < prev => return Err(not_time_ordered(record, first, prev)),
                _ => *last_time = Some(last),
            }
        }
        if accounts.is_empty() {
            *accounts = self.accounts;
        } else {
            for (account, offsets) in self.accounts {
                accounts.entry(account).or_default().extend(offsets);
            }
        }
        if flows.is_empty() {
            *flows = self.flows;
        } else {
            for (key, partial) in self.flows {
                let flow = flows.entry(key).or_default();
                flow.payments += partial.payments;
                flow.total_raw += partial.total_raw;
                flow.offsets.extend(partial.offsets);
            }
        }
        Ok(())
    }
}

/// The frame at `pos` in `buf`, strictly: truncation, an over-cap length
/// or a CRC mismatch is corruption. `what` names the input in the error.
/// Every archive and sidecar read in this module goes through here before
/// a payload is parsed.
fn frame_at<'a>(
    buf: &'a [u8],
    pos: usize,
    what: &str,
) -> Result<(u8, &'a [u8], usize), StoreError> {
    match frame::parse(buf.get(pos..).unwrap_or_default(), MAX_PAYLOAD) {
        Parsed::Frame { tag, payload, len } => Ok((tag, payload, len)),
        Parsed::Short(_) => Err(StoreError::corrupt(format!(
            "{what} truncated mid-frame at offset {pos}"
        ))),
        Parsed::Oversize(len) => Err(StoreError::corrupt(format!(
            "{what} payload length {len} exceeds cap {MAX_PAYLOAD}"
        ))),
        Parsed::BadCrc => Err(StoreError::corrupt(format!(
            "{what} CRC mismatch at offset {pos}"
        ))),
    }
}

/// `(offset, tag, payload)` of every frame of an archive, in order.
type FrameTable<'a> = Vec<(u64, u8, &'a [u8])>;

/// Walks frame boundaries without decoding payloads: the table of every
/// CRC-valid frame. Strict — any structural damage is fatal (the resync
/// path uses the full [`Reader`] instead).
fn frame_table(archive: &[u8]) -> Result<FrameTable<'_>, StoreError> {
    if archive.len() < MAGIC.len() || &archive[..MAGIC.len()] != MAGIC {
        return Err(StoreError::corrupt("bad archive magic"));
    }
    let mut pos = MAGIC.len();
    let mut out = Vec::new();
    while pos < archive.len() {
        let (tag, payload, len) = frame_at(archive, pos, "archive")?;
        out.push((pos as u64, tag, payload));
        pos += len;
    }
    Ok(out)
}

/// Decodes the event framed at `offset` in `archive`. The offset must be an
/// exact frame start (as reported by the index); anything else is corrupt.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on framing, CRC or payload failure.
pub fn decode_frame_at(archive: &[u8], offset: u64) -> Result<(HistoryEvent, u32), StoreError> {
    let pos = usize::try_from(offset).unwrap_or(usize::MAX);
    let (tag, payload, len) = frame_at(archive, pos, "archive")?;
    Ok((HistoryEvent::decode_payload(tag, payload)?, len as u32))
}

/// Decodes every frame in `[start, end)`, returning `(offset, event)`
/// pairs. `start` must be a frame boundary; `end` is typically the next
/// block start or the archive length.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if the range does not frame cleanly.
pub fn decode_block(
    archive: &[u8],
    start: u64,
    end: u64,
) -> Result<Vec<(u64, HistoryEvent)>, StoreError> {
    let end = end.min(archive.len() as u64);
    let mut pos = start;
    let mut out = Vec::new();
    while pos < end {
        let (event, frame_len) = decode_frame_at(archive, pos)?;
        out.push((pos, event));
        pos += frame_len as u64;
    }
    Ok(out)
}

impl PostingsIndex {
    /// Builds the index in one pass over an in-memory archive.
    ///
    /// Strict mode walks frame boundaries first (CRC only), then decodes
    /// payloads across `config.shards` threads. Resync mode is serial and
    /// rides the recovering [`Reader`], indexing exactly what it salvages.
    ///
    /// # Errors
    ///
    /// * Any [`StoreError`] from scanning; in strict mode the first corrupt
    ///   frame aborts the build.
    /// * [`StoreError::Corrupt`] in either mode if an indexed event's
    ///   timestamp is below its predecessor's, within a shard or across a
    ///   shard seam (window queries seek by block start time).
    pub fn build(archive: &[u8], config: &PostingsConfig) -> Result<PostingsIndex, StoreError> {
        let block_records = config.block_records.max(1);
        let mut accounts = HashMap::new();
        let mut flows = BTreeMap::new();
        let mut last_time = None;
        let (offsets, stats) = match config.mode {
            ReadMode::Strict => {
                let table = frame_table(archive)?;
                let shard_count = config.shards.max(1).min(table.len().max(1));
                let chunk = table.len().div_ceil(shard_count).max(1);
                let partials: Vec<Result<ShardPartial, StoreError>> = std::thread::scope(|scope| {
                    let handles: Vec<_> = table
                        .chunks(chunk)
                        .enumerate()
                        .map(|(shard, range)| {
                            scope.spawn(move || {
                                let mut partial = ShardPartial::starting_at((shard * chunk) as u64);
                                for &(offset, tag, payload) in range {
                                    let event = HistoryEvent::decode_payload(tag, payload)?;
                                    partial.absorb(offset, &event)?;
                                }
                                Ok(partial)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard worker panicked"))
                        .collect()
                });
                for partial in partials {
                    partial?.merge_into(&mut accounts, &mut flows, &mut last_time)?;
                }
                let offsets: Vec<u64> = table.iter().map(|&(o, ..)| o).collect();
                let stats = RecoveryStats {
                    records: offsets.len() as u64,
                    ..RecoveryStats::default()
                };
                (offsets, stats)
            }
            ReadMode::Resync => {
                let mut reader = Reader::recovering(archive)?;
                let mut partial = ShardPartial::default();
                let mut offsets = Vec::new();
                while let Some((offset, event)) = reader.next_event_at()? {
                    partial.absorb(offset, &event)?;
                    offsets.push(offset);
                }
                partial.merge_into(&mut accounts, &mut flows, &mut last_time)?;
                (offsets, reader.stats())
            }
        };
        let blocks: Vec<u64> = offsets.iter().step_by(block_records).copied().collect();
        INDEX_BUILDS.add(1);
        INDEX_RECORDS.add(stats.records);
        Ok(PostingsIndex {
            accounts,
            flows,
            blocks,
            block_records: block_records as u32,
            archive_len: archive.len() as u64,
            records: stats.records,
            skipped_bytes: stats.skipped_bytes,
            corrupt_regions: stats.corrupt_regions,
        })
    }

    /// Sorted frame offsets of the events touching `account` (empty slice
    /// for unknown accounts).
    pub fn account_offsets(&self, account: &AccountId) -> &[u64] {
        self.accounts.get(account).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct accounts with postings.
    pub fn accounts(&self) -> usize {
        self.accounts.len()
    }

    /// Iterates `(account, offsets)` in account order. The map is hashed,
    /// so this sorts a list of references first.
    pub fn iter_accounts(&self) -> impl ExactSizeIterator<Item = (&AccountId, &[u64])> {
        let mut sorted: Vec<_> = self
            .accounts
            .iter()
            .map(|(a, v)| (a, v.as_slice()))
            .collect();
        sorted.sort_unstable_by_key(|&(a, _)| a);
        sorted.into_iter()
    }

    /// The flow class for `(currency, day)`; the timestamp is truncated to
    /// its UTC day.
    pub fn flow(&self, currency: Currency, day: RippleTime) -> Option<&FlowStat> {
        self.flows.get(&(currency, day.truncate_to_day().seconds()))
    }

    /// Iterates `((currency, day-start seconds), stat)` in key order.
    pub fn iter_flows(&self) -> impl Iterator<Item = (&(Currency, u64), &FlowStat)> {
        self.flows.iter()
    }

    /// Number of distinct `(currency, day)` flow classes.
    pub fn flow_classes(&self) -> usize {
        self.flows.len()
    }

    /// Block-start offsets (every `block_records`-th frame).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Records per block.
    pub fn block_records(&self) -> u32 {
        self.block_records
    }

    /// The block containing `offset`: `(block_id, start, end)` where `end`
    /// is the next block's start or the archive length.
    pub fn block_span(&self, offset: u64) -> (usize, u64, u64) {
        let id = self
            .blocks
            .partition_point(|&b| b <= offset)
            .saturating_sub(1);
        let start = self.blocks.get(id).copied().unwrap_or(MAGIC.len() as u64);
        let end = self.blocks.get(id + 1).copied().unwrap_or(self.archive_len);
        (id, start, end)
    }

    /// Records indexed.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Length in bytes of the archive the index was built over.
    pub fn archive_len(&self) -> u64 {
        self.archive_len
    }

    /// Salvage counters from the build (all zero for a clean archive).
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            records: self.records,
            skipped_bytes: self.skipped_bytes,
            corrupt_regions: self.corrupt_regions,
        }
    }

    /// Serializes the sidecar. Output bytes are a pure function of the
    /// index contents — and therefore of the archive bytes — regardless of
    /// how many shards built it: accounts are written in account order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SIDECAR_MAGIC);
        frame::encode(&mut out, SEC_HEADER, |p| {
            SIDECAR_VERSION.encode(p);
            self.records.encode(p);
            self.archive_len.encode(p);
            self.block_records.encode(p);
            self.skipped_bytes.encode(p);
            self.corrupt_regions.encode(p);
            (self.accounts.len() as u64).encode(p);
            (self.flows.len() as u64).encode(p);
            (self.blocks.len() as u64).encode(p);
        });
        frame::encode(&mut out, SEC_BLOCKS, |p| put_offsets(p, &self.blocks));
        write_counted_sections(
            &mut out,
            SEC_ACCOUNTS,
            self.iter_accounts(),
            |p, (account, offsets)| {
                account.encode(p);
                put_offsets(p, offsets);
            },
        );
        write_counted_sections(
            &mut out,
            SEC_FLOWS,
            self.flows.iter(),
            |p, (&(currency, day), flow)| {
                currency.encode(p);
                day.encode(p);
                flow.payments.encode(p);
                flow.total_raw.encode(p);
                put_offsets(p, &flow.offsets);
            },
        );
        INDEX_BYTES.add(out.len() as u64);
        out
    }

    /// Loads a sidecar produced by [`PostingsIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic, CRC mismatch, malformed
    /// sections, offsets past `u64::MAX`, or counts disagreeing with the
    /// header.
    pub fn from_bytes(buf: &[u8]) -> Result<PostingsIndex, StoreError> {
        if buf.len() < SIDECAR_MAGIC.len() || &buf[..SIDECAR_MAGIC.len()] != SIDECAR_MAGIC {
            return Err(StoreError::corrupt("bad sidecar magic"));
        }
        let mut pos = SIDECAR_MAGIC.len();
        let mut header: Option<SidecarHeader> = None;
        let mut accounts = HashMap::new();
        let mut flows = BTreeMap::new();
        let mut blocks = Vec::new();
        while pos < buf.len() {
            let (tag, payload, len) = frame_at(buf, pos, "sidecar")?;
            pos += len;
            let mut p = payload;
            let p = &mut p;
            match tag {
                SEC_HEADER => {
                    let version = u32::decode(p)?;
                    if version != SIDECAR_VERSION {
                        return Err(StoreError::corrupt(format!(
                            "unsupported sidecar version {version}"
                        )));
                    }
                    header = Some((
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                        Decode::decode(p)?,
                    ));
                }
                SEC_BLOCKS => blocks.extend(get_offsets(p)?),
                SEC_ACCOUNTS => {
                    for _ in 0..u32::decode(p)? {
                        let account = AccountId::decode(p)?;
                        if accounts.insert(account, get_offsets(p)?).is_some() {
                            return Err(StoreError::corrupt("duplicate account in sidecar"));
                        }
                    }
                }
                SEC_FLOWS => {
                    for _ in 0..u32::decode(p)? {
                        let key = (Currency::decode(p)?, u64::decode(p)?);
                        let stat = FlowStat {
                            payments: u64::decode(p)?,
                            total_raw: i128::decode(p)?,
                            offsets: get_offsets(p)?,
                        };
                        if flows.insert(key, stat).is_some() {
                            return Err(StoreError::corrupt("duplicate flow class in sidecar"));
                        }
                    }
                }
                other => {
                    return Err(StoreError::corrupt(format!(
                        "unknown sidecar section tag {other}"
                    )))
                }
            }
            if !p.is_empty() {
                return Err(StoreError::corrupt("trailing bytes in sidecar section"));
            }
        }
        let Some((
            records,
            archive_len,
            block_records,
            skipped_bytes,
            corrupt_regions,
            account_count,
            flow_count,
            block_count,
        )) = header
        else {
            return Err(StoreError::corrupt("sidecar missing header section"));
        };
        if accounts.len() as u64 != account_count
            || flows.len() as u64 != flow_count
            || blocks.len() as u64 != block_count
        {
            return Err(StoreError::corrupt("sidecar counts disagree with header"));
        }
        Ok(PostingsIndex {
            accounts,
            flows,
            blocks,
            block_records,
            archive_len,
            records,
            skipped_bytes,
            corrupt_regions,
        })
    }
}

/// Writes `entries` as `tag` sections of `count:u32 , entry*`, closing a
/// section once its payload reaches [`SECTION_BUDGET`]. An empty map still
/// writes one (empty) section.
fn write_counted_sections<T>(
    out: &mut Vec<u8>,
    tag: u8,
    entries: impl ExactSizeIterator<Item = T>,
    mut put: impl FnMut(&mut Vec<u8>, T),
) {
    let mut flush = |body: &mut Vec<u8>, count: u32| {
        frame::encode(out, tag, |p| {
            count.encode(p);
            p.extend_from_slice(body);
        });
        body.clear();
    };
    let empty = entries.len() == 0;
    let mut body = Vec::new();
    let mut count = 0u32;
    for entry in entries {
        put(&mut body, entry);
        count += 1;
        if body.len() >= SECTION_BUDGET {
            flush(&mut body, count);
            count = 0;
        }
    }
    if count > 0 || empty {
        flush(&mut body, count);
    }
}

/// A `u32` count, then the ascending `offsets` as delta varints.
fn put_offsets(out: &mut Vec<u8>, offsets: &[u64]) {
    (offsets.len() as u32).encode(out);
    let mut prev = 0u64;
    for &offset in offsets {
        put_varint(out, offset - prev);
        prev = offset;
    }
}

/// Reads what [`put_offsets`] wrote. A delta that carries the running
/// offset past `u64::MAX` is corruption, not a wrap.
fn get_offsets(buf: &mut &[u8]) -> Result<Vec<u64>, StoreError> {
    let count = u32::decode(buf)?;
    let mut out = Vec::new();
    let mut prev = 0u64;
    for _ in 0..count {
        prev = prev
            .checked_add(get_varint(buf)?)
            .ok_or_else(|| StoreError::corrupt("sidecar offset overflows u64"))?;
        out.push(prev);
    }
    Ok(out)
}

/// LEB128 unsigned varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint of at most 64 bits: the tenth byte may carry only
/// bit 63, so no set bit is ever dropped.
fn get_varint(buf: &mut &[u8]) -> Result<u64, StoreError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = buf.first() else {
            return Err(StoreError::corrupt("truncated varint"));
        };
        *buf = &buf[1..];
        if shift == 63 && byte > 1 {
            return Err(StoreError::corrupt("varint longer than 64 bits"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreError::corrupt("varint longer than 64 bits"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Writer;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{PathSummary, PaymentRecord};

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn payment(n: u8, secs: u64) -> HistoryEvent {
        HistoryEvent::Payment(PaymentRecord {
            tx_hash: sha512_half(&[n, secs as u8]),
            sender: acct(n),
            destination: acct(n.wrapping_add(1)),
            currency: if n.is_multiple_of(2) {
                Currency::USD
            } else {
                Currency::EUR
            },
            issuer: None,
            amount: "2.5".parse().unwrap(),
            timestamp: RippleTime::from_seconds(secs),
            ledger_seq: secs as u32,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        })
    }

    fn mixed_archive(n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for i in 0..n {
            let secs = i * 7_001; // spreads events across several days
            let event = match i % 4 {
                0 | 1 => payment((i % 23) as u8, secs),
                2 => HistoryEvent::TrustSet {
                    truster: acct((i % 13) as u8),
                    trustee: acct((i % 17) as u8),
                    currency: Currency::BTC,
                    limit: "9".parse().unwrap(),
                    timestamp: RippleTime::from_seconds(secs),
                },
                _ => HistoryEvent::AccountCreated {
                    account: acct((i % 29) as u8),
                    timestamp: RippleTime::from_seconds(secs),
                },
            };
            writer.write(&event).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn postings_cover_every_event() {
        let buf = mixed_archive(200);
        let index = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap();
        assert_eq!(index.records(), 200);
        // Every posted offset decodes to an event touching that account.
        for (account, offsets) in index.iter_accounts() {
            assert!(offsets.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for &offset in offsets {
                let (event, _) = decode_frame_at(&buf, offset).unwrap();
                let touches = match &event {
                    HistoryEvent::Payment(p) => p.sender == *account || p.destination == *account,
                    HistoryEvent::OfferPlaced { owner, .. } => owner == account,
                    HistoryEvent::TrustSet {
                        truster, trustee, ..
                    } => truster == account || trustee == account,
                    HistoryEvent::AccountCreated { account: a, .. } => a == account,
                };
                assert!(touches, "offset {offset} does not touch {account}");
            }
        }
    }

    #[test]
    fn flow_totals_match_a_rescan() {
        let buf = mixed_archive(300);
        let index = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap();
        let events = Reader::new(buf.as_slice()).unwrap().read_all().unwrap();
        let mut expected: BTreeMap<(Currency, u64), (u64, i128)> = BTreeMap::new();
        for event in &events {
            if let HistoryEvent::Payment(p) = event {
                let key = (p.currency, p.timestamp.truncate_to_day().seconds());
                let e = expected.entry(key).or_default();
                e.0 += 1;
                e.1 += p.amount.raw();
            }
        }
        assert_eq!(index.flow_classes(), expected.len());
        for (key, (payments, total)) in expected {
            let flow = index
                .flow(key.0, RippleTime::from_seconds(key.1))
                .expect("class exists");
            assert_eq!(flow.payments, payments);
            assert_eq!(flow.total_raw, total);
            assert_eq!(flow.offsets.len() as u64, payments);
        }
    }

    #[test]
    fn sharded_builds_are_byte_identical() {
        let buf = mixed_archive(257); // deliberately not a multiple of any shard count
        let baseline = PostingsIndex::build(
            &buf,
            &PostingsConfig {
                shards: 1,
                ..PostingsConfig::default()
            },
        )
        .unwrap()
        .to_bytes();
        for shards in [2, 3, 8] {
            let other = PostingsIndex::build(
                &buf,
                &PostingsConfig {
                    shards,
                    ..PostingsConfig::default()
                },
            )
            .unwrap()
            .to_bytes();
            assert_eq!(other, baseline, "{shards}-shard build diverged");
        }
    }

    #[test]
    fn sidecar_round_trips() {
        let buf = mixed_archive(150);
        let index = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap();
        let bytes = index.to_bytes();
        let back = PostingsIndex::from_bytes(&bytes).unwrap();
        assert_eq!(back, index);
        // Re-encoding the loaded index reproduces the sidecar exactly.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn sidecar_rejects_corruption() {
        let buf = mixed_archive(50);
        let index = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap();
        let mut bytes = index.to_bytes();
        assert!(matches!(
            PostingsIndex::from_bytes(b"NOTSIDEC"),
            Err(StoreError::Corrupt(_))
        ));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            PostingsIndex::from_bytes(&bytes),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn block_table_spans_the_archive() {
        let buf = mixed_archive(200);
        let config = PostingsConfig {
            block_records: 16,
            ..PostingsConfig::default()
        };
        let index = PostingsIndex::build(&buf, &config).unwrap();
        assert_eq!(index.blocks().len(), 200usize.div_ceil(16));
        assert_eq!(index.blocks()[0], MAGIC.len() as u64);
        // Decoding every block in order reproduces the full archive.
        let mut all = Vec::new();
        for i in 0..index.blocks().len() {
            let start = index.blocks()[i];
            let end = index
                .blocks()
                .get(i + 1)
                .copied()
                .unwrap_or(index.archive_len());
            all.extend(decode_block(&buf, start, end).unwrap());
        }
        assert_eq!(all.len(), 200);
        let events = Reader::new(buf.as_slice()).unwrap().read_all().unwrap();
        for ((_, got), want) in all.iter().zip(&events) {
            assert_eq!(got, want);
        }
        // block_span finds the enclosing block for any posted offset.
        for (offset, _) in &all {
            let (_, start, end) = index.block_span(*offset);
            assert!(start <= *offset && *offset < end);
        }
    }

    #[test]
    fn resync_build_indexes_what_salvages() {
        let buf = mixed_archive(100);
        // Find frame 30's bounds via the strict table, then ruin it.
        let (off30, ..) = frame_table(&buf).unwrap()[30];
        let (_, len30) = decode_frame_at(&buf, off30).unwrap();
        let plan = crate::chaos::CorruptionPlan::new().flip_bit(off30 + 7, 1);
        let bad = crate::chaos::corrupt_bytes(&buf, &plan);

        // Strict build fails hard.
        assert!(matches!(
            PostingsIndex::build(&bad, &PostingsConfig::default()),
            Err(StoreError::Corrupt(_))
        ));

        // Resync build salvages 99 records and reports the gap.
        let config = PostingsConfig {
            mode: ReadMode::Resync,
            ..PostingsConfig::default()
        };
        let index = PostingsIndex::build(&bad, &config).unwrap();
        assert_eq!(index.records(), 99);
        assert_eq!(index.stats().corrupt_regions, 1);
        assert_eq!(index.stats().skipped_bytes, u64::from(len30));
        // Every salvaged posting still decodes at its recorded offset.
        for (_, offsets) in index.iter_accounts() {
            for &offset in offsets {
                decode_frame_at(&bad, offset).expect("salvaged offset must frame");
            }
        }
        // Round trip survives with the salvage counters intact.
        let back = PostingsIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back.stats().skipped_bytes, u64::from(len30));
    }

    /// A seeded archive over a pool of random account ids: the four event
    /// kinds, self-payments and self-trust included, with non-decreasing
    /// timestamps that repeat (events sharing a ledger close).
    fn random_archive(events: usize, seed: u64) -> Vec<u8> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let pool: Vec<AccountId> = (0..400)
            .map(|_| AccountId::from_bytes(std::array::from_fn(|_| rng.gen())))
            .collect();
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        let mut secs = 0u64;
        for i in 0..events {
            secs += rng.gen_range(0..400);
            let timestamp = RippleTime::from_seconds(secs);
            let a = pool[rng.gen_range(0..pool.len())];
            let b = if rng.gen_bool(0.05) {
                a
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            let event = match rng.gen_range(0..4) {
                0 => HistoryEvent::Payment(PaymentRecord {
                    tx_hash: sha512_half(&(i as u64).to_be_bytes()),
                    sender: a,
                    destination: b,
                    currency: Currency::USD,
                    issuer: None,
                    amount: "3".parse().unwrap(),
                    timestamp,
                    ledger_seq: i as u32,
                    paths: PathSummary::direct(),
                    cross_currency: false,
                    source_currency: None,
                }),
                1 => HistoryEvent::OfferPlaced {
                    owner: a,
                    offer_seq: i as u32,
                    base: Currency::USD,
                    quote: Currency::EUR,
                    gets: "1".parse().unwrap(),
                    pays: "2".parse().unwrap(),
                    timestamp,
                },
                2 => HistoryEvent::TrustSet {
                    truster: a,
                    trustee: b,
                    currency: Currency::BTC,
                    limit: "9".parse().unwrap(),
                    timestamp,
                },
                _ => HistoryEvent::AccountCreated {
                    account: a,
                    timestamp,
                },
            };
            writer.write(&event).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    /// Oracle for the hashed account index: a linear decode posting each
    /// distinct account an event names once, into an ordered map.
    #[test]
    fn hashed_account_index_matches_a_linear_ordered_reference() {
        let buf = random_archive(3_000, 0xACC7);
        let mut reference: BTreeMap<AccountId, Vec<u64>> = BTreeMap::new();
        let mut reader = Reader::new(buf.as_slice()).unwrap();
        while let Some((offset, event)) = reader.next_event_at().unwrap() {
            let mut named = match &event {
                HistoryEvent::Payment(p) => vec![p.sender, p.destination],
                HistoryEvent::OfferPlaced { owner, .. } => vec![*owner],
                HistoryEvent::TrustSet {
                    truster, trustee, ..
                } => vec![*truster, *trustee],
                HistoryEvent::AccountCreated { account, .. } => vec![*account],
            };
            named.dedup();
            for account in named {
                reference.entry(account).or_default().push(offset);
            }
        }

        let build = |shards| {
            let config = PostingsConfig {
                shards,
                ..PostingsConfig::default()
            };
            PostingsIndex::build(&buf, &config).unwrap()
        };
        let index = build(1);
        assert_eq!(index.accounts(), reference.len());
        for (account, offsets) in &reference {
            assert_eq!(index.account_offsets(account), offsets.as_slice());
        }
        let keys: Vec<AccountId> = index.iter_accounts().map(|(a, _)| *a).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(keys.iter().eq(reference.keys()));

        let bytes = index.to_bytes();
        for shards in [2, 8] {
            let other = build(shards);
            assert_eq!(other, index, "{shards}-shard index");
            assert_eq!(other.to_bytes(), bytes, "{shards}-shard sidecar");
        }
        assert_eq!(PostingsIndex::from_bytes(&bytes).unwrap(), index);
    }

    /// `AccountCreated` events at the given second marks.
    fn timed_archive(times: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for &secs in times {
            writer
                .write(&HistoryEvent::AccountCreated {
                    account: acct((secs % 251) as u8),
                    timestamp: RippleTime::from_seconds(secs),
                })
                .unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    #[test]
    fn unordered_archive_is_rejected() {
        let buf = timed_archive(&[10, 5]);
        let err = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("time-ordered")));
        // Page-sharing events carry identical close times: not a regression.
        let buf = timed_archive(&[10, 10, 10, 20, 20]);
        let index = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap();
        assert_eq!(index.records(), 5);
    }

    #[test]
    fn time_regression_on_a_shard_seam_is_rejected() {
        // 16 records, ordered except that record 8 — the first record of a
        // shard for 2 and for 8 shards — is below record 7.
        let mut times: Vec<u64> = (0..16).map(|i| 100 + i * 10).collect();
        times[8] = times[7] - 1;
        let buf = timed_archive(&times);
        let modes = [
            (1, ReadMode::Strict),
            (2, ReadMode::Strict),
            (8, ReadMode::Strict),
            (1, ReadMode::Resync),
        ];
        for (shards, mode) in modes {
            let config = PostingsConfig {
                shards,
                mode,
                ..PostingsConfig::default()
            };
            let err = PostingsIndex::build(&buf, &config).unwrap_err();
            assert!(
                matches!(&err, StoreError::Corrupt(msg) if msg.contains("time-ordered at record 8")),
                "{shards} shards, {mode:?}: {err}"
            );
        }
    }

    #[test]
    fn empty_archive_builds_empty_index() {
        let buf = MAGIC.to_vec();
        let index = PostingsIndex::build(&buf, &PostingsConfig::default()).unwrap();
        assert_eq!(index.records(), 0);
        assert_eq!(index.accounts(), 0);
        assert_eq!(index.flow_classes(), 0);
        let back = PostingsIndex::from_bytes(&index.to_bytes()).unwrap();
        assert_eq!(back, index);
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
        let mut truncated: &[u8] = &[0x80];
        assert!(get_varint(&mut truncated).is_err());
        // u64::MAX is nine 0xff bytes and a final 0x01; a tenth byte
        // above 1 would carry bits past 64.
        for tenth in [0x02, 0x7f, 0x81] {
            let mut bytes = vec![0xffu8; 9];
            bytes.push(tenth);
            assert!(get_varint(&mut bytes.as_slice()).is_err(), "{tenth:#x}");
        }
    }

    /// A sidecar holding only a blocks section with the given payload.
    fn blocks_only_sidecar(payload: &[u8]) -> Vec<u8> {
        let mut out = SIDECAR_MAGIC.to_vec();
        frame::encode(&mut out, SEC_BLOCKS, |p| p.extend_from_slice(payload));
        out
    }

    #[test]
    fn offset_overflow_is_corrupt_not_a_wrap() {
        // Count 2, deltas u64::MAX then 1: a valid CRC around a running
        // offset that overflows (a debug panic, a release wrap, before).
        let mut payload = 2u32.to_be_bytes().to_vec();
        put_varint(&mut payload, u64::MAX);
        put_varint(&mut payload, 1);
        let err = PostingsIndex::from_bytes(&blocks_only_sidecar(&payload)).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(msg) if msg.contains("overflows")),
            "{err}"
        );
        // The same overflow inside an account posting.
        let mut payload = 1u32.to_be_bytes().to_vec();
        payload.extend_from_slice(&[7; 20]);
        payload.extend_from_slice(&2u32.to_be_bytes());
        put_varint(&mut payload, u64::MAX);
        put_varint(&mut payload, 1);
        let mut sidecar = SIDECAR_MAGIC.to_vec();
        frame::encode(&mut sidecar, SEC_ACCOUNTS, |p| {
            p.extend_from_slice(&payload)
        });
        assert!(PostingsIndex::from_bytes(&sidecar).is_err());
    }

    /// Seeded offline fuzz of `from_bytes`: every truncation, every byte
    /// of a sidecar XOR-ed, and random sections whose CRC is valid must
    /// come back `Ok` or `Err`, never a panic.
    #[test]
    fn mutated_sidecars_never_panic() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let buf = mixed_archive(60);
        let clean = PostingsIndex::build(&buf, &PostingsConfig::default())
            .unwrap()
            .to_bytes();
        for cut in 0..clean.len() {
            assert!(PostingsIndex::from_bytes(&clean[..cut]).is_err());
        }
        let mut rng = StdRng::seed_from_u64(0x51DE);
        let mut mutated = clean.clone();
        for i in 0..clean.len() {
            let mask = rng.gen_range(1..=255u8);
            mutated[i] ^= mask;
            let _ = PostingsIndex::from_bytes(&mutated);
            mutated[i] ^= mask;
        }
        // Random bodies behind a valid CRC reach the section parsers.
        for _ in 0..3_000 {
            let tag = rng.gen_range(1..=5u8);
            let len = rng.gen_range(0..48);
            let mut body: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            // Small counts so the entry loops actually run.
            if len >= 4 {
                body[..4].copy_from_slice(&rng.gen_range(0u32..4).to_be_bytes());
                // Some bodies end in near-maximal deltas, so running
                // offsets overflow.
                if rng.gen_bool(0.25) {
                    body.truncate(4);
                    for _ in 0..3 {
                        put_varint(&mut body, u64::MAX - rng.gen_range(0..4));
                    }
                }
            }
            let mut sidecar = SIDECAR_MAGIC.to_vec();
            frame::encode(&mut sidecar, tag, |p| p.extend_from_slice(&body));
            let _ = PostingsIndex::from_bytes(&sidecar);
        }
    }
}
