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
//! The index persists as a *sidecar*: its own magic, then CRC-framed
//! sections in the archive's `tag | len | payload | crc32` framing, so it
//! loads (and fails loudly on corruption) without touching event frames.
//!
//! # Determinism
//!
//! Builds are sharded across threads for clean archives, but the output is
//! defined purely by the archive bytes: shards own contiguous frame ranges
//! and merge in range order, so any shard count produces byte-identical
//! sidecars (a golden test enforces this). Postings offsets are
//! delta-varint coded — sorted offsets make the deltas small.

use std::collections::BTreeMap;

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, RippleTime, Value};
use ripple_obs::LazyCounter;

use crate::crc::crc32;
use crate::event::HistoryEvent;
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
    accounts: BTreeMap<AccountId, Vec<u64>>,
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
    accounts: BTreeMap<AccountId, Vec<u64>>,
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
    /// the seam with the shards merged before it.
    fn merge_into(
        self,
        accounts: &mut BTreeMap<AccountId, Vec<u64>>,
        flows: &mut BTreeMap<(Currency, u64), FlowStat>,
        last_time: &mut Option<RippleTime>,
    ) -> Result<(), StoreError> {
        if let Some((record, first, last)) = self.span {
            match *last_time {
                Some(prev) if first < prev => return Err(not_time_ordered(record, first, prev)),
                _ => *last_time = Some(last),
            }
        }
        for (account, offsets) in self.accounts {
            accounts.entry(account).or_default().extend(offsets);
        }
        for (key, partial) in self.flows {
            let flow = flows.entry(key).or_default();
            flow.payments += partial.payments;
            flow.total_raw += partial.total_raw;
            flow.offsets.extend(partial.offsets);
        }
        Ok(())
    }
}

/// Verifies the frame at `pos` — header and body in bounds, length under
/// the cap, CRC matching — and returns its total length. Every strict
/// read in this module goes through here before a payload is parsed.
fn checked_frame_len(archive: &[u8], pos: usize) -> Result<usize, StoreError> {
    let rest = archive.get(pos..).unwrap_or_default();
    let truncated = || StoreError::corrupt(format!("archive truncated mid-record at offset {pos}"));
    if rest.len() < 5 {
        return Err(truncated());
    }
    let len = u32::from_be_bytes(rest[1..5].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(StoreError::corrupt(format!(
            "payload length {len} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    let crc_at = 5 + len as usize;
    if rest.len() < crc_at + 4 {
        return Err(truncated());
    }
    let stored = u32::from_be_bytes(rest[crc_at..crc_at + 4].try_into().expect("4-byte slice"));
    if crc32(&rest[..crc_at]) != stored {
        return Err(StoreError::corrupt(format!("CRC mismatch at offset {pos}")));
    }
    Ok(crc_at + 4)
}

/// Walks frame boundaries without decoding payloads: `(offset, frame_len)`
/// of every CRC-valid frame. Strict — any structural damage is fatal (the
/// resync path uses the full [`Reader`] instead).
fn frame_table(archive: &[u8]) -> Result<Vec<(u64, u32)>, StoreError> {
    if archive.len() < MAGIC.len() || &archive[..MAGIC.len()] != MAGIC {
        return Err(StoreError::corrupt("bad archive magic"));
    }
    let mut pos = MAGIC.len();
    let mut out = Vec::new();
    while pos < archive.len() {
        let frame_len = checked_frame_len(archive, pos)?;
        out.push((pos as u64, frame_len as u32));
        pos += frame_len;
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
    let frame_len = checked_frame_len(archive, pos)?;
    let payload = &archive[pos + 5..pos + frame_len - 4];
    let event = HistoryEvent::decode_payload(archive[pos], payload)?;
    Ok((event, frame_len as u32))
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
        let mut accounts = BTreeMap::new();
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
                                for &(offset, frame_len) in range {
                                    let pos = offset as usize;
                                    let tag = archive[pos];
                                    let payload = &archive[pos + 5..pos + frame_len as usize - 4];
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
                let offsets: Vec<u64> = table.iter().map(|&(o, _)| o).collect();
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

    /// Iterates `(account, offsets)` in account order.
    pub fn iter_accounts(&self) -> impl Iterator<Item = (&AccountId, &[u64])> {
        self.accounts.iter().map(|(a, v)| (a, v.as_slice()))
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
    /// how many shards built it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(SIDECAR_MAGIC);

        let mut payload = Vec::new();
        put_u32(&mut payload, SIDECAR_VERSION);
        put_u64(&mut payload, self.records);
        put_u64(&mut payload, self.archive_len);
        put_u32(&mut payload, self.block_records);
        put_u64(&mut payload, self.skipped_bytes);
        put_u64(&mut payload, self.corrupt_regions);
        put_u64(&mut payload, self.accounts.len() as u64);
        put_u64(&mut payload, self.flows.len() as u64);
        put_u64(&mut payload, self.blocks.len() as u64);
        write_section(&mut out, SEC_HEADER, &payload);

        payload.clear();
        put_u32(&mut payload, self.blocks.len() as u32);
        let mut prev = 0u64;
        for &offset in &self.blocks {
            put_varint(&mut payload, offset - prev);
            prev = offset;
        }
        write_section(&mut out, SEC_BLOCKS, &payload);

        payload.clear();
        let mut in_section = 0u32;
        for (account, offsets) in &self.accounts {
            payload.extend_from_slice(account.as_bytes());
            put_u32(&mut payload, offsets.len() as u32);
            let mut prev = 0u64;
            for &offset in offsets {
                put_varint(&mut payload, offset - prev);
                prev = offset;
            }
            in_section += 1;
            if payload.len() >= SECTION_BUDGET {
                write_counted_section(&mut out, SEC_ACCOUNTS, in_section, &payload);
                payload.clear();
                in_section = 0;
            }
        }
        if in_section > 0 || self.accounts.is_empty() {
            write_counted_section(&mut out, SEC_ACCOUNTS, in_section, &payload);
        }

        payload.clear();
        in_section = 0;
        for (&(currency, day), flow) in &self.flows {
            payload.extend_from_slice(currency.as_bytes());
            put_u64(&mut payload, day);
            put_u64(&mut payload, flow.payments);
            payload.extend_from_slice(&flow.total_raw.to_be_bytes());
            put_u32(&mut payload, flow.offsets.len() as u32);
            let mut prev = 0u64;
            for &offset in &flow.offsets {
                put_varint(&mut payload, offset - prev);
                prev = offset;
            }
            in_section += 1;
            if payload.len() >= SECTION_BUDGET {
                write_counted_section(&mut out, SEC_FLOWS, in_section, &payload);
                payload.clear();
                in_section = 0;
            }
        }
        if in_section > 0 || self.flows.is_empty() {
            write_counted_section(&mut out, SEC_FLOWS, in_section, &payload);
        }

        INDEX_BYTES.add(out.len() as u64);
        out
    }

    /// Loads a sidecar produced by [`PostingsIndex::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic, CRC mismatch, malformed
    /// sections, or counts disagreeing with the header.
    pub fn from_bytes(buf: &[u8]) -> Result<PostingsIndex, StoreError> {
        if buf.len() < SIDECAR_MAGIC.len() || &buf[..SIDECAR_MAGIC.len()] != SIDECAR_MAGIC {
            return Err(StoreError::corrupt("bad sidecar magic"));
        }
        let mut pos = SIDECAR_MAGIC.len();
        let mut header: Option<SidecarHeader> = None;
        let mut accounts = BTreeMap::new();
        let mut flows = BTreeMap::new();
        let mut blocks = Vec::new();
        while pos < buf.len() {
            let (tag, payload, consumed) = read_section(&buf[pos..])?;
            pos += consumed;
            let mut p = payload;
            let p = &mut p;
            match tag {
                SEC_HEADER => {
                    let version = get_u32(p)?;
                    if version != SIDECAR_VERSION {
                        return Err(StoreError::corrupt(format!(
                            "unsupported sidecar version {version}"
                        )));
                    }
                    header = Some((
                        get_u64(p)?,
                        get_u64(p)?,
                        get_u32(p)?,
                        get_u64(p)?,
                        get_u64(p)?,
                        get_u64(p)?,
                        get_u64(p)?,
                        get_u64(p)?,
                    ));
                }
                SEC_BLOCKS => {
                    let count = get_u32(p)?;
                    let mut prev = 0u64;
                    for _ in 0..count {
                        prev += get_varint(p)?;
                        blocks.push(prev);
                    }
                }
                SEC_ACCOUNTS => {
                    let count = get_u32(p)?;
                    for _ in 0..count {
                        if p.len() < 20 {
                            return Err(StoreError::corrupt("truncated account posting"));
                        }
                        let mut id = [0u8; 20];
                        id.copy_from_slice(&p[..20]);
                        *p = &p[20..];
                        let n = get_u32(p)?;
                        let mut offsets = Vec::new();
                        let mut prev = 0u64;
                        for _ in 0..n {
                            prev += get_varint(p)?;
                            offsets.push(prev);
                        }
                        if accounts
                            .insert(AccountId::from_bytes(id), offsets)
                            .is_some()
                        {
                            return Err(StoreError::corrupt("duplicate account in sidecar"));
                        }
                    }
                }
                SEC_FLOWS => {
                    let count = get_u32(p)?;
                    for _ in 0..count {
                        if p.len() < 3 {
                            return Err(StoreError::corrupt("truncated flow posting"));
                        }
                        let mut code = [0u8; 3];
                        code.copy_from_slice(&p[..3]);
                        *p = &p[3..];
                        let currency = std::str::from_utf8(&code)
                            .ok()
                            .and_then(Currency::try_code)
                            .ok_or_else(|| StoreError::corrupt("invalid flow currency"))?;
                        let day = get_u64(p)?;
                        let payments = get_u64(p)?;
                        if p.len() < 16 {
                            return Err(StoreError::corrupt("truncated flow total"));
                        }
                        let total_raw = i128::from_be_bytes(p[..16].try_into().expect("16 bytes"));
                        *p = &p[16..];
                        let n = get_u32(p)?;
                        let mut offsets = Vec::new();
                        let mut prev = 0u64;
                        for _ in 0..n {
                            prev += get_varint(p)?;
                            offsets.push(prev);
                        }
                        let stat = FlowStat {
                            payments,
                            total_raw,
                            offsets,
                        };
                        if flows.insert((currency, day), stat).is_some() {
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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, StoreError> {
    if buf.len() < 4 {
        return Err(StoreError::corrupt("unexpected end of sidecar payload"));
    }
    let v = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes"));
    *buf = &buf[4..];
    Ok(v)
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, StoreError> {
    if buf.len() < 8 {
        return Err(StoreError::corrupt("unexpected end of sidecar payload"));
    }
    let v = u64::from_be_bytes(buf[..8].try_into().expect("8 bytes"));
    *buf = &buf[8..];
    Ok(v)
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

fn get_varint(buf: &mut &[u8]) -> Result<u64, StoreError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = buf.first() else {
            return Err(StoreError::corrupt("truncated varint"));
        };
        *buf = &buf[1..];
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(StoreError::corrupt("varint longer than 64 bits"))
}

/// Writes one CRC-framed section (`tag | len | payload | crc32`).
fn write_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Writes a section whose payload is `count` followed by `body` (the
/// account/flow sections carry their own entry count).
fn write_counted_section(out: &mut Vec<u8>, tag: u8, count: u32, body: &[u8]) {
    let start = out.len();
    out.push(tag);
    out.extend_from_slice(&((body.len() + 4) as u32).to_be_bytes());
    out.extend_from_slice(&count.to_be_bytes());
    out.extend_from_slice(body);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Parses one section off the front of `buf`: `(tag, payload, consumed)`.
fn read_section(buf: &[u8]) -> Result<(u8, &[u8], usize), StoreError> {
    if buf.len() < 5 {
        return Err(StoreError::corrupt("sidecar truncated mid-section"));
    }
    let tag = buf[0];
    let len = u32::from_be_bytes(buf[1..5].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(StoreError::corrupt(format!(
            "sidecar section length {len} exceeds cap {MAX_PAYLOAD}"
        )));
    }
    let frame_len = 5 + len as usize + 4;
    if buf.len() < frame_len {
        return Err(StoreError::corrupt("sidecar truncated mid-section"));
    }
    let framed = &buf[..5 + len as usize];
    let stored = u32::from_be_bytes(
        buf[5 + len as usize..frame_len]
            .try_into()
            .expect("4-byte slice"),
    );
    if crc32(framed) != stored {
        return Err(StoreError::corrupt("sidecar section CRC mismatch"));
    }
    Ok((tag, &framed[5..], frame_len))
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
        let table = frame_table(&buf).unwrap();
        let (off30, len30) = table[30];
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
    }
}
