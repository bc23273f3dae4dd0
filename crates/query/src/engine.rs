//! The query engine: secondary indexes + block cache over one archive.
//!
//! [`QueryEngine::open`] takes the raw archive bytes, builds the postings
//! sidecar, reads the first timestamp of every postings block, and then
//! serves four query families:
//!
//! * **account history** — postings offsets resolved through the block
//!   cache, so each hot block decodes once however many accounts live in
//!   it;
//! * **`[from, to)` windows** — an exact seek to the last block that
//!   starts before `from`, then a frame walk that stops at `limit` or the
//!   first event at or past `to`;
//! * **(currency, day) flows** — answered entirely from the sidecar;
//! * **fingerprint classes** — the paper's ⟨Am, Tsc, C, D⟩ attack ladder,
//!   served live by memoized [`DeanonIndex`]es sharing one record arena.
//!
//! Both archive-touching families go through the same admission-gated
//! probe: a resident block is read in place, a cold one is not
//! materialised — only the frames the query needs are decoded — and a
//! block is promoted into the cache once it has missed often enough, so
//! a scan cannot evict the point-lookup working set.
//!
//! The visitor-style `visit_*` methods are the hot path: they hand out
//! borrowed events without cloning. The owning wrappers
//! (`account_history`, `range`) clone for callers that want vectors.

use std::collections::HashMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ripple_crypto::AccountId;
use ripple_deanon::{DeanonIndex, Observation, ResolutionSpec};
use ripple_ledger::{Currency, PaymentRecord, RippleTime};
use ripple_obs::{LazyCounter, LazyTimer};
use ripple_store::postings::{decode_frame_at, FlowStat, PostingsConfig, PostingsIndex};
use ripple_store::stream::MAGIC;
use ripple_store::{HistoryEvent, ReadMode, Reader, StoreError};

use crate::cache::{Block, BlockCache};

static LOOKUPS: LazyCounter = LazyCounter::new("query.engine.lookups");
static RANGE_SCANS: LazyCounter = LazyCounter::new("query.engine.range_scans");
static RANGE_FRAMES: LazyCounter = LazyCounter::new("query.engine.range_frames");
static CLASS_QUERIES: LazyCounter = LazyCounter::new("query.engine.class_queries");
static CLASS_INDEX_BUILDS: LazyCounter = LazyCounter::new("query.engine.class_index_builds");
static BUILD_TIMER: LazyTimer = LazyTimer::new("query.engine.build");

/// How [`QueryEngine::open`] builds its indexes and cache.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Threads decoding payloads during the postings build.
    pub build_shards: usize,
    /// Records per cache block — also the granularity of a window seek.
    pub block_records: usize,
    /// Block-cache budget in bytes.
    pub cache_bytes: usize,
    /// Block-cache lock shards.
    pub cache_shards: usize,
    /// Corruption handling for the build and for every later frame read.
    pub mode: ReadMode,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            build_shards: 1,
            block_records: 64,
            cache_bytes: 64 * 1024 * 1024,
            cache_shards: 16,
            mode: ReadMode::Strict,
        }
    }
}

/// What [`QueryEngine::open`] measured while building.
#[derive(Debug, Clone, Copy)]
pub struct BuildReport {
    /// Wall-clock seconds spent building the postings and reading the
    /// block start times.
    pub build_secs: f64,
    /// Encoded size of the postings sidecar in bytes.
    pub sidecar_bytes: u64,
    /// Records indexed.
    pub records: u64,
    /// Distinct accounts with postings.
    pub accounts: u64,
    /// Distinct (currency, day) flow classes.
    pub flow_classes: u64,
    /// Cache blocks the archive divides into.
    pub blocks: u64,
    /// Bytes skipped over corruption (resync builds only).
    pub skipped_bytes: u64,
    /// Corrupt regions ridden over (resync builds only).
    pub corrupt_regions: u64,
}

/// The indexed, cached read path over one in-memory archive.
#[derive(Debug)]
pub struct QueryEngine {
    archive: Vec<u8>,
    postings: PostingsIndex,
    /// First event timestamp of every postings block, in block order —
    /// non-decreasing, because the postings build rejects regressions.
    block_times: Vec<RippleTime>,
    cache: BlockCache,
    mode: ReadMode,
    time_bounds: Option<(RippleTime, RippleTime)>,
    range_scans: AtomicU64,
    range_frames: AtomicU64,
    class_indexes: Mutex<HashMap<ResolutionSpec, Arc<DeanonIndex>>>,
    arena: OnceLock<Arc<[PaymentRecord]>>,
}

impl QueryEngine {
    /// Builds the indexes over `archive` and wires up the cache.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the builds (in [`ReadMode::Strict`], the
    /// first corrupt frame is fatal; in [`ReadMode::Resync`] the engine
    /// serves what salvages).
    pub fn open(
        archive: Vec<u8>,
        config: &EngineConfig,
    ) -> Result<(QueryEngine, BuildReport), StoreError> {
        let started = Instant::now();
        let postings = PostingsIndex::build(
            &archive,
            &PostingsConfig {
                shards: config.build_shards,
                mode: config.mode,
                block_records: config.block_records,
            },
        )?;
        let block_times = postings
            .blocks()
            .iter()
            .map(|&start| Ok(decode_frame_at(&archive, start)?.0.timestamp()))
            .collect::<Result<Vec<_>, StoreError>>()?;
        let build_secs = started.elapsed().as_secs_f64();
        BUILD_TIMER.record(started.elapsed());
        let sidecar_bytes = postings.to_bytes().len() as u64;
        let stats = postings.stats();
        let report = BuildReport {
            build_secs,
            sidecar_bytes,
            records: postings.records(),
            accounts: postings.accounts() as u64,
            flow_classes: postings.flow_classes() as u64,
            blocks: postings.blocks().len() as u64,
            skipped_bytes: stats.skipped_bytes,
            corrupt_regions: stats.corrupt_regions,
        };
        let mut engine = QueryEngine {
            archive,
            postings,
            block_times,
            cache: BlockCache::new(config.cache_bytes, config.cache_shards),
            mode: config.mode,
            time_bounds: None,
            range_scans: AtomicU64::new(0),
            range_frames: AtomicU64::new(0),
            class_indexes: Mutex::new(HashMap::new()),
            arena: OnceLock::new(),
        };
        // The archive is time-ordered, so the bounds are the first block's
        // first event and the last block's last.
        if let Some(&first) = engine.block_times.first() {
            let mut last = first;
            engine.walk_block(engine.block_times.len() - 1, |_, event| {
                last = event.timestamp();
                true
            })?;
            engine.time_bounds = Some((first, last));
        }
        Ok((engine, report))
    }

    /// Records indexed.
    pub fn records(&self) -> u64 {
        self.postings.records()
    }

    /// The postings sidecar.
    pub fn postings(&self) -> &PostingsIndex {
        &self.postings
    }

    /// The block cache (hit/miss counters, resident bytes).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// First and last event timestamps, if the archive is non-empty.
    pub fn time_bounds(&self) -> Option<(RippleTime, RippleTime)> {
        self.time_bounds
    }

    /// Range scans served by this engine.
    pub fn range_scans(&self) -> u64 {
        self.range_scans.load(Ordering::Relaxed)
    }

    /// Frames those scans examined, decoded cold or read from a resident
    /// block — per scan at most `limit + block_records + 1`.
    pub fn range_frames(&self) -> u64 {
        self.range_frames.load(Ordering::Relaxed)
    }

    /// Archive span `[start, end)` of block `id`.
    fn block_bounds(&self, id: usize) -> (u64, u64) {
        let blocks = self.postings.blocks();
        let end = blocks
            .get(id + 1)
            .copied()
            .unwrap_or(self.postings.archive_len());
        (blocks[id], end)
    }

    /// Hands the frames of block `id` to `step` in offset order until it
    /// returns `false`; `Ok(true)` means the block was walked to its end.
    /// Every frame is CRC-verified before its payload is parsed. This is
    /// the engine's only block reader, and it honours the read mode: in
    /// [`ReadMode::Resync`] it rides the recovering [`Reader`] from the
    /// block start, so it yields exactly the frames the postings build
    /// indexed there, however the bytes between them are damaged.
    fn walk_block(
        &self,
        id: usize,
        mut step: impl FnMut(u64, HistoryEvent) -> bool,
    ) -> Result<bool, StoreError> {
        let (start, end) = self.block_bounds(id);
        match self.mode {
            ReadMode::Strict => {
                let mut pos = start;
                while pos < end {
                    let (event, frame_len) = decode_frame_at(&self.archive, pos)?;
                    if !step(pos, event) {
                        return Ok(false);
                    }
                    pos += u64::from(frame_len);
                }
            }
            ReadMode::Resync => {
                // A virtual archive that begins at the block: the reader's
                // offsets count its magic, the block's do not. The source
                // runs to the end of the archive and the walk stops by
                // offset, so a damaged length field near the block's end is
                // judged against the same bytes the build saw.
                let tail = &self.archive[start as usize..];
                let mut reader = Reader::recovering(MAGIC.as_slice().chain(tail))?;
                while let Some((at, event)) = reader.next_event_at()? {
                    let offset = start + at - MAGIC.len() as u64;
                    if offset >= end {
                        break;
                    }
                    if !step(offset, event) {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Decodes block `id` whole, for insertion into the cache.
    fn decode_block(&self, id: usize) -> Result<Block, StoreError> {
        let (start, end) = self.block_bounds(id);
        let mut offsets = Vec::new();
        let mut events = Vec::new();
        self.walk_block(id, |offset, event| {
            offsets.push(offset);
            events.push(event);
            true
        })?;
        Ok(Block::new(start, (end - start) as usize, offsets, events))
    }

    /// Two-tier probe shared by point lookups and range scans: the cached
    /// block if resident, a freshly decoded (and admitted) one once the
    /// block has missed often enough to earn promotion, `None` otherwise —
    /// in which case the caller should decode just the frames it needs.
    /// Keeps one-off touches from paying whole-block decodes or evicting
    /// hot blocks.
    fn block_if_hot(&self, id: usize) -> Result<Option<Arc<Block>>, StoreError> {
        if let Some(block) = self.cache.get_if_present(id) {
            return Ok(Some(block));
        }
        if self.cache.note_miss(id) {
            let block = Arc::new(self.decode_block(id)?);
            self.cache.insert(id, Arc::clone(&block));
            return Ok(Some(block));
        }
        Ok(None)
    }

    /// Visits the most recent `limit` events touching `account`, oldest
    /// first, without cloning. Passing `usize::MAX` visits the full
    /// history.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from block decode.
    pub fn visit_account_history(
        &self,
        account: &AccountId,
        limit: usize,
        mut visit: impl FnMut(u64, &HistoryEvent),
    ) -> Result<usize, StoreError> {
        LOOKUPS.add(1);
        let offsets = self.postings.account_offsets(account);
        let tail = &offsets[offsets.len().saturating_sub(limit)..];
        // Postings are sorted, so consecutive offsets usually share a
        // block: resolve the cache once per distinct block, then find each
        // offset by binary search in the block's (sorted) offset column
        // past the previous one.
        // Cold blocks are not force-decoded: until the admission policy
        // promotes one, only the frames this account needs are decoded.
        let mut i = 0;
        while i < tail.len() {
            let (id, _, end) = self.postings.block_span(tail[i]);
            match self.block_if_hot(id)? {
                Some(block) => {
                    let mut ev = 0usize;
                    while i < tail.len() && tail[i] < end {
                        let offset = tail[i];
                        ev += block.offsets[ev..].partition_point(|&at| at < offset);
                        if block.offsets.get(ev) != Some(&offset) {
                            return Err(StoreError::corrupt(format!(
                                "no frame at offset {offset}"
                            )));
                        }
                        visit(offset, &block.events[ev]);
                        ev += 1;
                        i += 1;
                    }
                }
                None => {
                    while i < tail.len() && tail[i] < end {
                        let offset = tail[i];
                        let (event, _) = decode_frame_at(&self.archive, offset)?;
                        visit(offset, &event);
                        i += 1;
                    }
                }
            }
        }
        Ok(tail.len())
    }

    /// The most recent `limit` events touching `account`, oldest first,
    /// as owned pairs. Total history length comes from
    /// [`PostingsIndex::account_offsets`].
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from block decode.
    pub fn account_history(
        &self,
        account: &AccountId,
        limit: usize,
    ) -> Result<Vec<(u64, HistoryEvent)>, StoreError> {
        let mut out = Vec::new();
        self.visit_account_history(account, limit, |offset, event| {
            out.push((offset, event.clone()));
        })?;
        Ok(out)
    }

    /// Visits events with `from <= timestamp < to` in time order, stopping
    /// after `limit` matches. Returns the number visited.
    ///
    /// The scan starts at the last block whose first timestamp is below
    /// `from` — strictly below, so equal timestamps that straddle a block
    /// seam are all seen — and examines at most `limit` matches, the
    /// `block_records` frames of that one block, and one terminator.
    /// Resident blocks are read in place; cold ones are decoded a frame at
    /// a time and earn promotion through the cache's admission counter.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from frame decode.
    pub fn visit_range(
        &self,
        from: RippleTime,
        to: RippleTime,
        limit: usize,
        mut visit: impl FnMut(u64, &HistoryEvent),
    ) -> Result<usize, StoreError> {
        RANGE_SCANS.add(1);
        self.range_scans.fetch_add(1, Ordering::Relaxed);
        if from >= to || limit == 0 {
            return Ok(0);
        }
        let mut matched = 0usize;
        let mut frames = 0u64;
        let mut step = |offset: u64, event: &HistoryEvent| {
            frames += 1;
            let t = event.timestamp();
            if t >= to {
                return false;
            }
            if t >= from {
                visit(offset, event);
                matched += 1;
            }
            matched < limit
        };
        let first = self
            .block_times
            .partition_point(|&t| t < from)
            .saturating_sub(1);
        for id in first..self.block_times.len() {
            let more = match self.block_if_hot(id)? {
                Some(block) => block
                    .offsets
                    .iter()
                    .zip(&block.events)
                    .all(|(&offset, event)| step(offset, event)),
                None => self.walk_block(id, |offset, event| step(offset, &event))?,
            };
            if !more {
                break;
            }
        }
        RANGE_FRAMES.add(frames);
        self.range_frames.fetch_add(frames, Ordering::Relaxed);
        Ok(matched)
    }

    /// Events with `from <= timestamp < to`, capped at `limit`, as owned
    /// pairs.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from block decode.
    pub fn range(
        &self,
        from: RippleTime,
        to: RippleTime,
        limit: usize,
    ) -> Result<Vec<(u64, HistoryEvent)>, StoreError> {
        let mut out = Vec::new();
        self.visit_range(from, to, limit, |offset, event| {
            out.push((offset, event.clone()));
        })?;
        Ok(out)
    }

    /// The flow class for `(currency, day)` — answered from the sidecar
    /// without touching the archive.
    pub fn flow(&self, currency: Currency, day: RippleTime) -> Option<&FlowStat> {
        self.postings.flow(currency, day)
    }

    /// Candidate senders for an observation under `spec` — the paper's
    /// fingerprint-class query, served by a memoized attack index.
    pub fn class_candidates(
        &self,
        spec: ResolutionSpec,
        observation: &Observation,
    ) -> Vec<AccountId> {
        CLASS_QUERIES.add(1);
        self.class_index(spec).query(observation)
    }

    /// The memoized [`DeanonIndex`] for `spec`, building it on first use.
    /// All specs share one payment arena.
    pub fn class_index(&self, spec: ResolutionSpec) -> Arc<DeanonIndex> {
        let mut guard = self.class_indexes.lock().expect("class index map poisoned");
        guard
            .entry(spec)
            .or_insert_with(|| {
                CLASS_INDEX_BUILDS.add(1);
                Arc::new(DeanonIndex::build_shared(self.payment_arena(), spec))
            })
            .clone()
    }

    /// The payment records in archive order, shared across class indexes.
    /// Materialized on first fingerprint query.
    pub fn payment_arena(&self) -> Arc<[PaymentRecord]> {
        self.arena
            .get_or_init(|| {
                let mut reader =
                    Reader::with_mode(self.archive.as_slice(), self.mode).expect("archive re-read");
                let mut payments = Vec::new();
                while let Ok(Some(event)) = reader.next_event() {
                    if let HistoryEvent::Payment(p) = event {
                        payments.push(p);
                    }
                }
                payments.into()
            })
            .clone()
    }

    /// The linear baseline the indexes are measured against: a full
    /// archive rescan filtering for `account`, bypassing postings and
    /// cache entirely.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the scan.
    pub fn rescan_account_history(
        &self,
        account: &AccountId,
    ) -> Result<Vec<(u64, HistoryEvent)>, StoreError> {
        let mut reader = Reader::with_mode(self.archive.as_slice(), self.mode)?;
        let mut out = Vec::new();
        while let Some((offset, event)) = reader.next_event_at()? {
            let touches = match &event {
                HistoryEvent::Payment(p) => p.sender == *account || p.destination == *account,
                HistoryEvent::OfferPlaced { owner, .. } => owner == account,
                HistoryEvent::TrustSet {
                    truster, trustee, ..
                } => truster == account || trustee == account,
                HistoryEvent::AccountCreated { account: a, .. } => a == account,
            };
            if touches {
                out.push((offset, event));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_crypto::sha512_half;
    use ripple_ledger::{PathSummary, Value};
    use ripple_store::Writer;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn payment(sender: u8, dest: u8, secs: u64, amount: &str) -> HistoryEvent {
        HistoryEvent::Payment(PaymentRecord {
            tx_hash: sha512_half(&[sender, dest, secs as u8]),
            sender: acct(sender),
            destination: acct(dest),
            currency: Currency::USD,
            issuer: None,
            amount: amount.parse().unwrap(),
            timestamp: RippleTime::from_seconds(secs),
            ledger_seq: secs as u32,
            paths: PathSummary::direct(),
            cross_currency: false,
            source_currency: None,
        })
    }

    fn archive(events: &[HistoryEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = Writer::new(&mut buf);
        for e in events {
            writer.write(e).unwrap();
        }
        writer.finish().unwrap();
        buf
    }

    fn engine(events: &[HistoryEvent], config: &EngineConfig) -> QueryEngine {
        QueryEngine::open(archive(events), config).unwrap().0
    }

    fn secs(n: u64) -> RippleTime {
        RippleTime::from_seconds(n)
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            block_records: 8,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn account_history_matches_rescan() {
        let events: Vec<HistoryEvent> = (0..100)
            .map(|i| payment((i % 7) as u8, ((i + 1) % 7) as u8, i * 60, "1.5"))
            .collect();
        let engine = engine(&events, &small_config());
        for n in 0..7u8 {
            let indexed = engine.account_history(&acct(n), usize::MAX).unwrap();
            let rescan = engine.rescan_account_history(&acct(n)).unwrap();
            assert_eq!(indexed, rescan, "account {n}");
            assert!(!indexed.is_empty());
        }
        // Unknown account: empty, not an error.
        assert!(engine.account_history(&acct(200), 10).unwrap().is_empty());
    }

    #[test]
    fn history_limit_takes_the_tail() {
        let events: Vec<HistoryEvent> = (0..20).map(|i| payment(1, 2, 1000 + i, "2")).collect();
        let engine = engine(&events, &small_config());
        let last5 = engine.account_history(&acct(1), 5).unwrap();
        assert_eq!(last5.len(), 5);
        let times: Vec<u64> = last5.iter().map(|(_, e)| e.timestamp().seconds()).collect();
        assert_eq!(times, vec![1015, 1016, 1017, 1018, 1019]);
    }

    #[test]
    fn range_matches_time_index_scan() {
        let events: Vec<HistoryEvent> = (0..200)
            .map(|i| payment((i % 5) as u8, 9, i * 30, "1"))
            .collect();
        let engine = engine(&events, &small_config());
        let from = RippleTime::from_seconds(1000);
        let to = RippleTime::from_seconds(3000);
        let got = engine.range(from, to, usize::MAX).unwrap();
        let expected: Vec<u64> = (0..200u64)
            .map(|i| i * 30)
            .filter(|&t| (1000..3000).contains(&t))
            .collect();
        assert_eq!(got.len(), expected.len());
        for ((_, event), want) in got.iter().zip(expected) {
            assert_eq!(event.timestamp().seconds(), want);
        }
        // Limit truncates from the front.
        let capped = engine.range(from, to, 7).unwrap();
        assert_eq!(capped.len(), 7);
        assert_eq!(capped[0].1.timestamp().seconds(), 1020);
    }

    /// Timestamps (seconds) of the events `range` returns.
    fn window(engine: &QueryEngine, from: u64, to: u64, limit: usize) -> Vec<u64> {
        let events = engine.range(secs(from), secs(to), limit).unwrap();
        events
            .iter()
            .map(|(_, e)| e.timestamp().seconds())
            .collect()
    }

    #[test]
    fn duplicate_timestamps_are_fine() {
        // Page-sharing payments carry identical close times; with two
        // records per block the run of 10s straddles a block seam.
        let times = [10, 10, 10, 20, 20];
        let events: Vec<HistoryEvent> = times.iter().map(|&t| payment(1, 2, t, "1")).collect();
        let config = EngineConfig {
            block_records: 2,
            ..EngineConfig::default()
        };
        let engine = engine(&events, &config);
        assert_eq!(window(&engine, 10, 11, usize::MAX), [10, 10, 10]);
        assert_eq!(window(&engine, 20, 21, usize::MAX), [20, 20]);
        assert_eq!(window(&engine, 10, 21, 4), [10, 10, 10, 20]);
    }

    #[test]
    fn empty_and_out_of_range_scans() {
        let events: Vec<HistoryEvent> = [10, 20, 30]
            .iter()
            .map(|&t| payment(1, 2, t, "1"))
            .collect();
        let served = engine(&events, &small_config());
        assert!(
            window(&served, 100, 200, usize::MAX).is_empty(),
            "after the last event"
        );
        assert!(
            window(&served, 5, 10, usize::MAX).is_empty(),
            "before the first event"
        );
        assert!(window(&served, 30, 10, usize::MAX).is_empty(), "from > to");
        assert!(
            window(&served, 20, 20, usize::MAX).is_empty(),
            "empty window"
        );
        assert!(window(&served, 0, 100, 0).is_empty(), "limit 0");
        assert_eq!(
            window(&served, 0, 25, usize::MAX),
            [10, 20],
            "opens before the first event"
        );

        let empty = engine(&[], &small_config());
        assert!(window(&empty, 0, 100, 10).is_empty());
        assert_eq!(empty.time_bounds(), None);
    }

    #[test]
    fn resync_engine_serves_a_damaged_block() {
        // Regression: block promotion and range scans walked strictly by
        // `frame_len`, so a Resync engine failed on the damaged block —
        // `range` always, `account_history` each time the admission
        // counter promoted it (every third call).
        let events: Vec<HistoryEvent> = (0..40).map(|i| payment(1, 2, 1000 + i, "2")).collect();
        let mut bytes = archive(&events);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        let config = EngineConfig {
            mode: ReadMode::Resync,
            ..small_config()
        };
        assert!(QueryEngine::open(bytes.clone(), &small_config()).is_err());
        let (engine, report) = QueryEngine::open(bytes.clone(), &config).unwrap();
        assert_eq!(report.records, 39);
        assert_eq!(report.corrupt_regions, 1);
        assert_eq!(report.skipped_bytes, 123, "exactly the damaged frame");

        let rescan = engine.rescan_account_history(&acct(1)).unwrap();
        assert_eq!(rescan.len(), 39);
        for call in 0..12 {
            let history = engine.account_history(&acct(1), usize::MAX).unwrap();
            assert_eq!(history, rescan, "call {call}");
        }
        // Hot (promoted above) and cold (fresh engine) range walks agree.
        let cold = QueryEngine::open(bytes, &config).unwrap().0;
        let salvaged: Vec<u64> = (1000..1040).filter(|&t| t != 1019).collect();
        for engine in [&engine, &cold] {
            let all = engine.range(secs(0), secs(u64::MAX), usize::MAX).unwrap();
            assert_eq!(all, rescan);
            assert_eq!(window(engine, 0, u64::MAX, usize::MAX), salvaged);
            assert_eq!(window(engine, 1015, 1025, usize::MAX), salvaged[15..24]);
        }
        assert_eq!(engine.time_bounds(), Some((secs(1000), secs(1039))));
    }

    #[test]
    fn point_lookups_hit_the_cache() {
        let events: Vec<HistoryEvent> = (0..64).map(|i| payment(1, 2, 100 + i, "3")).collect();
        let engine = engine(&events, &small_config());
        let newest = || engine.account_history(&acct(1), 1).unwrap();
        // Cold, a lookup decodes the one frame it needs and counts a miss
        // on its block; the third miss earns the block its promotion.
        let first = newest();
        assert_eq!(first[0].1.timestamp().seconds(), 163);
        assert_eq!(engine.cache().resident_blocks(), 0);
        newest();
        newest();
        assert_eq!(engine.cache().resident_blocks(), 1);
        let misses_after_promotion = engine.cache().misses();
        assert_eq!(misses_after_promotion, 3);
        // Same block again: pure hits.
        for _ in 0..10 {
            assert_eq!(newest(), first);
        }
        assert_eq!(engine.cache().misses(), misses_after_promotion);
        assert_eq!(engine.cache().hits(), 10);
    }

    #[test]
    fn resident_blocks_answer_like_a_rescan() {
        // Several accounts per block, self-payments included, so a lookup
        // resolves more than one offset in the same resident block.
        let events: Vec<HistoryEvent> = (0..200)
            .map(|i| payment((i % 7) as u8, ((i * 3) % 5) as u8, 1000 + i * 7, "1.25"))
            .collect();
        let engine = engine(&events, &small_config());
        let accounts: Vec<AccountId> = (0..7).map(acct).collect();
        let blocks = engine.postings().blocks().len();
        // The default budget holds the whole archive: three rounds of
        // lookups give every block the misses that promote it, and nothing
        // is evicted.
        for _ in 0..3 {
            for a in &accounts {
                engine.account_history(a, usize::MAX).unwrap();
            }
        }
        assert_eq!(engine.cache().resident_blocks(), blocks);

        let misses = engine.cache().misses();
        for a in &accounts {
            let rescan = engine.rescan_account_history(a).unwrap();
            assert_eq!(engine.account_history(a, usize::MAX).unwrap(), rescan);
            assert_eq!(
                engine.account_history(a, 1).unwrap(),
                rescan[rescan.len() - 1..]
            );
        }
        let mut reader = Reader::new(engine.archive.as_slice()).unwrap();
        let mut all = Vec::new();
        while let Some(pair) = reader.next_event_at().unwrap() {
            all.push(pair);
        }
        for (from, to) in [(0, u64::MAX), (1000, 1001), (1300, 2000), (1007, 2393)] {
            let linear: Vec<(u64, HistoryEvent)> = all
                .iter()
                .filter(|(_, e)| (from..to).contains(&e.timestamp().seconds()))
                .cloned()
                .collect();
            assert_eq!(
                engine.range(secs(from), secs(to), usize::MAX).unwrap(),
                linear
            );
        }
        assert_eq!(engine.cache().misses(), misses, "all served resident");
    }

    #[test]
    fn flows_and_classes_answer() {
        // 17 payments on day 0, 17 on day 1, 16 on day 2 — monotone times.
        let events: Vec<HistoryEvent> = (0..50)
            .map(|i| payment(3, 4, 86_400 * (i / 17) + 100 + (i % 17), "2.5"))
            .collect();
        let engine = engine(&events, &small_config());
        let day0 = engine
            .flow(Currency::USD, RippleTime::from_seconds(500))
            .expect("day 0 exists");
        assert_eq!(day0.payments, 17);
        assert_eq!(
            day0.total(),
            Value::from_raw("2.5".parse::<Value>().unwrap().raw() * 17)
        );

        let spec = ResolutionSpec::full();
        let observation = Observation {
            amount: Some("2.5".parse().unwrap()),
            time: Some(RippleTime::from_seconds(100)),
            currency: Some(Currency::USD),
            strength: None,
            destination: Some(acct(4)),
        };
        let candidates = engine.class_candidates(spec, &observation);
        assert_eq!(candidates, vec![acct(3)]);
        // Second query reuses the memoized index.
        let again = engine.class_candidates(spec, &observation);
        assert_eq!(again, candidates);
    }

    #[test]
    fn time_bounds_cover_the_archive() {
        let events: Vec<HistoryEvent> = (0..30).map(|i| payment(1, 2, 500 + i * 10, "1")).collect();
        let engine = engine(&events, &small_config());
        let (first, last) = engine.time_bounds().unwrap();
        assert_eq!(first.seconds(), 500);
        assert_eq!(last.seconds(), 790);
    }
}
