//! Fixed-budget, shard-locked cache of decoded frame blocks.
//!
//! Point lookups land on frame offsets; decoding one frame means decoding
//! its enclosing *block* (the index's fixed decode unit), so under skewed
//! traffic the same blocks decode over and over. The cache keeps decoded
//! blocks behind `Arc` so readers share them without copying, evicting the
//! least-recently-used block per shard once the byte budget is exceeded.
//!
//! Locking is sharded by block id: concurrent lookups on different blocks
//! take different mutexes, and the per-shard critical section is a hash
//! probe plus an LRU tick — decode work happens outside the lock. Block ids
//! are dense indexes into the engine's own block table, so the shard maps
//! use the unkeyed Fx hash.
//!
//! A [`Block`] holds its frame offsets and its decoded events as two
//! columns: a point lookup binary-searches the 8-byte offset column (512
//! bytes for a 64-record block) and then reads one event.
//!
//! Admission is adaptive: blocks earn promotion by missing
//! [`note_miss`](BlockCache::note_miss)-counted touches, and the touches
//! required rise when residents are evicted before their first hit (the
//! thrash signal of a working set that outruns the budget) and fall as
//! residents prove useful. Under thrash the cache stops churning and
//! point lookups degrade gracefully to single-frame decodes. Admissions
//! and evictions are counted in `query.cache.admits` and
//! `query.cache.evictions`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ripple_crypto::FxHashMap;
use ripple_obs::{LazyCounter, LazyGauge};
use ripple_store::HistoryEvent;

static CACHE_HITS: LazyCounter = LazyCounter::new("query.cache.hits");
static CACHE_MISSES: LazyCounter = LazyCounter::new("query.cache.misses");
static CACHE_ADMITS: LazyCounter = LazyCounter::new("query.cache.admits");
static CACHE_EVICTIONS: LazyCounter = LazyCounter::new("query.cache.evictions");
static CACHE_BYTES: LazyGauge = LazyGauge::new("query.cache.bytes");
static CACHE_BLOCKS: LazyGauge = LazyGauge::new("query.cache.blocks");

/// One decoded block: the events framed in `[start, end)` of the archive,
/// in offset order, as two columns — a point lookup's binary search reads
/// only the dense `offsets` column and touches one event.
#[derive(Debug)]
pub struct Block {
    /// Archive offset the block starts at.
    pub start: u64,
    /// Frame offset of each event, ascending.
    pub offsets: Vec<u64>,
    /// The decoded events; `events[i]` is framed at `offsets[i]`.
    pub events: Vec<HistoryEvent>,
    /// Size charged against the cache budget (encoded span plus a fixed
    /// per-event decode overhead — an estimate, but a deterministic one).
    pub bytes: usize,
}

impl Block {
    /// Builds a block from its decoded columns, charging `span` encoded
    /// bytes.
    pub fn new(start: u64, span: usize, offsets: Vec<u64>, events: Vec<HistoryEvent>) -> Block {
        debug_assert_eq!(offsets.len(), events.len());
        let bytes = span + events.len() * 96;
        Block {
            start,
            offsets,
            events,
            bytes,
        }
    }
}

struct Entry {
    block: Arc<Block>,
    last_used: u64,
    /// Still waiting for its first hit since insertion. Evicting a block
    /// that never earned one is the thrash signal the adaptive admission
    /// threshold feeds on.
    fresh: bool,
}

/// Floor on the misses a block must accumulate before
/// [`BlockCache::note_miss`] approves promotion: one-off touches (a cold
/// scan, a rare account) never pay a full block decode or evict a hot
/// resident.
const PROMOTE_AFTER: u32 = 3;

/// Ceiling on the adaptive promotion threshold. When the hot working set
/// dwarfs the budget, promoted blocks get evicted before they are ever
/// hit again; each such eviction doubles the shard's threshold (up to
/// this cap) so the cache stops churning and point lookups fall back to
/// cheap single-frame decodes. Each first hit on a resident block walks
/// the threshold back down toward the floor.
const MAX_PROMOTE_AFTER: u32 = 256;

/// Admission-counter entries per shard before the counters reset. A
/// bounded generational clear keeps the side table small; the cost is
/// that a block's progress toward promotion can be forgotten.
const TOUCH_CAP: usize = 8_192;

struct Shard {
    map: FxHashMap<usize, Entry>,
    bytes: usize,
    tick: u64,
    touches: FxHashMap<usize, u32>,
    promote_after: u32,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            map: FxHashMap::default(),
            bytes: 0,
            tick: 0,
            touches: FxHashMap::default(),
            promote_after: PROMOTE_AFTER,
        }
    }
}

/// Locks one shard.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // Poison needs a panic under a guard; no critical section here panics.
    shard.lock().expect("cache shard poisoned")
}

/// The shard-locked LRU block cache. See the module docs.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl BlockCache {
    /// A cache holding at most `budget_bytes` of decoded blocks across
    /// `shards` independently locked shards.
    pub fn new(budget_bytes: usize, shards: usize) -> BlockCache {
        let shards = shards.max(1);
        BlockCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: (budget_bytes / shards).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached block `id` if resident (bumping its recency), `None`
    /// otherwise. Counts a hit or a miss either way — this is the probe
    /// the two-tier point-lookup path uses before deciding whether to
    /// decode a whole block or just the frames it needs.
    pub fn get_if_present(&self, id: usize) -> Option<Arc<Block>> {
        let mut guard = lock(&self.shards[id % self.shards.len()]);
        guard.tick += 1;
        let tick = guard.tick;
        if let Some(entry) = guard.map.get_mut(&id) {
            entry.last_used = tick;
            let first_hit = std::mem::replace(&mut entry.fresh, false);
            let block = entry.block.clone();
            if first_hit {
                guard.promote_after = guard.promote_after.saturating_sub(1).max(PROMOTE_AFTER);
            }
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.add(1);
            return Some(block);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.add(1);
        None
    }

    /// Records one miss on `id` for the admission policy; `true` means
    /// the block has now missed often enough to be worth promoting
    /// (decode fully and [`BlockCache::insert`] it).
    pub fn note_miss(&self, id: usize) -> bool {
        let mut guard = lock(&self.shards[id % self.shards.len()]);
        if guard.touches.len() >= TOUCH_CAP {
            guard.touches.clear();
        }
        let threshold = guard.promote_after;
        let count = guard.touches.entry(id).or_insert(0);
        *count += 1;
        if *count >= threshold {
            guard.touches.remove(&id);
            true
        } else {
            false
        }
    }

    /// Inserts an already-decoded block (promotion path), evicting
    /// coldest-first past the budget. No hit/miss accounting — the probe
    /// that led here already counted.
    pub fn insert(&self, id: usize, block: Arc<Block>) {
        let mut guard = lock(&self.shards[id % self.shards.len()]);
        guard.tick += 1;
        let tick = guard.tick;
        if let Some(entry) = guard.map.get_mut(&id) {
            entry.last_used = tick;
            return;
        }
        guard.bytes += block.bytes;
        CACHE_ADMITS.add(1);
        CACHE_BYTES.add(block.bytes as i64);
        CACHE_BLOCKS.add(1);
        guard.map.insert(
            id,
            Entry {
                block,
                last_used: tick,
                fresh: true,
            },
        );
        Self::evict_over_budget(&mut guard, self.shard_budget);
    }

    fn evict_over_budget(guard: &mut Shard, budget: usize) {
        while guard.bytes > budget && guard.map.len() > 1 {
            let Some(coldest) = guard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            else {
                break;
            };
            if let Some(evicted) = guard.map.remove(&coldest) {
                guard.bytes -= evicted.block.bytes;
                if evicted.fresh {
                    // Promoted (or scanned-in) and evicted without one
                    // hit: the working set is outrunning the budget, so
                    // demand more evidence before the next promotion.
                    guard.promote_after =
                        guard.promote_after.saturating_mul(2).min(MAX_PROMOTE_AFTER);
                }
                CACHE_BYTES.add(-(evicted.block.bytes as i64));
                CACHE_BLOCKS.add(-1);
                CACHE_EVICTIONS.add(1);
            }
        }
    }

    /// Lookups served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to decode.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Decoded bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Blocks currently resident.
    pub fn resident_blocks(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(id: usize, bytes: usize) -> Block {
        Block {
            start: id as u64,
            offsets: Vec::new(),
            events: Vec::new(),
            bytes,
        }
    }

    #[test]
    fn hit_after_miss() {
        let cache = BlockCache::new(1 << 20, 4);
        assert!(cache.get_if_present(7).is_none());
        let a = Arc::new(block(7, 100));
        cache.insert(7, Arc::clone(&a));
        let b = cache.get_if_present(7).expect("resident");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.resident_bytes(), 100);
    }

    #[test]
    fn budget_evicts_coldest() {
        // One shard, budget for ~2 blocks of 100 bytes.
        let cache = BlockCache::new(250, 1);
        cache.insert(1, Arc::new(block(1, 100)));
        cache.insert(2, Arc::new(block(2, 100)));
        // Touch 1 so 2 is coldest, then insert 3 to force an eviction.
        assert!(cache.get_if_present(1).is_some());
        cache.insert(3, Arc::new(block(3, 100)));
        assert_eq!(cache.resident_blocks(), 2);
        assert!(cache.resident_bytes() <= 250);
        // 2 was evicted: probing it misses, and putting it back evicts 1,
        // now the coldest of the survivors.
        assert!(
            cache.get_if_present(2).is_none(),
            "coldest block should have been evicted"
        );
        cache.insert(2, Arc::new(block(2, 100)));
        // 3 was warmest before the re-insert and must survive it.
        assert!(cache.get_if_present(3).is_some(), "3 must survive");
        assert!(cache.get_if_present(1).is_none());
    }

    #[test]
    fn oversized_block_still_served() {
        let cache = BlockCache::new(10, 1);
        cache.insert(1, Arc::new(block(1, 1000)));
        // It stays resident (evicting the only block would thrash).
        let b = cache.get_if_present(1).expect("resident");
        assert_eq!(b.bytes, 1000);
    }

    fn touches_to_promote(cache: &BlockCache, id: usize) -> u32 {
        let mut n = 1;
        while !cache.note_miss(id) {
            n += 1;
        }
        n
    }

    #[test]
    fn eviction_without_hits_raises_the_promotion_bar() {
        // One shard with room for a single 100-byte block: every insert
        // evicts the previous resident before it is ever hit.
        let cache = BlockCache::new(150, 1);
        assert_eq!(touches_to_promote(&cache, 1), 3);
        cache.insert(1, Arc::new(block(1, 100)));
        assert_eq!(touches_to_promote(&cache, 2), 3);
        cache.insert(2, Arc::new(block(2, 100))); // evicts never-hit 1 -> bar 6
        assert_eq!(touches_to_promote(&cache, 3), 6);
        cache.insert(3, Arc::new(block(3, 100))); // evicts never-hit 2 -> bar 12
                                                  // A hit on the resident walks the bar back down by one.
        assert!(cache.get_if_present(3).is_some());
        assert_eq!(touches_to_promote(&cache, 4), 11);
        // Repeated hits never push it below the floor.
        for _ in 0..50 {
            assert!(cache.get_if_present(3).is_some());
        }
        assert_eq!(touches_to_promote(&cache, 5), 11, "only first hits count");
    }
}
