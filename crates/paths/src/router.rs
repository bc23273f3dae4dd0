//! Capacity-aware cached payment router: the crate's one path search.
//!
//! A cold search rebuilds the trust graph and re-runs the augmenting-path
//! search for every payment (`ripple_check::oracle::find_payment_paths`
//! is that search, kept as the router's oracle). The [`Router`] keeps, per
//! currency,
//!
//! * one **dense credit graph**: the accounts with an edge, interned to
//!   `u32` ids in ascending [`AccountId`] order (a sorted table searched by
//!   bisection), and per-id neighbour lists, ascending, with the live
//!   [`LedgerState::hop_capacity`] stored on the edge — so a search reads
//!   no ledger map at all. The graph is built in one scan of the ledger's
//!   [`RippleState`](ripple_ledger::RippleState) records: each record holds
//!   both limits and the balance of one pair, so it yields that pair's
//!   edges, capacities included, with no `hop_capacity` lookup at build
//!   time; and
//! * a table of *enumerated* candidate paths per `(source, destination)`:
//!   the full shortest-first augmenting-path decomposition, computed once
//!   without an amount bound and then *allocated* against any requested
//!   amount in O(paths), or ranked by transfer-fee cost
//!   ([`Router::cheapest`]).
//!
//! # Staying current
//!
//! Everything cached mirrors one ledger at one moment, named by the stamp
//! `(`[`LedgerState::lineage`]`, `[`LedgerState::credit_generation`]`)`.
//! The ledger bumps the generation on every trust-line write, pair-balance
//! adjustment and account severing, and `clone` hands out a new lineage, so
//! a query that presents any other stamp — a mutated ledger or a different
//! one — drops every graph and enumeration and rebuilds lazily.
//!
//! [`PaymentEngine`](crate::PaymentEngine) avoids the rebuild for its own
//! writes: it notes the stamp before it applies a routed plan and
//! afterwards hands over the hop pairs it pushed. If the router's stamp is
//! still that "before" value, the ledger differs from the mirror in those
//! pairs only, so the router re-reads just them (update, insert or remove
//! the two directed edges of each), drops the enumerations of that one
//! currency and advances its stamp. Anything else — `set_trust`,
//! `sever_accounts`, a rollback, a caller that bypasses the engine — still
//! shows up as a stamp mismatch.
//!
//! # Exactness
//!
//! [`Router::route`] returns byte-for-byte the same plan the cold search
//! would: both explore neighbours in ascending [`AccountId`] order, and the
//! amount-capped search reserves the *full* bottleneck on every path
//! except the last (where it reserves only the remainder and then stops
//! searching), so its residual state — and therefore every BFS it runs —
//! is identical to the unbounded enumeration's up to the stopping point.
//! Greedily allocating `min(remaining, bottleneck)` over the cached
//! enumeration reproduces the capped search exactly. The `router` target
//! of the differential harness (`experiments check`) enforces this
//! equivalence continuously against randomized ledgers, patched graphs
//! included.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use ripple_crypto::{AccountId, FxHashMap};
use ripple_ledger::{Currency, LedgerState, Value};

/// Limits on the path search.
#[derive(Debug, Clone, Copy)]
pub struct PathLimits {
    /// Maximum number of parallel paths a payment may be split across.
    /// The paper observes real payments split across up to 6 paths.
    pub max_paths: usize,
    /// Maximum intermediate hops per path (the ledger's own pathfinding
    /// rarely exceeds 8; spam payments were *forced* to exactly 8).
    pub max_hops: usize,
}

impl Default for PathLimits {
    fn default() -> Self {
        PathLimits {
            max_paths: 6,
            max_hops: 8,
        }
    }
}

/// One path of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoundPath {
    /// Intermediate accounts (sender and destination excluded).
    pub intermediates: Vec<AccountId>,
    /// Amount this path will carry.
    pub amount: Value,
}

/// Total amount carried by a path set.
pub fn carried(paths: &[FoundPath]) -> Value {
    paths.iter().map(|p| p.amount).sum()
}

/// Cache and query counters for one [`Router`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Total route queries served.
    pub queries: u64,
    /// Queries answered from a cached path enumeration.
    pub hits: u64,
    /// Queries that enumerated paths afresh.
    pub misses: u64,
    /// Cached graphs and enumerations discarded because the ledger moved.
    pub invalidations: u64,
    /// Full builds of one currency's credit graph.
    pub graph_builds: u64,
    /// Directed edges re-read from the ledger by edge patches.
    pub edges_refreshed: u64,
}

/// `(lineage, credit_generation)`: names one ledger at one moment.
pub(crate) type Stamp = (u64, u64);

pub(crate) fn stamp_of(state: &LedgerState) -> Stamp {
    (state.lineage(), state.credit_generation())
}

/// Shortest-first `(chain, bottleneck)` enumeration toward one destination.
/// Each chain runs source..destination inclusive.
type RouteSet = Vec<(Vec<AccountId>, Value)>;

/// "Not visited" in [`Scratch::parent`].
const UNSEEN: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    pub(crate) to: u32,
    /// Live `hop_capacity(from, to)`; may be zero or negative (a full
    /// line), which a reverse reservation can still lift above zero.
    capacity: Value,
}

/// One currency's credit graph in dense form.
#[derive(Debug, Clone)]
pub(crate) struct CreditGraph {
    /// Every account with an edge when the graph was built, ascending; the
    /// index is the dense id.
    pub(crate) accounts: Vec<AccountId>,
    /// Outgoing edges per dense id, ascending by `to`.
    pub(crate) edges: Vec<Vec<Edge>>,
}

/// One edge's tentative reservation during an enumeration: the residual
/// capacity `live - used` is written to the edge so the BFS reads it
/// there, and `live` is written back when the enumeration ends.
#[derive(Debug, Clone, Copy)]
struct Reserved {
    from: u32,
    slot: usize,
    live: Value,
    used: Value,
}

/// Search buffers reused across enumerations.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// BFS tree, `UNSEEN` everywhere between sweeps.
    parent: Vec<u32>,
    /// BFS queue; doubles as the list of `parent` entries to reset.
    queue: Vec<u32>,
    reserved: Vec<Reserved>,
}

impl CreditGraph {
    /// Builds one currency's graph in one scan of the ledger's credit
    /// relationships. An edge runs from X to every Y that trusts X, and from
    /// X to every Y whose IOUs X holds: a deposit at a gateway lets X push
    /// value back up to that claim even when Y declares no trust. Its
    /// capacity is `limit - held`, the expression
    /// [`LedgerState::hop_capacity`] evaluates, read off the same record.
    /// Dense ids ascend with [`AccountId`], so neighbour order — and with it
    /// every tie-break among equal-length paths — is a function of the
    /// ledger's contents, not of its hash-table layout.
    pub(crate) fn build(state: &LedgerState, currency: Currency) -> CreditGraph {
        let mut provisional: FxHashMap<AccountId, u32> = FxHashMap::default();
        let mut seen: Vec<AccountId> = Vec::new();
        let mut id = |account: AccountId| {
            *provisional.entry(account).or_insert_with(|| {
                seen.push(account);
                seen.len() as u32 - 1
            })
        };
        // `(from, to, capacity)` between provisional ids. `balance` is what
        // `high` owes `low`, so it nets into `low -> high`'s capacity and
        // against `high -> low`'s; a self-pair's one line is `low_limit`.
        let mut arcs: Vec<(u32, u32, Value)> = Vec::new();
        for r in state.ripple_states() {
            if r.currency != currency {
                continue;
            }
            let (low, high) = (id(r.low), id(r.high));
            if low == high {
                arcs.push((low, low, r.low_limit - r.balance));
                continue;
            }
            if r.high_limit.is_positive() || r.balance.is_positive() {
                arcs.push((low, high, r.high_limit + r.balance));
            }
            if r.low_limit.is_positive() || r.balance.is_negative() {
                arcs.push((high, low, r.low_limit - r.balance));
            }
        }

        // Ascending `AccountId` bytes, compared as a big-endian integer pair
        // (two compares instead of a `memcmp`), give the dense ids.
        let mut sorted: Vec<((u128, u32), u32)> = seen
            .iter()
            .map(|account| {
                let [high @ .., a, b, c, d] = *account.as_bytes();
                (u128::from_be_bytes(high), u32::from_be_bytes([a, b, c, d]))
            })
            .zip(0..)
            .collect();
        sorted.sort_unstable();
        let mut rank = vec![0u32; sorted.len()];
        for (dense, &(_, provisional)) in sorted.iter().enumerate() {
            rank[provisional as usize] = dense as u32;
        }
        let accounts: Vec<AccountId> = sorted.iter().map(|&(_, i)| seen[i as usize]).collect();

        // One record per pair: no directed pair has two arcs.
        let mut degree = vec![0usize; accounts.len()];
        for &(from, _, _) in &arcs {
            degree[rank[from as usize] as usize] += 1;
        }
        let mut edges: Vec<Vec<Edge>> = degree.into_iter().map(Vec::with_capacity).collect();
        for (from, to, capacity) in arcs {
            edges[rank[from as usize] as usize].push(Edge {
                to: rank[to as usize],
                capacity,
            });
        }
        for row in &mut edges {
            row.sort_unstable_by_key(|edge| edge.to);
        }
        CreditGraph { accounts, edges }
    }

    fn id(&self, account: AccountId) -> Option<u32> {
        self.accounts.binary_search(&account).ok().map(|i| i as u32)
    }

    fn slot(&self, from: u32, to: u32) -> Result<usize, usize> {
        self.edges[from as usize].binary_search_by_key(&to, |e| e.to)
    }

    /// Re-reads the two directed edges between `a` and `b`, the ends of a
    /// hop the ledger just executed. Both are interned: a hop needs
    /// capacity, which takes a trust line or a debt between its ends — an
    /// edge — at build time or from an earlier hop over the same pair.
    fn refresh_pair(
        &mut self,
        state: &LedgerState,
        currency: Currency,
        a: AccountId,
        b: AccountId,
    ) {
        let id = |account| self.id(account).expect("a hop's ends have an edge");
        let (a_id, b_id) = (id(a), id(b));
        for (from, to, from_id, to_id) in [(a, b, a_id, b_id), (b, a, b_id, a_id)] {
            // The build's rule: `to` declared trust in `from` (a stored
            // line always has a positive limit) or `from` holds `to`'s
            // IOUs.
            let exists = state.trust_limit(to, from, currency).is_positive()
                || state.iou_balance(from, to, currency).is_positive();
            let capacity = state.hop_capacity(from, to, currency);
            let slot = self.slot(from_id, to_id);
            let edges = &mut self.edges[from_id as usize];
            match (slot, exists) {
                (Ok(slot), true) => edges[slot].capacity = capacity,
                (Ok(slot), false) => {
                    edges.remove(slot);
                }
                (Err(slot), true) => edges.insert(
                    slot,
                    Edge {
                        to: to_id,
                        capacity,
                    },
                ),
                (Err(_), false) => {}
            }
        }
    }

    /// Reserves `amount` on the edge at `(from, slot)` (`forward`) or
    /// credits it back (a reservation on the reverse hop nets against it,
    /// exactly as existing pair debt nets in `hop_capacity`).
    fn reserve(
        &mut self,
        reserved: &mut Vec<Reserved>,
        from: u32,
        slot: usize,
        amount: Value,
        forward: bool,
    ) {
        let edge = &mut self.edges[from as usize][slot];
        let at = reserved
            .iter()
            .position(|r| r.from == from && r.slot == slot)
            .unwrap_or_else(|| {
                reserved.push(Reserved {
                    from,
                    slot,
                    live: edge.capacity,
                    used: Value::ZERO,
                });
                reserved.len() - 1
            });
        let entry = &mut reserved[at];
        entry.used = if forward {
            entry.used + amount
        } else {
            entry.used - amount
        };
        edge.capacity = entry.live - entry.used;
    }

    /// The unbounded shortest-first augmenting-path enumeration from
    /// `sender` to `destination`: repeated BFS over the residual graph,
    /// reserving each path's full bottleneck, on dense ids. Leaves the
    /// graph as it found it.
    fn enumerate(
        &mut self,
        scratch: &mut Scratch,
        sender: AccountId,
        destination: AccountId,
        limits: PathLimits,
    ) -> RouteSet {
        let (Some(source), Some(target)) = (self.id(sender), self.id(destination)) else {
            return Vec::new();
        };
        let Scratch {
            parent,
            queue,
            reserved,
        } = scratch;
        if parent.len() < self.accounts.len() {
            parent.resize(self.accounts.len(), UNSEEN);
        }
        let mut found: RouteSet = Vec::new();
        while found.len() < limits.max_paths {
            // BFS for the shortest path with positive residual capacity,
            // level by level; nodes deeper than `max_hops` are not expanded.
            queue.clear();
            queue.push(source);
            parent[source as usize] = source;
            let (mut head, mut depth, mut reached) = (0, 0, false);
            'bfs: while head < queue.len() && depth <= limits.max_hops {
                let level_end = queue.len();
                while head < level_end {
                    let node = queue[head];
                    head += 1;
                    for edge in &self.edges[node as usize] {
                        if parent[edge.to as usize] != UNSEEN || !edge.capacity.is_positive() {
                            continue;
                        }
                        parent[edge.to as usize] = node;
                        queue.push(edge.to);
                        if edge.to == target {
                            reached = true;
                            break 'bfs;
                        }
                    }
                }
                depth += 1;
            }
            let mut chain = vec![target];
            if reached {
                let mut cursor = target;
                while cursor != source {
                    cursor = parent[cursor as usize];
                    chain.push(cursor);
                }
                chain.reverse();
            }
            for &seen in queue.iter() {
                parent[seen as usize] = UNSEEN;
            }
            if !reached {
                break;
            }

            let slots: Vec<usize> = chain
                .windows(2)
                .map(|hop| self.slot(hop[0], hop[1]).expect("the BFS walked this edge"))
                .collect();
            let bottleneck = chain
                .iter()
                .zip(&slots)
                .map(|(&from, &slot)| self.edges[from as usize][slot].capacity)
                .min()
                .expect("a chain has at least one hop");
            for (hop, &slot) in chain.windows(2).zip(&slots) {
                self.reserve(reserved, hop[0], slot, bottleneck, true);
                if let Ok(back) = self.slot(hop[1], hop[0]) {
                    self.reserve(reserved, hop[1], back, bottleneck, false);
                }
            }
            let chain = chain.iter().map(|&id| self.accounts[id as usize]).collect();
            found.push((chain, bottleneck));
        }
        for r in reserved.drain(..) {
            self.edges[r.from as usize][r.slot].capacity = r.live;
        }
        found
    }
}

/// What the router holds for one currency.
#[derive(Debug, Clone)]
struct CurrencyCache {
    graph: CreditGraph,
    /// `(source, destination)` -> enumeration.
    routes: HashMap<(AccountId, AccountId), RouteSet>,
}

/// A capacity-aware router with cached credit graphs and path
/// enumerations.
///
/// See the module docs for the cache design. Construct one per logical
/// payment stream ([`crate::PaymentEngine`] embeds one) and call
/// [`Router::route`] with whatever ledger the query is about; a ledger
/// other than the one the cache mirrors is detected by its stamp.
#[derive(Debug, Clone, Default)]
pub struct Router {
    limits: PathLimits,
    /// The ledger moment every cached graph and enumeration mirrors.
    stamp: Stamp,
    caches: HashMap<Currency, CurrencyCache>,
    scratch: Scratch,
    pub(crate) stats: RouterStats,
}

impl Router {
    /// A router that searches under the given limits. The limits are fixed
    /// for the router's lifetime: cached enumerations are only valid for
    /// the limits they were computed under.
    pub fn new(limits: PathLimits) -> Router {
        Router {
            limits,
            ..Router::default()
        }
    }

    /// Cache counters accumulated so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Routes `amount` of `currency` from `sender` to `destination`:
    /// returns up to `max_paths` paths, shortest first, splitting across
    /// parallel paths when one lacks capacity. The set may be partial or
    /// empty — the caller checks whether the carried total covers the
    /// amount.
    pub fn route(
        &mut self,
        state: &LedgerState,
        sender: AccountId,
        destination: AccountId,
        currency: Currency,
        amount: Value,
    ) -> Vec<FoundPath> {
        self.stats.queries += 1;
        if sender == destination || currency.is_xrp() || !amount.is_positive() {
            return Vec::new();
        }
        let max_paths = self.limits.max_paths;
        let enumeration = self.enumeration(state, sender, destination, currency);
        allocate(enumeration, amount, max_paths)
    }

    /// The full deliverable amount from `sender` to `destination` under
    /// this router's limits: the sum over the cached enumeration, without
    /// materializing a plan. Used by liquidity probes.
    pub fn deliverable(
        &mut self,
        state: &LedgerState,
        sender: AccountId,
        destination: AccountId,
        currency: Currency,
    ) -> Value {
        self.stats.queries += 1;
        if sender == destination || currency.is_xrp() {
            return Value::ZERO;
        }
        let enumeration = self.enumeration(state, sender, destination, currency);
        enumeration.iter().map(|(_, cap)| *cap).sum()
    }

    /// Returns the (cached or freshly computed) unbounded path enumeration
    /// for `(sender, destination, currency)` on `state`.
    pub(crate) fn enumeration(
        &mut self,
        state: &LedgerState,
        sender: AccountId,
        destination: AccountId,
        currency: Currency,
    ) -> &[(Vec<AccountId>, Value)] {
        let stamp = stamp_of(state);
        if self.stamp != stamp {
            // One graph plus its enumerations per currency.
            let dropped = self.caches.values().map(|c| 1 + c.routes.len() as u64);
            self.stats.invalidations += dropped.sum::<u64>();
            self.caches.clear();
            self.stamp = stamp;
        }
        let cache = self.caches.entry(currency).or_insert_with(|| {
            self.stats.graph_builds += 1;
            CurrencyCache {
                graph: CreditGraph::build(state, currency),
                routes: HashMap::new(),
            }
        });
        match cache.routes.entry((sender, destination)) {
            Entry::Occupied(cached) => {
                self.stats.hits += 1;
                cached.into_mut()
            }
            Entry::Vacant(vacant) => {
                self.stats.misses += 1;
                let limits = self.limits;
                vacant.insert(
                    cache
                        .graph
                        .enumerate(&mut self.scratch, sender, destination, limits),
                )
            }
        }
    }

    /// The engine's edge patch: `state` was at `before` and has since
    /// changed in nothing but the pair balances of `pairs`, all in
    /// `currency`. If the cache mirrors `before`, those pairs are re-read
    /// and the cache mirrors `state` again; if not, it is left alone and
    /// the next query's stamp check rebuilds it.
    pub(crate) fn refresh_pairs(
        &mut self,
        state: &LedgerState,
        before: Stamp,
        currency: Currency,
        pairs: impl Iterator<Item = (AccountId, AccountId)>,
    ) {
        if self.stamp != before {
            return;
        }
        self.stamp = stamp_of(state);
        let Some(cache) = self.caches.get_mut(&currency) else {
            return;
        };
        self.stats.invalidations += cache.routes.len() as u64;
        cache.routes.clear();
        for (a, b) in pairs {
            cache.graph.refresh_pair(state, currency, a, b);
            self.stats.edges_refreshed += 2;
        }
    }
}

/// Greedy shortest-first allocation of `amount` over an unbounded path
/// enumeration; reproduces exactly what an amount-capped search returns
/// (see the module docs).
fn allocate(
    enumeration: &[(Vec<AccountId>, Value)],
    amount: Value,
    max_paths: usize,
) -> Vec<FoundPath> {
    let mut out = Vec::new();
    let mut remaining = amount;
    for (chain, cap) in enumeration {
        if !remaining.is_positive() || out.len() >= max_paths {
            break;
        }
        let take = if *cap < remaining { *cap } else { remaining };
        out.push(FoundPath {
            intermediates: chain[1..chain.len() - 1].to_vec(),
            amount: take,
        });
        remaining = remaining - take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ripple_ledger::Drops;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    /// The graph build before the one-scan rewrite: a hashed adjacency
    /// with sorted neighbour lists, then one `hop_capacity` per edge.
    fn build_reference(state: &LedgerState, currency: Currency) -> CreditGraph {
        let mut adjacency: HashMap<AccountId, Vec<AccountId>> = HashMap::new();
        let mut add_edge = |from: AccountId, to: AccountId| {
            adjacency.entry(from).or_default().push(to);
        };
        for line in state.trust_lines() {
            if line.currency == currency {
                add_edge(line.trustee, line.truster);
            }
        }
        for (low, high, cur, balance) in state.pair_balances() {
            if cur != currency {
                continue;
            }
            if balance.is_positive() {
                add_edge(low, high);
            } else if balance.is_negative() {
                add_edge(high, low);
            }
        }
        for nexts in adjacency.values_mut() {
            nexts.sort_unstable();
            nexts.dedup();
        }
        let mut accounts: Vec<AccountId> = adjacency
            .iter()
            .flat_map(|(from, nexts)| std::iter::once(from).chain(nexts))
            .copied()
            .collect();
        accounts.sort_unstable();
        accounts.dedup();
        let id = |account: &AccountId| accounts.binary_search(account).unwrap() as u32;
        let edges = accounts
            .iter()
            .map(|from| {
                let nexts = adjacency.get(from).map(Vec::as_slice).unwrap_or_default();
                nexts
                    .iter()
                    .map(|to| Edge {
                        to: id(to),
                        capacity: state.hop_capacity(*from, *to, currency),
                    })
                    .collect()
            })
            .collect();
        CreditGraph { accounts, edges }
    }

    const CURRENCIES: [Currency; 3] = [Currency::USD, Currency::EUR, Currency::BTC];

    /// A random credit network over up to 24 accounts in three currencies:
    /// trust lines (some set twice, some removed again by a zero limit),
    /// debt on and off those lines in both signs — pushed past the limit
    /// now and then, so some lines are full — and the odd self-pair.
    /// Returns the ledger and how many lines a zero limit removed.
    fn seeded_ledger(seed: u64) -> (LedgerState, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = LedgerState::new();
        let accounts: Vec<AccountId> = (0..rng.gen_range(2u8..=24))
            .map(|i| {
                let mut bytes = [i; 20];
                bytes[0] = rng.gen();
                AccountId::from_bytes(bytes)
            })
            .collect();
        for &a in &accounts {
            s.create_account(a, Drops::from_xrp(100));
        }
        let mut removed = 0;
        for _ in 0..rng.gen_range(0..4 * accounts.len()) {
            let a = accounts[rng.gen_range(0..accounts.len())];
            let b = accounts[rng.gen_range(0..accounts.len())];
            let currency = CURRENCIES[rng.gen_range(0..CURRENCIES.len())];
            let amount = Value::from_raw(rng.gen_range(1i128..=50) * 1_000_000);
            match rng.gen_range(0u8..10) {
                0..=4 => s.set_trust(a, b, currency, amount).unwrap(),
                5 => {
                    let lines: Vec<_> = s.trust_lines().collect();
                    if !lines.is_empty() {
                        let line = lines[rng.gen_range(0..lines.len())];
                        s.set_trust(line.truster, line.trustee, line.currency, Value::ZERO)
                            .unwrap();
                        removed += 1;
                    }
                }
                _ => s.adjust_pair_balance(a, b, currency, amount),
            }
        }
        (s, removed)
    }

    #[test]
    fn one_scan_build_equals_the_reference_build() {
        let (mut edges, mut full, mut debt_only, mut mutual, mut removed) = (0, 0, 0, 0, 0);
        for seed in 0..600 {
            let (s, zeroed) = seeded_ledger(seed);
            removed += zeroed;
            for currency in CURRENCIES {
                let got = CreditGraph::build(&s, currency);
                let want = build_reference(&s, currency);
                assert_eq!(got.accounts, want.accounts, "seed {seed} {currency}");
                assert_eq!(got.edges, want.edges, "seed {seed} {currency}");
                for (from, out) in got.accounts.iter().zip(&got.edges) {
                    for edge in out {
                        let to = got.accounts[edge.to as usize];
                        edges += 1;
                        full += usize::from(!edge.capacity.is_positive());
                        debt_only += usize::from(s.trust_limit(to, *from, currency).is_zero());
                        mutual += usize::from(s.trust_limit(*from, to, currency).is_positive());
                    }
                }
            }
        }
        // The generator reaches every edge shape the fold distinguishes.
        let shapes = [edges, full, debt_only, mutual, removed];
        assert!(shapes.iter().all(|&n| n > 300), "{shapes:?}");
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    /// 1 -> 2 -> 4 and 1 -> 3 -> 4, 10 USD per leg.
    fn diamond() -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=4 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        for hub in [2u8, 3] {
            s.set_trust(acct(hub), acct(1), Currency::USD, v("10"))
                .unwrap();
            s.set_trust(acct(4), acct(hub), Currency::USD, v("10"))
                .unwrap();
        }
        s
    }

    fn path(hub: u8, amount: &str) -> FoundPath {
        FoundPath {
            intermediates: vec![acct(hub)],
            amount: v(amount),
        }
    }

    /// The plans here are the cold search's on the diamond; the `router`
    /// target of `ripple-check` diffs the two on random ledgers.
    #[test]
    fn matches_cold_search_across_amounts() {
        let s = diamond();
        let mut router = Router::new(PathLimits::default());
        let cold = [
            ("1", vec![path(2, "1")]),
            ("7", vec![path(2, "7")]),
            ("10", vec![path(2, "10")]),
            ("13", vec![path(2, "10"), path(3, "3")]),
            ("20", vec![path(2, "10"), path(3, "10")]),
            ("25", vec![path(2, "10"), path(3, "10")]),
        ];
        for (amount, cold) in cold {
            let cached = router.route(&s, acct(1), acct(4), Currency::USD, v(amount));
            assert_eq!(cached, cold, "amount {amount}");
        }
        // First query misses, the rest hit the cached enumeration.
        assert_eq!(router.stats().misses, 1);
        assert_eq!(router.stats().hits, 5);
    }

    #[test]
    fn mutation_invalidates_cache() {
        let mut s = diamond();
        let mut router = Router::new(PathLimits::default());
        let before = router.route(&s, acct(1), acct(4), Currency::USD, v("20"));
        assert_eq!(before.len(), 2);
        // Drop one leg: the router must notice without being told.
        s.set_trust(acct(4), acct(3), Currency::USD, Value::ZERO)
            .unwrap();
        let after = router.route(&s, acct(1), acct(4), Currency::USD, v("20"));
        assert_eq!(after, vec![path(2, "10")], "only the 1->2->4 leg remains");
        assert!(router.stats().invalidations > 0);
    }

    #[test]
    fn equal_generation_of_another_lineage_rebuilds() {
        let mut a = diamond();
        let mut b = a.clone();
        // Same generation, different trust: `a` rewrites a limit it already
        // had, `b` drops a leg.
        a.set_trust(acct(4), acct(2), Currency::USD, v("10"))
            .unwrap();
        b.set_trust(acct(4), acct(3), Currency::USD, Value::ZERO)
            .unwrap();
        assert_eq!(a.credit_generation(), b.credit_generation());

        let mut router = Router::new(PathLimits::default());
        let on_a = router.route(&a, acct(1), acct(4), Currency::USD, v("20"));
        assert_eq!(on_a.len(), 2);
        assert_eq!(router.stats().graph_builds, 1);
        let on_b = router.route(&b, acct(1), acct(4), Currency::USD, v("20"));
        assert_eq!(on_b.len(), 1, "only the 1->2->4 leg exists in b");
        assert_eq!(router.stats().graph_builds, 2);
        assert_eq!(router.stats().invalidations, 2, "a's graph and enumeration");
        assert_eq!(
            router.route(&a, acct(1), acct(4), Currency::USD, v("20")),
            on_a
        );
        assert_eq!(router.stats().graph_builds, 3);
        assert_eq!(
            (router.stats().hits, router.stats().edges_refreshed),
            (0, 0)
        );
    }

    #[test]
    fn deliverable_sums_the_enumeration() {
        let s = diamond();
        let mut router = Router::new(PathLimits::default());
        assert_eq!(
            router.deliverable(&s, acct(1), acct(4), Currency::USD),
            v("20")
        );
        assert_eq!(
            router.deliverable(&s, acct(4), acct(1), Currency::USD),
            Value::ZERO
        );
    }

    #[test]
    fn degenerate_queries_are_empty() {
        let s = diamond();
        let mut router = Router::new(PathLimits::default());
        assert!(router
            .route(&s, acct(1), acct(1), Currency::USD, v("1"))
            .is_empty());
        assert!(router
            .route(&s, acct(1), acct(4), Currency::XRP, v("1"))
            .is_empty());
        assert!(router
            .route(&s, acct(1), acct(4), Currency::USD, v("0"))
            .is_empty());
    }
}
