//! Brute-force oracles: max-flow path oracles, the cold shortest-first
//! path search the router is checked against, and a naive order-book
//! matcher.
//!
//! All are deliberately slow and simple — quadratic scans, full-width
//! `i128` arithmetic, maps rebuilt on every call, nothing shared with
//! `ripple-paths`' credit graph — so a disagreement with the production
//! engines points at the engine, not the oracle.

use ripple_crypto::{AccountId, FxHashMap};
use ripple_ledger::{Currency, LedgerState};

pub use crate::find::find_payment_paths;

/// The candidate edges of `currency`'s trust graph, each neighbour list
/// ascending and duplicate-free: trustee -> truster per trust line, plus a
/// debt-implied edge from every IOU holder to the account that owes it.
/// The callers evaluate capacities live.
pub(crate) fn adjacency(
    state: &LedgerState,
    currency: Currency,
) -> FxHashMap<AccountId, Vec<AccountId>> {
    let mut adjacency: FxHashMap<AccountId, Vec<AccountId>> = FxHashMap::default();
    let mut add_edge = |from: AccountId, to: AccountId| adjacency.entry(from).or_default().push(to);
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
    adjacency
}

/// Maximum IOU value (raw units) deliverable from `sender` to
/// `destination` over the current trust graph, computed with
/// Edmonds–Karp max-flow over per-hop capacities. Capped at `cap` so the
/// caller can ask "is at least X feasible?" without running the flow dry.
pub fn max_deliverable(
    state: &LedgerState,
    sender: AccountId,
    destination: AccountId,
    currency: Currency,
    cap: i128,
) -> i128 {
    if cap <= 0 || sender == destination {
        return 0;
    }
    let nodes: Vec<AccountId> = state.accounts().map(|(&id, _)| id).collect();
    let index = |id: AccountId| nodes.iter().position(|&n| n == id);
    let (Some(s), Some(t)) = (index(sender), index(destination)) else {
        return 0;
    };
    let n = nodes.len();
    // Residual capacities; back-edges start at zero and grow as flow is
    // pushed (this nets opposing flow exactly like the engine's Residual).
    let mut residual = vec![vec![0i128; n]; n];
    for (u, &from) in nodes.iter().enumerate() {
        for (v, &to) in nodes.iter().enumerate() {
            if u == v {
                continue;
            }
            let capacity = state.hop_capacity(from, to, currency).raw();
            if capacity > 0 {
                residual[u][v] = capacity;
            }
        }
    }
    let mut flow = 0i128;
    while flow < cap {
        // BFS for a shortest augmenting path.
        let mut parent = vec![usize::MAX; n];
        parent[s] = s;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for v in 0..n {
                if parent[v] == usize::MAX && residual[u][v] > 0 {
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if parent[t] == usize::MAX {
            break;
        }
        let mut bottleneck = cap - flow;
        let mut v = t;
        while v != s {
            let u = parent[v];
            bottleneck = bottleneck.min(residual[u][v]);
            v = u;
        }
        let mut v = t;
        while v != s {
            let u = parent[v];
            residual[u][v] -= bottleneck;
            residual[v][u] += bottleneck;
            v = u;
        }
        flow += bottleneck;
    }
    flow
}

/// [`max_deliverable`] on a sparse residual graph: identical semantics
/// (Edmonds–Karp, back-edge netting, capped at `cap`) but edges come from
/// the trust-line and pair-balance tables instead of an all-pairs dense
/// matrix, so it scales to ledgers where `accounts²` cells would not fit
/// in memory. Still a brute-force per-query oracle — it rebuilds the
/// residual graph every call and caches nothing — which makes it the
/// honest baseline the cached router is benchmarked against at
/// 100k-account scale (`experiments liquidity`).
pub fn max_deliverable_sparse(
    state: &LedgerState,
    sender: AccountId,
    destination: AccountId,
    currency: Currency,
    cap: i128,
) -> i128 {
    use std::collections::HashMap;

    if cap <= 0 || sender == destination {
        return 0;
    }
    if state.account(&sender).is_none() || state.account(&destination).is_none() {
        return 0;
    }
    let adjacency = adjacency(state, currency);
    // Make the edge set symmetric so back-edges exist for netting, then
    // load residual capacities.
    let mut residual: HashMap<(AccountId, AccountId), i128> = HashMap::new();
    for (&from, tos) in &adjacency {
        for &to in tos {
            residual
                .entry((from, to))
                .or_insert_with(|| state.hop_capacity(from, to, currency).raw().max(0));
            residual
                .entry((to, from))
                .or_insert_with(|| state.hop_capacity(to, from, currency).raw().max(0));
        }
    }
    let neighbours: HashMap<AccountId, Vec<AccountId>> = {
        let mut out: HashMap<AccountId, Vec<AccountId>> = HashMap::new();
        for &(from, to) in residual.keys() {
            out.entry(from).or_default().push(to);
        }
        out
    };
    let mut flow = 0i128;
    while flow < cap {
        let mut parent: HashMap<AccountId, AccountId> = HashMap::new();
        parent.insert(sender, sender);
        let mut queue = std::collections::VecDeque::from([sender]);
        'bfs: while let Some(u) = queue.pop_front() {
            let Some(nexts) = neighbours.get(&u) else {
                continue;
            };
            for &v in nexts {
                if !parent.contains_key(&v) && residual.get(&(u, v)).copied().unwrap_or(0) > 0 {
                    parent.insert(v, u);
                    if v == destination {
                        break 'bfs;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !parent.contains_key(&destination) {
            break;
        }
        let mut bottleneck = cap - flow;
        let mut v = destination;
        while v != sender {
            let u = parent[&v];
            bottleneck = bottleneck.min(residual[&(u, v)]);
            v = u;
        }
        let mut v = destination;
        while v != sender {
            let u = parent[&v];
            *residual.get_mut(&(u, v)).expect("edge exists") -= bottleneck;
            *residual.get_mut(&(v, u)).expect("edge exists") += bottleneck;
            v = u;
        }
        flow += bottleneck;
    }
    flow
}

/// One resting entry in the naive book.
#[derive(Debug, Clone)]
pub struct NaiveEntry {
    /// Owner cast index.
    pub owner: u8,
    /// Offer identity.
    pub offer_seq: u32,
    /// Raw base value still on offer.
    pub remaining: i128,
    num: u128,
    den: u128,
    arrival: u64,
}

/// One consumed slice of a naive fill:
/// `(owner, offer_seq, taken raw, paid raw)`.
pub type NaivePart = (u8, u32, i128, i128);

/// The outcome of a naive fill.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NaiveFill {
    /// Raw base value bought.
    pub filled: i128,
    /// Raw quote value spent.
    pub paid: i128,
    /// Per-offer slices in consumption order.
    pub parts: Vec<NaivePart>,
}

/// A quadratic reference order book: entries live in a plain `Vec`; every
/// fill re-scans for the best rate.
#[derive(Debug, Clone, Default)]
pub struct NaiveBook {
    entries: Vec<NaiveEntry>,
    next_arrival: u64,
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// `floor(amount * num / den)` in full-width arithmetic — the exact value
/// `Rate::apply` computes for in-range operands.
fn apply_rate(amount: i128, num: u128, den: u128) -> i128 {
    amount * num as i128 / den as i128
}

impl NaiveBook {
    /// An empty book.
    pub fn new() -> NaiveBook {
        NaiveBook::default()
    }

    /// Inserts an offer giving `gets_raw` base for `pays_raw` quote.
    /// Returns `false` (and inserts nothing) when no rate can be formed —
    /// non-positive legs or a reduced ratio overflowing `u64` — mirroring
    /// `Rate::from_amounts`.
    pub fn insert(&mut self, owner: u8, offer_seq: u32, gets_raw: i128, pays_raw: i128) -> bool {
        if gets_raw <= 0 || pays_raw <= 0 {
            return false;
        }
        let (p, g) = (pays_raw as u128, gets_raw as u128);
        let d = gcd(p, g);
        let (num, den) = (p / d, g / d);
        if num > u64::MAX as u128 || den > u64::MAX as u128 {
            return false;
        }
        self.entries.push(NaiveEntry {
            owner,
            offer_seq,
            remaining: gets_raw,
            num,
            den,
            arrival: self.next_arrival,
        });
        self.next_arrival += 1;
        true
    }

    /// Number of resting entries.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Total raw base value resting in the book.
    pub fn liquidity(&self) -> i128 {
        self.entries.iter().map(|e| e.remaining).sum()
    }

    /// The resting entries sorted cheapest-first (rate, then arrival) —
    /// the order the production book keeps internally.
    pub fn sorted_entries(&self) -> Vec<NaiveEntry> {
        let mut sorted = self.entries.clone();
        sorted.sort_by(|a, b| {
            (a.num * b.den)
                .cmp(&(b.num * a.den))
                .then(a.arrival.cmp(&b.arrival))
        });
        sorted
    }

    /// Index into `entries` of the cheapest entry, if any.
    fn best(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, e) in self.entries.iter().enumerate() {
            best = match best {
                None => Some(i),
                Some(j) => {
                    let b = &self.entries[j];
                    // e < b  <=>  e.num/e.den < b.num/b.den (cross-multiplied)
                    if e.num * b.den < b.num * e.den
                        || (e.num * b.den == b.num * e.den && e.arrival < b.arrival)
                    {
                        Some(i)
                    } else {
                        Some(j)
                    }
                }
            };
        }
        best
    }

    /// Cost in raw quote units of buying `amount_raw` base, or `None` when
    /// the book is too shallow. Does not mutate the book.
    pub fn quote(&self, amount_raw: i128) -> Option<i128> {
        let mut need = amount_raw;
        let mut paid = 0i128;
        for e in self.sorted_entries() {
            if need <= 0 {
                break;
            }
            let take = e.remaining.min(need);
            paid += apply_rate(take, e.num, e.den);
            need -= take;
        }
        if need > 0 {
            None
        } else {
            Some(paid)
        }
    }

    /// Buys up to `amount_raw` base, consuming the cheapest entries first.
    pub fn fill(&mut self, amount_raw: i128) -> NaiveFill {
        let mut outcome = NaiveFill::default();
        if amount_raw <= 0 {
            return outcome;
        }
        let mut need = amount_raw;
        while need > 0 {
            let Some(i) = self.best() else { break };
            let take = self.entries[i].remaining.min(need);
            let paid = apply_rate(take, self.entries[i].num, self.entries[i].den);
            outcome
                .parts
                .push((self.entries[i].owner, self.entries[i].offer_seq, take, paid));
            outcome.filled += take;
            outcome.paid += paid;
            need -= take;
            self.entries[i].remaining -= take;
            if self.entries[i].remaining == 0 {
                self.entries.remove(i);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{case_currency, cast_account, gen_engine_plan};
    use ripple_ledger::{Drops, Value};

    /// The sparse oracle must agree with the dense one on every randomized
    /// engine-plan ledger — it exists to scale, not to answer differently.
    #[test]
    fn sparse_oracle_matches_dense() {
        for seed in 0..40u64 {
            let plan = gen_engine_plan(seed);
            let cast_len = plan.genesis.len().max(1) as u8;
            let mut state = LedgerState::new();
            for (i, &drops) in plan.genesis.iter().enumerate() {
                state.create_account(cast_account(i as u8), Drops::new(drops));
            }
            for &(truster, trustee, cur, limit) in &plan.trust {
                let _ = state.set_trust(
                    cast_account(truster % cast_len),
                    cast_account(trustee % cast_len),
                    case_currency(cur % 3),
                    Value::from_raw(limit),
                );
            }
            for &(from, to, cur, amount) in &plan.hops {
                let _ = state.ripple_hop(
                    cast_account(from % cast_len),
                    cast_account(to % cast_len),
                    case_currency(cur % 3),
                    Value::from_raw(amount),
                );
            }
            let sender = cast_account(plan.sender % cast_len);
            let destination = cast_account(plan.destination % cast_len);
            let currency = case_currency(plan.currency % 3);
            for cap in [1i128, plan.amount, i128::MAX / 4] {
                let dense = max_deliverable(&state, sender, destination, currency, cap);
                let sparse = max_deliverable_sparse(&state, sender, destination, currency, cap);
                assert_eq!(dense, sparse, "seed {seed} cap {cap}");
            }
        }
    }
}
