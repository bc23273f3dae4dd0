//! Gateway transfer fees and cheapest-path routing.
//!
//! Real gateways charge a *transfer rate* on IOUs rippling through them
//! (e.g. Bitstamp's historical 0.2%). Ripple's pathfinder therefore does
//! not simply pick the shortest path: it selects "the path with the best
//! exchange rate available" (§III.C). This module adds both pieces:
//!
//! * [`TransferFees`] — per-account fee table in basis points;
//! * [`find_cheapest_path`] — Dijkstra over the trust graph, minimizing the
//!   cumulative fee multiplier (ties broken by hop count);
//! * the gross/net arithmetic: an intermediary charging `f` forwards `A`
//!   but receives `A·(1+f)`, keeping the difference.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, LedgerState, Value};

use crate::find::{build_adjacency, PathLimits};

/// Fee charged by each account for rippling *through* it, in basis points.
/// Accounts not listed charge nothing.
///
/// # Examples
///
/// ```
/// use ripple_paths::TransferFees;
/// use ripple_crypto::AccountId;
///
/// let mut fees = TransferFees::new();
/// let gateway = AccountId::from_bytes([9; 20]);
/// fees.set(gateway, 20); // Bitstamp's historical 0.2%
/// let gross = fees.gross_through(gateway, "100".parse().unwrap());
/// assert_eq!(gross.to_string(), "100.2");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TransferFees {
    bps: HashMap<AccountId, u32>,
}

impl TransferFees {
    /// An empty (free) fee table.
    pub fn new() -> TransferFees {
        TransferFees::default()
    }

    /// Sets `account`'s transfer fee.
    pub fn set(&mut self, account: AccountId, bps: u32) {
        if bps == 0 {
            self.bps.remove(&account);
        } else {
            self.bps.insert(account, bps);
        }
    }

    /// The fee of `account` in basis points.
    pub fn bps(&self, account: AccountId) -> u32 {
        self.bps.get(&account).copied().unwrap_or(0)
    }

    /// Whether any account charges a fee.
    pub fn is_empty(&self) -> bool {
        self.bps.is_empty()
    }

    /// The gross amount an intermediary must receive to forward `net`.
    pub fn gross_through(&self, account: AccountId, net: Value) -> Value {
        let bps = self.bps(account) as u64;
        if bps == 0 {
            net
        } else {
            net.mul_ratio(10_000 + bps, 10_000)
        }
    }
}

/// One cost-ranked path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheapestPath {
    /// Intermediate accounts, in order.
    pub intermediates: Vec<AccountId>,
    /// The sender's gross cost of delivering `amount` along this path.
    pub source_cost: Value,
}

/// Finds the cheapest (lowest cumulative transfer fee) path able to carry
/// `amount` of `currency`, using Dijkstra over the live trust graph. Ties
/// on cost break towards fewer hops. Returns `None` when no path within
/// `limits.max_hops` has the capacity.
///
/// Capacity is checked against the *gross* amounts each hop must carry.
pub fn find_cheapest_path(
    state: &LedgerState,
    sender: AccountId,
    destination: AccountId,
    currency: Currency,
    amount: Value,
    limits: PathLimits,
    fees: &TransferFees,
) -> Option<CheapestPath> {
    // The BFS finder's adjacency (trust edges plus debt-implied edges,
    // neighbour lists ascending for a deterministic exploration order).
    let adjacency = build_adjacency(state, currency);

    // Dijkstra on (cost, hops). Cost of reaching a node = product of fees
    // of the intermediaries *behind* it (the node's own fee applies only
    // if we ripple onwards through it). Costs are fixed-point with a 10^18
    // base so per-hop ratios survive integer arithmetic.
    const COST_BASE: u128 = 1_000_000_000_000_000_000;
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    struct Key(u128, usize, AccountId);
    let mut best: HashMap<AccountId, (u128, usize)> = HashMap::new();
    let mut prev: HashMap<AccountId, AccountId> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<Key>> = BinaryHeap::new();
    best.insert(sender, (COST_BASE, 0));
    heap.push(Reverse(Key(COST_BASE, 0, sender)));

    while let Some(Reverse(Key(cost, hops, node))) = heap.pop() {
        if best
            .get(&node)
            .map(|&(c, h)| (c, h) != (cost, hops))
            .unwrap_or(true)
        {
            continue; // stale entry
        }
        if node == destination {
            break;
        }
        if hops > limits.max_hops {
            continue;
        }
        let node_fee = if node == sender {
            1u128
        } else {
            10_000 + fees.bps(node) as u128
        };
        let scale = if node == sender { 1 } else { 10_000 };
        for next in adjacency.neighbours(node) {
            // The hop node->next must carry the gross of everything
            // downstream; conservatively check against `amount` (the final
            // gross is validated at application time).
            if !state.hop_capacity(node, next, currency).is_positive() {
                continue;
            }
            let next_cost = cost * node_fee / scale;
            let candidate = (next_cost, hops + 1);
            let improves = match best.get(&next) {
                None => true,
                Some(&(c, h)) => candidate < (c, h),
            };
            if improves {
                best.insert(next, candidate);
                prev.insert(next, node);
                heap.push(Reverse(Key(candidate.0, candidate.1, next)));
            }
        }
    }

    let &(_, hops) = best.get(&destination)?;
    if hops > limits.max_hops + 1 {
        return None;
    }
    // Reconstruct.
    let mut chain = vec![destination];
    let mut cursor = destination;
    while cursor != sender {
        cursor = *prev.get(&cursor)?;
        chain.push(cursor);
    }
    chain.reverse();
    let intermediates: Vec<AccountId> = chain[1..chain.len() - 1].to_vec();

    // Gross amounts hop by hop (downstream-first) and capacity validation.
    let mut hop_amounts = Vec::with_capacity(chain.len() - 1);
    let mut carry = amount;
    for hop in intermediates.iter().rev() {
        hop_amounts.push(carry);
        carry = fees.gross_through(*hop, carry);
    }
    hop_amounts.push(carry);
    hop_amounts.reverse(); // now aligned with chain.windows(2)
    for (pair, &gross) in chain.windows(2).zip(hop_amounts.iter()) {
        if state.hop_capacity(pair[0], pair[1], currency) < gross {
            return None;
        }
    }

    Some(CheapestPath {
        intermediates,
        source_cost: carry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_ledger::Drops;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    /// Two routes from 1 to 4: short via 2 (expensive), long via 3 then 5
    /// (free).
    fn two_route_state() -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=5 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        // Route A: 1 -> 2 -> 4.
        s.set_trust(acct(2), acct(1), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(4), acct(2), Currency::USD, v("1000"))
            .unwrap();
        // Route B: 1 -> 3 -> 5 -> 4.
        s.set_trust(acct(3), acct(1), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(5), acct(3), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(4), acct(5), Currency::USD, v("1000"))
            .unwrap();
        s
    }

    #[test]
    fn without_fees_shortest_wins() {
        let s = two_route_state();
        let path = find_cheapest_path(
            &s,
            acct(1),
            acct(4),
            Currency::USD,
            v("10"),
            PathLimits::default(),
            &TransferFees::new(),
        )
        .expect("path exists");
        assert_eq!(path.intermediates, vec![acct(2)]);
        assert_eq!(path.source_cost, v("10"));
    }

    #[test]
    fn expensive_intermediary_is_routed_around() {
        let s = two_route_state();
        let mut fees = TransferFees::new();
        fees.set(acct(2), 500); // 5% through account 2
        let path = find_cheapest_path(
            &s,
            acct(1),
            acct(4),
            Currency::USD,
            v("10"),
            PathLimits::default(),
            &fees,
        )
        .expect("path exists");
        assert_eq!(
            path.intermediates,
            vec![acct(3), acct(5)],
            "the longer free route beats the 5% toll"
        );
        assert_eq!(path.source_cost, v("10"));
    }

    #[test]
    fn fees_compound_into_source_cost() {
        let mut s = LedgerState::new();
        for i in 1..=4 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        // Single chain 1 -> 2 -> 3 -> 4 with fees on both intermediaries.
        s.set_trust(acct(2), acct(1), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, v("1000"))
            .unwrap();
        s.set_trust(acct(4), acct(3), Currency::USD, v("1000"))
            .unwrap();
        let mut fees = TransferFees::new();
        fees.set(acct(2), 100); // 1%
        fees.set(acct(3), 200); // 2%
        let path = find_cheapest_path(
            &s,
            acct(1),
            acct(4),
            Currency::USD,
            v("100"),
            PathLimits::default(),
            &fees,
        )
        .expect("path exists");
        // 100 × 1.02 = 102 through 3; 102 × 1.01 = 103.02 through 2.
        assert_eq!(path.source_cost, v("103.02"));
    }

    #[test]
    fn capacity_checks_use_gross_amounts() {
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        // 1 -> 2 -> 3, but the first leg can only carry 100 gross.
        s.set_trust(acct(2), acct(1), Currency::USD, v("100"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, v("1000"))
            .unwrap();
        let mut fees = TransferFees::new();
        fees.set(acct(2), 1_000); // 10%: 100 net needs 110 gross
        let result = find_cheapest_path(
            &s,
            acct(1),
            acct(3),
            Currency::USD,
            v("100"),
            PathLimits::default(),
            &fees,
        );
        assert!(result.is_none(), "gross exceeds the first leg's capacity");
        // 90 net (99 gross) fits.
        let path = find_cheapest_path(
            &s,
            acct(1),
            acct(3),
            Currency::USD,
            v("90"),
            PathLimits::default(),
            &fees,
        )
        .expect("fits");
        assert_eq!(path.source_cost, v("99"));
    }

    #[test]
    fn path_cost_multiplies() {
        let mut fees = TransferFees::new();
        fees.set(acct(1), 100);
        fees.set(acct(2), 200);
        // Grossed up hop by hop from the destination end: 100 · 1.02 · 1.01.
        let gross = [acct(3), acct(2), acct(1)]
            .iter()
            .fold(v("100"), |net, &hop| fees.gross_through(hop, net));
        assert_eq!(gross, v("103.02"));
        assert!(TransferFees::new().is_empty());
    }

    #[test]
    fn unreachable_destination_is_none() {
        let s = two_route_state();
        let result = find_cheapest_path(
            &s,
            acct(4),
            acct(1),
            Currency::USD,
            v("1"),
            PathLimits::default(),
            &TransferFees::new(),
        );
        assert!(result.is_none(), "trust is unidirectional");
    }
}
