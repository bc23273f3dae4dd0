//! The cold shortest-first path search, the router's oracle.
//!
//! [`find_payment_paths`] is the search `ripple_paths::Router` caches,
//! written the plain way: its own adjacency ([`crate::oracle::adjacency`],
//! not the router's credit graph), a hashed [`Residual`] overlay instead of
//! capacities patched onto edges, and a fresh BFS for every path of every
//! payment. Public as `ripple_check::oracle::find_payment_paths`.

use std::collections::VecDeque;

use ripple_crypto::{AccountId, FxHashMap};
use ripple_ledger::{Currency, LedgerState, Value};
use ripple_paths::{FoundPath, PathLimits};

use crate::oracle::adjacency;

/// Residual-capacity overlay so successive searches see earlier tentative
/// reservations without mutating the ledger.
#[derive(Debug, Default)]
struct Residual {
    used: FxHashMap<(AccountId, AccountId), Value>,
}

impl Residual {
    fn capacity(
        &self,
        state: &LedgerState,
        from: AccountId,
        to: AccountId,
        currency: Currency,
    ) -> Value {
        let live = state.hop_capacity(from, to, currency);
        let used = self.used.get(&(from, to)).copied().unwrap_or(Value::ZERO);
        live - used
    }

    /// Records a tentative reservation of `amount` on `from -> to`. The
    /// same reservation is *credited* to the reverse hop: value pushed
    /// `from -> to` nets against value a later path would push `to -> from`,
    /// exactly as existing pair debt nets in [`LedgerState::hop_capacity`].
    fn reserve(&mut self, from: AccountId, to: AccountId, amount: Value) {
        let forward = self.used.entry((from, to)).or_insert(Value::ZERO);
        *forward = *forward + amount;
        // A reservation on from->to frees capacity on to->from (netting).
        let back = self.used.entry((to, from)).or_insert(Value::ZERO);
        *back = *back - amount;
    }

    /// The net amount currently reserved on `from -> to` (negative when the
    /// reverse direction holds the reservation).
    #[cfg(test)]
    fn reserved(&self, from: AccountId, to: AccountId) -> Value {
        self.used.get(&(from, to)).copied().unwrap_or(Value::ZERO)
    }
}

/// Finds up to `limits.max_paths` paths able to carry `amount` of
/// `currency` from `sender` to `destination`, shortest first, splitting
/// across parallel paths when a single one lacks capacity.
///
/// It rebuilds the adjacency and runs repeated shortest-augmenting-path
/// BFS over the residual graph, neighbours in ascending [`AccountId`]
/// order, reserving the full bottleneck on every path but the last (which
/// takes the remainder). `ripple_paths::Router::route` must return exactly
/// this plan.
///
/// Returns the (possibly partial) path set; the caller checks whether the
/// carried total covers the amount.
pub fn find_payment_paths(
    state: &LedgerState,
    sender: AccountId,
    destination: AccountId,
    currency: Currency,
    amount: Value,
    limits: PathLimits,
) -> Vec<FoundPath> {
    let adjacency = adjacency(state, currency);
    let mut residual = Residual::default();
    let mut found: Vec<FoundPath> = Vec::new();
    let mut remaining = amount;

    while remaining.is_positive() && found.len() < limits.max_paths {
        // BFS for the shortest path with positive residual capacity.
        let mut parent: FxHashMap<AccountId, AccountId> = FxHashMap::default();
        let mut queue = VecDeque::new();
        queue.push_back((sender, 0usize));
        parent.insert(sender, sender);
        let mut reached = false;
        while let Some((node, depth)) = queue.pop_front() {
            if node == destination {
                reached = true;
                break;
            }
            if depth > limits.max_hops {
                continue;
            }
            for &next in adjacency.get(&node).into_iter().flatten() {
                if parent.contains_key(&next) {
                    continue;
                }
                if residual.capacity(state, node, next, currency).is_positive() {
                    parent.insert(next, node);
                    queue.push_back((next, depth + 1));
                }
            }
        }
        if !reached {
            break;
        }

        // Reconstruct and compute the bottleneck.
        let mut chain = vec![destination];
        let mut cursor = destination;
        while cursor != sender {
            cursor = parent[&cursor];
            chain.push(cursor);
        }
        chain.reverse();
        if chain.len() > limits.max_hops + 2 {
            break;
        }
        let mut bottleneck = remaining;
        for pair in chain.windows(2) {
            let cap = residual.capacity(state, pair[0], pair[1], currency);
            if cap < bottleneck {
                bottleneck = cap;
            }
        }
        if !bottleneck.is_positive() {
            break;
        }
        for pair in chain.windows(2) {
            residual.reserve(pair[0], pair[1], bottleneck);
        }
        remaining = remaining - bottleneck;
        found.push(FoundPath {
            intermediates: chain[1..chain.len() - 1].to_vec(),
            amount: bottleneck,
        });
    }

    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_ledger::Drops;
    use ripple_paths::carried;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    /// sender(1) -> hub(2) -> dest(3), capacities 10 each.
    fn chain_state() -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        s.set_trust(acct(2), acct(1), Currency::USD, v("10"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, v("10"))
            .unwrap();
        s
    }

    #[test]
    fn reserve_nets_bidirectional_reservations() {
        let mut r = Residual::default();
        r.reserve(acct(1), acct(2), v("7"));
        assert_eq!(r.reserved(acct(1), acct(2)), v("7"));
        assert_eq!(
            r.reserved(acct(2), acct(1)),
            v("-7"),
            "reverse hop is credited"
        );
        // A reverse reservation nets against the forward one instead of
        // consuming fresh capacity.
        r.reserve(acct(2), acct(1), v("3"));
        assert_eq!(r.reserved(acct(1), acct(2)), v("4"));
        assert_eq!(r.reserved(acct(2), acct(1)), v("-4"));
    }

    #[test]
    fn reverse_reservation_frees_live_capacity() {
        // chain_state: live capacity 1->2 is 10 (trust limit of 2 on 1).
        let s = chain_state();
        let mut r = Residual::default();
        assert_eq!(r.capacity(&s, acct(1), acct(2), Currency::USD), v("10"));
        r.reserve(acct(2), acct(1), v("4"));
        assert_eq!(
            r.capacity(&s, acct(1), acct(2), Currency::USD),
            v("14"),
            "a 2->1 reservation frees 1->2 capacity (netting)"
        );
    }

    #[test]
    fn finds_single_shortest_path() {
        let s = chain_state();
        let paths = find_payment_paths(
            &s,
            acct(1),
            acct(3),
            Currency::USD,
            v("5"),
            PathLimits::default(),
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].intermediates, vec![acct(2)]);
        assert_eq!(paths[0].amount, v("5"));
    }

    #[test]
    fn no_path_without_trust() {
        let s = chain_state();
        let paths = find_payment_paths(
            &s,
            acct(3),
            acct(1),
            Currency::USD,
            v("1"),
            PathLimits::default(),
        );
        assert!(paths.is_empty(), "trust is unidirectional");
    }

    #[test]
    fn splits_across_parallel_paths() {
        // Two disjoint 10-capacity routes 1->2->4 and 1->3->4; amount 15.
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
        let paths = find_payment_paths(
            &s,
            acct(1),
            acct(4),
            Currency::USD,
            v("15"),
            PathLimits::default(),
        );
        assert_eq!(paths.len(), 2);
        assert_eq!(carried(&paths), v("15"));
        let hops: Vec<usize> = paths.iter().map(|p| p.intermediates.len()).collect();
        assert_eq!(hops, vec![1, 1]);
    }

    #[test]
    fn partial_when_liquidity_short() {
        let s = chain_state();
        let paths = find_payment_paths(
            &s,
            acct(1),
            acct(3),
            Currency::USD,
            v("25"),
            PathLimits::default(),
        );
        assert_eq!(carried(&paths), v("10"), "only 10 available");
    }

    #[test]
    fn respects_max_hops() {
        // Long chain 1 -> 2 -> 3 -> 4 -> 5 (3 intermediates).
        let mut s = LedgerState::new();
        for i in 1..=5 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        for i in 1..=4u8 {
            s.set_trust(acct(i + 1), acct(i), Currency::USD, v("10"))
                .unwrap();
        }
        let tight = PathLimits {
            max_paths: 1,
            max_hops: 2,
        };
        assert!(find_payment_paths(&s, acct(1), acct(5), Currency::USD, v("1"), tight).is_empty());
        let loose = PathLimits {
            max_paths: 1,
            max_hops: 3,
        };
        let paths = find_payment_paths(&s, acct(1), acct(5), Currency::USD, v("1"), loose);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].intermediates.len(), 3);
    }

    #[test]
    fn respects_max_paths() {
        // Three disjoint routes but a limit of 2.
        let mut s = LedgerState::new();
        s.create_account(acct(1), Drops::from_xrp(100));
        s.create_account(acct(9), Drops::from_xrp(100));
        for hub in 2..=4u8 {
            s.create_account(acct(hub), Drops::from_xrp(100));
            s.set_trust(acct(hub), acct(1), Currency::USD, v("10"))
                .unwrap();
            s.set_trust(acct(9), acct(hub), Currency::USD, v("10"))
                .unwrap();
        }
        let limits = PathLimits {
            max_paths: 2,
            max_hops: 8,
        };
        let paths = find_payment_paths(&s, acct(1), acct(9), Currency::USD, v("30"), limits);
        assert_eq!(paths.len(), 2);
        assert_eq!(carried(&paths), v("20"));
    }

    #[test]
    fn existing_debt_nets_into_capacity() {
        let mut s = chain_state();
        // Prime debt: 2 already owes 1 five USD (1 holds 2's IOUs)... i.e.
        // push value 2 -> 1 requires 1 trusts 2; add it and move 5.
        s.set_trust(acct(1), acct(2), Currency::USD, v("5"))
            .unwrap();
        s.ripple_hop(acct(2), acct(1), Currency::USD, v("5"))
            .unwrap();
        // Now capacity 1->2 is limit(2->1)=10 plus netting 5 = 15.
        let paths = find_payment_paths(
            &s,
            acct(1),
            acct(3),
            Currency::USD,
            v("10"),
            PathLimits::default(),
        );
        // Bottleneck is still the 2->3 leg (10).
        assert_eq!(carried(&paths), v("10"));
    }

    #[test]
    fn direct_trust_is_zero_hop() {
        let mut s = LedgerState::new();
        s.create_account(acct(1), Drops::from_xrp(100));
        s.create_account(acct(2), Drops::from_xrp(100));
        s.set_trust(acct(2), acct(1), Currency::USD, v("10"))
            .unwrap();
        let paths = find_payment_paths(
            &s,
            acct(1),
            acct(2),
            Currency::USD,
            v("3"),
            PathLimits::default(),
        );
        assert_eq!(paths.len(), 1);
        assert!(paths[0].intermediates.is_empty());
    }
}
