//! Property tests for the capacity-aware path machinery: the residual
//! overlay's netting, hop-capacity safety of every returned plan, the
//! search limits, and the router cache's invalidation discipline.
//!
//! The strategy generates small random credit networks (accounts, trust
//! lines, pre-existing debt pushed through real `ripple_hop`s) plus
//! payment queries, then checks the properties the differential `router`
//! target also enforces — here with proptest-level case diversity and
//! direct assertions instead of oracle comparison.

use proptest::collection::vec;
use proptest::prelude::*;

use ripple_core::crypto::AccountId;
use ripple_core::ledger::{Currency, Drops, LedgerState, Value};
use ripple_core::paths::{find_payment_paths, PathLimits, Router};

fn acct(n: u8) -> AccountId {
    AccountId::from_bytes([n; 20])
}

fn currency(n: u8) -> Currency {
    [Currency::USD, Currency::EUR, Currency::BTC][(n % 3) as usize]
}

/// Builds a ledger from generated parts: every account funded, trust
/// lines and debt applied through the real mutation paths (failed hops
/// are simply skipped, like the differential harness does).
fn build_state(
    accounts: u8,
    trust: &[(u8, u8, u8, i128)],
    hops: &[(u8, u8, u8, i128)],
) -> LedgerState {
    let mut state = LedgerState::new();
    for i in 0..accounts {
        state.create_account(acct(i), Drops::new(1_000_000_000));
    }
    for &(truster, trustee, cur, limit) in trust {
        let _ = state.set_trust(
            acct(truster % accounts),
            acct(trustee % accounts),
            currency(cur),
            Value::from_raw(limit),
        );
    }
    for &(from, to, cur, amount) in hops {
        let _ = state.ripple_hop(
            acct(from % accounts),
            acct(to % accounts),
            currency(cur),
            Value::from_raw(amount),
        );
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every plan the search returns replays hop by hop through the real
    /// capacity-checked `ripple_hop` — reservations across parallel paths
    /// (including bidirectional netting) never promise capacity the
    /// ledger does not have.
    #[test]
    fn plans_replay_within_capacity(
        accounts in 3u8..=6,
        trust in vec((0u8..6, 0u8..6, 0u8..3, 1i128..50_000_000), 4..14),
        hops in vec((0u8..6, 0u8..6, 0u8..3, 1i128..20_000_000), 0..6),
        sender in 0u8..6,
        destination in 0u8..6,
        cur in 0u8..3,
        amount in 1i128..40_000_000,
    ) {
        let state = build_state(accounts, &trust, &hops);
        let sender = acct(sender % accounts);
        let destination = acct(destination % accounts);
        if sender == destination {
            continue;
        }
        let limits = PathLimits::default();
        let paths = find_payment_paths(
            &state, sender, destination, currency(cur), Value::from_raw(amount), limits,
        );
        let mut replayed = state.clone();
        let mut carried = Value::ZERO;
        for path in &paths {
            prop_assert!(path.amount.is_positive(), "paths carry positive value");
            prop_assert!(
                path.intermediates.len() <= limits.max_hops,
                "max_hops respected"
            );
            let mut chain = vec![sender];
            chain.extend(path.intermediates.iter().copied());
            chain.push(destination);
            for pair in chain.windows(2) {
                replayed
                    .ripple_hop(pair[0], pair[1], currency(cur), path.amount)
                    .expect("reserved capacity must exist on the ledger");
            }
            carried = carried + path.amount;
        }
        prop_assert!(paths.len() <= limits.max_paths, "max_paths respected");
        prop_assert!(carried <= Value::from_raw(amount), "never over-delivers");
    }

    /// The cached router and the cache-off search agree on every query of
    /// a multi-query stream, including after trust mutations between
    /// queries (stamp-based invalidation must behave as a cold cache).
    #[test]
    fn router_matches_cold_search_across_mutations(
        accounts in 3u8..=6,
        trust in vec((0u8..6, 0u8..6, 0u8..3, 1i128..50_000_000), 4..14),
        hops in vec((0u8..6, 0u8..6, 0u8..3, 1i128..20_000_000), 0..6),
        queries in vec(
            // (sender, destination, currency, amount, mutate?, truster, trustee, new limit)
            (0u8..6, 0u8..6, 0u8..3, 1i128..40_000_000, 0u8..2, 0u8..6, 0u8..6, 0i128..50_000_000),
            1..6,
        ),
    ) {
        let mut state = build_state(accounts, &trust, &hops);
        let limits = PathLimits::default();
        let mut router = Router::new(limits);
        for (sender, destination, cur, amount, mutate, truster, trustee, limit) in queries {
            if mutate == 1 {
                let _ = state.set_trust(
                    acct(truster % accounts),
                    acct(trustee % accounts),
                    currency(cur),
                    Value::from_raw(limit),
                );
            }
            let sender = acct(sender % accounts);
            let destination = acct(destination % accounts);
            if sender == destination {
                continue;
            }
            let cached = router.route(
                &state, sender, destination, currency(cur), Value::from_raw(amount),
            );
            let cold = find_payment_paths(
                &state, sender, destination, currency(cur), Value::from_raw(amount), limits,
            );
            prop_assert_eq!(cached, cold, "cache must be invisible");
        }
    }

    /// Routing is a function of the ledger's contents, not of its hash
    /// tables' layout: a ledger whose trust lines went in in the opposite
    /// order, into tables grown and emptied by lines and debts that were
    /// removed again, returns the same plans — tie-breaks among
    /// equal-length paths included — from the cold search and the router.
    #[test]
    fn plans_do_not_depend_on_insertion_history(
        accounts in 5u8..=8,
        trust in vec((0u8..8, 0u8..8, 0u8..6, 1i128..50_000_000), 10..28),
        hops in vec((0u8..8, 0u8..8, 0u8..6, 1i128..20_000_000), 0..6),
        cur in 0u8..3,
        amount in 1i128..40_000_000,
    ) {
        // Two lines in three are in the queried currency, so that it has
        // equal-length paths to choose between.
        let currency = |n: u8| currency(if n < 3 { n } else { cur });
        // Ids that share one ledger shard, so the tables' layout (not the
        // shard order) decides the order the ledger iterates in.
        let who = |n: u8| AccountId::from_bytes([(n % accounts) << 4; 20]);
        // One write per trust line, so the order of writes is free.
        let mut lines: Vec<(AccountId, AccountId, Currency, Value)> = Vec::new();
        for &(truster, trustee, c, limit) in &trust {
            let key = (who(truster), who(trustee), currency(c));
            if !lines.iter().any(|&(a, b, c, _)| (a, b, c) == key) {
                lines.push((key.0, key.1, key.2, Value::from_raw(limit)));
            }
        }
        let every_line = || {
            (0..accounts).flat_map(move |a| {
                (0..accounts).flat_map(move |b| (0..3).map(move |c| (who(a), who(b), currency(c))))
            })
        };
        let build = |churn: bool| {
            let mut state = LedgerState::new();
            for i in 0..accounts {
                state.create_account(who(i), Drops::new(1_000_000_000));
            }
            if churn {
                for (a, b, c) in every_line() {
                    let _ = state.set_trust(a, b, c, Value::from_raw(1));
                    if a != b {
                        state.adjust_pair_balance(a, b, c, Value::from_raw(1));
                    }
                }
                for &(truster, trustee, c, limit) in lines.iter().rev() {
                    let _ = state.set_trust(truster, trustee, c, limit);
                }
                for (a, b, c) in every_line() {
                    if !lines.iter().any(|&(x, y, z, _)| (x, y, z) == (a, b, c)) {
                        let _ = state.set_trust(a, b, c, Value::ZERO);
                    }
                    if a != b {
                        state.adjust_pair_balance(a, b, c, Value::from_raw(-1));
                    }
                }
            } else {
                for &(truster, trustee, c, limit) in &lines {
                    let _ = state.set_trust(truster, trustee, c, limit);
                }
            }
            for &(from, to, c, hop) in &hops {
                let _ = state.ripple_hop(who(from), who(to), currency(c), Value::from_raw(hop));
            }
            state
        };
        let (straight, churned) = (build(false), build(true));
        let contents = |s: &LedgerState| {
            let mut lines: Vec<_> = s
                .trust_lines()
                .map(|l| (l.truster, l.trustee, l.currency, l.limit))
                .collect();
            let mut balances: Vec<_> = s.pair_balances().collect();
            lines.sort();
            balances.sort();
            (lines, balances)
        };
        prop_assert_eq!(contents(&straight), contents(&churned));

        let limits = PathLimits::default();
        let (cur, amount) = (currency(cur), Value::from_raw(amount));
        let (mut router_a, mut router_b) = (Router::new(limits), Router::new(limits));
        for (sender, destination, _) in every_line().filter(|&(a, b, c)| a != b && c == cur) {
            let cold = find_payment_paths(&straight, sender, destination, cur, amount, limits);
            prop_assert_eq!(
                &find_payment_paths(&churned, sender, destination, cur, amount, limits),
                &cold
            );
            prop_assert_eq!(&router_a.route(&straight, sender, destination, cur, amount), &cold);
            prop_assert_eq!(&router_b.route(&churned, sender, destination, cur, amount), &cold);
        }
    }

    /// `deliverable` is monotone under trust growth: raising a limit
    /// never shrinks what the router says it can deliver (capacity is
    /// never driven negative by cache reuse), and is never negative.
    #[test]
    fn deliverable_monotone_under_trust_growth(
        accounts in 3u8..=6,
        trust in vec((0u8..6, 0u8..6, 0u8..3, 1i128..50_000_000), 4..14),
        hops in vec((0u8..6, 0u8..6, 0u8..3, 1i128..20_000_000), 0..6),
        sender in 0u8..6,
        destination in 0u8..6,
        cur in 0u8..3,
        bump in 1i128..50_000_000,
    ) {
        let mut state = build_state(accounts, &trust, &hops);
        let sender = acct(sender % accounts);
        let destination = acct(destination % accounts);
        if sender == destination {
            continue;
        }
        let mut router = Router::new(PathLimits::default());
        let before = router.deliverable(&state, sender, destination, currency(cur));
        prop_assert!(!before.is_negative(), "deliverable is never negative");
        // Raise the first trust line in the queried currency (if any) and
        // re-ask the same router instance.
        let line = trust.iter().find(|&&(_, _, c, _)| currency(c) == currency(cur));
        if let Some(&(truster, trustee, line_cur, limit)) = line {
            let _ = state.set_trust(
                acct(truster % accounts),
                acct(trustee % accounts),
                currency(line_cur),
                Value::from_raw(limit.saturating_add(bump)),
            );
            let after = router.deliverable(&state, sender, destination, currency(cur));
            prop_assert!(after >= before, "trust growth cannot reduce liquidity");
        }
    }
}
