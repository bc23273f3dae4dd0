//! Gateway transfer fees and cheapest-candidate routing.
//!
//! Real gateways charge a *transfer rate* on IOUs rippling through them
//! (e.g. Bitstamp's historical 0.2%). Ripple's pathfinder therefore does
//! not simply pick the shortest path: it selects "the path with the best
//! exchange rate available" (§III.C). This module adds both pieces:
//!
//! * [`TransferFees`] — per-account fee table in basis points, with the
//!   gross/net arithmetic: an intermediary charging `f` forwards `A` but
//!   receives `A·(1+f)`, keeping the difference;
//! * [`Router::cheapest`] — the router's cached candidates for a pair,
//!   grossed up hop by hop and ranked by what the sender pays, the way
//!   rippled ranks a bounded candidate set by quality. It is not a global
//!   cheapest-path search: a cheaper route outside the `max_paths`
//!   shortest-first candidates is not considered.

use std::collections::HashMap;

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, LedgerState, Value};

use crate::router::Router;

/// Fee charged by each account for rippling *through* it, in basis points.
/// Accounts not listed charge nothing.
///
/// # Examples
///
/// ```
/// use ripple_crypto::AccountId;
/// use ripple_ledger::{Currency, Drops, LedgerState};
/// use ripple_paths::{PathLimits, Router, TransferFees};
///
/// let [alice, gateway, bob] = [1, 9, 2].map(|n| AccountId::from_bytes([n; 20]));
/// let mut state = LedgerState::new();
/// for account in [alice, gateway, bob] {
///     state.create_account(account, Drops::from_xrp(100));
/// }
/// state.set_trust(gateway, alice, Currency::USD, "1000".parse().unwrap()).unwrap();
/// state.set_trust(bob, gateway, Currency::USD, "1000".parse().unwrap()).unwrap();
///
/// let mut fees = TransferFees::new();
/// fees.set(gateway, 20); // Bitstamp's historical 0.2%
/// let mut router = Router::new(PathLimits::default());
/// let amount = "100".parse().unwrap();
/// let path = router.cheapest(&state, alice, bob, Currency::USD, amount, &fees).unwrap();
/// assert_eq!(path.intermediates, vec![gateway]);
/// assert_eq!(path.source_cost.to_string(), "100.2");
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
    fn gross_through(&self, account: AccountId, net: Value) -> Value {
        let bps = self.bps(account) as u64;
        if bps == 0 {
            net
        } else {
            net.mul_ratio(10_000 + bps, 10_000)
        }
    }
}

/// A fee-bearing single-path plan, as [`Router::cheapest`] chooses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeePath {
    /// Intermediate accounts, in order.
    pub intermediates: Vec<AccountId>,
    /// What each hop carries, the sender's hop first: the delivered amount
    /// grossed up through every intermediary after the hop, so the last
    /// hop carries the delivered amount itself.
    pub gross: Vec<Value>,
    /// The sender's gross cost of delivering the amount, `gross[0]`.
    pub source_cost: Value,
}

impl Router {
    /// The cheapest single path for `amount` of `currency` from `sender`
    /// to `destination` under transfer fees. The candidates are this
    /// router's cached enumeration for the pair — at most `max_paths`
    /// paths, shortest first, the set [`Router::route`] allocates from.
    /// Each is grossed up hop by hop from the destination, and dropped if
    /// some hop's live capacity cannot carry that hop's gross. Of the rest
    /// the lowest source cost wins; ties go to fewer hops, then to
    /// enumeration order. `None` when no candidate carries the amount.
    pub fn cheapest(
        &mut self,
        state: &LedgerState,
        sender: AccountId,
        destination: AccountId,
        currency: Currency,
        amount: Value,
        fees: &TransferFees,
    ) -> Option<FeePath> {
        self.stats.queries += 1;
        if sender == destination || currency.is_xrp() || !amount.is_positive() {
            return None;
        }
        let mut best: Option<FeePath> = None;
        for (chain, _) in self.enumeration(state, sender, destination, currency) {
            let mut gross = vec![amount; chain.len() - 1];
            for hop in (1..gross.len()).rev() {
                gross[hop - 1] = fees.gross_through(chain[hop], gross[hop]);
            }
            let fits = chain
                .windows(2)
                .zip(&gross)
                .all(|(pair, &g)| state.hop_capacity(pair[0], pair[1], currency) >= g);
            let cheaper = match &best {
                None => true,
                Some(b) => (gross[0], gross.len()) < (b.source_cost, b.gross.len()),
            };
            if fits && cheaper {
                best = Some(FeePath {
                    intermediates: chain[1..chain.len() - 1].to_vec(),
                    source_cost: gross[0],
                    gross,
                });
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::PathLimits;
    use crate::PaymentEngine;
    use crate::PaymentRequest;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ripple_ledger::Drops;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn v(s: &str) -> Value {
        s.parse().unwrap()
    }

    /// [`Router::cheapest`] on a fresh router with the given limits.
    fn cheapest(
        state: &LedgerState,
        sender: AccountId,
        destination: AccountId,
        currency: Currency,
        amount: Value,
        limits: PathLimits,
        fees: &TransferFees,
    ) -> Option<FeePath> {
        Router::new(limits).cheapest(state, sender, destination, currency, amount, fees)
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
        let path = cheapest(
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
        let path = cheapest(
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
        let path = cheapest(
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
        let result = cheapest(
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
        let path = cheapest(
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
        let result = cheapest(
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

    /// Two routes from 1 to 4 under a two-hop cap: 1 -> 2 -> 6 -> 4, tolled
    /// at 2, and the free 1 -> 3 -> 5 -> 6 -> 4, one hop too long. A
    /// search that settles 6 over the free route first cannot expand it
    /// under the cap, and so misses the tolled route that fits.
    #[test]
    fn hop_cap_keeps_the_tolled_route_that_fits() {
        let mut s = LedgerState::new();
        for i in 1..=6 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        for (truster, trustee) in [(2, 1), (6, 2), (3, 1), (5, 3), (6, 5), (4, 6)] {
            s.set_trust(acct(truster), acct(trustee), Currency::USD, v("1000"))
                .unwrap();
        }
        let mut fees = TransferFees::new();
        fees.set(acct(2), 100);
        let limits = PathLimits {
            max_paths: 6,
            max_hops: 2,
        };
        let path = cheapest(&s, acct(1), acct(4), Currency::USD, v("10"), limits, &fees)
            .expect("the two-hop route fits the cap");
        assert_eq!(path.intermediates, vec![acct(2), acct(6)]);
        assert_eq!(path.source_cost, v("10.1"));

        let engine = PaymentEngine::with_limits(limits).with_transfer_fees(fees);
        let request = PaymentRequest {
            sender: acct(1),
            destination: acct(4),
            currency: Currency::USD,
            amount: v("10"),
            source_currency: None,
            send_max: None,
        };
        let done = engine.pay(&mut s, &request).expect("delivered");
        assert_eq!(done.paths, vec![vec![acct(2), acct(6)]]);
        assert_eq!(done.source_cost, v("10.1"));
        assert_eq!(s.net_position(acct(4), Currency::USD), v("10"));
        assert_eq!(s.net_position(acct(2), Currency::USD), v("0.1"));
    }

    /// What each hop of `chain` carries to deliver `amount`: the amount
    /// grossed up through every intermediary after the hop.
    fn gross_up(chain: &[AccountId], amount: Value, fees: &TransferFees) -> Vec<Value> {
        (0..chain.len() - 1)
            .map(|hop| {
                chain[hop + 1..chain.len() - 1]
                    .iter()
                    .rev()
                    .fold(amount, |net, &through| fees.gross_through(through, net))
            })
            .collect()
    }

    /// A dense random credit network in USD with a random fee table:
    /// 4–10 accounts, each ordered pair trusting with probability 0.4,
    /// some lines part-used by debt pushed through real hops, and each
    /// account charging up to 10% with probability 0.5.
    fn seeded_fee_ledger(seed: u64) -> (LedgerState, Vec<AccountId>, TransferFees) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = LedgerState::new();
        let accounts: Vec<AccountId> = (1..=rng.gen_range(4u8..=10)).map(acct).collect();
        for &a in &accounts {
            s.create_account(a, Drops::from_xrp(100));
        }
        let units = |rng: &mut StdRng| Value::from_raw(rng.gen_range(1i128..=50) * 1_000_000);
        let mut fees = TransferFees::new();
        for &a in &accounts {
            for &b in &accounts {
                if a != b && rng.gen_bool(0.4) {
                    s.set_trust(a, b, Currency::USD, units(&mut rng)).unwrap();
                }
            }
            if rng.gen_bool(0.5) {
                fees.set(a, rng.gen_range(1..=1_000));
            }
        }
        for _ in 0..accounts.len() {
            let from = accounts[rng.gen_range(0..accounts.len())];
            let to = accounts[rng.gen_range(0..accounts.len())];
            let _ = s.ripple_hop(from, to, Currency::USD, units(&mut rng));
        }
        (s, accounts, fees)
    }

    /// On seeded ledgers with random fee tables: the chosen path carries
    /// its gross on every hop, costs what its hops gross up to, and no
    /// enumerated candidate that carries the amount is cheaper (ties: fewer
    /// hops, then enumeration order). With no fees it is the first path
    /// `Router::route` plans whenever that path carries the whole amount.
    #[test]
    fn cheapest_is_the_cheapest_candidate_that_fits() {
        let (mut chosen, mut undercut, mut first) = (0, 0, 0);
        for seed in 0..200 {
            let (s, accounts, fees) = seeded_fee_ledger(seed);
            let mut rng = StdRng::seed_from_u64(!seed);
            let mut router = Router::new(PathLimits::default());
            for _ in 0..16 {
                let sender = accounts[rng.gen_range(0..accounts.len())];
                let destination = accounts[rng.gen_range(0..accounts.len())];
                let amount = Value::from_raw(rng.gen_range(1i128..=30) * 1_000_000);
                let got = router.cheapest(&s, sender, destination, Currency::USD, amount, &fees);
                let fitting: Vec<(Value, Vec<AccountId>)> = router
                    .enumeration(&s, sender, destination, Currency::USD)
                    .iter()
                    .filter_map(|(chain, _)| {
                        let gross = gross_up(chain, amount, &fees);
                        let fits = chain
                            .windows(2)
                            .zip(&gross)
                            .all(|(hop, &g)| s.hop_capacity(hop[0], hop[1], Currency::USD) >= g);
                        fits.then(|| (gross[0], chain.clone()))
                    })
                    .collect();
                // The first of the cheapest, shortest fitting candidates.
                let want = fitting
                    .iter()
                    .min_by_key(|(cost, chain)| (*cost, chain.len()));
                let (path, (_, chain)) = match (got, want) {
                    (None, None) => continue,
                    (Some(path), Some(want)) => (path, want),
                    (got, want) => panic!("seed {seed}: chose {got:?}, want {want:?}"),
                };
                chosen += 1;
                assert_eq!(path.intermediates, chain[1..chain.len() - 1], "seed {seed}");
                let gross = gross_up(chain, amount, &fees);
                assert_eq!(path.gross, gross, "seed {seed}");
                assert_eq!(path.source_cost, gross[0], "seed {seed}");
                for (hop, &g) in chain.windows(2).zip(&gross) {
                    assert!(s.hop_capacity(hop[0], hop[1], Currency::USD) >= g);
                }
                undercut += usize::from(fitting.iter().any(|(_, c)| c.len() < chain.len()));

                let free = TransferFees::new();
                let free = router.cheapest(&s, sender, destination, Currency::USD, amount, &free);
                let planned = router.route(&s, sender, destination, Currency::USD, amount);
                if planned.first().is_some_and(|p| p.amount == amount) {
                    first += 1;
                    let free = free.expect("the first path carries the amount");
                    assert_eq!(free.intermediates, planned[0].intermediates, "seed {seed}");
                    assert_eq!(free.source_cost, amount, "seed {seed}");
                }
            }
        }
        // Enough choices, including a longer path chosen over a tolled
        // shorter one, for the properties to bite.
        assert!(
            chosen > 1000 && undercut > 25 && first > 1000,
            "{chosen} {undercut} {first}"
        );
    }
}
