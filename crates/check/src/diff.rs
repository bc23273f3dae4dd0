//! Differential runners: production engines vs. reference models.
//!
//! Each runner takes a plain-data plan from [`crate::gen`], executes it
//! against both the production code and the oracle, and returns `None`
//! when they agree or a human-readable divergence description when they
//! don't. Divergence strings are deterministic functions of the plan, so
//! a replayed case regenerates its `CHECK_CASE.json` byte-for-byte.

use ripple_crypto::AccountId;
use ripple_ledger::{Currency, Drops, LedgerError, LedgerState, Value};
use ripple_orderbook::{BookSet, OrderBook, Rate};
use ripple_paths::{carried, PathLimits, PaymentEngine, PaymentError, PaymentRequest, Router};

use crate::gen::{
    case_currency, case_keypair, cast_account, op_to_tx, BookPlan, EnginePlan, LedgerCasePlan,
    OpKind, RouterPlan,
};
use crate::model::ModelLedger;
use crate::oracle::{find_payment_paths, max_deliverable, NaiveBook};

/// A deterministic, order-independent dump of the full ledger state, used
/// to assert that failed operations leave the state untouched.
pub fn fingerprint(state: &LedgerState) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let mut accounts: Vec<(AccountId, u64, u32, u32)> = state
        .accounts()
        .map(|(&id, r)| (id, r.balance.as_drops(), r.sequence, r.owner_count))
        .collect();
    accounts.sort_unstable();
    for (id, balance, seq, owned) in accounts {
        let _ = writeln!(s, "a {id} {balance} {seq} {owned}");
    }
    let mut trust: Vec<(AccountId, AccountId, Currency, i128)> = state
        .trust_lines()
        .map(|l| (l.truster, l.trustee, l.currency, l.limit.raw()))
        .collect();
    trust.sort_unstable();
    for (truster, trustee, cur, limit) in trust {
        let _ = writeln!(s, "t {truster} {trustee} {cur:?} {limit}");
    }
    let mut pairs: Vec<(AccountId, AccountId, Currency, i128)> = state
        .pair_balances()
        .map(|(low, high, cur, val)| (low, high, cur, val.raw()))
        .collect();
    pairs.sort_unstable();
    for (low, high, cur, raw) in pairs {
        let _ = writeln!(s, "p {low} {high} {cur:?} {raw}");
    }
    let mut offers: Vec<String> = state
        .offers()
        .map(|o| {
            format!(
                "o {} {} {:?} {:?}",
                o.owner, o.offer_seq, o.taker_gets, o.taker_pays
            )
        })
        .collect();
    offers.sort_unstable();
    for line in offers {
        let _ = writeln!(s, "{line}");
    }
    let _ = writeln!(s, "burned {}", state.total_burned().as_drops());
    s
}

/// Runs a ledger plan through `LedgerState::apply` and [`ModelLedger`],
/// checking result equality, state equality, XRP conservation, that a
/// payment path revisiting an account is refused before its hops are
/// checked, per-hop trust limits, and end-of-case book/ledger offer
/// consistency.
pub fn run_ledger_plan(plan: &LedgerCasePlan) -> Option<String> {
    let cast_len = (plan.genesis.len() + 1) as u8; // one extra ghost slot
    let keys = case_keypair();
    let mut state = LedgerState::new();
    let mut model = ModelLedger::new();
    let total_genesis: u128 = plan.genesis.iter().map(|&d| d as u128).sum();
    for (i, &drops) in plan.genesis.iter().enumerate() {
        state.create_account(cast_account(i as u8), Drops::new(drops));
        model.create_account(cast_account(i as u8), Drops::new(drops));
    }
    for (step, op) in plan.ops.iter().enumerate() {
        let actor = cast_account(op.actor % cast_len);
        let live_seq = state.account(&actor).map(|r| r.sequence).unwrap_or(1);
        let tx = op_to_tx(op, cast_len, live_seq, &keys);
        let got = state.apply(&tx);
        let want = model.apply(&tx);
        if got != want {
            return Some(format!(
                "step {step} ({}): ledger returned {got:?}, model returned {want:?}",
                tx.kind.label()
            ));
        }
        if let Err(msg) = model.compare(&state) {
            return Some(format!(
                "step {step} ({}): state diverged: {msg}",
                tx.kind.label()
            ));
        }
        let total: u128 = state
            .accounts()
            .map(|(_, r)| r.balance.as_drops() as u128)
            .sum::<u128>()
            + state.total_burned().as_drops() as u128;
        if total != total_genesis {
            return Some(format!(
                "step {step}: XRP not conserved: genesis {total_genesis} drops, \
                 balances + burn now {total}"
            ));
        }
        if let OpKind::IouPay {
            to, currency, path, ..
        } = &op.kind
        {
            let cur = case_currency(*currency);
            let mut chain = vec![actor];
            chain.extend(path.iter().map(|&h| cast_account(h % cast_len)));
            chain.push(cast_account(to % cast_len));
            let repeat = (1..chain.len()).find(|&i| chain[..i].contains(&chain[i]));
            if let Some(i) = repeat {
                // A loop is refused before any hop is looked at.
                if matches!(
                    got,
                    Ok(_)
                        | Err(
                            LedgerError::NoSuchAccount(_) | LedgerError::TrustLimitExceeded { .. }
                        )
                ) {
                    return Some(format!(
                        "step {step}: a path that revisits {} reached the hop checks: {got:?}",
                        chain[i]
                    ));
                }
            } else if got.is_ok() {
                for pair in chain.windows(2) {
                    let held = state.iou_balance(pair[1], pair[0], cur);
                    let limit = state.trust_limit(pair[1], pair[0], cur);
                    if held > limit {
                        return Some(format!(
                            "step {step}: trust limit exceeded after payment: \
                             {} holds {held} of {} but trusts only {limit}",
                            pair[1], pair[0]
                        ));
                    }
                }
            }
        }
    }
    // Every ratable resting offer must surface in the book set, and
    // nothing else.
    let books = BookSet::from_ledger(&state);
    let ratable = state
        .offers()
        .filter(|o| Rate::from_amounts(o.taker_pays.value(), o.taker_gets.value()).is_some())
        .count();
    if books.total_offers() != ratable {
        return Some(format!(
            "book/ledger offer mismatch: {} ratable offers in ledger, {} in books",
            ratable,
            books.total_offers()
        ));
    }
    None
}

/// Builds a plan's starting state from genesis balances, attempted trust
/// lines and attempted debt hops (setup errors are skipped — the plan
/// describes attempts, not guaranteed effects).
fn setup_state(
    genesis: &[u64],
    trust: &[(u8, u8, u8, i128)],
    hops: &[(u8, u8, u8, i128)],
) -> (LedgerState, u8) {
    let cast_len = genesis.len().max(1) as u8;
    let mut state = LedgerState::new();
    for (i, &drops) in genesis.iter().enumerate() {
        state.create_account(cast_account(i as u8), Drops::new(drops));
    }
    for &(truster, trustee, cur, limit) in trust {
        let _ = state.set_trust(
            cast_account(truster % cast_len),
            cast_account(trustee % cast_len),
            case_currency(cur % 3),
            Value::from_raw(limit),
        );
    }
    for &(from, to, cur, amount) in hops {
        let _ = state.ripple_hop(
            cast_account(from % cast_len),
            cast_account(to % cast_len),
            case_currency(cur % 3),
            Value::from_raw(amount),
        );
    }
    (state, cast_len)
}

/// Builds the engine plan's starting state.
fn engine_state(plan: &EnginePlan) -> (LedgerState, u8) {
    setup_state(&plan.genesis, &plan.trust, &plan.hops)
}

/// Runs one engine payment against the max-flow oracle: a successful
/// payment must be oracle-feasible and move exactly the requested net
/// positions; a `NoPath` failure must leave the state untouched and be
/// confirmed infeasible (re-checked under a generous path budget, since
/// the default budget legitimately truncates).
pub fn run_engine_plan(plan: &EnginePlan) -> Option<String> {
    if plan.genesis.is_empty() || plan.amount <= 0 {
        return None;
    }
    let (state, cast_len) = engine_state(plan);
    let sender = cast_account(plan.sender % cast_len);
    let destination = cast_account(plan.destination % cast_len);
    if sender == destination {
        return None;
    }
    let currency = case_currency(plan.currency % 3);
    let amount = Value::from_raw(plan.amount);
    let before = fingerprint(&state);
    let net_before: Vec<i128> = (0..cast_len)
        .map(|i| state.net_position(cast_account(i), currency).raw())
        .collect();
    let oracle_max = max_deliverable(&state, sender, destination, currency, plan.amount);
    let request = PaymentRequest {
        sender,
        destination,
        currency,
        amount,
        source_currency: None,
        send_max: None,
    };
    let engine = PaymentEngine::with_limits(PathLimits {
        max_paths: 64,
        max_hops: 8,
    });
    let mut work = state.clone();
    match engine.pay(&mut work, &request) {
        Ok(executed) => {
            if executed.delivered != amount {
                return Some(format!(
                    "engine reported success but delivered {} of {amount}",
                    executed.delivered
                ));
            }
            if oracle_max < plan.amount {
                return Some(format!(
                    "engine delivered {amount} but max-flow oracle says only {oracle_max} \
                     raw units are feasible"
                ));
            }
            for i in 0..cast_len {
                let id = cast_account(i);
                let delta = work.net_position(id, currency).raw() - net_before[i as usize];
                let expected = if id == sender {
                    -plan.amount
                } else if id == destination {
                    plan.amount
                } else {
                    0
                };
                if delta != expected {
                    return Some(format!(
                        "net position of {id} moved by {delta} raw units (expected {expected})"
                    ));
                }
            }
            for (id, root) in work.accounts() {
                if state.account(id).map(|r| r.balance) != Some(root.balance) {
                    return Some(format!(
                        "same-currency IOU payment moved the XRP balance of {id}"
                    ));
                }
            }
        }
        Err(PaymentError::NoPath { carried, requested }) => {
            if fingerprint(&work) != before {
                return Some("failed payment left the ledger modified".to_string());
            }
            if requested != amount {
                return Some(format!(
                    "NoPath reported requested {requested}, but the request was {amount}"
                ));
            }
            if carried.raw() > oracle_max {
                return Some(format!(
                    "engine claims it carried {} raw units but the oracle caps flow at {oracle_max}",
                    carried.raw()
                ));
            }
            if oracle_max >= plan.amount {
                // The default budget can truncate; only a generous budget
                // disagreeing with the oracle is a divergence.
                let generous = PaymentEngine::with_limits(PathLimits {
                    max_paths: 4096,
                    max_hops: 8,
                });
                let mut retry = state.clone();
                if generous.pay(&mut retry, &request).is_err() {
                    return Some(format!(
                        "engine finds no path for {amount} even with 4096 paths, but the \
                         max-flow oracle delivers {oracle_max} raw units"
                    ));
                }
            }
        }
        Err(_) => {
            if fingerprint(&work) != before {
                return Some("failed payment left the ledger modified".to_string());
            }
        }
    }
    None
}

/// Runs a router plan: a persistent cache-on [`Router`] answers a stream
/// of queries interleaved with trust mutations, and every answer must
/// (1) equal the cold [`find_payment_paths`] search, (2) never
/// carry more than the max-flow oracle allows, and (3) agree with a
/// [`PaymentEngine::pay`] replay — full plans execute the cold plan's
/// paths and deliver exactly the requested amount, partial plans fail as
/// `NoPath` with the same carried total. Steps with an even amount replay
/// on the live ledger through one long-lived engine, so later steps meet
/// the debt they left and that engine's router is edge-patched rather
/// than rebuilt; the others replay on a clone through a second engine.
pub fn run_router_plan(plan: &RouterPlan) -> Option<String> {
    if plan.genesis.is_empty() {
        return None;
    }
    let limits = PathLimits {
        max_paths: 64,
        max_hops: 8,
    };
    let (mut state, cast_len) = setup_state(&plan.genesis, &plan.trust, &plan.hops);
    let currency = case_currency(plan.currency % 3);
    let mut router = Router::new(limits);
    let engine = PaymentEngine::with_limits(limits);
    let live_engine = PaymentEngine::with_limits(limits);
    for (step, q) in plan.queries.iter().enumerate() {
        if q.mutate_limit >= 0 {
            let _ = state.set_trust(
                cast_account(q.mutate_truster % cast_len),
                cast_account(q.mutate_trustee % cast_len),
                currency,
                Value::from_raw(q.mutate_limit),
            );
        }
        let sender = cast_account(q.sender % cast_len);
        let destination = cast_account(q.destination % cast_len);
        if sender == destination || q.amount <= 0 {
            continue;
        }
        let amount = Value::from_raw(q.amount);
        let cached = router.route(&state, sender, destination, currency, amount);
        let cold = find_payment_paths(&state, sender, destination, currency, amount, limits);
        if cached != cold {
            return Some(format!(
                "query {step}: cache-on router returned {} paths carrying {}, \
                 cold search returned {} paths carrying {}",
                cached.len(),
                carried(&cached),
                cold.len(),
                carried(&cold)
            ));
        }
        let carried = carried(&cached);
        let oracle_max = max_deliverable(&state, sender, destination, currency, q.amount);
        if carried.raw() > oracle_max {
            return Some(format!(
                "query {step}: router plan carries {} raw units but the max-flow \
                 oracle caps flow at {oracle_max}",
                carried.raw()
            ));
        }
        let request = PaymentRequest {
            sender,
            destination,
            currency,
            amount,
            source_currency: None,
            send_max: None,
        };
        let paid = if q.amount % 2 == 0 {
            live_engine.pay(&mut state, &request)
        } else {
            engine.pay(&mut state.clone(), &request)
        };
        match paid {
            Ok(executed) => {
                if carried < amount {
                    return Some(format!(
                        "query {step}: router carried only {carried} of {amount} \
                         but the engine delivered the payment"
                    ));
                }
                if !executed
                    .paths
                    .iter()
                    .eq(cold.iter().map(|p| &p.intermediates))
                {
                    return Some(format!(
                        "query {step}: engine executed paths {:?}, cold search planned {cold:?}",
                        executed.paths
                    ));
                }
                if executed.delivered != amount {
                    return Some(format!(
                        "query {step}: engine delivered {} of {amount}",
                        executed.delivered
                    ));
                }
            }
            Err(PaymentError::NoPath {
                carried: engine_carried,
                ..
            }) => {
                if carried >= amount {
                    return Some(format!(
                        "query {step}: router found a full plan for {amount} but \
                         the engine reports NoPath carrying {engine_carried}"
                    ));
                }
                if engine_carried != carried {
                    return Some(format!(
                        "query {step}: router carried {carried}, engine NoPath \
                         carried {engine_carried}"
                    ));
                }
            }
            Err(other) => {
                return Some(format!(
                    "query {step}: engine failed with {other:?} on a plain IOU payment"
                ));
            }
        }
    }
    None
}

/// Runs a book plan through `OrderBook` and [`NaiveBook`]: quote, fill
/// outcome (including per-offer slices), and the post-fill book must all
/// agree.
pub fn run_book_plan(plan: &BookPlan) -> Option<String> {
    let mut book = OrderBook::new(Currency::EUR, Currency::USD);
    let mut naive = NaiveBook::new();
    for o in &plan.offers {
        let rate = Rate::from_amounts(Value::from_raw(o.pays_raw), Value::from_raw(o.gets_raw));
        let inserted = naive.insert(o.owner, o.offer_seq, o.gets_raw, o.pays_raw);
        match rate {
            Some(r) => {
                if !inserted {
                    return Some(format!(
                        "offer {}#{} is ratable for the book but not the oracle",
                        o.owner, o.offer_seq
                    ));
                }
                book.insert(
                    cast_account(o.owner),
                    o.offer_seq,
                    Value::from_raw(o.gets_raw),
                    r,
                );
            }
            None => {
                if inserted {
                    return Some(format!(
                        "offer {}#{} is ratable for the oracle but not the book",
                        o.owner, o.offer_seq
                    ));
                }
            }
        }
    }
    let quote_book = book
        .quote_buy(Value::from_raw(plan.fill_raw))
        .map(|v| v.raw());
    let quote_naive = naive.quote(plan.fill_raw);
    if quote_book != quote_naive {
        return Some(format!(
            "quote_buy({}) = {quote_book:?}, oracle quote = {quote_naive:?}",
            plan.fill_raw
        ));
    }
    let outcome = book.fill(Value::from_raw(plan.fill_raw));
    let naive_outcome = naive.fill(plan.fill_raw);
    if outcome.filled.raw() != naive_outcome.filled || outcome.paid.raw() != naive_outcome.paid {
        return Some(format!(
            "fill({}) bought {} for {}, oracle bought {} for {}",
            plan.fill_raw,
            outcome.filled.raw(),
            outcome.paid.raw(),
            naive_outcome.filled,
            naive_outcome.paid
        ));
    }
    if outcome.parts.len() != naive_outcome.parts.len() {
        return Some(format!(
            "fill consumed {} offers, oracle consumed {}",
            outcome.parts.len(),
            naive_outcome.parts.len()
        ));
    }
    for (part, &(owner, offer_seq, taken, paid)) in outcome.parts.iter().zip(&naive_outcome.parts) {
        if part.owner != cast_account(owner)
            || part.offer_seq != offer_seq
            || part.taken.raw() != taken
            || part.paid.raw() != paid
        {
            return Some(format!(
                "fill slice differs: book took {} of {}#{} for {}, oracle took {taken} of \
                 {owner}#{offer_seq} for {paid}",
                part.taken.raw(),
                part.owner,
                part.offer_seq,
                part.paid.raw()
            ));
        }
    }
    if book.depth() != naive.depth() || book.liquidity().raw() != naive.liquidity() {
        return Some(format!(
            "post-fill book holds {} offers with {} liquidity, oracle {} with {}",
            book.depth(),
            book.liquidity().raw(),
            naive.depth(),
            naive.liquidity()
        ));
    }
    for (entry, naive_entry) in book.iter().zip(naive.sorted_entries()) {
        if entry.owner != cast_account(naive_entry.owner)
            || entry.offer_seq != naive_entry.offer_seq
            || entry.remaining.raw() != naive_entry.remaining
        {
            return Some(format!(
                "post-fill entry differs: book rests {} of {}#{}, oracle {} of {}#{}",
                entry.remaining.raw(),
                entry.owner,
                entry.offer_seq,
                naive_entry.remaining,
                naive_entry.owner,
                naive_entry.offer_seq
            ));
        }
    }
    None
}
