//! The payment engine: executes same-currency and cross-currency payments
//! against the ledger, all-or-nothing.

use ripple_crypto::AccountId;
use ripple_ledger::{Amount, Currency, Drops, IouAmount, LedgerError, LedgerState, Value};
use ripple_orderbook::{BookSet, FillPart};

use crate::router::{carried, stamp_of, FoundPath, PathLimits, Router, RouterStats};
use std::cell::RefCell;

/// A payment to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaymentRequest {
    /// Paying account.
    pub sender: AccountId,
    /// Receiving account.
    pub destination: AccountId,
    /// Currency *delivered* to the destination.
    pub currency: Currency,
    /// Amount delivered (XRP units when `currency` is XRP).
    pub amount: Value,
    /// Currency the sender pays with; `None` means same as `currency`.
    /// A differing value makes this a cross-currency payment needing a
    /// Market-Maker bridge.
    pub source_currency: Option<Currency>,
    /// Cap on what the sender will spend in the source currency (the
    /// ledger's `SendMax`). `None` accepts any rate the books quote.
    pub send_max: Option<Value>,
}

impl PaymentRequest {
    /// Whether the request crosses currencies.
    pub fn is_cross_currency(&self) -> bool {
        match self.source_currency {
            Some(src) => src != self.currency,
            None => false,
        }
    }
}

/// A successfully executed payment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutedPayment {
    /// Amount delivered.
    pub delivered: Value,
    /// Delivered currency.
    pub currency: Currency,
    /// Currency the sender actually paid with.
    pub source_currency: Currency,
    /// Amount the sender paid (in the source currency).
    pub source_cost: Value,
    /// Executed parallel paths, each as its intermediate accounts (Market
    /// Makers appear as intermediates on cross-currency paths).
    pub paths: Vec<Vec<AccountId>>,
    /// Whether a Market-Maker bridge was used.
    pub cross_currency: bool,
}

/// Why a payment could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PaymentError {
    /// No trust path with capacity exists.
    NoPath {
        /// Amount that could be carried by the paths that do exist.
        carried: Value,
        /// Amount requested.
        requested: Value,
    },
    /// The bridge would cost more than the request's `send_max`.
    SendMaxExceeded {
        /// What the books would charge.
        cost: Value,
        /// The sender's cap.
        send_max: Value,
    },
    /// Order books lack the liquidity for a cross-currency bridge.
    NoLiquidity {
        /// Amount the books could cover.
        available: Value,
        /// Amount requested.
        requested: Value,
    },
    /// The underlying ledger rejected an operation.
    Ledger(LedgerError),
    /// Zero or negative amounts are rejected.
    NonPositiveAmount,
    /// Sender equals destination.
    SelfPayment,
}

impl std::fmt::Display for PaymentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaymentError::NoPath { carried, requested } => {
                write!(f, "no trust path: {carried} of {requested} routable")
            }
            PaymentError::SendMaxExceeded { cost, send_max } => {
                write!(f, "bridge costs {cost}, send_max is {send_max}")
            }
            PaymentError::NoLiquidity {
                available,
                requested,
            } => write!(f, "books cover {available} of {requested}"),
            PaymentError::Ledger(e) => write!(f, "ledger rejected payment: {e}"),
            PaymentError::NonPositiveAmount => write!(f, "amount must be positive"),
            PaymentError::SelfPayment => write!(f, "sender and destination coincide"),
        }
    }
}

impl std::error::Error for PaymentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PaymentError::Ledger(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LedgerError> for PaymentError {
    fn from(e: LedgerError) -> Self {
        PaymentError::Ledger(e)
    }
}

/// Undo log so multi-step executions are all-or-nothing.
#[derive(Debug, Default)]
struct UndoLog {
    ops: Vec<UndoOp>,
}

#[derive(Debug)]
enum UndoOp {
    /// Reverse of `adjust_pair_balance(holder, counterparty, currency, delta)`.
    Pair(AccountId, AccountId, Currency, Value),
    /// Reverse of an XRP movement `from -> to`.
    Xrp(AccountId, AccountId, Drops),
    /// Restore an offer to its previous remaining amounts.
    Offer {
        owner: AccountId,
        offer_seq: u32,
        taker_gets: Amount,
        taker_pays: Amount,
        was_removed: bool,
    },
}

impl UndoLog {
    fn rollback(self, state: &mut LedgerState) {
        for op in self.ops.into_iter().rev() {
            match op {
                UndoOp::Pair(holder, counterparty, currency, delta) => {
                    state.adjust_pair_balance(holder, counterparty, currency, -delta);
                }
                UndoOp::Xrp(from, to, drops) => {
                    state
                        .xrp_transfer_unchecked(to, from, drops)
                        .expect("rollback transfer cannot fail: funds just moved");
                }
                UndoOp::Offer {
                    owner,
                    offer_seq,
                    taker_gets,
                    taker_pays,
                    was_removed,
                } => {
                    if was_removed {
                        state
                            .place_offer(owner, offer_seq, taker_gets, taker_pays)
                            .expect("offer owner still exists");
                    } else {
                        state
                            .update_offer(owner, offer_seq, taker_gets, taker_pays)
                            .expect("offer still exists");
                    }
                }
            }
        }
    }
}

/// The payment engine. Stateless apart from its router's cache; all
/// effects land in the [`LedgerState`] passed to [`PaymentEngine::pay`].
///
/// # Examples
///
/// ```
/// use ripple_paths::{PaymentEngine, PaymentRequest};
/// use ripple_ledger::{Currency, Drops, LedgerState};
/// use ripple_crypto::AccountId;
///
/// let mut state = LedgerState::new();
/// let (a, b) = (AccountId::from_bytes([1; 20]), AccountId::from_bytes([2; 20]));
/// state.create_account(a, Drops::from_xrp(100));
/// state.create_account(b, Drops::from_xrp(100));
/// state.set_trust(b, a, Currency::USD, "50".parse().unwrap()).unwrap();
///
/// let engine = PaymentEngine::new();
/// let done = engine
///     .pay(&mut state, &PaymentRequest {
///         sender: a,
///         destination: b,
///         currency: Currency::USD,
///         amount: "20".parse().unwrap(),
///         source_currency: None,
///         send_max: None,
///     })
///     .unwrap();
/// assert_eq!(done.delivered, "20".parse().unwrap());
/// assert!(!done.cross_currency);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PaymentEngine {
    /// Cached capacity-aware router for every IOU payment and leg. Interior
    /// mutability keeps `pay(&self, …)` stable; the engine is a
    /// single-threaded object (it was never `Sync`-dependent) and the cache
    /// checks every ledger it is shown against its `(lineage, generation)`
    /// stamp.
    router: RefCell<Router>,
}

impl PaymentEngine {
    /// Engine with default path limits.
    pub fn new() -> PaymentEngine {
        PaymentEngine::default()
    }

    /// Engine with custom path limits.
    pub fn with_limits(limits: PathLimits) -> PaymentEngine {
        PaymentEngine {
            router: RefCell::new(Router::new(limits)),
        }
    }

    /// Cache counters from the embedded router.
    pub fn router_stats(&self) -> RouterStats {
        self.router.borrow().stats()
    }

    /// Executes a payment. On error the ledger is untouched.
    ///
    /// # Errors
    ///
    /// See [`PaymentError`].
    pub fn pay(
        &self,
        state: &mut LedgerState,
        request: &PaymentRequest,
    ) -> Result<ExecutedPayment, PaymentError> {
        if !request.amount.is_positive() {
            return Err(PaymentError::NonPositiveAmount);
        }
        if request.sender == request.destination {
            return Err(PaymentError::SelfPayment);
        }
        if let Some(send_max) = request.send_max {
            let src = request.source_currency.unwrap_or(request.currency);
            if src == request.currency && send_max < request.amount {
                // Same-currency payments cost exactly their amount.
                return Err(PaymentError::SendMaxExceeded {
                    cost: request.amount,
                    send_max,
                });
            }
        }
        let src = request.source_currency.unwrap_or(request.currency);
        if src == request.currency {
            self.pay_same_currency(state, request)
        } else {
            self.pay_cross_currency(state, request, src)
        }
    }

    fn pay_same_currency(
        &self,
        state: &mut LedgerState,
        request: &PaymentRequest,
    ) -> Result<ExecutedPayment, PaymentError> {
        if request.currency.is_xrp() {
            let drops = value_to_drops(request.amount)?;
            state.xrp_transfer(request.sender, request.destination, drops)?;
            return Ok(ExecutedPayment {
                delivered: request.amount,
                currency: Currency::XRP,
                source_currency: Currency::XRP,
                source_cost: request.amount,
                paths: vec![Vec::new()],
                cross_currency: false,
            });
        }
        let paths = self.router.borrow_mut().route(
            state,
            request.sender,
            request.destination,
            request.currency,
            request.amount,
        );
        self.settle(state, request, paths)
    }

    /// Executes a same-currency plan for `request`, all or nothing: a
    /// plan that carries too little is `NoPath`, and a hop the ledger
    /// refuses undoes the hops before it.
    fn settle(
        &self,
        state: &mut LedgerState,
        request: &PaymentRequest,
        paths: Vec<FoundPath>,
    ) -> Result<ExecutedPayment, PaymentError> {
        let total = carried(&paths);
        if total < request.amount {
            return Err(PaymentError::NoPath {
                carried: total,
                requested: request.amount,
            });
        }
        let mut undo = UndoLog::default();
        let plan = plan_hops(request.sender, request.destination, &paths);
        if let Err(e) = self.apply_routed(state, &mut undo, request.currency, plan) {
            undo.rollback(state);
            return Err(e);
        }
        Ok(ExecutedPayment {
            delivered: request.amount,
            currency: request.currency,
            source_currency: request.currency,
            source_cost: request.amount,
            paths: paths.into_iter().map(|p| p.intermediates).collect(),
            cross_currency: false,
        })
    }

    /// Applies a routed plan's `(from, to, amount)` hops in order,
    /// recording undo operations, then hands the router the pairs those
    /// hops moved so it can patch its credit graph instead of rebuilding it
    /// (see the `router` module docs).
    fn apply_routed(
        &self,
        state: &mut LedgerState,
        undo: &mut UndoLog,
        currency: Currency,
        hops: impl Iterator<Item = (AccountId, AccountId, Value)>,
    ) -> Result<(), PaymentError> {
        let before = stamp_of(state);
        let mark = undo.ops.len();
        for (from, to, amount) in hops {
            state.ripple_hop(from, to, currency, amount)?;
            undo.ops.push(UndoOp::Pair(to, from, currency, amount));
        }
        let moved = undo.ops[mark..].iter().filter_map(|op| match op {
            UndoOp::Pair(holder, counterparty, ..) => Some((*holder, *counterparty)),
            _ => None,
        });
        self.router
            .borrow_mut()
            .refresh_pairs(state, before, currency, moved);
        Ok(())
    }

    fn pay_cross_currency(
        &self,
        state: &mut LedgerState,
        request: &PaymentRequest,
        src: Currency,
    ) -> Result<ExecutedPayment, PaymentError> {
        let dst = request.currency;
        let books = BookSet::from_ledger(state);

        // Prefer the direct book; fall back to the XRP auto-bridge.
        let direct_possible = books
            .book(dst, src)
            .and_then(|b| b.quote_buy(request.amount))
            .is_some();

        if direct_possible {
            self.execute_direct_bridge(state, request, src)
        } else if dst != Currency::XRP && src != Currency::XRP {
            self.execute_xrp_bridge(state, request, src)
        } else {
            let available = books
                .book(dst, src)
                .map(|b| b.liquidity())
                .unwrap_or(Value::ZERO);
            Err(PaymentError::NoLiquidity {
                available,
                requested: request.amount,
            })
        }
    }

    /// Cross-currency through the direct `dst/src` book: for each consumed
    /// offer, route `part.paid` of src from sender to the Market Maker, and
    /// `part.taken` of dst from the Market Maker to the destination.
    fn execute_direct_bridge(
        &self,
        state: &mut LedgerState,
        request: &PaymentRequest,
        src: Currency,
    ) -> Result<ExecutedPayment, PaymentError> {
        let dst = request.currency;
        let mut books = BookSet::from_ledger(state);
        let fill = books.book_mut(dst, src).fill(request.amount);
        if !fill.is_complete(request.amount) {
            return Err(PaymentError::NoLiquidity {
                available: fill.filled,
                requested: request.amount,
            });
        }
        if let Some(send_max) = request.send_max {
            if fill.paid > send_max {
                return Err(PaymentError::SendMaxExceeded {
                    cost: fill.paid,
                    send_max,
                });
            }
        }

        let mut undo = UndoLog::default();
        let mut exec_paths: Vec<Vec<AccountId>> = Vec::new();
        let mut source_cost = Value::ZERO;

        for part in &fill.parts {
            match self.route_leg(state, &mut undo, request.sender, part.owner, src, part.paid) {
                Ok(src_hops) => {
                    match self.route_leg(
                        state,
                        &mut undo,
                        part.owner,
                        request.destination,
                        dst,
                        part.taken,
                    ) {
                        Ok(dst_hops) => {
                            consume_offer(state, &mut undo, part, dst, src)?;
                            let mut hops = src_hops;
                            hops.push(part.owner);
                            hops.extend(dst_hops);
                            exec_paths.push(hops);
                            source_cost = source_cost + part.paid;
                        }
                        Err(e) => {
                            undo.rollback(state);
                            return Err(e);
                        }
                    }
                }
                Err(e) => {
                    undo.rollback(state);
                    return Err(e);
                }
            }
        }

        Ok(ExecutedPayment {
            delivered: request.amount,
            currency: dst,
            source_currency: src,
            source_cost,
            paths: exec_paths,
            cross_currency: true,
        })
    }

    /// Cross-currency through XRP: `src -> XRP -> dst` using two books.
    /// Each pairing of a dst-seller with an XRP-seller forms one path:
    /// sender →(src)→ MM₂ →(XRP)→ MM₁ →(dst)→ destination.
    fn execute_xrp_bridge(
        &self,
        state: &mut LedgerState,
        request: &PaymentRequest,
        src: Currency,
    ) -> Result<ExecutedPayment, PaymentError> {
        let dst = request.currency;
        let mut books = BookSet::from_ledger(state);
        // Leg 1: buy `amount` dst with XRP.
        let fill1 = books.book_mut(dst, Currency::XRP).fill(request.amount);
        if !fill1.is_complete(request.amount) {
            return Err(PaymentError::NoLiquidity {
                available: fill1.filled,
                requested: request.amount,
            });
        }
        // Leg 2: buy the needed XRP with src.
        let xrp_needed = fill1.paid;
        let fill2 = books.book_mut(Currency::XRP, src).fill(xrp_needed);
        if !fill2.is_complete(xrp_needed) {
            return Err(PaymentError::NoLiquidity {
                available: fill2.filled,
                requested: xrp_needed,
            });
        }
        if let Some(send_max) = request.send_max {
            if fill2.paid > send_max {
                return Err(PaymentError::SendMaxExceeded {
                    cost: fill2.paid,
                    send_max,
                });
            }
        }

        let mut undo = UndoLog::default();
        let mut exec_paths: Vec<Vec<AccountId>> = Vec::new();
        let mut source_cost = Value::ZERO;

        // Greedy pairing of leg-1 parts with leg-2 parts.
        let mut leg2 = fill2
            .parts
            .iter()
            .copied()
            .collect::<std::collections::VecDeque<_>>();
        let mut leg2_head_left = leg2.front().map(|p| p.taken).unwrap_or(Value::ZERO);

        let result: Result<(), PaymentError> = (|| {
            for part1 in &fill1.parts {
                let mut xrp_left = part1.paid;
                while xrp_left.is_positive() {
                    let Some(part2) = leg2.front().copied() else {
                        return Err(PaymentError::NoLiquidity {
                            available: Value::ZERO,
                            requested: xrp_left,
                        });
                    };
                    let take_xrp = if leg2_head_left < xrp_left {
                        leg2_head_left
                    } else {
                        xrp_left
                    };
                    // src cost proportional to XRP taken from this part.
                    let src_cost = if take_xrp == part2.taken {
                        part2.paid
                    } else {
                        // paid * take/taken, exact at micro precision.
                        Value::from_raw(
                            part2.paid.raw() * take_xrp.raw() / part2.taken.raw().max(1),
                        )
                    };
                    // sender →(src)→ MM2
                    let src_hops = self.route_leg(
                        state,
                        &mut undo,
                        request.sender,
                        part2.owner,
                        src,
                        src_cost,
                    )?;
                    // MM2 →(XRP)→ MM1
                    let drops = value_to_drops(take_xrp)?;
                    state
                        .xrp_transfer_unchecked(part2.owner, part1.owner, drops)
                        .map_err(PaymentError::from)?;
                    undo.ops.push(UndoOp::Xrp(part2.owner, part1.owner, drops));
                    // Record path (dst leg routed once per part1 below).
                    let mut hops = src_hops;
                    hops.push(part2.owner);
                    hops.push(part1.owner);
                    exec_paths.push(hops);
                    source_cost = source_cost + src_cost;
                    xrp_left = xrp_left - take_xrp;
                    leg2_head_left = leg2_head_left - take_xrp;
                    if !leg2_head_left.is_positive() {
                        consume_offer(state, &mut undo, &part2, Currency::XRP, src)?;
                        leg2.pop_front();
                        leg2_head_left = leg2.front().map(|p| p.taken).unwrap_or(Value::ZERO);
                    }
                }
                // MM1 →(dst)→ destination, and extend the last path for this
                // part with the dst-leg hops.
                let dst_hops = self.route_leg(
                    state,
                    &mut undo,
                    part1.owner,
                    request.destination,
                    dst,
                    part1.taken,
                )?;
                if let Some(last) = exec_paths.last_mut() {
                    last.extend(dst_hops);
                }
                consume_offer(state, &mut undo, part1, dst, Currency::XRP)?;
            }
            Ok(())
        })();

        match result {
            Ok(()) => Ok(ExecutedPayment {
                delivered: request.amount,
                currency: dst,
                source_currency: src,
                source_cost,
                paths: exec_paths,
                cross_currency: true,
            }),
            Err(e) => {
                undo.rollback(state);
                Err(e)
            }
        }
    }

    /// Routes `amount` of `currency` from `from` to `to`, recording undo
    /// operations. XRP moves balance-to-balance; IOUs ride trust paths.
    /// Returns the intermediate hops used (empty for XRP or direct trust).
    fn route_leg(
        &self,
        state: &mut LedgerState,
        undo: &mut UndoLog,
        from: AccountId,
        to: AccountId,
        currency: Currency,
        amount: Value,
    ) -> Result<Vec<AccountId>, PaymentError> {
        if from == to || !amount.is_positive() {
            return Ok(Vec::new());
        }
        if currency.is_xrp() {
            let drops = value_to_drops(amount)?;
            state.xrp_transfer(from, to, drops)?;
            undo.ops.push(UndoOp::Xrp(from, to, drops));
            return Ok(Vec::new());
        }
        let paths = self
            .router
            .borrow_mut()
            .route(state, from, to, currency, amount);
        let total = carried(&paths);
        if total < amount {
            return Err(PaymentError::NoPath {
                carried: total,
                requested: amount,
            });
        }
        self.apply_routed(state, undo, currency, plan_hops(from, to, &paths))?;
        Ok(paths.into_iter().flat_map(|p| p.intermediates).collect())
    }
}

/// The hops of the path `from -> intermediates -> to`, in order.
fn hops(
    from: AccountId,
    intermediates: &[AccountId],
    to: AccountId,
) -> impl Iterator<Item = (AccountId, AccountId)> + '_ {
    let starts = std::iter::once(from).chain(intermediates.iter().copied());
    starts.zip(intermediates.iter().copied().chain(std::iter::once(to)))
}

/// The `(from, to, amount)` hops of a plan from `from` to `to`, path by
/// path: every hop of a path carries the path's amount.
fn plan_hops(
    from: AccountId,
    to: AccountId,
    paths: &[FoundPath],
) -> impl Iterator<Item = (AccountId, AccountId, Value)> + '_ {
    paths
        .iter()
        .flat_map(move |path| hops(from, &path.intermediates, to).map(|(a, b)| (a, b, path.amount)))
}

/// Reduces a consumed offer's remaining amounts in the ledger (removing it
/// when exhausted), recording the undo operation.
fn consume_offer(
    state: &mut LedgerState,
    undo: &mut UndoLog,
    part: &FillPart,
    base: Currency,
    quote: Currency,
) -> Result<(), PaymentError> {
    let Some(offer) = state.offer(part.owner, part.offer_seq).copied() else {
        // Synthetic books can be built ad hoc (tests); nothing to consume.
        return Ok(());
    };
    let old_gets = offer.taker_gets;
    let old_pays = offer.taker_pays;
    let new_gets_val = offer.taker_gets.value() - part.taken;
    let new_pays_val = offer.taker_pays.value() - part.paid;
    if new_gets_val.is_positive() && new_pays_val.is_positive() {
        state.update_offer(
            part.owner,
            part.offer_seq,
            replace_value(&offer.taker_gets, new_gets_val, base),
            replace_value(&offer.taker_pays, new_pays_val, quote),
        )?;
        undo.ops.push(UndoOp::Offer {
            owner: part.owner,
            offer_seq: part.offer_seq,
            taker_gets: old_gets,
            taker_pays: old_pays,
            was_removed: false,
        });
    } else {
        state.cancel_offer(part.owner, part.offer_seq)?;
        undo.ops.push(UndoOp::Offer {
            owner: part.owner,
            offer_seq: part.offer_seq,
            taker_gets: old_gets,
            taker_pays: old_pays,
            was_removed: true,
        });
    }
    Ok(())
}

fn replace_value(template: &Amount, value: Value, currency: Currency) -> Amount {
    match template {
        Amount::Xrp(_) => match value_to_drops(value) {
            Ok(d) => Amount::Xrp(d),
            Err(_) => Amount::Xrp(Drops::ZERO),
        },
        Amount::Iou(iou) => Amount::Iou(IouAmount::new(value, currency, iou.issuer)),
    }
}

fn value_to_drops(value: Value) -> Result<Drops, PaymentError> {
    if value.is_negative() {
        return Err(PaymentError::NonPositiveAmount);
    }
    Ok(Drops::new(value.raw() as u64))
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

    fn request(sender: u8, dest: u8, currency: Currency, amount: &str) -> PaymentRequest {
        PaymentRequest {
            sender: acct(sender),
            destination: acct(dest),
            currency,
            amount: v(amount),
            source_currency: None,
            send_max: None,
        }
    }

    #[test]
    fn direct_xrp_payment() {
        let mut s = LedgerState::new();
        s.create_account(acct(1), Drops::from_xrp(100));
        s.create_account(acct(2), Drops::from_xrp(100));
        let done = PaymentEngine::new()
            .pay(&mut s, &request(1, 2, Currency::XRP, "5"))
            .unwrap();
        assert!(done.paths[0].is_empty());
        assert_eq!(s.account(&acct(2)).unwrap().balance, Drops::from_xrp(105));
    }

    #[test]
    fn multi_hop_iou_payment_moves_debt() {
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        s.set_trust(acct(2), acct(1), Currency::USD, v("10"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, v("10"))
            .unwrap();
        let done = PaymentEngine::new()
            .pay(&mut s, &request(1, 3, Currency::USD, "7"))
            .unwrap();
        assert_eq!(done.paths, vec![vec![acct(2)]]);
        assert_eq!(s.iou_balance(acct(3), acct(2), Currency::USD), v("7"));
        assert_eq!(s.iou_balance(acct(2), acct(1), Currency::USD), v("7"));
    }

    #[test]
    fn parallel_split_execution() {
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
        let done = PaymentEngine::new()
            .pay(&mut s, &request(1, 4, Currency::USD, "15"))
            .unwrap();
        assert_eq!(done.paths.len(), 2);
        assert_eq!(s.net_position(acct(4), Currency::USD), v("15"));
        assert_eq!(s.net_position(acct(1), Currency::USD), v("-15"));
        // Hubs are flat.
        assert_eq!(s.net_position(acct(2), Currency::USD), Value::ZERO);
    }

    #[test]
    fn failure_leaves_no_trace() {
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        s.set_trust(acct(2), acct(1), Currency::USD, v("10"))
            .unwrap();
        // Missing leg 2->3: payment must fail and state stay clean.
        let err = PaymentEngine::new()
            .pay(&mut s, &request(1, 3, Currency::USD, "7"))
            .unwrap_err();
        assert!(matches!(err, PaymentError::NoPath { .. }));
        assert_eq!(s.iou_balance(acct(2), acct(1), Currency::USD), Value::ZERO);
    }

    /// Everything `credit_generation` covers, in a comparable form.
    fn credit_network(s: &LedgerState) -> (Vec<String>, Vec<String>) {
        let mut lines: Vec<String> = s.trust_lines().map(|l| format!("{l:?}")).collect();
        let mut balances: Vec<String> = s.pair_balances().map(|b| format!("{b:?}")).collect();
        lines.sort();
        balances.sort();
        (lines, balances)
    }

    #[test]
    fn refused_hop_rolls_back_the_paths_before_it() {
        // Two 10-USD routes 1->2->4 and 1->3->4, and a plan whose second
        // path overdraws its route: the first path's hops must be undone.
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
        let before = credit_network(&s);
        let plan = vec![
            FoundPath {
                intermediates: vec![acct(2)],
                amount: v("5"),
            },
            FoundPath {
                intermediates: vec![acct(3)],
                amount: v("50"),
            },
        ];
        let engine = PaymentEngine::new();
        let err = engine
            .settle(&mut s, &request(1, 4, Currency::USD, "55"), plan)
            .unwrap_err();
        assert!(matches!(
            err,
            PaymentError::Ledger(LedgerError::TrustLimitExceeded { .. })
        ));
        assert_eq!(
            credit_network(&s),
            before,
            "on error the ledger is untouched"
        );
        // The engine's router saw none of it: the next payment routes on
        // the restored ledger like a fresh engine would.
        let done = engine
            .pay(&mut s, &request(1, 4, Currency::USD, "20"))
            .unwrap();
        assert_eq!(done.paths, vec![vec![acct(2)], vec![acct(3)]]);
    }

    #[test]
    fn own_payments_patch_the_router_instead_of_rebuilding_it() {
        // 1 -> 2 -> 3 with 10 USD per leg, driven back and forth so the
        // patch updates, inserts and removes edges; a fresh engine on a
        // clone is the reference for every step.
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        s.set_trust(acct(2), acct(1), Currency::USD, v("10"))
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, v("10"))
            .unwrap();
        let engine = PaymentEngine::new();
        let steps = [
            (1, 3, "4"),  // creates the debt edges 3 -> 2 and 2 -> 1
            (1, 3, "7"),  // over what is left: NoPath carrying 6
            (3, 1, "4"),  // rides the debt edges back and removes them
            (3, 1, "1"),  // which leaves nothing to ride
            (1, 3, "10"), // and the full forward capacity again
        ];
        for (from, to, amount) in steps {
            let req = request(from, to, Currency::USD, amount);
            let fresh = PaymentEngine::new().pay(&mut s.clone(), &req);
            assert_eq!(engine.pay(&mut s, &req), fresh, "{from}->{to} {amount}");
        }
        let stats = engine.router_stats();
        assert_eq!(stats.graph_builds, 1, "every later graph was patched");
        assert_eq!(stats.edges_refreshed, 3 * 2 * 2, "3 delivered x 2 hops");
        assert_eq!(stats.misses, 5);
    }

    #[test]
    fn cross_currency_via_direct_book() {
        let mut s = LedgerState::new();
        for i in 1..=4 {
            s.create_account(acct(i), Drops::from_xrp(1_000));
        }
        let (sender, mm, dest, gw) = (acct(1), acct(2), acct(3), acct(4));
        // MM accepts sender's USD via gateway gw: sender -> gw -> mm.
        s.set_trust(gw, sender, Currency::USD, v("1000")).unwrap();
        s.set_trust(mm, gw, Currency::USD, v("1000")).unwrap();
        // Destination accepts MM's EUR directly.
        s.set_trust(dest, mm, Currency::EUR, v("1000")).unwrap();
        // MM sells 500 EUR at 1.10 USD/EUR.
        s.place_offer(
            mm,
            1,
            IouAmount::new(v("500"), Currency::EUR, mm).into(),
            IouAmount::new(v("550"), Currency::USD, mm).into(),
        )
        .unwrap();

        let req = PaymentRequest {
            sender,
            destination: dest,
            currency: Currency::EUR,
            amount: v("100"),
            source_currency: Some(Currency::USD),
            send_max: None,
        };
        let done = PaymentEngine::new().pay(&mut s, &req).unwrap();
        assert!(done.cross_currency);
        assert_eq!(done.source_cost, v("110"));
        // Path includes the gateway and the Market Maker as intermediates.
        assert_eq!(done.paths, vec![vec![gw, mm]]);
        assert_eq!(s.iou_balance(dest, mm, Currency::EUR), v("100"));
        // Offer shrank.
        let offer = s.offer(mm, 1).unwrap();
        assert_eq!(offer.taker_gets.value(), v("400"));
    }

    #[test]
    fn cross_currency_fails_without_offers_and_rolls_back() {
        let mut s = LedgerState::new();
        for i in 1..=3 {
            s.create_account(acct(i), Drops::from_xrp(100));
        }
        s.set_trust(acct(2), acct(1), Currency::USD, v("100"))
            .unwrap();
        let req = PaymentRequest {
            sender: acct(1),
            destination: acct(3),
            currency: Currency::EUR,
            amount: v("10"),
            source_currency: Some(Currency::USD),
            send_max: None,
        };
        let err = PaymentEngine::new().pay(&mut s, &req).unwrap_err();
        assert!(matches!(err, PaymentError::NoLiquidity { .. }));
        assert_eq!(s.net_position(acct(1), Currency::USD), Value::ZERO);
    }

    #[test]
    fn xrp_bridge_chains_two_makers() {
        let mut s = LedgerState::new();
        for i in 1..=5 {
            s.create_account(acct(i), Drops::from_xrp(10_000));
        }
        let (sender, mm_xrp, mm_eur, dest) = (acct(1), acct(2), acct(3), acct(4));
        // mm_xrp sells XRP for USD (trusts sender's USD directly).
        s.set_trust(mm_xrp, sender, Currency::USD, v("100000"))
            .unwrap();
        s.place_offer(
            mm_xrp,
            1,
            Amount::Xrp(Drops::from_xrp(1_000)),
            IouAmount::new(v("300"), Currency::USD, mm_xrp).into(),
        )
        .unwrap();
        // mm_eur sells EUR for XRP; dest trusts mm_eur's EUR.
        s.set_trust(dest, mm_eur, Currency::EUR, v("100000"))
            .unwrap();
        s.place_offer(
            mm_eur,
            1,
            IouAmount::new(v("200"), Currency::EUR, mm_eur).into(),
            Amount::Xrp(Drops::from_xrp(800)),
        )
        .unwrap();
        // No direct EUR/USD book: must bridge through XRP.
        let req = PaymentRequest {
            sender,
            destination: dest,
            currency: Currency::EUR,
            amount: v("50"),
            source_currency: Some(Currency::USD),
            send_max: None,
        };
        let done = PaymentEngine::new().pay(&mut s, &req).unwrap();
        assert!(done.cross_currency);
        // 50 EUR costs 200 XRP (4 XRP/EUR), which costs 60 USD (0.3 USD/XRP).
        assert_eq!(done.source_cost, v("60"));
        assert_eq!(s.iou_balance(dest, mm_eur, Currency::EUR), v("50"));
        // Both makers appear as intermediates.
        assert!(done.paths[0].contains(&mm_xrp));
        assert!(done.paths[0].contains(&mm_eur));
    }

    #[test]
    fn send_max_caps_bridge_cost() {
        let mut s = LedgerState::new();
        for i in 1..=4 {
            s.create_account(acct(i), Drops::from_xrp(1_000));
        }
        let (sender, mm, dest, gw) = (acct(1), acct(2), acct(3), acct(4));
        s.set_trust(gw, sender, Currency::USD, v("1000")).unwrap();
        s.set_trust(mm, gw, Currency::USD, v("1000")).unwrap();
        s.set_trust(dest, mm, Currency::EUR, v("1000")).unwrap();
        s.place_offer(
            mm,
            1,
            IouAmount::new(v("500"), Currency::EUR, mm).into(),
            IouAmount::new(v("550"), Currency::USD, mm).into(),
        )
        .unwrap();
        let mut req = PaymentRequest {
            sender,
            destination: dest,
            currency: Currency::EUR,
            amount: v("100"),
            source_currency: Some(Currency::USD),
            send_max: Some(v("105")), // 100 EUR costs 110 USD: too dear
        };
        let err = PaymentEngine::new().pay(&mut s, &req).unwrap_err();
        assert!(matches!(err, PaymentError::SendMaxExceeded { .. }));
        assert_eq!(
            s.offer(mm, 1).unwrap().taker_gets.value(),
            v("500"),
            "untouched"
        );
        // A workable cap goes through.
        req.send_max = Some(v("110"));
        let done = PaymentEngine::new().pay(&mut s, &req).unwrap();
        assert_eq!(done.source_cost, v("110"));
    }

    #[test]
    fn send_max_below_amount_fails_same_currency() {
        let mut s = LedgerState::new();
        s.create_account(acct(1), Drops::from_xrp(100));
        s.create_account(acct(2), Drops::from_xrp(100));
        s.set_trust(acct(2), acct(1), Currency::USD, v("100"))
            .unwrap();
        let req = PaymentRequest {
            sender: acct(1),
            destination: acct(2),
            currency: Currency::USD,
            amount: v("50"),
            source_currency: None,
            send_max: Some(v("40")),
        };
        assert!(matches!(
            PaymentEngine::new().pay(&mut s, &req),
            Err(PaymentError::SendMaxExceeded { .. })
        ));
    }

    #[test]
    fn self_payment_and_zero_amount_rejected() {
        let mut s = LedgerState::new();
        s.create_account(acct(1), Drops::from_xrp(100));
        let engine = PaymentEngine::new();
        assert!(matches!(
            engine.pay(&mut s, &request(1, 1, Currency::XRP, "1")),
            Err(PaymentError::SelfPayment)
        ));
        assert!(matches!(
            engine.pay(&mut s, &request(1, 1, Currency::XRP, "0")),
            Err(PaymentError::NonPositiveAmount)
        ));
    }
}
