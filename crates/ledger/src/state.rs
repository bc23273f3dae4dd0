//! The mutable ledger state: accounts, trust lines, IOU balances and offers.
//!
//! Trust-line semantics follow the paper's §III.B: "if user Alice trusts Bob
//! for 10 USD, this means that Alice is willing to give Bob credit for up to
//! 10 USD. […] the trust-line of 10 USD from Alice to Bob limits IOU
//! transactions in the opposite direction (from Bob to Alice) to 10 USD."
//!
//! Each credit relationship is stored once per unordered account pair and
//! currency, as the real ledger's `RippleState` object is: the
//! lexicographically lower account's limit, the higher account's limit, and
//! one balance signed from the lower account's point of view, which nets
//! mutual debt automatically ([`RippleState`]). A hop, a trust write and a
//! balance move each read or write that one record.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::amount::{Amount, Drops, Value};
use crate::currency::Currency;
use crate::fees::FeeSchedule;
use crate::tx::{Transaction, TxKind, TxResult};
use ripple_crypto::{AccountId, FxHashMap, FxHashSet};

/// Per-account ledger entry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccountRoot {
    /// XRP balance in drops.
    pub balance: Drops,
    /// Next expected transaction sequence number.
    pub sequence: u32,
    /// Number of owned objects (trust lines declared + live offers),
    /// which scales the reserve requirement.
    pub owner_count: u32,
}

/// A declared trust line: `truster` accepts up to `limit` of `trustee`'s
/// IOUs in `currency`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrustLine {
    /// The account extending trust.
    pub truster: AccountId,
    /// The account being trusted (whose IOUs are accepted).
    pub trustee: AccountId,
    /// The trusted currency.
    pub currency: Currency,
    /// Maximum exposure.
    pub limit: Value,
}

/// One credit relationship in one currency, the real ledger's
/// `RippleState`: the accounts are ordered, `low < high`, except on a
/// self-pair, whose one line is `low_limit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RippleState {
    /// The lexicographically lower account.
    pub low: AccountId,
    /// The lexicographically higher account.
    pub high: AccountId,
    /// The currency.
    pub currency: Currency,
    /// `low`'s trust in `high` (zero: no line).
    pub low_limit: Value,
    /// `high`'s trust in `low` (zero: no line).
    pub high_limit: Value,
    /// The amount `high` owes `low` (negative: `low` owes `high`).
    pub balance: Value,
}

/// A live currency-exchange offer resting in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Offer {
    /// The account that placed the offer (the Market Maker, typically).
    pub owner: AccountId,
    /// Sequence number of the creating transaction (offer identity).
    pub offer_seq: u32,
    /// Remaining amount the owner gives.
    pub taker_gets: Amount,
    /// Remaining amount the owner wants.
    pub taker_pays: Amount,
}

/// Errors from ledger mutations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LedgerError {
    /// The referenced account does not exist.
    NoSuchAccount(AccountId),
    /// Attempt to create an account that already exists.
    AccountExists(AccountId),
    /// Transaction sequence number mismatch.
    BadSequence {
        /// Sequence the account root expects next.
        expected: u32,
        /// Sequence the transaction carried.
        got: u32,
    },
    /// The account cannot pay the fee (or would dip below its reserve).
    InsufficientXrp {
        /// Account whose balance fell short.
        account: AccountId,
        /// XRP needed.
        needed: Drops,
        /// XRP available above the reserve.
        available: Drops,
    },
    /// A rippling hop exceeded the receiving trust line's capacity.
    TrustLimitExceeded {
        /// The hop's paying account.
        from: AccountId,
        /// The hop's receiving account.
        to: AccountId,
        /// Capacity that was actually available.
        capacity: Value,
        /// Amount requested.
        requested: Value,
    },
    /// Payments to oneself are rejected.
    SelfPayment,
    /// Zero or negative amounts are rejected.
    NonPositiveAmount,
    /// XRP cannot ride trust lines.
    XrpOnTrustLine,
    /// The referenced offer does not exist.
    NoSuchOffer {
        /// Offer owner.
        owner: AccountId,
        /// Offer sequence.
        offer_seq: u32,
    },
    /// Trust limits cannot be negative.
    NegativeLimit,
    /// The offered fee is below the network's base fee.
    FeeTooLow {
        /// Fee the transaction offered.
        fee: Drops,
        /// Minimum fee the schedule demands.
        minimum: Drops,
    },
    /// An IOU payment carried more than one path; only single-path payments
    /// execute here (richer routing lives in the payment engine crate).
    MultiPathUnsupported {
        /// Number of paths the transaction carried.
        paths: usize,
    },
    /// A payment's chain visits an account twice (rippled's
    /// `temBAD_PATH_LOOP`): its hops would share a pair, and each is
    /// validated against the state before any of them moves.
    PathLoop {
        /// The first account the chain reaches a second time.
        account: AccountId,
    },
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::NoSuchAccount(a) => write!(f, "account {} does not exist", a.short()),
            LedgerError::AccountExists(a) => write!(f, "account {} already exists", a.short()),
            LedgerError::BadSequence { expected, got } => {
                write!(f, "bad sequence: expected {expected}, got {got}")
            }
            LedgerError::InsufficientXrp {
                account,
                needed,
                available,
            } => write!(
                f,
                "account {} needs {needed} but only {available} is spendable",
                account.short()
            ),
            LedgerError::TrustLimitExceeded {
                from,
                to,
                capacity,
                requested,
            } => write!(
                f,
                "hop {}->{} can carry {capacity} but {requested} was requested",
                from.short(),
                to.short()
            ),
            LedgerError::SelfPayment => write!(f, "sender and destination are the same account"),
            LedgerError::NonPositiveAmount => write!(f, "amount must be strictly positive"),
            LedgerError::XrpOnTrustLine => write!(f, "XRP cannot be carried on a trust line"),
            LedgerError::NoSuchOffer { owner, offer_seq } => {
                write!(f, "offer {}#{offer_seq} does not exist", owner.short())
            }
            LedgerError::NegativeLimit => write!(f, "trust limits cannot be negative"),
            LedgerError::FeeTooLow { fee, minimum } => {
                write!(f, "fee {fee} is below the base fee {minimum}")
            }
            LedgerError::MultiPathUnsupported { paths } => {
                write!(f, "payment carried {paths} paths but only one is supported")
            }
            LedgerError::PathLoop { account } => {
                write!(f, "payment path visits {} twice", account.short())
            }
        }
    }
}

impl std::error::Error for LedgerError {}

/// Key for credit relationships: the unordered `(low, high)` account pair
/// plus currency, and whether `a` is the higher account.
fn pair_key(
    a: AccountId,
    b: AccountId,
    currency: Currency,
) -> ((AccountId, AccountId, Currency), bool) {
    if a <= b {
        ((a, b, currency), false)
    } else {
        ((b, a, currency), true)
    }
}

/// A rippling hop `from -> to` in one currency, with its record key
/// ordered once: a caller that moves IOUs over the same hop many times
/// builds it once and hands it to [`LedgerState::try_ripple`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// The record key `(low, high, currency)`.
    key: (AccountId, AccountId, Currency),
    /// Whether `to` is the record's higher account.
    to_high: bool,
}

impl Hop {
    /// The hop on which `from` pays `to` IOUs in `currency`.
    pub fn new(from: AccountId, to: AccountId, currency: Currency) -> Hop {
        let (key, to_high) = pair_key(to, from, currency);
        Hop { key, to_high }
    }

    /// The paying account.
    pub fn from(&self) -> AccountId {
        if self.to_high {
            self.key.0
        } else {
            self.key.1
        }
    }

    /// The receiving account.
    pub fn to(&self) -> AccountId {
        if self.to_high {
            self.key.1
        } else {
            self.key.0
        }
    }

    /// The hop's currency.
    pub fn currency(&self) -> Currency {
        self.key.2
    }
}

/// Number of internal state shards. Power of two so the shard index is a
/// single mask of the account's first byte.
const SHARD_COUNT: usize = 16;

/// Maps an account to the shard that owns its root, its offers, and (as the
/// lexicographically-low party) its credit relationships.
#[inline]
fn shard_of(id: &AccountId) -> usize {
    (id.as_bytes()[0] as usize) & (SHARD_COUNT - 1)
}

/// The stored part of a [`RippleState`]: what its key does not say.
#[derive(Debug, Clone, Copy, Default)]
struct Relation {
    low_limit: Value,
    high_limit: Value,
    balance: Value,
}

impl Relation {
    /// No line either way and no debt: the record goes.
    fn is_empty(&self) -> bool {
        self.low_limit.is_zero() && self.high_limit.is_zero() && self.balance.is_zero()
    }
}

/// One partition of the ledger's keyed state. Every map is owned by the
/// shard of its *first* key component: account roots by the account,
/// credit relationships by the lexicographically-low party, offers by their
/// owner. No output digest observes the resulting iteration order: a
/// one-map layout left all five benchmark digests unchanged. The split
/// stays for memory. Sixteen small tables grow and clone in small steps
/// where one table doubles all at once, and the one map raised peak RSS by
/// ~5 % on `history_build` and ~8–10 % on `credit_probe`.
#[derive(Debug, Clone, Default)]
struct Shard {
    accounts: FxHashMap<AccountId, AccountRoot>,
    /// Credit relationships: `(low, high, currency) -> both limits and the
    /// amount high owes low`. A record with all three zero is removed.
    ripple: FxHashMap<(AccountId, AccountId, Currency), Relation>,
    /// Live offers, ordered by `(owner, offer_seq)`.
    offers: BTreeMap<(AccountId, u32), Offer>,
}

/// Process-unique identity of one [`LedgerState`] value. `Clone` hands out
/// a fresh id instead of copying, so a state and its clone — which start
/// with equal [`LedgerState::credit_generation`]s and may diverge to equal
/// ones again — never share a `(lineage, generation)` stamp.
#[derive(Debug)]
struct Lineage(u64);

impl Lineage {
    fn fresh() -> Lineage {
        // Relaxed: the counter publishes no other data; the atomic
        // read-modify-write alone makes every id distinct.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Lineage(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for Lineage {
    fn clone(&self) -> Lineage {
        Lineage::fresh()
    }
}

/// The full mutable ledger state, partitioned into 16 shards by account
/// owner.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct LedgerState {
    shards: Vec<Shard>,
    /// Fee schedule enforced on `apply`.
    fees: FeeSchedule,
    /// Total XRP burned so far.
    burned: Drops,
    /// Monotone counter bumped by every mutation that can change IOU
    /// routing capacity (trust-line writes, pair-balance adjustments,
    /// account severing). Path caches stamp their entries with this and
    /// treat a mismatch as an invalidation.
    credit_generation: u64,
    /// Which state value this is; see [`LedgerState::lineage`].
    lineage: Lineage,
}

impl Default for LedgerState {
    fn default() -> LedgerState {
        LedgerState {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            fees: FeeSchedule::default(),
            burned: Drops::ZERO,
            credit_generation: 0,
            lineage: Lineage::fresh(),
        }
    }
}

/// Global-order iterator over all live offers: a k-way merge of the
/// per-shard `(owner, offer_seq)`-ordered maps, preserving the exact
/// ordering consumers such as the order-book builder rely on.
pub struct Offers<'a> {
    heads:
        Vec<std::iter::Peekable<std::collections::btree_map::Values<'a, (AccountId, u32), Offer>>>,
}

impl<'a> Iterator for Offers<'a> {
    type Item = &'a Offer;

    fn next(&mut self) -> Option<&'a Offer> {
        let mut best: Option<(usize, (AccountId, u32))> = None;
        for (i, head) in self.heads.iter_mut().enumerate() {
            if let Some(offer) = head.peek() {
                let key = (offer.owner, offer.offer_seq);
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((i, key));
                }
            }
        }
        best.and_then(|(i, _)| self.heads[i].next())
    }
}

impl LedgerState {
    #[inline]
    fn shard(&self, id: &AccountId) -> &Shard {
        &self.shards[shard_of(id)]
    }

    #[inline]
    fn shard_mut(&mut self, id: &AccountId) -> &mut Shard {
        &mut self.shards[shard_of(id)]
    }

    #[inline]
    fn account_mut(&mut self, id: &AccountId) -> Option<&mut AccountRoot> {
        self.shards[shard_of(id)].accounts.get_mut(id)
    }

    /// Creates an empty state with the main-net fee schedule.
    pub fn new() -> LedgerState {
        LedgerState::with_fees(FeeSchedule::mainnet())
    }

    /// Creates an empty state with a custom fee schedule.
    fn with_fees(fees: FeeSchedule) -> LedgerState {
        LedgerState {
            fees,
            ..LedgerState::default()
        }
    }

    /// Total XRP burned by applied transactions.
    pub fn total_burned(&self) -> Drops {
        self.burned
    }

    /// The credit-network generation: bumped by every mutation that can
    /// change IOU routing capacity ([`LedgerState::set_trust`],
    /// [`LedgerState::adjust_pair_balance`], a hop that
    /// [`LedgerState::try_ripple`] carries — and therefore
    /// [`LedgerState::ripple_hop`] and IOU payments under
    /// [`LedgerState::apply`] — and [`LedgerState::sever_accounts`]).
    /// XRP transfers and offer bookkeeping leave it untouched. Routers
    /// stamp cached paths with `(lineage, credit_generation)` and discard
    /// entries whose stamp no longer matches.
    pub fn credit_generation(&self) -> u64 {
        self.credit_generation
    }

    /// A process-unique id of this state value: every new state and every
    /// `clone` gets a fresh one, so two states whose
    /// [`LedgerState::credit_generation`]s coincide are still told apart.
    /// Equal `(lineage, credit_generation)` pairs imply equal credit
    /// networks.
    pub fn lineage(&self) -> u64 {
        self.lineage.0
    }

    /// Number of accounts.
    pub fn account_count(&self) -> usize {
        self.shards.iter().map(|s| s.accounts.len()).sum()
    }

    /// Looks up an account root.
    pub fn account(&self, id: &AccountId) -> Option<&AccountRoot> {
        self.shard(id).accounts.get(id)
    }

    /// Iterates over all accounts.
    pub fn accounts(&self) -> impl Iterator<Item = (&AccountId, &AccountRoot)> {
        self.shards.iter().flat_map(|s| s.accounts.iter())
    }

    /// Creates an account funded with `balance` XRP.
    ///
    /// # Panics
    ///
    /// Panics if the account already exists — account creation is driven by
    /// generators which guarantee fresh identifiers.
    pub fn create_account(&mut self, id: AccountId, balance: Drops) {
        let prev = self.shard_mut(&id).accounts.insert(
            id,
            AccountRoot {
                balance,
                sequence: 1,
                owner_count: 0,
            },
        );
        assert!(prev.is_none(), "account {id} already exists");
    }

    /// Declares (or updates) `truster`'s trust towards `trustee`.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::NoSuchAccount`] if either party is missing.
    /// * [`LedgerError::XrpOnTrustLine`] for the native currency.
    /// * [`LedgerError::NegativeLimit`] for negative limits.
    pub fn set_trust(
        &mut self,
        truster: AccountId,
        trustee: AccountId,
        currency: Currency,
        limit: Value,
    ) -> Result<(), LedgerError> {
        if currency.is_xrp() {
            return Err(LedgerError::XrpOnTrustLine);
        }
        if limit.is_negative() {
            return Err(LedgerError::NegativeLimit);
        }
        if self.account(&trustee).is_none() {
            return Err(LedgerError::NoSuchAccount(trustee));
        }
        if self.account(&truster).is_none() {
            return Err(LedgerError::NoSuchAccount(truster));
        }
        // The record lives in the low party's shard, the truster's root in
        // its own: write the record, then move the owner count.
        let existed = self.edit(truster, trustee, currency, |record, flipped| {
            let slot = if flipped {
                &mut record.high_limit
            } else {
                &mut record.low_limit
            };
            !std::mem::replace(slot, limit).is_zero()
        });
        if let Some(root) = self.account_mut(&truster) {
            if limit.is_zero() && existed {
                root.owner_count = root.owner_count.saturating_sub(1);
            } else if !limit.is_zero() && !existed {
                root.owner_count += 1;
            }
        }
        self.credit_generation += 1;
        Ok(())
    }

    /// Edits the record of the pair `(a, b)` in `currency`, given with
    /// whether `a` is its higher account; a record left empty goes.
    fn edit<T>(
        &mut self,
        a: AccountId,
        b: AccountId,
        currency: Currency,
        edit: impl FnOnce(&mut Relation, bool) -> T,
    ) -> T {
        let (key, flipped) = pair_key(a, b, currency);
        let ripple = &mut self.shards[shard_of(&key.0)].ripple;
        let record = ripple.entry(key).or_default();
        let out = edit(record, flipped);
        if record.is_empty() {
            ripple.remove(&key);
        }
        out
    }

    /// `a`'s side of its relationship with `b` in `currency`: `a`'s trust
    /// in `b` and `a`'s claim on `b`, one record read.
    fn side(&self, a: AccountId, b: AccountId, currency: Currency) -> (Value, Value) {
        let (key, flipped) = pair_key(a, b, currency);
        let record = self.shard(&key.0).ripple.get(&key);
        let record = record.copied().unwrap_or_default();
        if flipped {
            (record.high_limit, -record.balance)
        } else {
            (record.low_limit, record.balance)
        }
    }

    /// The declared trust limit from `truster` towards `trustee` (zero if no
    /// line exists).
    pub fn trust_limit(&self, truster: AccountId, trustee: AccountId, currency: Currency) -> Value {
        self.side(truster, trustee, currency).0
    }

    /// Every stored record with its key.
    fn records(&self) -> impl Iterator<Item = (&(AccountId, AccountId, Currency), &Relation)> {
        self.shards.iter().flat_map(|s| s.ripple.iter())
    }

    /// Iterates over every credit relationship: one record per account pair
    /// and currency with a line either way or a non-zero balance.
    pub fn ripple_states(&self) -> impl Iterator<Item = RippleState> + '_ {
        self.records()
            .map(|(&(low, high, currency), record)| RippleState {
                low,
                high,
                currency,
                low_limit: record.low_limit,
                high_limit: record.high_limit,
                balance: record.balance,
            })
    }

    /// Iterates over all non-zero pair balances as
    /// `(low, high, currency, amount-high-owes-low)`.
    pub fn pair_balances(
        &self,
    ) -> impl Iterator<Item = (AccountId, AccountId, Currency, Value)> + '_ {
        self.records()
            .filter_map(|(&(low, high, currency), record)| {
                (!record.balance.is_zero()).then_some((low, high, currency, record.balance))
            })
    }

    /// Iterates over all trust lines: a record's low line, then its high
    /// line.
    pub fn trust_lines(&self) -> impl Iterator<Item = TrustLine> + '_ {
        self.records().flat_map(|(&(low, high, currency), record)| {
            let line = |truster, trustee, limit: Value| {
                (!limit.is_zero()).then_some(TrustLine {
                    truster,
                    trustee,
                    currency,
                    limit,
                })
            };
            line(low, high, record.low_limit)
                .into_iter()
                .chain(line(high, low, record.high_limit))
        })
    }

    /// How much of `counterparty`'s debt `holder` currently holds (negative
    /// if `holder` is the one in debt).
    pub fn iou_balance(
        &self,
        holder: AccountId,
        counterparty: AccountId,
        currency: Currency,
    ) -> Value {
        self.side(holder, counterparty, currency).1
    }

    /// Net position of `account` in `currency`: sum of all pair balances
    /// (positive = the system owes the account; negative = the account owes).
    pub fn net_position(&self, account: AccountId, currency: Currency) -> Value {
        let mut total = Value::ZERO;
        for r in self.ripple_states() {
            if r.currency != currency {
                continue;
            }
            if r.low == account {
                total = total + r.balance;
            } else if r.high == account {
                total = total - r.balance;
            }
        }
        total
    }

    /// Capacity of the rippling hop `from -> to`: how much more IOU value
    /// `from` can push to `to` in `currency`, given `to`'s declared trust in
    /// `from` and the current pair balance (existing debt of `to` towards
    /// `from` nets first).
    pub fn hop_capacity(&self, from: AccountId, to: AccountId, currency: Currency) -> Value {
        // `to` can accept IOUs until its claim on `from` reaches its limit.
        let (limit, held) = self.side(to, from, currency);
        limit - held
    }

    /// Executes one rippling hop: `from` pays `to` the given IOU `amount`
    /// (i.e. `to`'s claim on `from` grows by `amount`).
    ///
    /// # Errors
    ///
    /// * [`LedgerError::NonPositiveAmount`] for zero/negative amounts.
    /// * [`LedgerError::XrpOnTrustLine`] for the native currency.
    /// * [`LedgerError::NoSuchAccount`] if either party is missing.
    /// * [`LedgerError::TrustLimitExceeded`] if capacity is insufficient.
    pub fn ripple_hop(
        &mut self,
        from: AccountId,
        to: AccountId,
        currency: Currency,
        amount: Value,
    ) -> Result<(), LedgerError> {
        if currency.is_xrp() {
            return Err(LedgerError::XrpOnTrustLine);
        }
        if !amount.is_positive() {
            return Err(LedgerError::NonPositiveAmount);
        }
        if from == to {
            return Err(LedgerError::SelfPayment);
        }
        if self.account(&from).is_none() {
            return Err(LedgerError::NoSuchAccount(from));
        }
        if self.account(&to).is_none() {
            return Err(LedgerError::NoSuchAccount(to));
        }
        self.try_ripple(&Hop::new(from, to, currency), amount)
            .map_err(|capacity| LedgerError::TrustLimitExceeded {
                from,
                to,
                capacity,
                requested: amount,
            })
    }

    /// Moves `amount` over `hop` if it fits the hop's capacity, with one
    /// probe of the record: the same writes as
    /// [`LedgerState::hop_capacity`] followed by
    /// [`LedgerState::adjust_pair_balance`], for every amount.
    ///
    /// # Errors
    ///
    /// The hop's capacity when `amount` exceeds it; nothing is written.
    pub fn try_ripple(&mut self, hop: &Hop, amount: Value) -> Result<(), Value> {
        let ripple = &mut self.shards[shard_of(&hop.key.0)].ripple;
        let Some(record) = ripple.get_mut(&hop.key) else {
            // No record: no line either way and no debt.
            if Value::ZERO < amount {
                return Err(Value::ZERO);
            }
            self.adjust_pair_balance(hop.to(), hop.from(), hop.currency(), amount);
            return Ok(());
        };
        // `to`'s side of the record, as `hop_capacity` reads it.
        let (limit, held) = if hop.to_high {
            (record.high_limit, -record.balance)
        } else {
            (record.low_limit, record.balance)
        };
        let capacity = limit - held;
        if capacity < amount {
            return Err(capacity);
        }
        record.balance = if hop.to_high {
            record.balance - amount
        } else {
            record.balance + amount
        };
        if record.is_empty() {
            ripple.remove(&hop.key);
        }
        self.credit_generation += 1;
        Ok(())
    }

    /// Adjusts the pair balance so that `holder`'s claim on `counterparty`
    /// grows by `delta` (no capacity checks — internal primitive also used by
    /// the payment engine after it has validated a full path).
    pub fn adjust_pair_balance(
        &mut self,
        holder: AccountId,
        counterparty: AccountId,
        currency: Currency,
        delta: Value,
    ) {
        self.edit(holder, counterparty, currency, |record, flipped| {
            record.balance = if flipped {
                record.balance - delta
            } else {
                record.balance + delta
            };
        });
        self.credit_generation += 1;
    }

    /// Transfers XRP between accounts, enforcing the sender's reserve.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::NonPositiveAmount`], [`LedgerError::SelfPayment`].
    /// * [`LedgerError::NoSuchAccount`] if either party is missing.
    /// * [`LedgerError::InsufficientXrp`] if the sender would dip below its
    ///   reserve.
    pub fn xrp_transfer(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: Drops,
    ) -> Result<(), LedgerError> {
        if amount == Drops::ZERO {
            return Err(LedgerError::NonPositiveAmount);
        }
        if from == to {
            return Err(LedgerError::SelfPayment);
        }
        if self.account(&to).is_none() {
            return Err(LedgerError::NoSuchAccount(to));
        }
        let reserve = {
            let root = self
                .account(&from)
                .ok_or(LedgerError::NoSuchAccount(from))?;
            self.fees.reserve_for(root.owner_count)
        };
        let root = self
            .account_mut(&from)
            .ok_or(LedgerError::NoSuchAccount(from))?;
        let spendable = root.balance.checked_sub(reserve).unwrap_or(Drops::ZERO);
        if amount > spendable {
            return Err(LedgerError::InsufficientXrp {
                account: from,
                needed: amount,
                available: spendable,
            });
        }
        root.balance = root.balance.checked_sub(amount).expect("checked above");
        let to_root = self.account_mut(&to).expect("checked above");
        to_root.balance = to_root
            .balance
            .checked_add(amount)
            .expect("XRP supply fits in u64");
        Ok(())
    }

    /// Transfers XRP without enforcing the sender's reserve (the balance
    /// itself must still cover the amount). Used by the payment engine for
    /// maker-to-maker bridge legs and for rollback, where re-checking the
    /// reserve could wedge an undo of funds that just moved.
    ///
    /// # Errors
    ///
    /// * [`LedgerError::NonPositiveAmount`], [`LedgerError::SelfPayment`].
    /// * [`LedgerError::NoSuchAccount`] if either party is missing.
    /// * [`LedgerError::InsufficientXrp`] if the sender's full balance is
    ///   short.
    pub fn xrp_transfer_unchecked(
        &mut self,
        from: AccountId,
        to: AccountId,
        amount: Drops,
    ) -> Result<(), LedgerError> {
        if amount == Drops::ZERO {
            return Err(LedgerError::NonPositiveAmount);
        }
        if from == to {
            return Err(LedgerError::SelfPayment);
        }
        if self.account(&to).is_none() {
            return Err(LedgerError::NoSuchAccount(to));
        }
        let root = self
            .account_mut(&from)
            .ok_or(LedgerError::NoSuchAccount(from))?;
        let new_balance = root.balance.checked_sub(amount).ok_or({
            LedgerError::InsufficientXrp {
                account: from,
                needed: amount,
                available: root.balance,
            }
        })?;
        root.balance = new_balance;
        let to_root = self.account_mut(&to).expect("checked above");
        to_root.balance = to_root
            .balance
            .checked_add(amount)
            .expect("XRP supply fits in u64");
        Ok(())
    }

    /// Places an offer owned by `owner` with the creating sequence number.
    ///
    /// # Errors
    ///
    /// [`LedgerError::NoSuchAccount`] if the owner is missing.
    pub fn place_offer(
        &mut self,
        owner: AccountId,
        offer_seq: u32,
        taker_gets: Amount,
        taker_pays: Amount,
    ) -> Result<(), LedgerError> {
        let shard = &mut self.shards[shard_of(&owner)];
        let root = shard
            .accounts
            .get_mut(&owner)
            .ok_or(LedgerError::NoSuchAccount(owner))?;
        root.owner_count += 1;
        shard.offers.insert(
            (owner, offer_seq),
            Offer {
                owner,
                offer_seq,
                taker_gets,
                taker_pays,
            },
        );
        Ok(())
    }

    /// Removes an offer.
    ///
    /// # Errors
    ///
    /// [`LedgerError::NoSuchOffer`] if absent.
    pub fn cancel_offer(&mut self, owner: AccountId, offer_seq: u32) -> Result<Offer, LedgerError> {
        let shard = &mut self.shards[shard_of(&owner)];
        let offer = shard
            .offers
            .remove(&(owner, offer_seq))
            .ok_or(LedgerError::NoSuchOffer { owner, offer_seq })?;
        if let Some(root) = shard.accounts.get_mut(&owner) {
            root.owner_count = root.owner_count.saturating_sub(1);
        }
        Ok(offer)
    }

    /// Replaces the remaining amounts of a live offer (used by the matching
    /// engine for partial fills).
    ///
    /// # Errors
    ///
    /// [`LedgerError::NoSuchOffer`] if absent.
    pub fn update_offer(
        &mut self,
        owner: AccountId,
        offer_seq: u32,
        taker_gets: Amount,
        taker_pays: Amount,
    ) -> Result<(), LedgerError> {
        let offer = self
            .shard_mut(&owner)
            .offers
            .get_mut(&(owner, offer_seq))
            .ok_or(LedgerError::NoSuchOffer { owner, offer_seq })?;
        offer.taker_gets = taker_gets;
        offer.taker_pays = taker_pays;
        Ok(())
    }

    /// Looks up a live offer.
    pub fn offer(&self, owner: AccountId, offer_seq: u32) -> Option<&Offer> {
        self.shard(&owner).offers.get(&(owner, offer_seq))
    }

    /// Iterates over all live offers in global `(owner, offer_seq)` order.
    pub fn offers(&self) -> Offers<'_> {
        Offers {
            heads: self
                .shards
                .iter()
                .map(|s| s.offers.values().peekable())
                .collect(),
        }
    }

    /// Removes **all** offers from the ledger — the paper's Table II
    /// experiment: "we remove them [Market Makers] and the exchange orders
    /// from the system and replay the extracted payments on the modified
    /// trust network".
    pub fn strip_all_offers(&mut self) -> usize {
        let mut n = 0;
        for shard in &mut self.shards {
            n += shard.offers.len();
            let owners: Vec<AccountId> = shard.offers.values().map(|o| o.owner).collect();
            shard.offers.clear();
            // Offers live in their owner's shard, so the root is local.
            for owner in owners {
                if let Some(root) = shard.accounts.get_mut(&owner) {
                    root.owner_count = root.owner_count.saturating_sub(1);
                }
            }
        }
        n
    }

    /// Disconnects one account from the credit network:
    /// [`LedgerState::sever_accounts`] of a one-account set.
    pub fn sever_account(&mut self, account: AccountId) {
        self.sever_accounts(&[account]);
    }

    /// Disconnects a set of accounts from the credit network: removes every
    /// credit relationship one of them is party to, each trust line in it
    /// releasing one owner-count slot of its truster. The accounts
    /// themselves and their XRP balances survive. One scan of the records
    /// serves the whole set, and the outcome is the same as severing its
    /// members one at a time, in any order; duplicates are harmless.
    /// [`LedgerState::credit_generation`] moves once per call.
    ///
    /// This models the paper's Table II attack analysis ("by taking over or
    /// thwarting the functionality of a very small number of users […] an
    /// attacker could control or block" traffic): severed accounts can no
    /// longer forward IOU payments.
    pub fn sever_accounts(&mut self, accounts: &[AccountId]) {
        let severed: FxHashSet<AccountId> = accounts.iter().copied().collect();
        // A truster's root may sit in another shard than the record, so the
        // released slots are collected first and returned after the scan.
        let mut released: Vec<AccountId> = Vec::new();
        for shard in &mut self.shards {
            shard.ripple.retain(|&(low, high, _), record| {
                if !severed.contains(&low) && !severed.contains(&high) {
                    return true;
                }
                for (truster, limit) in [(low, record.low_limit), (high, record.high_limit)] {
                    if !limit.is_zero() {
                        released.push(truster);
                    }
                }
                false
            });
        }
        for truster in released {
            if let Some(root) = self.account_mut(&truster) {
                root.owner_count = root.owner_count.saturating_sub(1);
            }
        }
        self.credit_generation += 1;
    }

    /// Validates and applies a signed transaction: sequence and fee checks,
    /// then the kind-specific effect. The signature is not verified: the
    /// study replays generated histories whose signers it controls, and the
    /// differential checker signs its whole cast with one key. Multi-hop payments must
    /// carry explicit paths; each path hop is executed with capacity checks
    /// (all-or-nothing: the first failing hop aborts the whole payment and
    /// rolls back nothing because hops are validated before any is applied).
    /// A path that visits an account twice is refused
    /// ([`LedgerError::PathLoop`]), so no two hops share a pair.
    ///
    /// # Errors
    ///
    /// Any [`LedgerError`] from validation; on error the state is unchanged.
    pub fn apply(&mut self, tx: &Transaction) -> Result<TxResult, LedgerError> {
        let root = self
            .account(&tx.account)
            .ok_or(LedgerError::NoSuchAccount(tx.account))?;
        if root.sequence != tx.sequence {
            return Err(LedgerError::BadSequence {
                expected: root.sequence,
                got: tx.sequence,
            });
        }
        if tx.fee < self.fees.base_fee {
            return Err(LedgerError::FeeTooLow {
                fee: tx.fee,
                minimum: self.fees.base_fee,
            });
        }
        let reserve = self.fees.reserve_for(root.owner_count);
        let spendable = root.balance.checked_sub(reserve).unwrap_or(Drops::ZERO);
        if tx.fee > spendable {
            // The fee itself is what the account cannot cover once the
            // reserve is locked — report that, not the base fee.
            return Err(LedgerError::InsufficientXrp {
                account: tx.account,
                needed: tx.fee,
                available: spendable,
            });
        }

        // Validate + apply the kind-specific effect first (on a clone for
        // multi-hop payments, cheap single mutations validated inline).
        match &tx.kind {
            TxKind::Payment {
                destination,
                amount,
                send_max: _,
                paths,
            } => match amount {
                Amount::Xrp(drops) => {
                    self.charge_fee(tx.account, tx.fee);
                    if let Err(e) = self.xrp_transfer(tx.account, *destination, *drops) {
                        self.refund_fee(tx.account, tx.fee);
                        return Err(e);
                    }
                }
                Amount::Iou(iou) => {
                    // The same gate order as `ripple_hop`, hoisted here so a
                    // malformed payment is rejected before any fee or hop
                    // accounting: currency, sign, self-payment, one path, no
                    // account visited twice, existence of every account
                    // along the chain, then capacity.
                    if iou.currency.is_xrp() {
                        return Err(LedgerError::XrpOnTrustLine);
                    }
                    if !iou.value.is_positive() {
                        return Err(LedgerError::NonPositiveAmount);
                    }
                    if tx.account == *destination {
                        return Err(LedgerError::SelfPayment);
                    }
                    // Only single-path same-currency payments are executed
                    // here; richer routing lives in the payment engine crate.
                    // Multi-path payments are rejected outright rather than
                    // silently dropping every path after the first.
                    let hops: &[AccountId] = match paths.as_slice() {
                        [] => &[],
                        [only] => only.as_slice(),
                        more => {
                            return Err(LedgerError::MultiPathUnsupported { paths: more.len() })
                        }
                    };
                    let mut chain = Vec::with_capacity(hops.len() + 2);
                    chain.push(tx.account);
                    chain.extend_from_slice(hops);
                    chain.push(*destination);
                    // Hops are validated against the state before any
                    // moves, which is exact only while no two share a pair.
                    for (i, stop) in chain.iter().enumerate() {
                        if chain[..i].contains(stop) {
                            return Err(LedgerError::PathLoop { account: *stop });
                        }
                    }
                    for stop in &chain[1..] {
                        if self.account(stop).is_none() {
                            return Err(LedgerError::NoSuchAccount(*stop));
                        }
                    }
                    for pair in chain.windows(2) {
                        let capacity = self.hop_capacity(pair[0], pair[1], iou.currency);
                        if iou.value > capacity {
                            return Err(LedgerError::TrustLimitExceeded {
                                from: pair[0],
                                to: pair[1],
                                capacity,
                                requested: iou.value,
                            });
                        }
                    }
                    self.charge_fee(tx.account, tx.fee);
                    for pair in chain.windows(2) {
                        self.adjust_pair_balance(pair[1], pair[0], iou.currency, iou.value);
                    }
                }
            },
            TxKind::TrustSet {
                trustee,
                currency,
                limit,
            } => {
                self.set_trust(tx.account, *trustee, *currency, *limit)?;
                self.charge_fee(tx.account, tx.fee);
            }
            TxKind::OfferCreate {
                taker_gets,
                taker_pays,
            } => {
                self.place_offer(tx.account, tx.sequence, *taker_gets, *taker_pays)?;
                self.charge_fee(tx.account, tx.fee);
            }
            TxKind::OfferCancel { offer_seq } => {
                self.cancel_offer(tx.account, *offer_seq)?;
                self.charge_fee(tx.account, tx.fee);
            }
            TxKind::AccountSet { .. } => {
                self.charge_fee(tx.account, tx.fee);
            }
        }

        let root = self.account_mut(&tx.account).expect("checked above");
        root.sequence += 1;
        Ok(TxResult::Applied)
    }

    fn charge_fee(&mut self, account: AccountId, fee: Drops) {
        let root = self.account_mut(&account).expect("caller validated");
        root.balance = root.balance.checked_sub(fee).expect("caller validated fee");
        self.burned = self.burned.checked_add(fee).expect("burn fits u64");
    }

    fn refund_fee(&mut self, account: AccountId, fee: Drops) {
        let root = self.account_mut(&account).expect("caller validated");
        root.balance = root.balance.checked_add(fee).expect("refund fits");
        self.burned = Drops::new(self.burned.as_drops() - fee.as_drops());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acct(n: u8) -> AccountId {
        AccountId::from_bytes([n; 20])
    }

    fn funded_state(n: u8) -> LedgerState {
        let mut s = LedgerState::new();
        for i in 1..=n {
            s.create_account(acct(i), Drops::from_xrp(1_000));
        }
        s
    }

    #[test]
    fn every_state_value_has_its_own_lineage() {
        let mut a = funded_state(2);
        let b = a.clone();
        assert_eq!(a.credit_generation(), b.credit_generation());
        assert_ne!(a.lineage(), b.lineage(), "a clone is a new lineage");
        assert_ne!(a.lineage(), LedgerState::new().lineage());
        assert_ne!(b.lineage(), b.clone().lineage());
        // Mutation moves the generation, never the lineage.
        let before = a.lineage();
        a.set_trust(acct(1), acct(2), Currency::USD, "5".parse().unwrap())
            .unwrap();
        assert_eq!(a.lineage(), before);
    }

    #[test]
    fn xrp_transfer_moves_balance() {
        let mut s = funded_state(2);
        s.xrp_transfer(acct(1), acct(2), Drops::from_xrp(10))
            .unwrap();
        assert_eq!(s.account(&acct(1)).unwrap().balance, Drops::from_xrp(990));
        assert_eq!(s.account(&acct(2)).unwrap().balance, Drops::from_xrp(1_010));
    }

    #[test]
    fn xrp_transfer_respects_reserve() {
        let mut s = funded_state(2);
        // 1000 XRP balance, 20 XRP base reserve: at most 980 spendable.
        let err = s
            .xrp_transfer(acct(1), acct(2), Drops::from_xrp(990))
            .unwrap_err();
        assert!(matches!(err, LedgerError::InsufficientXrp { .. }));
        s.xrp_transfer(acct(1), acct(2), Drops::from_xrp(980))
            .unwrap();
    }

    #[test]
    fn trust_is_unidirectional() {
        let mut s = funded_state(2);
        s.set_trust(acct(1), acct(2), Currency::USD, "10".parse().unwrap())
            .unwrap();
        // Paper: trust from Alice(1) to Bob(2) allows payments Bob->Alice.
        assert_eq!(
            s.hop_capacity(acct(2), acct(1), Currency::USD),
            "10".parse().unwrap()
        );
        assert_eq!(s.hop_capacity(acct(1), acct(2), Currency::USD), Value::ZERO);
    }

    #[test]
    fn ripple_hop_moves_debt_and_respects_limit() {
        let mut s = funded_state(2);
        s.set_trust(acct(1), acct(2), Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.ripple_hop(acct(2), acct(1), Currency::USD, "7".parse().unwrap())
            .unwrap();
        assert_eq!(
            s.iou_balance(acct(1), acct(2), Currency::USD),
            "7".parse().unwrap()
        );
        let err = s
            .ripple_hop(acct(2), acct(1), Currency::USD, "4".parse().unwrap())
            .unwrap_err();
        assert!(matches!(err, LedgerError::TrustLimitExceeded { .. }));
    }

    #[test]
    fn netting_extends_capacity() {
        let mut s = funded_state(2);
        s.set_trust(acct(1), acct(2), Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.set_trust(acct(2), acct(1), Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.ripple_hop(acct(2), acct(1), Currency::USD, "10".parse().unwrap())
            .unwrap();
        // Account 1 now holds 10 of 2's IOUs; paying back nets first, so
        // capacity 1->2 is 10 (netting) + 10 (limit) = 20.
        assert_eq!(
            s.hop_capacity(acct(1), acct(2), Currency::USD),
            "20".parse().unwrap()
        );
    }

    #[test]
    fn pair_balance_is_antisymmetric() {
        let mut s = funded_state(2);
        s.set_trust(acct(1), acct(2), Currency::EUR, "5".parse().unwrap())
            .unwrap();
        s.ripple_hop(acct(2), acct(1), Currency::EUR, "3".parse().unwrap())
            .unwrap();
        assert_eq!(
            s.iou_balance(acct(1), acct(2), Currency::EUR),
            -s.iou_balance(acct(2), acct(1), Currency::EUR)
        );
    }

    #[test]
    fn paper_figure1_three_party_chain() {
        // A trusts B for 10, B trusts C for 20 => C can pay A up to 10 via B.
        let mut s = funded_state(3);
        let (a, b, c) = (acct(1), acct(2), acct(3));
        s.set_trust(a, b, Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.set_trust(b, c, Currency::USD, "20".parse().unwrap())
            .unwrap();
        s.ripple_hop(c, b, Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.ripple_hop(b, a, Currency::USD, "10".parse().unwrap())
            .unwrap();
        assert_eq!(s.iou_balance(a, b, Currency::USD), "10".parse().unwrap());
        assert_eq!(s.iou_balance(b, c, Currency::USD), "10".parse().unwrap());
        // B's net position is zero: owed 10 by C, owes 10 to A.
        assert_eq!(s.net_position(b, Currency::USD), Value::ZERO);
        assert_eq!(s.net_position(a, Currency::USD), "10".parse().unwrap());
        assert_eq!(s.net_position(c, Currency::USD), "-10".parse().unwrap());
    }

    #[test]
    fn set_trust_tracks_owner_count() {
        let mut s = funded_state(2);
        s.set_trust(acct(1), acct(2), Currency::USD, "10".parse().unwrap())
            .unwrap();
        assert_eq!(s.account(&acct(1)).unwrap().owner_count, 1);
        s.set_trust(acct(1), acct(2), Currency::USD, "20".parse().unwrap())
            .unwrap();
        assert_eq!(s.account(&acct(1)).unwrap().owner_count, 1);
        s.set_trust(acct(1), acct(2), Currency::USD, Value::ZERO)
            .unwrap();
        assert_eq!(s.account(&acct(1)).unwrap().owner_count, 0);
    }

    #[test]
    fn offers_lifecycle() {
        let mut s = funded_state(1);
        s.place_offer(
            acct(1),
            5,
            Amount::Xrp(Drops::from_xrp(10)),
            Amount::Iou(crate::amount::IouAmount::new(
                "5".parse().unwrap(),
                Currency::USD,
                acct(1),
            )),
        )
        .unwrap();
        assert_eq!(s.offers().count(), 1);
        assert!(s.offer(acct(1), 5).is_some());
        s.cancel_offer(acct(1), 5).unwrap();
        assert_eq!(s.offers().count(), 0);
        assert!(matches!(
            s.cancel_offer(acct(1), 5),
            Err(LedgerError::NoSuchOffer { .. })
        ));
    }

    #[test]
    fn strip_all_offers_clears_book() {
        let mut s = funded_state(2);
        for seq in 0..4 {
            s.place_offer(
                acct(1),
                seq,
                Amount::Xrp(Drops::from_xrp(1)),
                Amount::Xrp(Drops::from_xrp(1)),
            )
            .unwrap();
        }
        assert_eq!(s.strip_all_offers(), 4);
        assert_eq!(s.offers().count(), 0);
    }

    #[test]
    fn apply_burns_fee_and_bumps_sequence() {
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"payer");
        let payer = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        s.create_account(payer, Drops::from_xrp(100));
        s.create_account(acct(9), Drops::from_xrp(100));
        let tx = Transaction::build(
            payer,
            1,
            Drops::new(10),
            TxKind::Payment {
                destination: acct(9),
                amount: Amount::Xrp(Drops::from_xrp(1)),
                send_max: None,
                paths: Vec::new(),
            },
        )
        .signed(&keys);
        s.apply(&tx).unwrap();
        assert_eq!(s.total_burned(), Drops::new(10));
        assert_eq!(s.account(&payer).unwrap().sequence, 2);
        assert_eq!(
            s.account(&payer).unwrap().balance,
            Drops::new(100_000_000 - 1_000_000 - 10)
        );
        // Replaying the same sequence fails.
        assert!(matches!(s.apply(&tx), Err(LedgerError::BadSequence { .. })));
    }

    #[test]
    fn apply_trustset_and_offers_lifecycle() {
        use crate::amount::IouAmount;
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"maker");
        let maker = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        s.create_account(maker, Drops::from_xrp(100));
        s.create_account(acct(7), Drops::from_xrp(100));

        // TrustSet through apply.
        let trust = Transaction::build(
            maker,
            1,
            Drops::new(10),
            TxKind::TrustSet {
                trustee: acct(7),
                currency: Currency::EUR,
                limit: "25".parse().unwrap(),
            },
        )
        .signed(&keys);
        s.apply(&trust).unwrap();
        assert_eq!(
            s.trust_limit(maker, acct(7), Currency::EUR),
            "25".parse().unwrap()
        );
        assert_eq!(s.account(&maker).unwrap().owner_count, 1);

        // OfferCreate through apply: identity is the creating sequence.
        let create = Transaction::build(
            maker,
            2,
            Drops::new(10),
            TxKind::OfferCreate {
                taker_gets: IouAmount::new("10".parse().unwrap(), Currency::EUR, maker).into(),
                taker_pays: IouAmount::new("11".parse().unwrap(), Currency::USD, maker).into(),
            },
        )
        .signed(&keys);
        s.apply(&create).unwrap();
        assert!(s.offer(maker, 2).is_some());
        assert_eq!(s.account(&maker).unwrap().owner_count, 2);

        // OfferCancel through apply.
        let cancel = Transaction::build(
            maker,
            3,
            Drops::new(10),
            TxKind::OfferCancel { offer_seq: 2 },
        )
        .signed(&keys);
        s.apply(&cancel).unwrap();
        assert!(s.offer(maker, 2).is_none());
        assert_eq!(s.account(&maker).unwrap().owner_count, 1);
        assert_eq!(s.total_burned(), Drops::new(30));
    }

    #[test]
    fn apply_account_set_only_burns_and_bumps() {
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"flagger");
        let who = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        s.create_account(who, Drops::from_xrp(100));
        let tx = Transaction::build(who, 1, Drops::new(12), TxKind::AccountSet { flags: 0xFF })
            .signed(&keys);
        s.apply(&tx).unwrap();
        assert_eq!(s.account(&who).unwrap().sequence, 2);
        assert_eq!(s.total_burned(), Drops::new(12));
    }

    #[test]
    fn sever_account_disconnects_but_preserves_xrp() {
        let mut s = funded_state(3);
        s.set_trust(acct(1), acct(2), Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, "10".parse().unwrap())
            .unwrap();
        s.ripple_hop(acct(2), acct(1), Currency::USD, "5".parse().unwrap())
            .unwrap();
        let xrp_before = s.account(&acct(2)).unwrap().balance;
        s.sever_account(acct(2));
        assert_eq!(s.trust_limit(acct(1), acct(2), Currency::USD), Value::ZERO);
        assert_eq!(s.trust_limit(acct(3), acct(2), Currency::USD), Value::ZERO);
        assert_eq!(s.iou_balance(acct(1), acct(2), Currency::USD), Value::ZERO);
        assert_eq!(s.account(&acct(2)).unwrap().balance, xrp_before);
        assert_eq!(s.hop_capacity(acct(2), acct(1), Currency::USD), Value::ZERO);
    }

    /// The one-account severing before the set version: a scan of every
    /// trust line and every pair balance per severed account, each removed
    /// through the public API.
    fn sever_one_reference(s: &mut LedgerState, account: AccountId) {
        let removed_trust: Vec<TrustLine> = s
            .trust_lines()
            .filter(|l| l.truster == account || l.trustee == account)
            .collect();
        for line in removed_trust {
            s.set_trust(line.truster, line.trustee, line.currency, Value::ZERO)
                .unwrap();
        }
        let removed_balances: Vec<(AccountId, AccountId, Currency, Value)> = s
            .pair_balances()
            .filter(|&(low, high, _, _)| low == account || high == account)
            .collect();
        for (low, high, currency, balance) in removed_balances {
            s.adjust_pair_balance(low, high, currency, -balance);
        }
    }

    type CreditView = (
        Vec<(AccountId, AccountId, Currency, Value)>,
        Vec<(AccountId, AccountId, Currency, Value)>,
        Vec<(AccountId, u32)>,
    );

    /// Sorted trust lines, sorted pair balances and every owner count.
    fn credit_view(s: &LedgerState) -> CreditView {
        let mut lines: Vec<_> = s
            .trust_lines()
            .map(|l| (l.truster, l.trustee, l.currency, l.limit))
            .collect();
        let mut balances: Vec<_> = s.pair_balances().collect();
        let mut owners: Vec<_> = s.accounts().map(|(a, r)| (*a, r.owner_count)).collect();
        lines.sort_unstable();
        balances.sort_unstable();
        owners.sort_unstable();
        (lines, balances, owners)
    }

    /// A seeded draw below `bound` (a 64-bit LCG's high bits).
    fn lcg(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        }
    }

    #[test]
    fn severing_a_set_equals_severing_its_members_one_by_one() {
        let mut next = lcg(0x5EED);
        let (mut empty, mut duplicated, mut shared) = (0, 0, 0);
        for case in 0..500 {
            let n = 3 + next(10);
            let mut s = funded_state(n as u8);
            for _ in 0..next(40) {
                let (a, b) = (acct(1 + next(n) as u8), acct(1 + next(n) as u8));
                let currency = [Currency::USD, Currency::EUR][next(2) as usize];
                let amount = Value::from_raw((1 + next(20) as i128) * 1_000_000);
                if next(2) == 0 {
                    s.set_trust(a, b, currency, amount).unwrap();
                } else {
                    s.adjust_pair_balance(a, b, currency, amount);
                }
            }
            let severed: Vec<AccountId> = (0..next(5)).map(|_| acct(1 + next(n) as u8)).collect();
            let distinct: FxHashSet<AccountId> = severed.iter().copied().collect();
            empty += usize::from(severed.is_empty());
            duplicated += usize::from(distinct.len() < severed.len());
            shared += s
                .trust_lines()
                .filter(|l| distinct.contains(&l.truster) && distinct.contains(&l.trustee))
                .count();

            let mut want = s.clone();
            for &account in &severed {
                sever_one_reference(&mut want, account);
            }
            s.sever_accounts(&severed);
            assert_eq!(
                credit_view(&s),
                credit_view(&want),
                "case {case}: severing {severed:?}"
            );
        }
        assert!(
            empty > 20 && duplicated > 20 && shared > 20,
            "{empty} {duplicated} {shared}"
        );
    }

    /// The layout before one record per pair: trust limits keyed by
    /// truster, balances keyed by pair, each line's owner-count slot on its
    /// truster, as plain ordered maps.
    #[derive(Default)]
    struct TwoMapReference {
        trust: BTreeMap<(AccountId, AccountId, Currency), Value>,
        balances: BTreeMap<(AccountId, AccountId, Currency), Value>,
        owners: BTreeMap<AccountId, u32>,
    }

    impl TwoMapReference {
        fn set_trust(&mut self, truster: AccountId, trustee: AccountId, c: Currency, limit: Value) {
            let key = (truster, trustee, c);
            let owners = self.owners.entry(truster).or_default();
            if limit.is_zero() {
                if self.trust.remove(&key).is_some() {
                    *owners -= 1;
                }
            } else if self.trust.insert(key, limit).is_none() {
                *owners += 1;
            }
        }

        fn claim(&self, holder: AccountId, counterparty: AccountId, c: Currency) -> Value {
            let (key, flipped) = pair_key(holder, counterparty, c);
            let raw = self.balances.get(&key).copied().unwrap_or_default();
            if flipped {
                -raw
            } else {
                raw
            }
        }

        fn adjust(
            &mut self,
            holder: AccountId,
            counterparty: AccountId,
            c: Currency,
            delta: Value,
        ) {
            let (key, flipped) = pair_key(holder, counterparty, c);
            let entry = self.balances.entry(key).or_default();
            *entry = if flipped {
                *entry - delta
            } else {
                *entry + delta
            };
            if entry.is_zero() {
                self.balances.remove(&key);
            }
        }

        fn hop_capacity(&self, from: AccountId, to: AccountId, c: Currency) -> Value {
            let limit = self.trust.get(&(to, from, c)).copied().unwrap_or_default();
            limit - self.claim(to, from, c)
        }

        fn ripple_hop(
            &mut self,
            from: AccountId,
            to: AccountId,
            c: Currency,
            amount: Value,
        ) -> bool {
            let ok = from != to && amount <= self.hop_capacity(from, to, c);
            if ok {
                self.adjust(to, from, c, amount);
            }
            ok
        }

        fn sever(&mut self, severed: &[AccountId]) {
            let touches = |a: &AccountId, b: &AccountId| severed.contains(a) || severed.contains(b);
            let owners = &mut self.owners;
            self.trust.retain(|(truster, trustee, _), _| {
                let keep = !touches(truster, trustee);
                if !keep {
                    *owners.entry(*truster).or_default() -= 1;
                }
                keep
            });
            self.balances
                .retain(|(low, high, _), _| !touches(low, high));
        }

        /// Distinct unordered pairs with a line either way or a balance.
        fn pairs(&self) -> usize {
            let lines = self.trust.keys().map(|&(a, b, c)| pair_key(a, b, c).0);
            let mut pairs: Vec<_> = lines.chain(self.balances.keys().copied()).collect();
            pairs.sort_unstable();
            pairs.dedup();
            pairs.len()
        }
    }

    /// Every record, sorted by key.
    fn sorted_states(s: &LedgerState) -> Vec<RippleState> {
        let mut states: Vec<_> = s.ripple_states().collect();
        states.sort_unstable_by_key(|r| (r.low, r.high, r.currency));
        states
    }

    #[test]
    fn one_record_per_pair_matches_the_two_map_reference() {
        const CURRENCIES: [Currency; 3] = [Currency::USD, Currency::EUR, Currency::BTC];
        let mut next = lcg(0x02EC_04D5);
        // Shapes the op stream must reach: self-lines, zero-limit removals,
        // balances driven exactly to zero from either side, refused and
        // carried hops, severed sets, and `try_ripple`s refused, carried,
        // of zero, and of exactly the capacity.
        let mut shapes = [0usize; 11];
        for case in 0..200 {
            let n = 2 + next(11) as usize;
            let accounts: Vec<AccountId> = (0..n)
                .map(|i| {
                    let mut bytes = [i as u8; 20];
                    bytes[0] = next(256) as u8;
                    AccountId::from_bytes(bytes)
                })
                .collect();
            let mut s = LedgerState::new();
            let mut reference = TwoMapReference::default();
            for &a in &accounts {
                s.create_account(a, Drops::from_xrp(1_000));
                reference.owners.insert(a, 0);
            }
            for step in 0..next(60) {
                let a = accounts[next(n as u64) as usize];
                let b = accounts[next(n as u64) as usize];
                let c = CURRENCIES[next(3) as usize];
                let amount = Value::from_raw((1 + next(30) as i128) * 1_000_000);
                let line = (!reference.trust.is_empty()).then(|| {
                    let at = next(reference.trust.len() as u64) as usize;
                    *reference.trust.keys().nth(at).unwrap()
                });
                match next(12) {
                    0..=2 => {
                        let (a, b, c, limit) = match line {
                            Some((truster, trustee, c)) if next(3) == 0 => {
                                shapes[1] += 1;
                                (truster, trustee, c, Value::ZERO)
                            }
                            _ => (a, b, c, amount),
                        };
                        shapes[0] += usize::from(a == b);
                        s.set_trust(a, b, c, limit).unwrap();
                        reference.set_trust(a, b, c, limit);
                    }
                    3..=4 => {
                        let debt = (!reference.balances.is_empty()).then(|| {
                            let at = next(reference.balances.len() as u64) as usize;
                            *reference.balances.keys().nth(at).unwrap()
                        });
                        let (a, b, c, delta) = match debt {
                            Some((low, high, c)) if next(2) == 0 => {
                                // Exactly to zero, from either side.
                                let (holder, counterparty) = if next(2) == 0 {
                                    (low, high)
                                } else {
                                    (high, low)
                                };
                                let claim = reference.claim(holder, counterparty, c);
                                shapes[2 + usize::from(claim.is_negative())] += 1;
                                (holder, counterparty, c, -claim)
                            }
                            _ if next(2) == 0 => (a, b, c, -amount),
                            _ => (a, b, c, amount),
                        };
                        s.adjust_pair_balance(a, b, c, delta);
                        reference.adjust(a, b, c, delta);
                    }
                    5..=8 => {
                        // Half the hops ride a declared line, trustee to truster.
                        let (a, b, c) = match line {
                            Some((truster, trustee, c)) if next(2) == 0 => (trustee, truster, c),
                            _ => (a, b, c),
                        };
                        let ok = reference.ripple_hop(a, b, c, amount);
                        shapes[4 + usize::from(ok)] += 1;
                        assert_eq!(
                            s.ripple_hop(a, b, c, amount).is_ok(),
                            ok,
                            "case {case} step {step}"
                        );
                    }
                    9..=10 => {
                        let (a, b, c) = match line {
                            Some((truster, trustee, c)) if next(2) == 0 => (trustee, truster, c),
                            _ => (a, b, c),
                        };
                        let capacity = reference.hop_capacity(a, b, c);
                        let amount = match next(5) {
                            0 => Value::ZERO,
                            1 => capacity,
                            2 => capacity + Value::from_raw(1),
                            3 => capacity - Value::from_raw(1),
                            _ => amount,
                        };
                        shapes[9] += usize::from(amount.is_zero());
                        shapes[10] += usize::from(amount == capacity);
                        let before: Vec<_> = sorted_states(&s);
                        let generation = s.credit_generation();
                        let hop = Hop::new(a, b, c);
                        assert_eq!((hop.from(), hop.to(), hop.currency()), (a, b, c));
                        let got = s.try_ripple(&hop, amount);
                        if capacity < amount {
                            shapes[7] += 1;
                            assert_eq!(got, Err(capacity), "case {case} step {step}");
                            assert_eq!(sorted_states(&s), before, "case {case} step {step}");
                            assert_eq!(s.credit_generation(), generation);
                        } else {
                            shapes[8] += 1;
                            assert_eq!(got, Ok(()), "case {case} step {step}");
                            assert_eq!(s.credit_generation(), generation + 1);
                            reference.adjust(b, a, c, amount);
                        }
                    }
                    _ => {
                        let severed: Vec<AccountId> = (0..next(3))
                            .map(|_| accounts[next(n as u64) as usize])
                            .collect();
                        shapes[6] += 1;
                        s.sever_accounts(&severed);
                        reference.sever(&severed);
                    }
                }
                let want_lines: Vec<_> = reference
                    .trust
                    .iter()
                    .map(|(&(truster, trustee, currency), &limit)| TrustLine {
                        truster,
                        trustee,
                        currency,
                        limit,
                    })
                    .collect();
                let want_balances: Vec<_> = reference
                    .balances
                    .iter()
                    .map(|(&(low, high, currency), &value)| (low, high, currency, value))
                    .collect();
                let (lines, balances, owners) = credit_view(&s);
                let lines: Vec<TrustLine> = lines
                    .into_iter()
                    .map(|(truster, trustee, currency, limit)| TrustLine {
                        truster,
                        trustee,
                        currency,
                        limit,
                    })
                    .collect();
                assert_eq!(lines, want_lines, "case {case} step {step}");
                assert_eq!(balances, want_balances, "case {case} step {step}");
                let want_owners: Vec<_> = reference.owners.iter().map(|(&a, &n)| (a, n)).collect();
                assert_eq!(owners, want_owners, "case {case} step {step}");
                for &from in &accounts {
                    for &to in &accounts {
                        for c in CURRENCIES {
                            assert_eq!(
                                s.hop_capacity(from, to, c),
                                reference.hop_capacity(from, to, c),
                                "case {case} step {step}"
                            );
                        }
                    }
                }
                let records: usize = s.shards.iter().map(|shard| shard.ripple.len()).sum();
                assert_eq!(records, reference.pairs(), "case {case} step {step}");
            }
        }
        assert!(shapes.iter().all(|&k| k > 100), "{shapes:?}");
    }

    /// S, X, Y, Z, D: Y trusts X for 10 USD, every other hop for 1000.
    fn looped_payment_ledger() -> (LedgerState, ripple_crypto::SimKeypair, [AccountId; 5]) {
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"looper");
        let sender = AccountId::from_public_key(&keys.public_key());
        let [x, y, z, d] = [acct(2), acct(3), acct(4), acct(5)];
        let mut s = LedgerState::new();
        for a in [sender, x, y, z, d] {
            s.create_account(a, Drops::from_xrp(100));
        }
        let wide: Value = "1000".parse().unwrap();
        for (truster, trustee) in [(x, sender), (z, y), (x, z), (d, y)] {
            s.set_trust(truster, trustee, Currency::USD, wide).unwrap();
        }
        s.set_trust(y, x, Currency::USD, "10".parse().unwrap())
            .unwrap();
        (s, keys, [sender, x, y, z, d])
    }

    #[test]
    fn apply_refuses_a_path_that_revisits_an_account() {
        use crate::amount::IouAmount;
        use crate::tx::{Transaction, TxKind};
        let (mut s, keys, [sender, x, y, z, d]) = looped_payment_ledger();
        let tx = Transaction::build(
            sender,
            1,
            Drops::new(10),
            TxKind::Payment {
                destination: d,
                amount: Amount::Iou(IouAmount::new("10".parse().unwrap(), Currency::USD, y)),
                send_max: None,
                paths: vec![vec![x, y, z, x, y]],
            },
        )
        .signed(&keys);
        let before = credit_view(&s);
        // Checked hop by hop against the pre-state, X -> Y would run twice
        // over a line of 10 and leave Y holding 20.
        assert_eq!(s.apply(&tx), Err(LedgerError::PathLoop { account: x }));
        assert_eq!(credit_view(&s), before);
        assert_eq!(s.total_burned(), Drops::ZERO);
        assert_eq!(s.account(&sender).unwrap().sequence, 1);
        assert_eq!(s.hop_capacity(x, y, Currency::USD), "10".parse().unwrap());
    }

    #[test]
    fn apply_rejects_unknown_sender() {
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"ghost");
        let ghost = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        let tx = Transaction::build(ghost, 1, Drops::new(10), TxKind::AccountSet { flags: 0 })
            .signed(&keys);
        assert!(matches!(s.apply(&tx), Err(LedgerError::NoSuchAccount(_))));
    }

    #[test]
    fn apply_iou_payment_over_explicit_path() {
        use crate::amount::IouAmount;
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"sender");
        let sender = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        s.create_account(sender, Drops::from_xrp(100));
        s.create_account(acct(2), Drops::from_xrp(100));
        s.create_account(acct(3), Drops::from_xrp(100));
        // Path sender -> 2 -> 3 requires 2 trusts sender and 3 trusts 2.
        s.set_trust(acct(2), sender, Currency::USD, "50".parse().unwrap())
            .unwrap();
        s.set_trust(acct(3), acct(2), Currency::USD, "50".parse().unwrap())
            .unwrap();
        let tx = Transaction::build(
            sender,
            1,
            Drops::new(10),
            TxKind::Payment {
                destination: acct(3),
                amount: Amount::Iou(IouAmount::new(
                    "20".parse().unwrap(),
                    Currency::USD,
                    acct(2),
                )),
                send_max: None,
                paths: vec![vec![acct(2)]],
            },
        )
        .signed(&keys);
        s.apply(&tx).unwrap();
        assert_eq!(
            s.iou_balance(acct(3), acct(2), Currency::USD),
            "20".parse().unwrap()
        );
        assert_eq!(
            s.iou_balance(acct(2), sender, Currency::USD),
            "20".parse().unwrap()
        );
    }

    #[test]
    fn apply_rejects_multi_path_payments() {
        use crate::amount::IouAmount;
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"multipath");
        let sender = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        s.create_account(sender, Drops::from_xrp(100));
        s.create_account(acct(2), Drops::from_xrp(100));
        s.create_account(acct(3), Drops::from_xrp(100));
        s.create_account(acct(4), Drops::from_xrp(100));
        // Generous trust on both candidate routes: the old code would have
        // silently executed only the first path and reported success.
        for (truster, trustee) in [(acct(2), sender), (acct(4), sender), (acct(3), acct(2))] {
            s.set_trust(truster, trustee, Currency::USD, "100".parse().unwrap())
                .unwrap();
        }
        s.set_trust(acct(3), acct(4), Currency::USD, "100".parse().unwrap())
            .unwrap();
        let tx = Transaction::build(
            sender,
            1,
            Drops::new(10),
            TxKind::Payment {
                destination: acct(3),
                amount: Amount::Iou(IouAmount::new("5".parse().unwrap(), Currency::USD, acct(2))),
                send_max: None,
                paths: vec![vec![acct(2)], vec![acct(4)]],
            },
        )
        .signed(&keys);
        let err = s.apply(&tx).unwrap_err();
        assert_eq!(err, LedgerError::MultiPathUnsupported { paths: 2 });
        // Rejected before any effect: no fee burned, no debt moved.
        assert_eq!(s.total_burned(), Drops::ZERO);
        assert_eq!(s.account(&sender).unwrap().sequence, 1);
        assert_eq!(s.iou_balance(acct(2), sender, Currency::USD), Value::ZERO);
        assert_eq!(s.iou_balance(acct(4), sender, Currency::USD), Value::ZERO);
    }

    #[test]
    fn apply_fee_gate_distinguishes_too_low_from_reserve_locked() {
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"feegate");
        let who = AccountId::from_public_key(&keys.public_key());

        // Arm 1: fee below the base fee is FeeTooLow, whatever the balance.
        let mut s = LedgerState::new();
        s.create_account(who, Drops::from_xrp(100));
        let base_fee = s.fees.base_fee;
        let cheap = Transaction::build(
            who,
            1,
            Drops::new(base_fee.as_drops() - 1),
            TxKind::AccountSet { flags: 0 },
        )
        .signed(&keys);
        assert_eq!(
            s.apply(&cheap).unwrap_err(),
            LedgerError::FeeTooLow {
                fee: Drops::new(base_fee.as_drops() - 1),
                minimum: base_fee,
            }
        );

        // Arm 2: a valid fee the reserve-locked balance cannot cover must
        // report the actual fee as `needed`, not the base fee.
        let reserve = s.fees.reserve_for(0);
        let mut poor = LedgerState::new();
        poor.create_account(who, Drops::new(reserve.as_drops() + 5));
        let fee = Drops::new(base_fee.as_drops().max(6));
        let tx = Transaction::build(who, 1, fee, TxKind::AccountSet { flags: 0 }).signed(&keys);
        assert_eq!(
            poor.apply(&tx).unwrap_err(),
            LedgerError::InsufficientXrp {
                account: who,
                needed: fee,
                available: Drops::new(5),
            }
        );
    }

    #[test]
    fn offers_iterate_in_global_owner_seq_order_across_shards() {
        let mut s = LedgerState::new();
        // Owners spread over distinct shards (first byte selects the shard),
        // inserted in shuffled order.
        let owners = [acct(0x31), acct(0x05), acct(0xF2), acct(0x18), acct(0x05)];
        let seqs = [7u32, 9, 1, 4, 2];
        for (owner, seq) in owners.iter().zip(seqs) {
            if s.account(owner).is_none() {
                s.create_account(*owner, Drops::from_xrp(100));
            }
            s.place_offer(
                *owner,
                seq,
                Amount::Xrp(Drops::from_xrp(1)),
                Amount::Xrp(Drops::from_xrp(1)),
            )
            .unwrap();
        }
        let order: Vec<(AccountId, u32)> = s.offers().map(|o| (o.owner, o.offer_seq)).collect();
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted);
        assert_eq!(order.len(), 5);
        assert_eq!(s.offers().count(), 5);
    }

    #[test]
    fn failed_payment_leaves_state_unchanged() {
        use crate::amount::IouAmount;
        use crate::tx::{Transaction, TxKind};
        use ripple_crypto::SimKeypair;
        let keys = SimKeypair::from_seed(b"sender2");
        let sender = AccountId::from_public_key(&keys.public_key());
        let mut s = LedgerState::new();
        s.create_account(sender, Drops::from_xrp(100));
        s.create_account(acct(2), Drops::from_xrp(100));
        let tx = Transaction::build(
            sender,
            1,
            Drops::new(10),
            TxKind::Payment {
                destination: acct(2),
                amount: Amount::Iou(IouAmount::new("20".parse().unwrap(), Currency::USD, sender)),
                send_max: None,
                paths: Vec::new(),
            },
        )
        .signed(&keys);
        // No trust line: rejected, no fee burned, sequence unchanged.
        assert!(s.apply(&tx).is_err());
        assert_eq!(s.total_burned(), Drops::ZERO);
        assert_eq!(s.account(&sender).unwrap().sequence, 1);
        assert_eq!(s.account(&sender).unwrap().balance, Drops::from_xrp(100));
    }
}
