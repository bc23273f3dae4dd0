//! Seed-deterministic generation of differential-test cases.
//!
//! Every plan here is a plain-old-data description of a scenario — genesis
//! balances plus an operation list — so it can be serialized into a
//! `CHECK_CASE.json`, shrunk element-by-element, and replayed byte-for-byte.
//! Accounts are referred to by small indices into a fixed cast
//! (`AccountId::from_bytes([i + 1; 20])`); the last cast slot is a *ghost*
//! that is never funded, so generated operations can target a nonexistent
//! account and exercise the `NoSuchAccount` rejection paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripple_crypto::{AccountId, SimKeypair};
use ripple_ledger::{Amount, Currency, Drops, IouAmount, TxKind, Value};

/// IOU currencies the generator draws from; index 3 maps to XRP, which is
/// hostile input on trust lines and offers.
pub const CURRENCIES: [Currency; 3] = [Currency::USD, Currency::EUR, Currency::BTC];

/// Maps a generated currency index to a concrete currency (`3 => XRP`).
pub fn case_currency(idx: u8) -> Currency {
    match idx & 3 {
        0 => Currency::USD,
        1 => Currency::EUR,
        2 => Currency::BTC,
        _ => Currency::XRP,
    }
}

/// The cast account for index `i` (stable across runs).
pub fn cast_account(i: u8) -> AccountId {
    AccountId::from_bytes([i.wrapping_add(1); 20])
}

/// The shared signing key for generated transactions (`apply` does not
/// verify signatures, so one key signs for the whole cast).
pub fn case_keypair() -> SimKeypair {
    SimKeypair::from_seed(b"check")
}

/// An amount as generated data: `currency & 3 == 3` means XRP (the raw
/// value is then clamped into drops), otherwise an IOU of the indexed
/// currency issued by the indexed cast account.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseAmount {
    /// Currency index (see [`case_currency`]).
    pub currency: u8,
    /// Raw [`Value`] units (or drops for XRP, clamped non-negative).
    pub raw: i128,
    /// Issuer cast index (ignored for XRP).
    pub issuer: u8,
}

impl CaseAmount {
    /// Materializes the generated amount.
    fn to_amount(&self, cast_len: u8) -> Amount {
        if self.currency & 3 == 3 {
            Amount::Xrp(Drops::new(self.raw.clamp(0, u64::MAX as i128) as u64))
        } else {
            Amount::Iou(IouAmount::new(
                Value::from_raw(self.raw),
                case_currency(self.currency),
                cast_account(self.issuer % cast_len),
            ))
        }
    }
}

/// One generated operation against the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Submitting cast index.
    pub actor: u8,
    /// Transaction fee in drops.
    pub fee: u64,
    /// Offset added to the account's live sequence (non-zero is hostile:
    /// it must be rejected with `BadSequence`).
    pub seq_skew: u32,
    /// The operation itself.
    pub kind: OpKind,
}

/// The kind-specific payload of an [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Native XRP payment.
    XrpPay {
        /// Destination cast index.
        to: u8,
        /// Amount in drops.
        drops: u64,
    },
    /// Same-currency IOU payment along an explicit (possibly empty) path.
    IouPay {
        /// Destination cast index.
        to: u8,
        /// Currency index.
        currency: u8,
        /// Raw IOU value.
        amount: i128,
        /// Intermediate-hop cast indices.
        path: Vec<u8>,
    },
    /// Trust-line declaration.
    TrustSet {
        /// Trusted cast index.
        trustee: u8,
        /// Currency index.
        currency: u8,
        /// Raw trust limit.
        limit: i128,
    },
    /// Currency-exchange offer.
    OfferCreate {
        /// What the owner gives.
        gets: CaseAmount,
        /// What the owner wants.
        pays: CaseAmount,
    },
    /// Offer withdrawal by sequence number.
    OfferCancel {
        /// Sequence of the offer being cancelled.
        offer_seq: u32,
    },
    /// Flag adjustment (fee-only).
    AccountSet {
        /// Raw flags word.
        flags: u32,
    },
}

/// A full ledger differential case: funded accounts plus an op sequence.
///
/// `genesis[i]` funds cast account `i` with that many drops; one extra
/// ghost index (`genesis.len()`) exists in the cast but is never created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerCasePlan {
    /// Genesis XRP balances in drops, one per funded account.
    pub genesis: Vec<u64>,
    /// Operations applied in order.
    pub ops: Vec<Op>,
}

/// A payment-engine differential case: a trust graph with optional
/// pre-existing debt, then one engine payment checked against the
/// brute-force max-flow oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnginePlan {
    /// Genesis XRP balances in drops.
    pub genesis: Vec<u64>,
    /// Setup trust lines: `(truster, trustee, currency, raw limit)`.
    pub trust: Vec<(u8, u8, u8, i128)>,
    /// Setup debts established via `ripple_hop`:
    /// `(from, to, currency, raw amount)` — infeasible hops are skipped.
    pub hops: Vec<(u8, u8, u8, i128)>,
    /// Paying cast index.
    pub sender: u8,
    /// Receiving cast index.
    pub destination: u8,
    /// Currency index (never XRP).
    pub currency: u8,
    /// Raw amount requested.
    pub amount: i128,
}

/// One router query, optionally preceded by a trust-line mutation so the
/// differ exercises cache invalidation, not just cold routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterQuery {
    /// Paying cast index.
    pub sender: u8,
    /// Receiving cast index.
    pub destination: u8,
    /// Raw amount requested.
    pub amount: i128,
    /// Mutation applied *before* the query: `truster` cast index.
    pub mutate_truster: u8,
    /// Mutation applied *before* the query: `trustee` cast index.
    pub mutate_trustee: u8,
    /// Raw trust limit for the mutation; negative = no mutation.
    pub mutate_limit: i128,
}

/// A router differential case: a trust graph with pre-existing debt, then
/// a stream of route queries interleaved with trust mutations. Each query
/// is answered by a persistent (cache-on) [`ripple_paths::Router`] and
/// checked against a cold search, the max-flow oracle, and a
/// [`ripple_paths::PaymentEngine`] replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterPlan {
    /// Genesis XRP balances in drops.
    pub genesis: Vec<u64>,
    /// Setup trust lines: `(truster, trustee, currency, raw limit)`.
    pub trust: Vec<(u8, u8, u8, i128)>,
    /// Setup debts established via `ripple_hop` — infeasible hops skipped.
    pub hops: Vec<(u8, u8, u8, i128)>,
    /// Queries executed in order against one persistent router.
    pub queries: Vec<RouterQuery>,
    /// Currency index (never XRP).
    pub currency: u8,
}

/// One generated resting offer for the order-book differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookOffer {
    /// Owner cast index.
    pub owner: u8,
    /// Offer identity.
    pub offer_seq: u32,
    /// Raw base value the owner gives.
    pub gets_raw: i128,
    /// Raw quote value the owner wants.
    pub pays_raw: i128,
}

/// An order-book differential case: resting offers plus one fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookPlan {
    /// Offers inserted in order.
    pub offers: Vec<BookOffer>,
    /// Raw base amount the taker buys.
    pub fill_raw: i128,
}

/// A mostly-benign, occasionally hostile raw [`Value`] (zero and negative
/// amounts must be rejected, so they are worth generating).
fn gen_raw_value(rng: &mut StdRng) -> i128 {
    match rng.gen_range(0u8..10) {
        0 => 0,
        1 => -(rng.gen_range(1i128..1_000_000_000)),
        _ => rng.gen_range(1i128..50_000_000),
    }
}

/// A fee that is usually valid, sometimes below the base fee or enormous.
fn gen_fee(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0u8..10) {
        0 => rng.gen_range(0u64..10),
        1 => Drops::from_xrp(rng.gen_range(50u64..100_000)).as_drops(),
        _ => rng.gen_range(10u64..25),
    }
}

/// Generates a ledger differential case: 4–6 funded accounts with mixed
/// balances and `n_ops` weighted operations, roughly a third of which are
/// hostile (bad fees, skewed sequences, ghost destinations, XRP-on-trust,
/// non-positive amounts).
pub fn gen_ledger_plan(seed: u64, n_ops: usize) -> LedgerCasePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1ed6e2);
    let n = rng.gen_range(4usize..=6);
    let genesis: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_range(0u8..4) == 0 {
                // Near the base reserve: fee windows and reserve checks bite.
                Drops::from_xrp(rng.gen_range(20u64..40)).as_drops()
            } else {
                Drops::from_xrp(rng.gen_range(100u64..10_000)).as_drops()
            }
        })
        .collect();
    let ops = (0..n_ops)
        .map(|_| gen_op(&mut rng, n as u8, n_ops))
        .collect();
    LedgerCasePlan { genesis, ops }
}

fn gen_op(rng: &mut StdRng, funded: u8, n_ops: usize) -> Op {
    // `funded` itself indexes the ghost account with small probability.
    let pick = |rng: &mut StdRng| -> u8 {
        if rng.gen_range(0u8..12) == 0 {
            funded
        } else {
            rng.gen_range(0..funded)
        }
    };
    let actor = rng.gen_range(0..funded);
    let fee = gen_fee(rng);
    let seq_skew = if rng.gen_range(0u8..10) == 0 {
        rng.gen_range(1u32..3)
    } else {
        0
    };
    let kind = match rng.gen_range(0u8..12) {
        0..=2 => OpKind::XrpPay {
            to: pick(rng),
            drops: match rng.gen_range(0u8..8) {
                0 => 0,
                1 => Drops::from_xrp(rng.gen_range(5_000u64..1_000_000)).as_drops(),
                _ => Drops::from_xrp(rng.gen_range(1u64..50)).as_drops(),
            },
        },
        3..=5 => {
            let to = pick(rng);
            // A short path that may revisit an account: both ledgers must
            // refuse such a loop, and the post-payment trust-limit check
            // covers every chain they accept.
            let path = (0..rng.gen_range(0usize..3)).map(|_| pick(rng)).collect();
            OpKind::IouPay {
                to,
                currency: rng.gen_range(0u8..5) & 3,
                amount: gen_raw_value(rng),
                path,
            }
        }
        6..=7 => OpKind::TrustSet {
            trustee: pick(rng),
            currency: rng.gen_range(0u8..5) & 3,
            limit: match rng.gen_range(0u8..8) {
                0 => 0,
                1 => -(rng.gen_range(1i128..1_000_000)),
                _ => rng.gen_range(1i128..100_000_000),
            },
        },
        8..=9 => OpKind::OfferCreate {
            gets: CaseAmount {
                currency: rng.gen_range(0u8..5) & 3,
                raw: gen_raw_value(rng),
                issuer: rng.gen_range(0..funded),
            },
            pays: CaseAmount {
                currency: rng.gen_range(0u8..5) & 3,
                raw: gen_raw_value(rng),
                issuer: rng.gen_range(0..funded),
            },
        },
        10 => OpKind::OfferCancel {
            offer_seq: rng.gen_range(1u32..=(n_ops.max(2) as u32)),
        },
        _ => OpKind::AccountSet { flags: rng.gen() },
    };
    Op {
        actor,
        fee,
        seq_skew,
        kind,
    }
}

/// Materializes an [`Op`] into a signed [`Transaction`] against the live
/// sequence number `live_seq` of the actor's account.
///
/// [`Transaction`]: ripple_ledger::Transaction
pub fn op_to_tx(
    op: &Op,
    cast_len: u8,
    live_seq: u32,
    keys: &SimKeypair,
) -> ripple_ledger::Transaction {
    let account = cast_account(op.actor % cast_len);
    let kind = match &op.kind {
        OpKind::XrpPay { to, drops } => TxKind::Payment {
            destination: cast_account(to % cast_len),
            amount: Amount::Xrp(Drops::new(*drops)),
            send_max: None,
            paths: Vec::new(),
        },
        OpKind::IouPay {
            to,
            currency,
            amount,
            path,
        } => TxKind::Payment {
            destination: cast_account(to % cast_len),
            amount: Amount::Iou(IouAmount::new(
                Value::from_raw(*amount),
                case_currency(*currency),
                cast_account(op.actor % cast_len),
            )),
            send_max: None,
            paths: if path.is_empty() {
                Vec::new()
            } else {
                vec![path.iter().map(|&h| cast_account(h % cast_len)).collect()]
            },
        },
        OpKind::TrustSet {
            trustee,
            currency,
            limit,
        } => TxKind::TrustSet {
            trustee: cast_account(trustee % cast_len),
            currency: case_currency(*currency),
            limit: Value::from_raw(*limit),
        },
        OpKind::OfferCreate { gets, pays } => TxKind::OfferCreate {
            taker_gets: gets.to_amount(cast_len),
            taker_pays: pays.to_amount(cast_len),
        },
        OpKind::OfferCancel { offer_seq } => TxKind::OfferCancel {
            offer_seq: *offer_seq,
        },
        OpKind::AccountSet { flags } => TxKind::AccountSet { flags: *flags },
    };
    ripple_ledger::Transaction::build(
        account,
        live_seq.wrapping_add(op.seq_skew),
        Drops::new(op.fee),
        kind,
    )
    .signed(keys)
}

/// Generates a payment-engine case: a random trust graph over 4–6 funded
/// accounts, some pre-existing debt, and one positive IOU payment request.
pub fn gen_engine_plan(seed: u64) -> EnginePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe4619e);
    let n = rng.gen_range(4usize..=6) as u8;
    let genesis: Vec<u64> = (0..n)
        .map(|_| Drops::from_xrp(rng.gen_range(100u64..5_000)).as_drops())
        .collect();
    let currency = rng.gen_range(0u8..3);
    let mut trust = Vec::new();
    for _ in 0..rng.gen_range(4usize..=12) {
        let truster = rng.gen_range(0..n);
        let trustee = rng.gen_range(0..n);
        if truster == trustee {
            continue;
        }
        trust.push((truster, trustee, currency, rng.gen_range(1i128..40_000_000)));
    }
    let mut hops = Vec::new();
    for _ in 0..rng.gen_range(0usize..=6) {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from == to {
            continue;
        }
        hops.push((from, to, currency, rng.gen_range(1i128..20_000_000)));
    }
    let sender = rng.gen_range(0..n);
    let destination = (sender + rng.gen_range(1..n)) % n;
    EnginePlan {
        genesis,
        trust,
        hops,
        sender,
        destination,
        currency,
        amount: rng.gen_range(1i128..30_000_000),
    }
}

/// Generates a router case: a random trust graph over 4–7 funded accounts
/// with pre-existing debt, then 3–10 route queries against one persistent
/// router, roughly a third of them preceded by a trust-line mutation (so
/// stale cache entries would be caught, not coincidentally correct).
pub fn gen_router_plan(seed: u64) -> RouterPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x707e5);
    let n = rng.gen_range(4usize..=7) as u8;
    let genesis: Vec<u64> = (0..n)
        .map(|_| Drops::from_xrp(rng.gen_range(100u64..5_000)).as_drops())
        .collect();
    let currency = rng.gen_range(0u8..3);
    let mut trust = Vec::new();
    for _ in 0..rng.gen_range(5usize..=14) {
        let truster = rng.gen_range(0..n);
        let trustee = rng.gen_range(0..n);
        if truster == trustee {
            continue;
        }
        trust.push((truster, trustee, currency, rng.gen_range(1i128..40_000_000)));
    }
    let mut hops = Vec::new();
    for _ in 0..rng.gen_range(0usize..=6) {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from == to {
            continue;
        }
        hops.push((from, to, currency, rng.gen_range(1i128..20_000_000)));
    }
    let queries = (0..rng.gen_range(3usize..=10))
        .map(|_| {
            let sender = rng.gen_range(0..n);
            let destination = (sender + rng.gen_range(1..n)) % n;
            let mutate = rng.gen_range(0u8..3) == 0;
            RouterQuery {
                sender,
                destination,
                amount: rng.gen_range(1i128..30_000_000),
                mutate_truster: rng.gen_range(0..n),
                mutate_trustee: rng.gen_range(0..n),
                mutate_limit: if mutate {
                    rng.gen_range(0i128..40_000_000)
                } else {
                    -1
                },
            }
        })
        .collect();
    RouterPlan {
        genesis,
        trust,
        hops,
        queries,
        currency,
    }
}

/// Generates an order-book case: 3–10 offers (some unratable) plus a fill.
pub fn gen_book_plan(seed: u64) -> BookPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb00c);
    let offers = (0..rng.gen_range(3usize..=10))
        .map(|i| BookOffer {
            owner: rng.gen_range(0u8..5),
            offer_seq: i as u32 + 1,
            gets_raw: match rng.gen_range(0u8..10) {
                0 => 0,
                1 => -(rng.gen_range(1i128..1_000_000)),
                _ => rng.gen_range(1i128..1_000_000_000_000),
            },
            pays_raw: match rng.gen_range(0u8..10) {
                0 => 0,
                _ => rng.gen_range(1i128..1_000_000_000_000),
            },
        })
        .collect();
    BookPlan {
        offers,
        fill_raw: match rng.gen_range(0u8..10) {
            0 => 0,
            1 => -(rng.gen_range(1i128..1_000_000)),
            _ => rng.gen_range(1i128..2_000_000_000_000),
        },
    }
}
