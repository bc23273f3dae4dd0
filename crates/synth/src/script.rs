//! The scripting stage of the pipelined generator.
//!
//! Generation splits into an embarrassingly parallel *planning* half (every
//! random draw: payment kinds, timestamps, amounts, destination picks, path
//! shapes, offer churn) and a strictly serial *execution* half (applying the
//! planned payments to the live [`ripple_ledger::LedgerState`]). This module
//! implements the planning half as a **payment script**: the history is cut
//! into chunks, each chunk is scripted by its own RNG seeded from
//! `derive_seed(seed, "chunk", index)`, and a chunk's content depends only on
//! the configuration, the (serially built) cast, and the chunk index — never
//! on which worker scripted it or in what order. Any number of workers
//! therefore produces the byte-identical merged script.
//!
//! Page-grid safety: each chunk owns a page-aligned time window that ends one
//! page before its successor's window starts, so no ledger page (and hence no
//! MTL burst or ACCOUNT_ZERO ping-pong pair, which always share a page) ever
//! spans a chunk boundary.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ripple_crypto::{mix128, sha512_half, AccountId, Digest256, FxHashMap, FxHashSet, SimKeypair};
use ripple_ledger::{Currency, Drops, LedgerState, RippleTime, Value};
use ripple_orderbook::{Rate, RateTable};

use crate::cast::Cast;
use crate::config::SynthConfig;
use crate::dist::{Categorical, LogNormal, Zipf};
use crate::generate::{
    amount_for, build_menus, convert, exp_sample, kind_budgets, place_resident_offers,
    sample_route_depth, KindBudgets, MaxOne, OfferChurn, PaymentKind,
};

/// Derives an independent RNG seed from the master seed, a purpose label and
/// an ordinal, by mixing all three through the 128-bit hash. Chunk RNG
/// streams are decorrelated from each other and from the master stream.
pub fn derive_seed(seed: u64, label: &str, n: u64) -> u64 {
    let mut data = Vec::with_capacity(16 + label.len());
    data.extend_from_slice(&seed.to_le_bytes());
    data.extend_from_slice(label.as_bytes());
    data.extend_from_slice(&n.to_le_bytes());
    mix128(&data) as u64
}

/// Precomputed lookup structures over a [`Cast`]: per-community member and
/// gateway lists, the gateway set, the shared samplers and merchant menus.
/// Built once (serially) and shared read-only by every scripting worker, so
/// `pin_to_community` is a map probe, not a cast scan, in the hot loop.
#[derive(Debug)]
pub struct CastIndex {
    /// Per community: member accounts (users first, then merchants).
    pub(crate) members: Vec<Vec<AccountId>>,
    /// Community of every user and merchant.
    pub(crate) community_of: FxHashMap<AccountId, usize>,
    /// Every gateway account (the `apply_hop` membership probe).
    pub(crate) gateway_set: FxHashSet<AccountId>,
    /// Per community: its gateway accounts, in cast order.
    pub(crate) community_gateways: Vec<Vec<AccountId>>,
    pub(crate) user_zipf: Zipf,
    pub(crate) merchant_zipf: Zipf,
    pub(crate) mm_zipf: Zipf,
    pub(crate) parallel_dist: Categorical<usize>,
    pub(crate) iou_mix: Categorical<Currency>,
    pub(crate) churn: OfferChurn,
    pub(crate) menus: HashMap<AccountId, Vec<Value>>,
    pub(crate) rates: RateTable,
}

impl CastIndex {
    /// Builds the index. `menus` must come from the same serial setup
    /// sequence as the cast (see [`crate::pipeline`]).
    pub fn build(
        config: &SynthConfig,
        cast: &Cast,
        menus: HashMap<AccountId, Vec<Value>>,
        rates: RateTable,
    ) -> CastIndex {
        let communities = cast.community_currency.len();
        let mut members = vec![Vec::new(); communities];
        let mut community_of = FxHashMap::default();
        for &(a, c) in cast.users.iter().chain(cast.merchants.iter()) {
            members[c].push(a);
            community_of.insert(a, c);
        }
        let mut gateway_set = FxHashSet::default();
        let mut community_gateways = vec![Vec::new(); communities];
        for g in &cast.gateways {
            gateway_set.insert(g.account);
            community_gateways[g.community].push(g.account);
        }
        CastIndex {
            members,
            community_of,
            gateway_set,
            community_gateways,
            user_zipf: Zipf::new(cast.users.len(), 0.9),
            merchant_zipf: Zipf::new(cast.merchants.len().max(1), 1.0),
            mm_zipf: Zipf::new(cast.market_makers.len(), 1.0),
            parallel_dist: Categorical::new([(1usize, 0.18), (2, 0.17), (3, 0.15), (4, 0.50)]),
            iou_mix: Categorical::new(config.iou_currency_mix()),
            churn: OfferChurn::new(cast, &rates),
            menus,
            rates,
        }
    }
}

/// One scripted offer-churn placement riding alongside a payment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedOffer {
    /// Offer owner (a Market Maker).
    pub owner: AccountId,
    /// Offer identity.
    pub offer_seq: u32,
    /// Sold currency.
    pub base: Currency,
    /// Payment currency.
    pub quote: Currency,
    /// Amount of base offered.
    pub gets: Value,
    /// Amount of quote wanted.
    pub pays: Value,
}

/// One planned payment path: the intermediate hops plus the position of the
/// currency-converting connector within them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedPath {
    /// Intermediate accounts, sender and destination excluded.
    pub hops: Vec<AccountId>,
    /// Index (within `hops`) of the converting connector; legs up to and
    /// including this hop carry the source currency on cross-currency
    /// payments.
    pub conv_at: usize,
}

/// The kind-specific plan of one payment. Everything random is already
/// drawn; the executor only applies ledger effects.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptedBody {
    /// A direct XRP transfer.
    Xrp {
        /// Paying account.
        sender: AccountId,
        /// Receiving account.
        destination: AccountId,
        /// Amount in XRP units.
        amount: Value,
        /// Whether `destination` is a fresh one-time account the executor
        /// must create first.
        fresh_destination: bool,
    },
    /// A gambling bet to the spin service.
    Spin {
        /// The bettor.
        sender: AccountId,
        /// Stake in whole XRP.
        bet: u64,
    },
    /// Outbound leg of the ACCOUNT_ZERO ping-pong (spammer → zero).
    ZeroOut {
        /// Dust amount in millionths.
        dust: Value,
    },
    /// Bounce-back leg (zero → spammer), same ledger page as its outbound.
    ZeroBack {
        /// Dust amount in millionths.
        dust: Value,
    },
    /// One payment of the MTL spam campaign (6 fixed chains of 8 hops).
    Mtl {
        /// The burst's sink account.
        sink: AccountId,
        /// Campaign-scale amount (~1e9 MTL).
        amount: Value,
    },
    /// A (possibly cross-currency, possibly multi-path) IOU payment.
    Iou {
        /// Paying account.
        sender: AccountId,
        /// Receiving account.
        destination: AccountId,
        /// Delivered currency.
        currency: Currency,
        /// Source currency when the payment crosses currencies.
        src_currency: Option<Currency>,
        /// Delivered amount.
        amount: Value,
        /// Per-path delivered share.
        share: Value,
        /// Per-path source-currency share (equals `share` when not cross).
        src_share: Value,
        /// Issuer recorded on the payment.
        issuer: AccountId,
        /// Whether currencies were crossed.
        cross: bool,
        /// Whether this slot came from the CCK budget (the executor never
        /// substitutes the 44-intermediate probe over a CCK slot).
        is_cck: bool,
        /// The planned parallel paths.
        paths: Vec<ScriptedPath>,
    },
}

/// One fully planned payment slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptedPayment {
    /// Close time of the sealing ledger page.
    pub timestamp: RippleTime,
    /// Sequence of the sealing ledger page.
    pub ledger_seq: u32,
    /// Transaction hash (derived from the payment's global index).
    pub tx_hash: Digest256,
    /// Offer-churn placements emitted just before this payment.
    pub offers: Vec<ScriptedOffer>,
    /// The payment plan.
    pub body: ScriptedBody,
}

/// One scripted chunk: a contiguous run of payment slots.
#[derive(Debug, Clone, PartialEq)]
pub struct ScriptChunk {
    /// Chunk ordinal.
    pub index: usize,
    /// Global index of the chunk's first payment.
    pub base_index: usize,
    /// The planned payments, in time order.
    pub entries: Vec<ScriptedPayment>,
}

/// Number of chunks a `payments`-sized history splits into.
pub fn chunk_count(payments: usize, chunk_size: usize) -> usize {
    payments.div_ceil(chunk_size.max(1)).max(1)
}

/// Per-chunk slice of the global kind budgets, by cumulative rounding:
/// chunk `c` gets `floor(B*(c+1)/N) - floor(B*c/N)` of each kind's budget
/// `B`, which telescopes to exactly `B` over all chunks.
fn chunk_budgets(global: &KindBudgets, c: usize, n_chunks: usize) -> KindBudgets {
    KindBudgets {
        counts: global
            .counts
            .iter()
            .map(|&(kind, total)| (kind, total * (c + 1) / n_chunks - total * c / n_chunks))
            .collect(),
    }
}

/// Global index of chunk `c`'s first payment (sum of all earlier chunks'
/// budgets, computable without scripting them).
fn chunk_base_index(global: &KindBudgets, c: usize, n_chunks: usize) -> usize {
    global
        .counts
        .iter()
        .map(|&(_, total)| total * c / n_chunks)
        .sum()
}

/// Chunk `c`'s page-aligned time window `[start, end]` (both inclusive
/// instants on the page grid). Windows of consecutive chunks are separated
/// by at least one page.
fn chunk_window(config: &SynthConfig, c: usize, n_chunks: usize) -> (RippleTime, RippleTime) {
    let page = config.page_interval_secs.max(1);
    let span = config.end.seconds().saturating_sub(config.start.seconds());
    let aligned = |offset: u64| config.start.seconds() + offset / page * page;
    let w = |i: usize| aligned(span * i as u64 / n_chunks as u64);
    let start = w(c);
    let end = if c + 1 == n_chunks {
        aligned(span)
    } else {
        w(c + 1).saturating_sub(page)
    };
    (
        RippleTime::from_seconds(start),
        RippleTime::from_seconds(end.max(start)),
    )
}

/// Simulated-account derivation for one-time and probe accounts.
pub(crate) fn account_from_seed(seed: &str) -> AccountId {
    AccountId::from_public_key(&SimKeypair::from_seed(seed.as_bytes()).public_key())
}

/// Scripts chunk `c` of `n_chunks`. Pure: depends only on `(config, cast,
/// index, c, n_chunks)`, so any worker may script any chunk.
pub fn build_chunk(
    config: &SynthConfig,
    cast: &Cast,
    index: &CastIndex,
    c: usize,
    n_chunks: usize,
) -> ScriptChunk {
    let global = kind_budgets(config);
    let mut budgets = chunk_budgets(&global, c, n_chunks);
    let total: usize = budgets.counts.iter().map(|&(_, n)| n).sum();
    let base_index = chunk_base_index(&global, c, n_chunks);
    let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, "chunk", c as u64));

    let page = config.page_interval_secs.max(1);
    let (w_start, w_end) = chunk_window(config, c, n_chunks);
    let mut now = w_start;
    let mut advances = 1u64;

    let mut habits: HashMap<AccountId, Vec<(AccountId, Value)>> = HashMap::new();
    let mut burst_left = 0usize;
    let mut burst_kind = PaymentKind::XrpRegular;
    let mut zero_outbound = true;
    let mut mtl_sink = cast.mtl_sinks[0];
    let mut onetime_counter = 0u64;

    let mut entries: Vec<ScriptedPayment> = Vec::with_capacity(total);
    while entries.len() < total {
        // Pick the kind, possibly continuing a spam burst; every draw
        // consumes the kind's budget so fractions stay exact.
        let kind = if burst_left > 0 && budgets.take(burst_kind) {
            burst_left -= 1;
            burst_kind
        } else {
            burst_left = 0;
            let k = budgets.draw(&mut rng);
            match k {
                PaymentKind::Mtl => {
                    burst_kind = k;
                    // ~1/3 of spam pages carry a single payment; the rest
                    // are bursts sharing one page and one sink.
                    burst_left = if rng.gen_bool(0.35) {
                        0
                    } else {
                        rng.gen_range(2..9)
                    };
                    mtl_sink = cast.mtl_sinks[rng.gen_range(0..cast.mtl_sinks.len())];
                }
                PaymentKind::XrpZeroBounce | PaymentKind::XrpSpin => {
                    burst_kind = k;
                    burst_left = rng.gen_range(2..10);
                }
                _ => {}
            }
            k
        };

        // Chunk-local adaptive pacing, bounded by the chunk window (bursts
        // and ping-pong bounces stay on the current page, so pages never
        // straddle chunks). The gap mean is recomputed from the remaining
        // span and the observed advance rate, so the chunk reaches `w_end`.
        let in_burst = burst_left > 0;
        let same_page = (in_burst && burst_kind == PaymentKind::Mtl)
            || (kind == PaymentKind::XrpZeroBounce && !zero_outbound)
            || rng.gen_bool(config.same_page_prob);
        if !same_page {
            let remaining_payments = (total - entries.len()).max(1) as f64;
            let advance_rate = (advances as f64 / (entries.len().max(1) as f64)).clamp(0.05, 1.0);
            let remaining_span = (w_end.seconds().saturating_sub(now.seconds())) as f64;
            let mean_gap = (remaining_span / (remaining_payments * advance_rate)).max(1.0);
            let mut gap = exp_sample(&mut rng, mean_gap).max(page as f64);
            // Cap the jump so the expected remaining advances still fit in
            // the window. Without the cap one long exponential draw near
            // `w_end` pushes `now` past it, after which the clamp below
            // re-fires on every later draw and stamps the rest of the chunk
            // onto its final page.
            let expected_advances = (remaining_payments * advance_rate).max(1.0);
            let reserve = ((expected_advances - 1.0) * page as f64).min(remaining_span);
            gap = gap.min((remaining_span - reserve).max(page as f64));
            let quantized = (gap as u64 / page) * page;
            now = now.plus_seconds(quantized.max(page));
            advances += 1;
        }
        if now > w_end {
            now = w_end;
        }
        let ledger_seq = ((now.seconds() - config.start.seconds()) / page) as u32 + 1;

        let offers = script_churn(config, index, &mut rng);

        let body = match kind {
            PaymentKind::XrpRegular => {
                let sender = cast.users[index.user_zipf.sample(&mut rng)].0;
                if rng.gen_bool(0.38) {
                    onetime_counter += 1;
                    let destination = account_from_seed(&format!("onetime:c{c}:{onetime_counter}"));
                    ScriptedBody::Xrp {
                        sender,
                        destination,
                        amount: amount_for(Currency::XRP, &mut rng),
                        fresh_destination: true,
                    }
                } else {
                    let (destination, amount) = pick_destination_and_amount(
                        config,
                        cast,
                        index,
                        sender,
                        Currency::XRP,
                        &mut habits,
                        &mut rng,
                    );
                    ScriptedBody::Xrp {
                        sender,
                        destination,
                        amount,
                        fresh_destination: false,
                    }
                }
            }
            PaymentKind::XrpSpin => {
                const BETS: [u64; 6] = [1, 2, 5, 10, 20, 50];
                ScriptedBody::Spin {
                    sender: cast.users[index.user_zipf.sample(&mut rng)].0,
                    bet: BETS[rng.gen_range(0..BETS.len())],
                }
            }
            PaymentKind::XrpZeroBounce => {
                let outbound = zero_outbound;
                zero_outbound = !zero_outbound;
                let dust = Value::from_raw(rng.gen_range(1..=10i128));
                if outbound {
                    ScriptedBody::ZeroOut { dust }
                } else {
                    ScriptedBody::ZeroBack { dust }
                }
            }
            PaymentKind::Mtl => ScriptedBody::Mtl {
                sink: mtl_sink,
                amount: Value::from_f64(rng.gen_range(0.92e9..1.12e9)),
            },
            PaymentKind::Cck => script_iou(
                config,
                cast,
                index,
                Some(Currency::CCK),
                &mut habits,
                &mut rng,
            ),
            PaymentKind::Iou => script_iou(config, cast, index, None, &mut habits, &mut rng),
        };

        let global_index = base_index + entries.len();
        entries.push(ScriptedPayment {
            timestamp: now,
            ledger_seq,
            tx_hash: sha512_half(format!("synth-tx:{global_index}").as_bytes()),
            offers,
            body,
        });
    }

    ScriptChunk {
        index: c,
        base_index,
        entries,
    }
}

/// Scripts the offer churn riding alongside one payment slot.
fn script_churn(config: &SynthConfig, index: &CastIndex, rng: &mut StdRng) -> Vec<ScriptedOffer> {
    let mut out = Vec::new();
    let mut budget = config.offers_per_payment;
    while budget > 0.0 {
        if budget < 1.0 && !rng.gen_bool(budget) {
            break;
        }
        budget -= 1.0;
        let owner = index.churn.makers[index.mm_zipf.sample(rng)];
        let (base, quote) = index.churn.pairs[rng.gen_range(0..index.churn.pairs.len())];
        let Some(mid) = index.churn.rates.cross(base, quote) else {
            continue;
        };
        let spread = Rate::new(10_000 + rng.gen_range(5..200), 10_000);
        let rate = mid.compose(&spread);
        let gets = Value::from_f64(LogNormal::with_median(500.0, 1.5).sample(rng));
        let pays = rate.apply(gets.max_one());
        out.push(ScriptedOffer {
            owner,
            offer_seq: rng.gen::<u32>() | 1,
            base,
            quote,
            gets: gets.max_one(),
            pays: pays.max_one(),
        });
    }
    out
}

/// Scripts one IOU payment (forced CCK or free): a same-community payment
/// through one or two shared gateways, or a routed payment through
/// Market-Maker / hub connectors at a drawn depth and parallel-path count.
fn script_iou(
    config: &SynthConfig,
    cast: &Cast,
    index: &CastIndex,
    forced_currency: Option<Currency>,
    habits: &mut HashMap<AccountId, Vec<(AccountId, Value)>>,
    rng: &mut StdRng,
) -> ScriptedBody {
    let (sender, sender_community) = cast.users[index.user_zipf.sample(rng)];
    let src_currency = cast.community_currency[sender_community];
    // Degenerate casts (no community with a different home currency) would
    // make the cross rejection-sampling loop below spin forever; demote
    // cross *after* the draw so multi-currency rng streams are unchanged.
    let cross = forced_currency.is_none()
        && rng.gen_bool(config.cross_currency_prob)
        && cast
            .community_currency
            .iter()
            .any(|&cur| cur != src_currency);
    let is_cck = forced_currency == Some(Currency::CCK);

    if !cross && rng.gen_bool(config.same_community_fraction) {
        let currency = forced_currency.unwrap_or(src_currency);
        let (destination, amount) =
            pick_destination_and_amount(config, cast, index, sender, currency, habits, rng);
        let destination = pin_to_community(index, destination, sender, sender_community, rng);
        let gws = &index.community_gateways[sender_community];
        let k = if rng.gen_bool(0.3) {
            2.min(gws.len())
        } else {
            1
        };
        let share = Value::from_raw(amount.raw() / k as i128).max_one();
        let paths = gws
            .iter()
            .take(k)
            .map(|&gw| ScriptedPath {
                hops: vec![gw],
                conv_at: 0,
            })
            .collect();
        return ScriptedBody::Iou {
            sender,
            destination,
            currency,
            src_currency: None,
            amount,
            share,
            src_share: share,
            issuer: gws[0],
            cross: false,
            is_cck,
            paths,
        };
    }

    // Routed payment (cross-community and/or cross-currency).
    let (dst_community, dst_currency) = if cross {
        loop {
            let cm = rng.gen_range(0..cast.community_currency.len());
            let cur = cast.community_currency[cm];
            if cur != src_currency {
                break (cm, cur);
            }
        }
    } else {
        match cast.partner_community(sender_community) {
            Some(cm) => (cm, forced_currency.unwrap_or(src_currency)),
            None => (sender_community, forced_currency.unwrap_or(src_currency)),
        }
    };
    // A share of cross-currency traffic delivers one of Figure 4's
    // long-tail currencies instead of the destination community's home
    // money (issued on demand by the destination's gateway).
    let currency = forced_currency.unwrap_or_else(|| {
        if cross && rng.gen_bool(0.45) {
            let tail = *index.iou_mix.sample(rng);
            if tail == src_currency {
                dst_currency
            } else {
                tail
            }
        } else {
            dst_currency
        }
    });
    let (destination, amount) =
        pick_destination_and_amount(config, cast, index, sender, currency, habits, rng);
    let destination = pin_to_community(index, destination, sender, dst_community, rng);

    let gw_a = index.community_gateways[sender_community][0];
    let gw_b = index.community_gateways[dst_community][0];

    let hub_possible = !cross
        && cast.in_hub_region(sender_community)
        && cast.in_hub_region(dst_community)
        && sender_community != dst_community;
    let k = *index.parallel_dist.sample(rng);
    let share = Value::from_raw(amount.raw() / k as i128).max_one();
    let src_amount = if cross {
        convert(&index.rates, currency, src_currency, amount)
    } else {
        amount
    };
    let src_share = Value::from_raw(src_amount.raw() / k as i128).max_one();
    // Route depth: the number of intermediate hops, drawn from the
    // decreasing trend of Fig. 6(a) (the 8-hop spike is the MTL campaign,
    // scripted separately; a tail reaches 11).
    let depth = sample_route_depth(rng);

    let mut paths = Vec::with_capacity(k);
    for slot in 0..k {
        let connector = if hub_possible && slot < 2 && rng.gen_bool(0.4) {
            cast.hubs[slot % 2]
        } else {
            cast.market_makers[index.mm_zipf.sample(rng)]
        };
        // Build `depth` intermediates around the converting connector:
        //   1 => [conn]
        //   2 => [gwA, conn]
        //   d => [gwA, conn, (extra connectors…), gwB]
        let mut hops: Vec<AccountId> = Vec::with_capacity(depth);
        if depth >= 2 {
            hops.push(gw_a);
        }
        hops.push(connector);
        if depth >= 3 {
            let mut extras = depth - 3;
            while extras > 0 {
                let extra = cast.market_makers[index.mm_zipf.sample(rng)];
                if !hops.contains(&extra) {
                    hops.push(extra);
                    extras -= 1;
                }
            }
            if gw_b != gw_a && !hops.contains(&gw_b) {
                hops.push(gw_b);
            } else {
                // Degenerate same-gateway pair: pad with one more
                // connector to keep the drawn depth.
                let mut pad = cast.market_makers[index.mm_zipf.sample(rng)];
                while hops.contains(&pad) {
                    pad = cast.market_makers[index.mm_zipf.sample(rng)];
                }
                hops.push(pad);
            }
        }
        // The source-currency legs run sender→…→connector, the
        // delivered-currency legs connector→…→destination: the connector
        // (Market Maker or hub) converts internally.
        let conv_at = hops
            .iter()
            .position(|h| *h == connector)
            .expect("connector is on the path");
        paths.push(ScriptedPath { hops, conv_at });
    }

    ScriptedBody::Iou {
        sender,
        destination,
        currency,
        src_currency: cross.then_some(src_currency),
        amount,
        share,
        src_share,
        issuer: gw_b,
        cross,
        is_cck,
        paths,
    }
}

/// Picks a destination and amount, applying merchant menus and chunk-local
/// repeat habits (the structure the de-anonymization study exploits).
fn pick_destination_and_amount(
    config: &SynthConfig,
    cast: &Cast,
    index: &CastIndex,
    sender: AccountId,
    currency: Currency,
    habits: &mut HashMap<AccountId, Vec<(AccountId, Value)>>,
    rng: &mut StdRng,
) -> (AccountId, Value) {
    if let Some(pairs) = habits.get(&sender) {
        if !pairs.is_empty() && rng.gen_bool(config.habit_prob) {
            let &(dest, amount) = &pairs[rng.gen_range(0..pairs.len())];
            if dest != sender {
                return (dest, amount);
            }
        }
    }
    let merchant = !cast.merchants.is_empty() && rng.gen_bool(0.4);
    let (dest, amount) = if merchant {
        let (m, _) = cast.merchants[index.merchant_zipf.sample(rng)];
        let menu = &index.menus[&m];
        (m, menu[rng.gen_range(0..menu.len())])
    } else {
        let mut dest = cast.users[index.user_zipf.sample(rng)].0;
        let mut guard = 0;
        while dest == sender {
            dest = cast.users[(index.user_zipf.sample(rng) + guard) % cast.users.len()].0;
            guard += 1;
            if guard > cast.users.len() {
                break;
            }
        }
        (dest, amount_for(currency, rng))
    };
    let entry = habits.entry(sender).or_default();
    if entry.len() < 3 {
        entry.push((dest, amount));
    }
    (dest, amount)
}

/// Keeps `candidate` if it already belongs to `community`; otherwise draws
/// a member of the community, in O(1) over the precomputed member lists.
fn pin_to_community(
    index: &CastIndex,
    candidate: AccountId,
    exclude: AccountId,
    community: usize,
    rng: &mut StdRng,
) -> AccountId {
    if index.community_of.get(&candidate) == Some(&community) && candidate != exclude {
        return candidate;
    }
    let members = &index.members[community];
    if members.is_empty() {
        return candidate;
    }
    let i = rng.gen_range(0..members.len());
    let pick = members[i];
    if pick != exclude {
        pick
    } else if members.len() > 1 {
        members[(i + 1) % members.len()]
    } else {
        candidate
    }
}

/// Scripts the whole history across `workers` threads and returns the
/// chunks in index order. The result is byte-identical for any `workers`
/// value — workers only affect which thread scripts which chunk.
pub fn build_script(
    config: &SynthConfig,
    cast: &Cast,
    index: &CastIndex,
    workers: usize,
    chunk_size: usize,
) -> Vec<ScriptChunk> {
    let n_chunks = chunk_count(config.payments, chunk_size);
    let workers = workers.max(1).min(n_chunks);
    let cursor = AtomicUsize::new(0);
    let mut chunks: Vec<Option<ScriptChunk>> = Vec::new();
    chunks.resize_with(n_chunks, || None);

    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            handles.push(s.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    local.push(build_chunk(config, cast, index, c, n_chunks));
                }
                local
            }));
        }
        for handle in handles {
            for chunk in handle.join().expect("scripting worker panicked") {
                let slot = chunk.index;
                chunks[slot] = Some(chunk);
            }
        }
    });

    chunks
        .into_iter()
        .map(|c| c.expect("every chunk scripted"))
        .collect()
}

/// Convenience for tests and tools: performs the pipelined generator's
/// serial setup (cast, resident offers, menus) and scripts the whole
/// history with `workers` threads. Returns the cast and the chunks in
/// index order.
pub fn plan_history(
    config: &SynthConfig,
    workers: usize,
    chunk_size: usize,
) -> (Cast, Vec<ScriptChunk>) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut state = LedgerState::new();
    let mut events = Vec::new();
    let cast = Cast::build(config, &mut state, &mut events, &mut rng);
    let rates = RateTable::eur_2015();
    let treasury = AccountId::from_bytes([0xFE; 20]);
    state.create_account(treasury, Drops::from_xrp(50_000_000_000));
    place_resident_offers(config, &cast, &rates, &mut state, &mut events, &mut rng);
    let menus = build_menus(&cast, &mut rng);
    let index = CastIndex::build(config, &cast, menus, rates);
    let chunks = build_script(config, &cast, &index, workers, chunk_size);
    (cast, chunks)
}
