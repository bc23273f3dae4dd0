//! E18 — credit-network liquidity suite over the synthetic trust graph.
//!
//! The paper's Table II asks one adversarial question — what happens to
//! payment deliverability when every Market Maker leaves at once. This
//! module generalizes that probe into a liquidity scenario engine driven
//! by the capacity-aware router ([`ripple_paths::Router`]):
//!
//! * **Health metrics** — per-currency trust extended and IOU debt
//!   outstanding, plus per-gateway issuance, measured directly off the
//!   executed final ledger state.
//! * **Redeemability probes** — for each gateway, can its IOU holders
//!   actually route their claims back to the issuer?
//! * **Gateway insolvency cascade** — sever gateways in descending
//!   issuance order, wave by wave, and re-measure deliverability of a
//!   fixed probe stream after each wave.
//! * **Trust-line drain** — push every trust line toward its limit at
//!   parameterized fractions and measure how delivery degrades as slack
//!   disappears from the credit network.
//! * **Market-Maker exit waves** — the Table II replay
//!   ([`ripple_analytics::mm_removal_replay`]) generalized from a single
//!   all-at-once removal to a parameterized sequence of cumulative exit
//!   waves over the same post-snapshot payment window.
//!
//! Alongside the scenario campaigns, the suite benchmarks the router
//! against the brute-force max-flow oracle
//! ([`ripple_check::oracle::max_deliverable_sparse`]) on a sample of the
//! same query stream: the oracle is the ground truth the router must
//! never exceed, and the per-query speedup is the headline number in
//! `BENCH_liquidity.json`.
//!
//! # Two lanes
//!
//! The baseline probes, `currency_health` and `gateway_health` run
//! first, because the cascade severs gateways in issuance order. The
//! campaigns after them read only the final state, the snapshot and the
//! probe stream, so [`run_liquidity`] runs them in two fixed lanes under
//! one `std::thread::scope`: the calling thread runs the exit waves one
//! after another, and one scoped worker runs the insolvency cascade and
//! then the drain points. The lanes are fixed by job kind rather than fed
//! from a shared queue, which bounds memory. Each exit wave replays on its
//! own copy of the snapshot, and only the caller runs them, so two exit
//! waves never overlap and at most one snapshot copy is alive; the same
//! holds for the worker's copies of the final state. Each lane fills its
//! own list in config order, so the report equals a serial run's. A worker
//! panic is re-raised on the caller.
//!
//! # Determinism
//!
//! [`LiquidityReport`] and its [`LiquidityReport::to_json`] rendering are
//! pure functions of `(SynthOutput, LiquidityConfig)`: probe streams come
//! from [`ripple_synth::payment_probes`] (seeded), every aggregation is
//! an order-independent integer sum or an explicitly sorted list, and no
//! timing data enters the report. Wall-clock measurements live in the
//! separate [`LiquidityPerf`] so the report bytes stay stable across
//! hosts, repeats, and pipeline worker counts.

use std::collections::BTreeMap;
use std::time::Instant;

use ripple_analytics::mm_removal_replay;
use ripple_check::oracle::max_deliverable_sparse;
use ripple_crypto::AccountId;
use ripple_ledger::{Currency, LedgerState, Value};
use ripple_obs::json::JsonWriter;
use ripple_obs::span;
use ripple_paths::{PathLimits, Router, RouterStats};
use ripple_synth::probes::{payment_probes, PaymentProbe};
use ripple_synth::SynthOutput;

/// Tuning knobs for the liquidity suite.
#[derive(Debug, Clone)]
pub struct LiquidityConfig {
    /// Number of scripted payment probes in the measurement stream.
    pub probes: usize,
    /// Seed for the probe stream (independent of the history seed).
    pub seed: u64,
    /// How many probes (a prefix of the stream) are also answered by the
    /// brute-force max-flow oracle for the agreement check and the
    /// throughput comparison.
    pub oracle_sample: usize,
    /// Number of waves in the gateway insolvency cascade.
    pub insolvency_waves: usize,
    /// Drain fractions, in percent of remaining trust-line headroom.
    pub drain_percents: Vec<u32>,
    /// Number of cumulative Market-Maker exit waves.
    pub exit_waves: usize,
    /// IOU holders probed for redeemability per gateway.
    pub redeem_holders_per_gateway: usize,
    /// Path-search limits for every router in the suite.
    pub limits: PathLimits,
}

impl Default for LiquidityConfig {
    fn default() -> Self {
        LiquidityConfig {
            probes: 2_048,
            seed: 18,
            oracle_sample: 48,
            insolvency_waves: 4,
            drain_percents: vec![25, 50, 75, 90],
            exit_waves: 4,
            redeem_holders_per_gateway: 6,
            limits: PathLimits::default(),
        }
    }
}

/// Per-currency credit-network health, measured off the ledger state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurrencyHealth {
    /// The currency.
    pub currency: Currency,
    /// Trust lines extended in this currency.
    pub trust_lines: u64,
    /// Total trust extended (sum of limits), in raw `Value` units.
    pub trust_total: i128,
    /// Total IOU debt outstanding (sum of absolute pair balances), raw.
    pub iou_outstanding: i128,
}

/// Per-gateway issuance and redeemability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayHealth {
    /// Gateway name (the Fig. 7a labels).
    pub name: String,
    /// The currency the gateway principally issues.
    pub currency: Currency,
    /// Outstanding issuance: debt the gateway owes across all currencies,
    /// in raw `Value` units.
    pub issued: i128,
    /// IOU holders probed for redeemability.
    pub holders_probed: u64,
    /// Holders whose full claim routes back to the gateway.
    pub fully_redeemable: u64,
}

/// Deliverability of the fixed probe stream against one network state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryPoint {
    /// Probes whose full amount is deliverable.
    pub fully_deliverable: u64,
    /// Probes where some, but not all, of the amount is deliverable.
    pub partially_deliverable: u64,
    /// Probes with no deliverable liquidity at all.
    pub undeliverable: u64,
    /// Total deliverable value, capped at each probe's requested amount,
    /// in raw `Value` units.
    pub deliverable_raw: i128,
}

/// One wave of the gateway insolvency cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsolvencyWave {
    /// Gateways severed so far (cumulative).
    pub gateways_severed: u64,
    /// Probe-stream deliverability after this wave.
    pub delivery: DeliveryPoint,
}

/// Deliverability at one trust-line drain fraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPoint {
    /// Percent of remaining trust-line headroom consumed by debt.
    pub drain_percent: u32,
    /// Probe-stream deliverability at this drain level.
    pub delivery: DeliveryPoint,
}

/// One cumulative Market-Maker exit wave (generalized Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitWave {
    /// Market Makers severed so far (cumulative).
    pub makers_severed: u64,
    /// Resting offers stripped from the snapshot.
    pub offers_stripped: u64,
    /// Cross-currency payments submitted in the replay window.
    pub cross_submitted: u64,
    /// Cross-currency payments still delivered.
    pub cross_delivered: u64,
    /// Single-currency payments submitted.
    pub single_submitted: u64,
    /// Single-currency payments still delivered.
    pub single_delivered: u64,
}

/// Summary of the probe stream against the unmodified final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeSummary {
    /// Probes issued.
    pub probes: u64,
    /// Total requested value, raw.
    pub requested_raw: i128,
    /// Baseline deliverability.
    pub delivery: DeliveryPoint,
    /// Probes cross-checked against the max-flow oracle.
    pub oracle_checked: u64,
    /// Probes where the router claimed more than the oracle's max flow
    /// (must be zero; the differential `router` target enforces this at
    /// small scale, this field witnesses it at benchmark scale).
    pub oracle_violations: u64,
}

/// The deterministic liquidity report — everything in
/// `BENCH_liquidity.json` except wall-clock timings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiquidityReport {
    /// Accounts in the final state.
    pub accounts: u64,
    /// Trust lines in the final state.
    pub trust_lines: u64,
    /// Probe-stream seed.
    pub probe_seed: u64,
    /// Per-currency health, sorted by currency code.
    pub health: Vec<CurrencyHealth>,
    /// Per-gateway issuance and redeemability, sorted by name.
    pub gateways: Vec<GatewayHealth>,
    /// Probe stream summary against the unmodified state.
    pub probe_summary: ProbeSummary,
    /// Gateway insolvency cascade, wave by wave.
    pub insolvency_cascade: Vec<InsolvencyWave>,
    /// Trust-line drain curve.
    pub trust_drain: Vec<DrainPoint>,
    /// Market-Maker exit waves (empty when the run has no snapshot).
    pub mm_exit_waves: Vec<ExitWave>,
}

/// Wall-clock measurements for the router-vs-oracle comparison. Kept out
/// of [`LiquidityReport`] so the report stays byte-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiquidityPerf {
    /// Router queries timed (the full probe stream).
    pub router_queries: u64,
    /// Wall time for the router over the probe stream, seconds.
    pub router_secs: f64,
    /// Oracle queries timed (the sampled prefix).
    pub oracle_queries: u64,
    /// Wall time for the oracle over the sample, seconds.
    pub oracle_secs: f64,
    /// Per-query speedup: oracle seconds-per-query over router
    /// seconds-per-query.
    pub speedup: f64,
    /// Cache statistics from the suite's primary (final-state) router.
    pub router_stats: RouterStats,
}

/// The suite's full outcome: deterministic report plus timings.
#[derive(Debug, Clone)]
pub struct LiquidityOutcome {
    /// The deterministic report.
    pub report: LiquidityReport,
    /// Wall-clock measurements.
    pub perf: LiquidityPerf,
}

/// Measures the probe stream's deliverability against `state` through
/// `router`.
fn measure(state: &LedgerState, router: &mut Router, probes: &[PaymentProbe]) -> DeliveryPoint {
    let mut point = DeliveryPoint::default();
    for p in probes {
        let capacity = router.deliverable(state, p.sender, p.destination, p.currency);
        let got = if capacity > p.amount {
            p.amount
        } else {
            capacity
        };
        let got = if got.is_negative() { Value::ZERO } else { got };
        if got >= p.amount {
            point.fully_deliverable += 1;
        } else if got.is_positive() {
            point.partially_deliverable += 1;
        } else {
            point.undeliverable += 1;
        }
        point.deliverable_raw += got.raw();
    }
    point
}

/// `state` with every trust line pushed `percent`% of its headroom toward
/// its limit: the truster's claim on the trustee grows by that share.
/// Drains are not cumulative — 50% means half the *original* headroom — so
/// every debt is computed from the undrained `state`. Both lines of a pair
/// live in one record, which moves once by their net: a mutual pair drains
/// the same whichever line is read first, and no record is created.
fn drain(state: &LedgerState, percent: u32) -> LedgerState {
    let debt = |limit: Value, headroom: Value| {
        if limit.is_positive() && headroom.is_positive() {
            headroom.mul_ratio(percent as u64, 100)
        } else {
            Value::ZERO
        }
    };
    let mut drained = state.clone();
    for r in state.ripple_states() {
        // `low`'s claim grows by its own drain and shrinks by `high`'s.
        let net = debt(r.low_limit, r.low_limit - r.balance)
            - debt(r.high_limit, r.high_limit + r.balance);
        if !net.is_zero() {
            drained.adjust_pair_balance(r.low, r.high, r.currency, net);
        }
    }
    drained
}

/// Per-currency health metrics off one pass over the trust graph.
fn currency_health(state: &LedgerState) -> Vec<CurrencyHealth> {
    let mut by_currency: BTreeMap<Currency, CurrencyHealth> = BTreeMap::new();
    for line in state.trust_lines() {
        let entry = by_currency
            .entry(line.currency)
            .or_insert_with(|| CurrencyHealth {
                currency: line.currency,
                trust_lines: 0,
                trust_total: 0,
                iou_outstanding: 0,
            });
        entry.trust_lines += 1;
        entry.trust_total += line.limit.raw();
    }
    for (_, _, currency, balance) in state.pair_balances() {
        let entry = by_currency
            .entry(currency)
            .or_insert_with(|| CurrencyHealth {
                currency,
                trust_lines: 0,
                trust_total: 0,
                iou_outstanding: 0,
            });
        entry.iou_outstanding += balance.raw().abs();
    }
    by_currency.into_values().collect()
}

/// Gateway issuance plus redeemability probes through `router`.
fn gateway_health(
    output: &SynthOutput,
    router: &mut Router,
    holders_per_gateway: usize,
) -> Vec<GatewayHealth> {
    let state = &output.final_state;
    let gateway_set: BTreeMap<AccountId, usize> = output
        .cast
        .gateways
        .iter()
        .enumerate()
        .map(|(i, g)| (g.account, i))
        .collect();
    // One pass over the pair balances: accumulate each gateway's debt and
    // its holder list in the gateway's home currency.
    let mut issued: Vec<i128> = vec![0; output.cast.gateways.len()];
    let mut holders: Vec<Vec<(AccountId, Value)>> = vec![Vec::new(); output.cast.gateways.len()];
    for (low, high, currency, balance) in state.pair_balances() {
        // Positive balance: `low` holds `high`'s debt; negative: the
        // reverse. Tally debt against the debtor when it is a gateway.
        let (debtor, holder, claim) = if balance.is_positive() {
            (high, low, balance)
        } else if balance.is_negative() {
            (low, high, -balance)
        } else {
            continue;
        };
        if let Some(&i) = gateway_set.get(&debtor) {
            issued[i] += claim.raw();
            if currency == output.cast.gateways[i].home_currency {
                holders[i].push((holder, claim));
            }
        }
    }
    let mut out: Vec<GatewayHealth> = Vec::with_capacity(output.cast.gateways.len());
    for (i, gateway) in output.cast.gateways.iter().enumerate() {
        let mut holder_list = std::mem::take(&mut holders[i]);
        holder_list.sort_by_key(|&(account, _)| account);
        holder_list.truncate(holders_per_gateway);
        let mut fully_redeemable = 0u64;
        for &(holder, claim) in &holder_list {
            let capacity =
                router.deliverable(state, holder, gateway.account, gateway.home_currency);
            if capacity >= claim {
                fully_redeemable += 1;
            }
        }
        out.push(GatewayHealth {
            name: gateway.name.clone(),
            currency: gateway.home_currency,
            issued: issued[i],
            holders_probed: holder_list.len() as u64,
            fully_redeemable,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Gateway insolvency cascade: sever `order` wave by wave on a single
/// copy of `state`, measuring after each wave.
fn insolvency_cascade(
    state: &LedgerState,
    order: &[AccountId],
    config: &LiquidityConfig,
    probes: &[PaymentProbe],
) -> Vec<InsolvencyWave> {
    let mut waves = Vec::new();
    if config.insolvency_waves == 0 || order.is_empty() {
        return waves;
    }
    let mut cascade_state = state.clone();
    let mut cascade_router = Router::new(config.limits);
    let per_wave = order.len().div_ceil(config.insolvency_waves);
    let mut severed = 0usize;
    while severed < order.len() {
        let _span = span("liquidity", "insolvency_wave");
        let next = (severed + per_wave).min(order.len());
        cascade_state.sever_accounts(&order[severed..next]);
        severed = next;
        waves.push(InsolvencyWave {
            gateways_severed: severed as u64,
            delivery: measure(&cascade_state, &mut cascade_router, probes),
        });
    }
    waves
}

/// Trust-line drain curve: one drained copy of `state` and one router per
/// fraction, each freed before the next fraction is drained.
fn trust_drain(
    state: &LedgerState,
    config: &LiquidityConfig,
    probes: &[PaymentProbe],
) -> Vec<DrainPoint> {
    config
        .drain_percents
        .iter()
        .map(|&percent| {
            let _span = span("liquidity", "drain_point");
            let drained = drain(state, percent);
            let mut drain_router = Router::new(config.limits);
            DrainPoint {
                drain_percent: percent,
                delivery: measure(&drained, &mut drain_router, probes),
            }
        })
        .collect()
}

/// Market-Maker exit waves: cumulative prefixes of the cast's Market
/// Makers through the Table II replay, one after another (each replay
/// works on its own copy of the snapshot). The final wave (all makers)
/// coincides with `Study::table2`. Empty when the run has no snapshot.
fn exit_waves(output: &SynthOutput, config: &LiquidityConfig) -> Vec<ExitWave> {
    let mut waves = Vec::new();
    let Some((at, snapshot)) = &output.snapshot else {
        return waves;
    };
    let makers = &output.cast.market_makers;
    if config.exit_waves == 0 || makers.is_empty() {
        return waves;
    }
    let per_wave = makers.len().div_ceil(config.exit_waves);
    let mut severed = per_wave.min(makers.len());
    loop {
        let _span = span("liquidity", "exit_wave");
        let window = output.payments().filter(|p| {
            p.timestamp >= *at
                && !p.currency.is_xrp()
                && p.currency != Currency::MTL
                && p.currency != Currency::CCK
        });
        let report = mm_removal_replay(snapshot, &makers[..severed], window);
        waves.push(ExitWave {
            makers_severed: severed as u64,
            offers_stripped: report.offers_stripped as u64,
            cross_submitted: report.stats.cross_submitted,
            cross_delivered: report.stats.cross_delivered,
            single_submitted: report.stats.single_submitted,
            single_delivered: report.stats.single_delivered,
        });
        if severed == makers.len() {
            return waves;
        }
        severed = (severed + per_wave).min(makers.len());
    }
}

/// Runs the full liquidity suite over a generated history.
pub fn run_liquidity(output: &SynthOutput, config: &LiquidityConfig) -> LiquidityOutcome {
    let state = &output.final_state;
    let probes = payment_probes(&output.cast, config.seed, config.probes);
    let requested_raw: i128 = probes.iter().map(|p| p.amount.raw()).sum();

    // The baseline, the oracle sample and the gateway probes share one
    // router: the final state is never mutated, so every repeat query is
    // a hit.
    let mut router = Router::new(config.limits);
    let router_timer = Instant::now();
    let delivery = {
        let _span = span("liquidity", "baseline");
        measure(state, &mut router, &probes)
    };
    let router_secs = router_timer.elapsed().as_secs_f64();

    // Oracle agreement + throughput sample: the same prefix of the same
    // stream, answered by brute-force max flow.
    let sample = &probes[..config.oracle_sample.min(probes.len())];
    let mut oracle_violations = 0u64;
    let oracle_timer = Instant::now();
    for p in sample {
        let truth =
            max_deliverable_sparse(state, p.sender, p.destination, p.currency, p.amount.raw());
        let routed = router.deliverable(state, p.sender, p.destination, p.currency);
        let routed = if routed > p.amount { p.amount } else { routed };
        if routed.raw() > truth {
            oracle_violations += 1;
        }
    }
    let oracle_secs = oracle_timer.elapsed().as_secs_f64();

    let health = currency_health(state);
    let gateways = gateway_health(output, &mut router, config.redeem_holders_per_gateway);
    // The baseline router's only later use is its statistics: drop it
    // before the lanes start, so its graphs are not resident beside the
    // lanes' state copies.
    let stats = router.stats();
    drop(router);

    // The insolvency cascade severs in descending-issuance order.
    let mut order: Vec<(i128, String, AccountId)> = output
        .cast
        .gateways
        .iter()
        .map(|g| {
            let issued = gateways
                .iter()
                .find(|h| h.name == g.name)
                .map(|h| h.issued)
                .unwrap_or(0);
            (issued, g.name.clone(), g.account)
        })
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let order: Vec<AccountId> = order.into_iter().map(|(_, _, account)| account).collect();

    // The campaigns share nothing but read-only inputs: the exit waves run
    // on this thread, the cascade and then the drain points on one scoped
    // worker (module docs, "Two lanes").
    let (mm_exit_waves, (insolvency_cascade, trust_drain)) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            (
                insolvency_cascade(state, &order, config, &probes),
                trust_drain(state, config, &probes),
            )
        });
        let exits = exit_waves(output, config);
        let campaigns = worker
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (exits, campaigns)
    });

    let report = LiquidityReport {
        accounts: state.account_count() as u64,
        trust_lines: state.trust_lines().count() as u64,
        probe_seed: config.seed,
        health,
        gateways,
        probe_summary: ProbeSummary {
            probes: probes.len() as u64,
            requested_raw,
            delivery,
            oracle_checked: sample.len() as u64,
            oracle_violations,
        },
        insolvency_cascade,
        trust_drain,
        mm_exit_waves,
    };
    let router_per_query = if delivery_queries(&report) > 0 {
        router_secs / delivery_queries(&report) as f64
    } else {
        0.0
    };
    let oracle_per_query = if report.probe_summary.oracle_checked > 0 {
        oracle_secs / report.probe_summary.oracle_checked as f64
    } else {
        0.0
    };
    let perf = LiquidityPerf {
        router_queries: delivery_queries(&report),
        router_secs,
        oracle_queries: report.probe_summary.oracle_checked,
        oracle_secs,
        speedup: if router_per_query > 0.0 {
            oracle_per_query / router_per_query
        } else {
            0.0
        },
        router_stats: stats,
    };
    LiquidityOutcome { report, perf }
}

/// Queries in the timed router pass (the full probe stream).
fn delivery_queries(report: &LiquidityReport) -> u64 {
    report.probe_summary.probes
}

impl LiquidityReport {
    /// Writes the report's fields into the writer's current object. The
    /// field order and formatting are fixed: identical reports render to
    /// identical bytes.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.field_str("experiment", "liquidity");
        w.field_u64("schema", 1);
        w.field_u64("accounts", self.accounts);
        w.field_u64("trust_lines", self.trust_lines);
        w.field_u64("probe_seed", self.probe_seed);
        w.key("health");
        w.begin_array();
        for h in &self.health {
            w.begin_inline_object();
            w.field_str("currency", &h.currency.to_string());
            w.field_u64("trust_lines", h.trust_lines);
            w.field_str("trust_total_raw", &h.trust_total.to_string());
            w.field_str("iou_outstanding_raw", &h.iou_outstanding.to_string());
            w.end_inline_object();
        }
        w.end_array();
        w.key("gateways");
        w.begin_array();
        for g in &self.gateways {
            w.begin_inline_object();
            w.field_str("name", &g.name);
            w.field_str("currency", &g.currency.to_string());
            w.field_str("issued_raw", &g.issued.to_string());
            w.field_u64("holders_probed", g.holders_probed);
            w.field_u64("fully_redeemable", g.fully_redeemable);
            w.end_inline_object();
        }
        w.end_array();
        w.key("probe_summary");
        w.begin_object();
        w.field_u64("probes", self.probe_summary.probes);
        w.field_str(
            "requested_raw",
            &self.probe_summary.requested_raw.to_string(),
        );
        write_delivery(w, &self.probe_summary.delivery);
        w.field_u64("oracle_checked", self.probe_summary.oracle_checked);
        w.field_u64("oracle_violations", self.probe_summary.oracle_violations);
        w.end_object();
        w.key("insolvency_cascade");
        w.begin_array();
        for wave in &self.insolvency_cascade {
            w.begin_inline_object();
            w.field_u64("gateways_severed", wave.gateways_severed);
            write_delivery(w, &wave.delivery);
            w.end_inline_object();
        }
        w.end_array();
        w.key("trust_drain");
        w.begin_array();
        for point in &self.trust_drain {
            w.begin_inline_object();
            w.field_u64("drain_percent", point.drain_percent as u64);
            write_delivery(w, &point.delivery);
            w.end_inline_object();
        }
        w.end_array();
        w.key("mm_exit_waves");
        w.begin_array();
        for wave in &self.mm_exit_waves {
            w.begin_inline_object();
            w.field_u64("makers_severed", wave.makers_severed);
            w.field_u64("offers_stripped", wave.offers_stripped);
            w.field_u64("cross_submitted", wave.cross_submitted);
            w.field_u64("cross_delivered", wave.cross_delivered);
            w.field_u64("single_submitted", wave.single_submitted);
            w.field_u64("single_delivered", wave.single_delivered);
            w.end_inline_object();
        }
        w.end_array();
    }

    /// Renders the report alone as a pretty JSON document. Byte-stable:
    /// equal reports produce equal strings.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        self.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

/// Writes a [`DeliveryPoint`]'s fields into the current object.
fn write_delivery(w: &mut JsonWriter, d: &DeliveryPoint) {
    w.field_u64("fully_deliverable", d.fully_deliverable);
    w.field_u64("partially_deliverable", d.partially_deliverable);
    w.field_u64("undeliverable", d.undeliverable);
    w.field_str("deliverable_raw", &d.deliverable_raw.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_synth::{Generator, SynthConfig};

    fn small_outcome() -> LiquidityOutcome {
        let output = Generator::new(SynthConfig::small(1_500)).run();
        let config = LiquidityConfig {
            probes: 96,
            oracle_sample: 12,
            redeem_holders_per_gateway: 3,
            ..LiquidityConfig::default()
        };
        run_liquidity(&output, &config)
    }

    /// The drain before one record per pair: one adjustment per trust line.
    fn drain_per_line_reference(state: &LedgerState, percent: u32) -> LedgerState {
        let mut drained = state.clone();
        for line in state.trust_lines() {
            let headroom =
                line.limit - state.iou_balance(line.truster, line.trustee, line.currency);
            if !headroom.is_positive() {
                continue;
            }
            let debt = headroom.mul_ratio(percent as u64, 100);
            if debt.is_positive() {
                drained.adjust_pair_balance(line.truster, line.trustee, line.currency, debt);
            }
        }
        drained
    }

    #[test]
    fn record_drain_equals_the_per_line_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use ripple_ledger::Drops;
        let currencies = [Currency::USD, Currency::EUR];
        // Mutual pairs, full lines (negative headroom), lines without a
        // balance, and self-lines.
        let (mut mutual, mut full, mut bare, mut own) = (0, 0, 0, 0);
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let accounts: Vec<AccountId> = (0..rng.gen_range(2u8..=10))
                .map(|i| {
                    let mut bytes = [i; 20];
                    bytes[0] = rng.gen();
                    AccountId::from_bytes(bytes)
                })
                .collect();
            let mut s = LedgerState::new();
            for &a in &accounts {
                s.create_account(a, Drops::from_xrp(100));
            }
            for _ in 0..rng.gen_range(0..4 * accounts.len()) {
                let a = accounts[rng.gen_range(0..accounts.len())];
                let b = accounts[rng.gen_range(0..accounts.len())];
                let currency = currencies[rng.gen_range(0..currencies.len())];
                let amount = Value::from_raw(rng.gen_range(1i128..=60) * 1_000_003);
                if rng.gen_bool(0.5) {
                    s.set_trust(a, b, currency, amount).unwrap();
                } else {
                    s.adjust_pair_balance(a, b, currency, amount);
                }
            }
            for line in s.trust_lines() {
                let held = s.iou_balance(line.truster, line.trustee, line.currency);
                mutual += usize::from(
                    s.trust_limit(line.trustee, line.truster, line.currency)
                        .is_positive(),
                );
                full += usize::from(held > line.limit);
                bare += usize::from(held.is_zero());
                own += usize::from(line.truster == line.trustee);
            }
            for percent in [1, 25, 50, 75, 90, 100] {
                let got = drain(&s, percent);
                let want = drain_per_line_reference(&s, percent);
                let view = |d: &LedgerState| {
                    let mut lines: Vec<_> = d
                        .trust_lines()
                        .map(|l| (l.truster, l.trustee, l.currency, l.limit))
                        .collect();
                    let mut balances: Vec<_> = d.pair_balances().collect();
                    lines.sort_unstable();
                    balances.sort_unstable();
                    (lines, balances)
                };
                assert_eq!(view(&got), view(&want), "seed {seed} percent {percent}");
            }
        }
        let shapes = [mutual, full, bare, own];
        assert!(shapes.iter().all(|&n| n > 50), "{shapes:?}");
    }

    #[test]
    fn a_mutual_pair_drains_from_its_original_headroom() {
        use ripple_ledger::Drops;
        let v = |s: &str| -> Value { s.parse().unwrap() };
        let (a, b) = (
            AccountId::from_bytes([1; 20]),
            AccountId::from_bytes([2; 20]),
        );
        // `x` trusts `y` for 100 and already holds 10 of its IOUs; `y`
        // trusts `x` for 40. Trust lines iterate in their truster's shard
        // order, so swapping the roles of `a` and `b` swaps which line the
        // drain meets first.
        for (x, y) in [(a, b), (b, a)] {
            let mut s = LedgerState::new();
            s.create_account(x, Drops::from_xrp(100));
            s.create_account(y, Drops::from_xrp(100));
            s.set_trust(x, y, Currency::USD, v("100")).unwrap();
            s.set_trust(y, x, Currency::USD, v("40")).unwrap();
            s.adjust_pair_balance(x, y, Currency::USD, v("10"));
            let drained = drain(&s, 50);
            // Headrooms 100 - 10 and 40 + 10, halved: 10 + 45 - 25.
            assert_eq!(drained.iou_balance(x, y, Currency::USD), v("30"));
            assert_eq!(drained.pair_balances().count(), 1);
            assert_eq!(drained.trust_lines().count(), 2);
        }
    }

    #[test]
    fn suite_is_deterministic_and_consistent() {
        let a = small_outcome();
        let b = small_outcome();
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json(), b.report.to_json());

        let summary = &a.report.probe_summary;
        assert_eq!(summary.probes, 96);
        assert_eq!(
            summary.probes,
            summary.delivery.fully_deliverable
                + summary.delivery.partially_deliverable
                + summary.delivery.undeliverable
        );
        assert_eq!(summary.oracle_violations, 0, "router exceeded max flow");
        assert!(summary.delivery.deliverable_raw <= summary.requested_raw);
        assert!(!a.report.health.is_empty());
        assert!(!a.report.gateways.is_empty());
    }

    #[test]
    fn campaigns_degrade_monotonically_enough() {
        let outcome = small_outcome();
        let report = &outcome.report;

        // Severing every gateway must not improve delivery, and the final
        // wave (all gateways dead) should devastate the IOU network.
        let baseline = report.probe_summary.delivery;
        if let Some(last) = report.insolvency_cascade.last() {
            assert!(last.delivery.deliverable_raw <= baseline.deliverable_raw);
        }

        // Drain points are measured from the same baseline, so deeper
        // drains deliver no more than shallower ones.
        for pair in report.trust_drain.windows(2) {
            assert!(pair[1].delivery.deliverable_raw <= pair[0].delivery.deliverable_raw);
        }

        // The final exit wave severs every Market Maker — it must match
        // Study::table2's all-at-once removal.
        if let Some(last) = report.mm_exit_waves.last() {
            let study = crate::Study::generate(SynthConfig::small(1_500));
            let table2 = study.table2().expect("snapshot exists");
            assert_eq!(last.makers_severed as usize, table2.makers_severed);
            assert_eq!(last.cross_submitted, table2.stats.cross_submitted);
            assert_eq!(last.cross_delivered, table2.stats.cross_delivered);
            assert_eq!(last.single_submitted, table2.stats.single_submitted);
            assert_eq!(last.single_delivered, table2.stats.single_delivered);
        }
    }
}
