//! Every call the benchmark makes into the product, in one file: a later
//! public-API change is a small reviewable diff to the ruler. Nothing here
//! times anything — callers wrap these in `Ctx::call` — and no other
//! source file of the harness names `ripple_core` (the smoke test borrows
//! its JSON parser, nothing else).
//!
//! Only public functions of the crates are used, reached through the
//! `ripple-core` facade's re-exports.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use ripple_core::analytics::{HubReport, MonthRow, SurvivalCurve, UserStats};
use ripple_core::consensus::{
    ChaosCampaign, ChaosOutcome, InvariantChecker, RoundEngine, Validator, ValidatorProfile,
};
use ripple_core::crypto::{sha512_half, SimKeypair};
use ripple_core::deanon::countermeasure::{ground_truth, link_wallets_by_habit, split_wallets};
use ripple_core::deanon::{information_gain, IgResult};
use ripple_core::ledger::{
    Amount, Drops, FeeSchedule, IouAmount, LedgerState, RippleTime, Transaction, TxKind,
};
use ripple_core::netsim::{FaultPlan, SimTime};
use ripple_core::node::frame::FrameDecoder;
use ripple_core::node::wire::WireMsg;
use ripple_core::obs::{metrics, trace as obs_trace, LazyCounter};
use ripple_core::orderbook::{BookSet, OrderBook, Rate};
use ripple_core::paths::{find_payment_paths, PathLimits, PaymentEngine, PaymentRequest, Router};
use ripple_core::query::EngineConfig as QueryConfig;
use ripple_core::store::crc::crc32;
use ripple_core::store::postings::{decode_block, PostingsConfig, PostingsIndex};
use ripple_core::store::{ReadMode, Reader, Writer};
use ripple_core::synth::payment_probes;
use ripple_core::{
    run_liquidity, CollectionPeriod, DeanonIndex, EngineConfig, Generator, LiquidityConfig,
    PipelineConfig, ResolutionSpec, SynthConfig, ValidatorReport,
};

pub use ripple_core::crypto::Digest256 as Digest;
pub use ripple_core::deanon::Observation;
pub use ripple_core::obs::json;
pub use ripple_core::query::QueryEngine;
pub use ripple_core::store::HistoryEvent;
pub use ripple_core::synth::PaymentProbe;
pub use ripple_core::{
    AccountId, Currency, Fig3Sweep, LiquidityOutcome, MmRemovalReport, OfferConcentration,
    PaymentRecord, PipelineRun, Study, SynthOutput, Value,
};

// ---------------------------------------------------------------------
// crypto
// ---------------------------------------------------------------------

/// SHA-512-half of `bytes` — also the benchmark's output digest.
pub fn digest(bytes: &[u8]) -> Digest {
    sha512_half(bytes)
}

/// Derives an account id from a deterministic keypair.
pub fn account_id_from_seed(seed: &[u8]) -> AccountId {
    AccountId::from_public_key(&SimKeypair::from_seed(seed).public_key())
}

// ---------------------------------------------------------------------
// synth
// ---------------------------------------------------------------------

/// `SynthConfig::default()` at `payments` payments.
fn synth_config(seed: u64, payments: usize) -> SynthConfig {
    SynthConfig {
        seed,
        payments,
        ..SynthConfig::default()
    }
}

/// The default write path: pipelined generation with product-default
/// worker counts, archive encoding on or off.
pub fn generate_pipelined(seed: u64, payments: usize, archive: bool) -> PipelineRun {
    let pipeline = PipelineConfig {
        archive,
        ..PipelineConfig::default()
    };
    Generator::new(synth_config(seed, payments))
        .run_pipelined(&pipeline)
        .expect("pipelined generation failed on generated inputs")
}

/// The original serial generator (`Generator::run`).
pub fn generate_serial(seed: u64, payments: usize) -> SynthOutput {
    Generator::new(synth_config(seed, payments)).run()
}

/// Wraps a pipelined run in the analysis facade.
pub fn study_from(run: PipelineRun) -> Study {
    Study::from_pipeline(run)
}

/// Payments in a generated history.
pub fn payment_count(output: &SynthOutput) -> usize {
    output.payments().count()
}

// ---------------------------------------------------------------------
// obs
// ---------------------------------------------------------------------

/// Switches the product's `ripple-obs` metrics registry on or off.
pub fn obs_metrics_enabled(on: bool) {
    metrics::set_enabled(on);
}

static PROBE_COUNTER: LazyCounter = LazyCounter::new("benchmark.probe.counter");

/// One `LazyCounter::add` (cost depends on whether metrics are enabled).
pub fn obs_counter_add() {
    PROBE_COUNTER.add(1);
}

/// One `ripple-obs` span, opened and closed.
pub fn obs_span() {
    let _span = ripple_core::obs::span("benchmark", "probe");
}

/// Switches `ripple-obs` span collection on (bounded ring) or off
/// (`drain` is the product's only off switch).
pub fn obs_trace_enabled(on: bool) {
    if on {
        obs_trace::enable(1 << 16);
    } else {
        let _ = obs_trace::drain();
    }
}

// ---------------------------------------------------------------------
// store
// ---------------------------------------------------------------------

/// CRC-32 of `bytes` (the archive frame checksum).
pub fn store_crc32(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

/// Encodes `events` into a fresh archive.
pub fn store_encode(events: &[HistoryEvent], capacity: usize) -> Vec<u8> {
    let mut writer = Writer::new(Vec::with_capacity(capacity));
    for event in events {
        writer
            .write(event)
            .expect("archive encode into memory cannot fail");
    }
    writer
        .finish()
        .expect("archive finish into memory cannot fail")
}

/// Encodes a whole generated history (`SynthOutput::write_archive`).
pub fn store_write_archive(output: &SynthOutput) -> Vec<u8> {
    let mut buf = Vec::new();
    output
        .write_archive(&mut buf)
        .expect("archive encode into memory cannot fail");
    buf
}

/// Strict linear decode of a whole archive.
pub fn store_read_all(archive: &[u8]) -> Vec<HistoryEvent> {
    Reader::new(archive)
        .expect("archive magic")
        .read_all()
        .expect("strict decode of a freshly written archive")
}

/// Strict linear decode keeping each frame's byte offset.
pub fn store_read_all_at(archive: &[u8]) -> Vec<(u64, HistoryEvent)> {
    let mut reader = Reader::new(archive).expect("archive magic");
    let mut out = Vec::new();
    while let Some(entry) = reader
        .next_event_at()
        .expect("strict decode of a freshly written archive")
    {
        out.push(entry);
    }
    out
}

/// Builds the postings sidecar the query engine builds on open.
pub fn store_postings_build(archive: &[u8]) -> PostingsIndex {
    let defaults = QueryConfig::default();
    PostingsIndex::build(
        archive,
        &PostingsConfig {
            shards: defaults.build_shards,
            mode: ReadMode::Strict,
            block_records: defaults.block_records,
        },
    )
    .expect("postings build over a freshly written archive")
}

/// Sidecar serialise + parse; returns the serialised length.
pub fn store_sidecar_roundtrip(postings: &PostingsIndex) -> usize {
    let bytes = postings.to_bytes();
    let back = PostingsIndex::from_bytes(&bytes).expect("sidecar parses back");
    assert_eq!(back.records(), postings.records());
    bytes.len()
}

/// `(start, end)` byte spans of the postings blocks, in archive order.
pub fn store_block_spans(postings: &PostingsIndex) -> Vec<(u64, u64)> {
    let starts = postings.blocks();
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            (
                s,
                starts.get(i + 1).copied().unwrap_or(postings.archive_len()),
            )
        })
        .collect()
}

/// Decodes one cache block's frames; returns the event count.
pub fn store_decode_block(archive: &[u8], span: (u64, u64)) -> usize {
    decode_block(archive, span.0, span.1)
        .expect("block decode of a freshly written archive")
        .len()
}

// ---------------------------------------------------------------------
// ledger
// ---------------------------------------------------------------------

/// A funded account the harness holds the keys of, added to a clone of a
/// generated ledger so probe transactions run against a state of
/// realistic size.
pub struct ProbeAccount {
    pub id: AccountId,
    keys: SimKeypair,
}

/// Clones `state` (the `ledger.state_clone_ms` probe times this call).
pub fn ledger_clone(state: &LedgerState) -> LedgerState {
    state.clone()
}

/// Adds a funded probe account named `label` to `state`.
pub fn ledger_probe_account(state: &mut LedgerState, label: &str) -> ProbeAccount {
    let keys = SimKeypair::from_seed(label.as_bytes());
    let id = AccountId::from_public_key(&keys.public_key());
    state.create_account(id, Drops::from_xrp(100_000_000));
    ProbeAccount { id, keys }
}

fn signed(state: &LedgerState, from: &ProbeAccount, nth: u32, kind: TxKind) -> Transaction {
    let seq = state
        .account(&from.id)
        .expect("probe account exists")
        .sequence;
    Transaction::build(from.id, seq + nth, Drops::new(10), kind).signed(&from.keys)
}

/// Signed direct XRP payments from the probe account, one to each of `to`.
pub fn ledger_xrp_txs(
    state: &LedgerState,
    from: &ProbeAccount,
    to: &[AccountId],
) -> Vec<Transaction> {
    to.iter()
        .enumerate()
        .map(|(i, &destination)| {
            let kind = TxKind::Payment {
                destination,
                amount: Amount::Xrp(Drops::from_xrp(1)),
                send_max: None,
                paths: Vec::new(),
            };
            signed(state, from, i as u32, kind)
        })
        .collect()
}

/// Signed `TrustSet`s from the probe account, one towards each of `to`.
pub fn ledger_trust_txs(
    state: &LedgerState,
    from: &ProbeAccount,
    to: &[AccountId],
) -> Vec<Transaction> {
    to.iter()
        .enumerate()
        .map(|(i, &trustee)| {
            let kind = TxKind::TrustSet {
                trustee,
                currency: Currency::USD,
                limit: Value::from_int(1_000_000),
            };
            signed(state, from, i as u32, kind)
        })
        .collect()
}

/// `n` signed `OfferCreate`s (sell XRP for the probe account's own USD).
pub fn ledger_offer_txs(state: &LedgerState, from: &ProbeAccount, n: u32) -> Vec<Transaction> {
    (0..n)
        .map(|i| {
            let kind = TxKind::OfferCreate {
                taker_gets: Amount::Xrp(Drops::from_xrp(10)),
                taker_pays: Amount::Iou(IouAmount::new(
                    Value::from_int(i64::from(i % 50) + 1),
                    Currency::USD,
                    from.id,
                )),
            };
            signed(state, from, i, kind)
        })
        .collect()
}

/// Opens a trust line of `truster` towards `trustee`, bypassing signing.
pub fn ledger_set_trust(state: &mut LedgerState, truster: AccountId, trustee: AccountId) {
    state
        .set_trust(
            truster,
            trustee,
            Currency::USD,
            Value::from_int(1_000_000_000),
        )
        .expect("trust line between two existing accounts");
}

/// Applies `txs` in order; returns how many the ledger rejected.
pub fn ledger_apply_all(state: &mut LedgerState, txs: &[Transaction]) -> u64 {
    txs.iter().filter(|tx| state.apply(tx).is_err()).count() as u64
}

/// One IOU hop of 1 USD from `from` to `to`; `false` if the ledger refused.
pub fn ledger_ripple_hop(state: &mut LedgerState, from: AccountId, to: AccountId) -> bool {
    state
        .ripple_hop(from, to, Currency::USD, Value::from_int(1))
        .is_ok()
}

/// Accounts of `state` in a deterministic order (sorted by id bytes).
pub fn ledger_accounts(state: &LedgerState) -> Vec<AccountId> {
    let mut ids: Vec<AccountId> = state.accounts().map(|(id, _)| *id).collect();
    ids.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
    ids
}

// ---------------------------------------------------------------------
// orderbook
// ---------------------------------------------------------------------

/// Builds a 100-offer EUR/USD book and fills 950 across it (the shape of
/// the seed's `substrate_orderbook_fill_100_offers` bench).
pub fn orderbook_fill() -> bool {
    let mut book = OrderBook::new(Currency::EUR, Currency::USD);
    for i in 0..100u32 {
        book.insert(
            AccountId::from_bytes([(i % 250) as u8; 20]),
            i,
            Value::from_int(10),
            Rate::new(100 + u64::from(i), 100),
        );
    }
    let requested = Value::from_int(950);
    book.fill(requested).is_complete(requested)
}

/// Indexes every resting offer of a ledger; returns the offer count.
pub fn orderbook_from_ledger(state: &LedgerState) -> usize {
    BookSet::from_ledger(state).total_offers()
}

// ---------------------------------------------------------------------
// paths
// ---------------------------------------------------------------------

/// A fresh router under the product's default path limits.
pub fn router_new() -> Router {
    Router::new(PathLimits::default())
}

/// The scripted liquidity-probe stream of a generated cast.
pub fn probe_stream(output: &SynthOutput, seed: u64, n: usize) -> Vec<PaymentProbe> {
    payment_probes(&output.cast, seed, n)
}

/// `Router::deliverable` for one probe, capped at the requested amount.
pub fn router_deliverable(router: &mut Router, state: &LedgerState, p: &PaymentProbe) -> Value {
    let routed = router.deliverable(state, p.sender, p.destination, p.currency);
    if routed > p.amount {
        p.amount
    } else {
        routed
    }
}

/// `Router::route` for one probe; returns the number of paths planned.
pub fn router_route(router: &mut Router, state: &LedgerState, p: &PaymentProbe) -> usize {
    router
        .route(state, p.sender, p.destination, p.currency, p.amount)
        .len()
}

/// `(queries, hits, misses, invalidations)` of a router.
pub fn router_stats(router: &Router) -> (u64, u64, u64, u64) {
    let s = router.stats();
    (s.queries, s.hits, s.misses, s.invalidations)
}

/// The cold search the router is checked against.
pub fn paths_find_cold(state: &LedgerState, p: &PaymentProbe) -> usize {
    find_payment_paths(
        state,
        p.sender,
        p.destination,
        p.currency,
        p.amount,
        PathLimits::default(),
    )
    .len()
}

/// `PaymentEngine::pay` for every probe on `state`, which each delivered
/// payment mutates (so the engine's router is invalidated as it goes);
/// returns how many delivered. A refused payment is a routing outcome,
/// not a failed operation.
pub fn paths_pay_all(state: &mut LedgerState, probes: &[PaymentProbe]) -> u64 {
    let engine = PaymentEngine::new();
    probes
        .iter()
        .filter(|p| {
            let request = PaymentRequest {
                sender: p.sender,
                destination: p.destination,
                currency: p.currency,
                amount: p.amount,
                source_currency: None,
                send_max: None,
            };
            engine.pay(state, &request).is_ok()
        })
        .count() as u64
}

/// `Study::table2()`: the Market-Maker-removal replay.
pub fn table2(study: &Study) -> MmRemovalReport {
    study
        .table2()
        .expect("the default config snapshots inside the generated window")
}

/// The liquidity suite with the workload's probe count, no oracle sample
/// and otherwise product defaults.
pub fn liquidity(output: &SynthOutput, seed: u64, probes: usize) -> LiquidityOutcome {
    let config = LiquidityConfig {
        probes,
        seed,
        oracle_sample: 0,
        ..LiquidityConfig::default()
    };
    run_liquidity(output, &config)
}

// ---------------------------------------------------------------------
// deanon + analytics (the `Study` accessors `experiments all` runs)
// ---------------------------------------------------------------------

pub fn figure2(study: &Study, rounds: u64, seed: u64) -> Vec<(CollectionPeriod, ValidatorReport)> {
    study.figure2(rounds, seed)
}

pub fn figure3_sweep(study: &Study) -> Fig3Sweep {
    study.figure3_sweep(EngineConfig::default())
}

/// Serial `information_gain` for one Figure 3 row — the reference the
/// engine's row is checked against.
pub fn figure3_serial_row(study: &Study, row: usize) -> (&'static str, IgResult) {
    let (label, spec) = ResolutionSpec::figure3_rows()[row];
    (label, information_gain(study.payments().into_iter(), spec))
}

pub fn figure4(study: &Study) -> Vec<(Currency, u64)> {
    study.figure4()
}

pub fn figure5(study: &Study) -> Vec<(Option<Currency>, SurvivalCurve)> {
    study.figure5()
}

/// A Figure 6 histogram: `(hops or parallel paths, payments)` rows.
pub type Histogram = Vec<(usize, u64)>;

/// Figures 6(a) and 6(b).
pub fn figure6(study: &Study) -> (Histogram, Histogram) {
    (
        study.figure6a().into_iter().collect(),
        study.figure6b().into_iter().collect(),
    )
}

pub fn figure7(study: &Study) -> HubReport {
    study.figure7(50)
}

pub fn offer_concentration(study: &Study) -> OfferConcentration {
    study.offer_concentration()
}

pub fn timeline(study: &Study) -> Vec<MonthRow> {
    study.timeline()
}

pub fn user_stats(study: &Study) -> UserStats {
    study.user_stats()
}

/// The full-resolution attack index over the study's shared arena.
pub fn attack_index(study: &Study) -> DeanonIndex {
    study.attack_index(ResolutionSpec::full())
}

/// Full-view observations of `n` payments sampled evenly from the study.
pub fn observations(study: &Study, n: usize) -> Vec<Observation> {
    let arena = study.payment_arena();
    let step = (arena.len() / n.max(1)).max(1);
    arena
        .iter()
        .step_by(step)
        .take(n)
        .map(Observation::of)
        .collect()
}

/// One attack query; returns the candidate-sender count.
pub fn deanon_query(index: &DeanonIndex, observation: &Observation) -> usize {
    index.query(observation).len()
}

/// One row of the wallet-splitting countermeasure table.
#[derive(Debug, Clone, PartialEq)]
pub struct CountermeasureRow {
    pub k: usize,
    pub ig_before: u64,
    pub ig_after: u64,
    pub extra_trust_lines: u64,
    pub relinked: f64,
}

/// The wallet-splitting countermeasure for k in {1, 2, 4, 8}, exactly as
/// `experiments countermeasure` runs it.
pub fn countermeasure(study: &Study) -> Vec<CountermeasureRow> {
    let records: Vec<PaymentRecord> = study.payments().into_iter().cloned().collect();
    let fees = FeeSchedule::mainnet();
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|k| {
            let (split, report) = split_wallets(&records, k, ResolutionSpec::full(), &fees);
            let truth = ground_truth(&records, k);
            let link = link_wallets_by_habit(&split, &truth, k);
            CountermeasureRow {
                k,
                ig_before: report.ig_before.unique,
                ig_after: report.ig_after.unique,
                extra_trust_lines: report.extra_trust_lines,
                relinked: link.recall,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// query
// ---------------------------------------------------------------------

/// What `QueryEngine::open` reported about its build.
pub struct OpenReport {
    pub records: u64,
    pub sidecar_bytes: u64,
}

/// Opens the query engine over `archive` with the product's defaults, or
/// with a block cache of `cache_bytes` when given.
pub fn query_open(archive: Vec<u8>, cache_bytes: Option<usize>) -> (QueryEngine, OpenReport) {
    let mut config = QueryConfig::default();
    if let Some(bytes) = cache_bytes {
        config.cache_bytes = bytes;
    }
    let (engine, build) =
        QueryEngine::open(archive, &config).expect("engine open over a freshly written archive");
    let report = OpenReport {
        records: build.records,
        sidecar_bytes: build.sidecar_bytes,
    };
    (engine, report)
}

/// Accounts by descending activity (postings length), ties by id bytes.
pub fn query_accounts_by_activity(engine: &QueryEngine) -> Vec<AccountId> {
    let mut by_activity: Vec<(usize, AccountId)> = engine
        .postings()
        .iter_accounts()
        .map(|(account, offsets)| (offsets.len(), *account))
        .collect();
    by_activity.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.as_bytes().cmp(b.1.as_bytes()))
    });
    by_activity.into_iter().map(|(_, a)| a).collect()
}

/// `(currency, day)` keys of the flow postings, sorted.
pub fn query_flow_keys(engine: &QueryEngine) -> Vec<(Currency, u64)> {
    let mut flows: Vec<(Currency, u64)> = engine
        .postings()
        .iter_flows()
        .map(|(&(currency, day), _)| (currency, day))
        .collect();
    flows.sort_by_key(|&(c, d)| (*c.as_bytes(), d));
    flows
}

/// First and last event timestamps, seconds.
pub fn query_time_bounds(engine: &QueryEngine) -> (u64, u64) {
    engine
        .time_bounds()
        .map_or((0, 0), |(lo, hi)| (lo.seconds(), hi.seconds()))
}

/// Full-view observations sampled from the engine's payment arena; also
/// builds the memoized full-resolution class index, as a server warming
/// its indexes at start-up does.
pub fn query_observations(
    engine: &QueryEngine,
    picks: impl Iterator<Item = u64>,
) -> Vec<Observation> {
    let arena = engine.payment_arena();
    let _ = engine.class_index(ResolutionSpec::full());
    if arena.is_empty() {
        return Vec::new();
    }
    picks
        .map(|r| Observation::of(&arena[(r % arena.len() as u64) as usize]))
        .collect()
}

/// Point lookup: the account's most recent event. Returns events visited
/// (1 for any account with history), or `None` on a store error.
pub fn query_point(engine: &QueryEngine, account: &AccountId) -> Option<usize> {
    engine.visit_account_history(account, 1, |_, _| {}).ok()
}

/// Range scan of up to 128 events from `from` (seconds) on.
pub fn query_range(engine: &QueryEngine, from: u64, to: u64) -> Option<usize> {
    engine
        .visit_range(
            RippleTime::from_seconds(from),
            RippleTime::from_seconds(to),
            128,
            |_, _| {},
        )
        .ok()
}

/// Flow aggregate for one `(currency, day)`; returns its payment count.
pub fn query_flow(engine: &QueryEngine, key: (Currency, u64)) -> Option<u64> {
    engine
        .flow(key.0, RippleTime::from_seconds(key.1))
        .map(|stat| stat.payments)
}

/// Fingerprint-class query; returns the candidate count.
pub fn query_class(engine: &QueryEngine, observation: &Observation) -> usize {
    engine
        .class_candidates(ResolutionSpec::full(), observation)
        .len()
}

/// Offsets of an account's full history through the index.
pub fn query_history_offsets(engine: &QueryEngine, account: &AccountId) -> Option<Vec<u64>> {
    let mut offsets = Vec::new();
    engine
        .visit_account_history(account, usize::MAX, |offset, _| offsets.push(offset))
        .ok()?;
    Some(offsets)
}

/// Offsets of an account's full history by linear rescan of the archive.
pub fn query_rescan_offsets(engine: &QueryEngine, account: &AccountId) -> Option<Vec<u64>> {
    let events = engine.rescan_account_history(account).ok()?;
    Some(events.into_iter().map(|(offset, _)| offset).collect())
}

/// `(hits, misses, resident bytes)` of the engine's block cache.
pub fn query_cache_stats(engine: &QueryEngine) -> (u64, u64, usize) {
    let cache = engine.cache();
    (cache.hits(), cache.misses(), cache.resident_bytes())
}

/// Serves `engine` over HTTP on an ephemeral loopback port and issues
/// `accounts.len()` point lookups over one keep-alive connection;
/// returns each request's nanoseconds. The server thread is joined
/// before returning.
pub fn query_http_points(engine: Arc<QueryEngine>, accounts: &[AccountId]) -> Vec<u64> {
    let server = ripple_core::query::serve(engine, "127.0.0.1:0").expect("loopback bind");
    let stream = TcpStream::connect(server.addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("set_nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut samples = Vec::with_capacity(accounts.len());
    for account in accounts {
        let request = format!(
            "GET /account/{}?limit=1 HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n",
            ripple_core::crypto::hex::encode(account.as_bytes())
        );
        let started = std::time::Instant::now();
        writer.write_all(request.as_bytes()).expect("request write");
        let ok = read_http_response(&mut reader);
        samples.push(started.elapsed().as_nanos() as u64);
        assert!(ok, "point lookup over http returned an error status");
    }
    drop(writer);
    server.shutdown();
    samples
}

/// Reads one `Content-Length` response; `true` on a 200.
fn read_http_response(reader: &mut BufReader<TcpStream>) -> bool {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let ok = line.split_whitespace().nth(1) == Some("200");
    let mut length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().expect("content-length value");
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("response body");
    ok
}

// ---------------------------------------------------------------------
// consensus + netsim
// ---------------------------------------------------------------------

/// `n` always-available, in-sync validators.
pub fn reliable_validators(n: usize) -> Vec<Validator> {
    (0..n)
        .map(|i| Validator::anonymous(i, ValidatorProfile::Reliable { availability: 1.0 }))
        .collect()
}

/// Initial positions for `rounds` rounds of `n` validators: a shared core
/// of `txs - 1` transactions plus one unique to each validator (which the
/// escalating thresholds strip, as in the paper's model).
pub fn positions(n: usize, rounds: u64, txs: u64) -> Vec<Vec<BTreeSet<u64>>> {
    (0..rounds)
        .map(|round| {
            let base = round * 1_000_000;
            (0..n as u64)
                .map(|v| {
                    let mut set: BTreeSet<u64> =
                        (0..txs.saturating_sub(1)).map(|k| base + k).collect();
                    set.insert(base + 1_000 + v);
                    set
                })
                .collect()
        })
        .collect()
}

/// What a run of fault-free message-level rounds observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundsReport {
    pub rounds: u64,
    pub committed: u64,
    pub observed: u64,
    pub fork_violations: u64,
    pub errors: u64,
    pub sent: u64,
    pub dropped: u64,
    /// Digest material: every committed page hash, in round order.
    pub pages: Vec<u8>,
    /// Wall nanoseconds of each `run_round` call, when asked for.
    pub round_ns: Vec<u64>,
}

/// Runs one `RoundEngine` over `positions` under the engine's default
/// simulated latency (20 ms + up to 30 ms jitter), passing every outcome
/// through an `InvariantChecker`.
pub fn run_rounds(
    validators: Vec<Validator>,
    positions: &[Vec<BTreeSet<u64>>],
    seed: u64,
    time_each: bool,
) -> RoundsReport {
    let mut engine = RoundEngine::new(validators);
    let mut checker = InvariantChecker::new(engine.honest_mask(), engine.quorum_needed());
    let mut report = RoundsReport::default();
    for (round, initial) in positions.iter().enumerate() {
        let started = time_each.then(std::time::Instant::now);
        let outcome = engine.run_round(initial, seed.wrapping_add(round as u64));
        if let Some(t) = started {
            report.round_ns.push(t.elapsed().as_nanos() as u64);
        }
        report.rounds += 1;
        match outcome {
            Ok(outcome) => {
                report.observed += 1;
                if checker.observe(&outcome).is_err() {
                    report.fork_violations += 1;
                }
                if let Some((page, _)) = &outcome.committed {
                    report.committed += 1;
                    report.pages.extend_from_slice(page.as_bytes());
                }
            }
            Err(_) => report.errors += 1,
        }
    }
    report.sent = engine.network().sent();
    report.dropped = engine.network().dropped();
    report
}

/// What a chaos campaign observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    pub rounds: u64,
    pub committed: u64,
    pub stall_rounds: u64,
    pub recovery_rounds: u64,
    pub fork_violations: u64,
    pub dropped: u64,
    pub digest: Digest,
}

/// A `ChaosCampaign` of `rounds` rounds over `n` reliable validators under
/// `FaultPlan::randomized(seed, n, horizon)`; the campaign passes every
/// outcome through its own `InvariantChecker` and aborts on a fork.
pub fn run_chaos(n: usize, rounds: u64, seed: u64) -> ChaosReport {
    // Size the plan's horizon from the campaign's own fixed round length.
    let round_ms = ChaosCampaign::new(reliable_validators(n), FaultPlan::new(), 0, seed)
        .round_duration()
        .as_millis();
    let plan = FaultPlan::randomized(seed, n, SimTime::from_millis(round_ms * rounds));
    match ChaosCampaign::new(reliable_validators(n), plan, rounds, seed).run() {
        Ok(outcome) => chaos_report(&outcome),
        Err(_) => ChaosReport {
            rounds,
            committed: 0,
            stall_rounds: 0,
            recovery_rounds: 0,
            fork_violations: 1,
            dropped: 0,
            digest: digest(b"fork"),
        },
    }
}

fn chaos_report(outcome: &ChaosOutcome) -> ChaosReport {
    ChaosReport {
        rounds: outcome.rounds.len() as u64,
        committed: outcome.committed_rounds,
        stall_rounds: outcome.stalls.iter().map(|s| s.rounds).sum(),
        recovery_rounds: outcome.recovery.map_or(0, |r| r.rounds_to_recover),
        fork_violations: 0,
        dropped: outcome.rounds.iter().map(|r| r.messages_dropped).sum(),
        digest: outcome.digest,
    }
}

// ---------------------------------------------------------------------
// node (frame codec and wire messages; no live cluster)
// ---------------------------------------------------------------------

/// A proposal message as the live transport carries it: 50 transactions
/// plus the compact trace context.
pub fn node_proposal(round: u64) -> WireMsg {
    WireMsg::Proposal {
        from: 3,
        round,
        iteration: 2,
        seq: round * 4 + 2,
        sent_ms: 1_700_000_000_000 + round,
        txs: (0..50).map(|k| round * 1_000_000 + k).collect(),
    }
}

/// Appends each message to `out` as one CRC-framed wire frame.
pub fn node_encode_frames(msgs: &[WireMsg], out: &mut Vec<u8>) {
    for msg in msgs {
        msg.encode_into(out);
    }
}

/// Pushes `stream` through a `FrameDecoder` and decodes every verified
/// frame back into a message; returns how many decoded cleanly.
pub fn node_decode_frames(stream: &[u8]) -> u64 {
    let mut decoder = FrameDecoder::new();
    decoder.push(stream);
    let mut decoded = 0;
    while let Some(frame) = decoder.next_frame() {
        if WireMsg::decode(frame.tag, &frame.payload).is_ok() {
            decoded += 1;
        }
    }
    decoded
}

/// Encode, frame, de-frame and decode one message; `true` if it came
/// back equal.
pub fn node_wire_roundtrip(msg: &WireMsg) -> bool {
    let mut decoder = FrameDecoder::new();
    decoder.push(&msg.encode());
    decoder
        .next_frame()
        .and_then(|frame| WireMsg::decode(frame.tag, &frame.payload).ok())
        .is_some_and(|back| back == *msg)
}
