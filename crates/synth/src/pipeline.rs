//! The pipelined generator: parallel scripting, serial execution,
//! overlapped sinks.
//!
//! [`Generator::run_pipelined`] splits history generation into three
//! overlapping stages connected by bounded channels:
//!
//! 1. **Scripting** — N worker threads plan payment chunks (every random
//!    draw) via [`crate::script`]; chunk content is independent of the
//!    worker count, so the merged script is always identical.
//! 2. **Execution** — the main thread applies scripted payments to the
//!    live [`LedgerState`] in chunk order (a reorder buffer absorbs
//!    out-of-order chunk arrivals). Every hop is a [`Hop`] whose record
//!    key is ordered before the hop runs, once per run for the MTL
//!    campaign's fixed chains. [`apply_hop`] moves the IOUs with one
//!    [`LedgerState::try_ripple`] probe; only a hop it refuses escalates
//!    (a trust write or a gateway deposit), starting from the capacity the
//!    refusal returned. Gateway membership is a hash-set hit instead of a
//!    cast scan.
//! 3. **Sink** — archive encoding ([`ripple_store::Writer`]) and
//!    incremental analytics tallies run on their own threads, overlapping
//!    the executor. The tally thread moves each batch into the returned
//!    event list and copies no record, so that list is the run's one copy
//!    of the history.
//!
//! Determinism: this is the repo's only history executor
//! ([`Generator::run`] is this pipeline with default settings), and for a
//! fixed [`SynthConfig`](crate::config::SynthConfig) and chunk size every
//! worker count, and the repeat of any run, produces the identical event
//! sequence and archive bytes: the master RNG drives only the serial set-up,
//! and chunk `c` is scripted from its own `derive_seed(seed, "chunk", c)`
//! stream. The chunk size *is* part of the history's identity: it decides
//! the chunks' time windows and RNG streams.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::ScopedJoinHandle;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ripple_crypto::{AccountId, FxHashMap, FxHashSet};
use ripple_ledger::{
    Currency, Drops, Hop, LedgerError, LedgerState, PathSummary, PaymentRecord, RippleTime, Value,
};
use ripple_obs::{span, LazyCounter, LazyGauge, LazyTimer};
use ripple_orderbook::RateTable;
use ripple_store::{HistoryEvent, Writer};

use crate::cast::Cast;
use crate::generate::{
    amount_for, build_menus, place_resident_offers, top_up_xrp, Generator, MaxOne, SynthOutput,
};
use crate::script::{
    account_from_seed, build_chunk, chunk_count, derive_seed, CastIndex, ScriptChunk, ScriptedBody,
    ScriptedPayment,
};

/// Tuning knobs for [`Generator::run_pipelined`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Scripting worker threads; `0` means "one per available core".
    pub workers: usize,
    /// Payments per scripted chunk; `0` means the default (8192).
    pub chunk_size: usize,
    /// Whether to encode the archive on the sink stage (the encoded bytes
    /// are returned in [`PipelineRun::archive`]).
    pub archive: bool,
    /// Test hook: makes the scripting worker that picks up this chunk index
    /// panic, to exercise the pipeline's failure propagation.
    #[doc(hidden)]
    pub inject_chunk_panic: Option<usize>,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            workers: 0,
            chunk_size: 0,
            archive: true,
            inject_chunk_panic: None,
        }
    }
}

impl PipelineConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    fn resolved_chunk_size(&self) -> usize {
        if self.chunk_size > 0 {
            self.chunk_size
        } else {
            8192
        }
    }
}

/// A pipeline stage failed: a scripting worker or sink thread panicked,
/// the archive encoder refused an event, or the executor's ledger refused
/// a write.
///
/// Before this type existed the executor died on a closed channel with an
/// unrelated `expect` message; now the failure is surfaced as a
/// first-class error naming the stage and, when the payload allows, the
/// panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// The stage that failed: `"script"` (a scripting worker panicked),
    /// `"exec"` (the ledger refused a write) or `"sink"` (the encoder or
    /// the tally thread panicked, or encoding failed).
    pub stage: &'static str,
    /// Human-readable failure description.
    pub message: String,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline stage `{}` failed: {}",
            self.stage, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// Stage timings and volume counters for one pipelined run.
#[derive(Debug, Clone)]
pub struct SynthBench {
    /// Busiest scripting worker's busy seconds (the stage's critical path).
    pub script_secs: f64,
    /// Executor busy seconds (the serial section).
    pub exec_secs: f64,
    /// Combined sink busy seconds (archive encoding + tallies).
    pub sink_secs: f64,
    /// Wall-clock seconds for the whole run.
    pub total_secs: f64,
    /// Payments generated.
    pub payments: usize,
    /// History events generated (payments + trust/offer/account events).
    pub events: usize,
    /// Chunks scripted.
    pub chunks: usize,
    /// Payments per chunk.
    pub chunk_size: usize,
    /// Scripting workers used.
    pub workers: usize,
    /// Always `0`: the one serial execution stage has no conflicts. Read by
    /// `benchmark/src/workloads/history_build.rs` as
    /// `synth.conflict_share`; goes when a `benchmark` issue drops that
    /// name.
    pub conflicts: u64,
    /// Bytes the archive encoding produced. The encoder always runs, so
    /// this is non-zero whether or not the bytes were retained.
    pub encoded_bytes: usize,
    /// Retained archive size in bytes (0 when archiving was off).
    pub archive_bytes: usize,
}

impl SynthBench {
    /// Payments per wall-clock second.
    pub fn payments_per_sec(&self) -> f64 {
        if self.total_secs > 0.0 {
            self.payments as f64 / self.total_secs
        } else {
            0.0
        }
    }
}

/// Analytics tallies accumulated on the sink stage while the history
/// streams past, so the common figures need no post-hoc full scan.
/// Histogram semantics mirror `ripple-analytics` exactly:
/// [`HistoryTallies::hop_histogram`] counts [`PathSummary::hop_counts`],
/// [`HistoryTallies::parallel_histogram`] counts multi-hop payments by
/// parallel-path count.
#[derive(Debug, Clone, Default)]
pub struct HistoryTallies {
    /// Payment counts per delivered currency (Figure 4).
    pub currency_counts: HashMap<Currency, u64>,
    /// Path-length histogram over multi-hop payments (Figure 6a).
    pub hop_histogram: BTreeMap<usize, u64>,
    /// Parallel-path histogram over multi-hop payments (Figure 6b).
    pub parallel_histogram: BTreeMap<usize, u64>,
    /// Delivered amounts grouped by currency, in stream order within each
    /// (Figure 5; the currency-unaware series is their concatenation).
    pub amounts_by_currency: HashMap<Currency, Vec<Value>>,
    /// Total payments observed.
    pub payments: u64,
}

impl HistoryTallies {
    /// Folds one payment into the tallies.
    pub fn observe(&mut self, p: &PaymentRecord) {
        self.payments += 1;
        *self.currency_counts.entry(p.currency).or_insert(0) += 1;
        self.amounts_by_currency
            .entry(p.currency)
            .or_default()
            .push(p.amount);
        for hops in p.paths.hop_counts() {
            *self.hop_histogram.entry(hops).or_insert(0) += 1;
        }
        if p.paths.is_multi_hop() {
            *self
                .parallel_histogram
                .entry(p.paths.parallel_paths())
                .or_insert(0) += 1;
        }
    }
}

/// Everything a pipelined run produces. The history is held once, in
/// `output.events`; a shared payment arena for concurrent studies is built
/// from it on first use (`ripple_core::Study::payment_arena`).
#[derive(Debug)]
pub struct PipelineRun {
    /// The generated history (what [`Generator::run`] returns alone).
    pub output: SynthOutput,
    /// Analytics tallies accumulated on the sink stage.
    pub tallies: HistoryTallies,
    /// The encoded archive bytes, when [`PipelineConfig::archive`] was on.
    pub archive: Option<Vec<u8>>,
    /// Stage timings.
    pub bench: SynthBench,
}

/// A batch of history events in flight from the executor to the sink.
type EventBatch = Vec<HistoryEvent>;

/// What the encoder thread hands back: busy seconds, bytes encoded, and the
/// bytes themselves when the archive was retained.
type Encoded = (f64, usize, Option<Vec<u8>>);

/// What the tally thread hands back: busy seconds, the tallies, and every
/// event in stream order.
type Tallied = (f64, HistoryTallies, Vec<HistoryEvent>);

const BATCH_EVENTS: usize = 8192;

// Stage instrumentation. Counters and histograms record logical quantities
// that are independent of worker count and scheduling (the obs determinism
// contract); queue depths and per-chunk times are gauges/timers.
static SCRIPT_CHUNKS: LazyCounter = LazyCounter::new("synth.script.chunks");
static SCRIPT_QUEUE: LazyGauge = LazyGauge::new("synth.script.queue_depth");
static SCRIPT_CHUNK_NS: LazyTimer = LazyTimer::new("synth.script.chunk_ns");
static EXEC_CHUNKS: LazyCounter = LazyCounter::new("synth.exec.chunks");
static EXEC_PAYMENTS: LazyCounter = LazyCounter::new("synth.exec.payments");
static EXEC_REORDER: LazyGauge = LazyGauge::new("synth.exec.reorder_buffer");
static EXEC_CHUNK_NS: LazyTimer = LazyTimer::new("synth.exec.chunk_ns");
static HOP_PROBES: LazyCounter = LazyCounter::new("synth.exec.hop_probes");
static TRUST_ESCALATIONS: LazyCounter = LazyCounter::new("synth.exec.trust_escalations");
static SINK_BATCHES: LazyCounter = LazyCounter::new("synth.sink.batches");
static SINK_EVENTS: LazyCounter = LazyCounter::new("synth.sink.events");
static SINK_ENCODED_BYTES: LazyCounter = LazyCounter::new("synth.sink.encoded_bytes");
static SINK_QUEUE: LazyGauge = LazyGauge::new("synth.sink.queue_depth");
static ENCODE_NS: LazyTimer = LazyTimer::new("synth.sink.encode_ns");
static TALLY_NS: LazyTimer = LazyTimer::new("synth.sink.tally_ns");

/// The encoder's byte sink: counts every encoded byte, and retains them
/// only when the caller asked for the archive. Encoding always runs so the
/// reported byte volume is honest either way.
struct CountingSink {
    bytes: usize,
    buf: Option<Vec<u8>>,
}

impl CountingSink {
    fn new(retain: bool) -> CountingSink {
        CountingSink {
            bytes: 0,
            buf: retain.then(Vec::new),
        }
    }
}

impl io::Write for CountingSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.bytes += data.len();
        if let Some(buf) = self.buf.as_mut() {
            buf.extend_from_slice(data);
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Generator {
    /// Runs the three-stage pipelined generation. See the module docs for
    /// the stage layout and the determinism contract.
    ///
    /// # Errors
    ///
    /// [`PipelineError`] when a stage thread dies (a scripting worker or a
    /// sink thread panics), with stage `"sink"` when the archive encoder
    /// refuses an event, or with stage `"exec"` when the ledger refuses one
    /// of the executor's writes.
    pub fn run_pipelined(&self, pcfg: &PipelineConfig) -> Result<PipelineRun, PipelineError> {
        let wall = Instant::now();
        let config = &self.config;
        let chunk_size = pcfg.resolved_chunk_size();
        let n_chunks = chunk_count(config.payments, chunk_size);
        let workers = pcfg.resolved_workers().max(1).min(n_chunks);

        // Serial setup: the only consumer of the master RNG (cast,
        // resident offers, menus, in that order).
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut state = LedgerState::new();
        let mut setup_events: Vec<HistoryEvent> = Vec::new();
        let cast = Cast::build(config, &mut state, &mut setup_events, &mut rng);
        let rates = RateTable::eur_2015();
        let treasury = AccountId::from_bytes([0xFE; 20]);
        state.create_account(treasury, Drops::from_xrp(50_000_000_000));
        place_resident_offers(
            config,
            &cast,
            &rates,
            &mut state,
            &mut setup_events,
            &mut rng,
        );
        let menus = build_menus(&cast, &mut rng);
        let index = CastIndex::build(config, &cast, menus, rates);

        struct ScopeOut {
            script_secs: f64,
            exec_secs: f64,
            sink_secs: f64,
            encoded_bytes: usize,
            archive: Option<Vec<u8>>,
            tallies: HistoryTallies,
            events_out: Vec<HistoryEvent>,
            snapshot: Option<(RippleTime, LedgerState)>,
            final_state: LedgerState,
        }

        let cursor = AtomicUsize::new(0);
        let inject_panic = pcfg.inject_chunk_panic;
        let out = std::thread::scope(|s| -> Result<ScopeOut, PipelineError> {
            // --- Stage 1: scripting workers -----------------------------
            let (chunk_tx, chunk_rx) = sync_channel::<ScriptChunk>((workers * 2).max(4));
            let mut script_handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let tx = chunk_tx.clone();
                let cursor = &cursor;
                let cast = &cast;
                let index = &index;
                script_handles.push(s.spawn(move || {
                    let mut busy = 0.0f64;
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        if inject_panic == Some(c) {
                            panic!("injected scripting panic at chunk {c}");
                        }
                        let t = Instant::now();
                        let chunk = {
                            let _span = span("synth", "script_chunk");
                            build_chunk(config, cast, index, c, n_chunks)
                        };
                        let dt = t.elapsed();
                        busy += dt.as_secs_f64();
                        SCRIPT_CHUNKS.add(1);
                        SCRIPT_CHUNK_NS.record(dt);
                        if tx.send(chunk).is_err() {
                            break;
                        }
                        SCRIPT_QUEUE.add(1);
                    }
                    busy
                }));
            }
            drop(chunk_tx);

            // --- Stage 3: sink threads ----------------------------------
            let (sink_tx, sink_rx) = sync_channel::<EventBatch>(4);
            let archive_on = pcfg.archive;
            let (tally_tx, tally_rx) = sync_channel::<EventBatch>(4);
            let encoder = s.spawn(move || -> Result<Encoded, PipelineError> {
                let encode_error = |e: ripple_store::StoreError| PipelineError {
                    stage: "sink",
                    message: format!("archive encoding failed: {e}"),
                };
                let mut busy = 0.0f64;
                let mut writer = Writer::new(CountingSink::new(archive_on));
                while let Ok(batch) = sink_rx.recv() {
                    SINK_QUEUE.add(-1);
                    let t = Instant::now();
                    {
                        let _span = span("synth", "encode_batch");
                        for event in &batch {
                            writer.write(event).map_err(encode_error)?;
                        }
                    }
                    let dt = t.elapsed();
                    busy += dt.as_secs_f64();
                    ENCODE_NS.record(dt);
                    SINK_BATCHES.add(1);
                    SINK_EVENTS.add(batch.len() as u64);
                    if tally_tx.send(batch).is_err() {
                        break;
                    }
                }
                drop(tally_tx);
                let sink = writer.finish().map_err(encode_error)?;
                SINK_ENCODED_BYTES.add(sink.bytes as u64);
                Ok((busy, sink.bytes, sink.buf))
            });
            let tally = s.spawn(move || -> Tallied {
                let mut busy = 0.0f64;
                let mut tallies = HistoryTallies::default();
                let mut events: Vec<HistoryEvent> = Vec::new();
                while let Ok(batch) = tally_rx.recv() {
                    let t = Instant::now();
                    {
                        let _span = span("synth", "tally_batch");
                        for event in &batch {
                            if let HistoryEvent::Payment(p) = event {
                                tallies.observe(p);
                            }
                        }
                        events.extend(batch);
                    }
                    let dt = t.elapsed();
                    busy += dt.as_secs_f64();
                    TALLY_NS.record(dt);
                }
                (busy, tallies, events)
            });

            // --- Stage 2: the executor (this thread) --------------------
            let mut exec_secs = 0.0f64;
            let mut pending: BTreeMap<usize, ScriptChunk> = BTreeMap::new();
            let mut batch: EventBatch = Vec::with_capacity(BATCH_EVENTS);
            // The setup events head the stream.
            batch.append(&mut setup_events);
            // `false` once the sink has hung up: one of its threads died,
            // and `join_sinks` below says why.
            let flush = |batch: &mut EventBatch, force: bool| -> bool {
                if batch.len() >= BATCH_EVENTS || (force && !batch.is_empty()) {
                    let full = std::mem::replace(batch, Vec::with_capacity(BATCH_EVENTS));
                    if sink_tx.send(full).is_err() {
                        return false;
                    }
                    SINK_QUEUE.add(1);
                }
                true
            };
            // One chunk at a time against the live state.
            let mut exec = Executor::new(config, &cast, &index, state, treasury);
            let mut sink_open = true;
            for next in 0..n_chunks {
                let chunk = match recv_in_order(&chunk_rx, &mut pending, next) {
                    Ok(c) => c,
                    Err(()) => {
                        drop(chunk_rx);
                        return Err(script_failure(script_handles));
                    }
                };
                let t = Instant::now();
                let ran = {
                    let _span = span("synth", "exec_chunk");
                    exec.run_chunk(&chunk, &mut batch)
                };
                ran.map_err(|e| PipelineError {
                    stage: "exec",
                    message: format!("chunk {next}: {e}"),
                })?;
                let dt = t.elapsed();
                exec_secs += dt.as_secs_f64();
                EXEC_CHUNKS.add(1);
                EXEC_PAYMENTS.add(chunk.entries.len() as u64);
                EXEC_CHUNK_NS.record(dt);
                sink_open = flush(&mut batch, false);
                if !sink_open {
                    break;
                }
            }
            let snapshot = exec.snapshot.take();
            let final_state = exec.into_state();
            let sink_open = sink_open && flush(&mut batch, true);
            drop(sink_tx);
            drop(chunk_rx);

            // Join every stage thread before reporting any failure: a
            // thread left unjoined with a panic would re-raise it at the
            // end of the scope.
            let scripted: Vec<_> = script_handles.into_iter().map(|h| h.join()).collect();
            let sinks = join_sinks(encoder, tally);
            let mut script_secs = 0.0f64;
            for busy in scripted {
                script_secs = script_secs.max(busy.map_err(|p| stage_panic("script", p))?);
            }
            let ((enc_busy, encoded_bytes, bytes), (tally_busy, tallies, events_out)) = sinks?;
            if !sink_open {
                return Err(PipelineError {
                    stage: "sink",
                    message: "sink channel closed before the executor finished".to_string(),
                });
            }
            Ok(ScopeOut {
                script_secs,
                exec_secs,
                sink_secs: enc_busy + tally_busy,
                encoded_bytes,
                archive: bytes,
                tallies,
                events_out,
                snapshot,
                final_state,
            })
        })?;

        let events_total = out.events_out.len();
        let output = SynthOutput {
            events: out.events_out,
            final_state: out.final_state,
            snapshot: out.snapshot,
            cast,
            config: config.clone(),
        };
        let bench = SynthBench {
            script_secs: out.script_secs,
            exec_secs: out.exec_secs,
            sink_secs: out.sink_secs,
            total_secs: wall.elapsed().as_secs_f64(),
            payments: config.payments,
            events: events_total,
            chunks: n_chunks,
            chunk_size,
            workers,
            conflicts: 0,
            encoded_bytes: out.encoded_bytes,
            archive_bytes: out.archive.as_ref().map_or(0, Vec::len),
        };
        Ok(PipelineRun {
            output,
            tallies: out.tallies,
            archive: out.archive,
            bench,
        })
    }
}

/// Pulls the next in-order chunk off the scripting channel, buffering any
/// chunks that arrive early. `Err(())` means the channel died with chunks
/// still owed — a scripting worker failed.
fn recv_in_order(
    rx: &Receiver<ScriptChunk>,
    pending: &mut BTreeMap<usize, ScriptChunk>,
    next: usize,
) -> Result<ScriptChunk, ()> {
    if let Some(c) = pending.remove(&next) {
        EXEC_REORDER.set(pending.len() as i64);
        return Ok(c);
    }
    loop {
        let c = rx.recv().map_err(|_| ())?;
        SCRIPT_QUEUE.add(-1);
        if c.index == next {
            return Ok(c);
        }
        pending.insert(c.index, c);
        EXEC_REORDER.set(pending.len() as i64);
    }
}

/// Joins the scripting workers after a channel death and turns the last
/// panic payload found into a [`PipelineError`]. Joining here (instead of
/// letting the scope do it) consumes the panic so it surfaces as an error
/// rather than resuming the unwind in the caller.
fn script_failure(handles: Vec<ScopedJoinHandle<'_, f64>>) -> PipelineError {
    let mut failure = PipelineError {
        stage: "script",
        message: String::from("scripting channel closed before all chunks arrived"),
    };
    for handle in handles {
        if let Err(payload) = handle.join() {
            failure = stage_panic("script", payload);
        }
    }
    failure
}

/// Joins both sink threads, then reports the encoder's failure (a panic or
/// an encoding error) before the tally thread's panic, each as stage
/// `"sink"`.
fn join_sinks(
    encoder: ScopedJoinHandle<'_, Result<Encoded, PipelineError>>,
    tally: ScopedJoinHandle<'_, Tallied>,
) -> Result<(Encoded, Tallied), PipelineError> {
    let encoded = encoder.join();
    let tallied = tally.join();
    let encoded = encoded.map_err(|p| stage_panic("sink", p))??;
    let tallied = tallied.map_err(|p| stage_panic("sink", p))?;
    Ok((encoded, tallied))
}

/// A stage thread's panic as a [`PipelineError`], carrying the panic
/// message when the payload is a string.
fn stage_panic(stage: &'static str, payload: Box<dyn Any + Send>) -> PipelineError {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    PipelineError {
        stage,
        message: format!("{stage} thread panicked: {text}"),
    }
}

/// The serial execution stage: applies scripted payments to the live
/// ledger.
struct Executor<'a> {
    config: &'a crate::config::SynthConfig,
    cast: &'a Cast,
    index: &'a CastIndex,
    state: LedgerState,
    treasury: AccountId,
    probe_emitted: bool,
    snapshot: Option<(RippleTime, LedgerState)>,
    /// The six MTL spam chains' summary: every MTL payment shares it.
    mtl_paths: PathSummary,
    /// The same chains' hops, keyed once.
    mtl_hops: MtlHops,
}

/// The MTL campaign's hops, built when the executor starts: each chain's
/// fixed hops from the attacker to its last account, and every chain's
/// last hop into each of the cast's sinks.
struct MtlHops {
    chains: Vec<Vec<Hop>>,
    into_sink: FxHashMap<AccountId, Vec<Hop>>,
}

impl MtlHops {
    fn new(cast: &Cast) -> MtlHops {
        let mut chains = Vec::with_capacity(cast.mtl_chains.len());
        let mut ends = Vec::with_capacity(cast.mtl_chains.len());
        for chain in &cast.mtl_chains {
            let mut from = cast.mtl_attacker;
            let mut hops = Vec::with_capacity(chain.len());
            for &to in chain {
                hops.push(Hop::new(from, to, Currency::MTL));
                from = to;
            }
            chains.push(hops);
            ends.push(from);
        }
        let into_sink = cast
            .mtl_sinks
            .iter()
            .map(|&sink| {
                let hops = ends.iter().map(|&end| Hop::new(end, sink, Currency::MTL));
                (sink, hops.collect())
            })
            .collect();
        MtlHops { chains, into_sink }
    }
}

impl<'a> Executor<'a> {
    fn new(
        config: &'a crate::config::SynthConfig,
        cast: &'a Cast,
        index: &'a CastIndex,
        state: LedgerState,
        treasury: AccountId,
    ) -> Executor<'a> {
        Executor {
            config,
            cast,
            index,
            state,
            treasury,
            probe_emitted: false,
            snapshot: None,
            mtl_paths: PathSummary::from_path_iters(
                cast.mtl_chains.iter().map(|chain| chain.iter().copied()),
            ),
            mtl_hops: MtlHops::new(cast),
        }
    }

    fn into_state(self) -> LedgerState {
        self.state
    }

    fn run_chunk(
        &mut self,
        chunk: &ScriptChunk,
        events: &mut Vec<HistoryEvent>,
    ) -> Result<(), LedgerError> {
        for (local, entry) in chunk.entries.iter().enumerate() {
            let global_index = chunk.base_index + local;
            self.run_payment(global_index, entry, events)?;
        }
        Ok(())
    }

    fn run_payment(
        &mut self,
        global_index: usize,
        entry: &ScriptedPayment,
        events: &mut Vec<HistoryEvent>,
    ) -> Result<(), LedgerError> {
        let now = entry.timestamp;
        if let Some(at) = self.config.snapshot_at {
            if self.snapshot.is_none() && now >= at {
                self.snapshot = Some((at, self.state.clone()));
            }
        }
        for offer in &entry.offers {
            events.push(HistoryEvent::OfferPlaced {
                owner: offer.owner,
                offer_seq: offer.offer_seq,
                base: offer.base,
                quote: offer.quote,
                gets: offer.gets,
                pays: offer.pays,
                timestamp: now,
            });
        }

        // One crafted 44-intermediate payment per history, the lone outlier
        // on Fig. 6(a)'s x-axis: it substitutes for the first eligible IOU
        // slot in the second half of the history (the probe RNG is its own
        // derived stream so the substitution is independent of chunking).
        let probe = !self.probe_emitted
            && global_index >= self.config.payments / 2
            && matches!(entry.body, ScriptedBody::Iou { is_cck: false, .. });
        let record = if probe {
            self.probe_emitted = true;
            self.run_probe(entry, events)?
        } else {
            self.run_body(entry, events)?
        };
        events.push(HistoryEvent::Payment(record));
        Ok(())
    }

    fn run_probe(
        &mut self,
        entry: &ScriptedPayment,
        events: &mut Vec<HistoryEvent>,
    ) -> Result<PaymentRecord, LedgerError> {
        let now = entry.timestamp;
        let mut rng = StdRng::seed_from_u64(derive_seed(self.config.seed, "probe", 0));
        let sender = self.cast.users[0].0;
        let currency = Currency::USD;
        let amount = amount_for(currency, &mut rng);
        let mut hops = Vec::with_capacity(44);
        for i in 0..44 {
            let id = account_from_seed(&format!("probe:{i}"));
            self.state.create_account(id, Drops::ZERO);
            events.push(HistoryEvent::AccountCreated {
                account: id,
                timestamp: now,
            });
            hops.push(id);
        }
        let destination = account_from_seed("probe:dest");
        self.state.create_account(destination, Drops::ZERO);
        events.push(HistoryEvent::AccountCreated {
            account: destination,
            timestamp: now,
        });
        for (from, to) in hop_pairs(sender, &hops, destination) {
            apply_hop(
                &mut self.state,
                events,
                &self.index.gateway_set,
                &Hop::new(from, to, currency),
                amount,
                now,
            )?;
        }
        Ok(PaymentRecord {
            tx_hash: entry.tx_hash,
            sender,
            destination,
            currency,
            issuer: hops.last().copied(),
            amount,
            timestamp: now,
            ledger_seq: entry.ledger_seq,
            paths: PathSummary::from_path_iters(std::iter::once(hops.iter().copied())),
            cross_currency: false,
            source_currency: None,
        })
    }

    fn run_body(
        &mut self,
        entry: &ScriptedPayment,
        events: &mut Vec<HistoryEvent>,
    ) -> Result<PaymentRecord, LedgerError> {
        let now = entry.timestamp;
        let base =
            |sender, destination, currency, issuer, amount, paths, cross, src| PaymentRecord {
                tx_hash: entry.tx_hash,
                sender,
                destination,
                currency,
                issuer,
                amount,
                timestamp: now,
                ledger_seq: entry.ledger_seq,
                paths,
                cross_currency: cross,
                source_currency: src,
            };
        Ok(match &entry.body {
            ScriptedBody::Xrp {
                sender,
                destination,
                amount,
                fresh_destination,
            } => {
                if *fresh_destination {
                    self.state.create_account(*destination, Drops::ZERO);
                    events.push(HistoryEvent::AccountCreated {
                        account: *destination,
                        timestamp: now,
                    });
                }
                let drops = Drops::new(amount.raw().max(1) as u64);
                top_up_xrp(&mut self.state, self.treasury, *sender, drops)?;
                self.state
                    .xrp_transfer_unchecked(*sender, *destination, drops)?;
                base(
                    *sender,
                    *destination,
                    Currency::XRP,
                    None,
                    *amount,
                    PathSummary::direct(),
                    false,
                    None,
                )
            }
            ScriptedBody::Spin { sender, bet } => {
                let drops = Drops::from_xrp(*bet);
                top_up_xrp(&mut self.state, self.treasury, *sender, drops)?;
                self.state
                    .xrp_transfer_unchecked(*sender, self.cast.spin, drops)?;
                base(
                    *sender,
                    self.cast.spin,
                    Currency::XRP,
                    None,
                    Value::from_int(*bet as i64),
                    PathSummary::direct(),
                    false,
                    None,
                )
            }
            ScriptedBody::ZeroOut { dust } | ScriptedBody::ZeroBack { dust } => {
                let outbound = matches!(entry.body, ScriptedBody::ZeroOut { .. });
                let (sender, destination) = if outbound {
                    (self.cast.zero_spammer, AccountId::ZERO)
                } else {
                    (AccountId::ZERO, self.cast.zero_spammer)
                };
                let drops = Drops::new(dust.raw() as u64);
                top_up_xrp(&mut self.state, self.treasury, sender, drops)?;
                self.state
                    .xrp_transfer_unchecked(sender, destination, drops)?;
                base(
                    sender,
                    destination,
                    Currency::XRP,
                    None,
                    *dust,
                    PathSummary::direct(),
                    false,
                    None,
                )
            }
            ScriptedBody::Mtl { sink, amount } => {
                let share = Value::from_raw(amount.raw() / 6);
                let mtl = &self.mtl_hops;
                // The script draws every sink from `cast.mtl_sinks`.
                let into_sink = mtl
                    .into_sink
                    .get(sink)
                    .ok_or(LedgerError::NoSuchAccount(*sink))?;
                for (chain, last) in mtl.chains.iter().zip(into_sink) {
                    for hop in chain.iter().chain(std::iter::once(last)) {
                        apply_hop(
                            &mut self.state,
                            events,
                            &self.index.gateway_set,
                            hop,
                            share,
                            now,
                        )?;
                    }
                }
                base(
                    self.cast.mtl_attacker,
                    *sink,
                    Currency::MTL,
                    Some(self.cast.mtl_attacker),
                    *amount,
                    self.mtl_paths.clone(),
                    false,
                    None,
                )
            }
            ScriptedBody::Iou {
                sender,
                destination,
                currency,
                src_currency,
                amount,
                share,
                src_share,
                issuer,
                cross,
                is_cck: _,
                paths,
            } => {
                for path in paths {
                    for (i, (from, to)) in hop_pairs(*sender, &path.hops, *destination).enumerate()
                    {
                        let (cur, amt) = if *cross && i <= path.conv_at {
                            (src_currency.unwrap_or(*currency), *src_share)
                        } else {
                            (*currency, *share)
                        };
                        apply_hop(
                            &mut self.state,
                            events,
                            &self.index.gateway_set,
                            &Hop::new(from, to, cur),
                            amt,
                            now,
                        )?;
                    }
                }
                // The summary copies the hops into one table of its own:
                // taking the scripted lists would keep a scripting worker's
                // allocation alive for the whole run, which measured
                // slower, and the chunk is freed whole after its batch
                // reaches the sink (EXPERIMENTS.md, "One copy of the
                // history").
                let summary =
                    PathSummary::from_path_iters(paths.iter().map(|p| p.hops.iter().copied()));
                base(
                    *sender,
                    *destination,
                    *currency,
                    Some(*issuer),
                    *amount,
                    summary,
                    *cross,
                    cross.then(|| src_currency.unwrap_or(*currency)),
                )
            }
        })
    }
}

/// The hops `sender → path[0] → … → destination`, in order, walked
/// without building the chain.
fn hop_pairs(
    sender: AccountId,
    path: &[AccountId],
    destination: AccountId,
) -> impl Iterator<Item = (AccountId, AccountId)> + '_ {
    let to = path.iter().copied().chain(std::iter::once(destination));
    std::iter::once(sender).chain(path.iter().copied()).zip(to)
}

/// Moves `amount` over `hop`, first making room when the hop cannot
/// carry it.
///
/// The move is one [`LedgerState::try_ripple`] probe of the hop's record.
/// Only a hop it refuses escalates, from the capacity the refusal returned:
/// a deposit is topped up when the receiving side is a gateway (gateways
/// do not extend trust), and the receiver's trust limit is raised
/// organically otherwise; then the balance moves through
/// [`LedgerState::adjust_pair_balance`] without a second capacity probe.
/// The ledger writes are those of "ensure capacity, then
/// [`LedgerState::ripple_hop`]", which the test module keeps as the
/// reference.
///
/// # Errors
///
/// The ledger's refusal of the trust write (a party missing), which the
/// executor surfaces as a [`PipelineError`] of stage `"exec"`.
pub(crate) fn apply_hop(
    state: &mut LedgerState,
    events: &mut Vec<HistoryEvent>,
    gateways: &FxHashSet<AccountId>,
    hop: &Hop,
    amount: Value,
    now: RippleTime,
) -> Result<(), LedgerError> {
    HOP_PROBES.add(1);
    let Err(capacity) = state.try_ripple(hop, amount) else {
        return Ok(());
    };
    TRUST_ESCALATIONS.add(1);
    let (from, to, currency) = (hop.from(), hop.to(), hop.currency());
    let shortfall = amount - capacity;
    if gateways.contains(&to) {
        // `from` deposits at the gateway: the gateway issues IOUs to
        // `from` (needs `from` to trust the gateway in this currency).
        let boost = Value::from_raw(shortfall.raw().saturating_mul(50)).max_one();
        let limit = state.trust_limit(from, to, currency);
        let claim = state.iou_balance(from, to, currency);
        if limit - claim < boost {
            let new_limit = (claim + boost + boost).max_one();
            state.set_trust(from, to, currency, new_limit)?;
            events.push(HistoryEvent::TrustSet {
                truster: from,
                trustee: to,
                currency,
                limit: new_limit,
                timestamp: now,
            });
        }
        // ripple_hop(to, from, boost) without the re-validation.
        state.adjust_pair_balance(from, to, currency, boost);
    } else {
        // Raise `to`'s declared trust in `from` (organic trust growth).
        let claim = state.iou_balance(to, from, currency);
        let new_limit = (claim + Value::from_raw(amount.raw().saturating_mul(50))).max_one();
        state.set_trust(to, from, currency, new_limit)?;
        events.push(HistoryEvent::TrustSet {
            truster: to,
            trustee: from,
            currency,
            limit: new_limit,
            timestamp: now,
        });
    }
    // ripple_hop(from, to, amount) without the re-validation.
    state.adjust_pair_balance(to, from, currency, amount);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use ripple_crypto::sha512_half;

    fn run(workers: usize, payments: usize, seed: u64) -> PipelineRun {
        let config = SynthConfig {
            seed,
            ..SynthConfig::small(payments)
        };
        Generator::new(config)
            .run_pipelined(&PipelineConfig {
                workers,
                chunk_size: 512,
                archive: true,
                ..PipelineConfig::default()
            })
            .expect("pipeline")
    }

    #[test]
    fn pipeline_generates_exactly_n_payments() {
        let out = run(2, 1_500, 11);
        assert_eq!(out.output.payments().count(), 1_500);
        assert_eq!(out.tallies.payments, 1_500);
    }

    #[test]
    fn worker_count_does_not_change_the_history() {
        let one = run(1, 1_200, 12);
        let four = run(4, 1_200, 12);
        assert_eq!(one.output.events, four.output.events);
        assert_eq!(
            sha512_half(one.archive.as_ref().unwrap()),
            sha512_half(four.archive.as_ref().unwrap()),
        );
    }

    #[test]
    fn scripting_panic_surfaces_as_an_error() {
        let config = SynthConfig {
            seed: 16,
            ..SynthConfig::small(1_200)
        };
        let err = Generator::new(config)
            .run_pipelined(&PipelineConfig {
                workers: 2,
                chunk_size: 512,
                archive: false,
                inject_chunk_panic: Some(1),
            })
            .unwrap_err();
        assert_eq!(err.stage, "script");
        assert!(
            err.message.contains("injected scripting panic"),
            "unexpected message: {}",
            err.message
        );
    }

    #[test]
    fn encoded_bytes_are_reported_with_and_without_archive() {
        let config = SynthConfig {
            seed: 15,
            ..SynthConfig::small(800)
        };
        let kept = Generator::new(config.clone())
            .run_pipelined(&PipelineConfig {
                workers: 2,
                chunk_size: 512,
                archive: true,
                ..PipelineConfig::default()
            })
            .expect("pipeline");
        let dropped = Generator::new(config)
            .run_pipelined(&PipelineConfig {
                workers: 2,
                chunk_size: 512,
                archive: false,
                ..PipelineConfig::default()
            })
            .expect("pipeline");
        let archive = kept.archive.as_ref().expect("archive requested");
        assert_eq!(kept.bench.encoded_bytes, archive.len());
        assert_eq!(kept.bench.archive_bytes, archive.len());
        // Without --archive the encoder still runs and reports the same
        // byte volume; it just retains nothing.
        assert_eq!(dropped.bench.encoded_bytes, kept.bench.encoded_bytes);
        assert!(dropped.bench.encoded_bytes > 0);
        assert_eq!(dropped.bench.archive_bytes, 0);
        assert!(dropped.archive.is_none());
    }

    #[test]
    fn timestamps_stay_monotone_and_page_aligned() {
        let out = run(3, 1_000, 13);
        let mut prev = RippleTime::EPOCH;
        for p in out.output.payments() {
            assert!(p.timestamp >= prev, "timestamps must be non-decreasing");
            assert_eq!(
                (p.timestamp.seconds() - out.output.config.start.seconds()) % 5,
                0
            );
            prev = p.timestamp;
        }
    }

    #[test]
    fn tallies_match_a_recount() {
        let out = run(2, 1_000, 14);
        let mut recount = HistoryTallies::default();
        for p in out.output.payments() {
            recount.observe(p);
        }
        assert_eq!(out.tallies.currency_counts, recount.currency_counts);
        assert_eq!(out.tallies.hop_histogram, recount.hop_histogram);
        assert_eq!(out.tallies.parallel_histogram, recount.parallel_histogram);
        let amounts =
            |t: &HistoryTallies| t.amounts_by_currency.values().map(Vec::len).sum::<usize>();
        assert_eq!(amounts(&out.tallies), amounts(&recount));
    }

    #[test]
    fn a_sink_thread_panic_surfaces_as_a_sink_error() {
        let ok_tally = || -> Tallied { (0.0, HistoryTallies::default(), Vec::new()) };
        let (encoder_down, tally_down) = std::thread::scope(|s| {
            let encoder = s.spawn(|| -> Result<Encoded, PipelineError> { panic!("encoder down") });
            let encoder_down = join_sinks(encoder, s.spawn(ok_tally)).unwrap_err();
            let encoder = s.spawn(|| -> Result<Encoded, PipelineError> { Ok((0.0, 0, None)) });
            let tally = s.spawn(|| -> Tallied { panic!("tally down") });
            (encoder_down, join_sinks(encoder, tally).unwrap_err())
        });
        for (err, text) in [(encoder_down, "encoder down"), (tally_down, "tally down")] {
            assert_eq!(err.stage, "sink");
            assert!(
                err.message.contains(text),
                "unexpected message: {}",
                err.message
            );
        }
    }

    /// The two-step reference for [`apply_hop`]: guarantees that the hop
    /// `from -> to` can carry `amount` of `currency` (scanning the cast
    /// for gateway membership); the caller then moves the balance. Every
    /// move here is `hop_capacity` plus `adjust_pair_balance`, never
    /// `ripple_hop`, which shares `try_ripple` with the code under test.
    #[allow(clippy::too_many_arguments)]
    fn ensure_hop(
        state: &mut LedgerState,
        events: &mut Vec<HistoryEvent>,
        cast: &Cast,
        from: AccountId,
        to: AccountId,
        currency: Currency,
        amount: Value,
        now: RippleTime,
    ) {
        let capacity = state.hop_capacity(from, to, currency);
        if capacity >= amount {
            return;
        }
        let shortfall = amount - capacity;
        let is_gateway = cast.gateways.iter().any(|g| g.account == to);
        if is_gateway {
            // `from` deposits at the gateway: the gateway issues IOUs to `from`
            // (needs `from` to trust the gateway in this currency).
            let boost = Value::from_raw(shortfall.raw().saturating_mul(50)).max_one();
            let limit = state.trust_limit(from, to, currency);
            let claim = state.iou_balance(from, to, currency);
            if limit - claim < boost {
                let new_limit = (claim + boost + boost).max_one();
                state
                    .set_trust(from, to, currency, new_limit)
                    .expect("parties exist");
                events.push(HistoryEvent::TrustSet {
                    truster: from,
                    trustee: to,
                    currency,
                    limit: new_limit,
                    timestamp: now,
                });
            }
            assert!(state.hop_capacity(to, from, currency) >= boost);
            state.adjust_pair_balance(from, to, currency, boost);
        } else {
            // Raise `to`'s declared trust in `from` (organic trust growth).
            let claim = state.iou_balance(to, from, currency);
            let new_limit = (claim + Value::from_raw(amount.raw().saturating_mul(50))).max_one();
            state
                .set_trust(to, from, currency, new_limit)
                .expect("parties exist");
            events.push(HistoryEvent::TrustSet {
                truster: to,
                trustee: from,
                currency,
                limit: new_limit,
                timestamp: now,
            });
        }
    }

    /// Every record sorted by key, and every account's owner count.
    fn ledger_view(
        state: &LedgerState,
    ) -> (Vec<ripple_ledger::RippleState>, Vec<(AccountId, u32)>) {
        let mut records: Vec<_> = state.ripple_states().collect();
        records.sort_unstable_by_key(|r| (r.low, r.high, r.currency));
        let mut owners: Vec<_> = state
            .accounts()
            .map(|(&id, root)| (id, root.owner_count))
            .collect();
        owners.sort_unstable();
        (records, owners)
    }

    #[test]
    fn fused_hop_matches_serial_ensure_plus_ripple() {
        let config = SynthConfig::small(200);
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = LedgerState::new();
        let mut events = Vec::new();
        let cast = Cast::build(&config, &mut reference, &mut events, &mut rng);
        let mut fused = reference.clone();
        let gateways: FxHashSet<AccountId> = cast.gateways.iter().map(|g| g.account).collect();
        let mtl = MtlHops::new(&cast);
        let mut next = {
            let mut x = 0x5EED_0042u64;
            move |bound: u64| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % bound
            }
        };
        // USD user and gateway hops, MTL chain hops (fixed and into a
        // sink), exact-capacity moves, and both escalation kinds.
        let mut shapes = [0usize; 6];
        for step in 0..1_500u64 {
            let user = |k: u64| cast.users[k as usize].0;
            let n_users = cast.users.len() as u64;
            let gw = cast.gateways[next(cast.gateways.len() as u64) as usize].account;
            let (from, to, currency) = match next(6) {
                0 => {
                    let c = next(mtl.chains.len() as u64) as usize;
                    let chain = &mtl.chains[c];
                    let hop = if next(4) == 0 {
                        let sink = cast.mtl_sinks[next(cast.mtl_sinks.len() as u64) as usize];
                        mtl.into_sink[&sink][c]
                    } else {
                        chain[next(chain.len() as u64) as usize]
                    };
                    shapes[0] += 1;
                    (hop.from(), hop.to(), hop.currency())
                }
                1 => (user(next(n_users)), gw, Currency::USD),
                2 => (gw, user(next(n_users)), Currency::USD),
                _ => {
                    // A small community of users so pairs repeat.
                    let a = next(40);
                    (user(a), user((a + 1 + next(39)) % 40), Currency::USD)
                }
            };
            if from == to {
                continue;
            }
            let capacity = reference.hop_capacity(from, to, currency);
            let amount = if currency == Currency::MTL {
                Value::from_int(150_000_000 + next(40_000_000) as i64)
            } else if capacity.is_positive() && next(4) == 0 {
                shapes[1] += 1;
                capacity
            } else {
                Value::from_raw((1 + next(60) as i128) * 500_000)
            };
            if capacity < amount {
                shapes[2 + usize::from(gateways.contains(&to))] += 1;
            }
            shapes[4] += usize::from(gateways.contains(&to));
            shapes[5] += usize::from(gateways.contains(&from));
            let now = RippleTime::from_seconds(100 + step);
            let (mut ev_ref, mut ev_fused) = (Vec::new(), Vec::new());
            ensure_hop(
                &mut reference,
                &mut ev_ref,
                &cast,
                from,
                to,
                currency,
                amount,
                now,
            );
            assert!(reference.hop_capacity(from, to, currency) >= amount);
            reference.adjust_pair_balance(to, from, currency, amount);
            apply_hop(
                &mut fused,
                &mut ev_fused,
                &gateways,
                &Hop::new(from, to, currency),
                amount,
                now,
            )
            .unwrap();
            assert_eq!(ev_fused, ev_ref, "step {step}");
            assert_eq!(
                fused.credit_generation(),
                reference.credit_generation(),
                "step {step}"
            );
            if step % 100 == 99 {
                assert!(
                    ledger_view(&fused) == ledger_view(&reference),
                    "step {step}"
                );
            }
        }
        assert!(ledger_view(&fused) == ledger_view(&reference));
        assert!(shapes.iter().all(|&k| k > 30), "{shapes:?}");
    }

    #[test]
    fn a_treasury_that_cannot_cover_a_top_up_is_returned_not_panicked() {
        let config = SynthConfig::small(10);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut state = LedgerState::new();
        let cast = Cast::build(&config, &mut state, &mut Vec::new(), &mut rng);
        let treasury = AccountId::from_bytes([0xFE; 20]);
        state.create_account(treasury, Drops::from_xrp(1));
        let menus = build_menus(&cast, &mut rng);
        let index = CastIndex::build(&config, &cast, menus, RateTable::eur_2015());
        let mut exec = Executor::new(&config, &cast, &index, state, treasury);
        // Far more than the sender holds, so it needs the treasury.
        let payment = ScriptedPayment {
            timestamp: config.start,
            ledger_seq: 1,
            tx_hash: ripple_crypto::Digest256::from_bytes([7; 32]),
            offers: Vec::new(),
            body: ScriptedBody::Xrp {
                sender: cast.users[0].0,
                destination: cast.users[1].0,
                amount: Value::from_int(1_000_000_000),
                fresh_destination: false,
            },
        };
        let mut events = Vec::new();
        let refused = exec.run_payment(0, &payment, &mut events);
        assert!(
            matches!(refused, Err(LedgerError::InsufficientXrp { account, .. }) if account == treasury),
            "{refused:?}"
        );
        assert!(events.is_empty());
    }

    #[test]
    fn a_refused_trust_write_is_returned_not_panicked() {
        let mut state = LedgerState::new();
        let payer = AccountId::from_bytes([1; 20]);
        let ghost = AccountId::from_bytes([2; 20]);
        state.create_account(payer, Drops::from_xrp(100));
        let mut events = Vec::new();
        let refused = apply_hop(
            &mut state,
            &mut events,
            &FxHashSet::default(),
            &Hop::new(payer, ghost, Currency::USD),
            "5".parse().unwrap(),
            RippleTime::from_seconds(100),
        );
        assert_eq!(refused, Err(LedgerError::NoSuchAccount(ghost)));
        assert!(events.is_empty());
        assert_eq!(
            state.trust_lines().count() + state.pair_balances().count(),
            0
        );
    }
}
