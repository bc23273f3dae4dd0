//! A live networked validator: wall-clock RPCA rounds over supervised
//! TCP links.
//!
//! The node runs a single-threaded event loop (see [`crate::poll`]) around
//! one [`ValidatorCore`], the validator the in-process simulator runs n of:
//! it files what arrives, refines at each deadline and tallies the close.
//! This file is the transport: slot stepping, sockets (a consensus message
//! must name its link's `Hello` peer), spans, timers and telemetry. Rounds
//! are anchored to a wall-clock epoch shared by the whole cluster: round `r`
//! spans `[epoch + r·round_ms, epoch + (r+1)·round_ms)`, split into the four
//! proposal iterations plus the validation phase. Because the epoch rides
//! on the command line, a validator that is `kill -9`ed and restarted
//! recomputes the current round from the clock and rejoins mid-stream —
//! no coordination required.
//!
//! Robustness behaviours, per the supervision layer ([`crate::peer`]):
//!
//! * a validator below quorum connectivity keeps proposing, flagging its
//!   rounds *degraded* instead of crashing or stalling;
//! * every (re)connected validator link is immediately asked for the
//!   peer's committed tip ([`WireMsg::StateRequest`]) — state
//!   resubscription instead of a blind restart;
//! * control-plane bans implement socket-level partitions: links are
//!   dropped and refused until the heal.

use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use ripple_consensus::{ValidatorCore, PHASES};
use ripple_crypto::Digest256;
use ripple_obs::http::{admin_response, timeseries_response, PollServer, Request, Response};
use ripple_obs::json::JsonWriter;
use ripple_obs::timeseries::TimeSeries;
use ripple_obs::{flight, trace, LazyCounter, LazyGauge, LazyHistogram, Span};

use crate::frame::{DecoderStats, FrameDecoder};
use crate::peer::{BackoffPolicy, Supervisor};
use crate::poll::{drain_into, probe, try_accept, Drained, Poller, Probe};
use crate::wire::{LinkKind, Telemetry, WireMsg};

static RECONNECT_ATTEMPTS: LazyCounter = LazyCounter::new("node.reconnect.attempts");
static RECONNECT_SUCCESSES: LazyCounter = LazyCounter::new("node.reconnect.successes");
static BACKOFF_MS: LazyCounter = LazyCounter::new("node.backoff.ms_total");
static FRAMES_SENT: LazyCounter = LazyCounter::new("node.frames.sent");
static FRAMES_RECEIVED: LazyCounter = LazyCounter::new("node.frames.received");
static CRC_ERRORS: LazyCounter = LazyCounter::new("node.frames.crc_errors");
static RESYNCS: LazyCounter = LazyCounter::new("node.frames.resyncs");
static STATE_RESUBS: LazyCounter = LazyCounter::new("node.state.resubs");
static ROUNDS_COMMITTED: LazyCounter = LazyCounter::new("node.rounds.committed");
static ROUNDS_DEGRADED: LazyCounter = LazyCounter::new("node.rounds.degraded");
static HEARTBEATS_SENT: LazyCounter = LazyCounter::new("node.heartbeats.sent");

/// Spread between the first and last proposal arrival within one
/// `(round, iteration)`, milliseconds.
static PROPOSAL_DISPERSION_MS: LazyHistogram =
    LazyHistogram::new("node.round.proposal_dispersion_ms");
/// Receive-side validation latency (`local_ms - sent_ms` per validation),
/// milliseconds; includes residual clock skew.
static VALIDATION_LATENCY_MS: LazyHistogram =
    LazyHistogram::new("node.round.validation_latency_ms");
/// Time from the start of a round's validation phase until quorum-many of
/// its validations were collected, milliseconds (0 if they all came early).
static QUORUM_COLLECT_MS: LazyHistogram = LazyHistogram::new("node.round.quorum_collect_ms");
/// Tightest `local_ms - sent_ms` observed over heartbeats: an upper bound
/// on clock skew + one-way delay toward this node.
static SKEW_BOUND_MS: LazyGauge = LazyGauge::new("node.clock.skew_bound_ms");

/// The supervisor link id used for the harness feed connection.
pub const FEED_ID: u32 = u32::MAX;

/// Everything a validator needs to join a cluster.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This validator's id (0-based, dense).
    pub id: u32,
    /// Address to listen on for inbound links.
    pub listen: SocketAddr,
    /// The other validators: `(id, address)`.
    pub peers: Vec<(u32, SocketAddr)>,
    /// The harness feed address, if reporting is wanted.
    pub feed: Option<SocketAddr>,
    /// Total validator count (self included).
    pub validators: usize,
    /// Stop after finalizing this many rounds (round indices `0..rounds`).
    pub rounds: u64,
    /// Wall-clock round length in milliseconds (divided into [`PHASES`]).
    pub round_ms: u64,
    /// UNIX-epoch milliseconds at which round 0 begins.
    pub epoch_ms: u64,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
    /// Reconnect backoff shape.
    pub backoff: BackoffPolicy,
    /// Admin HTTP endpoint address (`/health`, `/metrics`, `/timeseries`,
    /// `/trace`, `/flight`), served from the node's own poll loop.
    /// `None` runs the node uninstrumented.
    pub admin: Option<SocketAddr>,
}

impl NodeConfig {
    fn phase_ms(&self) -> u64 {
        (self.round_ms / PHASES).max(1)
    }
}

/// One finalized round, as this validator saw it.
#[derive(Debug, Clone)]
pub struct LocalRound {
    /// Round index.
    pub round: u64,
    /// The page this validator sealed.
    pub page: Digest256,
    /// Whether a single page reached quorum in this validator's view.
    pub committed: bool,
    /// Agreement on the winning page, in thousandths of the UNL.
    pub agreement_milli: u32,
    /// Whether the round ran below quorum connectivity.
    pub degraded: bool,
    /// Connected validator links when the round sealed.
    pub connected: u32,
}

/// What a finished (or shut down) node hands back.
#[derive(Debug)]
pub struct NodeReport {
    /// The validator id.
    pub id: u32,
    /// Every round finalized locally.
    pub rounds: Vec<LocalRound>,
    /// Final transport/supervision counters.
    pub telemetry: Telemetry,
}

/// A socket paired with its frame decoder and damage accounting.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    counted: DecoderStats,
    /// Which peer this is, once its Hello arrives (inbound only).
    peer: Option<u32>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            counted: DecoderStats::default(),
            peer: None,
        }
    }

    /// Adds this connection's decoder-stat deltas to the node totals.
    fn harvest(&mut self, telemetry: &mut Telemetry) {
        let s = self.decoder.stats();
        telemetry.frames_received += s.frames - self.counted.frames;
        telemetry.crc_errors += s.crc_errors - self.counted.crc_errors;
        telemetry.resyncs += s.resyncs - self.counted.resyncs;
        self.counted = s;
    }
}

/// Writes one frame, spinning briefly through `WouldBlock` so transient
/// kernel-buffer pressure does not tear a frame mid-write.
fn write_frame(stream: &mut TcpStream, bytes: &[u8]) -> io::Result<()> {
    let mut off = 0usize;
    let mut spins = 0u32;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && spins < 50 => {
                spins += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Milliseconds since the UNIX epoch, the clock rounds are anchored to.
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The node's `/timeseries` sources, windowed at one round per window so
/// rates read as per-round figures.
fn build_timeseries(round_ms: u64) -> TimeSeries {
    let mut ts = TimeSeries::new(round_ms.max(1), 240);
    ts.counter("node.frames.sent", FRAMES_SENT.force());
    ts.counter("node.frames.received", FRAMES_RECEIVED.force());
    ts.counter("node.rounds.committed", ROUNDS_COMMITTED.force());
    ts.counter("node.rounds.degraded", ROUNDS_DEGRADED.force());
    ts.gauge("node.clock.skew_bound_ms", SKEW_BOUND_MS.force());
    ts.histogram(
        "node.round.validation_latency_ms",
        VALIDATION_LATENCY_MS.force(),
    );
    ts.histogram("node.round.quorum_collect_ms", QUORUM_COLLECT_MS.force());
    ts
}

/// The node's `/health` body: identity, where it is in the round
/// schedule, and the clock-alignment anchors (`epoch_ms`,
/// `trace_epoch_unix_ms`, `skew_bound_ms`) the cluster harness needs to
/// merge this node's trace into cluster time.
fn health_body(
    cfg: &NodeConfig,
    slot: Option<(u64, u8)>,
    rounds_done: &[LocalRound],
    connected: u32,
    skew_bound_ms: Option<i64>,
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("status", "ok");
    w.field_u64("node", u64::from(cfg.id));
    w.field_u64("round", slot.map(|(r, _)| r).unwrap_or(0));
    w.field_u64("phase", slot.map(|(_, p)| u64::from(p)).unwrap_or(0));
    w.field_u64("rounds_done", rounds_done.len() as u64);
    w.field_u64(
        "committed",
        rounds_done.iter().filter(|r| r.committed).count() as u64,
    );
    w.field_u64("connected", u64::from(connected));
    w.field_u64("epoch_ms", cfg.epoch_ms);
    w.field_u64("round_ms", cfg.round_ms);
    w.field_u64("trace_epoch_unix_ms", trace::epoch_unix_ms());
    match skew_bound_ms {
        Some(ms) => w.field_i64("skew_bound_ms", ms),
        None => w.field_null("skew_bound_ms"),
    }
    w.end_object();
    w.finish()
}

/// The live validator.
pub struct Node {
    cfg: NodeConfig,
    listener: TcpListener,
    inbound: Vec<Conn>,
    /// Connected outbound links by peer id (validators plus [`FEED_ID`]).
    outbound: HashMap<u32, Conn>,
    supervisor: Supervisor,
    poller: Poller,
    banned: HashSet<u32>,
    /// This validator: its position and what it filed of the open round
    /// and the next.
    core: ValidatorCore,
    /// The core's support buffer, reused across deadlines.
    support: Vec<u32>,
    /// `(round, phase)` most recently entered.
    slot: Option<(u64, u8)>,
    last_committed: Option<(u64, Digest256)>,
    rounds_done: Vec<LocalRound>,
    telemetry: Telemetry,
    /// Telemetry already mirrored into the obs registry.
    mirrored: Telemetry,
    shutdown: bool,
    /// Admin HTTP endpoint, when configured.
    admin: Option<PollServer>,
    /// Windowed metrics behind `/timeseries` (admin runs only).
    series: Option<TimeSeries>,
    /// Per-sender consensus-message sequence (trace context).
    msg_seq: u64,
    /// Open round spans, closed (and recorded) at finalize.
    round_spans: HashMap<u64, Span>,
    /// `(round, iteration) → (first, last)` arrival unix-ms of the
    /// proposals the core filed.
    prop_arrivals: HashMap<(u64, u8), (u64, u64)>,
    /// Tightest heartbeat `local_ms - sent_ms` seen so far.
    skew_bound_ms: Option<i64>,
}

impl Node {
    /// Binds the listen socket and prepares the event loop.
    ///
    /// # Errors
    ///
    /// I/O errors from binding `cfg.listen`; `InvalidInput` if `cfg.id` is
    /// not below `cfg.validators`.
    pub fn bind(cfg: NodeConfig) -> io::Result<Node> {
        let everyone = (0..cfg.validators).collect();
        let core = ValidatorCore::new(cfg.id as usize, &everyone, cfg.validators);
        let core = core.ok_or(io::ErrorKind::InvalidInput)?;
        let listener = TcpListener::bind(cfg.listen)?;
        listener.set_nonblocking(true)?;
        let mut ids: Vec<u32> = cfg.peers.iter().map(|&(id, _)| id).collect();
        if cfg.feed.is_some() {
            ids.push(FEED_ID);
        }
        let heartbeat = Duration::from_millis((cfg.round_ms / 2).max(20));
        let supervisor = Supervisor::new(
            ids,
            cfg.backoff,
            cfg.seed ^ u64::from(cfg.id),
            heartbeat,
            Instant::now(),
        );
        let admin = match cfg.admin {
            None => None,
            Some(addr) => Some(PollServer::bind(&addr.to_string())?),
        };
        let series = admin.as_ref().map(|_| build_timeseries(cfg.round_ms));
        Ok(Node {
            cfg,
            listener,
            inbound: Vec::new(),
            outbound: HashMap::new(),
            supervisor,
            poller: Poller::default(),
            banned: HashSet::new(),
            core,
            support: Vec::new(),
            slot: None,
            last_committed: None,
            rounds_done: Vec::new(),
            telemetry: Telemetry::default(),
            mirrored: Telemetry::default(),
            shutdown: false,
            admin,
            series,
            msg_seq: 0,
            round_spans: HashMap::new(),
            prop_arrivals: HashMap::new(),
            skew_bound_ms: None,
        })
    }

    /// The actual bound listen address (useful with port 0).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound admin endpoint address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(PollServer::local_addr)
    }

    /// Runs the event loop until `cfg.rounds` rounds are finalized or a
    /// control shutdown arrives. Never panics on transport failures —
    /// connections come and go, the loop endures.
    ///
    /// # Errors
    ///
    /// Only fatal local I/O (the listener dying) surfaces as `Err`.
    pub fn run(mut self) -> io::Result<NodeReport> {
        loop {
            let now_ms = unix_ms();
            if now_ms < self.cfg.epoch_ms {
                let wait = (self.cfg.epoch_ms - now_ms).min(50);
                std::thread::sleep(Duration::from_millis(wait));
                continue;
            }
            self.advance_rounds(now_ms);
            if self.finished() {
                break;
            }

            let mut activity = false;
            activity |= self.accept_new();
            activity |= self.pump_inbound();
            activity |= self.pump_outbound();
            self.dial_due();
            self.heartbeat();
            activity |= self.poll_admin();
            if self.shutdown {
                break;
            }
            if !activity {
                self.poller.idle_wait();
            }
        }
        // Close any still-open round span so its duration is recorded.
        self.round_spans.clear();
        flight::note(
            "node",
            if self.shutdown {
                "shutdown"
            } else {
                "finished"
            },
            self.slot.map(|(r, _)| r),
            &[("rounds_done", self.rounds_done.len() as i64)],
        );
        self.report_telemetry();
        let telemetry = self.telemetry_snapshot();
        Ok(NodeReport {
            id: self.cfg.id,
            rounds: self.rounds_done,
            telemetry,
        })
    }

    /// Serves any pending admin requests from the poll loop. The time
    /// series is ticked here every pass, so window boundaries and gauge
    /// high-water sampling don't depend on anyone polling `/timeseries`.
    fn poll_admin(&mut self) -> bool {
        let Some(mut server) = self.admin.take() else {
            return false;
        };
        let now_ms = unix_ms();
        if let Some(series) = self.series.as_mut() {
            series.tick(now_ms.saturating_sub(self.cfg.epoch_ms));
        }
        let node_name = self.cfg.id.to_string();
        let cfg = &self.cfg;
        let slot = self.slot;
        let rounds_done = &self.rounds_done;
        let connected = self.connected_peers();
        let skew = self.skew_bound_ms;
        let series = &self.series;
        let served = server.poll(&mut |req: &Request| {
            if req.path == "/health" {
                return Response::json(health_body(cfg, slot, rounds_done, connected, skew));
            }
            if req.path == "/timeseries" {
                return match series {
                    Some(series) => timeseries_response(series, &req.query),
                    None => Response::error(404, "timeseries disabled"),
                };
            }
            admin_response(&node_name, req)
                .unwrap_or_else(|| Response::error(404, "no such endpoint"))
        });
        self.admin = Some(server);
        served > 0
    }

    fn finished(&self) -> bool {
        self.rounds_done
            .last()
            .map(|r| r.round + 1 >= self.cfg.rounds)
            .unwrap_or(false)
    }

    fn telemetry_snapshot(&self) -> Telemetry {
        let sup = self.supervisor.telemetry();
        let mut t = self.telemetry;
        t.reconnect_attempts = sup.reconnect_attempts;
        t.reconnect_successes = sup.reconnect_successes;
        t.backoff_ms_total = sup.backoff_ms_total;
        t
    }

    /// Ships the counters over the feed, decoder stats not harvested yet
    /// included, and mirrors them into the obs registry.
    fn report_telemetry(&mut self) {
        for conn in self.inbound.iter_mut().chain(self.outbound.values_mut()) {
            conn.harvest(&mut self.telemetry);
        }
        let counters = self.telemetry_snapshot();
        self.send_feed(&WireMsg::TelemetryReport {
            from: self.cfg.id,
            counters,
        });
        self.mirror_metrics();
    }

    /// Mirrors telemetry deltas into the obs metrics registry.
    fn mirror_metrics(&mut self) {
        let t = self.telemetry_snapshot();
        let m = self.mirrored;
        RECONNECT_ATTEMPTS.add(t.reconnect_attempts - m.reconnect_attempts);
        RECONNECT_SUCCESSES.add(t.reconnect_successes - m.reconnect_successes);
        BACKOFF_MS.add(t.backoff_ms_total - m.backoff_ms_total);
        FRAMES_SENT.add(t.frames_sent - m.frames_sent);
        FRAMES_RECEIVED.add(t.frames_received - m.frames_received);
        CRC_ERRORS.add(t.crc_errors - m.crc_errors);
        RESYNCS.add(t.resyncs - m.resyncs);
        STATE_RESUBS.add(t.state_resubs - m.state_resubs);
        HEARTBEATS_SENT.add(t.heartbeats_sent - m.heartbeats_sent);
        self.mirrored = t;
    }

    // -- round machinery ----------------------------------------------------

    fn slot_at(&self, now_ms: u64) -> (u64, u8) {
        let t = now_ms - self.cfg.epoch_ms;
        let round = t / self.cfg.round_ms;
        let phase = ((t % self.cfg.round_ms) / self.cfg.phase_ms()).min(PHASES - 1) as u8;
        (round, phase)
    }

    fn advance_rounds(&mut self, now_ms: u64) {
        let target = self.slot_at(now_ms);
        let mut cur = match self.slot {
            // First tick (fresh start or post-restart): join the current
            // slot without replaying history.
            None => {
                self.slot = Some(target);
                self.enter_slot(target);
                return;
            }
            Some(cur) => cur,
        };
        let mut steps = 0u32;
        while cur < target {
            // Step through every slot so no phase transition is skipped
            // when a tick runs long; if the loop stalled catastrophically
            // (debugger, VM pause), jump instead of replaying hours.
            steps += 1;
            if steps > 4 * PHASES as u32 {
                cur = target;
            } else {
                cur = if u64::from(cur.1) + 1 < PHASES {
                    (cur.0, cur.1 + 1)
                } else {
                    (cur.0 + 1, 0)
                };
            }
            self.slot = Some(cur);
            self.enter_slot(cur);
            if self.finished() {
                return;
            }
        }
    }

    /// The deterministic candidate set for a round: a shared base every
    /// validator derives from the round index, plus one transaction
    /// unique to this validator (which the 50% threshold strips — the
    /// same convergence shape the simulator tests use).
    fn candidate(&self, round: u64) -> Arc<[u64]> {
        let base = round * 1_000;
        let own = base + 100 + u64::from(self.cfg.id);
        (1..=3).map(|k| base + k).chain([own]).collect()
    }

    fn enter_slot(&mut self, (round, phase): (u64, u8)) {
        let _phase_span = trace::span_round("node", "phase", round);
        if phase == 0 {
            // One open span per round, closed (recording the full round
            // duration) at finalize — the lane the merged cluster trace
            // shows per validator.
            self.round_spans
                .entry(round)
                .or_insert_with(|| trace::span_round("node", "round", round));
            self.finalize();
        }
        if phase == 0 || self.core.round() != Some(round) {
            // A validator that joins a round part-way holds no position
            // of its own in it.
            let table = self.candidate(round);
            let own = if phase == 0 { table.len() as u32 } else { 0 };
            self.core.open_round(round, table, (0..own).collect());
        }
        if let Some(iteration) = phase.checked_sub(1) {
            // Refine using the proposals of the previous iteration.
            if let Some((first, last)) = self.prop_arrivals.remove(&(round, iteration)) {
                PROPOSAL_DISPERSION_MS.record(last.saturating_sub(first));
            }
            self.core
                .deadline(usize::from(iteration), &mut self.support);
        }

        self.msg_seq += 1;
        if u64::from(phase) < PHASES - 1 {
            self.broadcast(&WireMsg::Proposal {
                from: self.cfg.id,
                round,
                iteration: phase,
                seq: self.msg_seq,
                sent_ms: unix_ms(),
                txs: self.core.ids().into_iter().collect(),
            });
        } else {
            // Validation phase: seal and announce the page.
            let page = self.core.seal();
            self.time_quorum(round, unix_ms());
            self.broadcast(&WireMsg::Validation {
                from: self.cfg.id,
                round,
                seq: self.msg_seq,
                sent_ms: unix_ms(),
                page,
            });
        }
    }

    /// Records the quorum-collection time the moment quorum-many
    /// validations of `round` (the core's open round or the next) are filed.
    fn time_quorum(&self, round: u64, now_ms: u64) {
        if self.core.validated(round) == self.core.quorum() {
            let sealing = round
                .saturating_mul(self.cfg.round_ms)
                .saturating_add((PHASES - 1) * self.cfg.phase_ms())
                .saturating_add(self.cfg.epoch_ms);
            QUORUM_COLLECT_MS.record(now_ms.saturating_sub(sealing));
        }
    }

    fn connected_peers(&self) -> u32 {
        let feed = usize::from(self.supervisor.is_connected(FEED_ID));
        (self.supervisor.connected_count() - feed) as u32
    }

    /// Closes the round the core holds, if this validator sealed it.
    fn finalize(&mut self) {
        let (Some(round), Some((own_page, tally))) = (self.core.round(), self.core.close()) else {
            return;
        };
        let n = self.cfg.validators.max(1);
        let committed = tally.committed;
        let agreement_milli = (tally.count * 1_000 / n) as u32;
        if let Some(page) = tally.winner.filter(|_| committed) {
            self.last_committed = Some((round, page));
        }
        let connected = self.connected_peers();
        let degraded = (connected as usize + 1) < self.core.quorum();
        if degraded {
            self.telemetry.degraded_rounds += 1;
            ROUNDS_DEGRADED.add(1);
        }
        if committed {
            ROUNDS_COMMITTED.add(1);
        }
        // Close the round's span (records its wall-clock duration) and
        // leave a postmortem breadcrumb in the trace ring (the flight dump shows it).
        self.round_spans.remove(&round);
        flight::note(
            "node",
            "round",
            Some(round),
            &[
                ("committed", i64::from(committed)),
                ("agreement_milli", i64::from(agreement_milli)),
                ("degraded", i64::from(degraded)),
                ("connected", i64::from(connected)),
            ],
        );
        let local = LocalRound {
            round,
            page: own_page,
            committed,
            agreement_milli,
            degraded,
            connected,
        };
        self.send_feed(&WireMsg::RoundReport {
            from: self.cfg.id,
            round,
            page: own_page,
            committed,
            agreement_milli,
            degraded,
            connected,
        });
        self.report_telemetry();
        self.rounds_done.push(local);
        // Spans and arrival windows of rounds up to this one are done.
        self.prop_arrivals.retain(|&(r, _), _| r > round);
        self.round_spans.retain(|&r, _| r > round);
    }

    // -- transport ----------------------------------------------------------

    fn accept_new(&mut self) -> bool {
        let mut any = false;
        while let Some(stream) = try_accept(&self.listener) {
            let _ = stream.set_nodelay(true);
            self.inbound.push(Conn::new(stream));
            any = true;
        }
        any
    }

    fn pump_inbound(&mut self) -> bool {
        let mut any = false;
        let mut i = 0;
        while i < self.inbound.len() {
            // Drop links whose peer was banned since the last pass.
            if self.inbound[i]
                .peer
                .map(|p| self.banned.contains(&p))
                .unwrap_or(false)
            {
                self.inbound.swap_remove(i);
                continue;
            }
            let up = match probe(&self.inbound[i].stream) {
                Probe::Idle => true,
                Probe::Closed => false,
                Probe::Data => {
                    any = true;
                    let conn = &mut self.inbound[i];
                    let drained = drain_into(&mut conn.stream, &mut conn.decoder);
                    conn.harvest(&mut self.telemetry);
                    let keep = self.dispatch_conn(i);
                    keep && !matches!(drained, Drained::Closed)
                }
            };
            if up {
                i += 1;
            } else {
                self.inbound.swap_remove(i);
            }
        }
        any
    }

    /// Processes every decoded frame on inbound connection `i`. Returns
    /// `false` if the connection must be dropped (banned peer, protocol
    /// misuse).
    fn dispatch_conn(&mut self, i: usize) -> bool {
        loop {
            let frame = match self.inbound[i].decoder.next_frame() {
                Some(f) => f,
                None => return true,
            };
            let msg = match WireMsg::decode(frame.tag, &frame.payload) {
                Ok(m) => m,
                Err(_) => continue, // unknown/corrupt message: skip, keep link
            };
            // A consensus message counts only from its link's peer.
            let peer = self.inbound[i].peer.filter(|p| !self.banned.contains(p));
            match msg {
                WireMsg::Hello { from, kind } => {
                    if kind == LinkKind::Validator && self.banned.contains(&from) {
                        return false;
                    }
                    self.inbound[i].peer = Some(from);
                }
                WireMsg::Proposal {
                    from,
                    round,
                    iteration,
                    txs,
                    ..
                } => {
                    let it = usize::from(iteration);
                    let core = &mut self.core;
                    if peer == Some(from)
                        && core
                            .on_wire_proposal(from as usize, round, it, &txs)
                            .is_ok()
                    {
                        let now_ms = unix_ms();
                        let arrivals = self.prop_arrivals.entry((round, iteration));
                        arrivals.or_insert((now_ms, now_ms)).1 = now_ms;
                    }
                }
                WireMsg::Validation {
                    from,
                    round,
                    sent_ms,
                    page,
                    ..
                } => {
                    if peer == Some(from)
                        && self.core.on_validation(from as usize, round, page).is_ok()
                    {
                        let now_ms = unix_ms();
                        VALIDATION_LATENCY_MS.record(now_ms.saturating_sub(sent_ms));
                        self.time_quorum(round, now_ms);
                    }
                }
                WireMsg::Heartbeat { sent_ms, .. } => {
                    // Tightest local-minus-sender delta seen bounds clock
                    // skew + one-way delay; the harness reads it back from
                    // `/health` as the residual-skew estimate.
                    let delta = unix_ms() as i64 - sent_ms as i64;
                    if self.skew_bound_ms.map(|b| delta < b).unwrap_or(true) {
                        self.skew_bound_ms = Some(delta);
                        SKEW_BOUND_MS.set(delta);
                    }
                }
                WireMsg::StateRequest { .. } => {
                    let reply = WireMsg::StateSnapshot {
                        from: self.cfg.id,
                        round: self.slot.map(|(r, _)| r).unwrap_or(0),
                        last_committed: self.last_committed.map(|(_, p)| p),
                    };
                    let bytes = reply.encode();
                    if write_frame(&mut self.inbound[i].stream, &bytes).is_err() {
                        return false;
                    }
                    self.telemetry.frames_sent += 1;
                }
                WireMsg::StateSnapshot { .. } => {}
                WireMsg::Ban { peers } => self.apply_ban(&peers),
                WireMsg::Unban { peers } => self.apply_unban(&peers),
                WireMsg::Shutdown => self.shutdown = true,
                WireMsg::RoundReport { .. } | WireMsg::TelemetryReport { .. } => {}
            }
        }
    }

    /// Bans peers. Inbound connections from banned peers are NOT removed
    /// here — `pump_inbound` holds an index into `self.inbound`, so they
    /// are dropped on its next pass instead (see the banned-peer check
    /// there).
    fn apply_ban(&mut self, peers: &[u32]) {
        for &p in peers {
            self.banned.insert(p);
            self.supervisor.ban(p);
            self.outbound.remove(&p);
        }
    }

    fn apply_unban(&mut self, peers: &[u32]) {
        let now = Instant::now();
        for &p in peers {
            self.banned.remove(&p);
            self.supervisor.unban(p, now);
        }
    }

    fn pump_outbound(&mut self) -> bool {
        let mut any = false;
        let mut lost: Vec<u32> = Vec::new();
        for (&id, conn) in self.outbound.iter_mut() {
            match probe(&conn.stream) {
                Probe::Idle => {}
                Probe::Closed => lost.push(id),
                Probe::Data => {
                    any = true;
                    if matches!(
                        drain_into(&mut conn.stream, &mut conn.decoder),
                        Drained::Closed
                    ) {
                        lost.push(id);
                    }
                    conn.harvest(&mut self.telemetry);
                }
            }
            // Frames read off outbound links are state snapshots.
            while let Some(frame) = conn.decoder.next_frame() {
                if let Ok(WireMsg::StateSnapshot {
                    round,
                    last_committed: Some(page),
                    ..
                }) = WireMsg::decode(frame.tag, &frame.payload)
                {
                    let newer = self.last_committed.map(|(r, _)| r < round).unwrap_or(true);
                    if newer && round > 0 {
                        self.last_committed = Some((round - 1, page));
                    }
                }
            }
        }
        self.drop_links(lost);
        any
    }

    /// Drops outbound links whose socket failed.
    fn drop_links(&mut self, lost: Vec<u32>) {
        let now = Instant::now();
        for id in lost {
            self.outbound.remove(&id);
            self.supervisor.connection_lost(id, now);
        }
    }

    fn addr_of(&self, id: u32) -> Option<SocketAddr> {
        if id == FEED_ID {
            return self.cfg.feed;
        }
        self.cfg
            .peers
            .iter()
            .find(|&&(pid, _)| pid == id)
            .map(|&(_, addr)| addr)
    }

    fn dial_due(&mut self) {
        let now = Instant::now();
        // Every id handed out by due_dials is now in state Dialing and
        // MUST get a success/failure verdict this tick, or it would stay
        // parked forever. The connect timeout bounds the worst-case stall
        // at 30ms per down peer.
        let due = self.supervisor.due_dials(now);
        for id in due {
            let Some(addr) = self.addr_of(id) else {
                self.supervisor.dial_failed(id, now);
                continue;
            };
            match TcpStream::connect_timeout(&addr, Duration::from_millis(30)) {
                Ok(stream) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let mut conn = Conn::new(stream);
                    let kind = if id == FEED_ID {
                        LinkKind::Feed
                    } else {
                        LinkKind::Validator
                    };
                    let hello = WireMsg::Hello {
                        from: self.cfg.id,
                        kind,
                    };
                    if write_frame(&mut conn.stream, &hello.encode()).is_err() {
                        self.supervisor.dial_failed(id, now);
                        continue;
                    }
                    self.telemetry.frames_sent += 1;
                    self.supervisor.dial_succeeded(id);
                    if id != FEED_ID {
                        // Resubscribe state on every (re)connect: ask the
                        // peer for its committed tip.
                        let req = WireMsg::StateRequest { from: self.cfg.id };
                        if write_frame(&mut conn.stream, &req.encode()).is_ok() {
                            self.telemetry.frames_sent += 1;
                            self.telemetry.state_resubs += 1;
                        }
                    }
                    self.outbound.insert(id, conn);
                }
                Err(_) => self.supervisor.dial_failed(id, now),
            }
        }
    }

    fn heartbeat(&mut self) {
        if !self.supervisor.heartbeat_due(Instant::now()) {
            return;
        }
        let msg = WireMsg::Heartbeat {
            from: self.cfg.id,
            round: self.slot.map(|(r, _)| r).unwrap_or(0),
            sent_ms: unix_ms(),
        };
        self.telemetry.heartbeats_sent += self.send_links(&msg, |_| true);
        HEARTBEATS_SENT.add(0); // counter exists even at zero
    }

    /// Sends to every connected validator peer (not the feed).
    fn broadcast(&mut self, msg: &WireMsg) {
        self.send_links(msg, |id| id != FEED_ID);
    }

    fn send_feed(&mut self, msg: &WireMsg) {
        self.send_links(msg, |id| id == FEED_ID);
    }

    /// Writes `msg` to the outbound links `to` picks, dropping those that
    /// fail. Returns how many took it.
    fn send_links(&mut self, msg: &WireMsg, to: impl Fn(u32) -> bool) -> u64 {
        let bytes = msg.encode();
        let (mut sent, mut lost) = (0, Vec::new());
        for (&id, conn) in self.outbound.iter_mut().filter(|(&id, _)| to(id)) {
            match write_frame(&mut conn.stream, &bytes) {
                Ok(()) => sent += 1,
                Err(_) => lost.push(id),
            }
        }
        self.telemetry.frames_sent += sent;
        self.drop_links(lost);
        sent
    }
}
