//! A live-process cluster harness: spawns real `ripple-node` validators,
//! executes a [`FaultPlan`] as OS actions, and measures recovery on the
//! wall clock.
//!
//! The harness is the wire-side twin of the in-process chaos campaign:
//!
//! * `CrashAt` → `SIGKILL` (via [`std::process::Child::kill`]) mid-round;
//! * `RestartAt` → respawn with identical arguments — the restarted node
//!   recomputes the current round from the shared epoch and resubscribes
//!   state from its peers;
//! * `PartitionAt`/`HealAt` → socket-level bans pushed over per-node
//!   control connections, which drop live links and refuse redials.
//!
//! Every validator streams `RoundReport` and `TelemetryReport` frames to
//! the harness feed socket. Per-round validations are reassembled from
//! the wire and fed to the **same** [`InvariantChecker`] the simulator
//! uses, so "zero forks" means the same thing in both backends, and
//! rounds-to-recover comes out in real milliseconds.
//!
//! When [`ClusterConfig::instrument`] is on (the default), every child
//! also gets `--admin`/`--flight`: the harness round-robins one
//! [`NodeProbe`](crate::cluster_trace::NodeProbe) per validator over the
//! admin HTTP plane — cursor reads of `/trace`, `/health` clock
//! anchors, `/flight` crash snapshots, `/metrics` round histograms —
//! with hard per-request deadlines so an unreachable endpoint costs a
//! recorded gap, never a stall. A `kill -9` victim's last `/flight`
//! snapshot is written to `FLIGHT_<id>.json` the moment the kill lands
//! (the process itself can no longer dump), and the merged, clock-aligned
//! `chrome://tracing` document lands in [`ClusterReport::cluster_trace`].

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ripple_consensus::{
    support_required, tally_validations, InvariantChecker, RoundOutcome, StallWindow, QUORUM_PCT,
};
use ripple_crypto::Digest256;
use ripple_netsim::live::{lower, LiveAction, LivePlan};
use ripple_netsim::{FaultPlan, SimTime};
use ripple_obs::json::JsonWriter;
use ripple_obs::LazyCounter;

use crate::cluster_trace::{
    aggregate_hist, merge_cluster_trace, HistSummary, NodeProbe, ProbeSummary, ROUND_HISTOGRAMS,
};
use crate::frame::FrameDecoder;
use crate::node::unix_ms;
use crate::poll::{drain_into, try_accept, Drained};
use crate::wire::{LinkKind, Telemetry, WireMsg};

static CLUSTER_KILLS: LazyCounter = LazyCounter::new("harness.actions.kills");
static CLUSTER_RESTARTS: LazyCounter = LazyCounter::new("harness.actions.restarts");
static CLUSTER_PARTITIONS: LazyCounter = LazyCounter::new("harness.actions.partitions");
static CLUSTER_HEALS: LazyCounter = LazyCounter::new("harness.actions.heals");
static CLUSTER_FEED_FRAMES: LazyCounter = LazyCounter::new("harness.feed.frames");
static CLUSTER_BACKOFF_ATTEMPTS: LazyCounter = LazyCounter::new("harness.nodes.reconnect_attempts");
static CLUSTER_BACKOFF_SUCCESSES: LazyCounter =
    LazyCounter::new("harness.nodes.reconnect_successes");
static CLUSTER_STATE_RESUBS: LazyCounter = LazyCounter::new("harness.nodes.state_resubs");
static CLUSTER_DEGRADED: LazyCounter = LazyCounter::new("harness.nodes.degraded_rounds");
static CLUSTER_POLL_GAPS: LazyCounter = LazyCounter::new("harness.admin.poll_gaps");

/// Configuration for one live cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of validator processes.
    pub validators: usize,
    /// Rounds each validator runs before exiting.
    pub rounds: u64,
    /// Wall-clock round length in milliseconds.
    pub round_ms: u64,
    /// Seed shared with the nodes (backoff jitter determinism).
    pub seed: u64,
    /// The fault schedule, authored in simulator time units.
    pub plan: FaultPlan,
    /// The simulator round length the plan was authored against (used to
    /// rescale event times onto `round_ms`).
    pub sim_round_ms: u64,
    /// Explicit path to the `ripple-node` binary; when `None` the harness
    /// tries `$RIPPLE_NODE_BIN`, then siblings of the current executable.
    pub bin: Option<PathBuf>,
    /// Spawn validators with `--admin`/`--flight` and poll their
    /// telemetry planes. Off = the uninstrumented overhead baseline.
    pub instrument: bool,
    /// Directory for `FLIGHT_<id>.json` dumps (`None` = the harness's
    /// working directory, which the children inherit).
    pub flight_dir: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            validators: 5,
            rounds: 12,
            round_ms: 500,
            seed: 7,
            plan: FaultPlan::new(),
            sim_round_ms: 500,
            bin: None,
            instrument: true,
            flight_dir: None,
        }
    }
}

/// What one cluster run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Validator count.
    pub validators: usize,
    /// Wall-clock round length.
    pub round_ms: u64,
    /// Per-round wire-reassembled outcomes: `round → validator → page`.
    pub rounds: Vec<(u64, HashMap<usize, Digest256>)>,
    /// Rounds in which some page reached quorum on the wire.
    pub committed_rounds: u64,
    /// Stall windows (consecutive uncommitted rounds), from the checker.
    pub stalls: Vec<StallWindow>,
    /// `true` iff no round ever held two pages at quorum.
    pub no_fork: bool,
    /// Description of the fork, if one was (catastrophically) observed.
    pub fork: Option<String>,
    /// Rounds from the first post-settle round to the first commit,
    /// inclusive (`None` if the cluster never recommitted — infinite).
    pub rounds_to_recover: Option<u64>,
    /// Same measure on the wall clock, in milliseconds.
    pub recover_wall_ms: Option<u64>,
    /// Final telemetry per validator id, as reported over the wire.
    pub telemetry: BTreeMap<u32, Telemetry>,
    /// The lowered plan that was executed.
    pub live_plan: LivePlan,
    /// Actions actually executed, as human-readable lines.
    pub actions_log: Vec<String>,
    /// Total wall-clock duration of the run.
    pub wall_ms: u64,
    /// Per-validator admin-plane poll summaries (empty when the run was
    /// uninstrumented).
    pub admin: Vec<ProbeSummary>,
    /// The merged, clock-aligned `chrome://tracing` document, when
    /// instrumented.
    pub cluster_trace: Option<String>,
}

impl ClusterReport {
    /// Aggregated telemetry across every validator.
    pub fn telemetry_total(&self) -> Telemetry {
        let mut total = Telemetry::default();
        for t in self.telemetry.values() {
            total.merge(t);
        }
        total
    }

    /// Serializes the report into the `BENCH_node.json` schema documented
    /// in EXPERIMENTS.md §E16.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("experiment", "node");
        w.field_u64("validators", self.validators as u64);
        w.field_u64("round_ms", self.round_ms);
        w.field_u64("rounds_observed", self.rounds.len() as u64);
        w.field_u64("committed_rounds", self.committed_rounds);
        w.field_bool("no_fork", self.no_fork);
        match self.rounds_to_recover {
            Some(r) => w.field_u64("rounds_to_recover", r),
            None => w.field_null("rounds_to_recover"),
        }
        match self.recover_wall_ms {
            Some(ms) => w.field_u64("recover_wall_ms", ms),
            None => w.field_null("recover_wall_ms"),
        }
        w.field_u64("wall_ms", self.wall_ms);
        w.field_u64("plan_settles_ms", self.live_plan.settles_ms);
        w.key("stalls");
        w.begin_array();
        for stall in &self.stalls {
            w.begin_inline_object();
            w.field_u64("first_round", stall.first_round);
            w.field_u64("rounds", stall.rounds);
            w.end_inline_object();
        }
        w.end_array();
        w.key("actions");
        w.begin_array();
        for line in &self.actions_log {
            w.value_str(line);
        }
        w.end_array();
        w.key("skipped_events");
        w.begin_array();
        for line in &self.live_plan.skipped {
            w.value_str(line);
        }
        w.end_array();
        w.key("telemetry");
        w.begin_object();
        let total = self.telemetry_total();
        w.key("total");
        w.begin_inline_object();
        for (name, v) in Telemetry::FIELD_NAMES.iter().zip(total.fields()) {
            w.field_u64(name, v);
        }
        w.end_inline_object();
        for (&id, t) in &self.telemetry {
            w.key(&format!("node_{id}"));
            w.begin_inline_object();
            for (name, v) in Telemetry::FIELD_NAMES.iter().zip(t.fields()) {
                w.field_u64(name, v);
            }
            w.end_inline_object();
        }
        w.end_object();
        w.key("observability");
        w.begin_object();
        w.field_bool("instrumented", !self.admin.is_empty());
        if !self.admin.is_empty() {
            w.field_u64(
                "trace_events",
                self.admin.iter().map(|p| p.events as u64).sum(),
            );
            w.field_u64("poll_gaps", self.admin.iter().map(|p| p.gaps).sum());
            w.field_u64("trace_lost", self.admin.iter().map(|p| p.lost).sum());
            w.field_u64("trace_dropped", self.admin.iter().map(|p| p.dropped).sum());
            w.key("nodes");
            w.begin_object();
            for (i, p) in self.admin.iter().enumerate() {
                w.key(&format!("node_{i}"));
                w.begin_inline_object();
                w.field_u64("events", p.events as u64);
                w.field_u64("polls_ok", p.polls_ok);
                w.field_u64("gaps", p.gaps);
                match p.skew_bound_ms {
                    Some(ms) => w.field_i64("skew_bound_ms", ms),
                    None => w.field_null("skew_bound_ms"),
                }
                w.end_inline_object();
            }
            w.end_object();
            w.key("round_histograms");
            w.begin_object();
            for name in ROUND_HISTOGRAMS {
                let per_node: Vec<(usize, HistSummary)> = self
                    .admin
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| p.round_metrics.get(name).map(|h| (i, *h)))
                    .collect();
                w.key(name);
                w.begin_object();
                let write_hist = |w: &mut JsonWriter, key: &str, h: &HistSummary| {
                    w.key(key);
                    w.begin_inline_object();
                    w.field_u64("count", h.count);
                    w.field_u64("sum", h.sum);
                    w.field_u64("p50", h.p50);
                    w.field_u64("p90", h.p90);
                    w.field_u64("p99", h.p99);
                    w.field_u64("max", h.max);
                    w.end_inline_object();
                };
                let cluster = aggregate_hist(&per_node.iter().map(|&(_, h)| h).collect::<Vec<_>>());
                write_hist(&mut w, "cluster", &cluster);
                for (i, h) in &per_node {
                    write_hist(&mut w, &format!("node_{i}"), h);
                }
                w.end_object();
            }
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Writes the merged cluster trace (or an empty-but-loadable document
    /// for uninstrumented runs) to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from the write.
    pub fn write_cluster_trace(&self, path: &str) -> std::io::Result<()> {
        let fallback = "{\"traceEvents\": []}\n";
        std::fs::write(path, self.cluster_trace.as_deref().unwrap_or(fallback))
    }

    /// Writes `to_json` to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors from the write.
    pub fn write_bench_json(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Where the `ripple-node` binary lives.
fn find_binary(cfg: &ClusterConfig) -> Option<PathBuf> {
    if let Some(bin) = &cfg.bin {
        return Some(bin.clone());
    }
    if let Ok(env) = std::env::var("RIPPLE_NODE_BIN") {
        if !env.is_empty() {
            return Some(PathBuf::from(env));
        }
    }
    // Tests and examples run from target/<profile>/deps or
    // target/<profile>/examples; the node binary sits in target/<profile>.
    let exe = std::env::current_exe().ok()?;
    let name = format!("ripple-node{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..3 {
        let candidate = dir.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = match dir.parent() {
            Some(p) => p.to_path_buf(),
            None => break,
        };
    }
    None
}

/// Reserves `n` distinct loopback ports by binding and dropping.
fn reserve_ports(n: usize) -> std::io::Result<Vec<SocketAddr>> {
    // Hold all listeners open until every port is chosen so the OS cannot
    // hand the same ephemeral port out twice.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners.iter().map(|l| l.local_addr()).collect()
}

struct NodeProc {
    child: Option<Child>,
    args: Vec<String>,
}

/// One live feed connection being reassembled.
struct FeedConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// Spawns one validator process.
fn spawn_node(bin: &PathBuf, args: &[String]) -> std::io::Result<Child> {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Opens a short-lived control connection to `addr` and sends `msg`.
fn send_control(addr: SocketAddr, msg: &WireMsg) -> std::io::Result<()> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(200))?;
    stream.set_nodelay(true)?;
    let hello = WireMsg::Hello {
        from: u32::MAX - 1,
        kind: LinkKind::Control,
    };
    stream.write_all(&hello.encode())?;
    stream.write_all(&msg.encode())?;
    stream.flush()?;
    Ok(())
}

/// Runs a full cluster: spawn, inject faults, collect the wire, check
/// invariants, measure recovery.
///
/// # Errors
///
/// Setup failures only (binary not found, ports, spawns). Faults injected
/// *during* the run are the point, not errors.
///
/// # Panics
///
/// Does not panic on node failures; a node that dies simply stops
/// reporting (that is the experiment).
pub fn run_cluster(cfg: &ClusterConfig) -> std::io::Result<ClusterReport> {
    let bin = find_binary(cfg).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "ripple-node binary not found: build it (cargo build -p ripple-node) \
             or set RIPPLE_NODE_BIN",
        )
    })?;
    let n = cfg.validators;
    let addrs = reserve_ports(n)?;
    let feed = TcpListener::bind("127.0.0.1:0")?;
    feed.set_nonblocking(true)?;
    let feed_addr = feed.local_addr()?;

    let live = lower(
        &cfg.plan,
        SimTime::from_millis(cfg.sim_round_ms),
        cfg.round_ms,
    );
    for note in &live.skipped {
        eprintln!("harness: skipping unloweable event: {note}");
    }

    // Give every process time to bind and dial before round 0 opens.
    let epoch_ms = unix_ms() + 600;
    let peer_list = |me: usize| -> String {
        addrs
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != me)
            .map(|(j, a)| format!("{j}:{a}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let admin_addrs: Vec<SocketAddr> = if cfg.instrument {
        reserve_ports(n)?
    } else {
        Vec::new()
    };
    let mut procs: Vec<NodeProc> = Vec::with_capacity(n);
    for (i, addr) in addrs.iter().enumerate() {
        let mut args = vec![
            "--id".into(),
            i.to_string(),
            "--listen".into(),
            addr.to_string(),
            "--peers".into(),
            peer_list(i),
            "--feed".into(),
            feed_addr.to_string(),
            "--validators".into(),
            n.to_string(),
            "--rounds".into(),
            cfg.rounds.to_string(),
            "--round-ms".into(),
            cfg.round_ms.to_string(),
            "--epoch-ms".into(),
            epoch_ms.to_string(),
            "--seed".into(),
            cfg.seed.to_string(),
        ];
        if let Some(admin) = admin_addrs.get(i) {
            args.push("--admin".into());
            args.push(admin.to_string());
            args.push("--flight".into());
            args.push(flight_path(cfg, i));
        }
        let child = spawn_node(&bin, &args)?;
        procs.push(NodeProc {
            child: Some(child),
            args,
        });
    }
    // One admin-plane probe per validator, polled round-robin from the
    // main loop: at most one probe per loop pass, each request under a
    // hard deadline, so telemetry collection can never delay a fault
    // action by more than one bounded poll cycle.
    let poll_interval = Duration::from_millis((cfg.round_ms / 2).max(100));
    let poll_timeout = Duration::from_millis(250);
    let mut probes: Vec<NodeProbe> = admin_addrs
        .iter()
        .enumerate()
        .map(|(i, &a)| NodeProbe::new(i, a, poll_interval))
        .collect();
    let mut probe_rr = 0usize;

    let started = Instant::now();
    let mut actions: Vec<(u64, LiveAction)> = live.actions.clone();
    actions.reverse(); // pop from the back in time order
    let mut actions_log: Vec<String> = Vec::new();
    let mut feeds: Vec<FeedConn> = Vec::new();
    let mut validations: BTreeMap<u64, HashMap<usize, Digest256>> = BTreeMap::new();
    let mut committed_on_wire: BTreeMap<u64, bool> = BTreeMap::new();
    let mut telemetry: BTreeMap<u32, Telemetry> = BTreeMap::new();

    let deadline_ms = cfg.rounds * cfg.round_ms + 4 * cfg.round_ms.max(500);
    loop {
        let now_rel = unix_ms().saturating_sub(epoch_ms);
        if unix_ms() >= epoch_ms && now_rel >= deadline_ms {
            break;
        }
        // Execute due fault actions (times are relative to the epoch).
        while let Some(&(at, _)) = actions.last() {
            if unix_ms() < epoch_ms || now_rel < at {
                break;
            }
            let (at, action) = actions.pop().expect("peeked");
            execute_action(&bin, &action, at, &mut procs, &addrs, &mut actions_log);
            if let LiveAction::Kill(node) = &action {
                snapshot_flight(cfg, &probes, node.0, at, &mut actions_log);
            }
        }
        // Poll at most one due admin probe per pass (round-robin), so a
        // slow or unreachable endpoint delays nothing but itself.
        if !probes.is_empty() {
            let now = Instant::now();
            for k in 0..probes.len() {
                let i = (probe_rr + k) % probes.len();
                if probes[i].poll_due(now, poll_timeout) {
                    probe_rr = (i + 1) % probes.len();
                    break;
                }
            }
        }
        // Accept and drain feed connections.
        while let Some(stream) = try_accept(&feed) {
            feeds.push(FeedConn {
                stream,
                decoder: FrameDecoder::new(),
            });
        }
        let mut i = 0;
        while i < feeds.len() {
            let conn = &mut feeds[i];
            let closed = matches!(
                drain_into(&mut conn.stream, &mut conn.decoder),
                Drained::Closed
            );
            while let Some(frame) = conn.decoder.next_frame() {
                CLUSTER_FEED_FRAMES.add(1);
                let Ok(msg) = WireMsg::decode(frame.tag, &frame.payload) else {
                    continue;
                };
                match msg {
                    WireMsg::RoundReport {
                        from,
                        round,
                        page,
                        committed,
                        ..
                    } => {
                        validations
                            .entry(round)
                            .or_default()
                            .insert(from as usize, page);
                        let c = committed_on_wire.entry(round).or_insert(false);
                        *c |= committed;
                    }
                    WireMsg::TelemetryReport { from, counters } => {
                        telemetry.insert(from, counters);
                    }
                    _ => {}
                }
            }
            if closed {
                feeds.swap_remove(i);
            } else {
                i += 1;
            }
        }
        // Stop early once every node has exited on its own.
        if procs.iter_mut().all(|p| match &mut p.child {
            Some(c) => matches!(c.try_wait(), Ok(Some(_))),
            None => true,
        }) && feeds.is_empty()
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Final telemetry poll while survivors are still serving: one
    // immediate bounded poll cycle per probe (nodes that already exited
    // just record one more gap).
    for probe in &mut probes {
        let _ = probe.poll_now(poll_timeout);
    }

    // Orderly shutdown: ask politely, then make sure.
    for addr in &addrs {
        let _ = send_control(*addr, &WireMsg::Shutdown);
    }
    let patience = Instant::now();
    while patience.elapsed() < Duration::from_millis(1_500) {
        // Keep draining the feed so final telemetry frames land.
        while let Some(stream) = try_accept(&feed) {
            feeds.push(FeedConn {
                stream,
                decoder: FrameDecoder::new(),
            });
        }
        let mut any_open = false;
        for conn in &mut feeds {
            if !matches!(
                drain_into(&mut conn.stream, &mut conn.decoder),
                Drained::Closed
            ) {
                any_open = true;
            }
            while let Some(frame) = conn.decoder.next_frame() {
                if let Ok(WireMsg::TelemetryReport { from, counters }) =
                    WireMsg::decode(frame.tag, &frame.payload)
                {
                    telemetry.insert(from, counters);
                }
            }
        }
        let all_dead = procs.iter_mut().all(|p| match &mut p.child {
            Some(c) => matches!(c.try_wait(), Ok(Some(_))),
            None => true,
        });
        if all_dead && !any_open {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for p in &mut procs {
        if let Some(child) = &mut p.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    let wall_ms = started.elapsed().as_millis() as u64;

    // Feed the wire-reassembled rounds to the simulator's checker, in
    // order from round 0 (the checker auto-increments its round index, so
    // rounds nobody reported still count — as stalls).
    let mut checker = InvariantChecker::new(vec![true; n], support_required(n, QUORUM_PCT));
    let last_round = validations.keys().next_back().copied().unwrap_or(0);
    let mut fork: Option<String> = None;
    let mut committed_rounds = 0u64;
    let mut first_commit_after_settle: Option<(u64, u64)> = None; // (round, wall_ms)
    let settle_round = live.settles_ms / cfg.round_ms;
    let mut rounds_out: Vec<(u64, HashMap<usize, Digest256>)> = Vec::new();
    for round in 0..=last_round {
        let vals = validations.remove(&round).unwrap_or_default();
        let tally = tally_validations(vals.values().copied(), n);
        // Liveness comes from the nodes' own word, not an omniscient
        // tally: during a partition every node may seal the same
        // (deterministically derived) page, but no node can *collect* a
        // quorum of validations, so no node commits — that is the
        // paper's quorum stall, and the feed must not paper over it.
        let committed = committed_on_wire.get(&round).copied().unwrap_or(false) && tally.committed;
        if committed {
            committed_rounds += 1;
            if round >= settle_round && first_commit_after_settle.is_none() {
                first_commit_after_settle = Some((round, (round + 1) * cfg.round_ms));
            }
        }
        let outcome = RoundOutcome {
            committed: tally
                .winner
                .filter(|_| committed)
                .map(|page| (page, std::collections::BTreeSet::new())),
            validations: vals.clone(),
            agreement: tally.count as f64 / n as f64,
        };
        if let Err(violation) = checker.observe(&outcome) {
            fork.get_or_insert_with(|| violation.to_string());
        }
        rounds_out.push((round, vals));
    }
    let stalls = checker.into_stalls();
    let (rounds_to_recover, recover_wall_ms) = match first_commit_after_settle {
        Some((round, commit_ms)) => (
            Some(round - settle_round + 1),
            Some(commit_ms.saturating_sub(live.settles_ms)),
        ),
        None => (None, None),
    };

    // Mirror node-side robustness counters into the harness's obs
    // registry so a single snapshot shows the whole story.
    let total = {
        let mut sum = Telemetry::default();
        for t in telemetry.values() {
            sum.merge(t);
        }
        sum
    };
    CLUSTER_BACKOFF_ATTEMPTS.add(total.reconnect_attempts);
    CLUSTER_BACKOFF_SUCCESSES.add(total.reconnect_successes);
    CLUSTER_STATE_RESUBS.add(total.state_resubs);
    CLUSTER_DEGRADED.add(total.degraded_rounds);
    CLUSTER_POLL_GAPS.add(probes.iter().map(|p| p.summary.gaps).sum());

    let cluster_trace = if cfg.instrument {
        Some(merge_cluster_trace(&probes, epoch_ms))
    } else {
        None
    };
    let admin: Vec<ProbeSummary> = probes.into_iter().map(|p| p.summary).collect();

    Ok(ClusterReport {
        validators: n,
        round_ms: cfg.round_ms,
        rounds: rounds_out,
        committed_rounds,
        stalls,
        no_fork: fork.is_none(),
        fork,
        rounds_to_recover,
        recover_wall_ms,
        telemetry,
        live_plan: live,
        actions_log,
        wall_ms,
        admin,
        cluster_trace,
    })
}

/// Where node `i`'s flight dump lives (harness and child agree on this).
fn flight_path(cfg: &ClusterConfig, i: usize) -> String {
    let name = format!("FLIGHT_{i}.json");
    match &cfg.flight_dir {
        Some(dir) => dir.join(name).to_string_lossy().into_owned(),
        None => name,
    }
}

/// Persists the last `/flight` snapshot of a just-killed node: SIGKILL
/// means the process itself will never dump its ring, so the harness's
/// most recent poll is the crash record. A later restart overwrites the
/// file with the node's own (post-restart) shutdown dump, which again
/// covers that incarnation's final rounds.
fn snapshot_flight(
    cfg: &ClusterConfig,
    probes: &[NodeProbe],
    node: usize,
    at_ms: u64,
    log: &mut Vec<String>,
) {
    let Some(probe) = probes.iter().find(|p| p.node == node) else {
        return;
    };
    let Some(body) = &probe.flight else {
        log.push(format!(
            "t+{at_ms}ms no flight snapshot for killed node {node} (never polled)"
        ));
        return;
    };
    let path = flight_path(cfg, node);
    match std::fs::write(&path, body) {
        Ok(()) => log.push(format!(
            "t+{at_ms}ms flight snapshot of node {node} -> {path}"
        )),
        Err(err) => log.push(format!(
            "t+{at_ms}ms flight snapshot of node {node} FAILED: {err}"
        )),
    }
}

/// Executes one lowered action against the running processes.
fn execute_action(
    bin: &PathBuf,
    action: &LiveAction,
    at_ms: u64,
    procs: &mut [NodeProc],
    addrs: &[SocketAddr],
    log: &mut Vec<String>,
) {
    match action {
        LiveAction::Kill(node) => {
            CLUSTER_KILLS.add(1);
            if let Some(p) = procs.get_mut(node.0) {
                if let Some(child) = &mut p.child {
                    // SIGKILL: no grace, no cleanup — the crash we model.
                    let _ = child.kill();
                    let _ = child.wait();
                }
                p.child = None;
                log.push(format!("t+{at_ms}ms kill -9 node {}", node.0));
            }
        }
        LiveAction::Restart(node) => {
            CLUSTER_RESTARTS.add(1);
            if let Some(p) = procs.get_mut(node.0) {
                if p.child.is_none() {
                    match spawn_node(bin, &p.args) {
                        Ok(child) => {
                            p.child = Some(child);
                            log.push(format!("t+{at_ms}ms restart node {}", node.0));
                        }
                        Err(err) => {
                            log.push(format!("t+{at_ms}ms restart node {} FAILED: {err}", node.0));
                        }
                    }
                }
            }
        }
        LiveAction::Partition { left, right } => {
            CLUSTER_PARTITIONS.add(1);
            let left_ids: Vec<u32> = left.iter().map(|n| n.0 as u32).collect();
            let right_ids: Vec<u32> = right.iter().map(|n| n.0 as u32).collect();
            for node in left {
                if let Some(addr) = addrs.get(node.0) {
                    let _ = send_control(
                        *addr,
                        &WireMsg::Ban {
                            peers: right_ids.clone(),
                        },
                    );
                }
            }
            for node in right {
                if let Some(addr) = addrs.get(node.0) {
                    let _ = send_control(
                        *addr,
                        &WireMsg::Ban {
                            peers: left_ids.clone(),
                        },
                    );
                }
            }
            log.push(format!(
                "t+{at_ms}ms partition {:?} | {:?}",
                left_ids, right_ids
            ));
        }
        LiveAction::Heal => {
            CLUSTER_HEALS.add(1);
            let everyone: Vec<u32> = (0..addrs.len() as u32).collect();
            for addr in addrs {
                let _ = send_control(
                    *addr,
                    &WireMsg::Unban {
                        peers: everyone.clone(),
                    },
                );
            }
            log.push(format!("t+{at_ms}ms heal (unban all)"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ports_are_distinct() {
        let ports = reserve_ports(8).expect("reserve");
        let unique: std::collections::HashSet<_> = ports.iter().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn missing_binary_is_a_clean_error() {
        let cfg = ClusterConfig {
            bin: Some(PathBuf::from("/nonexistent/ripple-node-definitely-absent")),
            ..ClusterConfig::default()
        };
        // find_binary returns the explicit path; the spawn then fails with
        // a NotFound that run_cluster surfaces as Err, not a panic.
        assert!(run_cluster(&cfg).is_err());
    }

    #[test]
    fn report_json_has_the_documented_keys() {
        let report = ClusterReport {
            validators: 5,
            round_ms: 500,
            rounds: vec![(0, HashMap::new())],
            committed_rounds: 1,
            stalls: vec![StallWindow {
                first_round: 2,
                rounds: 3,
            }],
            no_fork: true,
            fork: None,
            rounds_to_recover: Some(1),
            recover_wall_ms: Some(500),
            telemetry: BTreeMap::new(),
            live_plan: LivePlan::default(),
            actions_log: vec!["t+0ms nothing".into()],
            wall_ms: 1234,
            admin: vec![ProbeSummary {
                events: 3,
                polls_ok: 4,
                gaps: 1,
                skew_bound_ms: Some(2),
                ..ProbeSummary::default()
            }],
            cluster_trace: Some("{\"traceEvents\": []}\n".into()),
        };
        let json = report.to_json();
        for key in [
            "\"experiment\"",
            "\"validators\"",
            "\"no_fork\"",
            "\"rounds_to_recover\"",
            "\"recover_wall_ms\"",
            "\"stalls\"",
            "\"actions\"",
            "\"telemetry\"",
            "\"observability\"",
            "\"poll_gaps\"",
            "\"round_histograms\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn uninstrumented_report_marks_observability_off() {
        let report = ClusterReport {
            validators: 3,
            round_ms: 250,
            rounds: Vec::new(),
            committed_rounds: 0,
            stalls: Vec::new(),
            no_fork: true,
            fork: None,
            rounds_to_recover: None,
            recover_wall_ms: None,
            telemetry: BTreeMap::new(),
            live_plan: LivePlan::default(),
            actions_log: Vec::new(),
            wall_ms: 0,
            admin: Vec::new(),
            cluster_trace: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"instrumented\": false"));
        assert!(!json.contains("\"round_histograms\""));
    }
}
