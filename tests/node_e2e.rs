//! End-to-end tests for the live networked validator (`crates/node`).
//!
//! Two tiers: an in-process cluster that runs real [`Node`] event loops on
//! threads over localhost TCP (always runs, no child processes), and a
//! live-process harness test that spawns actual `ripple-node` binaries and
//! SIGKILLs one mid-round (skips with a note when the binary has not been
//! built yet — CI builds it first).

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};

use ripple_core::crypto::Digest256;
use ripple_core::netsim::{FaultPlan, NodeId, SimTime};
use ripple_core::node::{run_cluster, unix_ms, ClusterConfig, Node, NodeConfig, NodeReport};

/// Grabs `n` distinct localhost ports. The listeners are held open while
/// the addresses are read, then dropped just before the nodes rebind.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let holds: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
        .collect();
    holds
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect()
}

/// Boots `n` in-process validators sharing one epoch and runs them to
/// completion on threads. Returns each node's own report.
fn run_threaded_cluster(n: usize, rounds: u64, round_ms: u64) -> Vec<NodeReport> {
    let addrs = free_addrs(n);
    let epoch_ms = unix_ms() + 300;
    let handles: Vec<_> = (0..n)
        .map(|id| {
            let peers: Vec<(u32, SocketAddr)> = (0..n)
                .filter(|&p| p != id)
                .map(|p| (p as u32, addrs[p]))
                .collect();
            let cfg = NodeConfig {
                id: id as u32,
                listen: addrs[id],
                peers,
                feed: None,
                validators: n,
                rounds,
                round_ms,
                epoch_ms,
                seed: 7,
                backoff: Default::default(),
                admin: None,
            };
            let node = Node::bind(cfg).expect("bind node");
            std::thread::spawn(move || node.run().expect("node run"))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect()
}

#[test]
fn threaded_cluster_commits_every_round_with_one_page() {
    let n = 3;
    let rounds = 5;
    let reports = run_threaded_cluster(n, rounds, 250);

    // Every validator finalizes every round and collects a quorum.
    for report in &reports {
        assert_eq!(
            report.rounds.len(),
            rounds as usize,
            "node {} finalized {} rounds",
            report.id,
            report.rounds.len()
        );
        for local in &report.rounds {
            assert!(
                local.committed,
                "node {} round {} did not commit (agreement {}‰, {} links)",
                report.id, local.round, local.agreement_milli, local.connected
            );
            assert!(!local.degraded, "fault-free round ran degraded");
        }
        assert!(report.telemetry.frames_sent > 0);
        assert!(report.telemetry.frames_received > 0);
        assert_eq!(report.telemetry.crc_errors, 0, "clean wire corrupted");
    }

    // No fork: all validators sealed the same page for each round.
    let mut pages: BTreeMap<u64, Digest256> = BTreeMap::new();
    for report in &reports {
        for local in &report.rounds {
            let seen = pages.entry(local.round).or_insert(local.page);
            assert_eq!(
                *seen, local.page,
                "round {} sealed two different pages",
                local.round
            );
        }
    }
    assert_eq!(pages.len(), rounds as usize);
}

#[test]
fn threaded_pair_survives_without_quorum_problems() {
    // The smallest cluster: 2 validators, quorum = 2. Both links must
    // hold for every round to commit — a supervision smoke at minimum
    // scale.
    let reports = run_threaded_cluster(2, 4, 200);
    for report in &reports {
        assert_eq!(report.rounds.len(), 4);
        assert!(report.rounds.iter().all(|r| r.committed));
    }
}

#[test]
fn forged_and_out_of_range_consensus_messages_are_refused() {
    // One live validator of five, dialing nobody. A client link says
    // `Hello` as validator 1, then sends what one hostile peer could: for
    // each round, the same page validated under ids 1..=8 — 2..=4 are not
    // the link's peer, 5..=8 are not validators at all — and a proposal and
    // a validation for round u64::MAX. Filed by their self-reported
    // sender, four forged votes and the node's own would be a quorum of
    // five; the u64::MAX round must not reach any per-round arithmetic.
    use std::collections::BTreeSet;
    use std::io::Write;
    use std::net::TcpStream;

    use ripple_core::crypto::sha512_half;
    use ripple_core::node::{LinkKind, WireMsg};

    let rounds = 3;
    let cfg = NodeConfig {
        id: 0,
        listen: "127.0.0.1:0".parse().expect("addr"),
        peers: Vec::new(),
        feed: None,
        validators: 5,
        rounds,
        round_ms: 250,
        epoch_ms: unix_ms() + 300,
        seed: 7,
        backoff: Default::default(),
        admin: None,
    };
    let node = Node::bind(cfg).expect("bind node");
    let addr = node.local_addr().expect("addr");
    let handle = std::thread::spawn(move || node.run().expect("node run"));

    let forged = sha512_half(b"forged page");
    let mut frames = WireMsg::Hello {
        from: 1,
        kind: LinkKind::Validator,
    }
    .encode();
    for round in (0..rounds).chain([u64::MAX]) {
        for from in 1..=8 {
            let validation = WireMsg::Validation {
                from,
                round,
                seq: 0,
                sent_ms: 0,
                page: forged,
            };
            frames.extend(validation.encode());
        }
    }
    let overflow = WireMsg::Proposal {
        from: 1,
        round: u64::MAX,
        iteration: 0,
        seq: 0,
        sent_ms: 0,
        txs: BTreeSet::from([1]),
    };
    frames.extend(overflow.encode());
    let mut link = TcpStream::connect(addr).expect("connect");
    link.write_all(&frames).expect("send");

    let report = handle.join().expect("node thread panicked");
    assert_eq!(report.rounds.len(), rounds as usize);
    for local in &report.rounds {
        assert!(
            !local.committed,
            "round {} committed on forged votes ({}‰)",
            local.round, local.agreement_milli
        );
        assert_ne!(local.page, forged);
    }
}

/// A scratch directory for flight dumps that cleans up on drop.
struct FlightDir(std::path::PathBuf);

impl FlightDir {
    fn new(tag: &str) -> FlightDir {
        let dir = std::env::temp_dir().join(format!("ripple_e2e_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create flight dir");
        FlightDir(dir)
    }
}

impl Drop for FlightDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn live_process_cluster_survives_kill9_of_one_validator() {
    let flights = FlightDir::new("kill9");
    let r = 250u64;
    let cfg = ClusterConfig {
        validators: 3,
        rounds: 8,
        round_ms: r,
        sim_round_ms: r,
        seed: 11,
        plan: FaultPlan::new()
            .crash_at(SimTime::from_millis(2 * r + r / 2), NodeId(2))
            .restart_at(SimTime::from_millis(4 * r), NodeId(2)),
        flight_dir: Some(flights.0.clone()),
        ..ClusterConfig::default()
    };
    let report = match run_cluster(&cfg) {
        Ok(report) => report,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            // `cargo test` does not guarantee the ripple-node binary is
            // built before this integration test runs; CI's node-smoke
            // job covers the spawned-process path unconditionally.
            eprintln!("skipping live-process test: {e}");
            return;
        }
        Err(e) => panic!("cluster launch failed: {e}"),
    };

    assert!(report.no_fork, "fork: {:?}", report.fork);
    assert!(!report.rounds.is_empty(), "feed saw no rounds");
    assert!(report.committed_rounds > 0, "no round ever committed");
    assert!(
        report.rounds_to_recover.is_some(),
        "cluster never recovered after the restart"
    );
    let total = report.telemetry_total();
    assert!(
        total.reconnect_attempts > 0,
        "reconnect paths were never exercised"
    );
    assert!(
        total.state_resubs > 0,
        "restarted node never resubscribed state"
    );
    assert!(
        report
            .actions_log
            .iter()
            .filter(|l| l.contains("kill") || l.contains("restart node"))
            .count()
            >= 2,
        "kill + restart should both fire: {:?}",
        report.actions_log
    );
}

#[test]
fn killed_node_leaves_a_parseable_flight_recording() {
    use ripple_core::obs::json::{parse, Value};

    let flights = FlightDir::new("flight");
    let r = 250u64;
    let victim = 2u64;
    let cfg = ClusterConfig {
        validators: 3,
        rounds: 6,
        round_ms: r,
        sim_round_ms: r,
        seed: 23,
        // Kill mid-round-2 and never restart: the only way a
        // FLIGHT_2.json can exist is the harness's admin-plane snapshot.
        plan: FaultPlan::new()
            .crash_at(SimTime::from_millis(2 * r + r / 2), NodeId(victim as usize)),
        flight_dir: Some(flights.0.clone()),
        ..ClusterConfig::default()
    };
    let report = match run_cluster(&cfg) {
        Ok(report) => report,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            eprintln!("skipping live-process test: {e}");
            return;
        }
        Err(e) => panic!("cluster launch failed: {e}"),
    };

    // The telemetry plane ran: per-node summaries and a merged trace.
    assert_eq!(report.admin.len(), 3);
    let trace = report.cluster_trace.as_deref().expect("merged trace");
    let doc = parse(trace).expect("cluster trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents");
    assert!(!events.is_empty(), "no trace events collected");
    // Survivor round spans made it into the merged document.
    let round_spans = events
        .iter()
        .filter(|e| {
            e.get("name").and_then(Value::as_str) == Some("round")
                && e.get("ph").and_then(Value::as_str) == Some("X")
        })
        .count();
    assert!(round_spans > 0, "no round spans in merged trace");

    // The victim's flight recording exists, parses, and covers the
    // rounds right up to the kill (~round 2).
    let path = flights.0.join(format!("FLIGHT_{victim}.json"));
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("flight dump missing at {}: {e}", path.display()));
    let flight = parse(&body).expect("flight dump parses");
    assert_eq!(
        flight.get("node").and_then(Value::as_str),
        Some(victim.to_string().as_str())
    );
    assert!(flight.get("reason").and_then(Value::as_str).is_some());
    let entries = flight
        .get("entries")
        .and_then(|v| v.as_arr())
        .expect("entries");
    assert!(!entries.is_empty(), "flight ring was empty");
    let max_round = entries
        .iter()
        .filter_map(|e| e.get("round").and_then(Value::as_u64))
        .max()
        .expect("no round-tagged flight entries");
    assert!(
        max_round >= 1,
        "flight recording stops before the kill round (max round {max_round})"
    );

    // The kill shows up as a poll gap on the victim's probe, not a stall:
    // the run still finishes and survivors keep reporting.
    assert!(
        report.admin[victim as usize].gaps > 0,
        "dead node's unreachable admin endpoint should be recorded as gaps"
    );
    assert!(report.committed_rounds > 0);
}
