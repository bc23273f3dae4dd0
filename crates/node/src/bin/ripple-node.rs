//! The live validator process.
//!
//! Spawned by the cluster harness (`experiments node`) or by hand:
//!
//! ```text
//! ripple-node --id 0 --listen 127.0.0.1:9100 \
//!     --peers 1:127.0.0.1:9101,2:127.0.0.1:9102 \
//!     --validators 3 --rounds 12 --round-ms 500 \
//!     --epoch-ms 1754700000000 --seed 7 \
//!     --admin 127.0.0.1:9200 --flight FLIGHT_0.json
//! ```
//!
//! All validators share `--epoch-ms` (UNIX milliseconds at which round 0
//! opens); each derives the current round from the wall clock, so a
//! `kill -9`ed and restarted process rejoins mid-stream with no
//! coordination. Exit status 0 once `--rounds` rounds are finalized or a
//! control `Shutdown` frame arrives; 2 on bad usage.
//!
//! `--admin ADDR` switches the telemetry plane on: metrics recording, the
//! trace ring (round spans and per-round notes), and an admin HTTP
//! endpoint (`/health`, `/metrics`, `/timeseries`, `/trace`, `/flight`)
//! served from the node's own poll loop. On panic or clean exit the
//! ring's newest events are dumped to `--flight PATH` (default
//! `FLIGHT_<id>.json`) — the postmortem record of the node's final
//! rounds. Without `--admin` the node runs uninstrumented (the baseline
//! for overhead comparisons).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

use ripple_node::node::{unix_ms, Node, NodeConfig};
use ripple_node::peer::BackoffPolicy;
use ripple_obs::{flight, metrics, trace};

struct Args {
    id: u32,
    listen: SocketAddr,
    peers: Vec<(u32, SocketAddr)>,
    feed: Option<SocketAddr>,
    validators: usize,
    rounds: u64,
    round_ms: u64,
    epoch_ms: u64,
    seed: u64,
    admin: Option<SocketAddr>,
    flight: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: ripple-node --id N --listen ADDR [--peers ID:ADDR,...] \
         [--feed ADDR] --validators N [--rounds N] [--round-ms MS] \
         [--epoch-ms UNIX_MS] [--seed N] [--admin ADDR] [--flight PATH]"
    );
    std::process::exit(2);
}

fn parse_peers(s: &str) -> Vec<(u32, SocketAddr)> {
    if s.is_empty() {
        return Vec::new();
    }
    s.split(',')
        .map(|entry| {
            let (id, addr) = entry.split_once(':').unwrap_or_else(|| usage());
            let id: u32 = id.parse().unwrap_or_else(|_| usage());
            let addr: SocketAddr = addr.parse().unwrap_or_else(|_| usage());
            (id, addr)
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        id: 0,
        listen: "127.0.0.1:0".parse().expect("literal addr"),
        peers: Vec::new(),
        feed: None,
        validators: 0,
        rounds: 12,
        round_ms: 500,
        epoch_ms: 0,
        seed: 7,
        admin: None,
        flight: None,
    };
    let mut raw = std::env::args().skip(1);
    let mut saw_validators = false;
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--id" => args.id = value().parse().unwrap_or_else(|_| usage()),
            "--listen" => args.listen = value().parse().unwrap_or_else(|_| usage()),
            "--peers" => args.peers = parse_peers(&value()),
            "--feed" => args.feed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--validators" => {
                args.validators = value().parse().unwrap_or_else(|_| usage());
                saw_validators = true;
            }
            "--rounds" => args.rounds = value().parse().unwrap_or_else(|_| usage()),
            "--round-ms" => args.round_ms = value().parse().unwrap_or_else(|_| usage()),
            "--epoch-ms" => args.epoch_ms = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--admin" => args.admin = Some(value().parse().unwrap_or_else(|_| usage())),
            "--flight" => args.flight = Some(PathBuf::from(value())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if !saw_validators {
        args.validators = args.peers.len() + 1;
    }
    if args.validators == 0 || args.round_ms == 0 || args.rounds == 0 {
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let epoch_ms = if args.epoch_ms == 0 {
        // Standalone runs: open round 0 shortly after startup.
        unix_ms() + 250
    } else {
        args.epoch_ms
    };
    let id = args.id;
    let flight_path = args
        .flight
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("FLIGHT_{id}.json")));
    if args.admin.is_some() {
        metrics::set_enabled(true);
        trace::enable(0);
        // The flight dump must survive the panic itself: the hook snapshots
        // the ring after unwinding bookkeeping is already torn.
        let panic_path = flight_path.clone();
        let node_name = id.to_string();
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = flight::dump(&panic_path, &node_name, "panic");
            default_hook(info);
        }));
    }
    let cfg = NodeConfig {
        id,
        listen: args.listen,
        peers: args.peers,
        feed: args.feed,
        validators: args.validators,
        rounds: args.rounds,
        round_ms: args.round_ms,
        epoch_ms,
        seed: args.seed,
        backoff: BackoffPolicy::default(),
        admin: args.admin,
    };
    let instrumented = cfg.admin.is_some();
    let node = match Node::bind(cfg) {
        Ok(node) => node,
        Err(err) => {
            eprintln!("ripple-node {id}: bind failed: {err}");
            return ExitCode::from(1);
        }
    };
    if let Some(admin) = node.admin_addr() {
        eprintln!("ripple-node {id}: admin endpoint on {admin}");
    }
    let outcome = node.run();
    if instrumented {
        let reason = if outcome.is_ok() { "shutdown" } else { "fatal" };
        if let Err(err) = flight::dump(&flight_path, &id.to_string(), reason) {
            eprintln!("ripple-node {id}: flight dump failed: {err}");
        }
    }
    match outcome {
        Ok(report) => {
            let committed = report.rounds.iter().filter(|r| r.committed).count();
            let degraded = report.rounds.iter().filter(|r| r.degraded).count();
            println!(
                "ripple-node {id}: {} rounds ({committed} committed, {degraded} degraded), \
                 {} reconnect attempts, {} state resubs",
                report.rounds.len(),
                report.telemetry.reconnect_attempts,
                report.telemetry.state_resubs,
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("ripple-node {id}: fatal: {err}");
            ExitCode::from(1)
        }
    }
}
