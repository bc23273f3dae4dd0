//! Regenerates every table and figure of the paper as text output.
//!
//! ```text
//! experiments [EXPERIMENT] [--payments N] [--seed S] [--rounds R] [--shards S]
//!             [--workers W] [--chunk C] [--archive]
//!             [--budget-secs B] [--ops N]
//!             [--trace PATH] [--metrics PATH] [--validators N]
//!             [--round-ms MS] [--plan FILE] [--clients C] [--mix M]
//!             [--lookups N] [--serve ADDR] [--serve-secs SECS]
//! experiments check replay CHECK_CASE.json
//! ```
//!
//! `EXPERIMENT` is one of the paper studies `fig2`, `table1`, `fig3`,
//! `fig4`, `fig5`, `fig6a`, `fig6b`, `table2`, `fig7`, `offers`, or one of
//! the extension studies `rewards` (§IV's proposed validator-reward
//! system), `countermeasure` (§V's wallet-splitting discussion), `unl`
//! (UNL-overlap fork analysis), `archive` (raw parse throughput),
//! `timeline` (payment/population trends), `synth` (history generation
//! only, for benchmarking the pipeline itself) and `check` (the
//! `ripple-check` correctness harness: differential models plus invariant
//! oracles, `--budget-secs` wall-clock budget, `--ops` operations per
//! generated case). `all` (the default) runs every paper study **and**
//! every extension study, in that order.
//!
//! `check` exits non-zero on any divergence and writes the shrunk,
//! replayable counterexample to `CHECK_CASE.json`; `check replay FILE`
//! re-executes such a document and fails unless the recorded divergence
//! reproduces byte-for-byte (see EXPERIMENTS.md "Correctness harness").
//!
//! History generation runs through the pipelined generator (`--workers`
//! scripting threads, `--chunk` payments per chunk) and writes its stage
//! timings to `BENCH_synth.json` (see EXPERIMENTS.md for the schema). Under
//! `all`, the history-backed studies execute concurrently over the shared
//! payment arena, with their reports printed in presentation order.
//!
//! `fig3` additionally writes `BENCH_fig3.json` — a machine-readable dump
//! of the sharded IG engine's row metrics and throughput (see
//! EXPERIMENTS.md §E3 for the schema).
//!
//! `node` (never part of `all`) spawns a live cluster of `--validators`
//! real `ripple-node` processes on loopback TCP, executes a fault plan as
//! OS actions (`kill -9`, socket-level partitions, restarts with state
//! resync; `--plan FILE` for a custom schedule, `--round-ms` for the
//! wall-clock round length), checks the no-fork invariant on the
//! wire-reassembled rounds, and writes `BENCH_node.json` (see
//! EXPERIMENTS.md §E16 for the schema and the plan-file grammar).
//!
//! `store` (never part of `all`) builds the `PostingsIndex` sidecar over a
//! freshly generated archive, measures indexed single-account history
//! against a full linear rescan, runs a dedicated single-client
//! point-lookup phase and then a closed-loop mixed load (`--clients`
//! worker threads, `--mix` percent point lookups, `--lookups` total
//! operations), and writes `BENCH_store.json`; `--serve ADDR` then binds
//! the HTTP/JSON API on `ADDR` (the bound address is echoed to
//! `STORE_HTTP_ADDR.txt`) for `--serve-secs` seconds (see EXPERIMENTS.md
//! §E17 for the schema and the endpoint table).
//!
//! `liquidity` (never part of `all`) runs the credit-network liquidity
//! suite at `--payments`-matched account scale: redeemability and health
//! metrics, the gateway insolvency cascade, the trust-line drain curve,
//! and the Market-Maker exit waves, with the capacity-aware router
//! benchmarked against the brute-force max-flow oracle on a sample of
//! the same probe stream. Writes `BENCH_liquidity.json` (see
//! EXPERIMENTS.md §E18 for the schema).
//!
//! `--metrics PATH` enables the `ripple-obs` metrics registry and writes a
//! schema-versioned `RUN_METRICS.json`-style snapshot to `PATH` on exit;
//! `--trace PATH` additionally records spans and writes a
//! `chrome://tracing`-loadable trace-event file (see EXPERIMENTS.md
//! "Observability").

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use ripple_core::obs::json::JsonWriter;
use ripple_core::obs::{metrics, report, trace};

use ripple_core::consensus::metrics::{persistent_actives, total_observed};
use ripple_core::deanon::{
    information_gain, sender_information_gain, AmountResolution, CurrencyStrength,
};
use ripple_core::ledger::Value;
use ripple_core::query;
use ripple_core::{
    run_liquidity, CollectionPeriod, Currency, EngineConfig, Generator, LiquidityConfig,
    PipelineConfig, ResolutionSpec, Study, SynthBench, SynthConfig,
};

/// The paper's own tables and figures, in presentation order.
const PAPER_STUDIES: &[&str] = &[
    "fig2", "table1", "fig3", "fig4", "fig5", "fig6a", "fig6b", "table2", "fig7", "offers",
];

/// Studies that go beyond the paper. `all` runs these too, after the paper
/// set.
const EXTENSION_STUDIES: &[&str] = &[
    "rewards",
    "unl",
    "countermeasure",
    "archive",
    "timeline",
    "synth",
    "check",
];

/// Studies that spawn live OS processes. Deliberately *not* part of
/// `all`: a run that forks a 5-process cluster should be asked for by
/// name (`experiments node`).
const LIVE_STUDIES: &[&str] = &["node"];

/// The indexed query-serving study. Also never part of `all`: it
/// generates its own archive and drives a closed-loop lookup load
/// (`experiments store`), writing `BENCH_store.json`.
const STORE_STUDIES: &[&str] = &["store"];

/// The credit-network liquidity suite (E18). Never part of `all`: it
/// generates its own account-scaled history and runs the brute-force
/// max-flow oracle alongside the router (`experiments liquidity`),
/// writing `BENCH_liquidity.json`.
const LIQUIDITY_STUDIES: &[&str] = &["liquidity"];

/// Studies that require a generated payment history.
const NEEDS_HISTORY: &[&str] = &[
    "synth",
    "fig3",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "table2",
    "fig7",
    "offers",
    "countermeasure",
    "archive",
    "timeline",
];

struct Args {
    experiment: String,
    payments: usize,
    seed: u64,
    rounds: u64,
    shards: usize,
    workers: usize,
    chunk: usize,
    archive: bool,
    budget_secs: u64,
    ops: usize,
    replay: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    validators: usize,
    round_ms: u64,
    plan: Option<String>,
    no_admin: bool,
    clients: usize,
    mix: u32,
    lookups: u64,
    serve: Option<String>,
    serve_secs: u64,
}

const USAGE: &str = "usage: experiments [EXPERIMENT] [flags] or experiments check replay FILE";

fn parse_args() -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        payments: 100_000,
        seed: 20130101,
        rounds: 5_000,
        shards: 0,
        workers: 0,
        chunk: 0,
        archive: false,
        budget_secs: 10,
        ops: 40,
        replay: None,
        trace: None,
        metrics: None,
        validators: 5,
        round_ms: 500,
        plan: None,
        no_admin: false,
        clients: 4,
        mix: 90,
        lookups: 200_000,
        serve: None,
        serve_secs: 0,
    };
    let mut positionals: Vec<String> = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--payments" => {
                args.payments = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--payments needs a number");
            }
            "--seed" => {
                args.seed = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--rounds" => {
                args.rounds = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--rounds needs a number");
            }
            "--shards" => {
                args.shards = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs a number");
            }
            "--workers" => {
                args.workers = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers needs a number");
            }
            "--chunk" => {
                args.chunk = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--chunk needs a number");
            }
            "--archive" => args.archive = true,
            "--budget-secs" => {
                args.budget_secs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--budget-secs needs a number");
            }
            "--ops" => {
                args.ops = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--ops needs a number");
            }
            "--trace" => {
                args.trace = Some(iter.next().expect("--trace needs a path"));
            }
            "--metrics" => {
                args.metrics = Some(iter.next().expect("--metrics needs a path"));
            }
            "--validators" => {
                args.validators = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--validators needs a number");
            }
            "--round-ms" => {
                args.round_ms = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--round-ms needs a number");
            }
            "--plan" => {
                args.plan = Some(iter.next().expect("--plan needs a path"));
            }
            "--no-admin" => args.no_admin = true,
            "--clients" => {
                args.clients = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a number");
            }
            "--mix" => {
                args.mix = iter
                    .next()
                    .and_then(|v| v.parse::<u32>().ok())
                    .filter(|m| *m <= 100)
                    .expect("--mix needs a percentage 0..=100");
            }
            "--lookups" => {
                args.lookups = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--lookups needs a number");
            }
            "--serve" => {
                args.serve = Some(iter.next().expect("--serve needs an address"));
            }
            "--serve-secs" => {
                args.serve_secs = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--serve-secs needs a number");
            }
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}; {USAGE}");
                std::process::exit(2);
            }
        }
    }
    match positionals.as_slice() {
        [] => {}
        [name] => args.experiment = name.clone(),
        [cmd, sub, path] if cmd == "check" && sub == "replay" => {
            args.experiment = "check".to_string();
            args.replay = Some(path.clone());
        }
        other => {
            eprintln!("unexpected arguments {other:?}; {USAGE}");
            std::process::exit(2);
        }
    }
    if args.experiment != "all"
        && !PAPER_STUDIES.contains(&args.experiment.as_str())
        && !EXTENSION_STUDIES.contains(&args.experiment.as_str())
        && !LIVE_STUDIES.contains(&args.experiment.as_str())
        && !STORE_STUDIES.contains(&args.experiment.as_str())
        && !LIQUIDITY_STUDIES.contains(&args.experiment.as_str())
    {
        eprintln!(
            "unknown experiment `{}`; valid: all, {}, {}, {}, {}, {}",
            args.experiment,
            PAPER_STUDIES.join(", "),
            EXTENSION_STUDIES.join(", "),
            LIVE_STUDIES.join(", "),
            STORE_STUDIES.join(", "),
            LIQUIDITY_STUDIES.join(", ")
        );
        std::process::exit(2);
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.replay {
        check_replay(path);
        return;
    }
    if args.metrics.is_some() || args.trace.is_some() {
        metrics::set_enabled(true);
    }
    if args.trace.is_some() {
        trace::enable(trace::DEFAULT_CAPACITY);
    }
    run_experiments(&args);
    if let Some(path) = &args.metrics {
        match report::write_run_metrics(Path::new(path)) {
            Ok(_) => eprintln!("wrote {path}"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
    if let Some(path) = &args.trace {
        match trace::export(Path::new(path)) {
            Ok(n) => eprintln!("wrote {path} ({n} span events)"),
            Err(err) => eprintln!("could not write {path}: {err}"),
        }
    }
}

fn run_experiments(args: &Args) {
    let wants = |name: &str| args.experiment == "all" || args.experiment == name;

    // Live-process studies run alone (never under `all`).
    if args.experiment == "node" {
        node_experiment(args);
        return;
    }

    // The query-serving study also runs alone: it builds its own archive
    // and drives a closed-loop load rather than sharing the Study arena.
    if args.experiment == "store" {
        store_experiment(args);
        return;
    }

    // The liquidity suite runs alone too: it scales the account
    // population to the payment count and runs the max-flow oracle,
    // neither of which the shared Study arena wants.
    if args.experiment == "liquidity" {
        liquidity_experiment(args);
        return;
    }

    // Studies that need no payment history: the consensus simulator and
    // the static rounding grid.
    if wants("fig2") {
        fig2(args.rounds, args.seed);
    }
    if wants("table1") {
        table1();
    }
    if wants("rewards") {
        rewards();
    }
    if wants("unl") {
        unl();
    }
    if wants("check") {
        check(args);
    }

    let history_needed =
        args.experiment == "all" || NEEDS_HISTORY.contains(&args.experiment.as_str());
    if !history_needed {
        return;
    }

    let config = SynthConfig {
        payments: args.payments,
        seed: args.seed,
        ..SynthConfig::default()
    };
    eprintln!(
        "generating history (pipelined): {} payments, seed {} ...",
        args.payments, args.seed
    );
    let pipeline = PipelineConfig {
        workers: args.workers,
        chunk_size: args.chunk,
        archive: args.archive,
        ..PipelineConfig::default()
    };
    let mut run = match Generator::new(config).run_pipelined(&pipeline) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("pipelined generation failed: {err}");
            std::process::exit(1);
        }
    };
    let mut bench = run.bench.clone();
    let archive_bytes = run.archive.take();
    let study = Study::from_pipeline(run);
    if let Some(bytes) = &archive_bytes {
        match std::fs::write("BENCH_synth.archive", bytes) {
            Ok(()) => {
                // Report the real on-disk size, not the in-memory length.
                let on_disk = std::fs::metadata("BENCH_synth.archive")
                    .map(|m| m.len() as usize)
                    .unwrap_or(bytes.len());
                bench.archive_bytes = on_disk;
                eprintln!("wrote BENCH_synth.archive ({on_disk} bytes)");
            }
            Err(err) => eprintln!("could not write BENCH_synth.archive: {err}"),
        }
    }
    eprintln!(
        "pipeline: {} payments in {:.3}s ({:.0}/s) | script {:.3}s, exec {:.3}s, \
         sink {:.3}s | {} workers x {} chunks",
        bench.payments,
        bench.total_secs,
        bench.payments_per_sec(),
        bench.script_secs,
        bench.exec_secs,
        bench.sink_secs,
        bench.workers,
        bench.chunks
    );
    let json = synth_json(args, &bench);
    match std::fs::write("BENCH_synth.json", json) {
        Ok(()) => eprintln!("wrote BENCH_synth.json"),
        Err(err) => eprintln!("could not write BENCH_synth.json: {err}"),
    }
    eprintln!("history ready: {} events", study.output().events.len());

    // `fig3` runs first and alone: it asserts engine/serial equivalence and
    // writes its own benchmark file.
    if wants("fig3") {
        fig3(&study, args);
    }

    // The remaining history-backed studies only read the shared arena and
    // the streaming tallies, so under `all` they execute concurrently; the
    // reports print in presentation order regardless of finish order.
    type StudyJob = fn(&Study) -> String;
    let mut jobs: Vec<(&'static str, StudyJob)> = Vec::new();
    for (name, job) in [
        ("fig4", fig4 as fn(&Study) -> String),
        ("fig5", fig5),
        ("fig6a", fig6a),
        ("fig6b", fig6b),
        ("table2", table2),
        ("fig7", fig7),
        ("offers", offers),
        ("countermeasure", countermeasure),
        ("archive", archive),
        ("timeline", timeline),
    ] {
        if wants(name) {
            jobs.push((name, job));
        }
    }
    if args.experiment == "all" && jobs.len() > 1 {
        let study = &study;
        let reports: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|&(_, job)| s.spawn(move || job(study)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("study thread panicked"))
                .collect()
        });
        for report in reports {
            print!("{report}");
        }
    } else {
        for (_, job) in jobs {
            print!("{}", job(&study));
        }
    }
}

/// Serializes a pipelined generation's telemetry into the
/// `BENCH_synth.json` schema documented in EXPERIMENTS.md, through the
/// shared `ripple-obs` JSON writer (the vendored serde has no JSON
/// backend).
fn synth_json(args: &Args, bench: &SynthBench) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("experiment", "synth");
    w.field_u64("payments", bench.payments as u64);
    w.field_u64("seed", args.seed);
    w.field_u64("workers", bench.workers as u64);
    w.field_u64("chunks", bench.chunks as u64);
    w.field_u64("chunk_size", bench.chunk_size as u64);
    w.key("pipeline");
    w.begin_object();
    w.field_f64("script_secs", bench.script_secs, 6);
    w.field_f64("exec_secs", bench.exec_secs, 6);
    w.field_f64("sink_secs", bench.sink_secs, 6);
    w.field_f64("total_secs", bench.total_secs, 6);
    w.field_f64("payments_per_sec", bench.payments_per_sec(), 1);
    w.field_u64("events", bench.events as u64);
    w.field_u64("encoded_bytes", bench.encoded_bytes as u64);
    w.field_u64("archive_bytes", bench.archive_bytes as u64);
    w.end_object();
    w.end_object();
    w.finish()
}

/// `experiments liquidity`: the E18 credit-network liquidity suite.
/// Generates a history whose account population is scaled to the payment
/// count, runs the scenario campaigns through the capacity-aware router,
/// benchmarks the router against the sparse max-flow oracle on a sample
/// of the same probe stream, and writes `BENCH_liquidity.json`.
fn liquidity_experiment(args: &Args) {
    println!("== Liquidity: credit-network scenario suite (E18) ==\n");
    let config = SynthConfig {
        payments: args.payments,
        seed: args.seed,
        // Scale the population with the workload: the default 100k-payment
        // run probes the router at ~100k accounts.
        users: args.payments.max(4_000),
        ..SynthConfig::default()
    };
    eprintln!(
        "generating history (pipelined): {} payments, {} users, seed {} ...",
        args.payments, config.users, args.seed
    );
    let pipeline = PipelineConfig {
        workers: args.workers,
        chunk_size: args.chunk,
        ..PipelineConfig::default()
    };
    let output = match Generator::new(config).run_pipelined(&pipeline) {
        Ok(run) => run.output,
        Err(err) => {
            eprintln!("pipelined generation failed: {err}");
            std::process::exit(1);
        }
    };

    let liquidity = LiquidityConfig {
        probes: (args.payments / 8).max(256),
        seed: args.seed,
        ..LiquidityConfig::default()
    };
    eprintln!(
        "running liquidity suite: {} probes, {} oracle samples ...",
        liquidity.probes, liquidity.oracle_sample
    );
    let outcome = run_liquidity(&output, &liquidity);
    let report = &outcome.report;
    let perf = &outcome.perf;

    println!(
        "network: {} accounts, {} trust lines, {} currencies, {} gateways",
        report.accounts,
        report.trust_lines,
        report.health.len(),
        report.gateways.len()
    );
    let summary = &report.probe_summary;
    println!(
        "probe stream: {} probes -> {} full, {} partial, {} dry | oracle: {} checked, {} violations",
        summary.probes,
        summary.delivery.fully_deliverable,
        summary.delivery.partially_deliverable,
        summary.delivery.undeliverable,
        summary.oracle_checked,
        summary.oracle_violations
    );
    for wave in &report.insolvency_cascade {
        println!(
            "insolvency: {} gateways severed -> {} full, {} partial, {} dry",
            wave.gateways_severed,
            wave.delivery.fully_deliverable,
            wave.delivery.partially_deliverable,
            wave.delivery.undeliverable
        );
    }
    for point in &report.trust_drain {
        println!(
            "drain {:>3}%: {} full, {} partial, {} dry",
            point.drain_percent,
            point.delivery.fully_deliverable,
            point.delivery.partially_deliverable,
            point.delivery.undeliverable
        );
    }
    for wave in &report.mm_exit_waves {
        println!(
            "mm exit: {} makers severed -> cross {}/{}, single {}/{}",
            wave.makers_severed,
            wave.cross_delivered,
            wave.cross_submitted,
            wave.single_delivered,
            wave.single_submitted
        );
    }
    println!(
        "router: {} queries in {:.3}s ({:.0}/s, {} hits, {} misses, {} graph builds, {} edges \
         refreshed) | oracle: {} queries in {:.3}s ({:.1}/s) | speedup {:.1}x",
        perf.router_queries,
        perf.router_secs,
        perf.router_queries as f64 / perf.router_secs.max(1e-9),
        perf.router_stats.hits,
        perf.router_stats.misses,
        perf.router_stats.graph_builds,
        perf.router_stats.edges_refreshed,
        perf.oracle_queries,
        perf.oracle_secs,
        perf.oracle_queries as f64 / perf.oracle_secs.max(1e-9),
        perf.speedup
    );
    if summary.oracle_violations > 0 {
        eprintln!(
            "LIQUIDITY FAILURE: router exceeded the max-flow oracle on {} probes",
            summary.oracle_violations
        );
    }

    let json = liquidity_json(&outcome);
    match std::fs::write("BENCH_liquidity.json", json) {
        Ok(()) => eprintln!("wrote BENCH_liquidity.json"),
        Err(err) => eprintln!("could not write BENCH_liquidity.json: {err}"),
    }
    if summary.oracle_violations > 0 {
        std::process::exit(1);
    }
}

/// Serializes a liquidity run into the `BENCH_liquidity.json` schema
/// documented in EXPERIMENTS.md §E18: the deterministic report fields
/// first (byte-stable across repeats, hosts and worker counts), then the
/// wall-clock `perf` section.
fn liquidity_json(outcome: &ripple_core::LiquidityOutcome) -> String {
    let perf = &outcome.perf;
    let mut w = JsonWriter::pretty();
    w.begin_object();
    outcome.report.write_json(&mut w);
    w.key("perf");
    w.begin_object();
    w.field_u64("router_queries", perf.router_queries);
    w.field_f64("router_secs", perf.router_secs, 6);
    w.field_u64("oracle_queries", perf.oracle_queries);
    w.field_f64("oracle_secs", perf.oracle_secs, 6);
    w.field_f64("speedup_vs_oracle", perf.speedup, 1);
    w.field_u64("cache_hits", perf.router_stats.hits);
    w.field_u64("cache_misses", perf.router_stats.misses);
    w.field_u64("cache_invalidations", perf.router_stats.invalidations);
    w.field_u64("graph_builds", perf.router_stats.graph_builds);
    w.field_u64("edges_refreshed", perf.router_stats.edges_refreshed);
    w.field_str(
        "note",
        "speedup_vs_oracle compares per-query wall time of the cached router \
         over the full probe stream against the sparse max-flow oracle over \
         the oracle_queries-probe prefix of the same stream, on this host. \
         The perf section is the only non-deterministic part of this file.",
    );
    w.end_object();
    w.end_object();
    w.finish()
}

/// One account's indexed-vs-rescan comparison.
struct StoreAccountBaseline {
    account: String,
    events: usize,
    rescan_secs: f64,
    indexed_secs: f64,
    speedup: f64,
}

/// The single-account baseline: a heavy (99th-percentile-activity)
/// account is the headline number; the single busiest account (the hub)
/// is reported alongside as the worst case — a hub touching a constant
/// fraction of all records can never beat the records ratio, whatever
/// the index does.
struct StoreBaseline {
    heavy: StoreAccountBaseline,
    hub: StoreAccountBaseline,
}

/// `experiments store`: build an archive, index it, compare indexed
/// account-history against a linear rescan, then drive a closed-loop
/// lookup load and write `BENCH_store.json` (EXPERIMENTS.md §E17).
fn store_experiment(args: &Args) {
    use ripple_core::crypto::hex;
    use std::sync::Arc;

    // Latency percentiles come from ripple-obs histograms.
    metrics::set_enabled(true);
    println!("== Store: indexed query serving over the history archive ==\n");

    let config = SynthConfig {
        payments: args.payments,
        seed: args.seed,
        ..SynthConfig::default()
    };
    eprintln!(
        "generating history: {} payments, seed {} ...",
        args.payments, args.seed
    );
    let t = Instant::now();
    let out = Generator::new(config).run();
    let generate_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut archive = Vec::new();
    let records = out
        .write_archive(&mut archive)
        .expect("archive encode failed");
    let encode_secs = t.elapsed().as_secs_f64();
    let archive_bytes = archive.len();
    eprintln!(
        "archive: {records} records, {archive_bytes} bytes \
         (generate {generate_secs:.3}s, encode {encode_secs:.3}s)"
    );
    drop(out);

    let (engine, build) = query::QueryEngine::open(archive, &query::EngineConfig::default())
        .expect("query engine open failed");
    let engine = Arc::new(engine);
    eprintln!(
        "index: {} records, {} accounts, {} flow classes, {} blocks, \
         {} sidecar bytes in {:.3}s",
        build.records,
        build.accounts,
        build.flow_classes,
        build.blocks,
        build.sidecar_bytes,
        build.build_secs
    );

    // Single-account history, indexed vs a full linear rescan of the
    // archive (what serving would cost without the postings sidecar).
    // Accounts sorted by activity, ties broken on bytes for determinism:
    // rank 0 is the hub, rank len/100 the 99th-percentile account.
    let mut by_activity: Vec<(usize, ripple_core::AccountId)> = engine
        .postings()
        .iter_accounts()
        .map(|(account, offsets)| (offsets.len(), *account))
        .collect();
    by_activity.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then_with(|| a.1.as_bytes().cmp(b.1.as_bytes()))
    });
    let measure = |label: &str, account: ripple_core::AccountId, events: usize| {
        let t = Instant::now();
        let rescan = engine
            .rescan_account_history(&account)
            .expect("linear rescan failed");
        let rescan_secs = t.elapsed().as_secs_f64();
        assert_eq!(rescan.len(), events, "rescan and postings disagree");
        drop(rescan);
        // Best of a few indexed passes: the first is cold, the rest
        // measure the steady state a server actually runs in.
        let mut indexed_secs = f64::MAX;
        for _ in 0..8 {
            let t = Instant::now();
            let visited = engine
                .visit_account_history(&account, usize::MAX, |_, _| {})
                .expect("indexed history failed");
            assert_eq!(visited, events, "indexed history and postings disagree");
            indexed_secs = indexed_secs.min(t.elapsed().as_secs_f64());
        }
        let baseline = StoreAccountBaseline {
            account: hex::encode(account.as_bytes()),
            events,
            rescan_secs,
            indexed_secs,
            speedup: rescan_secs / indexed_secs.max(1e-12),
        };
        println!(
            "single-account history, {label} ({} events): rescan {:.4}s, \
             indexed {:.6}s -> {:.0}x",
            baseline.events, baseline.rescan_secs, baseline.indexed_secs, baseline.speedup
        );
        baseline
    };
    let heavy_rank = (by_activity.len() / 100).min(by_activity.len() - 1);
    let (heavy_events, heavy_account) = by_activity[heavy_rank];
    let (hub_events, hub_account) = by_activity[0];
    let baseline = StoreBaseline {
        heavy: measure("p99 account", heavy_account, heavy_events),
        hub: measure("hub account", hub_account, hub_events),
    };

    // Dedicated point-lookup phase: one client, 100% points, so the rate
    // is the point path itself rather than scheduler interference between
    // closed-loop clients on a small host. Histograms are reset afterwards
    // so the mixed-load percentiles below are the mixed load's own.
    let point_config = query::LoadConfig {
        clients: 1,
        total_ops: args.lookups,
        point_pct: 100,
        seed: args.seed,
    };
    eprintln!(
        "point-lookup phase: {} ops, 1 client ...",
        point_config.total_ops
    );
    let point_phase = query::load::run(&engine, &point_config);
    println!(
        "point phase: {:.0} point-lookups/s over {:.3}s \
         | p50/p90/p99 {} / {} / {} us | cache hit rate {:.3}",
        point_phase.lookups_per_sec,
        point_phase.wall_secs,
        point_phase.point_us[0],
        point_phase.point_us[1],
        point_phase.point_us[2],
        point_phase.cache_hit_rate
    );
    metrics::reset();

    let load_config = query::LoadConfig {
        clients: args.clients,
        total_ops: args.lookups,
        point_pct: args.mix,
        seed: args.seed,
    };
    eprintln!(
        "closed-loop load: {} ops, {} clients, {}% point lookups ...",
        load_config.total_ops, load_config.clients, load_config.point_pct
    );
    let load = query::load::run(&engine, &load_config);
    println!(
        "load: {:.0} lookups/s ({:.0} point-lookups/s in-path) over {:.3}s \
         | point p50/p90/p99 {} / {} / {} us \
         | scan p50/p90/p99 {} / {} / {} us | cache hit rate {:.3}",
        load.lookups_per_sec,
        load.point_lookups_per_sec,
        load.wall_secs,
        load.point_us[0],
        load.point_us[1],
        load.point_us[2],
        load.scan_us[0],
        load.scan_us[1],
        load.scan_us[2],
        load.cache_hit_rate
    );
    let block_records = engine.postings().block_records();
    println!(
        "scans: {} examined {} frames -> {:.1} frames/scan \
         (bound {} = limit {} + block {} + 1)",
        load.range_scans,
        load.scan_frames,
        load.scan_frames as f64 / load.range_scans.max(1) as f64,
        query::load::SCAN_LIMIT as u32 + block_records + 1,
        query::load::SCAN_LIMIT,
        block_records
    );

    let json = store_json(
        args,
        records,
        archive_bytes,
        generate_secs,
        encode_secs,
        &build,
        block_records,
        &baseline,
        &point_phase,
        &load,
    );
    match std::fs::write("BENCH_store.json", json) {
        Ok(()) => eprintln!("wrote BENCH_store.json"),
        Err(err) => eprintln!("could not write BENCH_store.json: {err}"),
    }

    // Optional serving window so CI (or a human with curl) can hit the
    // HTTP API of the archive just benchmarked.
    if let Some(addr) = &args.serve {
        let server = query::serve(engine.clone(), addr).expect("http bind failed");
        let bound = server.addr();
        if let Err(err) = std::fs::write("STORE_HTTP_ADDR.txt", format!("{bound}\n")) {
            eprintln!("could not write STORE_HTTP_ADDR.txt: {err}");
        }
        eprintln!("serving http on {bound} for {}s ...", args.serve_secs);
        std::thread::sleep(std::time::Duration::from_secs(args.serve_secs));
        server.shutdown();
    }
}

/// Serializes a store run into the `BENCH_store.json` schema documented
/// in EXPERIMENTS.md §E17.
#[allow(clippy::too_many_arguments)]
fn store_json(
    args: &Args,
    records: u64,
    archive_bytes: usize,
    generate_secs: f64,
    encode_secs: f64,
    build: &ripple_core::query::BuildReport,
    block_records: u32,
    baseline: &StoreBaseline,
    point_phase: &ripple_core::query::LoadReport,
    load: &ripple_core::query::LoadReport,
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("experiment", "store");
    w.field_u64("payments", args.payments as u64);
    w.field_u64("seed", args.seed);
    w.key("archive");
    w.begin_object();
    w.field_u64("records", records);
    w.field_u64("bytes", archive_bytes as u64);
    w.field_f64("generate_secs", generate_secs, 6);
    w.field_f64("encode_secs", encode_secs, 6);
    w.end_object();
    w.key("index");
    w.begin_object();
    w.field_f64("build_secs", build.build_secs, 6);
    w.field_u64("sidecar_bytes", build.sidecar_bytes);
    w.field_u64("accounts", build.accounts);
    w.field_u64("flow_classes", build.flow_classes);
    w.field_u64("blocks", build.blocks);
    w.field_u64("block_records", u64::from(block_records));
    w.field_u64("skipped_bytes", build.skipped_bytes);
    w.field_u64("corrupt_regions", build.corrupt_regions);
    w.end_object();
    w.key("baseline");
    w.begin_object();
    for (key, side) in [("heavy", &baseline.heavy), ("hub", &baseline.hub)] {
        w.key(key);
        w.begin_object();
        w.field_str("account", &side.account);
        w.field_u64("events", side.events as u64);
        w.field_f64("rescan_secs", side.rescan_secs, 6);
        w.field_f64("indexed_secs", side.indexed_secs, 9);
        w.field_f64("speedup", side.speedup, 1);
        w.end_object();
    }
    // The headline number the acceptance gate reads: indexed single-account
    // history vs linear rescan for the 99th-percentile-activity account.
    w.field_f64("speedup", baseline.heavy.speedup, 1);
    w.end_object();
    // Single-client, 100%-point run: the point path's own service rate,
    // free of scheduler interference between closed-loop clients.
    w.key("point_phase");
    w.begin_object();
    w.field_u64("ops", point_phase.ops);
    w.field_f64("wall_secs", point_phase.wall_secs, 6);
    w.field_f64("lookups_per_sec", point_phase.lookups_per_sec, 1);
    w.field_f64("cache_hit_rate", point_phase.cache_hit_rate, 4);
    w.key("point_us");
    w.begin_object();
    w.field_u64("p50", point_phase.point_us[0]);
    w.field_u64("p90", point_phase.point_us[1]);
    w.field_u64("p99", point_phase.point_us[2]);
    w.end_object();
    w.end_object();
    w.key("load");
    w.begin_object();
    w.field_u64("clients", args.clients as u64);
    w.field_u64("ops", load.ops);
    w.field_u64("point_pct", u64::from(args.mix));
    w.field_u64("point_lookups", load.point_lookups);
    w.field_u64("range_scans", load.range_scans);
    w.field_u64("scan_limit", query::load::SCAN_LIMIT as u64);
    w.field_u64("scan_frames", load.scan_frames);
    w.field_u64("flow_lookups", load.flow_lookups);
    w.field_u64("class_lookups", load.class_lookups);
    w.field_u64("events_visited", load.events_visited);
    w.field_f64("wall_secs", load.wall_secs, 6);
    w.field_f64("lookups_per_sec", load.lookups_per_sec, 1);
    w.field_f64("point_lookups_per_sec", load.point_lookups_per_sec, 1);
    w.field_f64("cache_hit_rate", load.cache_hit_rate, 4);
    w.key("point_us");
    w.begin_object();
    w.field_u64("p50", load.point_us[0]);
    w.field_u64("p90", load.point_us[1]);
    w.field_u64("p99", load.point_us[2]);
    w.end_object();
    w.key("scan_us");
    w.begin_object();
    w.field_u64("p50", load.scan_us[0]);
    w.field_u64("p90", load.scan_us[1]);
    w.field_u64("p99", load.scan_us[2]);
    w.end_object();
    w.end_object();
    w.end_object();
    w.finish()
}

fn fig2(rounds: u64, seed: u64) {
    println!("== Figure 2: pages signed by validators (total vs valid) ==");
    println!("   ({rounds} consensus rounds per period; the paper's captures span ~250k)\n");
    let mut reports = Vec::new();
    for period in CollectionPeriod::all() {
        let outcome = period.run(rounds, seed);
        let report = outcome.report();
        println!("-- {} --", period.name());
        print!("{}", report.to_table());
        let active = report.active(0.5).len();
        println!(
            "observed validators: {} | active (>=50% of best): {} | never-valid: {}\n",
            report.observed(),
            active,
            report.never_valid().len()
        );
        reports.push(report);
    }
    let refs: Vec<&ripple_core::ValidatorReport> = reports.iter().collect();
    println!(
        "persistent active contributors across all periods: {} (paper: 9)",
        persistent_actives(&refs, 0.0).len()
    );
    println!(
        "distinct validators seen across periods: {} (paper: 70)\n",
        total_observed(&refs)
    );
}

fn table1() {
    println!("== Table I: rounding grid per currency-strength group ==\n");
    println!(
        "{:<10} {:<24} {:>8} {:>12} {:>8}",
        "Strength", "Currency", "Max (m)", "Average (a)", "Low (l)"
    );
    let groups: [(&str, &str, Currency); 3] = [
        ("Powerful", "BTC, XAG, XAU, XPT", Currency::BTC),
        ("Medium", "CNY, EUR, USD, AUD, GBP, JPY", Currency::USD),
        ("Weak", "XRP, CCK, STR, KRW, MTL", Currency::XRP),
    ];
    for (name, codes, representative) in groups {
        let exp = |r: AmountResolution| format!("10^{}", r.exponent(representative));
        println!(
            "{:<10} {:<24} {:>8} {:>12} {:>8}",
            name,
            codes,
            exp(AmountResolution::Maximum),
            exp(AmountResolution::Average),
            exp(AmountResolution::Low)
        );
        let _ = CurrencyStrength::of(representative);
    }
    println!();
}

fn fig3(study: &Study, args: &Args) {
    println!("== Figure 3: information gain per feature/resolution list ==\n");
    let paper: HashMap<&str, f64> = [
        ("<Am; Tsc; C; D>", 99.83),
        ("<Am; Tsc; -; D>", 99.83),
        ("<Am; Tsc; C; ->", 93.78),
        ("<- ; Tsc; C; D>", 89.86),
        ("<Am; - ; C; D>", 48.84),
        ("<Al; Tdy; -; ->", 1.28),
    ]
    .into_iter()
    .collect();

    let sweep = study.figure3_sweep(EngineConfig {
        shards: args.shards,
        merge_ranges: 0,
    });

    // Serial per-spec baseline: the pre-engine shape of the sweep — one
    // full pass per (spec, metric), recomputing every coarsening and
    // hashing full-width fingerprint keys each time. The checksum doubles
    // as an equivalence assert and keeps the passes from being optimized
    // out.
    let payments = study.payments();
    let t_serial = Instant::now();
    let mut serial_checksum = 0u64;
    for (_, spec) in ResolutionSpec::figure3_rows() {
        serial_checksum += information_gain(payments.iter().copied(), spec).unique;
        serial_checksum += sender_information_gain(payments.iter().copied(), spec).unique;
    }
    let serial_secs = t_serial.elapsed().as_secs_f64();
    assert_eq!(
        serial_checksum,
        sweep
            .rows
            .iter()
            .map(|r| r.strict.unique + r.sender.unique)
            .sum::<u64>(),
        "engine and serial sweeps must agree"
    );

    println!(
        "{:<18} {:>10} {:>11} {:>12}",
        "features", "IG (ours)", "IG (sndr)", "IG (paper)"
    );
    for row in &sweep.rows {
        let reference = paper
            .get(row.label)
            .map(|p| format!("{p:.2}%"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<18} {:>9.2}% {:>10.2}% {reference:>12}",
            row.label,
            row.strict.percent(),
            row.sender.percent()
        );
    }
    let stats = &sweep.stats;
    let speedup = if stats.total_secs > 0.0 {
        serial_secs / stats.total_secs
    } else {
        0.0
    };
    println!(
        "\nengine: {} payments x 10 specs in {:.3}s (scan {:.3}s, merge {:.3}s) \
         = {:.0} payments/s | {} shards, {} ranges, peak {} classes",
        stats.payments,
        stats.total_secs,
        stats.scan_secs,
        stats.merge_secs,
        stats.payments_per_sec(),
        stats.shards,
        stats.merge_ranges,
        stats.peak_classes
    );
    println!(
        "serial per-spec baseline (strict+sender, 20 passes): {serial_secs:.3}s \
         -> speedup {speedup:.1}x\n"
    );

    let json = fig3_json(args, &sweep, serial_secs, speedup);
    match std::fs::write("BENCH_fig3.json", json) {
        Ok(()) => eprintln!("wrote BENCH_fig3.json"),
        Err(err) => eprintln!("could not write BENCH_fig3.json: {err}"),
    }
}

/// Serializes the sweep into the `BENCH_fig3.json` schema documented in
/// EXPERIMENTS.md §E3, through the shared `ripple-obs` JSON writer (the
/// vendored serde has no JSON backend).
fn fig3_json(
    args: &Args,
    sweep: &ripple_core::Fig3Sweep,
    serial_secs: f64,
    speedup: f64,
) -> String {
    let stats = &sweep.stats;
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_str("experiment", "fig3");
    w.field_u64("payments", stats.payments);
    w.field_u64("seed", args.seed);
    w.key("engine");
    w.begin_object();
    w.field_u64("shards", stats.shards as u64);
    w.field_u64("merge_ranges", stats.merge_ranges as u64);
    w.field_f64("scan_secs", stats.scan_secs, 6);
    w.field_f64("merge_secs", stats.merge_secs, 6);
    w.field_f64("total_secs", stats.total_secs, 6);
    w.field_f64("payments_per_sec", stats.payments_per_sec(), 1);
    w.field_u64("peak_classes", stats.peak_classes);
    w.end_object();
    w.field_f64("serial_sweep_secs", serial_secs, 6);
    w.field_f64("speedup_vs_serial", speedup, 2);
    w.key("rows");
    w.begin_array();
    for row in &sweep.rows {
        w.begin_inline_object();
        w.field_str("label", row.label);
        w.field_u64("total", row.strict.total);
        w.field_u64("strict_unique", row.strict.unique);
        w.field_f64("strict_percent", row.strict.percent(), 4);
        w.field_u64("sender_unique", row.sender.unique);
        w.field_f64("sender_percent", row.sender.percent(), 4);
        w.field_u64("classes", row.classes);
        w.end_inline_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn fig4(study: &Study) -> String {
    let mut out = String::from("== Figure 4: most-used currencies ==\n\n");
    let usage = study.figure4();
    out.push_str(&ripple_core::analytics::currencies::usage_table(&usage));
    out.push('\n');
    out
}

fn fig5(study: &Study) -> String {
    let mut out = String::from("== Figure 5: survival function of amounts ==\n\n");
    let curves = study.figure5();
    let _ = write!(out, "{:>12}", "amount >");
    for (currency, _) in &curves {
        match currency {
            None => {
                let _ = write!(out, " {:>8}", "Global");
            }
            Some(c) => {
                let _ = write!(out, " {c:>8}");
            }
        }
    }
    out.push('\n');
    for exp in -4..=12 {
        let threshold = 10f64.powi(exp);
        let _ = write!(out, "{threshold:>12.0e}");
        for (_, curve) in &curves {
            let _ = write!(out, " {:>8.4}", curve.survival(Value::from_f64(threshold)));
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

fn fig6a(study: &Study) -> String {
    let mut out = String::from("== Figure 6(a): payment paths per intermediate-hop count ==\n\n");
    out.push_str(&ripple_core::analytics::paths::histogram_table(
        &study.figure6a(),
        "hops",
    ));
    out.push('\n');
    out
}

fn fig6b(study: &Study) -> String {
    let mut out = String::from("== Figure 6(b): payments per parallel-path count ==\n\n");
    out.push_str(&ripple_core::analytics::paths::histogram_table(
        &study.figure6b(),
        "paths",
    ));
    out.push('\n');
    out
}

fn table2(study: &Study) -> String {
    let mut out = String::from("== Table II: delivery without Market Makers ==\n\n");
    match study.table2() {
        Some(report) => {
            let _ = writeln!(
                out,
                "(snapshot taken; {} offers stripped, {} makers severed)\n",
                report.offers_stripped, report.makers_severed
            );
            out.push_str(&report.stats.to_table());
            out.push_str("\npaper: cross 0%, single 36.1%, total 11.2%\n\n");
        }
        None => out.push_str("no snapshot inside the generated window\n\n"),
    }
    out
}

fn fig7(study: &Study) -> String {
    let mut out = String::from("== Figure 7: the 50 most frequent intermediate hops ==\n\n");
    let report = study.figure7(50);
    out.push_str(&ripple_core::analytics::hubs::hub_table(&report));
    let _ = writeln!(
        out,
        "\nmulti-hop payments: {}; top-1 coverage ~{:.0}%\n",
        report.multi_hop_payments,
        report.coverage * 100.0
    );
    out
}

fn offers(study: &Study) -> String {
    let mut out = String::from("== Offer concentration across Market Makers ==\n\n");
    let conc = study.offer_concentration();
    let _ = writeln!(out, "total offers: {}", conc.total);
    for k in [10, 50, 100] {
        let _ = writeln!(
            out,
            "top-{k:<3} makers place {:>5.1}% of offers",
            conc.top_share(k) * 100.0
        );
    }
    out.push_str("(paper: top-10 = 50%, top-50 = 75%, top-100 = 87%)\n\n");
    out
}

fn rewards() {
    use ripple_core::consensus::{simulate_reward_economy, EconomyConfig, RewardPolicy};
    println!("== Extension: the Section IV validator-reward proposal ==\n");
    println!(
        "{:>8} {:>12} {:>14} {:>20}",
        "tax bps", "validators", "revenue/round", "P(quorum failure)"
    );
    let config = EconomyConfig::default();
    for tax_bps in [0u32, 20, 50, 100, 200, 400] {
        let outcome = simulate_reward_economy(
            RewardPolicy {
                tax_bps,
                operating_cost_per_round: 0.01,
            },
            config,
            7,
        );
        println!(
            "{:>8} {:>12} {:>14.4} {:>20.3e}",
            tax_bps,
            outcome.equilibrium_validators(),
            outcome.final_revenue(),
            outcome.final_failure_prob()
        );
    }
    println!("\n=> a per-transaction tax grows the validator set and collapses");
    println!("   the quorum-failure probability, as Section IV conjectures.\n");
}

fn unl() {
    use ripple_core::consensus::fork_sweep;
    println!("== Extension: UNL-overlap fork analysis ==\n");
    println!("two 5-validator cliques with conflicting transactions:");
    println!("{:>10} {:>8}", "overlap", "forks?");
    for (overlap, forked) in fork_sweep(10) {
        println!("{:>10} {:>8}", overlap, if forked { "YES" } else { "no" });
    }
    println!("\n=> without enough UNL overlap two cliques seal different pages;");
    println!("   the paper's 'noticeable disagreement' needs straddling validators.\n");
}

/// `experiments node`: a live cluster of real `ripple-node` processes on
/// loopback TCP, with the fault plan executed as OS actions. The default
/// plan kills one validator mid-round, restarts it, then runs a
/// partition/heal cycle — the full robustness tour. Writes
/// `BENCH_node.json` (schema in EXPERIMENTS.md §E16).
fn node_experiment(args: &Args) {
    use ripple_core::netsim::live::parse_plan;
    use ripple_core::netsim::{FaultPlan, NodeId, SimTime};
    use ripple_core::node::{run_cluster, ClusterConfig};

    println!("== Live cluster: networked validators under OS-level faults ==\n");
    let n = args.validators.max(2);
    // The global --rounds default (5 000) is sized for the simulator; a
    // wall-clock cluster defaults to a dozen rounds instead.
    let rounds = if args.rounds == 5_000 {
        12
    } else {
        args.rounds
    };
    let plan = match &args.plan {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|err| panic!("could not read --plan {path}: {err}"));
            match parse_plan(&text) {
                Ok(plan) => plan,
                Err(err) => {
                    eprintln!("bad --plan {path}: {err}");
                    std::process::exit(2);
                }
            }
        }
        None => {
            // Times are in round units (sim_round_ms == round_ms below):
            // kill one validator mid-round-2, restart it in round 4, cut
            // {0,1} from the rest in round 6, heal in round 8.
            let r = args.round_ms;
            let victim = NodeId(n - 1);
            let left: Vec<NodeId> = (0..2).map(NodeId).collect();
            let right: Vec<NodeId> = (2..n).map(NodeId).collect();
            FaultPlan::new()
                .crash_at(SimTime::from_millis(2 * r + r / 2), victim)
                .restart_at(SimTime::from_millis(4 * r), victim)
                .partition_at(SimTime::from_millis(6 * r), left, right)
                .heal_at(SimTime::from_millis(8 * r))
        }
    };
    let cfg = ClusterConfig {
        validators: n,
        rounds,
        round_ms: args.round_ms,
        seed: args.seed,
        plan,
        sim_round_ms: args.round_ms,
        bin: None,
        instrument: !args.no_admin,
        flight_dir: None,
    };
    println!(
        "{} validators, {} rounds of {}ms ({} plan events)\n",
        n,
        rounds,
        args.round_ms,
        cfg.plan.events().len()
    );
    let report = match run_cluster(&cfg) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("cluster failed to launch: {err}");
            eprintln!("(build the binary first: cargo build --release -p ripple-node)");
            std::process::exit(1);
        }
    };
    for line in &report.actions_log {
        println!("  {line}");
    }
    let total = report.telemetry_total();
    println!(
        "\nrounds observed: {} | committed: {} | stalls: {}",
        report.rounds.len(),
        report.committed_rounds,
        report.stalls.len()
    );
    println!(
        "no fork: {} | rounds to recover: {} | recover wall ms: {}",
        report.no_fork,
        report
            .rounds_to_recover
            .map_or("never".to_string(), |r| r.to_string()),
        report
            .recover_wall_ms
            .map_or("-".to_string(), |ms| ms.to_string()),
    );
    println!(
        "reconnect attempts: {} | successes: {} | state resubs: {} | degraded rounds: {}",
        total.reconnect_attempts,
        total.reconnect_successes,
        total.state_resubs,
        total.degraded_rounds
    );
    if let Some(fork) = &report.fork {
        println!("FORK DETECTED: {fork}");
    }
    if !report.admin.is_empty() {
        let events: u64 = report.admin.iter().map(|p| p.events as u64).sum();
        let gaps: u64 = report.admin.iter().map(|p| p.gaps).sum();
        let lost: u64 = report.admin.iter().map(|p| p.lost).sum();
        println!("telemetry plane: {events} trace events, {gaps} poll gaps, {lost} lost");
        for name in ripple_core::node::cluster_trace::ROUND_HISTOGRAMS {
            let per_node: Vec<_> = report
                .admin
                .iter()
                .filter_map(|p| p.round_metrics.get(name).copied())
                .collect();
            let agg = ripple_core::node::cluster_trace::aggregate_hist(&per_node);
            if agg.count > 0 {
                println!(
                    "  {name}: n={} p50={} p90={} p99={} max={}",
                    agg.count, agg.p50, agg.p90, agg.p99, agg.max
                );
            }
        }
        match report.write_cluster_trace("TRACE_cluster.json") {
            Ok(()) => eprintln!("wrote TRACE_cluster.json"),
            Err(err) => eprintln!("could not write TRACE_cluster.json: {err}"),
        }
    }
    match report.write_bench_json("BENCH_node.json") {
        Ok(()) => eprintln!("wrote BENCH_node.json"),
        Err(err) => eprintln!("could not write BENCH_node.json: {err}"),
    }
    if !report.no_fork {
        std::process::exit(1);
    }
    println!();
}

fn check(args: &Args) {
    use ripple_core::check::run::TARGETS;
    use ripple_core::check::{run_check, CheckConfig};
    println!("== Extension: differential + invariant correctness harness ==\n");
    let config = CheckConfig {
        seed: args.seed,
        ops: args.ops,
        budget: std::time::Duration::from_secs(args.budget_secs),
        ..CheckConfig::default()
    };
    let report = run_check(&config);
    println!(
        "{} cases in {:.2}s (seed {}, {} ops/case, budget {}s)",
        report.cases_run,
        report.elapsed.as_secs_f64(),
        args.seed,
        args.ops,
        args.budget_secs
    );
    for (name, n) in TARGETS.iter().zip(report.per_target) {
        println!("  {name:<10} {n:>6} cases");
    }
    if report.clean() {
        println!("\n=> no divergence: every engine agrees with its reference model\n");
        return;
    }
    let case = &report.divergences[0];
    println!(
        "\nDIVERGENCE in the `{}` target (seed {}, shrunk over {} steps):",
        case.payload.kind(),
        case.seed,
        report.shrink_steps
    );
    println!("  {}", case.divergence);
    match std::fs::write("CHECK_CASE.json", case.to_json()) {
        Ok(()) => {
            eprintln!("wrote CHECK_CASE.json (reproduce: experiments check replay CHECK_CASE.json)")
        }
        Err(err) => eprintln!("could not write CHECK_CASE.json: {err}"),
    }
    std::process::exit(1);
}

/// `experiments check replay FILE`: re-executes a recorded counterexample
/// and fails unless the divergence reproduces and the case re-serializes
/// byte-for-byte.
fn check_replay(path: &str) {
    use ripple_core::check::replay_document;
    let doc = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(err) => {
            eprintln!("could not read {path}: {err}");
            std::process::exit(2);
        }
    };
    let outcome = match replay_document(&doc) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("invalid case document {path}: {err}");
            std::process::exit(2);
        }
    };
    match &outcome.divergence {
        Some(divergence) => println!("divergence reproduced:\n  {divergence}"),
        None => println!("case ran clean: the recorded divergence no longer reproduces"),
    }
    println!(
        "byte-identical re-serialization: {}",
        if outcome.byte_identical { "yes" } else { "NO" }
    );
    if outcome.reproduced && outcome.byte_identical {
        println!("replay OK");
    } else {
        std::process::exit(1);
    }
}

fn countermeasure(study: &Study) -> String {
    use ripple_core::deanon::countermeasure::{ground_truth, link_wallets_by_habit, split_wallets};
    use ripple_core::deanon::ResolutionSpec;
    use ripple_core::ledger::FeeSchedule;
    let mut out =
        String::from("== Extension: the Section V wallet-splitting countermeasure ==\n\n");
    let records: Vec<ripple_core::PaymentRecord> = study.payments().into_iter().cloned().collect();
    let fees = FeeSchedule::mainnet();
    let _ = writeln!(
        out,
        "{:>3} {:>10} {:>10} {:>10} {:>12} {:>12} {:>8} {:>8}",
        "k", "IG before", "IG after", "exposure", "trustlines", "reserve XRP", "relink", "prec"
    );
    for k in [1usize, 2, 4, 8] {
        let (split, report) = split_wallets(&records, k, ResolutionSpec::full(), &fees);
        let truth = ground_truth(&records, k);
        let link = link_wallets_by_habit(&split, &truth, k);
        let _ = writeln!(
            out,
            "{:>3} {:>9.2}% {:>9.2}% {:>10.3} {:>12} {:>12} {:>7.1}% {:>7.1}%",
            k,
            report.ig_before.percent(),
            report.ig_after.percent(),
            report.profile_exposure,
            report.extra_trust_lines,
            report.reserve_cost_xrp,
            link.recall * 100.0,
            link.precision * 100.0,
        );
    }
    out.push_str("\n=> splitting fragments profiles (exposure ~1/k) but costs reserves and\n");
    out.push_str("   trust lines, and leaves single payments identifiable; exact habit\n");
    out.push_str("   repeats re-link a slice of the wallets — the paper's objections,\n");
    out.push_str("   quantified on organic traffic.\n\n");
    out
}

fn archive(study: &Study) -> String {
    let mut out = String::from("== Extension: archive write/scan throughput ==\n\n");
    let mut buf = Vec::new();
    let t0 = Instant::now();
    let written = study.output().write_archive(&mut buf).expect("write");
    let write_secs = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let events = ripple_core::store::Reader::new(buf.as_slice())
        .expect("magic")
        .read_all()
        .expect("scan")
        .len();
    let scan_secs = t1.elapsed().as_secs_f64();
    let mb = buf.len() as f64 / 1e6;
    let _ = writeln!(out, "records: {written} | size: {mb:.1} MB");
    let _ = writeln!(
        out,
        "write: {:.2} MB/s | scan: {:.2} MB/s ({events} events)",
        mb / write_secs,
        mb / scan_secs
    );
    let _ = writeln!(
        out,
        "=> at scan speed, the paper's 500 GB dump parses in ~{:.1} h on one core\n",
        500_000.0 / (mb / scan_secs) / 3_600.0
    );
    out
}

fn timeline(study: &Study) -> String {
    let mut out = String::from("== Payment trends and population ==\n\n");
    let rows = study.timeline();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>14}",
        "month", "payments", "active senders"
    );
    // Quarterly sampling keeps the table readable.
    for row in rows.iter().step_by(3) {
        let _ = writeln!(
            out,
            "{:>4}-{:02} {:>11} {:>14}",
            row.year, row.month, row.payments, row.active_senders
        );
    }
    let stats = study.user_stats();
    let _ = writeln!(
        out,
        "\naccounts: {} total, {} active ({:.0}%) | senders: {} | receivers: {}",
        stats.total_accounts,
        stats.active_accounts,
        stats.active_fraction() * 100.0,
        stats.senders,
        stats.receivers
    );
    out.push_str("(paper, Aug 2015: 165K users, 55K active ~ 33%)\n\n");
    out
}
