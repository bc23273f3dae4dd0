//! Regenerates every table and figure of the paper as text output.
//!
//! ```text
//! experiments [EXPERIMENT] [--payments N] [--seed S] [--rounds R] [--shards S]
//!             [--workers W] [--chunk C] [--archive]
//!             [--budget-secs B] [--ops N]
//!             [--trace PATH] [--metrics PATH] [--validators N]
//!             [--round-ms MS] [--plan FILE] [--no-admin]
//!             [--serve ADDR] [--serve-secs SECS]
//! experiments check replay CHECK_CASE.json
//! ```
//!
//! `EXPERIMENT` is a row of [`STUDIES`], the one table of studies, in
//! presentation order: the paper's tables and figures `fig2`, `table1`,
//! `fig3`, `fig4`, `fig5`, `fig6a`, `fig6b`, `table2`, `fig7`, `offers`;
//! the extension studies `rewards` (§IV's proposed validator-reward
//! system), `unl` (UNL-overlap fork analysis), `countermeasure` (§V's
//! wallet-splitting discussion), `timeline` (payment/population trends),
//! `synth` (history generation only, for benchmarking the pipeline itself)
//! and `check` (the `ripple-check` correctness harness: differential models
//! plus invariant oracles, `--budget-secs` wall-clock budget, `--ops`
//! operations per generated case); and `node`, `store` and `liquidity`,
//! which build their own input and run only when named. `all` (the
//! default) runs every other row: first the studies that need no payment
//! history, then `fig3` alone (it prints its own wall-clock timings), then
//! the remaining history-backed studies concurrently over the shared
//! payment arena, their reports printed in table order.
//!
//! `check` exits non-zero on any divergence and writes the shrunk,
//! replayable counterexample to `CHECK_CASE.json`; `check replay FILE`
//! re-executes such a document and fails unless the recorded divergence
//! reproduces byte-for-byte (see EXPERIMENTS.md "Correctness harness").
//!
//! History generation runs through the pipelined generator (`--workers`
//! scripting threads, `--chunk` payments per chunk) and writes its stage
//! timings to `BENCH_synth.json` (see EXPERIMENTS.md for the schema).
//!
//! `node` spawns a live cluster of `--validators` real `ripple-node`
//! processes on loopback TCP, executes a fault plan as OS actions
//! (`kill -9`, socket-level partitions, restarts with state resync;
//! `--plan FILE` for a custom schedule, `--round-ms` for the wall-clock
//! round length, `--rounds` defaulting to 12 here and to 5,000 for `fig2`),
//! checks the no-fork invariant on the wire-reassembled rounds, and writes
//! `BENCH_node.json` (see EXPERIMENTS.md §E16 for the schema and the
//! plan-file grammar).
//!
//! `store` encodes a freshly generated history to an archive, builds the
//! `PostingsIndex` sidecar over it with `QueryEngine::open` and prints the
//! build report; `--serve ADDR` then binds the HTTP/JSON API on `ADDR` (the
//! bound address is echoed to `STORE_HTTP_ADDR.txt`) for `--serve-secs`
//! seconds (see EXPERIMENTS.md §E17 for the endpoint table). Lookup
//! throughput is measured by the benchmark's `archive_serve` workload.
//!
//! `liquidity` runs the credit-network liquidity suite at
//! `--payments`-matched account scale: redeemability and health metrics,
//! the gateway insolvency cascade, the trust-line drain curve, and the
//! Market-Maker exit waves, with the capacity-aware router benchmarked
//! against the brute-force max-flow oracle on a sample of the same probe
//! stream. Writes `BENCH_liquidity.json` (see EXPERIMENTS.md §E18 for the
//! schema).
//!
//! `--metrics PATH` enables the `ripple-obs` metrics registry and writes a
//! schema-versioned `RUN_METRICS.json`-style snapshot to `PATH` on exit;
//! `--trace PATH` additionally records spans and writes a
//! `chrome://tracing`-loadable trace-event file (see EXPERIMENTS.md
//! "Observability").
//!
//! An unknown flag or experiment, a missing or unparsable flag value and an
//! unreadable or invalid `--plan` file print a message and exit 2.

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
use ripple_core::node::ClusterConfig;
use ripple_core::query;
use ripple_core::{
    run_liquidity, CollectionPeriod, Currency, EngineConfig, Generator, LiquidityConfig,
    PipelineConfig, ResolutionSpec, Study, SynthBench, SynthConfig,
};

/// What a study reads, which decides where `all` runs it.
enum Input {
    /// No shared history: the study needs none, or builds its own input.
    Args(fn(&Args)),
    /// The shared history, read alone because the study prints its own
    /// wall-clock timings.
    Timed(fn(&Study, &Args)),
    /// The shared history, read only: under `all` these studies run
    /// concurrently and their reports print in table order.
    Shared(fn(&Study) -> String),
}

/// One row of [`STUDIES`].
struct Entry {
    name: &'static str,
    /// Whether `experiments all` runs it.
    all: bool,
    input: Input,
}

const fn row(name: &'static str, all: bool, input: Input) -> Entry {
    Entry { name, all, input }
}

/// Every study, in presentation order: the paper's tables and figures, the
/// extensions, and last the studies that build their own input — `node`
/// forks a live cluster, `store` encodes and indexes its own archive,
/// `liquidity` scales the account population to the payment count and runs
/// the max-flow oracle — which run only when asked for by name.
const STUDIES: &[Entry] = &[
    row("fig2", true, Input::Args(fig2)),
    row("table1", true, Input::Args(table1)),
    row("fig3", true, Input::Timed(fig3)),
    row("fig4", true, Input::Shared(fig4)),
    row("fig5", true, Input::Shared(fig5)),
    row("fig6a", true, Input::Shared(fig6a)),
    row("fig6b", true, Input::Shared(fig6b)),
    row("table2", true, Input::Shared(table2)),
    row("fig7", true, Input::Shared(fig7)),
    row("offers", true, Input::Shared(offers)),
    row("rewards", true, Input::Args(rewards)),
    row("unl", true, Input::Args(unl)),
    row("countermeasure", true, Input::Shared(countermeasure)),
    row("timeline", true, Input::Shared(timeline)),
    row("synth", true, Input::Shared(synth)),
    row("check", true, Input::Args(check)),
    row("node", false, Input::Args(node)),
    row("store", false, Input::Args(store)),
    row("liquidity", false, Input::Args(liquidity)),
];

struct Args {
    experiment: String,
    payments: usize,
    seed: u64,
    /// `--rounds`; `fig2` and `node` each default it themselves.
    rounds: Option<u64>,
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
    serve: Option<String>,
    serve_secs: u64,
}

/// Trace-ring events `--trace` keeps: room for a whole `all` run (186k-267k
/// spans measured), so the exported file starts at the first study. A full
/// ring is 2^19 events of 96 bytes, 48 MiB.
const TRACE_CAPACITY: usize = 1 << 19;

/// `fig2`'s consensus rounds per collection period without `--rounds`.
const FIG2_ROUNDS: u64 = 5_000;

/// `node`'s wall-clock rounds without `--rounds`.
const NODE_ROUNDS: u64 = 12;

const USAGE: &str = "usage: experiments [EXPERIMENT] [flags] or experiments check replay FILE";

/// Prints `message` and the usage line, then exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}; {USAGE}");
    std::process::exit(2);
}

/// Prints `message`, then exits 1: the run could not finish.
fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// The value following `flag`, parsed; a missing or unparsable one is a
/// usage error.
fn flag_value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> T {
    match argv.next().and_then(|value| value.parse().ok()) {
        Some(value) => value,
        None => usage_error(&format!("{flag} needs {what}")),
    }
}

/// `all` followed by every row of [`STUDIES`], as the unknown-experiment
/// message lists them.
fn valid_experiments() -> String {
    let names: Vec<&str> = STUDIES.iter().map(|e| e.name).collect();
    format!("all, {}", names.join(", "))
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        experiment: "all".to_string(),
        payments: 100_000,
        seed: 20130101,
        rounds: None,
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
        serve: None,
        serve_secs: 0,
    };
    let number = "a number";
    let mut positionals: Vec<String> = Vec::new();
    while let Some(arg) = argv.next() {
        let (argv, flag) = (&mut argv, arg.as_str());
        match flag {
            "--payments" => args.payments = flag_value(argv, flag, number),
            "--seed" => args.seed = flag_value(argv, flag, number),
            "--rounds" => args.rounds = Some(flag_value(argv, flag, number)),
            "--shards" => args.shards = flag_value(argv, flag, number),
            "--workers" => args.workers = flag_value(argv, flag, number),
            "--chunk" => args.chunk = flag_value(argv, flag, number),
            "--archive" => args.archive = true,
            "--budget-secs" => args.budget_secs = flag_value(argv, flag, number),
            "--ops" => args.ops = flag_value(argv, flag, number),
            "--trace" => args.trace = Some(flag_value(argv, flag, "a path")),
            "--metrics" => args.metrics = Some(flag_value(argv, flag, "a path")),
            "--validators" => args.validators = flag_value(argv, flag, number),
            "--round-ms" => args.round_ms = flag_value(argv, flag, number),
            "--plan" => args.plan = Some(flag_value(argv, flag, "a path")),
            "--no-admin" => args.no_admin = true,
            "--serve" => args.serve = Some(flag_value(argv, flag, "an address")),
            "--serve-secs" => args.serve_secs = flag_value(argv, flag, number),
            other if !other.starts_with('-') => positionals.push(other.to_string()),
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    match positionals.as_slice() {
        [] => {}
        [name] => args.experiment = name.clone(),
        [cmd, sub, path] if cmd == "check" && sub == "replay" => {
            args.experiment = "check".to_string();
            args.replay = Some(path.clone());
        }
        other => usage_error(&format!("unexpected arguments {other:?}")),
    }
    if args.experiment != "all" && !STUDIES.iter().any(|e| e.name == args.experiment) {
        eprintln!(
            "unknown experiment `{}`; valid: {}",
            args.experiment,
            valid_experiments()
        );
        std::process::exit(2);
    }
    args
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    if let Some(path) = &args.replay {
        check_replay(path);
        return;
    }
    if args.metrics.is_some() || args.trace.is_some() {
        metrics::set_enabled(true);
    }
    if args.trace.is_some() {
        trace::enable(TRACE_CAPACITY);
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

/// The rows `experiment` names: one row, or under `all` every row marked
/// for it, in table order.
fn chosen(experiment: &str) -> Vec<&'static Entry> {
    STUDIES
        .iter()
        .filter(|e| e.name == experiment || (experiment == "all" && e.all))
        .collect()
}

fn run_experiments(args: &Args) {
    let chosen = chosen(&args.experiment);
    for entry in &chosen {
        if let Input::Args(run) = entry.input {
            run(args);
        }
    }
    if chosen.iter().all(|e| matches!(e.input, Input::Args(_))) {
        return;
    }
    let study = generate_history(args);
    for entry in &chosen {
        if let Input::Timed(run) = entry.input {
            run(&study, args);
        }
    }
    let jobs: Vec<fn(&Study) -> String> = chosen
        .iter()
        .filter_map(|e| match e.input {
            Input::Shared(job) => Some(job),
            _ => None,
        })
        .collect();
    let study = &study;
    let reports: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&job| s.spawn(move || job(study)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    for report in reports {
        print!("{report}");
    }
}

/// Generates the history the `Timed` and `Shared` studies read, and writes
/// the generation's stage timings to `BENCH_synth.json`.
fn generate_history(args: &Args) -> Study {
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
    let mut run = Generator::new(config)
        .run_pipelined(&pipeline)
        .unwrap_or_else(|err| fail(&format!("pipelined generation failed: {err}")));
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
    study
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

/// `synth` measures the generation itself, which [`generate_history`]
/// reports; once the history exists there is nothing left to print.
fn synth(_: &Study) -> String {
    String::new()
}

/// `experiments liquidity`: the E18 credit-network liquidity suite.
/// Generates a history whose account population is scaled to the payment
/// count, runs the scenario campaigns through the capacity-aware router,
/// benchmarks the router against the sparse max-flow oracle on a sample
/// of the same probe stream, and writes `BENCH_liquidity.json`.
fn liquidity(args: &Args) {
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
    let output = Generator::new(config)
        .run_pipelined(&pipeline)
        .unwrap_or_else(|err| fail(&format!("pipelined generation failed: {err}")))
        .output;

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

/// `experiments store`: encode a generated history to an archive, build
/// its postings sidecar with `QueryEngine::open`, print the build report
/// and, with `--serve ADDR`, serve the HTTP/JSON API for `--serve-secs`
/// seconds (EXPERIMENTS.md §E17).
fn store(args: &Args) {
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
        .unwrap_or_else(|err| fail(&format!("archive encode failed: {err}")));
    let encode_secs = t.elapsed().as_secs_f64();
    println!(
        "archive: {records} records, {} bytes (generate {generate_secs:.3}s, \
         encode {encode_secs:.3}s)",
        archive.len()
    );
    drop(out);

    let (engine, build) = query::QueryEngine::open(archive, &query::EngineConfig::default())
        .unwrap_or_else(|err| fail(&format!("query engine open failed: {err}")));
    println!(
        "index: {} records, {} accounts, {} flow classes, {} blocks of {} records, \
         {} sidecar bytes in {:.3}s ({} bytes skipped, {} corrupt regions)",
        build.records,
        build.accounts,
        build.flow_classes,
        build.blocks,
        engine.postings().block_records(),
        build.sidecar_bytes,
        build.build_secs,
        build.skipped_bytes,
        build.corrupt_regions
    );

    // Optional serving window so CI (or a human with curl) can hit the
    // HTTP API of the archive just indexed.
    let Some(addr) = &args.serve else {
        return;
    };
    let server = query::serve(std::sync::Arc::new(engine), addr)
        .unwrap_or_else(|err| fail(&format!("could not serve on {addr}: {err}")));
    let bound = server.addr();
    if let Err(err) = std::fs::write("STORE_HTTP_ADDR.txt", format!("{bound}\n")) {
        eprintln!("could not write STORE_HTTP_ADDR.txt: {err}");
    }
    eprintln!("serving http on {bound} for {}s ...", args.serve_secs);
    std::thread::sleep(std::time::Duration::from_secs(args.serve_secs));
    server.shutdown();
}

fn fig2(args: &Args) {
    let rounds = args.rounds.unwrap_or(FIG2_ROUNDS);
    println!("== Figure 2: pages signed by validators (total vs valid) ==");
    println!("   ({rounds} consensus rounds per period; the paper's captures span ~250k)\n");
    let periods = CollectionPeriod::run_all(rounds, args.seed);
    for (period, report) in &periods {
        println!("-- {} --", period.name());
        print!("{}", report.to_table());
        let active = report.active(0.5).len();
        println!(
            "observed validators: {} | active (>=50% of best): {} | never-valid: {}\n",
            report.observed(),
            active,
            report.never_valid().len()
        );
    }
    let refs: Vec<&ripple_core::ValidatorReport> =
        periods.iter().map(|(_, report)| report).collect();
    println!(
        "persistent active contributors across all periods: {} (paper: 9)",
        persistent_actives(&refs, 0.0).len()
    );
    println!(
        "distinct validators seen across periods: {} (paper: 70)\n",
        total_observed(&refs)
    );
}

fn table1(_: &Args) {
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

fn rewards(_: &Args) {
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

fn unl(_: &Args) {
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

/// The cluster `experiments node` launches: `--validators` processes for
/// `--rounds` (default [`NODE_ROUNDS`]) rounds of `--round-ms`, under the
/// `--plan` file or, without one, a plan that kills one validator
/// mid-round, restarts it, then runs a partition/heal cycle — the full
/// robustness tour.
fn node_config(args: &Args) -> Result<ClusterConfig, String> {
    use ripple_core::netsim::live::parse_plan;
    use ripple_core::netsim::{FaultPlan, NodeId, SimTime};

    let n = args.validators.max(2);
    let plan = match &args.plan {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|err| format!("could not read --plan {path}: {err}"))?;
            parse_plan(&text).map_err(|err| format!("bad --plan {path}: {err}"))?
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
    Ok(ClusterConfig {
        validators: n,
        rounds: args.rounds.unwrap_or(NODE_ROUNDS),
        round_ms: args.round_ms,
        seed: args.seed,
        plan,
        sim_round_ms: args.round_ms,
        bin: None,
        instrument: !args.no_admin,
        flight_dir: None,
    })
}

/// `experiments node`: a live cluster of real `ripple-node` processes on
/// loopback TCP, with the fault plan executed as OS actions. Writes
/// `BENCH_node.json` (schema in EXPERIMENTS.md §E16).
fn node(args: &Args) {
    use ripple_core::node::run_cluster;

    println!("== Live cluster: networked validators under OS-level faults ==\n");
    let cfg = node_config(args).unwrap_or_else(|err| usage_error(&err));
    println!(
        "{} validators, {} rounds of {}ms ({} plan events)\n",
        cfg.validators,
        cfg.rounds,
        cfg.round_ms,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        parse_args(argv.iter().map(|arg| arg.to_string()))
    }

    fn names(rows: &[&Entry], kind: fn(&Input) -> bool) -> Vec<&'static str> {
        rows.iter()
            .filter(|e| kind(&e.input))
            .map(|e| e.name)
            .collect()
    }

    #[test]
    fn node_runs_the_rounds_it_is_given() {
        let rounds = |argv: &[&str]| node_config(&parse(argv)).map(|cfg| cfg.rounds);
        assert_eq!(rounds(&["node"]), Ok(NODE_ROUNDS));
        // `fig2`'s default, given explicitly, is still what `node` runs.
        assert_eq!(rounds(&["node", "--rounds", "5000"]), Ok(5_000));
        assert_eq!(rounds(&["node", "--rounds", "3"]), Ok(3));
        assert_eq!(parse(&["fig2"]).rounds, None);
        assert_eq!(parse(&["fig2", "--rounds", "200"]).rounds, Some(200));
    }

    #[test]
    fn an_unreadable_plan_is_an_error() {
        let args = parse(&["node", "--plan", "/nonexistent/plan.txt"]);
        let err = node_config(&args).map(|_| ()).unwrap_err();
        assert!(err.starts_with("could not read --plan"), "{err}");
    }

    #[test]
    fn an_invalid_plan_is_an_error() {
        let path = std::env::temp_dir().join(format!("bad_plan_{}.txt", std::process::id()));
        std::fs::write(&path, "heal_at 10\nloss_burst 900 500 0.3\n").expect("write plan");
        let args = parse(&["node", "--plan", path.to_str().expect("utf-8 path")]);
        let err = node_config(&args).map(|_| ()).unwrap_err();
        let _ = std::fs::remove_file(&path);
        assert!(err.starts_with("bad --plan"), "{err}");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn all_keeps_its_order_and_leaves_out_the_self_contained_studies() {
        let all = chosen("all");
        assert_eq!(
            names(&all, |i| matches!(i, Input::Args(_))),
            ["fig2", "table1", "rewards", "unl", "check"]
        );
        assert_eq!(names(&all, |i| matches!(i, Input::Timed(_))), ["fig3"]);
        assert_eq!(
            names(&all, |i| matches!(i, Input::Shared(_))),
            [
                "fig4",
                "fig5",
                "fig6a",
                "fig6b",
                "table2",
                "fig7",
                "offers",
                "countermeasure",
                "timeline",
                "synth"
            ]
        );
        for name in ["node", "store", "liquidity"] {
            assert_eq!(names(&chosen(name), |_| true), [name]);
        }
    }

    #[test]
    fn every_study_name_is_listed_once() {
        let listed = valid_experiments();
        let mut names: Vec<&str> = listed.split(", ").collect();
        assert_eq!(names.len(), STUDIES.len() + 1);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STUDIES.len() + 1, "{listed}");
    }
}
