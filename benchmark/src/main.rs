//! The repo's benchmark. Three ways to run it:
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! bench run   [--seed N] [--seconds S] [--smoke]
//! bench agree [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s `command` runs: one workload
//! in this process, a human-readable report, and as the last stdout line
//! one JSON object `{correct, attempted, failed, metrics}` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. `run` executes all five workloads (each in its own child
//! process), untraced then traced, prints every end-to-end metric by name
//! and appends to `HISTORY.jsonl`. `agree` runs two untraced sets of the
//! same build plus seed 7 and exits non-zero if they disagree beyond the
//! bounds. See `README.md`.

mod calls;
mod harness;
mod jsonw;
mod probe;
mod report;
mod schema;
mod stats;
mod trace;
mod workloads;

use harness::Opts;
use report::SetOpts;

/// The seed `run` and `agree` use unless told otherwise.
const DEFAULT_SEED: u64 = 20130101;

fn usage() -> ! {
    eprintln!(
        "usage: bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n       \
         bench run [--seed N] [--seconds S] [--smoke]\n       \
         bench agree [--seed N] [--seconds S] [--smoke]\n\
         workloads: {}",
        schema::schema().workloads.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let command = match args.peek().map(String::as_str) {
        Some("run" | "agree") => args.next(),
        _ => None,
    };
    let (mut workload, mut seed) = (None, DEFAULT_SEED);
    let mut seconds = schema::schema().run_seconds;
    let (mut trace, mut smoke) = (false, false);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value("--seconds").parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
        usage();
    }

    let set = SetOpts {
        seed,
        seconds,
        smoke,
    };
    // Exit 0 only when every run was clean and every comparison held.
    let exit_code = |result: Result<bool, String>| match result {
        Ok(clean) => i32::from(!clean),
        Err(err) => {
            eprintln!("bench: {err}");
            1
        }
    };
    let code = match (command.as_deref(), workload) {
        (Some("run"), None) => exit_code(report::run_cmd(&set)),
        (Some("agree"), None) => exit_code(report::agree_cmd(&set)),
        (None, Some(workload)) => {
            let opts = Opts {
                workload,
                seed,
                seconds,
                trace,
                smoke,
            };
            match workloads::run(&opts) {
                Some(outcome) => {
                    outcome.print();
                    0
                }
                None => usage(),
            }
        }
        _ => usage(),
    };
    std::process::exit(code);
}
