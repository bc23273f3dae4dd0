//! `bench run` and `bench agree`: each workload in its own child process,
//! one table of every end-to-end metric by name, a result document with a
//! common header, and the append-only `HISTORY.jsonl` trajectory.

use std::io::Write as _;
use std::process::Command;

use crate::calls::json::{self, Value};
use crate::harness::bench_dir;
use crate::jsonw::{compact, int, obj, text};
use crate::schema::{schema, Better, Metric, FAILED_SHARE, WORKLOAD_END_TO_END};

/// Options shared by `run` and `agree`.
#[derive(Debug, Clone)]
pub struct SetOpts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// One child run of one workload, as parsed from its last two lines.
pub struct ChildResult {
    pub workload: &'static str,
    pub wall_s: f64,
    pub detail: Value,
    pub result: Value,
}

impl ChildResult {
    fn failed_share(&self) -> f64 {
        self.detail
            .get(FAILED_SHARE)
            .and_then(Value::as_f64)
            .unwrap_or(1.0)
    }

    /// An end-to-end figure by its `run`/`agree` name, if this workload
    /// reports it.
    fn end_to_end(&self, name: &str) -> Option<f64> {
        let from_result = self
            .result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        from_result.or_else(|| self.detail.get(name).and_then(Value::as_f64))
    }
}

/// Runs one workload in a child process of this same binary.
fn run_child(workload: &'static str, opts: &SetOpts, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let started = std::time::Instant::now();
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("no result line")?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("no detail line")?;
    Ok(ChildResult {
        workload,
        wall_s,
        detail: json::parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?,
        result: json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?,
    })
}

/// Runs all five workloads, one child process each, in order.
fn run_set(opts: &SetOpts, trace: bool) -> Result<Vec<ChildResult>, String> {
    schema()
        .workloads
        .iter()
        .map(|w| run_child(w, opts, trace))
        .collect()
}

/// Every end-to-end metric `run` and `agree` report, with the workloads
/// it applies to.
fn end_to_end_metrics() -> Vec<(Metric, Option<&'static str>)> {
    schema()
        .end_to_end
        .iter()
        .map(|m| (*m, None))
        .chain(WORKLOAD_END_TO_END.iter().map(|(m, w, _)| (*m, Some(*w))))
        .collect()
}

fn print_table(set: &[ChildResult]) {
    println!("\n== end-to-end, tracing off ==");
    print!("{:<28} {:<6}", "metric", "unit");
    for r in set {
        print!(" {:>15}", r.workload);
    }
    println!();
    let cell = |v: Option<f64>| v.map_or_else(|| format!("{:>15}", "-"), |v| format!("{v:>15.4}"));
    for (m, only) in end_to_end_metrics() {
        print!("{:<28} {:<6}", m.name, m.unit);
        for r in set {
            let applies = only.is_none_or(|w| w == r.workload);
            print!(" {}", cell(applies.then(|| r.end_to_end(m.name)).flatten()));
        }
        println!();
    }
    print!("{FAILED_SHARE:<28} {:<6}", "share");
    for r in set {
        print!(" {}", cell(Some(r.failed_share())));
    }
    println!();
    print!("{:<28} {:<6}", "run_wall", "s");
    for r in set {
        print!(" {}", cell(Some(r.wall_s)));
    }
    println!(
        "\nfull set: {:.1} s",
        set.iter().map(|r| r.wall_s).sum::<f64>()
    );
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result document: common header, then per workload the untraced
/// run's detail and metrics and the traced run's per-layer metrics.
fn document(opts: &SetOpts, untraced: &[ChildResult], traced: &[ChildResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let workloads = untraced.iter().map(|r| {
        let metrics = |r: &ChildResult| r.result.get("metrics").cloned().unwrap_or(Value::Null);
        let mut fields = vec![
            ("run_wall_s", Value::Float(r.wall_s)),
            ("detail", r.detail.clone()),
            ("end_to_end", metrics(r)),
        ];
        // Only the layers the workload exercises; the rest read 0.
        if let Some(t) = traced.iter().find(|t| t.workload == r.workload) {
            let exercised = metrics(t)
                .as_obj()
                .unwrap_or_default()
                .iter()
                .filter(|(_, m)| m.get("value").and_then(Value::as_f64) != Some(0.0))
                .cloned()
                .collect();
            fields.push(("per_layer", Value::Obj(exercised)));
        }
        (r.workload, obj(fields))
    });
    compact(&obj([
        (
            "git_rev",
            text(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", text(&tool_line("rustc", &["--version"]))),
        ("nproc", int(nproc as u64)),
        ("seed", int(opts.seed)),
        ("seconds", Value::Float(opts.seconds)),
        ("smoke", Value::Bool(opts.smoke)),
        ("unix_time", int(unix_time)),
        ("workloads", obj(workloads)),
    ]))
}

/// `bench run`: the untraced set, then the traced set; prints the table,
/// writes the result document and appends it to `HISTORY.jsonl`.
pub fn run_cmd(opts: &SetOpts) -> Result<bool, String> {
    let untraced = run_set(opts, false)?;
    let traced = run_set(opts, true)?;
    print_table(&untraced);

    let doc = document(opts, &untraced, &traced);
    let dir = bench_dir();
    let result_path = dir.join("out").join("RESULT.json");
    let _ = std::fs::create_dir_all(dir.join("out"));
    let history_path = dir.join("HISTORY.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| writeln!(f, "{doc}"));
    let written = std::fs::write(&result_path, format!("{doc}\n"));
    for (what, path, res) in [
        ("wrote", &result_path, written),
        ("appended to", &history_path, appended),
    ] {
        match res {
            Ok(()) => eprintln!("{what} {}", path.display()),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
    }
    Ok(untraced
        .iter()
        .chain(&traced)
        .all(|r| r.failed_share() == 0.0))
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(1e-12);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// `bench agree`: two full untraced sets of the same build must agree on
/// every end-to-end metric within its bound, in both directions, and
/// seed 7 must run clean.
pub fn agree_cmd(opts: &SetOpts) -> Result<bool, String> {
    let sets = [run_set(opts, false)?, run_set(opts, false)?];
    let other_seed = SetOpts {
        seed: 7,
        ..opts.clone()
    };
    let seed7 = run_set(&other_seed, false)?;

    let mut disagreements = 0;
    println!(
        "\n== agree: two sets of the same build, seed {} ==",
        opts.seed
    );
    println!(
        "{:<15} {:<28} {:>15} {:>15} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for (m, only) in end_to_end_metrics() {
            if only.is_some_and(|w| w != a.workload) {
                continue;
            }
            let (Some(x), Some(y)) = (a.end_to_end(m.name), b.end_to_end(m.name)) else {
                println!("{:<15} {:<28} missing", a.workload, m.name);
                disagreements += 1;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let differ = worse_by(m.better, x, y).abs();
            // Set-up times of a fraction of a second differ by scheduling
            // noise alone; they count only past a quarter second as well.
            let small_setup = m.name == "setup_s" && (x - y).abs() <= 0.25;
            let ok = differ <= bound || small_setup;
            if !ok {
                disagreements += 1;
            }
            println!(
                "{:<15} {:<28} {x:>15.4} {y:>15.4} {:>8.2}% {:>6.1}%  {}",
                a.workload,
                m.name,
                differ * 100.0,
                bound * 100.0,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    for (label, set) in [
        ("first", &sets[0]),
        ("second", &sets[1]),
        ("seed 7", &seed7),
    ] {
        for r in set.iter() {
            let share = r.failed_share();
            if share != 0.0 {
                disagreements += 1;
                println!(
                    "{:<15} {FAILED_SHARE} = {share} on the {label} set",
                    r.workload
                );
            }
        }
    }
    println!(
        "{}",
        if disagreements == 0 {
            "agree: every end-to-end metric within its bound; failed_share 0 on both seeds"
        } else {
            "agree: FAILED"
        }
    );
    Ok(disagreements == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 10.0, 12.0) < 0.0);
    }
}
