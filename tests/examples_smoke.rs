//! Regression guard for the examples/ binaries: each must keep compiling
//! and exit 0 at smoke scale (`RIPPLE_SMOKE=1`). Examples are the
//! workspace's documentation of record — a broken one is a broken doc.

use std::process::Command;

/// Runs `cargo run --example <name>` with the smoke knob set and asserts a
/// clean exit. Builds share the workspace target directory, so after the
/// first example the rest only link.
fn run_example(name: &str) {
    let output = Command::new(env!("CARGO"))
        .args(["run", "--quiet", "--example", name])
        .env("RIPPLE_SMOKE", "1")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to launch cargo for example {name}: {e}"));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty(), "example {name} printed nothing");
}

#[test]
fn quickstart_runs_clean() {
    run_example("quickstart");
}

#[test]
fn latte_attack_runs_clean() {
    run_example("latte_attack");
}

#[test]
fn validator_watch_runs_clean() {
    run_example("validator_watch");
}

#[test]
fn chaos_storm_runs_clean() {
    run_example("chaos_storm");
}

#[test]
fn cluster_kill9_runs_clean() {
    // The example spawns real ripple-node child processes; build the
    // binary first so the run demonstrates the live cluster rather than
    // taking its binary-missing skip path.
    let build = Command::new(env!("CARGO"))
        .args(["build", "--quiet", "-p", "ripple-node"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .expect("failed to launch cargo build for ripple-node");
    assert!(build.success(), "ripple-node failed to build");
    run_example("cluster_kill9");
}
