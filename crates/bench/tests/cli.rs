//! The `experiments` command line: a bad invocation is a usage error —
//! exit 2 and a message — never a panic.

use std::process::Command;

/// Runs `experiments` with `args` and returns its stderr, asserting that
/// it exited 2 without panicking.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn experiments");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn bad_flag_values_exit_2() {
    let cases: [&[&str]; 4] = [
        &["fig2", "--payments", "abc"],
        &["fig2", "--seed"],
        &["node", "--round-ms", "-1"],
        &["node", "--plan", "/nonexistent"],
    ];
    for args in cases {
        usage_error(args);
    }
}

#[test]
fn the_removed_load_flags_are_unknown() {
    for flag in ["--clients", "--mix", "--lookups"] {
        let stderr = usage_error(&["store", flag, "4"]);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

#[test]
fn an_unknown_experiment_lists_the_study_table() {
    let stderr = usage_error(&["fig99"]);
    let listed = stderr.split("valid: ").nth(1).unwrap_or_default().trim();
    assert_eq!(
        listed,
        "all, fig2, table1, fig3, fig4, fig5, fig6a, fig6b, table2, fig7, offers, \
         rewards, unl, countermeasure, timeline, synth, check, node, store, liquidity"
    );
}
