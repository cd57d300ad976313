//! The `figures` command line rejects what it does not understand: each bad
//! invocation prints the usage to stderr and exits with status 2 before
//! rendering anything.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("figures binary runs")
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    let bad: [&[&str]; 10] = [
        &["--bogus", "table1"],
        &["table1", "fig99"],
        &["--jobs", "abc", "table1"],
        &["--jobs", "0", "table1"],
        &["--jobs=", "table1"],
        &["table1", "--jobs"],
        &["table1", "--trace-out"],
        &["table1", "--scenario"],
        &["--scenario", "nope"],
        &["--quick=1", "table1"],
    ];
    for args in bad {
        let output = figures(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
    }
}

#[test]
fn quick_table1_succeeds() {
    let output = figures(&["--quick", "--no-timing", "table1"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Table 1"), "{stdout}");
    assert!(!stdout.contains("generated in"), "{stdout}");
}
