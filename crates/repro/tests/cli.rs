//! The `repro` binary's argument handling, driven as a subprocess. Only
//! commands that exit before any simulation runs are exercised here, so the
//! test stays fast: help, the experiment index and the usage-error paths.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A usage error: exit status 2, the message and the usage text on stderr.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(message), "{args:?}: {err}");
    assert!(err.contains("usage: repro"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn help_exits_zero_and_points_at_list() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let text = stdout(&out);
        assert!(text.starts_with("usage: repro"), "{text}");
        assert!(text.contains("`repro list`"), "{text}");
    }
}

#[test]
fn list_prints_every_experiment_id() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = repro::cli::EXPERIMENTS
        .iter()
        .map(|(id, _, _)| *id)
        .collect();
    assert_eq!(ids, expected);
}

#[test]
fn unknown_experiments_are_usage_errors() {
    assert_usage_error(&["bench"], "unknown experiment: bench");
    assert_usage_error(&["tabel3"], "did you mean `table3`?");
}

#[test]
fn malformed_invocations_are_usage_errors() {
    assert_usage_error(&["fig17", "--jobs", "0"], "invalid --jobs value");
    assert_usage_error(&["record", "fig17"], "record requires --out DIR");
    assert_usage_error(&["analyze"], "analyze requires a bundle directory");
    assert_usage_error(&["fig17", "fig18"], "unexpected extra argument: fig18");
    assert_usage_error(&["--frobnicate"], "unknown flag: --frobnicate");
}
