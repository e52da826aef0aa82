//! `figures` accepts only its section flags, `--all` and `--quick`:
//! anything else prints `error: …` and the usage and exits 2, rather
//! than falling back to the full multi-minute `--all` run.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

#[test]
fn unknown_flags_are_usage_errors() {
    for args in [
        &["--pipeline"][..],
        &["--attribution"],
        &["--durability"],
        &["--bogus"],
        &["--table5", "--quick", "--bogus"],
        &["table5"],
    ] {
        let out = figures(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains("error: "), "{args:?}: stderr:\n{stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a section");
    }
}

#[test]
fn a_known_section_runs() {
    let out = figures(&["--table5"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== Table 5: benchmark characteristics =="));
    assert!(
        !stdout.contains("== Table 6"),
        "--table5 selects one section"
    );
}
