//! Bad flag values are usage errors: out-of-range numbers, unknown
//! policy names and removed flags make both binaries print `error: …`
//! and the usage, and exit 2 — they never reach a builder assert and
//! panic.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs `bin` with `args`, feeding `stdin` to it.
fn run(bin: &str, args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    // The binary may exit before reading its input; a broken pipe here
    // is expected.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes());
    child.wait_with_output().expect("wait for binary")
}

fn assert_usage_error(bin: &str, args: &[&str], stdin: &str) {
    let out = run(bin, args, stdin);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(stderr.contains("error: "), "{args:?}: stderr:\n{stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: stderr:\n{stderr}");
}

#[test]
fn serve_rejects_out_of_range_numbers() {
    for args in [
        &["--threads", "0"][..],
        &["--shards", "0"],
        &["--shards", "65"],
        // Removed: no retry budget exists.
        &["--max-attempts", "3"],
        // A value never starts with `--`: the next flag is not swallowed
        // as an address.
        &["--listen", "--metrics"],
        // Removed: blocks always pipeline.
        &["--mode", "barrier"],
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_janus-serve"), args, "quit\n");
    }
}

/// The one `--mode` value stays accepted: the benchmark passes it.
#[test]
fn serve_still_accepts_mode_pipelined() {
    let out = run(
        env!("CARGO_BIN_EXE_janus-serve"),
        &["--mode", "pipelined"],
        "quit\n",
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("bye commit_seq=0"), "stdout:\n{stdout}");
}

#[test]
fn run_rejects_zero_threads() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_janus-run"),
        &["run", "pmd", "--threads", "0"],
        "",
    );
}

#[test]
fn run_rejects_unknown_and_removed_policy_values() {
    for args in [
        &["--schedule", "bogus"][..],
        &["--detector", "bogus"],
        &["--schedule", "steal"],
        &["--schedule", "backoff"],
        &["--schedule", "affinity"],
        &["--schedule", "fifo"],
        &["--no-steal"],
        &["--degrade-threshold", "0.5"],
        &["--degrade-window", "4"],
        &["--footprints", "shard"],
        &["--max-attempts", "3"],
        // The runtime flags `janus-serve` shares.
        &["--shards", "0"],
        &["--shards", "65"],
        &["--fault-rate", "2"],
        &["--panic-policy", "bogus"],
        &["--watchdog-ms", "x"],
    ] {
        let argv: Vec<&str> = ["run", "pmd", "--scale", "8"]
            .into_iter()
            .chain(args.iter().copied())
            .collect();
        assert_usage_error(env!("CARGO_BIN_EXE_janus-run"), &argv, "");
    }
}
