//! Command-line behaviour of the `experiments` binary outside the
//! matrix itself: a reader that closes stdout early, and the
//! `--record` option's required value.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // The quick matrix prints about 80 KB, more than a pipe buffers, so
    // once the reader is gone the binary's next write meets EPIPE.
    let mut child = Command::new(bin())
        .arg("--quick")
        .env_remove("SPINDLE_FAULTS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments binary");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("read the first line");
    assert!(!first.is_empty(), "the run printed nothing");
    drop(reader);
    let out = child.wait_with_output().expect("wait for experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn bare_record_is_a_usage_error() {
    let out = Command::new(bin())
        .args(["--quick", "--record"])
        .env_remove("SPINDLE_FAULTS")
        .output()
        .expect("spawn experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("option --record needs a value"), "{stderr}");
    assert!(stderr.contains("usage: experiments"), "{stderr}");
}
