//! Command-line behaviour of the `experiments` binary outside the
//! matrix itself: a reader that closes stdout early, usage errors for
//! unknown flags, missing option values and repeated experiment ids,
//! `--quiet`, and the phase
//! spans a `--metrics` dump attributes the pass to.

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
fn unknown_record_flag_and_bare_resume_are_usage_errors() {
    let usage_error = |args: &[&str], expect: &str| {
        let out = Command::new(bin())
            .args(args)
            .env_remove("SPINDLE_FAULTS")
            .output()
            .expect("spawn experiments binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
    };
    usage_error(
        &["--quick", "--record", "x", "t1"],
        "unknown flag `--record`",
    );
    usage_error(&["--quick", "--resume"], "option --resume needs a value");
}

#[test]
fn repeated_experiment_id_is_a_usage_error() {
    // Ids are case-insensitive, so `T1 t1` repeats t1 as well.
    for args in [["--quick", "t1", "t1"], ["--quick", "T1", "t1"]] {
        let out = Command::new(bin())
            .args(args)
            .env_remove("SPINDLE_FAULTS")
            .output()
            .expect("spawn experiments binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("experiment `t1` given more than once"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
    }
}

#[test]
fn quiet_run_leaves_stderr_empty() {
    let out = Command::new(bin())
        .args(["--quick", "--quiet", "t1"])
        .env_remove("SPINDLE_FAULTS")
        .output()
        .expect("spawn experiments binary");
    assert_eq!(out.status.code(), Some(0));
    assert!(!out.stdout.is_empty(), "t1 printed nothing");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "",
        "--quiet wrote to stderr"
    );
}

#[test]
fn metrics_attribute_inputs_and_render() {
    let out = Command::new(bin())
        .args(["--quick", "--metrics=json", "t2", "f2"])
        .env_remove("SPINDLE_FAULTS")
        .output()
        .expect("spawn experiments binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let dump = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no JSON metrics dump on stderr:\n{stderr}"));
    let doc = spindle_obs::json::parse(dump).expect("metrics dump parses");
    let spans = doc.get("spans").expect("dump has spans");
    let count = |name: &str| {
        spans
            .get(name)
            .and_then(|s| s.get("count"))
            .and_then(spindle_obs::json::Json::as_u64)
            .unwrap_or_else(|| panic!("span {name} missing: {dump}"))
    };
    // t2 and f2 read the same four runs: each stream and run is built
    // once, and each experiment renders once.
    assert_eq!(count("matrix.input.stream"), 4);
    assert_eq!(count("matrix.input.env_run"), 4);
    assert_eq!(count("matrix.render"), 2);
}
