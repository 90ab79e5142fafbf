//! Checkpoint/resume for the experiment matrix, exercised through the
//! real `experiments` binary: a run killed mid-matrix by an injected
//! `kill@N` fault must, after `--resume`, re-run only the incomplete
//! experiments and produce stdout byte-identical to an uninterrupted
//! run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Exit status the binary uses for an injected kill (looks like
/// SIGKILL, so resume exercises the real path).
const KILL_STATUS: i32 = 137;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_experiments")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove("SPINDLE_FAULTS")
        .output()
        .expect("spawn experiments binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

/// A scratch path unique to this test process and tag. It sits in a
/// directory of its own, which goes, with everything the test wrote
/// next to the path, when the handle drops.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

fn journal_path(tag: &str) -> Scratch {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("spindle-resume-{pid}-{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir.join(format!("{tag}.jsonl")))
}

#[test]
fn killed_run_resumes_to_byte_identical_output() {
    let journal = journal_path("kill-resume");
    let _ = std::fs::remove_file(&journal);
    let journal = journal.to_str().unwrap();

    // Uninterrupted baseline.
    let baseline = run(&["--quick", "t1", "t2", "t3"]);
    assert!(baseline.status.success(), "baseline: {}", stderr(&baseline));
    let expected = stdout(&baseline);
    assert!(!expected.is_empty());

    // Journaled run, killed right after the second completion record
    // reaches the disk.
    let killed = run(&[
        "--quick", "--resume", journal, "--faults", "kill@1", "t1", "t2", "t3",
    ]);
    assert_eq!(
        killed.status.code(),
        Some(KILL_STATUS),
        "expected the injected kill: {}",
        stderr(&killed)
    );

    // Resume: replays the two journaled experiments, runs only the
    // third, and reproduces the uninterrupted stdout byte for byte.
    let resumed = run(&["--quick", "--resume", journal, "t1", "t2", "t3"]);
    assert!(resumed.status.success(), "resume: {}", stderr(&resumed));
    assert_eq!(
        stdout(&resumed),
        expected,
        "resumed stdout diverged from the uninterrupted run"
    );
    assert!(
        stderr(&resumed).contains("2 of 3 experiments already journaled, running 1"),
        "resume accounting missing: {}",
        stderr(&resumed)
    );

    // A second resume finds everything journaled and re-runs nothing,
    // still reproducing the same stdout.
    let replay = run(&["--quick", "--resume", journal, "t1", "t2", "t3"]);
    assert!(replay.status.success(), "replay: {}", stderr(&replay));
    assert_eq!(stdout(&replay), expected);
    assert!(
        stderr(&replay).contains("3 of 3 experiments already journaled, running 0"),
        "replay accounting missing: {}",
        stderr(&replay)
    );
}

#[test]
fn quarantined_experiment_is_retried_on_resume() {
    let journal = journal_path("retry-failed");
    let _ = std::fs::remove_file(&journal);
    let journal = journal.to_str().unwrap();

    let baseline = run(&["--quick", "t1", "t2"]);
    assert!(baseline.status.success());
    let expected = stdout(&baseline);

    // First attempt: t2 (ordinal 1) panics and is journaled as failed.
    let faulted = run(&[
        "--quick", "--resume", journal, "--faults", "panic@1", "t1", "t2",
    ]);
    assert_eq!(faulted.status.code(), Some(1));
    assert!(
        stderr(&faulted).contains("t2 FAILED"),
        "quarantine report missing: {}",
        stderr(&faulted)
    );

    // Resume: the failed experiment is re-run (failed journal entries
    // never count as complete), and the output now matches a clean run.
    let resumed = run(&["--quick", "--resume", journal, "t1", "t2"]);
    assert!(resumed.status.success(), "resume: {}", stderr(&resumed));
    assert_eq!(stdout(&resumed), expected);
    assert!(
        stderr(&resumed).contains("1 of 2 experiments already journaled, running 1"),
        "only t2 should re-run: {}",
        stderr(&resumed)
    );
}

#[test]
fn mismatched_journal_fingerprint_refuses_to_resume() {
    let journal = journal_path("fingerprint");
    let _ = std::fs::remove_file(&journal);
    let journal = journal.to_str().unwrap();

    let first = run(&["--quick", "--resume", journal, "t1"]);
    assert!(first.status.success(), "first run: {}", stderr(&first));

    // Same journal, different config fingerprint (paper scale instead
    // of --quick): resuming would mix incompatible outputs.
    let clash = run(&["--resume", journal, "t1"]);
    assert_eq!(clash.status.code(), Some(2));
    assert!(
        stderr(&clash).contains("cannot resume"),
        "fingerprint clash not reported: {}",
        stderr(&clash)
    );
}
