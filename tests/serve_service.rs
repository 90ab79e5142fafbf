//! End-to-end tests of the simulation-as-a-service daemon through the
//! real `spindle` binary: admission control under concurrency,
//! byte-identical artifacts, kill -9 crash recovery, fault-job
//! quarantine, a DELETE-vs-completion race, supervision (deadlines
//! and retries) over real children, and a 100-client load test.

#![cfg(unix)]

use spindle_obs::json::{self, Json};
use spindle_serve::client;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spindle_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_spindle"))
}

/// The sibling `experiments` binary when the workspace build produced
/// one; matrix jobs need it.
fn experiments_bin() -> Option<PathBuf> {
    let path = spindle_bin().parent()?.join("experiments");
    path.is_file().then_some(path)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spindle-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A live `spindle serve` child plus the address it announced.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn boot(extra: &[&str]) -> Daemon {
        let mut child = Command::new(spindle_bin())
            .arg("serve")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("boot serve daemon");
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = std::io::BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("daemon exited before announcing its address")
                .expect("stderr is utf-8");
            if let Some(addr) = line.strip_prefix("# serving jobs on http://") {
                break addr.to_owned();
            }
        };
        // Keep draining stderr so the child never blocks on the pipe.
        std::thread::spawn(move || for _line in lines {});
        Daemon { child, addr }
    }

    fn get(&self, path: &str) -> client::Response {
        client::request(&self.addr, "GET", path, None).expect("GET against live daemon")
    }

    fn post(&self, path: &str, body: &str) -> client::Response {
        client::request(&self.addr, "POST", path, Some(body)).expect("POST against live daemon")
    }

    fn delete(&self, path: &str) -> client::Response {
        client::request(&self.addr, "DELETE", path, None).expect("DELETE against live daemon")
    }

    /// Submits a job spec, asserting admission, and returns the id.
    fn submit(&self, body: &str) -> String {
        let r = self.post("/jobs", body);
        assert_eq!(r.status, 201, "submit rejected: {}", r.body);
        json::parse(r.body.trim())
            .expect("submit response is JSON")
            .get("id")
            .and_then(Json::as_str)
            .expect("submit response has an id")
            .to_owned()
    }

    /// Polls `/jobs/ID` until the job reaches `state`, returning the
    /// job document. Panics when a different terminal state arrives.
    fn wait_state(&self, id: &str, state: &str) -> Json {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let r = self.get(&format!("/jobs/{id}"));
            assert_eq!(r.status, 200, "job {id} vanished: {}", r.body);
            let doc = json::parse(r.body.trim()).expect("job detail is JSON");
            let now = doc
                .get("state")
                .and_then(Json::as_str)
                .expect("job has a state")
                .to_owned();
            if now == state {
                return doc;
            }
            let terminal = ["done", "failed", "cancelled"];
            assert!(
                !terminal.contains(&now.as_str()),
                "job {id} ended `{now}` while waiting for `{state}`: {}",
                r.body
            );
            assert!(
                Instant::now() < deadline,
                "job {id} stuck in `{now}` waiting for `{state}`"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the same spec through the CLI directly and returns its stdout.
fn direct_stdout(args: &[&str]) -> Vec<u8> {
    let out = Command::new(spindle_bin())
        .args(args)
        .output()
        .expect("run spindle directly");
    assert!(out.status.success(), "direct run failed: {args:?}");
    out.stdout
}

fn generate_spec(span: u64, seed: u64) -> String {
    format!("{{\"kind\":\"generate\",\"env\":\"web\",\"span\":{span},\"seed\":{seed}}}")
}

#[test]
fn full_queue_rejects_concurrent_submits_and_artifacts_match_the_cli() {
    let dir = fresh_dir("admit");
    let daemon = Daemon::boot(&[
        "--queue-bound",
        "4",
        "--parallel",
        "1",
        "--dir",
        dir.to_str().unwrap(),
    ]);

    // A long blocker pins the single runner so the queue can only
    // drain through admission decisions.
    let blocker = daemon.submit(&generate_spec(604_800, 99));
    daemon.wait_state(&blocker, "running");

    // Eight racing submitters against a bound of 4: exactly four fit.
    let workers: Vec<_> = (0..8u64)
        .map(|i| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let seed = 100 + i;
                let r = client::request(&addr, "POST", "/jobs", Some(&generate_spec(5, seed)))
                    .expect("concurrent submit");
                (seed, r)
            })
        })
        .collect();
    let mut accepted: Vec<(u64, String)> = Vec::new();
    let mut rejected = 0;
    for worker in workers {
        let (seed, r) = worker.join().expect("submitter thread");
        match r.status {
            201 => {
                let id = json::parse(r.body.trim())
                    .expect("accept body is JSON")
                    .get("id")
                    .and_then(Json::as_str)
                    .expect("accept body has id")
                    .to_owned();
                accepted.push((seed, id));
            }
            429 => {
                // Structured rejection: Retry-After plus a JSON body.
                let retry: u64 = r
                    .header("retry-after")
                    .expect("429 carries Retry-After")
                    .parse()
                    .expect("Retry-After is integral seconds");
                assert!((1..=60).contains(&retry), "bad Retry-After {retry}");
                let doc = json::parse(r.body.trim()).expect("429 body is JSON");
                assert_eq!(doc.get("error").and_then(Json::as_str), Some("queue full"));
                assert!(doc.get("retry_after_secs").and_then(Json::as_u64).is_some());
                rejected += 1;
            }
            other => panic!("unexpected submit status {other}: {}", r.body),
        }
    }
    assert_eq!(accepted.len(), 4, "bound 4 admits exactly 4");
    assert_eq!(rejected, 4);

    // Cancel the blocker; the queue drains through the single runner.
    let r = daemon.delete(&format!("/jobs/{blocker}"));
    assert_eq!(r.status, 202, "running blocker cancels cooperatively");
    daemon.wait_state(&blocker, "cancelled");

    for (seed, id) in &accepted {
        daemon.wait_state(id, "done");
        let r = daemon.get(&format!("/jobs/{id}/result"));
        assert_eq!(r.status, 200);
        let artifact = daemon.get(&format!("/jobs/{id}/artifacts/stdout.txt"));
        assert_eq!(artifact.status, 200);
        // The service's artifact is byte-identical to running the same
        // spec through the CLI directly.
        let direct = direct_stdout(&[
            "generate",
            "--env",
            "web",
            "--span",
            "5",
            "--seed",
            &seed.to_string(),
        ]);
        assert_eq!(
            artifact.body.as_bytes(),
            &direct[..],
            "artifact for seed {seed} diverges from the CLI"
        );
    }

    let metrics = daemon.get("/metrics");
    assert_eq!(metrics.status, 200);
    for needle in [
        "serve_jobs_accepted 5",
        "serve_jobs_rejected 4",
        "serve_jobs_completed 4",
        "serve_jobs_cancelled 1",
    ] {
        assert!(metrics.body.contains(needle), "missing `{needle}`");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_job_then_resume_completes_byte_identical() {
    let dir = fresh_dir("resume");
    let spec = generate_spec(86_400, 7);
    let first = Daemon::boot(&["--parallel", "1", "--dir", dir.to_str().unwrap()]);
    let id = first.submit(&spec);
    first.wait_state(&id, "running");
    std::thread::sleep(Duration::from_millis(200));
    drop(first); // SIGKILL mid-job: no journal finish record is written.

    // A fresh start on a dir with history must refuse without
    // --resume-dir, pointing at the flag.
    let refused = Command::new(spindle_bin())
        .args(["serve", "127.0.0.1:0", "--dir", dir.to_str().unwrap()])
        .output()
        .expect("run serve against dirty dir");
    assert!(!refused.status.success(), "dirty dir must refuse to serve");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("--resume-dir"),
        "unhelpful refusal: {stderr}"
    );

    let second = Daemon::boot(&["--parallel", "1", "--resume-dir", dir.to_str().unwrap()]);
    let doc = second.wait_state(&id, "done");
    assert_eq!(
        doc.get("readopted"),
        Some(&Json::Bool(true)),
        "resumed job is flagged as re-adopted"
    );
    let artifact = second.get(&format!("/jobs/{id}/artifacts/stdout.txt"));
    assert_eq!(artifact.status, 200);
    let direct = direct_stdout(&["generate", "--env", "web", "--span", "86400", "--seed", "7"]);
    assert_eq!(
        artifact.body.as_bytes(),
        &direct[..],
        "re-run after crash diverges from the CLI"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_jobs_fail_in_quarantine_and_hostile_specs_bounce_while_the_daemon_survives() {
    let dir = fresh_dir("faults");
    let daemon = Daemon::boot(&["--parallel", "1", "--dir", dir.to_str().unwrap()]);

    // Hostile submissions are structured 400s, never daemon crashes.
    for (body, expected) in [
        ("{", "(body)"),
        ("{\"kind\":\"generate\"}", "env"),
        ("{\"kind\":\"generate\",\"env\":\"web\",\"nope\":1}", "nope"),
        (
            "{\"kind\":\"simulate\",\"input\":\"/no/such/file\"}",
            "input",
        ),
    ] {
        let r = daemon.post("/jobs", body);
        assert_eq!(r.status, 400, "hostile body `{body}` got {}", r.status);
        assert!(
            r.body.contains(expected),
            "rejection for `{body}` does not mention `{expected}`: {}",
            r.body
        );
    }

    // A matrix job whose fault plan panics the first task: the panic is
    // quarantined inside the child, the job ends failed, and the
    // daemon keeps serving.
    if experiments_bin().is_some() {
        let r = daemon.post(
            "/jobs",
            "{\"kind\":\"matrix\",\"quick\":true,\"ids\":[\"t1\"],\"faults\":\"panic@0\"}",
        );
        assert_eq!(r.status, 201, "matrix submit: {}", r.body);
        let id = json::parse(r.body.trim())
            .expect("matrix accept is JSON")
            .get("id")
            .and_then(Json::as_str)
            .expect("matrix accept has id")
            .to_owned();
        let doc = daemon.wait_state(&id, "failed");
        assert!(
            doc.get("error").and_then(Json::as_str).is_some(),
            "failed job reports an error: {doc}"
        );
    } else {
        eprintln!("skipping matrix fault job: no experiments binary next to spindle");
    }

    assert_eq!(daemon.get("/healthz").status, 200);
    let id = daemon.submit(&generate_spec(5, 1));
    daemon.wait_state(&id, "done");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delete_racing_completion_resolves_to_exactly_one_terminal_state() {
    let dir = fresh_dir("delrace");
    let daemon = Daemon::boot(&["--parallel", "2", "--dir", dir.to_str().unwrap()]);
    let terminal = [
        "done",
        "failed",
        "cancelled",
        "timed_out",
        "stalled",
        "quarantined",
    ];
    for i in 0..10u64 {
        let id = daemon.submit(&generate_spec(5, 200 + i));
        // Vary the race window from "still queued" to "surely done" so
        // the DELETE lands on every side of the finish line.
        std::thread::sleep(Duration::from_millis(i * 15));
        let r = daemon.delete(&format!("/jobs/{id}"));
        assert!(
            [200, 202, 409].contains(&r.status),
            "iteration {i}: DELETE got {}: {}",
            r.status,
            r.body
        );
        let deadline = Instant::now() + Duration::from_secs(60);
        let state = loop {
            let g = daemon.get(&format!("/jobs/{id}"));
            assert_eq!(g.status, 200, "iteration {i}: job vanished");
            let doc = json::parse(g.body.trim()).expect("job detail is JSON");
            let now = doc
                .get("state")
                .and_then(Json::as_str)
                .expect("job has a state")
                .to_owned();
            if terminal.contains(&now.as_str()) {
                break now;
            }
            assert!(
                Instant::now() < deadline,
                "iteration {i}: job stuck in `{now}` after DELETE"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        // Exactly one clean outcome: the cancel won or the job did.
        assert!(
            ["done", "cancelled"].contains(&state.as_str()),
            "iteration {i}: job ended `{state}`"
        );
        // A 409 means the job beat the cancel to a terminal state.
        if r.status == 409 {
            assert_eq!(state, "done", "iteration {i}: 409 implies completion");
        }
        // A completed job's artifact survived the racing cancel.
        if state == "done" {
            let a = daemon.get(&format!("/jobs/{id}/artifacts/stdout.txt"));
            assert_eq!(a.status, 200, "iteration {i}: done job lost its artifact");
            assert!(!a.body.is_empty(), "iteration {i}: artifact is empty");
        }
        // The outcome is stable: a second DELETE is a clean 409 that
        // names the state and never flips it (no double-kill path).
        let again = daemon.delete(&format!("/jobs/{id}"));
        assert_eq!(again.status, 409, "iteration {i}: {}", again.body);
        assert!(
            again.body.contains(&state),
            "iteration {i}: 409 names the state: {}",
            again.body
        );
        let g = daemon.get(&format!("/jobs/{id}"));
        let doc = json::parse(g.body.trim()).expect("job detail is JSON");
        assert_eq!(
            doc.get("state").and_then(Json::as_str),
            Some(state.as_str()),
            "iteration {i}: state flipped after second DELETE"
        );
    }
    assert_eq!(daemon.get("/healthz").status, 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_and_retries_supervise_real_child_processes() {
    let dir = fresh_dir("supervise");
    let daemon = Daemon::boot(&[
        "--parallel",
        "1",
        "--dir",
        dir.to_str().unwrap(),
        "--max-retries",
        "2",
        "--retry-base-ms",
        "50",
    ]);

    // A week-long generate against a 1-second spec deadline: the
    // runner kills the real child and the job lands timed_out.
    let r = daemon.post(
        "/jobs",
        "{\"kind\":\"generate\",\"env\":\"web\",\"span\":604800,\"seed\":3,\"deadline_secs\":1}",
    );
    assert_eq!(r.status, 201, "{}", r.body);
    let id = json::parse(r.body.trim())
        .expect("accept body is JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("accept body has id")
        .to_owned();
    let doc = daemon.wait_state(&id, "timed_out");
    assert!(
        doc.get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("deadline of 1s exceeded")),
        "timed_out job explains itself: {doc}"
    );

    // A matrix job whose fault plan SIGKILLs the child after its first
    // journal record: the retry resumes past the completed record (the
    // kill site never re-fires) and the job completes.
    if experiments_bin().is_some() {
        let r = daemon.post(
            "/jobs",
            "{\"kind\":\"matrix\",\"quick\":true,\"ids\":[\"t1\"],\"faults\":\"kill@0\"}",
        );
        assert_eq!(r.status, 201, "matrix submit: {}", r.body);
        let id = json::parse(r.body.trim())
            .expect("matrix accept is JSON")
            .get("id")
            .and_then(Json::as_str)
            .expect("matrix accept has id")
            .to_owned();
        let doc = daemon.wait_state(&id, "done");
        assert!(
            doc.get("attempt").and_then(Json::as_u64).unwrap_or(0) >= 1,
            "retried job records its attempt ordinal: {doc}"
        );
        let metrics = daemon.get("/metrics");
        assert!(
            metrics.body.contains("serve_jobs_retried"),
            "retry counter registered"
        );
    } else {
        eprintln!("skipping matrix retry job: no experiments binary next to spindle");
    }

    assert_eq!(daemon.get("/healthz").status, 200);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loadtest_with_a_hundred_clients_never_panics_the_daemon() {
    let dir = fresh_dir("loadtest");
    let mut daemon = Daemon::boot(&[
        "--queue-bound",
        "32",
        "--parallel",
        "4",
        "--dir",
        dir.to_str().unwrap(),
    ]);

    let mut config = spindle_serve::loadtest::LoadConfig::new(&format!("http://{}", daemon.addr));
    config.clients = 100;
    config.jobs = 150;
    config.span_secs = 1;
    let report = spindle_serve::loadtest::run(&config).expect("loadtest runs");

    assert_eq!(report.errors, 0, "no transport errors or bad statuses");
    assert_eq!(report.accepted + report.rejected, 150);
    assert!(report.accepted > 0, "some submissions must land");
    assert!(report.drained, "accepted jobs drain to terminal states");
    assert_eq!(report.failed, 0, "accepted jobs all succeed");
    assert_eq!(daemon.get("/healthz").status, 200);
    assert!(
        daemon.child.try_wait().expect("probe daemon").is_none(),
        "daemon survived the load"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
