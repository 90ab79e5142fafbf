//! Chaos harness: seeded fault scripts against a live serve daemon.
//!
//! `spindle chaos URL --seed S` drives a running daemon through the
//! failure modes the supervision layer exists for — child kills,
//! hung tasks, silenced telemetry, io faults, poison specs, and (when
//! `--daemon-pid` is given) a SIGTERM drain — and asserts the one
//! invariant that matters: **every job the daemon admitted reaches
//! exactly one terminal state, and the daemon can explain it** (the
//! detail and result endpoints agree on state, attempts, and error).
//!
//! Fault injection rides the spec's `faults` field: the daemon passes
//! it through as the child's `--faults` plan (spindle-harden), so the
//! chaos harness needs no privileged access — everything it does, a
//! hostile or unlucky client could do too. Scenarios run sequentially
//! and their specs are derived from `--seed`, so a chaos run is
//! replayable: same seed, same script, same verdicts.
//!
//! The stall and retry scenarios finish fastest against a daemon
//! started with tight supervision settings (for example
//! `--stall-timeout 2 --max-retries 1 --retry-base-ms 100`);
//! `scripts/check.sh` runs exactly that as a smoke test.

use crate::client::{self, Response};
use spindle_obs::json::Json;
use std::time::{Duration, Instant};

/// Terminal states a chaos job may legally land in.
const TERMINAL: &[&str] = &[
    "done",
    "failed",
    "cancelled",
    "timed_out",
    "stalled",
    "quarantined",
];

/// Chaos-run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Server address (`HOST:PORT` or `http://HOST:PORT`).
    pub url: String,
    /// Script seed: varies the generated specs deterministically.
    pub seed: u64,
    /// A trace file that exists *on the server*, enabling the io-fault
    /// scenario (`analyze` + `io@0`); skipped when `None`.
    pub input: Option<String>,
    /// The daemon's pid, enabling the SIGTERM drain scenario; skipped
    /// when `None`. The daemon is expected to exit — restart it with
    /// `--resume-dir` afterwards to verify losslessness.
    pub daemon_pid: Option<u32>,
    /// How long to wait for any one job to reach a terminal state.
    pub wait_timeout: Duration,
}

impl ChaosConfig {
    /// Defaults: seed 0, no io-fault input, no drain target.
    #[must_use]
    pub fn new(url: &str) -> ChaosConfig {
        ChaosConfig {
            url: url.to_owned(),
            seed: 0,
            input: None,
            daemon_pid: None,
            wait_timeout: Duration::from_secs(240),
        }
    }
}

/// One scenario's verdict.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (`retry-success`, `deadline`, ...).
    pub name: String,
    /// Whether the scenario's assertions held (skipped counts as
    /// passed: it asserts nothing).
    pub passed: bool,
    /// Whether the scenario was skipped (missing prerequisite).
    pub skipped: bool,
    /// Human-readable outcome.
    pub detail: String,
    /// Jobs the scenario submitted: `(id, final state, attempts)`.
    pub jobs: Vec<(String, String, u64)>,
}

impl Scenario {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("passed".to_owned(), Json::Bool(self.passed)),
            ("skipped".to_owned(), Json::Bool(self.skipped)),
            ("detail".to_owned(), Json::Str(self.detail.clone())),
            (
                "jobs".to_owned(),
                Json::Arr(
                    self.jobs
                        .iter()
                        .map(|(id, state, attempts)| {
                            Json::Obj(vec![
                                ("id".to_owned(), Json::Str(id.clone())),
                                ("state".to_owned(), Json::Str(state.clone())),
                                ("attempts".to_owned(), Json::Uint(*attempts)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The chaos run's summary.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the script ran under.
    pub seed: u64,
    /// Per-scenario verdicts, in execution order.
    pub scenarios: Vec<Scenario>,
    /// Whether every admitted job reached exactly one terminal state
    /// the daemon explains (detail and result endpoints agree).
    pub invariant_ok: bool,
    /// What broke, when `invariant_ok` is false.
    pub invariant_detail: String,
}

impl ChaosReport {
    /// Whether every scenario passed and the terminal-state invariant
    /// held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.invariant_ok && self.scenarios.iter().all(|s| s.passed)
    }

    /// The report as JSON (the `--out` artifact).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".to_owned(), Json::Uint(self.seed)),
            ("ok".to_owned(), Json::Bool(self.ok())),
            (
                "scenarios".to_owned(),
                Json::Arr(self.scenarios.iter().map(Scenario::to_json).collect()),
            ),
            ("invariant_ok".to_owned(), Json::Bool(self.invariant_ok)),
            (
                "invariant_detail".to_owned(),
                Json::Str(self.invariant_detail.clone()),
            ),
        ])
    }

    /// A human-readable multi-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "chaos: seed {} — {}\n",
            self.seed,
            if self.ok() { "OK" } else { "FAILED" }
        );
        for s in &self.scenarios {
            let mark = if s.skipped {
                "skip"
            } else if s.passed {
                "pass"
            } else {
                "FAIL"
            };
            let _ = writeln!(out, "  [{mark}] {:<16} {}", s.name, s.detail);
        }
        let _ = write!(
            out,
            "  invariant: every admitted job terminal & explained — {}",
            if self.invariant_ok {
                "held"
            } else {
                self.invariant_detail.as_str()
            }
        );
        out
    }
}

/// The harness's view of the daemon, plus every job id it admitted.
struct Harness {
    addr: String,
    wait: Duration,
    submitted: Vec<String>,
}

impl Harness {
    fn submit(&mut self, body: &str) -> Result<Response, String> {
        let r = client::request(&self.addr, "POST", "/jobs", Some(body))
            .map_err(|e| format!("submit failed: {e}"))?;
        if r.status == 201 {
            if let Some(id) = parse_field(&r.body, "id") {
                self.submitted.push(id);
            }
        }
        Ok(r)
    }

    /// Submits and expects a 201, returning the job id.
    fn submit_ok(&mut self, body: &str) -> Result<String, String> {
        let r = self.submit(body)?;
        if r.status != 201 {
            return Err(format!("expected 201, got {}: {}", r.status, r.body.trim()));
        }
        parse_field(&r.body, "id").ok_or_else(|| format!("no id in {}", r.body.trim()))
    }

    /// Polls `GET /jobs/ID` until the state is terminal; returns the
    /// final `(state, attempts, error)`.
    fn wait_terminal(&self, id: &str) -> Result<(String, u64, Option<String>), String> {
        let deadline = Instant::now() + self.wait;
        loop {
            let r = client::request(&self.addr, "GET", &format!("/jobs/{id}"), None)
                .map_err(|e| format!("cannot poll `{id}`: {e}"))?;
            let doc = spindle_obs::json::parse(r.body.trim())
                .map_err(|e| format!("bad job doc for `{id}`: {e}"))?;
            let state = doc
                .get("state")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned();
            if TERMINAL.contains(&state.as_str()) {
                let attempts = doc.get("attempt").and_then(Json::as_u64).unwrap_or(0);
                let error = doc.get("error").and_then(Json::as_str).map(str::to_owned);
                return Ok((state, attempts, error));
            }
            if Instant::now() >= deadline {
                return Err(format!("`{id}` still `{state}` after {:?}", self.wait));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    fn artifact(&self, id: &str, name: &str) -> Result<String, String> {
        let r = client::request(
            &self.addr,
            "GET",
            &format!("/jobs/{id}/artifacts/{name}"),
            None,
        )
        .map_err(|e| format!("cannot fetch `{id}/{name}`: {e}"))?;
        if r.status != 200 {
            return Err(format!("artifact `{id}/{name}`: status {}", r.status));
        }
        Ok(r.body)
    }
}

fn parse_field(body: &str, field: &str) -> Option<String> {
    spindle_obs::json::parse(body.trim())
        .ok()?
        .get(field)
        .and_then(Json::as_str)
        .map(str::to_owned)
}

/// Whether a 400 means the daemon has no experiments binary (matrix
/// scenarios are then skipped, not failed).
fn matrix_unavailable(r: &Response) -> bool {
    r.status == 400 && r.body.contains("matrix jobs unavailable")
}

/// An inert fault token derived from the campaign seed: the kill site
/// is far past any real journal ordinal, so it never fires — but it
/// makes each seed's matrix specs fingerprint-unique, so a re-run
/// with a new seed never trips the poison breaker a previous campaign
/// left open.
fn seed_salt(seed: u64) -> String {
    format!("kill@{}", 9_000_000_000_u64 + seed % 1_000_000_000)
}

/// What a scenario body reports on success: the detail line plus the
/// `(id, state, attempts)` of every job it drove.
type Outcome = Result<(String, Vec<(String, String, u64)>), String>;

fn scenario(name: &str, outcome: Outcome) -> Scenario {
    match outcome {
        Ok((detail, jobs)) => Scenario {
            name: name.to_owned(),
            passed: true,
            skipped: false,
            detail,
            jobs,
        },
        Err(detail) => Scenario {
            name: name.to_owned(),
            passed: false,
            skipped: false,
            detail,
            jobs: Vec::new(),
        },
    }
}

fn skipped(name: &str, why: &str) -> Scenario {
    Scenario {
        name: name.to_owned(),
        passed: true,
        skipped: true,
        detail: format!("skipped: {why}"),
        jobs: Vec::new(),
    }
}

/// Runs the chaos script.
///
/// # Errors
///
/// Fails when the server is unreachable before the script starts;
/// in-script failures land in the report instead.
pub fn run(config: &ChaosConfig) -> Result<ChaosReport, String> {
    let addr = client::normalize_addr(&config.url);
    let health = client::request(&addr, "GET", "/healthz", None)
        .map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
    if health.status != 200 {
        return Err(format!(
            "`{addr}` is not healthy (status {})",
            health.status
        ));
    }
    let mut h = Harness {
        addr,
        wait: config.wait_timeout,
        submitted: Vec::new(),
    };
    let mut scenarios = Vec::new();

    // Probe: does this daemon run matrix jobs at all? The probe spec is
    // also the retry scenario's first twin, so nothing is wasted.
    let twin_body = format!(
        r#"{{"kind":"matrix","quick":true,"faults":"kill@0,{}"}}"#,
        seed_salt(config.seed)
    );
    let probe = h.submit(&twin_body)?;
    let matrix_ok = !matrix_unavailable(&probe);

    if matrix_ok {
        scenarios.push(retry_success(&mut h, &probe, &twin_body));
        scenarios.push(deadline(&mut h, config.seed));
        scenarios.push(stall(&mut h, config.seed));
        scenarios.push(poison(&mut h, config.seed));
    } else {
        for name in ["retry-success", "deadline", "stall", "poison"] {
            scenarios.push(skipped(name, "matrix jobs unavailable on this daemon"));
        }
    }

    scenarios.push(match &config.input {
        Some(input) => io_fault(&mut h, input),
        None => skipped("io-fault", "no --input trace file given"),
    });

    // The invariant check runs before the drain scenario on purpose:
    // drain deliberately leaves jobs *non*-terminal for the next
    // daemon, which is its own assertion, checked by the caller after
    // a --resume-dir restart.
    let (invariant_ok, invariant_detail) = check_invariant(&h);

    scenarios.push(match config.daemon_pid {
        Some(pid) => drain(&mut h, pid, config.seed),
        None => skipped("sigterm-drain", "no --daemon-pid given"),
    });

    Ok(ChaosReport {
        seed: config.seed,
        scenarios,
        invariant_ok,
        invariant_detail,
    })
}

/// A `kill@0` child dies once, retries, and completes — and an
/// identical twin produces byte-identical stdout, proving the retry
/// path preserves determinism.
fn retry_success(h: &mut Harness, probe: &Response, twin_body: &str) -> Scenario {
    scenario(
        "retry-success",
        (|| {
            if probe.status != 201 {
                return Err(format!(
                    "expected 201 for the kill@0 twin, got {}: {}",
                    probe.status,
                    probe.body.trim()
                ));
            }
            let a = parse_field(&probe.body, "id").ok_or("no id in probe response")?;
            let b = h.submit_ok(twin_body)?;
            let mut jobs = Vec::new();
            for id in [&a, &b] {
                let (state, attempts, error) = h.wait_terminal(id)?;
                if state != "done" {
                    return Err(format!(
                        "`{id}` ended `{state}` ({}), wanted `done` after a retry",
                        error.unwrap_or_default()
                    ));
                }
                if attempts == 0 {
                    return Err(format!(
                        "`{id}` finished without retrying: kill@0 never fired"
                    ));
                }
                jobs.push((id.clone(), state, attempts));
            }
            let out_a = h.artifact(&a, "stdout.txt")?;
            let out_b = h.artifact(&b, "stdout.txt")?;
            if out_a != out_b {
                return Err(format!(
                    "retried twins diverged: {} vs {} stdout bytes",
                    out_a.len(),
                    out_b.len()
                ));
            }
            Ok((
                format!(
                    "both twins done after {} retr{}, stdout byte-identical ({} bytes)",
                    jobs[0].2,
                    if jobs[0].2 == 1 { "y" } else { "ies" },
                    out_a.len()
                ),
                jobs,
            ))
        })(),
    )
}

/// A `hang@0` child never finishes; a 2-second spec deadline turns it
/// into `timed_out` — terminal, never retried.
fn deadline(h: &mut Harness, seed: u64) -> Scenario {
    scenario(
        "deadline",
        (|| {
            let id = h.submit_ok(&format!(
                r#"{{"kind":"matrix","quick":true,"faults":"hang@0,{}","deadline_secs":2}}"#,
                seed_salt(seed)
            ))?;
            let (state, attempts, error) = h.wait_terminal(&id)?;
            if state != "timed_out" {
                return Err(format!(
                    "`{id}` ended `{state}` ({}), wanted `timed_out`",
                    error.unwrap_or_default()
                ));
            }
            if attempts != 0 {
                return Err(format!(
                    "deadline kills must not retry, saw {attempts} attempt(s)"
                ));
            }
            Ok((
                format!("hung child killed by its 2s deadline -> `{state}`"),
                vec![(id, state, attempts)],
            ))
        })(),
    )
}

/// A child that speaks the telemetry protocol (two frames) then goes
/// silent while hung: its runner stall-kills it each attempt until the
/// budget is spent and it lands `stalled`.
fn stall(h: &mut Harness, seed: u64) -> Scenario {
    scenario(
        "stall",
        (|| {
            let id = h.submit_ok(&format!(
                r#"{{"kind":"matrix","quick":true,"faults":"stall@2,hang@0,{}"}}"#,
                seed_salt(seed)
            ))?;
            let (state, attempts, error) = h.wait_terminal(&id)?;
            if state != "stalled" {
                return Err(format!(
                    "`{id}` ended `{state}` ({}), wanted `stalled` (is the daemon running \
                 with --stall-timeout set?)",
                    error.unwrap_or_default()
                ));
            }
            Ok((
                format!(
                    "silent-but-alive child stall-killed; `stalled` after {attempts} retr{}",
                    if attempts == 1 { "y" } else { "ies" }
                ),
                vec![(id, state, attempts)],
            ))
        })(),
    )
}

/// A spec that dies on *every* attempt (`kill@0..7` covers any retry
/// budget up to 7) is quarantined, and an identical resubmission is
/// fast-rejected by the breaker with 409 + `Retry-After`.
fn poison(h: &mut Harness, seed: u64) -> Scenario {
    scenario(
        "poison",
        (|| {
            let body = format!(
                r#"{{"kind":"matrix","quick":true,"faults":"kill@0,kill@1,kill@2,kill@3,kill@4,kill@5,kill@6,kill@7,{}"}}"#,
                seed_salt(seed)
            );
            let id = h.submit_ok(&body)?;
            let (state, attempts, error) = h.wait_terminal(&id)?;
            if state != "quarantined" {
                return Err(format!(
                    "`{id}` ended `{state}` ({}), wanted `quarantined`",
                    error.unwrap_or_default()
                ));
            }
            let again = h.submit(&body)?;
            if again.status != 409 {
                return Err(format!(
                    "breaker let the poison spec back in: status {}",
                    again.status
                ));
            }
            if again.header("retry-after").is_none() {
                return Err("breaker 409 carried no Retry-After".to_owned());
            }
            Ok((
                format!(
                    "quarantined after {} attempt(s); identical resubmit -> 409 + Retry-After",
                    attempts + 1
                ),
                vec![(id, state, attempts)],
            ))
        })(),
    )
}

/// An `io@0` fault on a real analyze job fails fast and terminally:
/// a job's own non-zero exit is its problem, not a transient.
fn io_fault(h: &mut Harness, input: &str) -> Scenario {
    scenario(
        "io-fault",
        (|| {
            let id = h.submit_ok(&format!(
                r#"{{"kind":"analyze","input":"{input}","faults":"io@0"}}"#
            ))?;
            let (state, attempts, error) = h.wait_terminal(&id)?;
            if state != "failed" {
                return Err(format!(
                    "`{id}` ended `{state}` ({}), wanted `failed`",
                    error.unwrap_or_default()
                ));
            }
            if attempts != 0 {
                return Err(format!(
                    "io failures must not retry, saw {attempts} attempt(s)"
                ));
            }
            Ok((
                "injected io fault -> `failed`, no retries burned".to_owned(),
                vec![(id, state, attempts)],
            ))
        })(),
    )
}

/// SIGTERM the daemon mid-load: admission must flip to 503 +
/// `Retry-After`, and the process must exit within its drain window.
/// The unfinished jobs' journal records (no terminal event) are the
/// next daemon's to re-adopt — the caller verifies that by restarting
/// with `--resume-dir`.
fn drain(h: &mut Harness, pid: u32, seed: u64) -> Scenario {
    scenario(
        "sigterm-drain",
        (|| {
            // A little backlog so the drain actually has something to hand
            // over.
            for i in 0..3u64 {
                let _ = h.submit(&format!(
                    r#"{{"kind":"generate","env":"web","span":2,"seed":{}}}"#,
                    seed.wrapping_mul(10) + i
                ))?;
            }
            let term = std::process::Command::new("kill")
                .args(["-TERM", &pid.to_string()])
                .status()
                .map_err(|e| format!("cannot signal pid {pid}: {e}"))?;
            if !term.success() {
                return Err(format!("kill -TERM {pid} failed"));
            }
            // Draining: submissions must start bouncing with advice.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut saw_503 = false;
            while Instant::now() < deadline {
                let Ok(r) = client::request(
                    &h.addr,
                    "POST",
                    "/jobs",
                    Some(r#"{"kind":"generate","env":"web","span":2,"seed":999999}"#),
                ) else {
                    // Connection refused already: the daemon finished its
                    // drain before we caught the 503 window. That is a
                    // legal (fast) drain.
                    break;
                };
                if r.status == 503 && r.header("retry-after").is_some() {
                    saw_503 = true;
                    break;
                }
                if r.status == 201 {
                    if let Some(id) = parse_field(&r.body, "id") {
                        h.submitted.push(id);
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            // The process must actually exit.
            let gone_by = Instant::now() + Duration::from_secs(60);
            loop {
                if client::request(&h.addr, "GET", "/healthz", None).is_err() {
                    break;
                }
                if Instant::now() >= gone_by {
                    return Err("daemon still serving 60s after SIGTERM".to_owned());
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            Ok((
                format!(
                    "daemon drained and exited{}",
                    if saw_503 {
                        "; draining submissions got 503 + Retry-After"
                    } else {
                        " before a 503 could be observed"
                    }
                ),
                Vec::new(),
            ))
        })(),
    )
}

/// Every job this harness got a 201 for must be in exactly one
/// terminal state, and the detail and result endpoints must agree on
/// it.
fn check_invariant(h: &Harness) -> (bool, String) {
    for id in &h.submitted {
        let (state, _, _) = match h.wait_terminal(id) {
            Ok(t) => t,
            Err(e) => return (false, e),
        };
        let result = match client::request(&h.addr, "GET", &format!("/jobs/{id}/result"), None) {
            Ok(r) => r,
            Err(e) => return (false, format!("result endpoint for `{id}`: {e}")),
        };
        if result.status != 200 {
            return (
                false,
                format!("`{id}` is terminal but /result says {}", result.status),
            );
        }
        let result_state = parse_field(&result.body, "state").unwrap_or_default();
        if result_state != state {
            return (
                false,
                format!("`{id}`: detail says `{state}`, result says `{result_state}`"),
            );
        }
    }
    (true, format!("{} job(s) checked", h.submitted.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_and_serializes() {
        let report = ChaosReport {
            seed: 7,
            scenarios: vec![
                Scenario {
                    name: "retry-success".to_owned(),
                    passed: true,
                    skipped: false,
                    detail: "both twins done".to_owned(),
                    jobs: vec![("job-0001".to_owned(), "done".to_owned(), 1)],
                },
                Scenario {
                    name: "io-fault".to_owned(),
                    passed: true,
                    skipped: true,
                    detail: "skipped: no --input trace file given".to_owned(),
                    jobs: Vec::new(),
                },
            ],
            invariant_ok: true,
            invariant_detail: "1 job(s) checked".to_owned(),
        };
        assert!(report.ok());
        let text = report.render();
        assert!(text.contains("[pass] retry-success"), "{text}");
        assert!(text.contains("[skip] io-fault"), "{text}");
        assert!(text.contains("invariant"), "{text}");
        let doc = report.to_json();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        let parsed = spindle_obs::json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(7));

        let failed = ChaosReport {
            seed: 7,
            scenarios: vec![Scenario {
                name: "stall".to_owned(),
                passed: false,
                skipped: false,
                detail: "ended `done`".to_owned(),
                jobs: Vec::new(),
            }],
            invariant_ok: false,
            invariant_detail: "job-0002 never terminal".to_owned(),
        };
        assert!(!failed.ok());
        assert!(
            failed.render().contains("[FAIL] stall"),
            "{}",
            failed.render()
        );
        assert!(
            failed.render().contains("never terminal"),
            "{}",
            failed.render()
        );
    }
}
