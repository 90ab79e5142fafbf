//! Load-test harness: many concurrent clients against a live server.
//!
//! `spindle loadtest URL --clients N --jobs M` spawns `N` client
//! threads that race to submit `M` small generate jobs, recording
//! per-submit latency and the admission verdict, then waits for the
//! server to drain and reports latency percentiles, throughput, and
//! rejection counts. Rejected (429) submissions are *expected* under
//! load — the point of admission control — and are reported, not
//! retried.

use crate::client;
use spindle_obs::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-test parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`HOST:PORT` or `http://HOST:PORT`).
    pub url: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total submissions across all clients.
    pub jobs: usize,
    /// `span` seconds of each submitted generate job (small keeps the
    /// drain fast).
    pub span_secs: u64,
    /// How long to wait for the server to drain accepted jobs.
    pub drain_timeout: Duration,
}

impl LoadConfig {
    /// Defaults: 100 clients, 200 jobs, 5-second spans.
    #[must_use]
    pub fn new(url: &str) -> LoadConfig {
        LoadConfig {
            url: url.to_owned(),
            clients: 100,
            jobs: 200,
            span_secs: 5,
            drain_timeout: Duration::from_secs(180),
        }
    }
}

/// The harness's summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Client threads used.
    pub clients: usize,
    /// Submissions attempted.
    pub jobs: usize,
    /// 201 responses.
    pub accepted: usize,
    /// 429 responses (admission control working as intended).
    pub rejected: usize,
    /// Transport failures or unexpected statuses.
    pub errors: usize,
    /// Submit-latency percentiles, milliseconds.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst submit.
    pub max_ms: f64,
    /// Wall seconds the submission phase took.
    pub submit_secs: f64,
    /// Submissions per wall second.
    pub submits_per_sec: f64,
    /// Whether every accepted job reached a terminal state before the
    /// drain timeout.
    pub drained: bool,
    /// Terminal `done` jobs on the server after the drain.
    pub done: usize,
    /// Terminal `failed` jobs on the server after the drain.
    pub failed: usize,
}

impl LoadReport {
    /// The report as JSON (the `--out` artifact).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clients".to_owned(), Json::Uint(self.clients as u64)),
            ("jobs".to_owned(), Json::Uint(self.jobs as u64)),
            ("accepted".to_owned(), Json::Uint(self.accepted as u64)),
            ("rejected".to_owned(), Json::Uint(self.rejected as u64)),
            ("errors".to_owned(), Json::Uint(self.errors as u64)),
            ("p50_ms".to_owned(), Json::Num(self.p50_ms)),
            ("p90_ms".to_owned(), Json::Num(self.p90_ms)),
            ("p99_ms".to_owned(), Json::Num(self.p99_ms)),
            ("max_ms".to_owned(), Json::Num(self.max_ms)),
            ("submit_secs".to_owned(), Json::Num(self.submit_secs)),
            (
                "submits_per_sec".to_owned(),
                Json::Num(self.submits_per_sec),
            ),
            ("drained".to_owned(), Json::Bool(self.drained)),
            ("done".to_owned(), Json::Uint(self.done as u64)),
            ("failed".to_owned(), Json::Uint(self.failed as u64)),
        ])
    }

    /// A human-readable multi-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "loadtest: {} clients, {} submissions in {:.2}s ({:.0}/s)\n\
               accepted   {:>6}\n\
               rejected   {:>6}  (429 + Retry-After)\n\
               errors     {:>6}\n\
             submit latency: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms\n\
             server drain: done {}, failed {}, drained={}",
            self.clients,
            self.jobs,
            self.submit_secs,
            self.submits_per_sec,
            self.accepted,
            self.rejected,
            self.errors,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.max_ms,
            self.done,
            self.failed,
            self.drained,
        )
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct ClientTally {
    latencies_ms: Vec<f64>,
    accepted: usize,
    rejected: usize,
    errors: usize,
}

/// Runs the load test.
///
/// # Errors
///
/// Fails when the server is unreachable before the test starts.
pub fn run(config: &LoadConfig) -> Result<LoadReport, String> {
    let addr = client::normalize_addr(&config.url);
    let health = client::request(&addr, "GET", "/healthz", None)
        .map_err(|e| format!("cannot reach `{addr}`: {e}"))?;
    if health.status != 200 {
        return Err(format!(
            "`{addr}` is not healthy (status {})",
            health.status
        ));
    }

    let next = Arc::new(AtomicUsize::new(0));
    let total = config.jobs;
    let span = config.span_secs.max(1);
    let submit_start = Instant::now();
    let workers: Vec<_> = (0..config.clients.max(1))
        .map(|_| {
            let next = Arc::clone(&next);
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut tally = ClientTally {
                    latencies_ms: Vec::new(),
                    accepted: 0,
                    rejected: 0,
                    errors: 0,
                };
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= total {
                        return tally;
                    }
                    // Per-index seeds keep every accepted job's output
                    // distinct and deterministic.
                    let body = format!(
                        "{{\"kind\":\"generate\",\"env\":\"web\",\"span\":{span},\"seed\":{idx}}}"
                    );
                    let t0 = Instant::now();
                    let outcome = client::request(&addr, "POST", "/jobs", Some(&body));
                    tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1000.0);
                    match outcome {
                        Ok(r) if r.status == 201 => tally.accepted += 1,
                        Ok(r) if r.status == 429 => {
                            // Admission control must come with advice.
                            if r.header("retry-after").is_some() {
                                tally.rejected += 1;
                            } else {
                                tally.errors += 1;
                            }
                        }
                        Ok(_) | Err(_) => tally.errors += 1,
                    }
                }
            })
        })
        .collect();

    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    let (mut accepted, mut rejected, mut errors) = (0, 0, 0);
    for worker in workers {
        let tally = worker.join().map_err(|_| "client thread panicked")?;
        latencies.extend(tally.latencies_ms);
        accepted += tally.accepted;
        rejected += tally.rejected;
        errors += tally.errors;
    }
    let submit_secs = submit_start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    // Wait for the server to drain everything it accepted.
    let deadline = Instant::now() + config.drain_timeout;
    let (mut drained, mut done, mut failed) = (false, 0, 0);
    while Instant::now() < deadline {
        let Ok(listing) = client::request(&addr, "GET", "/jobs", None) else {
            std::thread::sleep(Duration::from_millis(200));
            continue;
        };
        if let Ok(doc) = spindle_obs::json::parse(listing.body.trim()) {
            let queued = doc.get("queued").and_then(Json::as_u64).unwrap_or(0);
            let running = doc.get("running").and_then(Json::as_u64).unwrap_or(0);
            if queued == 0 && running == 0 {
                drained = true;
                let empty = Vec::new();
                let jobs = match doc.get("jobs") {
                    Some(Json::Arr(jobs)) => jobs,
                    _ => &empty,
                };
                done = jobs
                    .iter()
                    .filter(|j| j.get("state").and_then(Json::as_str) == Some("done"))
                    .count();
                failed = jobs
                    .iter()
                    .filter(|j| j.get("state").and_then(Json::as_str) == Some("failed"))
                    .count();
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(200));
    }

    Ok(LoadReport {
        clients: config.clients.max(1),
        jobs: total,
        accepted,
        rejected,
        errors,
        p50_ms: percentile(&latencies, 0.50),
        p90_ms: percentile(&latencies, 0.90),
        p99_ms: percentile(&latencies, 0.99),
        max_ms: latencies.last().copied().unwrap_or(0.0),
        submit_secs,
        submits_per_sec: if submit_secs > 0.0 {
            total as f64 / submit_secs
        } else {
            0.0
        },
        drained,
        done,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_from_the_sorted_tail() {
        let lat = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&lat, 0.50), 3.0);
        assert_eq!(percentile(&lat, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_renders_and_serializes() {
        let report = LoadReport {
            clients: 10,
            jobs: 20,
            accepted: 15,
            rejected: 5,
            errors: 0,
            p50_ms: 1.5,
            p90_ms: 2.5,
            p99_ms: 3.5,
            max_ms: 4.5,
            submit_secs: 0.5,
            submits_per_sec: 40.0,
            drained: true,
            done: 15,
            failed: 0,
        };
        let text = report.render();
        assert!(text.contains("accepted"), "{text}");
        assert!(text.contains("429"), "{text}");
        let doc = report.to_json();
        assert_eq!(doc.get("rejected").and_then(Json::as_u64), Some(5));
        let parsed = spindle_obs::json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.get("drained"), Some(&Json::Bool(true)));
    }
}
