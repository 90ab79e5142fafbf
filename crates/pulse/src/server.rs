//! Embedded HTTP endpoint over `std::net::TcpListener`.
//!
//! [`PulseServer`] binds a listener, spawns one `pulse-serve` thread,
//! and answers the four telemetry routes of [`telemetry_route`], which
//! the serve daemon answers through the same function:
//!
//! * `GET /metrics` — the full registry in Prometheus text exposition
//!   format (via [`PromSink`](spindle_obs::PromSink)), so any scraper
//!   or a plain `curl` can watch a run, followed by the windowed-series
//!   gauges (`spindle_window_delta` / `spindle_window_rate`) of the
//!   sampler's rollup wheel.
//! * `GET /healthz` — `ok`, for liveness probes.
//! * `GET /status` — run phase, progress, ETA, and per-worker
//!   utilization as JSON (see [`status_json`](crate::status_json)).
//! * `GET /timescales` — the multi-resolution rollup document: per
//!   time-scale windows, exact merges, burstiness and idle statistics
//!   (see [`RollupSnapshot::to_json`](spindle_obs::RollupSnapshot)),
//!   plus the registry's histogram exemplars.
//!
//! The server is pull-based on purpose: a scrape takes a snapshot of
//! shared atomics, so a missing, slow, or hostile client cannot slow
//! the run down or change any computed result. Requests are handled
//! one at a time on the serving thread — telemetry is a debugging aid,
//! not a web service, and serialising requests keeps the code free of
//! connection bookkeeping.
//!
//! The listener is opened in non-blocking mode and polled, so
//! [`PulseServer::stop`] takes effect within one poll interval without
//! needing a self-connect wakeup.

use crate::http::{read_request, respond, HttpError};
use crate::sampler::Sampler;
use crate::status::{status_json, RunStatus};
use spindle_obs::json::Json;
use spindle_obs::{MetricsRegistry, MetricsSink, PromSink};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Per-connection socket timeout; a stalled client gets cut off rather
/// than wedging the serving thread.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(500);

/// The embedded telemetry HTTP server.
///
/// Dropping the server stops the serving thread.
#[derive(Debug)]
pub struct PulseServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl PulseServer {
    /// Binds `addr` (port 0 asks the OS for a free port — read the
    /// result back from [`PulseServer::local_addr`]) and starts
    /// serving `registry`, `status`, and `sampler` with its rollup
    /// wheel.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(
        addr: &str,
        registry: &'static MetricsRegistry,
        status: Arc<RunStatus>,
        sampler: Arc<Sampler>,
    ) -> io::Result<PulseServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("pulse-serve".to_owned())
            .spawn(move || {
                while !thread_stop.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // One request at a time; errors on a single
                            // connection never take the server down.
                            let _ = serve_connection(stream, registry, &status, &sampler);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                        }
                        Err(_) => std::thread::sleep(POLL_INTERVAL),
                    }
                }
            })?;
        Ok(PulseServer {
            addr: local,
            stop,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and waits for it to exit. Idempotent;
    /// also called on drop.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.lock().expect("server handle lock").take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for PulseServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The content type and body of one of the four telemetry routes —
/// `/healthz`, `/metrics`, `/status` and `/timescales` — for the run
/// `registry`, `status` and `sampler` describe; `None` for any other
/// path. Both the pulse endpoint and the serve daemon answer these
/// routes through this one function.
#[must_use]
pub fn telemetry_route(
    path: &str,
    registry: &MetricsRegistry,
    status: &RunStatus,
    sampler: &Sampler,
) -> Option<(&'static str, String)> {
    const JSON_TYPE: &str = "application/json; charset=utf-8";
    Some(match path {
        "/healthz" => ("text/plain; charset=utf-8", "ok\n".to_owned()),
        "/metrics" => {
            let mut body = PromSink
                .export_string(&registry.snapshot())
                .unwrap_or_default();
            let mut appendix = Vec::new();
            if spindle_obs::prom::write_windowed(&mut appendix, &sampler.rollups().snapshot())
                .is_ok()
            {
                body.push_str(&String::from_utf8_lossy(&appendix));
            }
            (spindle_obs::prom::CONTENT_TYPE, body)
        }
        "/status" => {
            let doc = status_json(status, &registry.snapshot(), sampler);
            (JSON_TYPE, format!("{doc}\n"))
        }
        "/timescales" => {
            let doc = Json::Obj(vec![
                ("rollups".to_owned(), sampler.rollups().to_json()),
                ("exemplars".to_owned(), registry.exemplars().to_json()),
            ]);
            (JSON_TYPE, format!("{doc}\n"))
        }
        _ => return None,
    })
}

/// Reads one request off `stream` (via the shared [`crate::http`]
/// parser) and writes one response.
fn serve_connection(
    mut stream: TcpStream,
    registry: &MetricsRegistry,
    status: &RunStatus,
    sampler: &Sampler,
) -> io::Result<()> {
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    // The listener is non-blocking, and accepted sockets inherit that
    // on some platforms; switch back to blocking so the timeouts above
    // govern I/O instead of instant WouldBlock.
    stream.set_nonblocking(false)?;

    // The shared parser handles head/body framing and hostile input;
    // a malformed request earns a 400 instead of a dropped connection.
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Io(e)) => return Err(e),
        Err(e) => {
            return respond(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                &format!("{e}\n"),
            );
        }
    };

    if request.method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    // The parser drops any query string: /status?pretty is /status.
    match telemetry_route(&request.path, registry, status, sampler) {
        Some((content_type, body)) => respond(&mut stream, "200 OK", content_type, &body),
        None => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::PROGRESS_METRIC;
    use std::io::{Read, Write};

    fn fetch(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to pulse server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").expect("response has a head");
        (head.to_owned(), body.to_owned())
    }

    fn test_server() -> (PulseServer, Arc<RunStatus>, Arc<Sampler>) {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        registry.counter("srv.requests").add(5);
        registry.histogram("srv.lat").record(3);
        let status = Arc::new(RunStatus::new(10));
        status.set_progress_counter(registry.counter(PROGRESS_METRIC));
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        let server = PulseServer::start(
            "127.0.0.1:0",
            registry,
            Arc::clone(&status),
            Arc::clone(&sampler),
        )
        .expect("bind an ephemeral port");
        (server, status, sampler)
    }

    #[test]
    fn serves_metrics_healthz_and_status() {
        let (server, status, sampler) = test_server();
        let addr = server.local_addr();

        let (head, body) = fetch(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert_eq!(body, "ok\n");

        let (head, body) = fetch(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert!(head.contains("text/plain; version=0.0.4"), "head: {head}");
        assert!(body.contains("# TYPE srv_requests counter"), "{body}");
        assert!(body.contains("srv_requests 5"), "{body}");
        assert!(body.contains("srv_lat_count 1"), "{body}");

        status.set_phase("running");
        status.complete_one();
        let (head, body) = fetch(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert!(head.contains("application/json"), "head: {head}");
        let doc = spindle_obs::json::parse(body.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("phase").and_then(spindle_obs::json::Json::as_str),
            Some("running")
        );
        assert_eq!(
            doc.get("completed")
                .and_then(spindle_obs::json::Json::as_u64),
            Some(1)
        );

        sampler.stop();
        server.stop();
    }

    #[test]
    fn timescales_serves_rollups_and_metrics_gain_windows() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        registry.counter("srv.requests").add(5);
        let status = Arc::new(RunStatus::new(10));
        let sampler = Sampler::start(registry, Duration::from_secs(3600), 8);
        let server = PulseServer::start(
            "127.0.0.1:0",
            registry,
            Arc::clone(&status),
            Arc::clone(&sampler),
        )
        .expect("bind an ephemeral port");
        let addr = server.local_addr();
        // Deterministic: don't rely on the sampler thread having ticked.
        sampler.sample_now();

        let (head, body) = fetch(addr, "/timescales");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        assert!(head.contains("application/json"), "head: {head}");
        let doc = spindle_obs::json::parse(body.trim()).expect("valid JSON");
        let roll_doc = doc.get("rollups").expect("rollups section");
        assert_eq!(
            roll_doc.get("axis").and_then(Json::as_str),
            Some("wall"),
            "{body}"
        );
        let Some(Json::Arr(resolutions)) = roll_doc.get("resolutions") else {
            panic!("resolutions array");
        };
        assert!(resolutions.len() >= 2);
        assert!(doc.get("exemplars").is_some());

        let (_, metrics) = fetch(addr, "/metrics");
        assert!(
            metrics.contains("spindle_window_delta{axis=\"wall\""),
            "{metrics}"
        );
        spindle_obs::prom::check_exposition(&metrics).expect("valid exposition");

        sampler.stop();
        server.stop();
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let (server, _status, sampler) = test_server();
        let addr = server.local_addr();

        let (head, _) = fetch(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "head: {head}");

        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "response: {out}");

        // Wire garbage earns a 400 from the shared parser, not a
        // dropped connection or a dead server.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "complete nonsense\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "response: {out}");
        let (head, _) = fetch(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "server survived: {head}");

        sampler.stop();
        server.stop();
    }

    #[test]
    fn query_strings_are_ignored_and_stop_is_idempotent() {
        let (server, _status, sampler) = test_server();
        let (head, _) = fetch(server.local_addr(), "/healthz?probe=1");
        assert!(head.starts_with("HTTP/1.1 200"), "head: {head}");
        server.stop();
        server.stop();
        sampler.stop();
    }
}
