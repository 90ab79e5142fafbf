//! Live telemetry for the spindle pipeline.
//!
//! The rest of the toolkit measures runs *after* they finish — metric
//! snapshots at exit, flight-recorder exports. This
//! crate is the live window onto the same data while a run is still
//! going, with **zero external dependencies** (plain `std::net` and
//! `std::thread`, same vendoring discipline as the rest of the
//! workspace):
//!
//! * [`sampler`] — a background thread snapshotting a
//!   [`MetricsRegistry`](spindle_obs::MetricsRegistry) at a fixed
//!   cadence into the rollup wheel and one bounded progress window,
//!   giving the rate and ETA of `/status` and the dashboard a recent
//!   window instead of a lifetime average.
//! * [`server`] — an embedded HTTP server on
//!   [`std::net::TcpListener`] serving `GET /metrics` in Prometheus
//!   text exposition format (via
//!   [`PromSink`](spindle_obs::PromSink)), `GET /healthz`,
//!   `GET /status` (run phase, progress, per-worker utilization, ETA
//!   as JSON), and `GET /timescales` (the multi-resolution rollup
//!   document plus histogram exemplars). Pull-based by design: the
//!   scrape reads shared atomics, so an absent or slow scraper costs
//!   the run nothing.
//! * [`status`] — the [`RunStatus`] shared state the front ends
//!   (`spindle`, `experiments`) publish phase and progress into.
//! * [`live`] — the `--live` terminal dashboard: in-place ANSI redraw
//!   of progress, throughput, ETA, worker lanes and hottest spans,
//!   degrading to plain line output when stderr is not a TTY.
//! * [`front`] — the command-line front end both binaries share: one
//!   option parser, one resolution of flags and environment into an
//!   [`Invocation`](front::Invocation), and one run lifecycle around
//!   the session, the exporter and the exports.
//! * [`export`] — the child-side half of the cross-process telemetry
//!   plane: when `SPINDLE_TELEMETRY_SINK` names a local sink address
//!   (the `spindle serve` runner injects it for every job child), an
//!   [`Exporter`] streams a progress heartbeat every tick and the
//!   run's wall spans at exit (`spindle_obs::frame`) to the daemon.
//!
//! Telemetry is strictly read-only over the metrics registry: enabling
//! `--serve` or `--live` cannot change any computed result, and both
//! write only to stderr/sockets so experiment stdout stays
//! byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod front;
pub mod http;
pub mod live;
pub mod sampler;
pub mod server;
pub mod status;

pub use export::Exporter;
pub use live::LiveDashboard;
pub use sampler::{Sample, SampleWindow, Sampler};
pub use server::PulseServer;
pub use status::{status_json, RunStatus};

/// Environment variable naming the telemetry bind address, consulted
/// when `--serve` is given without one.
pub const SERVE_ENV: &str = "SPINDLE_SERVE";

/// Environment variable holding a shutdown linger in milliseconds:
/// with `--serve`, the process keeps the endpoint up this long after
/// the command finishes, so a scraper racing run completion still gets
/// a final snapshot (tests and check.sh set it; default 0).
pub const LINGER_ENV: &str = "SPINDLE_SERVE_LINGER_MS";

/// Default sampler cadence for the front ends.
pub const SAMPLE_CADENCE: std::time::Duration = std::time::Duration::from_millis(250);

/// Default progress-window capacity for the front ends: with
/// [`SAMPLE_CADENCE`] this keeps a ~30 s recent-rate window.
pub const SAMPLE_CAPACITY: usize = 120;

/// The linger duration requested via [`LINGER_ENV`] (zero when unset
/// or unparsable).
#[must_use]
pub fn serve_linger() -> std::time::Duration {
    match std::env::var(LINGER_ENV) {
        Ok(v) => std::time::Duration::from_millis(v.trim().parse().unwrap_or(0)),
        Err(_) => std::time::Duration::ZERO,
    }
}

/// One front end's live telemetry for the duration of a run: the
/// sampler plus whatever `--serve`/`--live` asked for, with an orderly
/// shutdown. [`front::Invocation::run`] drives it for both binaries, so
/// the lifecycle (final sample, scrape linger, stop order) cannot drift
/// between them.
#[derive(Debug)]
pub struct Session {
    /// Shared progress state; the front end publishes phase changes
    /// and per-unit completions into this.
    pub status: std::sync::Arc<RunStatus>,
    sampler: std::sync::Arc<Sampler>,
    server: Option<PulseServer>,
    dashboard: Option<LiveDashboard>,
}

impl Session {
    /// Starts telemetry for a run of `total` work units in `phase`.
    /// `serve` is the `--serve` flag (`None` absent, `Some(None)` bare,
    /// `Some(Some(addr))` explicit); `live` is `--live`. Returns
    /// `Ok(None)` when neither was requested.
    ///
    /// With `--serve` the bound address is printed to **stderr** as
    /// `# serving telemetry on http://ADDR` — machine-readable so
    /// scripts can discover a port-0 bind, and off stdout so computed
    /// output stays byte-identical.
    ///
    /// # Errors
    ///
    /// Returns a message when the serve address cannot be bound.
    pub fn start(
        registry: &'static spindle_obs::MetricsRegistry,
        serve: Option<Option<&str>>,
        live: bool,
        total: u64,
        phase: &str,
    ) -> Result<Option<Session>, String> {
        if serve.is_none() && !live {
            return Ok(None);
        }
        let status = std::sync::Arc::new(RunStatus::new(total));
        status.set_phase(phase);
        status.set_progress_counter(registry.counter(status::PROGRESS_METRIC));
        // The sampler's wall-axis rollup wheel is the session's:
        // `/timescales` serves it, the dashboard sparkline reads it.
        // Bounded memory, read-only over the run.
        let sampler = Sampler::start(registry, SAMPLE_CADENCE, SAMPLE_CAPACITY);
        let server = match serve {
            Some(explicit) => {
                let addr = resolve_serve_addr(explicit);
                let srv = PulseServer::start(
                    &addr,
                    registry,
                    std::sync::Arc::clone(&status),
                    std::sync::Arc::clone(&sampler),
                )
                .map_err(|e| format!("cannot serve telemetry on `{addr}`: {e}"))?;
                eprintln!("# serving telemetry on http://{}", srv.local_addr());
                Some(srv)
            }
            None => None,
        };
        let dashboard = live.then(|| {
            LiveDashboard::start(
                registry,
                std::sync::Arc::clone(&status),
                std::sync::Arc::clone(&sampler),
            )
        });
        Ok(Some(Session {
            status,
            sampler,
            server,
            dashboard,
        }))
    }

    /// The served address, when `--serve` was requested.
    #[must_use]
    pub fn bound_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(PulseServer::local_addr)
    }

    /// The session's wall-axis rollup wheel (the `/timescales` source),
    /// for front ends that export it at exit.
    #[must_use]
    pub fn rollups(&self) -> &std::sync::Arc<spindle_obs::RollupSet> {
        self.sampler.rollups()
    }

    /// Final frame, optional [`serve_linger`] for late scrapers, then
    /// an orderly stop (dashboard, server, sampler).
    pub fn finish(self) {
        self.finish_with_linger(serve_linger());
    }

    /// [`Session::finish`] with an explicit linger (tests drive this
    /// directly so they need not touch the process environment).
    ///
    /// While the endpoint lingers past run completion, `/status`
    /// reports phase `"idle"` — not the run's terminal state — so a
    /// long-lived endpoint between runs tells the truth: nothing is
    /// executing. The terminal `"done"` still lands in the final
    /// sampled frame before the switch.
    pub fn finish_with_linger(self, linger: std::time::Duration) {
        self.status.set_phase("done");
        self.sampler.sample_now();
        if let Some(d) = self.dashboard {
            d.stop();
        }
        if let Some(srv) = self.server {
            if !linger.is_zero() {
                self.status.set_phase("idle");
                std::thread::sleep(linger);
            }
            srv.stop();
        }
        self.sampler.stop();
    }
}

/// Bind address used when neither `--serve ADDR` nor [`SERVE_ENV`]
/// provides one.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9184";

/// Resolves the bind address for `--serve [ADDR]`: an explicit
/// address wins, else the [`SERVE_ENV`] variable, else
/// [`DEFAULT_ADDR`].
#[must_use]
pub fn resolve_serve_addr(explicit: Option<&str>) -> String {
    if let Some(addr) = explicit {
        return addr.to_owned();
    }
    match std::env::var(SERVE_ENV) {
        Ok(v) if !v.is_empty() => v,
        _ => DEFAULT_ADDR.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_reports_idle_during_linger() {
        let registry: &'static spindle_obs::MetricsRegistry = Box::leak(Box::default());
        let session = Session::start(registry, Some(Some("127.0.0.1:0")), false, 1, "running")
            .expect("bind port 0")
            .expect("serve requested");
        let addr = session.bound_addr().expect("served");
        session.status.complete_one();
        let finisher = std::thread::spawn(move || {
            session.finish_with_linger(std::time::Duration::from_millis(2000));
        });
        // Inside the linger window the endpoint stays up and reports
        // the idle phase, not the run's terminal state.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let mut stream = std::net::TcpStream::connect(addr).expect("connect during linger");
            use std::io::{Read, Write};
            stream
                .write_all(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
                .expect("send request");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read response");
            if response.contains("\"idle\"") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "phase never became idle: {response}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        finisher.join().expect("finish completes");
    }

    #[test]
    fn explicit_addr_wins() {
        assert_eq!(resolve_serve_addr(Some("0.0.0.0:1")), "0.0.0.0:1");
        // With no explicit address and (almost certainly) no env var in
        // the test environment, the default applies.
        if std::env::var(SERVE_ENV).is_err() {
            assert_eq!(resolve_serve_addr(None), DEFAULT_ADDR);
        }
    }
}
