//! Child-side telemetry exporter: ships frames to a daemon sink.
//!
//! When a process starts with [`SINK_ENV`] (`SPINDLE_TELEMETRY_SINK`)
//! in its environment — the `spindle serve` runner injects it for
//! every job child, and a plain CLI run can set it by hand — an
//! [`Exporter`] connects to the named `127.0.0.1` address and streams
//! [`Frame`]s: a `Hello`, then one progress frame per tick on a fixed
//! cadence (the daemon's liveness heartbeat, sent whether or not the
//! progress moved), then a final flush (progress, the installed flight
//! recorder's wall spans) and a `Bye`.
//!
//! Only wall spans cross the wire, even from a recorder that also
//! holds sim-time tracks: those belong to the run's own `--trace-out`
//! document, as its registry numbers belong to its `--metrics` dump.
//! A run that streams to a sink without `--trace-out` installs a
//! wall-only recorder, so its simulator records nothing per event.
//!
//! The exporter follows the same read-only discipline as the rest of
//! the pulse crate: it never writes to stdout, never reads or
//! registers metrics (so `--metrics`/`--timescales-out` artifacts stay
//! byte-identical with the exporter on or off), and never fails the
//! run — an unreachable sink is a one-line stderr warning, and a sink
//! that stalls longer than the write timeout or disappears mid-run is
//! dropped silently. Backpressure policy is therefore "the child never
//! blocks": the daemon is responsible for draining its end promptly.

use crate::status::RunStatus;
use spindle_obs::frame::{render_args, Frame, SpanBatch, SpanRec, PROTOCOL_VERSION, SINK_ENV};
use spindle_obs::FlightRecorder;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the exporter ships a progress frame. Finer than the
/// sampler's 250 ms so the daemon's stall watchdog hears a heartbeat
/// well inside any timeout.
pub const EXPORT_CADENCE: Duration = Duration::from_millis(100);

const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Hard cap on span records shipped in the final flush; a pathological
/// recorder (a pool churning through many tiny tasks) must not turn
/// shutdown into a multi-second network stall. Excess is counted, not
/// silently lost.
const MAX_SPAN_RECS: usize = 8192;
/// Records per `Span` frame; keeps every frame well under
/// `MAX_FRAME_LEN` even with long track names and args.
const SPAN_BATCH_RECS: usize = 512;

#[derive(Debug)]
struct Shared {
    status: Arc<RunStatus>,
    stream: Mutex<Option<TcpStream>>,
    epoch: Instant,
    stop: AtomicBool,
    frames_sent: AtomicU64,
    ticks: AtomicU64,
    silenced: AtomicBool,
}

impl Shared {
    fn t_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Writes one frame; a failed or timed-out write drops the sink
    /// for good (the child never blocks on a slow daemon).
    fn send(&self, frame: &Frame) {
        if self.silenced.load(Ordering::Acquire) {
            return;
        }
        let mut guard = self.stream.lock().expect("exporter stream lock");
        if let Some(stream) = guard.as_mut() {
            if stream.write_all(&frame.encode()).is_ok() {
                self.frames_sent.fetch_add(1, Ordering::Relaxed);
            } else {
                *guard = None;
            }
        }
    }

    /// One export tick: a progress frame, changed or not.
    fn tick(&self) {
        // An installed `stall@N` fault wedges the telemetry stream once
        // the tick counter reaches N: the socket stays open and the run
        // keeps going, but no further frame is ever written — the shape
        // the serve watchdog's liveness detector exists to catch.
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        if let Some(plan) = spindle_harden::installed() {
            if plan.stall_at(tick) {
                self.silenced.store(true, Ordering::Release);
                return;
            }
        }
        self.send(&Frame::Progress {
            t_ns: self.t_ns(),
            completed: self.status.completed(),
            total: self.status.total(),
            phase: self.status.phase(),
        });
    }
}

/// A live telemetry export to one sink address.
///
/// Dropping without [`Exporter::finish`] stops the thread but skips
/// the final flush; the receiver sees a torn tail, which it must
/// tolerate anyway (children can be killed).
#[derive(Debug)]
pub struct Exporter {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Exporter {
    /// Starts an exporter when [`SINK_ENV`] names a sink, else `None`.
    /// A sink that cannot be reached is a stderr warning, never an
    /// error: telemetry must not fail the run.
    #[must_use]
    pub fn from_env(status: Arc<RunStatus>, label: &str) -> Option<Exporter> {
        let addr = std::env::var(SINK_ENV).ok().filter(|v| !v.is_empty())?;
        match Exporter::start(&addr, status, label) {
            Ok(exporter) => Some(exporter),
            Err(e) => {
                eprintln!("# telemetry export to {addr} unavailable: {e}");
                None
            }
        }
    }

    /// Connects to `addr` and starts the export thread.
    ///
    /// # Errors
    ///
    /// Fails when the sink address does not resolve or accept.
    pub fn start(addr: &str, status: Arc<RunStatus>, label: &str) -> std::io::Result<Exporter> {
        let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let target = resolved.first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "sink did not resolve")
        })?;
        let stream = TcpStream::connect_timeout(target, CONNECT_TIMEOUT)?;
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        let shared = Arc::new(Shared {
            status,
            stream: Mutex::new(Some(stream)),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            frames_sent: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            silenced: AtomicBool::new(false),
        });
        // The Hello's epoch field is "nanoseconds elapsed on my span
        // clock right now": the receiver subtracts it from its own
        // clock to place this child's wall spans on the daemon
        // timeline. When a flight recorder is installed its epoch is
        // the span clock; otherwise the exporter's own epoch stands in
        // (elapsed ≈ 0, so the offset degrades to "Hello arrival").
        let span_epoch = spindle_obs::recorder::installed().map_or(shared.epoch, |r| r.epoch());
        shared.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            pid: std::process::id(),
            label: label.to_owned(),
            epoch_ns: u64::try_from(span_epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("pulse-export".to_owned())
            .spawn(move || {
                while !worker.stop.load(Ordering::Acquire) {
                    std::thread::park_timeout(EXPORT_CADENCE);
                    if worker.stop.load(Ordering::Acquire) {
                        break;
                    }
                    worker.tick();
                }
            })
            .expect("exporter thread spawns");
        Ok(Exporter {
            shared,
            handle: Mutex::new(Some(handle)),
        })
    }

    /// Stops the export thread, then flushes the final progress frame,
    /// the installed flight recorder's wall spans when there is one,
    /// and a `Bye`.
    pub fn finish(self) {
        self.shared.stop.store(true, Ordering::Release);
        let handle = self.handle.lock().expect("exporter handle lock").take();
        if let Some(h) = handle {
            h.thread().unpark();
            let _ = h.join();
        }
        self.shared.tick();
        let t_ns = self.shared.t_ns();
        if let Some(recorder) = spindle_obs::recorder::installed() {
            for frame in span_frames(&recorder, t_ns) {
                self.shared.send(&frame);
            }
        }
        self.shared.send(&Frame::Bye {
            t_ns,
            frames_sent: self.shared.frames_sent.load(Ordering::Relaxed),
        });
    }
}

/// Batches the recorder's wall slices into `Span` frames. When the
/// [`MAX_SPAN_RECS`] cap bites, the shortfall lands in the last batch's
/// `dropped` count.
fn span_frames(recorder: &FlightRecorder, t_ns: u64) -> Vec<Frame> {
    let mut recs: Vec<SpanRec> = recorder
        .wall_slices()
        .into_iter()
        .map(|w| SpanRec {
            track: w.thread,
            name: w.name,
            begin_ns: w.begin_ns,
            dur_ns: Some(w.dur_ns),
            args: render_args(&w.args),
        })
        .collect();
    let dropped = u64::try_from(recs.len().saturating_sub(MAX_SPAN_RECS)).unwrap_or(u64::MAX);
    recs.truncate(MAX_SPAN_RECS);
    if recs.is_empty() && dropped == 0 {
        return Vec::new();
    }
    let mut frames = Vec::new();
    let mut iter = recs.into_iter().peekable();
    loop {
        let chunk: Vec<SpanRec> = iter.by_ref().take(SPAN_BATCH_RECS).collect();
        let last = iter.peek().is_none();
        frames.push(Frame::Span(SpanBatch {
            t_ns,
            dropped: if last { dropped } else { 0 },
            spans: chunk,
        }));
        if last {
            break;
        }
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_obs::json::Json;
    use spindle_obs::FrameDecoder;
    use std::io::Read;
    use std::net::TcpListener;

    /// The fault-plan slot is process-global, so every test that runs
    /// an exporter serializes on this lock — otherwise a concurrently
    /// installed `stall@` plan would silence an unrelated exporter.
    fn plan_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn drain_frames(mut sock: TcpStream) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match sock.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => dec.push(&buf[..n]),
            }
            while let Some(f) = dec.next_frame().expect("exporter emits valid frames") {
                frames.push(f);
            }
        }
        assert_eq!(dec.buffered(), 0, "clean shutdown leaves no torn tail");
        frames
    }

    #[test]
    fn exports_hello_progress_and_bye() {
        let _serial = plan_guard();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr").to_string();
        let status = Arc::new(RunStatus::new(8));
        status.set_phase("running");
        let exporter = Exporter::start(&addr, Arc::clone(&status), "unit").expect("connect");
        let (sock, _) = listener.accept().expect("exporter connects");
        status.complete_one();
        status.complete_one();
        std::thread::sleep(Duration::from_millis(250));
        exporter.finish();
        let frames = drain_frames(sock);
        assert!(
            matches!(&frames[0], Frame::Hello { version, label, .. }
                if *version == PROTOCOL_VERSION && label == "unit"),
            "stream opens with hello: {:?}",
            frames.first()
        );
        let Some(Frame::Bye { frames_sent, .. }) = frames.last() else {
            panic!("stream closes with bye: {:?}", frames.last());
        };
        assert_eq!(*frames_sent, frames.len() as u64 - 1, "bye counts the rest");
        let final_progress = frames
            .iter()
            .rev()
            .find_map(|f| match f {
                Frame::Progress {
                    completed,
                    total,
                    phase,
                    ..
                } => Some((*completed, *total, phase.as_str())),
                _ => None,
            })
            .expect("at least one progress frame");
        assert_eq!(final_progress, (2, 8, "running"));
    }

    #[test]
    fn every_tick_ships_a_progress_frame() {
        let _serial = plan_guard();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr").to_string();
        // The status never moves: the progress frame is the heartbeat,
        // so it ships on every tick all the same.
        let status = Arc::new(RunStatus::new(4));
        status.set_phase("steady");
        let exporter = Exporter::start(&addr, status, "steady").expect("connect");
        let shared = Arc::clone(&exporter.shared);
        let (sock, _) = listener.accept().expect("exporter connects");
        std::thread::sleep(EXPORT_CADENCE * 4);
        exporter.finish();
        // The final flush is a tick too. Dropping the last handle
        // closes the socket, which ends the drain.
        let ticks = shared.ticks.load(Ordering::Relaxed);
        drop(shared);
        let frames = drain_frames(sock);
        let progress: Vec<_> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Progress {
                    completed,
                    total,
                    phase,
                    ..
                } => Some((*completed, *total, phase.as_str())),
                _ => None,
            })
            .collect();
        assert!(ticks >= 2, "the export thread ticked: {ticks}");
        assert_eq!(progress.len() as u64, ticks, "one progress frame per tick");
        assert!(
            progress.iter().all(|p| *p == (0, 4, "steady")),
            "{progress:?}"
        );
        assert_eq!(
            frames.len(),
            progress.len() + 2,
            "hello, progress…, bye and nothing else: {frames:?}"
        );
    }

    #[test]
    fn finish_ships_recorder_spans_before_bye() {
        let _serial = plan_guard();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr").to_string();
        let recorder = Arc::new(FlightRecorder::new());
        recorder.wall_slice(
            "cli.simulate",
            recorder.epoch(),
            Duration::from_millis(3),
            vec![("phase".to_owned(), Json::Str("run".to_owned()))],
        );
        recorder.sim_slice("drive.queue", "read", 1_000, 2_000, Vec::new());
        spindle_obs::recorder::install(Arc::clone(&recorder));
        let status = Arc::new(RunStatus::new(1));
        let exporter = Exporter::start(&addr, status, "spans").expect("connect");
        let (sock, _) = listener.accept().expect("exporter connects");
        exporter.finish();
        spindle_obs::recorder::uninstall();
        let frames = drain_frames(sock);
        let hello_epoch = match &frames[0] {
            Frame::Hello { epoch_ns, .. } => *epoch_ns,
            other => panic!("expected hello, got {other:?}"),
        };
        assert!(
            hello_epoch > 0,
            "hello carries the recorder's clock reading, not zero"
        );
        let batch = frames
            .iter()
            .find_map(|f| match f {
                Frame::Span(b) => Some(b),
                _ => None,
            })
            .expect("a span batch ships in the final flush");
        assert_eq!(batch.dropped, 0);
        // The recorder holds sim slices too; only the wall one ships.
        assert_eq!(batch.spans.len(), 1, "{:?}", batch.spans);
        let wall = &batch.spans[0];
        assert_eq!(wall.name, "cli.simulate");
        assert_eq!(wall.dur_ns, Some(3_000_000));
        assert!(
            wall.args.contains("\"phase\""),
            "args render: {}",
            wall.args
        );
        assert!(
            matches!(frames.last(), Some(Frame::Bye { .. })),
            "bye still closes the stream"
        );
    }

    #[test]
    fn absent_env_means_no_exporter() {
        // The test runner never sets the sink env for this process.
        if std::env::var(SINK_ENV).is_ok() {
            return;
        }
        let status = Arc::new(RunStatus::new(0));
        assert!(Exporter::from_env(status, "x").is_none());
    }

    #[test]
    fn unreachable_sink_is_not_an_error_path_that_panics() {
        let status = Arc::new(RunStatus::new(0));
        // Port 1 on localhost is essentially never listening.
        assert!(Exporter::start("127.0.0.1:1", status, "x").is_err());
    }

    #[test]
    fn stall_fault_silences_the_stream_without_closing_it() {
        let _serial = plan_guard();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr").to_string();
        let status = Arc::new(RunStatus::new(4));
        spindle_harden::install(Arc::new(
            spindle_harden::FaultPlan::parse("stall@0").expect("valid plan"),
        ));
        let exporter = Exporter::start(&addr, Arc::clone(&status), "wedged").expect("connect");
        let (mut sock, _) = listener.accept().expect("exporter connects");
        // Give the export thread several cadences to (not) speak.
        std::thread::sleep(Duration::from_millis(400));
        exporter.finish();
        spindle_harden::uninstall();
        sock.set_read_timeout(Some(Duration::from_secs(2))).ok();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match sock.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => dec.push(&buf[..n]),
            }
            while let Some(f) = dec.next_frame().expect("valid frames") {
                frames.push(f);
            }
        }
        // Only the pre-tick Hello escapes; the wedge swallows every
        // later frame including the final Bye — a torn stream, exactly
        // what the serve stall detector keys on.
        assert_eq!(frames.len(), 1, "only hello before the wedge: {frames:?}");
        assert!(matches!(&frames[0], Frame::Hello { label, .. } if label == "wedged"));
    }

    #[test]
    fn vanished_sink_never_stalls_or_panics_the_run() {
        let _serial = plan_guard();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("sink addr").to_string();
        let status = Arc::new(RunStatus::new(1));
        let exporter = Exporter::start(&addr, Arc::clone(&status), "gone").expect("connect");
        let (sock, _) = listener.accept().expect("exporter connects");
        drop(sock);
        drop(listener);
        // Keep exporting into the closed socket until the failure is
        // observed; writes go to a dead peer, which must simply drop
        // the sink.
        let deadline = Instant::now() + Duration::from_secs(10);
        let connected = || {
            exporter
                .shared
                .stream
                .lock()
                .expect("stream lock")
                .is_some()
        };
        while connected() && Instant::now() < deadline {
            status.complete_one();
            std::thread::sleep(Duration::from_millis(20));
        }
        exporter.finish();
    }
}
