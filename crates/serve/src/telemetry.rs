//! Daemon-side half of the cross-process telemetry plane.
//!
//! Every job child the runner spawns gets a private loopback sink
//! address in [`SINK_ENV`](spindle_obs::frame::SINK_ENV); a child
//! built on `spindle-pulse` connects back and streams
//! [`Frame`](spindle_obs::frame::Frame)s — a progress heartbeat every
//! export tick, then one span frame per wall span and a `Bye` at exit.
//! Every streamed span is stored as a child wall span, whatever origin
//! its frame claims, so a child can never write onto the daemon's
//! timeline or into the span slots held back for it. The job's registry
//! numbers are not on the stream: their one home is the `metrics.json`
//! and `timescales.json` artifacts the run writes itself. This module
//! holds the telemetry half of what the daemon keeps per job:
//!
//! * [`JobTelemetry`] — owned by the job's record in the job table — a
//!   bounded [`EventRing`] feeding `GET /jobs/ID/events`, progress state
//!   driving the job ETA, the liveness clock the runner's stall check reads,
//!   the stream's frame and byte counters, and the bounded trace-span
//!   store behind `GET /jobs/ID/trace`. The lifecycle events and spans
//!   in it are written from the record's transitions; the rest comes
//!   from the child's frames, the runner's heartbeats and the spans the
//!   runner measures (admission, spawn, finalization).
//! * [`Sink`] — the per-job listener plus the ingest thread that
//!   blocks in `accept` for the child's one connection, decodes the
//!   stream and unparks the runner when it ends. A child that never
//!   connects is ended by the runner's one loopback wake after the
//!   child exits ([`Sink::finish`]). Hostile bytes can never hurt the
//!   daemon: a decode error is counted, noted on the event stream, and
//!   ends ingest for that job (the framing has no resync point),
//!   nothing more.
//!
//! Backpressure policy, receiver side: the event ring is bounded, and
//! a consumer that falls behind loses the oldest events — never the
//! newest — with the exact count of what it missed reported in-band.
//! `received + dropped == produced` always holds, so a watcher can
//! tell silence from loss.

use crate::trace::JobSpans;
use spindle_obs::frame::{render_args, Frame, FrameDecoder, SpanOrigin, TraceSpan};
use spindle_obs::json::Json;
use spindle_obs::MetricsRegistry;
use spindle_pulse::sampler::SampleWindow;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default per-job event ring capacity ([`crate::ServeConfig`] can
/// lower it; tests do, to force drops deterministically).
pub(crate) const DEFAULT_EVENT_RING_CAP: usize = 256;

/// Default runner heartbeat cadence in milliseconds: lifecycle events
/// pushed while a child runs, so even a child that never speaks the
/// frame protocol produces a live event stream.
pub(crate) const DEFAULT_HEARTBEAT_MS: u64 = 250;

/// Read timeout on an accepted ingest stream (bounds how long the
/// ingest thread takes to notice the child is gone).
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// How long ingest keeps draining after the child exited — the final
/// flush races process death, and loopback delivery is fast.
const DRAIN_GRACE: Duration = Duration::from_millis(2000);

/// Bounded progress-sample window per job.
const ETA_SAMPLE_WINDOW: usize = 64;

/// Bound on trace spans retained per job — daemon lifecycle spans plus
/// whatever the child ships. Overflow is counted, never silently lost:
/// `retained + dropped == produced` holds for spans exactly as it does
/// for the event ring.
pub(crate) const TRACE_SPAN_CAP: usize = 4096;

/// Slice of [`TRACE_SPAN_CAP`] held back for daemon-origin spans. The
/// child is another process, and a hostile or runaway one can ship up
/// to its own cap of spans per attempt, over several attempts; if they
/// could fill the whole store, the handful of lifecycle spans recorded
/// at the *end* of an attempt (the attempt span itself, finalize)
/// would be the first casualties — and they are the part of the trace
/// only the daemon can tell.
pub(crate) const DAEMON_SPAN_RESERVE: usize = 256;

/// Bounded span buffer with exact drop accounting. Child (bulk) spans
/// may use at most `cap - reserve` slots; daemon spans may use any
/// slot up to `cap`.
struct SpanStore {
    cap: usize,
    reserve: usize,
    bulk: usize,
    spans: Vec<TraceSpan>,
    dropped: u64,
}

impl SpanStore {
    fn new(cap: usize) -> SpanStore {
        let cap = cap.max(2);
        SpanStore {
            cap,
            reserve: DAEMON_SPAN_RESERVE.min(cap / 2),
            bulk: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, span: TraceSpan) {
        let fits = if span.origin == SpanOrigin::Daemon {
            self.spans.len() < self.cap
        } else {
            self.spans.len() < self.cap && self.bulk < self.cap - self.reserve
        };
        if fits {
            if span.origin != SpanOrigin::Daemon {
                self.bulk += 1;
            }
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// A bounded, sequence-numbered event buffer. Producers never block:
/// when full, the oldest event is evicted and the gap stays visible as
/// a sequence-number hole, so every consumer can compute exactly how
/// many events it missed.
pub(crate) struct EventRing {
    cap: usize,
    next_seq: u64,
    events: VecDeque<(u64, String)>,
}

impl EventRing {
    fn new(cap: usize) -> EventRing {
        EventRing {
            cap: cap.max(1),
            next_seq: 0,
            events: VecDeque::new(),
        }
    }

    fn push(&mut self, rendered: String) {
        self.events.push_back((self.next_seq, rendered));
        self.next_seq += 1;
        while self.events.len() > self.cap {
            self.events.pop_front();
        }
    }

    /// Everything at or after `cursor`, plus the exact count of events
    /// in `[cursor, oldest_retained)` that were evicted before this
    /// consumer saw them. The caller's next cursor is [`next_seq`].
    ///
    /// [`next_seq`]: EventRing::next_seq
    fn since(&self, cursor: u64) -> (u64, Vec<(u64, String)>) {
        let dropped = match self.events.front() {
            Some(&(front, _)) if front > cursor => front - cursor,
            Some(_) => 0,
            None => self.next_seq.saturating_sub(cursor),
        };
        let out = self
            .events
            .iter()
            .filter(|(seq, _)| *seq >= cursor)
            .cloned()
            .collect();
        (dropped, out)
    }

    fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Progress reported by the job's own frames, with the sample window
/// the ETA is derived from.
struct ProgressState {
    phase: String,
    completed: u64,
    total: u64,
    /// `completed` sampled at each progress change, stamped with
    /// daemon milliseconds since the telemetry epoch.
    samples: SampleWindow,
}

/// Everything the daemon holds for one job's telemetry.
pub(crate) struct JobTelemetry {
    /// The instant daemon-side trace spans are measured against.
    pub(crate) epoch: Instant,
    events: Mutex<EventRing>,
    progress: Mutex<ProgressState>,
    pub(crate) frames: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) decode_errors: AtomicU64,
    pub(crate) torn: AtomicBool,
    closed: AtomicBool,
    /// Milliseconds since `epoch` when the last frame was decoded —
    /// the liveness signal the runner's stall check reads.
    last_frame_ms: AtomicU64,
    /// Trace spans: daemon lifecycle spans plus whatever the child
    /// ships over the frame protocol.
    spans: Mutex<SpanStore>,
    /// `daemon elapsed at Hello decode − child span-clock elapsed at
    /// Hello encode`, valid only when `offset_known`; shifts child
    /// wall spans onto the daemon timeline.
    clock_offset_ns: AtomicI64,
    offset_known: AtomicBool,
}

impl JobTelemetry {
    pub(crate) fn new(ring_cap: usize) -> JobTelemetry {
        JobTelemetry {
            epoch: Instant::now(),
            events: Mutex::new(EventRing::new(ring_cap)),
            progress: Mutex::new(ProgressState {
                phase: String::new(),
                completed: 0,
                total: 0,
                samples: SampleWindow::new(ETA_SAMPLE_WINDOW),
            }),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            torn: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            last_frame_ms: AtomicU64::new(0),
            spans: Mutex::new(SpanStore::new(TRACE_SPAN_CAP)),
            clock_offset_ns: AtomicI64::new(0),
            offset_known: AtomicBool::new(false),
        }
    }

    /// Records one daemon lifecycle span on the `daemon` track of the
    /// daemon timeline; without a duration it is an instant event.
    pub(crate) fn daemon_span(
        &self,
        name: &str,
        begin: Instant,
        dur: Option<Duration>,
        args: Vec<(&str, Json)>,
    ) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let args: Vec<_> = args.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        self.push_span(TraceSpan {
            origin: SpanOrigin::Daemon,
            track: "daemon".to_owned(),
            name: name.to_owned(),
            begin_ns: begin.checked_duration_since(self.epoch).map_or(0, ns),
            dur_ns: dur.map(ns),
            args: render_args(&args),
        });
    }

    fn push_span(&self, span: TraceSpan) {
        self.spans.lock().expect("span store lock").push(span);
    }

    /// Everything retained for trace assembly of job `id`, with the
    /// exact count of spans the bound shed.
    pub(crate) fn trace_spans(&self, id: &str) -> JobSpans {
        let store = self.spans.lock().expect("span store lock");
        JobSpans {
            id: id.to_owned(),
            spans: store.spans.clone(),
            offset_ns: self.child_offset_ns(),
            dropped: store.dropped,
        }
    }

    /// Refills the span store from a persisted span set (a finished job
    /// replayed on resume), so its trace reads as it did before.
    pub(crate) fn restore(&self, job: JobSpans) {
        let mut store = self.spans.lock().expect("span store lock");
        for span in job.spans {
            store.push(span);
        }
        store.dropped = store.dropped.saturating_add(job.dropped);
        if let Some(offset) = job.offset_ns {
            self.clock_offset_ns.store(offset, Ordering::Release);
            self.offset_known.store(true, Ordering::Release);
        }
    }

    /// The Hello-derived clock offset, once a child has said hello.
    pub(crate) fn child_offset_ns(&self) -> Option<i64> {
        if self.offset_known.load(Ordering::Acquire) {
            Some(self.clock_offset_ns.load(Ordering::Acquire))
        } else {
            None
        }
    }

    /// Seconds since the last decoded frame; `None` until the child
    /// speaks the frame protocol at all (a mute child is not a stalled
    /// one — plenty of job binaries never connect the exporter).
    pub(crate) fn frame_silence_secs(&self) -> Option<f64> {
        if self.frames.load(Ordering::Acquire) == 0 {
            return None;
        }
        let last = self.last_frame_ms.load(Ordering::Acquire);
        let now = self.t_ms();
        Some(now.saturating_sub(last) as f64 / 1000.0)
    }

    /// Marks the liveness clock: per decoded frame, and at an attempt
    /// start, so a retry is not judged stalled by the previous
    /// attempt's last frame time.
    pub(crate) fn mark_alive(&self) {
        self.last_frame_ms.store(self.t_ms(), Ordering::Release);
    }

    fn t_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Pushes one event: `{"type":KIND,"t_ms":...,FIELDS...}`.
    pub(crate) fn event(&self, kind: &str, fields: Vec<(&'static str, Json)>) {
        let mut members = vec![
            ("type".to_owned(), Json::Str(kind.to_owned())),
            ("t_ms".to_owned(), Json::Uint(self.t_ms())),
        ];
        members.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
        let rendered = Json::Obj(members).to_string();
        self.events.lock().expect("event ring lock").push(rendered);
    }

    /// `(dropped, events, next_cursor)` for a consumer at `cursor`.
    pub(crate) fn events_since(&self, cursor: u64) -> (u64, Vec<(u64, String)>, u64) {
        let ring = self.events.lock().expect("event ring lock");
        let (dropped, events) = ring.since(cursor);
        (dropped, events, ring.next_seq())
    }

    /// `(phase, completed, total)` from the job's own frames.
    pub(crate) fn progress(&self) -> (String, u64, u64) {
        let p = self.progress.lock().expect("progress lock");
        (p.phase.clone(), p.completed, p.total)
    }

    /// The job's remaining work over its steady progress rate, by the
    /// `/status` rule ([`SampleWindow::eta_secs`]): `None` until the window
    /// fills, and once the job reports no work left.
    pub(crate) fn eta_secs(&self) -> Option<f64> {
        let p = self.progress.lock().expect("progress lock");
        p.samples.eta_secs(p.completed, p.total)
    }

    /// Applies one decoded frame: progress changes become events and
    /// ETA samples, spans land in the span store as child wall spans.
    pub(crate) fn apply_frame(&self, frame: Frame) {
        match frame {
            Frame::Hello {
                pid,
                label,
                epoch_ns,
            } => {
                // Both clocks are read "now" (encode races decode by
                // one loopback hop): daemon elapsed minus child
                // elapsed is the shift that puts the child's wall
                // spans on the daemon timeline.
                let here = i64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(i64::MAX);
                let there = i64::try_from(epoch_ns).unwrap_or(i64::MAX);
                self.clock_offset_ns
                    .store(here.saturating_sub(there), Ordering::Release);
                self.offset_known.store(true, Ordering::Release);
                self.event(
                    "hello",
                    vec![
                        ("pid", Json::Uint(u64::from(pid))),
                        ("label", Json::Str(label)),
                    ],
                );
            }
            Frame::Span(span) => self.push_span(TraceSpan {
                origin: SpanOrigin::ChildWall,
                ..span
            }),
            Frame::Progress {
                completed,
                total,
                phase,
            } => {
                // Every tick ships a progress frame as the heartbeat;
                // only a change is news for the ETA and the watchers.
                {
                    let mut p = self.progress.lock().expect("progress lock");
                    if (p.phase.as_str(), p.completed, p.total)
                        == (phase.as_str(), completed, total)
                    {
                        return;
                    }
                    p.phase.clone_from(&phase);
                    p.completed = completed;
                    p.total = total;
                    p.samples.push(self.t_ms(), completed as f64);
                }
                self.event(
                    "progress",
                    vec![
                        ("phase", Json::Str(phase)),
                        ("completed", Json::Uint(completed)),
                        ("total", Json::Uint(total)),
                    ],
                );
            }
            Frame::Bye {
                frames_sent,
                spans_dropped,
            } => {
                // The child's own shed count carries through, so
                // end-to-end `retained + dropped == produced` holds
                // across the process boundary.
                let mut store = self.spans.lock().expect("span store lock");
                store.dropped = store.dropped.saturating_add(spans_dropped);
                drop(store);
                self.closed.store(true, Ordering::Release);
                self.event("bye", vec![("frames", Json::Uint(frames_sent))]);
            }
        }
    }
}

impl std::fmt::Debug for JobTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTelemetry")
            .field("frames", &self.frames.load(Ordering::Relaxed))
            .field("bytes", &self.bytes.load(Ordering::Relaxed))
            .field("decode_errors", &self.decode_errors.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The per-job telemetry sink: a loopback listener whose address the
/// runner hands the child via `SPINDLE_TELEMETRY_SINK`. The runner
/// keeps it until ingest has joined ([`Sink::finish`]), so the port
/// stays bound: under `--parallel 2+` a port released early could be
/// bound again by another job's sink, and the wake would then end that
/// job's stream.
pub(crate) struct Sink {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Sink {
    pub(crate) fn bind() -> std::io::Result<Sink> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        Ok(Sink { listener, addr })
    }

    pub(crate) fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Starts the ingest thread on a second handle to the listener: it
    /// blocks in `accept` for the child's single connection, ingests it
    /// to EOF, then unparks the calling (runner) thread, since the
    /// child is finishing. `child_done` flips when the child process
    /// exits; it bounds how long ingest drains a stream left open.
    pub(crate) fn spawn_ingest(
        &self,
        tel: Arc<JobTelemetry>,
        registry: &'static MetricsRegistry,
        child_done: Arc<AtomicBool>,
    ) -> std::io::Result<JoinHandle<()>> {
        let listener = self.listener.try_clone()?;
        let runner = std::thread::current();
        std::thread::Builder::new()
            .name("serve-ingest".to_owned())
            .spawn(move || {
                if let Ok((stream, _)) = listener.accept() {
                    ingest_stream(stream, &tel, registry, &child_done);
                }
                runner.unpark();
            })
    }

    /// Ends ingest once the child has exited, and joins it. A child
    /// that never connected leaves the thread in `accept`: this one
    /// loopback connect ends it with zero frames, not torn. A connect
    /// the child made before it exited is queued ahead of this one, so
    /// it is the one ingested; when ingest already has it, the wake
    /// waits unaccepted until the listener closes.
    pub(crate) fn finish(self, ingest: JoinHandle<()>) {
        spindle_pulse::http::wake(self.addr);
        let _ = ingest.join();
    }
}

/// Decodes one child's frame stream to EOF. Never panics on hostile
/// input: a decode error is counted, surfaced as a `telemetry-error`
/// event, and ends ingest (length-prefixed framing has no resync
/// point). A stream that ends without a clean `Bye` — a killed child,
/// a torn final frame — is counted as torn.
pub(crate) fn ingest_stream(
    mut stream: TcpStream,
    tel: &JobTelemetry,
    registry: &MetricsRegistry,
    child_done: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut done_since: Option<Instant> = None;
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                registry.counter("serve.telemetry.bytes").add(n as u64);
                tel.bytes.fetch_add(n as u64, Ordering::Relaxed);
                decoder.push(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            registry.counter("serve.telemetry.frames").inc();
                            tel.mark_alive();
                            tel.frames.fetch_add(1, Ordering::Relaxed);
                            tel.apply_frame(frame);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            registry.counter("serve.telemetry.frame_errors").inc();
                            tel.decode_errors.fetch_add(1, Ordering::Relaxed);
                            tel.event("telemetry-error", vec![("error", Json::Str(e.to_string()))]);
                            return;
                        }
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if child_done.load(Ordering::Acquire) {
                    let since = done_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN_GRACE {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    let clean = tel.closed.load(Ordering::Acquire) && decoder.buffered() == 0;
    let spoke = tel.frames.load(Ordering::Relaxed) > 0 || decoder.buffered() > 0;
    if spoke && !clean {
        tel.torn.store(true, Ordering::Release);
        registry.counter("serve.telemetry.torn_streams").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn event_ring_is_bounded_with_exact_drop_accounting() {
        let mut ring = EventRing::new(8);
        for i in 0..100 {
            ring.push(format!("e{i}"));
        }
        assert_eq!(ring.events.len(), 8, "bounded at cap");
        let (dropped, events) = ring.since(0);
        assert_eq!(dropped, 92);
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().unwrap().0, 92);
        // The accounting invariant a consumer relies on:
        // received + dropped == total produced.
        assert_eq!(dropped + events.len() as u64, ring.next_seq());
        // A caught-up consumer sees no drops and no events.
        let (dropped, events) = ring.since(ring.next_seq());
        assert_eq!((dropped, events.len()), (0, 0));
    }

    #[test]
    fn incremental_consumer_never_sees_phantom_drops() {
        let mut ring = EventRing::new(4);
        let mut cursor = 0;
        let mut received = 0u64;
        let mut dropped_total = 0u64;
        for round in 0..25 {
            // Push fewer than cap per round; a consumer that keeps up
            // loses nothing.
            ring.push(format!("r{round}a"));
            ring.push(format!("r{round}b"));
            let (dropped, events) = ring.since(cursor);
            assert_eq!(dropped, 0, "keeping up loses nothing");
            received += events.len() as u64;
            dropped_total += dropped;
            cursor = ring.next_seq();
        }
        assert_eq!(received + dropped_total, ring.next_seq());
    }

    #[test]
    fn eta_needs_a_steady_window_then_tracks_the_rate() {
        let tel = JobTelemetry::new(64);
        // Fewer than MIN_STEADY_SAMPLES progress frames: clamped to None,
        // however fast the first burst looked.
        for completed in 0..3 {
            tel.apply_frame(Frame::Progress {
                completed,
                total: 100,
                phase: "running".to_owned(),
            });
            std::thread::sleep(Duration::from_millis(15));
        }
        assert_eq!(tel.eta_secs(), None, "steady window not yet filled");
        for completed in 3..8 {
            tel.apply_frame(Frame::Progress {
                completed,
                total: 100,
                phase: "running".to_owned(),
            });
            std::thread::sleep(Duration::from_millis(15));
        }
        let eta = tel.eta_secs().expect("window filled");
        assert!(eta > 0.0 && eta.is_finite(), "eta {eta}");
        let (phase, completed, total) = tel.progress();
        assert_eq!((phase.as_str(), completed, total), ("running", 7, 100));
        // A finished job stops advertising an ETA.
        tel.apply_frame(Frame::Progress {
            completed: 100,
            total: 100,
            phase: "done".to_owned(),
        });
        assert_eq!(tel.eta_secs(), None, "complete means no ETA");
    }

    /// Drives raw bytes through a real socket into `ingest_stream`.
    fn ingest_bytes(bytes: &[u8], tel: &JobTelemetry, registry: &MetricsRegistry) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let payload = bytes.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&payload).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let done = AtomicBool::new(true);
        ingest_stream(stream, tel, registry, &done);
        writer.join().unwrap();
    }

    /// A Hello frame from pid 7, encoded.
    fn hello() -> Vec<u8> {
        Frame::Hello {
            pid: 7,
            label: "t".to_owned(),
            epoch_ns: 0,
        }
        .encode()
    }

    #[test]
    fn hostile_streams_never_panic_and_are_counted() {
        let hello = hello();

        // Pure garbage: huge bogus length prefix -> one typed error.
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        ingest_bytes(&[0xff; 64], &tel, &registry);
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 1);
        assert_eq!(tel.frames.load(Ordering::Relaxed), 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.telemetry.frame_errors"), Some(1));

        // A single flipped bit in a valid frame: checksum error, no
        // frame delivered.
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        let mut flipped = hello.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        ingest_bytes(&flipped, &tel, &registry);
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 1);
        assert_eq!(tel.frames.load(Ordering::Relaxed), 0);

        // Version skew: typed error, counted, stream over.
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        let future = spindle_obs::frame::seal(
            b"{\"kind\":\"hello\",\"version\":6,\"pid\":7,\"label\":\"t\",\"epoch_ns\":0}",
        );
        ingest_bytes(&future, &tel, &registry);
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 1);
        let (_, events, _) = tel.events_since(0);
        assert!(
            events
                .iter()
                .any(|(_, e)| e.contains("telemetry-error") && e.contains("protocol version 6")),
            "{events:?}"
        );

        // A megabyte of nesting inside a checksum-valid frame: the
        // parser's depth limit refuses it, the daemon lives on.
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        let nested = format!("{{\"kind\":\"bye\",\"x\":{}}}", "[".repeat(1 << 20));
        let mut wire = hello.clone();
        wire.extend_from_slice(&spindle_obs::frame::seal(nested.as_bytes()));
        ingest_bytes(&wire, &tel, &registry);
        assert_eq!(tel.frames.load(Ordering::Relaxed), 1, "only hello landed");
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn span_store_stays_bounded_with_exact_drop_accounting() {
        let tel = JobTelemetry::new(16);
        // A slow consumer never reads; the producer ships far more
        // spans than the store holds, and its Bye reports spans it
        // already shed child-side. Every span claims the daemon's
        // timeline: the claim is ignored, so none reaches the reserve.
        let total_sent = TRACE_SPAN_CAP as u64 + 500;
        let child_shed = 7u64;
        for i in 0..total_sent {
            tel.apply_frame(Frame::Span(TraceSpan {
                origin: SpanOrigin::Daemon,
                track: "t".to_owned(),
                name: format!("s{i}"),
                begin_ns: i,
                dur_ns: Some(1),
                args: String::new(),
            }));
        }
        tel.apply_frame(Frame::Bye {
            frames_sent: total_sent,
            spans_dropped: child_shed,
        });
        let JobSpans { spans, dropped, .. } = tel.trace_spans("t");
        let bulk_cap = TRACE_SPAN_CAP - DAEMON_SPAN_RESERVE;
        assert_eq!(spans.len(), bulk_cap, "bulk retention is bounded");
        assert!(
            spans.iter().all(|s| s.origin == SpanOrigin::ChildWall),
            "streamed spans are child wall spans whatever they claim"
        );
        assert_eq!(
            spans.len() as u64 + dropped,
            total_sent + child_shed,
            "retained + dropped == produced, across the process boundary"
        );
        // Daemon lifecycle spans recorded *after* the flood still land:
        // the reserve exists precisely so a chatty child cannot evict
        // the attempt/finalize story told at the end of a run.
        for i in 0..DAEMON_SPAN_RESERVE {
            tel.daemon_span(&format!("late{i}"), Instant::now(), None, Vec::new());
        }
        let JobSpans {
            spans: spans2,
            dropped: dropped2,
            ..
        } = tel.trace_spans("t");
        assert_eq!(spans2.len(), TRACE_SPAN_CAP, "reserve filled to cap");
        assert_eq!(dropped2, dropped, "no daemon span was shed");
        assert!(spans2
            .iter()
            .any(|s| s.origin == SpanOrigin::Daemon && s.name == "late0"));
        // Past the cap even daemon spans drop — but still exactly
        // accounted.
        tel.daemon_span("overflow", Instant::now(), None, Vec::new());
        let JobSpans {
            spans: spans3,
            dropped: dropped3,
            ..
        } = tel.trace_spans("t");
        assert_eq!(spans3.len(), TRACE_SPAN_CAP);
        assert_eq!(dropped3, dropped + 1);
    }

    #[test]
    fn hello_epoch_yields_a_clock_offset_for_child_wall_spans() {
        let tel = JobTelemetry::new(16);
        assert_eq!(tel.child_offset_ns(), None, "no hello, no offset");
        // A child whose span clock started 5 s before its Hello: the
        // offset must place its spans ~5 s in the daemon's past.
        tel.apply_frame(Frame::Hello {
            pid: 1,
            label: "old-clock".to_owned(),
            epoch_ns: 5_000_000_000,
        });
        let offset = tel.child_offset_ns().expect("hello landed");
        assert!(
            (-5_000_000_000..=-4_000_000_000).contains(&offset),
            "offset ≈ -5s: {offset}"
        );
        // A child epoch ≈ 0 (clock started at Hello): offset ≈ the
        // tiny daemon elapsed, i.e. near zero but non-negative.
        let tel2 = JobTelemetry::new(16);
        tel2.apply_frame(Frame::Hello {
            pid: 2,
            label: "fresh".to_owned(),
            epoch_ns: 0,
        });
        let offset2 = tel2.child_offset_ns().expect("hello landed");
        assert!(
            (0..1_000_000_000).contains(&offset2),
            "fresh clock, small positive offset: {offset2}"
        );
    }

    #[test]
    fn unknown_frame_kinds_are_skipped_and_counted_not_fatal() {
        // A checksum-valid frame of an unknown kind between two known
        // frames: the daemon and its bookkeeping survive, but the
        // stream ends there, counted as a decode error and noted on
        // the event feed. The frame behind it is never applied.
        let mut wire = hello();
        wire.extend_from_slice(&spindle_obs::frame::seal(b"{\"kind\":\"gossip\"}"));
        wire.extend_from_slice(
            &Frame::Bye {
                frames_sent: 1,
                spans_dropped: 0,
            }
            .encode(),
        );
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        ingest_bytes(&wire, &tel, &registry);
        assert_eq!(tel.frames.load(Ordering::Relaxed), 1, "only hello landed");
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 1);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.telemetry.frame_errors"), Some(1));
        let (_, events, _) = tel.events_since(0);
        assert!(
            events
                .iter()
                .any(|(_, e)| e.contains("telemetry-error")
                    && e.contains("unknown frame kind `gossip`")),
            "{events:?}"
        );
        assert!(
            !events.iter().any(|(_, e)| e.contains("\"bye\"")),
            "the frame behind the stranger was not applied: {events:?}"
        );
    }

    #[test]
    fn repeated_progress_is_a_heartbeat_not_news() {
        let progress = |completed| Frame::Progress {
            completed,
            total: 8,
            phase: "running".to_owned(),
        };
        let mut wire = hello();
        for _ in 0..5 {
            wire.extend_from_slice(&progress(1).encode());
        }
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(64);
        ingest_bytes(&wire, &tel, &registry);
        assert_eq!(tel.frames.load(Ordering::Relaxed), 6, "every frame counted");
        let silence = tel.frame_silence_secs().expect("spoke");
        assert!(silence < 30.0, "each frame refreshed liveness: {silence}");
        let (_, events, _) = tel.events_since(0);
        let news = events
            .iter()
            .filter(|(_, e)| e.contains("\"type\":\"progress\""))
            .count();
        assert_eq!(news, 1, "one progress event for five frames: {events:?}");
        // One ETA sample too: had each repeat banked one, two changes
        // would fill the steady window; it takes three.
        for completed in 2..=3 {
            std::thread::sleep(Duration::from_millis(5));
            tel.apply_frame(progress(completed));
        }
        assert_eq!(tel.eta_secs(), None, "three samples, not yet steady");
        std::thread::sleep(Duration::from_millis(5));
        tel.apply_frame(progress(4));
        assert!(
            tel.eta_secs().is_some(),
            "the fourth change fills the window"
        );
    }

    #[test]
    fn frame_silence_is_none_for_mute_children_then_tracks_arrivals() {
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        assert_eq!(
            tel.frame_silence_secs(),
            None,
            "a child that never speaks frames cannot stall"
        );
        ingest_bytes(&hello(), &tel, &registry);
        let silence = tel.frame_silence_secs().expect("spoke once");
        assert!(silence < 30.0, "fresh frame, tiny silence: {silence}");
        std::thread::sleep(Duration::from_millis(30));
        let later = tel.frame_silence_secs().expect("still spoke");
        assert!(later >= silence, "silence grows monotonically");
    }

    #[test]
    fn mid_stream_kill_is_torn_but_harmless() {
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        let progress = Frame::Progress {
            completed: 1,
            total: 4,
            phase: "running".to_owned(),
        }
        .encode();
        // Hello, one progress frame, then the process dies mid-frame.
        let mut wire = hello();
        wire.extend_from_slice(&progress);
        wire.extend_from_slice(&progress[..progress.len() / 2]);
        ingest_bytes(&wire, &tel, &registry);
        assert_eq!(tel.frames.load(Ordering::Relaxed), 2, "whole frames landed");
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 0);
        assert!(tel.torn.load(Ordering::Relaxed), "no Bye + torn tail");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.telemetry.torn_streams"), Some(1));
        // A clean stream (Bye, no tail) is not torn.
        let registry = MetricsRegistry::new();
        let tel = JobTelemetry::new(16);
        let mut wire = hello();
        wire.extend_from_slice(
            &Frame::Bye {
                frames_sent: 1,
                spans_dropped: 0,
            }
            .encode(),
        );
        ingest_bytes(&wire, &tel, &registry);
        assert!(!tel.torn.load(Ordering::Relaxed));
        assert_eq!(
            registry.snapshot().counter("serve.telemetry.torn_streams"),
            None
        );
    }

    #[test]
    fn a_child_that_never_connects_ends_ingest_at_the_wake() {
        let registry: &'static MetricsRegistry = Box::leak(Box::default());
        let tel = Arc::new(JobTelemetry::new(16));
        let sink = Sink::bind().unwrap();
        let ingest = sink
            .spawn_ingest(Arc::clone(&tel), registry, Arc::new(AtomicBool::new(true)))
            .unwrap();
        assert!(
            !ingest.is_finished(),
            "ingest waits in accept for the child"
        );
        let t = Instant::now();
        sink.finish(ingest);
        assert!(
            t.elapsed() < Duration::from_millis(500),
            "the wake ends ingest at once, took {:?}",
            t.elapsed()
        );
        assert_eq!(tel.frames.load(Ordering::Relaxed), 0);
        assert_eq!(tel.decode_errors.load(Ordering::Relaxed), 0);
        assert!(!tel.torn.load(Ordering::Relaxed));
    }
}
