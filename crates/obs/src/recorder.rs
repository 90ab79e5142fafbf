//! Flight recorder: two correlated timelines for one run.
//!
//! The paper's thesis is that disk behaviour is only legible at the
//! right time-scale; aggregates (counters, span totals) erase exactly
//! the structure that matters. The [`FlightRecorder`] keeps the full
//! per-event record of a run on two clocks:
//!
//! * **Simulated time** — intervals and instants stamped in simulated
//!   nanoseconds, grouped into named synthetic tracks (one per drive
//!   facet: queue, service, idle, events). These are a pure function of
//!   the workload and simulator configuration, so they are
//!   byte-identical across worker counts.
//! * **Wall-clock time** — intervals stamped relative to the recorder's
//!   construction instant, grouped by thread label: [`ObsSpan`]
//!   begin/end pairs and engine worker activity (run/fault/idle).
//!   These describe the host execution and naturally vary run to run.
//!
//! The [`trace_event`](crate::trace_event) module exports both
//! timelines as Chrome trace-event JSON loadable in Perfetto or
//! `chrome://tracing`.
//!
//! Recording takes one mutex acquisition and a `Vec` push per slice.
//! A full recorder ([`FlightRecorder::new`]) is attached only when a
//! caller asks for a trace (`--trace-out`); a run that streams telemetry
//! to a daemon installs a [`FlightRecorder::wall_only`] one, which keeps
//! the few wall-clock slices and drops sim slices, so the simulator
//! never holds it and instrumented hot paths pay a skipped `Option`
//! branch.
//!
//! [`ObsSpan`]: crate::ObsSpan

use crate::json::Json;
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One interval or instant on the simulated-time timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSlice {
    /// Synthetic track name (e.g. `drive.queue`, `drive.service`).
    pub track: String,
    /// What the slice is (e.g. `read`, `write`, `idle`, `destage`).
    pub name: String,
    /// Start, in simulated nanoseconds.
    pub begin_ns: u64,
    /// Duration in simulated nanoseconds; `None` marks an instant
    /// event (a point, not a span).
    pub dur_ns: Option<u64>,
    /// Free-form key→value detail attached to the slice.
    pub args: Vec<(String, Json)>,
}

/// One interval on the wall-clock timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct WallSlice {
    /// Label of the thread that produced the slice.
    pub thread: String,
    /// What the slice is (a span or worker-activity name).
    pub name: String,
    /// Start, in nanoseconds since the recorder's epoch.
    pub begin_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form key→value detail attached to the slice.
    pub args: Vec<(String, Json)>,
}

#[derive(Debug, Default)]
struct Inner {
    sim: Vec<SimSlice>,
    wall: Vec<WallSlice>,
    meta: Vec<(String, Json)>,
}

/// A thread-safe recorder of simulated-time and wall-clock slices.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    sim: bool,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// An empty recorder of both timelines whose wall-clock epoch is
    /// *now*.
    #[must_use]
    pub fn new() -> Self {
        FlightRecorder {
            epoch: Instant::now(),
            sim: true,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// An empty recorder of the wall-clock timeline only: sim slices
    /// and instants are dropped on arrival.
    #[must_use]
    pub fn wall_only() -> Self {
        FlightRecorder {
            sim: false,
            ..Self::new()
        }
    }

    /// Whether simulated-time slices are kept.
    #[must_use]
    pub fn records_sim(&self) -> bool {
        self.sim
    }

    /// The instant wall-clock slices are measured against.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("flight recorder not poisoned")
    }

    /// Records an interval on a simulated-time track.
    pub fn sim_slice(
        &self,
        track: &str,
        name: &str,
        begin_ns: u64,
        dur_ns: u64,
        args: Vec<(String, Json)>,
    ) {
        if !self.sim {
            return;
        }
        self.lock().sim.push(SimSlice {
            track: track.to_owned(),
            name: name.to_owned(),
            begin_ns,
            dur_ns: Some(dur_ns),
            args,
        });
    }

    /// Records an instant event on a simulated-time track.
    pub fn sim_instant(&self, track: &str, name: &str, t_ns: u64, args: Vec<(String, Json)>) {
        if !self.sim {
            return;
        }
        self.lock().sim.push(SimSlice {
            track: track.to_owned(),
            name: name.to_owned(),
            begin_ns: t_ns,
            dur_ns: None,
            args,
        });
    }

    /// Records a wall-clock interval that started at `begin` and lasted
    /// `dur`, attributed to the calling thread's label.
    ///
    /// A `begin` earlier than the recorder's epoch is clamped to the
    /// epoch rather than wrapping.
    pub fn wall_slice(&self, name: &str, begin: Instant, dur: Duration, args: Vec<(String, Json)>) {
        let begin_ns = begin
            .checked_duration_since(self.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.lock().wall.push(WallSlice {
            thread: thread_label(),
            name: name.to_owned(),
            begin_ns,
            dur_ns,
            args,
        });
    }

    /// Attaches a run-level metadata entry (exported verbatim in the
    /// trace document). A repeated key overwrites the earlier value.
    pub fn set_meta(&self, key: &str, value: Json) {
        let mut inner = self.lock();
        match inner.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => inner.meta.push((key.to_owned(), value)),
        }
    }

    /// The simulated-time slices recorded so far (insertion order).
    #[must_use]
    pub fn sim_slices(&self) -> Vec<SimSlice> {
        self.lock().sim.clone()
    }

    /// The wall-clock slices recorded so far (insertion order).
    #[must_use]
    pub fn wall_slices(&self) -> Vec<WallSlice> {
        self.lock().wall.clone()
    }

    /// The metadata entries recorded so far.
    #[must_use]
    pub fn meta(&self) -> Vec<(String, Json)> {
        self.lock().meta.clone()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let inner = self.lock();
        inner.sim.is_empty() && inner.wall.is_empty() && inner.meta.is_empty()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide recorder slot used by CLI-level instrumentation.
///
/// [`ObsSpan`](crate::ObsSpan) and deep pipeline layers report through
/// this slot when a front end installs a recorder; with the slot empty
/// (the default) [`installed`] is a single relaxed atomic load.
static INSTALLED: OnceLock<Mutex<Option<Arc<FlightRecorder>>>> = OnceLock::new();
static PRESENT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn slot() -> &'static Mutex<Option<Arc<FlightRecorder>>> {
    INSTALLED.get_or_init(|| Mutex::new(None))
}

/// Installs `recorder` as the process-wide recorder, replacing any
/// previous one (the front end that installs a recorder keeps its own
/// `Arc` for export, so replacement never loses data).
pub fn install(recorder: Arc<FlightRecorder>) {
    *slot().lock().expect("recorder slot not poisoned") = Some(recorder);
    PRESENT.store(true, std::sync::atomic::Ordering::Release);
}

/// Removes the process-wide recorder, if any.
pub fn uninstall() {
    PRESENT.store(false, std::sync::atomic::Ordering::Release);
    *slot().lock().expect("recorder slot not poisoned") = None;
}

/// The process-wide recorder, when one is installed.
#[must_use]
pub fn installed() -> Option<Arc<FlightRecorder>> {
    if !PRESENT.load(std::sync::atomic::Ordering::Acquire) {
        return None;
    }
    slot().lock().expect("recorder slot not poisoned").clone()
}

thread_local! {
    static THREAD_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Sets the calling thread's label for wall-clock slices (e.g.
/// `worker3`). Unlabeled threads fall back to the std thread name, then
/// to a generic id-derived label.
pub fn set_thread_label(label: impl Into<String>) {
    let label = label.into();
    THREAD_LABEL.with(|l| *l.borrow_mut() = Some(label));
}

/// The calling thread's wall-track label.
#[must_use]
pub fn thread_label() -> String {
    THREAD_LABEL.with(|l| {
        if let Some(label) = l.borrow().as_ref() {
            return label.clone();
        }
        let current = std::thread::current();
        match current.name() {
            Some(name) => name.to_owned(),
            // ThreadId's Debug form ("ThreadId(7)") is the only stable
            // accessor; squeeze it into a readable label.
            None => format!("{:?}", current.id())
                .replace("ThreadId(", "thread-")
                .replace(')', ""),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_record_on_both_timelines() {
        let rec = FlightRecorder::new();
        assert!(rec.is_empty());
        rec.sim_slice("drive.queue", "read", 100, 50, vec![]);
        rec.sim_instant("drive.events", "cache_hit", 120, vec![]);
        rec.wall_slice(
            "cli.simulate",
            Instant::now(),
            Duration::from_millis(1),
            vec![],
        );
        let sim = rec.sim_slices();
        assert_eq!(sim.len(), 2);
        assert_eq!(sim[0].dur_ns, Some(50));
        assert_eq!(sim[1].dur_ns, None);
        let wall = rec.wall_slices();
        assert_eq!(wall.len(), 1);
        assert_eq!(wall[0].dur_ns, 1_000_000);
        assert!(!rec.is_empty());
    }

    #[test]
    fn wall_only_recorder_drops_sim_slices() {
        let rec = FlightRecorder::wall_only();
        assert!(!rec.records_sim());
        assert!(FlightRecorder::new().records_sim());
        rec.sim_slice("drive.queue", "read", 100, 50, vec![]);
        rec.sim_instant("drive.events", "cache_hit", 120, vec![]);
        rec.wall_slice(
            "cli.simulate",
            rec.epoch(),
            Duration::from_millis(1),
            vec![],
        );
        assert!(rec.sim_slices().is_empty());
        assert_eq!(rec.wall_slices().len(), 1);
    }

    #[test]
    fn wall_begin_before_epoch_clamps_to_zero() {
        let earlier = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let rec = FlightRecorder::new();
        rec.wall_slice("early", earlier, Duration::from_nanos(5), vec![]);
        assert_eq!(rec.wall_slices()[0].begin_ns, 0);
    }

    #[test]
    fn meta_overwrites_by_key() {
        let rec = FlightRecorder::new();
        rec.set_meta("k", Json::Uint(1));
        rec.set_meta("k", Json::Uint(2));
        rec.set_meta("other", Json::Str("x".into()));
        let meta = rec.meta();
        assert_eq!(meta.len(), 2);
        assert_eq!(meta[0], ("k".to_owned(), Json::Uint(2)));
    }

    #[test]
    fn install_replaces_and_uninstall_clears() {
        let a = Arc::new(FlightRecorder::new());
        let b = Arc::new(FlightRecorder::new());
        install(Arc::clone(&a));
        assert!(Arc::ptr_eq(&installed().unwrap(), &a));
        install(Arc::clone(&b));
        assert!(Arc::ptr_eq(&installed().unwrap(), &b));
        uninstall();
        assert!(installed().is_none());
    }

    #[test]
    fn thread_labels_are_settable() {
        std::thread::spawn(|| {
            set_thread_label("worker7");
            assert_eq!(thread_label(), "worker7");
        })
        .join()
        .expect("no panic");
        // Test threads carry the test name, so the fallback is the std
        // thread name, never empty.
        assert!(!thread_label().is_empty());
    }
}
