//! Simulator instrumentation.
//!
//! [`DiskSim`](crate::sim::DiskSim) reports each outcome of the
//! simulated service process exactly once — a served request, an idle
//! gap, a destage — as one crate-private `Outcome` record, and
//! [`SimObserver`] derives every sink from that record: pre-resolved
//! registry counters and histograms (no name lookups on the hot path),
//! the sim-axis rollup wheel, and the flight recorder's simulated-time
//! slices and instants. With no observer attached (the default) the
//! simulator pays only an untaken `Option` branch per outcome, keeping
//! benchmark numbers unchanged.
//!
//! Metric names exported here:
//!
//! | name                       | kind      | meaning                                  |
//! |----------------------------|-----------|------------------------------------------|
//! | `disk.requests_completed`  | counter   | host-visible request completions         |
//! | `disk.read_hits`           | counter   | reads satisfied from the cache           |
//! | `disk.read_misses`         | counter   | reads serviced mechanically              |
//! | `disk.writes_cached`       | counter   | writes absorbed by the write-back cache  |
//! | `disk.writes_forced`       | counter   | writes forced to the medium              |
//! | `disk.destages`            | counter   | idle-time destage operations             |
//! | `disk.seeks`               | counter   | mechanical service operations (each one  |
//! |                            |           | repositions the head)                    |
//! | `disk.media_errors`        | counter   | injected media errors (retried next rev) |
//! | `disk.timeouts`            | counter   | injected command timeouts (retried)      |
//! | `disk.response_us`         | histogram | host-visible response time (µs)          |
//! | `disk.queue_us`            | histogram | time queued before dispatch (µs)         |
//! | `disk.seek_us`             | histogram | arm movement per mechanical service (µs) |
//! | `disk.rotation_us`         | histogram | rotational wait per mechanical service   |
//! |                            |           | (µs)                                     |
//! | `disk.transfer_us`         | histogram | media transfer per mechanical service    |
//! |                            |           | (µs)                                     |
//! | `disk.destage_us`          | histogram | idle-time destage duration (µs)          |
//! | `disk.queue_depth`         | histogram | queue length at each dispatch            |
//!
//! The attribution histograms (`queue_us`/`seek_us`/`rotation_us`/
//! `transfer_us`) decompose each request's latency into where the time
//! went; every recorded value also offers a deterministic
//! [`Exemplar`] to its bucket, so a tail bucket links straight back to
//! the request id carried by the flight-recorder slices. When a
//! sim-axis [`RollupSet`] is attached with [`SimObserver::with_rollups`]
//! the same observations are banked into multi-resolution simulated-time
//! windows.
//!
//! When a [`FlightRecorder`] is attached with
//! [`SimObserver::with_flight`], each outcome additionally lands on the
//! simulated-time tracks listed in [`track`]: per-request queue and
//! service intervals, idle and destage intervals, and the
//! [`instant`]-named point events on [`track::EVENTS`].

use crate::mechanics::ServiceTiming;
use spindle_obs::json::Json;
use spindle_obs::{
    Counter, Exemplar, ExemplarHandle, FlightRecorder, Histogram, MetricsRegistry, ObsConfig,
    RollupSet,
};
use spindle_trace::{OpKind, Request};
use std::sync::Arc;

/// Simulated-time track names the disk instrumentation records on.
pub mod track {
    /// Per-request queueing intervals (arrival → dispatch).
    pub const QUEUE: &str = "drive.queue";
    /// Per-request service intervals (dispatch → completion), plus
    /// idle-time destage operations.
    pub const SERVICE: &str = "drive.service";
    /// Idle intervals (queue empty, waiting for arrivals).
    pub const IDLE: &str = "drive.idle";
    /// Point events named by [`instant`](super::instant) (cache
    /// hits/misses, destages, enqueues, ...).
    pub const EVENTS: &str = "drive.events";
}

/// Names of the point events on [`track::EVENTS`]. Each carries one
/// `detail` argument: the request id for request and fault events, the
/// LBA for cache and destage events, zero for idle events.
pub mod instant {
    /// A request entered the scheduler queue (at its arrival).
    pub const REQUEST_ENQUEUE: &str = "request_enqueue";
    /// The scheduler selected a request for service.
    pub const REQUEST_DISPATCH: &str = "request_dispatch";
    /// A request completed (host-visible).
    pub const REQUEST_COMPLETE: &str = "request_complete";
    /// A request was satisfied by the cache (read hit or absorbed
    /// write-back write).
    pub const CACHE_HIT: &str = "cache_hit";
    /// A request required mechanical service.
    pub const CACHE_MISS: &str = "cache_miss";
    /// A dirty cache segment was destaged to the medium.
    pub const DESTAGE: &str = "destage";
    /// The drive went idle (queue empty, waiting for arrivals).
    pub const IDLE_BEGIN: &str = "idle_begin";
    /// The drive left an idle period.
    pub const IDLE_END: &str = "idle_end";
    /// A mechanical transfer hit an unreadable sector and retried on
    /// the next revolution.
    pub const MEDIA_ERROR: &str = "media_error";
    /// A command stalled past its deadline and was retried.
    pub const TIMEOUT: &str = "timeout";
}

/// One outcome of the simulated service process, in the simulator's
/// own `f64` nanoseconds. The simulator reports each outcome once;
/// every sink derives its values from the record.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outcome {
    /// A request was serviced.
    Served(Served),
    /// The drive sat idle waiting for the next arrival.
    Idle { begin: f64, end: f64 },
    /// A dirty extent starting at `lba` was destaged.
    Destage { lba: u64, begin: f64, end: f64 },
}

/// A serviced request, as [`Outcome::Served`] reports it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Served {
    /// Position of the request in the stream.
    pub(crate) id: u64,
    pub(crate) request: Request,
    /// Dispatch instant.
    pub(crate) start: f64,
    /// Host-visible completion instant.
    pub(crate) complete: f64,
    /// Injected command-timeout stall (zero when none fired).
    pub(crate) timeout_ns: f64,
    /// Injected media-retry revolution (zero when none fired).
    pub(crate) media_ns: f64,
    pub(crate) cache_hit: bool,
    /// The mechanical timing (`None` for cache hits).
    pub(crate) timing: Option<ServiceTiming>,
    /// Queue length at dispatch, the request itself included.
    pub(crate) queue_depth: usize,
}

/// Pre-resolved telemetry handles for one simulator.
///
/// Cloning shares the underlying metrics, recorder and rollups.
#[derive(Debug, Clone)]
pub struct SimObserver {
    requests_completed: Counter,
    read_hits: Counter,
    read_misses: Counter,
    writes_cached: Counter,
    writes_forced: Counter,
    destages: Counter,
    seeks: Counter,
    media_errors: Counter,
    timeouts: Counter,
    queue_depth: Histogram,
    /// Latency-attribution histograms (response plus components), each
    /// with one exemplar slot set linking tail buckets back to request
    /// ids.
    attribution: Attribution,
    flight: Option<Arc<FlightRecorder>>,
    /// Optional simulated-time rollup wheel the attribution also feeds.
    rollups: Option<Arc<RollupSet>>,
}

/// One instrumented histogram plus its exemplar slots and rollup name.
#[derive(Debug, Clone)]
struct Attributed {
    name: &'static str,
    hist: Histogram,
    exemplars: ExemplarHandle,
}

impl Attributed {
    fn new(registry: &MetricsRegistry, name: &'static str) -> Self {
        let hist = registry.histogram(name);
        let exemplars = registry.exemplars().handle(name, hist.bucket_count());
        Attributed {
            name,
            hist,
            exemplars,
        }
    }
}

/// The per-request latency-attribution handles.
#[derive(Debug, Clone)]
struct Attribution {
    response_us: Attributed,
    queue_us: Attributed,
    seek_us: Attributed,
    rotation_us: Attributed,
    transfer_us: Attributed,
    destage_us: Attributed,
}

impl Attribution {
    fn new(registry: &MetricsRegistry) -> Self {
        Attribution {
            response_us: Attributed::new(registry, "disk.response_us"),
            queue_us: Attributed::new(registry, "disk.queue_us"),
            seek_us: Attributed::new(registry, "disk.seek_us"),
            rotation_us: Attributed::new(registry, "disk.rotation_us"),
            transfer_us: Attributed::new(registry, "disk.transfer_us"),
            destage_us: Attributed::new(registry, "disk.destage_us"),
        }
    }
}

/// Nanoseconds to whole microseconds, as every histogram records them.
fn us(ns: f64) -> u64 {
    (ns / 1_000.0).round() as u64
}

impl SimObserver {
    /// Resolves handles against `registry`. Every configuration that
    /// records metrics observes the same way, so `_config` only keeps
    /// the signature stable for existing callers.
    pub fn new(registry: &MetricsRegistry, _config: &ObsConfig) -> Self {
        SimObserver {
            requests_completed: registry.counter("disk.requests_completed"),
            read_hits: registry.counter("disk.read_hits"),
            read_misses: registry.counter("disk.read_misses"),
            writes_cached: registry.counter("disk.writes_cached"),
            writes_forced: registry.counter("disk.writes_forced"),
            destages: registry.counter("disk.destages"),
            seeks: registry.counter("disk.seeks"),
            media_errors: registry.counter("disk.media_errors"),
            timeouts: registry.counter("disk.timeouts"),
            queue_depth: registry.histogram("disk.queue_depth"),
            attribution: Attribution::new(registry),
            flight: None,
            rollups: None,
        }
    }

    /// Attaches a flight recorder: every outcome also lands on the
    /// simulated-time tracks. A [`FlightRecorder::wall_only`] recorder
    /// is not held, so it costs the simulator nothing per event.
    #[must_use]
    pub fn with_flight(mut self, recorder: Arc<FlightRecorder>) -> Self {
        if recorder.records_sim() {
            self.flight = Some(recorder);
        }
        self
    }

    /// Attaches a simulated-time rollup wheel: every attribution
    /// observation and completion is additionally banked into
    /// multi-resolution sim-time windows (stamped with simulated
    /// nanoseconds, so the wheel is identical at any `--jobs`).
    #[must_use]
    pub fn with_rollups(mut self, rollups: Arc<RollupSet>) -> Self {
        self.rollups = Some(rollups);
        self
    }

    /// Records one outcome into every attached sink.
    #[inline]
    pub(crate) fn record(&self, outcome: &Outcome) {
        match *outcome {
            Outcome::Served(ref s) => self.served(s),
            Outcome::Idle { begin, end } => {
                if let Some(rec) = &self.flight {
                    let (begin_ns, end_ns) = (begin.round() as u64, end.round() as u64);
                    instant(rec, instant::IDLE_BEGIN, begin_ns, 0);
                    instant(rec, instant::IDLE_END, end_ns, 0);
                    let dur_ns = (end - begin).round() as u64;
                    rec.sim_slice(track::IDLE, "idle", begin_ns, dur_ns, Vec::new());
                }
            }
            Outcome::Destage { lba, begin, end } => {
                let begin_ns = begin.round() as u64;
                self.destages.inc();
                self.seeks.inc();
                let a = &self.attribution.destage_us;
                // Destages have no request id; the extent's LBA fills
                // the exemplar's id slot.
                self.observe(a, us(end - begin), lba, begin_ns, "destage");
                if let Some(roll) = &self.rollups {
                    roll.add_counter("disk.destages", begin_ns, 1);
                }
                if let Some(rec) = &self.flight {
                    instant(rec, instant::DESTAGE, begin_ns, lba);
                    let dur_ns = (end - begin).round() as u64;
                    let args = vec![("lba".to_owned(), Json::Uint(lba))];
                    rec.sim_slice(track::SERVICE, "destage", begin_ns, dur_ns, args);
                }
            }
        }
    }

    #[inline]
    fn served(&self, s: &Served) {
        let Served {
            id,
            request: ref r,
            start,
            complete,
            timeout_ns,
            media_ns,
            cache_hit,
            timing,
            queue_depth,
        } = *s;
        let (start_ns, complete_ns) = (start.round() as u64, complete.round() as u64);
        let (timeout, media_error) = (timeout_ns > 0.0, media_ns > 0.0);
        self.queue_depth.record(queue_depth as u64);
        if timeout {
            self.timeouts.inc();
        }
        if media_error {
            self.media_errors.inc();
        }
        match (r.op, cache_hit) {
            (OpKind::Read, true) => self.read_hits.inc(),
            (OpKind::Read, false) => self.read_misses.inc(),
            (OpKind::Write, true) => self.writes_cached.inc(),
            (OpKind::Write, false) => self.writes_forced.inc(),
        }
        if !cache_hit {
            self.seeks.inc();
        }
        let op = match r.op {
            OpKind::Read => "read",
            OpKind::Write => "write",
        };

        // Latency attribution: the host-visible response, the time spent
        // queued and, for mechanical services, seek/rotation/transfer.
        let a = &self.attribution;
        let arrival = r.arrival_ns as f64;
        self.observe(&a.response_us, us(complete - arrival), id, complete_ns, op);
        let queue_us = us((start - arrival).max(0.0));
        self.observe(&a.queue_us, queue_us, id, complete_ns, op);
        if let Some(t) = timing {
            self.observe(&a.seek_us, us(t.seek_ns), id, complete_ns, op);
            self.observe(&a.rotation_us, us(t.rotation_ns), id, complete_ns, op);
            self.observe(&a.transfer_us, us(t.transfer_ns), id, complete_ns, op);
        }
        if let Some(roll) = &self.rollups {
            roll.add_counter("disk.requests_completed", complete_ns, 1);
            // Per-op completion counters exist only on the wheel (the
            // registry already splits reads/writes by cache outcome);
            // they are what the observatory's R/W-mix table windows.
            let per_op = match r.op {
                OpKind::Read => "disk.reads",
                OpKind::Write => "disk.writes",
            };
            roll.add_counter(per_op, complete_ns, 1);
        }
        self.requests_completed.inc();

        let Some(rec) = &self.flight else { return };
        // Point events in simulated-time order (the enqueue at the
        // arrival), then the request lifecycle on the tracks:
        // enqueue → dispatch on the queue track, dispatch → complete on
        // the service track, plus any injected fault stalls.
        let media_ns_at = (complete - media_ns).round() as u64;
        instant(rec, instant::REQUEST_ENQUEUE, r.arrival_ns, id);
        instant(rec, instant::REQUEST_DISPATCH, start_ns, id);
        if timeout {
            instant(rec, instant::TIMEOUT, start_ns, id);
        }
        let cache = if cache_hit {
            instant::CACHE_HIT
        } else {
            instant::CACHE_MISS
        };
        instant(rec, cache, start_ns, r.lba);
        if media_error {
            instant(rec, instant::MEDIA_ERROR, media_ns_at, id);
        }
        instant(rec, instant::REQUEST_COMPLETE, complete_ns, id);

        let id_arg = || ("id".to_owned(), Json::Uint(id));
        if timeout {
            let dur_ns = timeout_ns.round() as u64;
            rec.sim_slice(track::SERVICE, "timeout", start_ns, dur_ns, vec![id_arg()]);
        }
        if media_error {
            let dur_ns = media_ns.round() as u64;
            let args = vec![id_arg()];
            rec.sim_slice(track::SERVICE, "media retry", media_ns_at, dur_ns, args);
        }
        if start_ns > r.arrival_ns {
            let dur_ns = start_ns - r.arrival_ns;
            let args = vec![id_arg()];
            rec.sim_slice(track::QUEUE, op, r.arrival_ns, dur_ns, args);
        }
        let name = match (cache_hit, r.op) {
            (true, OpKind::Read) => "read (hit)",
            (true, OpKind::Write) => "write (cached)",
            (false, _) => op,
        };
        let args = vec![
            id_arg(),
            ("lba".to_owned(), Json::Uint(r.lba)),
            ("sectors".to_owned(), Json::Uint(u64::from(r.sectors))),
        ];
        let dur_ns = (complete - start).round() as u64;
        rec.sim_slice(track::SERVICE, name, start_ns, dur_ns, args);
    }

    /// Records one attributed observation: histogram, exemplar offer,
    /// and (when a wheel is attached) the sim-axis rollup.
    #[inline]
    fn observe(&self, a: &Attributed, value_us: u64, id: u64, t_ns: u64, op: &'static str) {
        a.hist.record(value_us);
        a.exemplars.offer(
            a.hist.bucket_index(value_us),
            Exemplar {
                value: value_us,
                id,
                t_ns,
                op,
            },
        );
        if let Some(roll) = &self.rollups {
            roll.record_hist(a.name, t_ns, value_us);
        }
    }
}

/// One point event on [`track::EVENTS`].
fn instant(rec: &FlightRecorder, name: &str, t_ns: u64, detail: u64) {
    let args = vec![("detail".to_owned(), Json::Uint(detail))];
    rec.sim_instant(track::EVENTS, name, t_ns, args);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_trace::DriveId;

    fn served(id: u64, op: OpKind, complete: f64, timing: Option<ServiceTiming>) -> Outcome {
        Outcome::Served(Served {
            id,
            request: Request::new(0, DriveId(0), op, 4096, 8).unwrap(),
            start: 100_000.0,
            complete,
            timeout_ns: 0.0,
            media_ns: 0.0,
            cache_hit: timing.is_none(),
            timing,
            queue_depth: 1,
        })
    }

    #[test]
    fn observer_resolves_named_metrics() {
        let registry = MetricsRegistry::new();
        let obs = SimObserver::new(&registry, &ObsConfig::metrics_only());
        obs.record(&served(7, OpKind::Read, 250_000.0, None));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("disk.requests_completed"), Some(1));
        assert_eq!(snap.counter("disk.read_hits"), Some(1));
        assert_eq!(snap.counter("disk.seeks"), Some(0));
        assert_eq!(snap.histogram("disk.response_us").unwrap().count, 1);
        assert_eq!(snap.histogram("disk.queue_us").unwrap().count, 1);
        assert_eq!(snap.histogram("disk.queue_depth").unwrap().count, 1);
        // A cache hit has no mechanical components.
        assert_eq!(snap.histogram("disk.seek_us").unwrap().count, 0);
    }

    #[test]
    fn attribution_offers_exemplars_and_feeds_rollups() {
        let registry = MetricsRegistry::new();
        let rollups = Arc::new(RollupSet::sim());
        let obs = SimObserver::new(&registry, &ObsConfig::metrics_only())
            .with_rollups(Arc::clone(&rollups));
        let timing = ServiceTiming {
            seek_ns: 400_000.0,
            rotation_ns: 300_000.0,
            transfer_ns: 200_000.0,
        };
        // Completes at 12 ms sim time → the second 10ms window.
        obs.record(&served(3, OpKind::Read, 12_000_000.0, Some(timing)));
        obs.record(&Outcome::Destage {
            lba: 4096,
            begin: 20_000_000.0,
            end: 20_550_000.0,
        });
        // Exemplars: the response histogram's tail bucket names id 3.
        let ex = registry.exemplars().snapshot();
        let (_, slots) = ex
            .iter()
            .find(|(name, _)| name == "disk.response_us")
            .expect("response exemplars registered");
        let hit = slots.iter().flatten().next().expect("one exemplar kept");
        assert_eq!(hit.id, 3);
        assert_eq!(hit.value, 12_000);
        assert_eq!(hit.op, "read");
        // Rollups: every resolution's merge saw the observations.
        let snap = rollups.snapshot();
        for r in &snap.resolutions {
            let merged = r.merged();
            assert_eq!(merged.counters["disk.requests_completed"], 1);
            assert_eq!(merged.counters["disk.reads"], 1);
            assert!(!merged.counters.contains_key("disk.writes"));
            assert_eq!(merged.counters["disk.destages"], 1);
            assert_eq!(merged.histograms["disk.seek_us"].sum, 400);
            assert_eq!(merged.histograms["disk.destage_us"].count, 1);
            assert_eq!(merged.histograms["disk.destage_us"].sum, 550);
        }
        // The 10ms wheel banked them in distinct windows.
        let fine = snap.resolution("10ms").unwrap();
        assert_eq!(fine.windows.len(), 2);
    }

    #[test]
    fn events_flow_only_when_enabled() {
        // Without a recorder an outcome reaches the registry only; with
        // one it also lands on the simulated-time tracks.
        let registry = MetricsRegistry::new();
        let silent = SimObserver::new(&registry, &ObsConfig::metrics_only());
        silent.record(&Outcome::Idle {
            begin: 5.0,
            end: 9.0,
        });
        let rec = Arc::new(FlightRecorder::new());
        let traced = silent.clone().with_flight(Arc::clone(&rec));
        traced.record(&Outcome::Idle {
            begin: 5.0,
            end: 9.0,
        });
        let names: Vec<_> = rec.sim_slices().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["idle_begin", "idle_end", "idle"]);
        // A wall-only recorder is not held at all.
        let walled = silent.with_flight(Arc::new(FlightRecorder::wall_only()));
        assert!(walled.flight.is_none());
    }

    #[test]
    fn flight_mirrors_events_and_slices() {
        let registry = MetricsRegistry::new();
        let rec = Arc::new(FlightRecorder::new());
        let obs =
            SimObserver::new(&registry, &ObsConfig::metrics_only()).with_flight(Arc::clone(&rec));
        let timing = ServiceTiming {
            seek_ns: 200.0,
            rotation_ns: 200.0,
            transfer_ns: 100.0,
        };
        obs.record(&served(9, OpKind::Write, 100_500.0, Some(timing)));
        let sim = rec.sim_slices();
        let events: Vec<_> = sim.iter().filter(|s| s.track == track::EVENTS).collect();
        assert!(events.iter().all(|s| s.dur_ns.is_none()));
        let names: Vec<_> = events.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                instant::REQUEST_ENQUEUE,
                instant::REQUEST_DISPATCH,
                instant::CACHE_MISS,
                instant::REQUEST_COMPLETE
            ]
        );
        assert_eq!(events[0].begin_ns, 0, "enqueue sits at the arrival");
        assert_eq!(
            events[2].args[0].1,
            Json::Uint(4096),
            "cache events carry the lba"
        );
        let queue = sim.iter().find(|s| s.track == track::QUEUE).unwrap();
        assert_eq!((queue.begin_ns, queue.dur_ns), (0, Some(100_000)));
        let service = sim.iter().find(|s| s.track == track::SERVICE).unwrap();
        assert_eq!(service.name, "write");
        assert_eq!((service.begin_ns, service.dur_ns), (100_000, Some(500)));
    }
}
