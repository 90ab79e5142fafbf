//! Event-driven single-drive simulation.
//!
//! [`DiskSim`] consumes a time-sorted request stream and produces a
//! [`SimResult`]: per-request completion times, the busy/idle timeline,
//! and cache counters. The engine models a non-preemptive single server
//! (the disk mechanism) fed by the scheduler, with the cache absorbing
//! hits and write-back traffic, and dirty data destaged during idle
//! periods after a configurable idle wait — the same structure drive
//! firmware of the paper's era used.

use crate::busy::{BusyLog, BusyLogBuilder};
use crate::cache::{CacheConfig, DiskCache, WriteOutcome};
use crate::mechanics::{Mechanics, ServiceTiming};
use crate::obs::{Outcome, Served, SimObserver};
use crate::profile::DriveProfile;
use crate::scheduler::{QueuedRequest, SchedulerKind, SchedulerPolicy};
use crate::{DiskError, Result};
use spindle_trace::{OpKind, Request};
use std::collections::BTreeSet;

/// Service-time penalty for an injected command timeout: the command
/// stalls for this long before the (successful) retry is serviced.
/// Modeled on the half-second command deadline drive firmware of the
/// paper's era used before falling back to a retry.
pub const TIMEOUT_PENALTY_NS: u64 = 500_000_000;

/// Deterministic fault sites for one simulation run, keyed by the
/// request's position in the stream (the same id the flight recorder's
/// slices and instants carry).
///
/// Injected via [`DiskSim::inject_faults`]; an empty set of faults is
/// the (free) default. Faults only perturb *timing* — every request
/// still completes, which mirrors how drives recover from transient
/// media errors and timeouts with retries rather than hard failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimFaults {
    /// Requests whose mechanical transfer hits an unreadable sector
    /// and retries on the next revolution. A request satisfied from
    /// the cache never touches the medium, so the fault is inert for
    /// cache hits.
    pub media_errors: BTreeSet<u64>,
    /// Requests whose command stalls for [`TIMEOUT_PENALTY_NS`] before
    /// service begins.
    pub timeouts: BTreeSet<u64>,
}

impl SimFaults {
    /// True when no faults are injected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.media_errors.is_empty() && self.timeouts.is_empty()
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Queue scheduling policy.
    pub scheduler: SchedulerKind,
    /// Cache configuration; `None` uses the drive profile's default.
    pub cache: Option<CacheConfig>,
    /// Whether remaining dirty data is destaged after the last request
    /// (keeps the busy accounting complete).
    pub flush_at_end: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            scheduler: SchedulerKind::default(),
            cache: None,
            flush_at_end: true,
        }
    }
}

/// A serviced request with its timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRequest {
    /// The original request.
    pub request: Request,
    /// When the drive began servicing it (ns).
    pub start_ns: u64,
    /// When it completed (ns).
    pub complete_ns: u64,
    /// Whether it was satisfied from the cache (read hit or absorbed
    /// write-back write).
    pub cache_hit: bool,
}

impl CompletedRequest {
    /// Host-visible response time (completion − arrival) in nanoseconds.
    pub fn response_ns(&self) -> u64 {
        self.complete_ns - self.request.arrival_ns
    }

    /// Time spent in service (completion − service start) in nanoseconds.
    pub fn service_ns(&self) -> u64 {
        self.complete_ns - self.start_ns
    }

    /// Queueing delay (service start − arrival) in nanoseconds.
    pub fn queue_ns(&self) -> u64 {
        self.start_ns - self.request.arrival_ns
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Serviced requests in completion order.
    pub completed: Vec<CompletedRequest>,
    /// The drive's busy timeline over `[0, span_ns)`.
    pub busy: BusyLog,
    /// Read requests satisfied from cache.
    pub read_hits: u64,
    /// Read requests serviced mechanically.
    pub read_misses: u64,
    /// Writes absorbed by the write-back cache.
    pub writes_cached: u64,
    /// Writes forced to the medium synchronously.
    pub writes_forced: u64,
    /// Background destage operations performed.
    pub destages: u64,
    /// Injected media errors that actually fired (a media fault on a
    /// cache hit is inert).
    pub media_errors: u64,
    /// Injected command timeouts that fired.
    pub timeouts: u64,
}

impl SimResult {
    /// Total busy time in nanoseconds (convenience passthrough).
    pub fn total_busy_ns(&self) -> u64 {
        self.busy.total_busy_ns()
    }

    /// Aggregate utilization over the run.
    pub fn utilization(&self) -> f64 {
        self.busy.utilization()
    }

    /// Mean host-visible response time in milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|c| c.response_ns() as f64)
            .sum::<f64>()
            / self.completed.len() as f64
            / 1e6
    }

    /// Read cache hit ratio, or `None` if no reads were issued.
    pub fn read_hit_ratio(&self) -> Option<f64> {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            None
        } else {
            Some(self.read_hits as f64 / total as f64)
        }
    }
}

/// Single-drive event-driven simulator.
#[derive(Debug)]
pub struct DiskSim {
    mechanics: Mechanics,
    cache: DiskCache,
    scheduler: Box<dyn SchedulerPolicy>,
    controller_overhead_ns: f64,
    flush_at_end: bool,
    obs: Option<SimObserver>,
    faults: Option<SimFaults>,
}

impl DiskSim {
    /// Builds a simulator for `profile` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the built-in profile parameters are inconsistent (a bug
    /// in this crate, not in caller input).
    pub fn new(profile: DriveProfile, config: SimConfig) -> Self {
        let mechanics = profile
            .mechanics()
            .expect("built-in drive profiles are internally consistent");
        let cache_cfg = config.cache.unwrap_or(profile.cache);
        let cache = DiskCache::new(cache_cfg).expect("cache configuration validated");
        DiskSim {
            mechanics,
            cache,
            scheduler: config.scheduler.create(),
            controller_overhead_ns: profile.controller_overhead_ns as f64,
            flush_at_end: config.flush_at_end,
            obs: None,
            faults: None,
        }
    }

    /// Builds a simulator from explicit parts (for tests and custom
    /// drives).
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidConfig`] if the cache configuration is
    /// invalid.
    pub fn from_parts(
        mechanics: Mechanics,
        cache: CacheConfig,
        scheduler: SchedulerKind,
        controller_overhead_ns: u64,
        flush_at_end: bool,
    ) -> Result<Self> {
        Ok(DiskSim {
            mechanics,
            cache: DiskCache::new(cache)?,
            scheduler: scheduler.create(),
            controller_overhead_ns: controller_overhead_ns as f64,
            flush_at_end,
            obs: None,
            faults: None,
        })
    }

    /// The mechanical model in use.
    pub fn mechanics(&self) -> &Mechanics {
        &self.mechanics
    }

    /// Attaches a telemetry observer; subsequent [`DiskSim::run`] calls
    /// report each served request, idle gap and destage to it once.
    pub fn attach_observer(&mut self, obs: SimObserver) {
        self.obs = Some(obs);
    }

    /// Injects deterministic media-error and timeout faults into
    /// subsequent runs; an empty `faults` clears injection.
    pub fn inject_faults(&mut self, faults: SimFaults) {
        self.faults = if faults.is_empty() {
            None
        } else {
            Some(faults)
        };
    }

    /// Runs the simulation over a time-sorted request stream.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidStream`] for an empty or unsorted
    /// stream and [`DiskError::OutOfRange`] if any request does not fit
    /// on the drive.
    pub fn run(&mut self, requests: &[Request]) -> Result<SimResult> {
        // Validate up front so an invalid stream fails before the
        // simulator mutates any cache state; the streaming path below
        // re-checks incrementally, which is cheap.
        if requests.is_empty() {
            return Err(DiskError::InvalidStream {
                reason: "request stream is empty".into(),
            });
        }
        spindle_trace::transform::validate_sorted(requests).map_err(|e| {
            DiskError::InvalidStream {
                reason: e.to_string(),
            }
        })?;
        for r in requests {
            self.mechanics.geometry().check_range(r.lba, r.sectors)?;
        }
        self.run_stream(requests.iter().copied())
    }

    /// Runs the simulation over a streaming request source.
    ///
    /// Semantics are identical to [`DiskSim::run`], but the source is
    /// consumed one request at a time with a single-request lookahead,
    /// so input-side memory stays fixed no matter how long the trace
    /// is — feed it from a bounded channel (e.g.
    /// `spindle_engine::channel`) to replay a trace that never fits in
    /// memory. Ordering and range constraints are validated as requests
    /// are pulled; an invalid request aborts the run at the point it is
    /// admitted.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidStream`] for an empty or unsorted
    /// stream and [`DiskError::OutOfRange`] if a request does not fit
    /// on the drive.
    pub fn run_stream<I>(&mut self, requests: I) -> Result<SimResult>
    where
        I: IntoIterator<Item = Request>,
    {
        let mut source = requests.into_iter().peekable();
        if source.peek().is_none() {
            return Err(DiskError::InvalidStream {
                reason: "request stream is empty".into(),
            });
        }

        let mut busy = BusyLogBuilder::new();
        let mut completed = Vec::new();
        let mut queue: Vec<QueuedRequest> = Vec::new();
        let mut next_id = 0u64; // position in the stream
        let mut last_arrival = 0u64;
        let mut now: f64 = 0.0;
        let mut head_track: u64 = 0;
        let mut read_hits = 0u64;
        let mut read_misses = 0u64;
        let mut writes_cached = 0u64;
        let mut writes_forced = 0u64;
        let mut destages = 0u64;
        let mut media_errors = 0u64;
        let mut timeouts = 0u64;
        let idle_delay = self.cache.config().idle_destage_delay_ns as f64;

        loop {
            // Admit every request that has arrived by `now`.
            while source.peek().is_some_and(|r| r.arrival_ns as f64 <= now) {
                let r = source.next().expect("peeked above");
                if r.arrival_ns < last_arrival {
                    return Err(DiskError::InvalidStream {
                        reason: format!(
                            "arrival order violated at index {}: {} ns after {} ns",
                            next_id, r.arrival_ns, last_arrival
                        ),
                    });
                }
                last_arrival = r.arrival_ns;
                self.mechanics.geometry().check_range(r.lba, r.sectors)?;
                let track = self.mechanics.geometry().locate(r.lba)?.track;
                queue.push(QueuedRequest {
                    id: next_id,
                    request: r,
                    track,
                });
                next_id += 1;
            }

            if queue.is_empty() {
                let upcoming = source.peek().map(|r| r.arrival_ns as f64);
                // Idle: consider destaging dirty data before the next
                // arrival.
                if self.cache.has_dirty() {
                    let destage_at = now + idle_delay;
                    let do_destage = match upcoming {
                        Some(t) => destage_at < t,
                        None => self.flush_at_end,
                    };
                    if do_destage {
                        let extent = self.cache.pop_dirty().expect("has_dirty checked");
                        let timing = self.mechanics.service(
                            head_track,
                            destage_at,
                            extent.lba,
                            extent.sectors,
                        )?;
                        let end = destage_at + timing.total_ns();
                        busy.push(destage_at.round() as u64, end.round() as u64)?;
                        now = end;
                        head_track = self.mechanics.geometry().locate(extent.end() - 1)?.track;
                        destages += 1;
                        if let Some(o) = &self.obs {
                            o.record(&Outcome::Destage {
                                lba: extent.lba,
                                begin: destage_at,
                                end,
                            });
                        }
                        continue;
                    }
                }
                match upcoming {
                    Some(t) => {
                        if let Some(o) = self.obs.as_ref().filter(|_| t > now) {
                            o.record(&Outcome::Idle { begin: now, end: t });
                        }
                        now = now.max(t);
                        continue;
                    }
                    None => break,
                }
            }

            // Pick and service the next request.
            let queue_depth = queue.len();
            let idx = self
                .scheduler
                .select(&queue, head_track, now, &self.mechanics);
            let QueuedRequest { id, request: r, .. } = queue.remove(idx);
            let start = now;
            // Injected command timeout: the command stalls, then the
            // retry services normally starting at the delayed instant
            // (rotational position is evaluated there).
            let timeout_fault = self
                .faults
                .as_ref()
                .is_some_and(|fl| fl.timeouts.contains(&id));
            let timeout_ns = if timeout_fault {
                TIMEOUT_PENALTY_NS as f64
            } else {
                0.0
            };
            let serviced = self.service(&r, head_track, now + timeout_ns)?;
            let cache_hit = serviced.cache_hit;
            // Injected media error: the transfer fails on the medium
            // and succeeds one full revolution later. Cache hits never
            // touch the medium, so the fault is inert for them.
            let media_fault = !cache_hit
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|fl| fl.media_errors.contains(&id));
            let media_ns = if media_fault {
                self.mechanics.rotation_ns()
            } else {
                0.0
            };
            if timeout_fault {
                timeouts += 1;
            }
            if media_fault {
                media_errors += 1;
            }
            let complete =
                start + self.controller_overhead_ns + timeout_ns + serviced.service_ns + media_ns;
            let busy_end = complete + serviced.busy_extra_ns;
            busy.push(start.round() as u64, busy_end.round() as u64)?;
            if !cache_hit {
                // The head ends at the last sector touched (including
                // read-ahead, which lands on the same or next track —
                // close enough to the request end for seek purposes).
                head_track = self
                    .mechanics
                    .geometry()
                    .locate(r.lba + r.sectors as u64 - 1)?
                    .track;
            }
            match (r.op, cache_hit) {
                (OpKind::Read, true) => read_hits += 1,
                (OpKind::Read, false) => read_misses += 1,
                (OpKind::Write, true) => writes_cached += 1,
                (OpKind::Write, false) => writes_forced += 1,
            }
            if let Some(o) = &self.obs {
                o.record(&Outcome::Served(Served {
                    id,
                    request: r,
                    start,
                    complete,
                    timeout_ns,
                    media_ns,
                    cache_hit,
                    timing: serviced.timing,
                    queue_depth,
                }));
            }
            completed.push(CompletedRequest {
                request: r,
                start_ns: start.round() as u64,
                complete_ns: complete.round() as u64,
                cache_hit,
            });
            now = busy_end;
        }

        let span = now.round().max(1.0) as u64;
        Ok(SimResult {
            completed,
            busy: busy.finish(span)?,
            read_hits,
            read_misses,
            writes_cached,
            writes_forced,
            destages,
            media_errors,
            timeouts,
        })
    }

    /// Services one request at `now`.
    fn service(&mut self, r: &Request, head_track: u64, now: f64) -> Result<ServiceOutcome> {
        match r.op {
            OpKind::Read => {
                if self.cache.read_hit(r.lba, r.sectors) {
                    return Ok(ServiceOutcome::cache_hit());
                }
                // Mechanical read plus read-ahead: the host sees the
                // requested transfer; the prefetch keeps the mechanism
                // busy after completion.
                let timing = self.mechanics.service(head_track, now, r.lba, r.sectors)?;
                let ra = self.cache.config().read_ahead_sectors;
                let capacity = self.mechanics.geometry().total_sectors();
                let ra = (ra as u64).min(capacity - (r.lba + r.sectors as u64)) as u32;
                let extra = if ra > 0 {
                    let with_ra = self
                        .mechanics
                        .service(head_track, now, r.lba, r.sectors + ra)?;
                    (with_ra.transfer_ns - timing.transfer_ns).max(0.0)
                } else {
                    0.0
                };
                self.cache.insert_clean(r.lba, r.sectors + ra);
                Ok(ServiceOutcome::mechanical(timing, extra))
            }
            OpKind::Write => match self.cache.write(r.lba, r.sectors) {
                WriteOutcome::Cached => Ok(ServiceOutcome::cache_hit()),
                WriteOutcome::Forced => {
                    let timing = self.mechanics.service(head_track, now, r.lba, r.sectors)?;
                    Ok(ServiceOutcome::mechanical(timing, 0.0))
                }
            },
        }
    }
}

/// How one request was serviced: the host-visible service time, any
/// post-completion busy tail (read-ahead), and — for mechanical
/// services — the seek/rotation/transfer timing the latency
/// attribution decomposes.
#[derive(Debug, Clone, Copy)]
struct ServiceOutcome {
    service_ns: f64,
    busy_extra_ns: f64,
    cache_hit: bool,
    timing: Option<ServiceTiming>,
}

impl ServiceOutcome {
    fn cache_hit() -> Self {
        ServiceOutcome {
            service_ns: 0.0,
            busy_extra_ns: 0.0,
            cache_hit: true,
            timing: None,
        }
    }

    fn mechanical(timing: ServiceTiming, busy_extra_ns: f64) -> Self {
        ServiceOutcome {
            service_ns: timing.total_ns(),
            busy_extra_ns,
            cache_hit: false,
            timing: Some(timing),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spindle_trace::DriveId;

    fn read(t_ns: u64, lba: u64, sectors: u32) -> Request {
        Request::new(t_ns, DriveId(0), OpKind::Read, lba, sectors).unwrap()
    }

    fn write(t_ns: u64, lba: u64, sectors: u32) -> Request {
        Request::new(t_ns, DriveId(0), OpKind::Write, lba, sectors).unwrap()
    }

    fn sim() -> DiskSim {
        DiskSim::new(DriveProfile::cheetah_15k(), SimConfig::default())
    }

    #[test]
    fn empty_and_unsorted_streams_are_rejected() {
        let mut s = sim();
        assert!(matches!(s.run(&[]), Err(DiskError::InvalidStream { .. })));
        let unsorted = vec![read(100, 0, 8), read(50, 0, 8)];
        assert!(matches!(
            s.run(&unsorted),
            Err(DiskError::InvalidStream { .. })
        ));
    }

    #[test]
    fn run_stream_matches_run() {
        // A mix that exercises queueing, cache hits, and idle destaging.
        let mut reqs = Vec::new();
        for i in 0..200u64 {
            if i % 3 == 0 {
                reqs.push(write(i * 400_000, 9_000_000 + i * 64, 64));
            } else {
                reqs.push(read(i * 400_000, (i * 7_919) % 8_000_000, 8));
            }
        }
        let batch = sim().run(&reqs).unwrap();
        let streamed = sim().run_stream(reqs.iter().copied()).unwrap();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn run_stream_rejects_empty_and_unsorted() {
        let mut s = sim();
        assert!(matches!(
            s.run_stream(std::iter::empty()),
            Err(DiskError::InvalidStream { .. })
        ));
        let mut s = sim();
        assert!(matches!(
            s.run_stream([read(2_000, 0, 8), read(1_000, 64, 8)]),
            Err(DiskError::InvalidStream { .. })
        ));
    }

    #[test]
    fn out_of_range_request_is_rejected() {
        let mut s = sim();
        let cap = s.mechanics().geometry().total_sectors();
        let reqs = vec![read(0, cap - 1, 8)];
        assert!(matches!(s.run(&reqs), Err(DiskError::OutOfRange { .. })));
    }

    #[test]
    fn single_read_timing_is_plausible() {
        let mut s = sim();
        let result = s.run(&[read(0, 1_000_000, 8)]).unwrap();
        assert_eq!(result.completed.len(), 1);
        let c = &result.completed[0];
        // Overhead (0.1 ms) + seek (≤ 6.6 ms) + rotation (≤ 4 ms) +
        // transfer (tiny): between 0.1 and 12 ms.
        let resp_ms = c.response_ns() as f64 / 1e6;
        assert!(resp_ms >= 0.1, "response {resp_ms} ms");
        assert!(resp_ms < 12.0, "response {resp_ms} ms");
        assert_eq!(result.read_misses, 1);
        assert!(!c.cache_hit);
    }

    #[test]
    fn sequential_reads_hit_readahead() {
        let mut s = sim();
        // 16 back-to-back 8-sector sequential reads, 5 ms apart (within
        // the 128 KiB read-ahead window).
        let reqs: Vec<Request> = (0..16)
            .map(|i| read(i * 5_000_000, 10_000 + i * 8, 8))
            .collect();
        let result = s.run(&reqs).unwrap();
        assert_eq!(result.read_misses, 1, "only the first read should miss");
        assert_eq!(result.read_hits, 15);
        assert!(result.read_hit_ratio().unwrap() > 0.9);
        // Hits complete in ~overhead time.
        let hit = result.completed.iter().find(|c| c.cache_hit).unwrap();
        assert!(hit.response_ns() < 500_000);
    }

    #[test]
    fn writeback_absorbs_then_destages_in_idle() {
        let mut s = sim();
        // A burst of writes then a long idle tail.
        let reqs: Vec<Request> = (0..8)
            .map(|i| write(i * 1_000_000, 1_000_000 + i * 100_000, 64))
            .collect();
        let result = s.run(&reqs).unwrap();
        assert_eq!(result.writes_cached, 8);
        assert_eq!(result.writes_forced, 0);
        assert!(result.destages > 0, "dirty data must be destaged");
        // Writes complete at electronic speed.
        for c in &result.completed {
            assert!(c.cache_hit);
            assert!(c.response_ns() < 500_000);
        }
        // The busy log must contain destage work after the last write
        // completed.
        let last_complete = result
            .completed
            .iter()
            .map(|c| c.complete_ns)
            .max()
            .unwrap();
        let busy_end = result.busy.periods().last().unwrap().1;
        assert!(busy_end > last_complete);
    }

    #[test]
    fn write_through_forces_all_writes() {
        let mut cfg = SimConfig::default();
        let mut cache = CacheConfig::default();
        cache.write_back = false;
        cfg.cache = Some(cache);
        let mut s = DiskSim::new(DriveProfile::cheetah_15k(), cfg);
        let reqs: Vec<Request> = (0..4)
            .map(|i| write(i * 50_000_000, 5_000 * i, 8))
            .collect();
        let result = s.run(&reqs).unwrap();
        assert_eq!(result.writes_forced, 4);
        assert_eq!(result.writes_cached, 0);
        assert_eq!(result.destages, 0);
    }

    #[test]
    fn utilization_is_bounded_and_idle_dominates_light_load() {
        let mut s = sim();
        // One small read per second for 60 seconds: utilization must be
        // far below 1 and the idle periods long.
        let reqs: Vec<Request> = (0..60)
            .map(|i| read(i * 1_000_000_000, (i * 7919 * 1000) % 100_000_000, 8))
            .collect();
        let result = s.run(&reqs).unwrap();
        let u = result.utilization();
        assert!(u > 0.0 && u < 0.05, "utilization {u}");
        let idle = result.busy.idle_durations_secs();
        let longest = idle.iter().cloned().fold(0.0f64, f64::max);
        assert!(longest > 0.5, "longest idle {longest} s");
    }

    #[test]
    fn saturating_load_yields_high_utilization() {
        let mut s = sim();
        // 2000 random reads arriving in the first 10 ms: the queue never
        // drains until the end, so utilization over the span is ~1.
        let reqs: Vec<Request> = (0..2000)
            .map(|i| read(i * 5_000, (i * 2654435761) % 100_000_000, 64))
            .collect();
        let result = s.run(&reqs).unwrap();
        assert!(
            result.utilization() > 0.9,
            "utilization {}",
            result.utilization()
        );
        assert_eq!(result.completed.len(), 2000);
    }

    #[test]
    fn sstf_beats_fcfs_on_random_batch() {
        let reqs: Vec<Request> = (0..200)
            .map(|i| read(0, (i as u64 * 48_271 * 1000) % 100_000_000, 8))
            .collect();
        let run = |kind: SchedulerKind| {
            let mut cfg = SimConfig::default();
            cfg.scheduler = kind;
            let mut cache = CacheConfig::disabled();
            cache.idle_destage_delay_ns = 0;
            cfg.cache = Some(cache);
            let mut s = DiskSim::new(DriveProfile::cheetah_15k(), cfg);
            s.run(&reqs).unwrap()
        };
        let fcfs = run(SchedulerKind::Fcfs);
        let sstf = run(SchedulerKind::Sstf);
        let sptf = run(SchedulerKind::Sptf);
        // Throughput ordering: seek-aware policies finish the batch
        // sooner.
        assert!(
            sstf.busy.span_ns() < fcfs.busy.span_ns(),
            "SSTF {} vs FCFS {}",
            sstf.busy.span_ns(),
            fcfs.busy.span_ns()
        );
        assert!(
            sptf.busy.span_ns() < fcfs.busy.span_ns(),
            "SPTF {} vs FCFS {}",
            sptf.busy.span_ns(),
            fcfs.busy.span_ns()
        );
    }

    #[test]
    fn completions_never_precede_arrivals() {
        let mut s = sim();
        let reqs: Vec<Request> = (0..100)
            .map(|i| {
                if i % 3 == 0 {
                    write(i * 2_000_000, (i * 104_729) % 1_000_000, 16)
                } else {
                    read(i * 2_000_000, (i * 224_737) % 1_000_000, 16)
                }
            })
            .collect();
        let result = s.run(&reqs).unwrap();
        assert_eq!(result.completed.len(), 100);
        for c in &result.completed {
            assert!(c.complete_ns >= c.request.arrival_ns);
            assert!(c.start_ns >= c.request.arrival_ns);
            assert!(c.complete_ns >= c.start_ns);
        }
    }

    #[test]
    fn busy_time_equals_span_minus_idle() {
        let mut s = sim();
        let reqs: Vec<Request> = (0..50)
            .map(|i| read(i * 20_000_000, (i * 90001 * 997) % 50_000_000, 32))
            .collect();
        let result = s.run(&reqs).unwrap();
        let busy = result.busy.total_busy_ns();
        let idle = result.busy.total_idle_ns();
        assert_eq!(busy + idle, result.busy.span_ns());
    }

    #[test]
    fn forced_write_when_dirty_cache_full() {
        let mut cfg = SimConfig::default();
        let mut cache = CacheConfig::default();
        cache.max_dirty_segments = 2;
        cache.idle_destage_delay_ns = 10_000_000_000; // effectively never idle-destage
        cfg.cache = Some(cache);
        let mut s = DiskSim::new(DriveProfile::cheetah_15k(), cfg);
        // Non-coalescible writes arriving back to back.
        let reqs: Vec<Request> = (0..5)
            .map(|i| write(i * 200_000, 10_000_000 * (i + 1), 32))
            .collect();
        let result = s.run(&reqs).unwrap();
        assert_eq!(result.writes_cached, 2);
        assert_eq!(result.writes_forced, 3);
    }

    #[test]
    fn flush_at_end_can_be_disabled() {
        let mut cfg = SimConfig::default();
        cfg.flush_at_end = false;
        let mut s = DiskSim::new(DriveProfile::cheetah_15k(), cfg);
        let result = s.run(&[write(0, 1000, 8)]).unwrap();
        assert_eq!(result.destages, 0);
    }

    /// Simulator with a registry observer and a flight recorder attached.
    fn traced_sim() -> (
        DiskSim,
        spindle_obs::MetricsRegistry,
        std::sync::Arc<spindle_obs::FlightRecorder>,
    ) {
        use spindle_obs::{FlightRecorder, MetricsRegistry, ObsConfig};
        use std::sync::Arc;

        let registry = MetricsRegistry::new();
        let rec = Arc::new(FlightRecorder::new());
        let mut s = sim();
        s.attach_observer(
            SimObserver::new(&registry, &ObsConfig::metrics_only()).with_flight(Arc::clone(&rec)),
        );
        (s, registry, rec)
    }

    /// The `drive.events` instants of `rec`, in recording order.
    fn instants(rec: &spindle_obs::FlightRecorder) -> Vec<spindle_obs::SimSlice> {
        rec.sim_slices()
            .into_iter()
            .filter(|e| e.track == crate::obs::track::EVENTS)
            .collect()
    }

    #[test]
    fn observer_counters_match_sim_result() {
        use crate::obs::instant;

        let (mut s, registry, rec) = traced_sim();
        // A mix of reads (some sequential for hits) and writes with idle
        // gaps so destaging kicks in.
        let mut reqs = Vec::new();
        for i in 0..8u64 {
            reqs.push(read(i * 2_000_000, 10_000 + i * 8, 8));
        }
        for i in 0..4u64 {
            reqs.push(write(
                100_000_000 + i * 1_000_000,
                50_000_000 + i * 200_000,
                64,
            ));
        }
        let result = s.run(&reqs).unwrap();
        assert!(result.destages > 0, "the stream must exercise destaging");

        let snap = registry.snapshot();
        let total = reqs.len() as u64;
        assert_eq!(snap.counter("disk.requests_completed"), Some(total));
        assert_eq!(snap.counter("disk.read_hits"), Some(result.read_hits));
        assert_eq!(snap.counter("disk.read_misses"), Some(result.read_misses));
        assert_eq!(
            snap.counter("disk.writes_cached"),
            Some(result.writes_cached)
        );
        assert_eq!(
            snap.counter("disk.writes_forced"),
            Some(result.writes_forced)
        );
        assert_eq!(snap.counter("disk.destages"), Some(result.destages));
        let resp = snap.histogram("disk.response_us").unwrap();
        assert_eq!(resp.count, total);
        let depth = snap.histogram("disk.queue_depth").unwrap();
        assert_eq!(depth.count, total, "one depth sample per dispatch");

        // Instant consistency: one enqueue/dispatch/complete per
        // request, one cache event per request, one destage event per
        // destage operation.
        let events = instants(&rec);
        let count = |k: &str| events.iter().filter(|e| e.name == k).count() as u64;
        assert_eq!(count(instant::REQUEST_ENQUEUE), total);
        assert_eq!(count(instant::REQUEST_DISPATCH), total);
        assert_eq!(count(instant::REQUEST_COMPLETE), total);
        assert_eq!(
            count(instant::CACHE_HIT) + count(instant::CACHE_MISS),
            total
        );
        assert_eq!(count(instant::DESTAGE), result.destages);
        assert_eq!(count(instant::IDLE_BEGIN), count(instant::IDLE_END));
    }

    #[test]
    fn unobserved_sim_matches_observed_sim() {
        // Write-back writes (destaged in the idle gaps) interleaved with
        // scattered reads, plus one injected media error and timeout.
        let reqs: Vec<Request> = (0..24)
            .map(|i| {
                if i % 3 == 0 {
                    write(i * 3_000_000, 20_000_000 + i * 500_000, 32)
                } else {
                    read(i * 3_000_000, 40_000_000 + i * 1_000_000, 8)
                }
            })
            .collect();
        let mut faults = SimFaults::default();
        faults.media_errors.insert(4);
        faults.timeouts.insert(7);

        let mut plain = sim();
        plain.inject_faults(faults.clone());
        let base = plain.run(&reqs).unwrap();
        assert!(base.destages > 0);
        assert_eq!((base.media_errors, base.timeouts), (1, 1));

        let (mut observed, _registry, _rec) = traced_sim();
        observed.inject_faults(faults);
        // Telemetry must not perturb simulation results.
        assert_eq!(base, observed.run(&reqs).unwrap());
    }

    fn scattered_reads(n: u64, gap_ns: u64) -> Vec<Request> {
        (0..n)
            .map(|i| read(i * gap_ns, (i * 7_919_000) % 8_000_000, 8))
            .collect()
    }

    #[test]
    fn injected_faults_are_deterministic_and_add_latency() {
        let reqs = scattered_reads(10, 50_000_000);
        let clean = sim().run(&reqs).unwrap();
        assert_eq!(clean.media_errors, 0);
        assert_eq!(clean.timeouts, 0);

        let mut faults = SimFaults::default();
        faults.media_errors.insert(3);
        faults.timeouts.insert(5);
        let mut a = sim();
        a.inject_faults(faults.clone());
        let faulted = a.run(&reqs).unwrap();
        let mut b = sim();
        b.inject_faults(faults);
        assert_eq!(faulted, b.run(&reqs).unwrap(), "same faults, same result");

        assert_eq!(faulted.media_errors, 1);
        assert_eq!(faulted.timeouts, 1);
        // Every request still completes: faults perturb timing only.
        assert_eq!(faulted.completed.len(), clean.completed.len());
        // Requests before the first fault site are byte-identical.
        for (c, f) in clean.completed.iter().zip(&faulted.completed).take(3) {
            assert_eq!(c, f);
        }
        // The media error costs one extra revolution; the timeout costs
        // the full penalty (modulo the changed rotational position).
        let media_delta =
            faulted.completed[3].complete_ns as i64 - clean.completed[3].complete_ns as i64;
        assert!(media_delta > 0, "media retry must slow the request");
        let timeout_delta =
            faulted.completed[5].complete_ns as i64 - clean.completed[5].complete_ns as i64;
        assert!(
            timeout_delta >= TIMEOUT_PENALTY_NS as i64 - 5_000_000,
            "timeout delta {timeout_delta} ns"
        );
    }

    #[test]
    fn media_fault_is_inert_on_cache_hits() {
        // Sequential reads: everything after the first is a read-ahead
        // hit, so a media error aimed at a hit never touches the medium.
        let reqs: Vec<Request> = (0..8)
            .map(|i| read(i * 5_000_000, 10_000 + i * 8, 8))
            .collect();
        let clean = sim().run(&reqs).unwrap();
        let mut faults = SimFaults::default();
        faults.media_errors.insert(4);
        let mut s = sim();
        s.inject_faults(faults);
        let faulted = s.run(&reqs).unwrap();
        assert_eq!(faulted.media_errors, 0);
        assert_eq!(clean, faulted);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let reqs = scattered_reads(6, 30_000_000);
        let clean = sim().run(&reqs).unwrap();
        let mut s = sim();
        s.inject_faults(SimFaults::default());
        assert_eq!(clean, s.run(&reqs).unwrap());
    }

    #[test]
    fn fault_events_and_counters_reach_the_observer() {
        use crate::obs::instant;

        let (mut s, registry, rec) = traced_sim();
        let mut faults = SimFaults::default();
        faults.media_errors.insert(1);
        faults.timeouts.insert(2);
        s.inject_faults(faults);

        let result = s.run(&scattered_reads(5, 40_000_000)).unwrap();
        assert_eq!(result.media_errors, 1);
        assert_eq!(result.timeouts, 1);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("disk.media_errors"), Some(1));
        assert_eq!(snap.counter("disk.timeouts"), Some(1));

        let events = instants(&rec);
        let detail = |k: &str| -> Vec<_> {
            events
                .iter()
                .filter(|e| e.name == k)
                .map(|e| e.args[0].1.clone())
                .collect()
        };
        use spindle_obs::json::Json;
        assert_eq!(
            detail(instant::MEDIA_ERROR),
            [Json::Uint(1)],
            "the instant names the request id"
        );
        assert_eq!(detail(instant::TIMEOUT), [Json::Uint(2)]);
    }
}
