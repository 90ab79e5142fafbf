//! Request queue scheduling disciplines.
//!
//! Four classical policies are provided. The scheduler sees the queue of
//! *arrived, unserviced* requests together with the current head position
//! and (for SPTF) the mechanical model, and picks which request to service
//! next. Scheduling is non-preemptive, as in real drive firmware.

use crate::mechanics::Mechanics;
use crate::{DiskError, Result};
use spindle_trace::Request;
use std::fmt;

/// A queued request as seen by the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Identifier assigned by the simulator: the request's position in
    /// the stream.
    pub id: u64,
    /// The request itself.
    pub request: Request,
    /// Target track (precomputed by the simulator).
    pub track: u64,
}

/// A queue scheduling policy.
///
/// Implementations must return an index into `queue`; the simulator
/// guarantees `queue` is non-empty and ordered by arrival time.
pub trait SchedulerPolicy: fmt::Debug + Send {
    /// Picks the index of the next request to service.
    fn select(
        &mut self,
        queue: &[QueuedRequest],
        head_track: u64,
        now_ns: f64,
        mechanics: &Mechanics,
    ) -> usize;

    /// Policy name for reports.
    fn name(&self) -> &'static str;
}

/// First-come, first-served.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fcfs;

impl SchedulerPolicy for Fcfs {
    fn select(&mut self, _q: &[QueuedRequest], _h: u64, _n: f64, _m: &Mechanics) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "FCFS"
    }
}

/// Shortest seek time first: the request on the track closest to the
/// head. Ties break toward the earliest arrival.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sstf;

impl SchedulerPolicy for Sstf {
    fn select(&mut self, queue: &[QueuedRequest], head: u64, _n: f64, _m: &Mechanics) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.track.abs_diff(head))
            .map(|(i, _)| i)
            .expect("scheduler called with non-empty queue")
    }

    fn name(&self) -> &'static str {
        "SSTF"
    }
}

/// LOOK (elevator): services requests in the current sweep direction,
/// reversing when no request remains ahead of the head.
#[derive(Debug, Clone, Copy)]
pub struct Look {
    ascending: bool,
}

impl Look {
    /// Creates a LOOK scheduler starting in the ascending direction.
    pub fn new() -> Self {
        Look { ascending: true }
    }
}

impl Default for Look {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedulerPolicy for Look {
    fn select(&mut self, queue: &[QueuedRequest], head: u64, _n: f64, _m: &Mechanics) -> usize {
        let pick_ahead = |ascending: bool| -> Option<usize> {
            queue
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    if ascending {
                        r.track >= head
                    } else {
                        r.track <= head
                    }
                })
                .min_by_key(|(_, r)| r.track.abs_diff(head))
                .map(|(i, _)| i)
        };
        if let Some(i) = pick_ahead(self.ascending) {
            return i;
        }
        self.ascending = !self.ascending;
        pick_ahead(self.ascending).expect("non-empty queue has a request in some direction")
    }

    fn name(&self) -> &'static str {
        "LOOK"
    }
}

/// Shortest positioning time first: minimizes seek **plus rotational**
/// delay using the mechanical model — the policy real enterprise firmware
/// approximates.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sptf;

impl SchedulerPolicy for Sptf {
    fn select(&mut self, queue: &[QueuedRequest], head: u64, now_ns: f64, m: &Mechanics) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let ta = positioning_ns(m, head, now_ns, a);
                let tb = positioning_ns(m, head, now_ns, b);
                ta.partial_cmp(&tb).expect("positioning times are finite")
            })
            .map(|(i, _)| i)
            .expect("scheduler called with non-empty queue")
    }

    fn name(&self) -> &'static str {
        "SPTF"
    }
}

fn positioning_ns(m: &Mechanics, head: u64, now_ns: f64, r: &QueuedRequest) -> f64 {
    match m.service(head, now_ns, r.request.lba, r.request.sectors) {
        Ok(t) => t.seek_ns + t.rotation_ns,
        // Out-of-range requests are rejected before queueing; treat any
        // residual error as "infinitely far" so it is picked last.
        Err(_) => f64::INFINITY,
    }
}

/// Selector for the built-in scheduling policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// First-come, first-served.
    Fcfs,
    /// Shortest seek time first.
    Sstf,
    /// LOOK elevator.
    Look,
    /// Shortest positioning time first (the default; matches enterprise
    /// firmware behavior most closely).
    #[default]
    Sptf,
}

impl SchedulerKind {
    /// Instantiates the policy.
    pub fn create(self) -> Box<dyn SchedulerPolicy> {
        match self {
            SchedulerKind::Fcfs => Box::new(Fcfs),
            SchedulerKind::Sstf => Box::new(Sstf),
            SchedulerKind::Look => Box::new(Look::new()),
            SchedulerKind::Sptf => Box::new(Sptf),
        }
    }

    /// All built-in policies, for ablation sweeps.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::Fcfs,
            SchedulerKind::Sstf,
            SchedulerKind::Look,
            SchedulerKind::Sptf,
        ]
    }

    /// Parses a (case-insensitive) policy name.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::InvalidConfig`] for an unknown name.
    pub fn parse(name: &str) -> Result<Self> {
        match name.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(SchedulerKind::Fcfs),
            "sstf" => Ok(SchedulerKind::Sstf),
            "look" => Ok(SchedulerKind::Look),
            "sptf" => Ok(SchedulerKind::Sptf),
            _ => Err(DiskError::InvalidConfig {
                name: "scheduler",
                reason: "expected one of fcfs, sstf, look, sptf",
            }),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.create().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DiskGeometry;
    use spindle_trace::{DriveId, OpKind};

    fn mechanics() -> Mechanics {
        let g = DiskGeometry::uniform(10_000, 1000).unwrap();
        Mechanics::new(g, 10_000.0, 0.3, 4.0, 9.0, 0.3).unwrap()
    }

    fn queued(id: u64, lba: u64, track: u64) -> QueuedRequest {
        QueuedRequest {
            id,
            request: Request::new(id, DriveId(0), OpKind::Read, lba, 8).unwrap(),
            track,
        }
    }

    fn q(id: u64, track: u64) -> QueuedRequest {
        queued(id, track * 1000, track)
    }

    #[test]
    fn fcfs_picks_first() {
        let m = mechanics();
        let queue = [q(0, 900), q(1, 10), q(2, 500)];
        assert_eq!(Fcfs.select(&queue, 500, 0.0, &m), 0);
    }

    #[test]
    fn sstf_picks_nearest_track() {
        let m = mechanics();
        let queue = [q(0, 900), q(1, 490), q(2, 100)];
        assert_eq!(Sstf.select(&queue, 500, 0.0, &m), 1);
    }

    #[test]
    fn sstf_tie_breaks_by_arrival() {
        let m = mechanics();
        let queue = [q(0, 510), q(1, 490)];
        // Both 10 tracks away; min_by_key keeps the first (earlier
        // arrival).
        assert_eq!(Sstf.select(&queue, 500, 0.0, &m), 0);
    }

    #[test]
    fn look_sweeps_then_reverses() {
        let m = mechanics();
        let mut look = Look::new();
        let queue = [q(0, 300), q(1, 600), q(2, 800)];
        // Ascending from 500: nearest at-or-above is 600.
        assert_eq!(look.select(&queue, 500, 0.0, &m), 1);
        // Still ascending from 800 with only 300 left below: reverse.
        let queue2 = [q(0, 300)];
        assert_eq!(look.select(&queue2, 800, 0.0, &m), 0);
        // Now descending: from 700, picks 650 over 720.
        let queue3 = [q(0, 650), q(1, 720)];
        assert_eq!(look.select(&queue3, 700, 0.0, &m), 0);
    }

    #[test]
    fn sptf_accounts_for_rotation() {
        let m = mechanics();
        // Two requests on the same track as the head: no seek for either;
        // SPTF must pick the one with the shorter rotational wait from
        // now. At t=0 the head is at angle 0; offset 100 (of 1000) is
        // closer than offset 900.
        let near = queued(0, 500 * 1000 + 900, 500);
        let far = queued(1, 500 * 1000 + 100, 500);
        let idx = Sptf.select(&[near, far], 500, 0.0, &m);
        assert_eq!(idx, 1, "SPTF should pick the rotationally closer sector");
    }

    #[test]
    fn sptf_prefers_near_track_over_far() {
        let m = mechanics();
        let queue = [q(0, 9_000), q(1, 505)];
        assert_eq!(Sptf.select(&queue, 500, 0.0, &m), 1);
    }

    #[test]
    fn kind_parsing_and_display() {
        assert_eq!(SchedulerKind::parse("FCFS").unwrap(), SchedulerKind::Fcfs);
        assert_eq!(SchedulerKind::parse("sptf").unwrap(), SchedulerKind::Sptf);
        assert!(SchedulerKind::parse("elevator").is_err());
        assert_eq!(SchedulerKind::Look.to_string(), "LOOK");
        assert_eq!(SchedulerKind::all().len(), 4);
        assert_eq!(SchedulerKind::default(), SchedulerKind::Sptf);
    }
}
