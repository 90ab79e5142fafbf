//! Event-driven disk drive simulator.
//!
//! The paper's quantities of interest — utilization, busy/idle structure,
//! idleness availability — are properties of the drive's *service
//! process*, not of the arrival stream alone. This crate provides a
//! mechanical disk model detailed enough to turn a request stream into a
//! realistic busy/idle timeline:
//!
//! * [`geometry`] — zoned-bit-recording geometry mapping LBAs to tracks
//!   and rotational offsets.
//! * [`mechanics`] — seek-curve, rotational-latency, and transfer timing.
//! * [`cache`] — on-drive segmented cache with read-ahead and write-back
//!   (with idle-time destaging, the mechanism that couples write traffic
//!   to the idle structure).
//! * [`scheduler`] — FCFS, SSTF, LOOK, and SPTF queue disciplines.
//! * [`sim`] — the event-driven engine producing per-request response
//!   times and the busy-period log, with deterministic media-error and
//!   command-timeout fault injection ([`sim::SimFaults`]).
//! * [`busy`] — busy/idle timeline post-processing (idle intervals,
//!   windowed utilization series).
//! * [`profile`] — parameter presets for enterprise drives of the paper's
//!   era (c. 2006–2009).
//! * [`obs`] — opt-in telemetry, attached with
//!   [`sim::DiskSim::attach_observer`]: the simulator reports each
//!   served request, idle gap and destage once, and the observer
//!   derives counters, latency/queue-depth histograms, sim rollups and
//!   flight-recorder tracks from that record. With no observer the
//!   simulator pays only an untaken branch per outcome.
//!
//! # Example
//!
//! ```
//! use spindle_disk::profile::DriveProfile;
//! use spindle_disk::sim::{DiskSim, SimConfig};
//! use spindle_trace::{Request, DriveId, OpKind};
//!
//! let profile = DriveProfile::cheetah_15k();
//! let mut sim = DiskSim::new(profile, SimConfig::default());
//! let requests = vec![
//!     Request::new(0, DriveId(0), OpKind::Read, 1_000, 8).unwrap(),
//!     Request::new(20_000_000, DriveId(0), OpKind::Write, 50_000, 64).unwrap(),
//! ];
//! let result = sim.run(&requests)?;
//! assert_eq!(result.completed.len(), 2);
//! assert!(result.total_busy_ns() > 0);
//! # Ok::<(), spindle_disk::DiskError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod busy;
pub mod cache;
pub mod geometry;
pub mod mechanics;
pub mod obs;
pub mod power;
pub mod profile;
pub mod scheduler;
pub mod sim;

mod error;

pub use error::DiskError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, DiskError>;
