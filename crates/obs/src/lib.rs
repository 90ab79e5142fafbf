//! Observability layer for the spindle pipeline.
//!
//! The toolkit's whole purpose is measuring disk behaviour at multiple
//! time-scales; this crate gives the generate → simulate → analyze
//! pipeline the same treatment. It provides, with **zero external
//! dependencies** (the crate builds offline and adds nothing to the
//! dependency closure of the crates it instruments):
//!
//! * [`registry`] — a thread-safe [`MetricsRegistry`] of monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s with
//!   p50/p95/p99 readout, all on `std::sync::atomic`.
//! * [`span`] — lightweight wall-clock span timers ([`ObsSpan`] and the
//!   [`time_scope!`] macro) attributing time to pipeline stages.
//! * [`sink`] — the pluggable [`MetricsSink`] export trait with
//!   [`TextSink`] and [`JsonSink`] implementations.
//! * [`rollup`] — hierarchical multi-resolution metric rollups
//!   ([`RollupSet`]): every counter/gauge/histogram banked into
//!   bounded ring-buffered windows at several sim-time and wall-time
//!   resolutions at once, with exact histogram merge across windows
//!   plus derived rates, burstiness, and idle statistics.
//! * [`exemplar`] — deterministic per-bucket histogram exemplars
//!   ([`ExemplarStore`]) linking tail buckets back to concrete request
//!   ids and flight-recorder slices.
//! * [`frame`] — the cross-process telemetry frame protocol: a
//!   compact, versioned, length-prefixed and checksummed binary codec
//!   (progress heartbeats and flight-recorder wall-span batches) with
//!   an incremental, hostile-input-safe decoder, spoken between job
//!   children and the `spindle serve` daemon.
//! * [`hash`] — FNV-1a, the one hash behind frame checksums, trace
//!   ids and breaker fingerprints.
//! * [`jsonl`] — durable JSON-lines logs: the fsync'd append handle and
//!   the one torn-tail-tolerant reader behind the checkpoint journal,
//!   the serve job journal and the per-job span file.
//! * [`logger`] — a tiny leveled stderr logger behind the
//!   [`progress!`]/[`detail!`] macros, driving `--verbose`/`--quiet`.
//! * [`prom`] — a Prometheus text exposition encoder ([`PromSink`]),
//!   the format the `spindle-pulse` `/metrics` endpoint serves.
//! * [`json`] — a minimal JSON value, emitter, and parser used by the
//!   JSON sink and its round-trip tests (the workspace pins no JSON
//!   dependency, and the offline build registry has none to offer).
//! * [`recorder`] — the [`FlightRecorder`]: full per-event capture of a
//!   run on two correlated timelines (simulated time and wall-clock
//!   time), attached only when a trace export is requested; a run
//!   streaming telemetry to a daemon keeps a wall-only one. It is the
//!   one store of simulator events: the disk simulator reports each
//!   outcome once, and its observer writes the outcome's slices and
//!   instants here.
//! * [`trace_event`] — Chrome trace-event JSON export of a recorder,
//!   loadable in Perfetto / `chrome://tracing`.
//!
//! # Overhead guarantee
//!
//! Instrumented hot paths test one `Option` before touching telemetry;
//! with no observer attached (the default) the added cost is a
//! predicted-not-taken branch. Counter and histogram updates are single
//! relaxed atomic operations on pre-resolved handles — no map lookups on
//! the hot path. Per-event capture (slices and instants) happens only in
//! a [`FlightRecorder`], which is attached only when a trace is asked
//! for.
//!
//! # Example
//!
//! ```
//! use spindle_obs::{JsonSink, MetricsRegistry, MetricsSink};
//!
//! let registry = MetricsRegistry::new();
//! let served = registry.counter("disk.requests_completed");
//! let latency = registry.histogram("disk.response_us");
//! for us in [120, 450, 90, 3100] {
//!     served.inc();
//!     latency.record(us);
//! }
//! {
//!     let _t = registry.span("pipeline.simulate");
//!     // ... timed work ...
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("disk.requests_completed"), Some(4));
//! let json = JsonSink.export_string(&snap).unwrap();
//! assert!(json.contains("disk.response_us"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod exemplar;
pub mod frame;
pub mod hash;
pub mod json;
pub mod jsonl;
pub mod logger;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod rollup;
pub mod sink;
pub mod span;
pub mod trace_event;

pub use config::ObsConfig;
pub use exemplar::{Exemplar, ExemplarHandle, ExemplarStore};
pub use frame::{Frame, FrameDecoder, FrameError, SpanBatch, SpanRec};
pub use logger::LogLevel;
pub use prom::PromSink;
pub use recorder::{FlightRecorder, SimSlice, WallSlice};
pub use registry::{
    global, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, Snapshot, SpanStats,
};
pub use rollup::{Resolution, RollupSet, RollupSnapshot};
pub use sink::{JsonSink, MetricsSink, TextSink};
pub use span::ObsSpan;
pub use trace_event::TraceEventSink;
