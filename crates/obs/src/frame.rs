//! Cross-process telemetry frame protocol.
//!
//! A job child and the daemon that spawned it speak a compact,
//! versioned, length-prefixed binary protocol over a local byte
//! stream (the serve runner hands the child a `127.0.0.1` sink
//! address via `SPINDLE_TELEMETRY_SINK`). Four payload families cover
//! the telemetry plane:
//!
//! * [`Frame::Snapshot`] — a full registry snapshot stamped with
//!   nanoseconds since the child's export epoch. The receiver computes
//!   deltas against the previous snapshot ([`rollup::snapshot_delta`])
//!   and banks them into a per-job [`RollupSet`] plus a fleet-wide
//!   wheel, so cross-process rollups use exactly the in-process merge
//!   arithmetic.
//! * [`Frame::Progress`] — phase name plus completed/total work units.
//! * [`Frame::Log`] — one exporter-side log-tail line.
//! * [`Frame::Span`] — a [`SpanBatch`]: the child's flight-recorder
//!   wall-clock spans on its monotonic clock, shipped at shutdown so
//!   the daemon can assemble a causal cross-process trace. Sim-time
//!   tracks never cross the wire; their one home is the `trace.json`
//!   a `--trace-out` run writes.
//!
//! [`Frame::Hello`] opens every stream (protocol version, child pid,
//! label, and the sender's monotonic-epoch reading, which lets the
//! receiver compute a per-child clock offset and align wall spans onto
//! its own timeline) and [`Frame::Bye`] closes it cleanly; a stream
//! that ends without `Bye` is a torn tail (child killed mid-stream).
//! Both ends are the same build (the daemon spawns its own binaries),
//! so the decoder accepts exactly [`PROTOCOL_VERSION`].
//!
//! # Wire format
//!
//! Every frame is independently delimited and checksummed:
//!
//! ```text
//! [u32 le: body length]  [u32 le: FNV-1a of body]  [body: kind byte + fields]
//! ```
//!
//! Integers are little-endian; strings are `u16` length + UTF-8 bytes;
//! map-like payloads are emitted in sorted key order so encoding a
//! given frame is byte-deterministic. The decoder is incremental and
//! hostile-input safe: truncated prefixes simply wait for more bytes,
//! bit flips fail the checksum, an unknown version is a typed error,
//! and no declared count is trusted for allocation — a decode error
//! poisons the stream (length-prefixed framing cannot resync) but
//! never panics. The one forward-compat carve-out: a checksum-valid
//! frame whose *kind byte* is unknown is skipped and counted
//! ([`FrameDecoder::skipped`]) rather than poisoning, because the
//! length prefix already delimits it exactly.
//!
//! [`RollupSet`]: crate::rollup::RollupSet
//! [`rollup::snapshot_delta`]: crate::rollup::snapshot_delta

use crate::hash::fnv1a32;
use crate::json::Json;
use crate::registry::{HistogramSnapshot, Snapshot};
use std::fmt;

/// Protocol version carried in every [`Frame::Hello`]. The decoder
/// accepts only this version: any other is [`FrameError::Version`]
/// rather than a guess at an unknown layout.
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on one frame's body, rejecting hostile length prefixes
/// before any allocation. Real snapshots are a few KiB.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Env var naming the telemetry sink address (`HOST:PORT`) a child
/// exporter should connect to. Defined here so the obs crate is the
/// single source of truth for the protocol's contract; the pulse
/// exporter and the serve runner both read it from this constant.
pub const SINK_ENV: &str = "SPINDLE_TELEMETRY_SINK";

const KIND_HELLO: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
// Kind 3 carried version 2's rollup windows; it stays retired so an
// old frame is skipped, never misread.
const KIND_PROGRESS: u8 = 4;
const KIND_LOG: u8 = 5;
const KIND_BYE: u8 = 6;
const KIND_SPAN: u8 = 7;

/// The one span-record flag: a duration follows `begin_ns`.
const FLAG_DUR: u8 = 2;

/// One telemetry frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Stream opener: protocol version, child pid, free-form label.
    Hello {
        /// Must be [`PROTOCOL_VERSION`]; anything else is
        /// [`FrameError::Version`].
        version: u16,
        /// The sender's process id (0 when unknown).
        pid: u32,
        /// Free-form sender label (binary name, job id, …).
        label: String,
        /// Nanoseconds already elapsed on the sender's span clock (the
        /// flight-recorder epoch) when this Hello was encoded. The
        /// receiver reads its own clock at decode time and subtracts,
        /// yielding the per-child offset that maps span timestamps
        /// onto the receiver's timeline.
        epoch_ns: u64,
    },
    /// A full registry snapshot at `t_ns` since the export epoch.
    /// Spans are not carried — window accumulators do not bank them.
    Snapshot {
        /// Nanoseconds since the sender's export epoch.
        t_ns: u64,
        /// The registry snapshot (spans always empty on decode).
        snapshot: Snapshot,
    },
    /// Phase plus completed/total work units at `t_ns`.
    Progress {
        /// Nanoseconds since the sender's export epoch.
        t_ns: u64,
        /// Work units finished so far.
        completed: u64,
        /// Total work units (0 when unknown).
        total: u64,
        /// Current phase name.
        phase: String,
    },
    /// One log-tail line at `t_ns`.
    Log {
        /// Nanoseconds since the sender's export epoch.
        t_ns: u64,
        /// The line (truncated to 64 KiB on encode).
        line: String,
    },
    /// Clean end of stream.
    Bye {
        /// Nanoseconds since the sender's export epoch.
        t_ns: u64,
        /// Frames the sender emitted before this one.
        frames_sent: u64,
    },
    /// A batch of flight-recorder wall spans.
    Span(SpanBatch),
}

/// A batch of flight-recorder wall spans shipped upstream so the
/// receiver can assemble a cross-process trace, stamped on the
/// sender's span clock (the same epoch the Hello's `epoch_ns` reads).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBatch {
    /// Nanoseconds since the sender's export epoch when the batch was
    /// encoded.
    pub t_ns: u64,
    /// Spans the sender recorded but did not ship (batch cap hit);
    /// non-zero means the trace is truncated, visibly.
    pub dropped: u64,
    /// The spans, in recording order.
    pub spans: Vec<SpanRec>,
}

/// One interval or instant in a [`SpanBatch`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Thread label of the sender's thread that recorded the span.
    pub track: String,
    /// What the span is.
    pub name: String,
    /// Start in nanoseconds on the sender's span clock.
    pub begin_ns: u64,
    /// Duration in nanoseconds; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Pre-rendered JSON object of span detail (empty when none).
    pub args: String,
}

/// Renders span args to the [`SpanRec::args`] form: a JSON object
/// string, or empty when there are none.
#[must_use]
pub fn render_args(args: &[(String, Json)]) -> String {
    if args.is_empty() {
        String::new()
    } else {
        Json::Obj(args.to_vec()).to_string()
    }
}

/// Why a frame could not be decoded. Every error except
/// [`FrameError::UnknownKind`] poisons the stream: length-prefixed
/// framing has no resync point, so the receiver stops reading (and
/// counts the error) instead of guessing. An unknown kind on a
/// checksum-valid frame is skipped instead — the length prefix
/// delimits it exactly, so the stream stays decodable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A checksum-valid frame body ended before its declared fields.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversize {
        /// The declared body length.
        len: u32,
    },
    /// Body bytes do not hash to the carried checksum (bit flip).
    Checksum {
        /// Checksum carried on the wire.
        expected: u32,
        /// Checksum of the received body.
        got: u32,
    },
    /// The kind byte names no known frame type.
    UnknownKind(u8),
    /// The `Hello` announced a protocol version this decoder does not
    /// speak.
    Version {
        /// The announced version.
        got: u16,
    },
    /// Structurally invalid body (bad UTF-8, trailing bytes, …).
    Corrupt(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch (wire {expected:#010x}, body {got:#010x})"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Version { got } => {
                write!(
                    f,
                    "protocol version {got} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Strings carry a `u16` length; longer inputs are truncated at a char
/// boundary (log lines are the only field that can plausibly hit this).
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(usize::from(u16::MAX));
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_u16(out, end as u16);
    out.extend_from_slice(&s.as_bytes()[..end]);
}

fn put_hist(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    put_u32(out, h.bounds.len() as u32);
    for b in &h.bounds {
        put_u64(out, *b);
    }
    // Buckets are always bounds+1 long (overflow last); the count is
    // implied and not re-encoded.
    for b in &h.buckets {
        put_u64(out, *b);
    }
    put_u64(out, h.count);
    put_u64(out, h.sum);
}

impl Frame {
    /// Encodes the frame as one self-delimiting wire unit. Map-like
    /// payloads come out in sorted key order, so equal frames encode
    /// to identical bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            Frame::Hello {
                version,
                pid,
                label,
                epoch_ns,
            } => {
                body.push(KIND_HELLO);
                put_u16(&mut body, *version);
                put_u32(&mut body, *pid);
                put_str(&mut body, label);
                put_u64(&mut body, *epoch_ns);
            }
            Frame::Snapshot { t_ns, snapshot } => {
                body.push(KIND_SNAPSHOT);
                put_u64(&mut body, *t_ns);
                put_u32(&mut body, snapshot.counters.len() as u32);
                for (name, v) in &snapshot.counters {
                    put_str(&mut body, name);
                    put_u64(&mut body, *v);
                }
                put_u32(&mut body, snapshot.gauges.len() as u32);
                for (name, v) in &snapshot.gauges {
                    put_str(&mut body, name);
                    put_i64(&mut body, *v);
                }
                put_u32(&mut body, snapshot.histograms.len() as u32);
                for (name, h) in &snapshot.histograms {
                    put_str(&mut body, name);
                    put_hist(&mut body, h);
                }
            }
            Frame::Progress {
                t_ns,
                completed,
                total,
                phase,
            } => {
                body.push(KIND_PROGRESS);
                put_u64(&mut body, *t_ns);
                put_u64(&mut body, *completed);
                put_u64(&mut body, *total);
                put_str(&mut body, phase);
            }
            Frame::Log { t_ns, line } => {
                body.push(KIND_LOG);
                put_u64(&mut body, *t_ns);
                put_str(&mut body, line);
            }
            Frame::Bye { t_ns, frames_sent } => {
                body.push(KIND_BYE);
                put_u64(&mut body, *t_ns);
                put_u64(&mut body, *frames_sent);
            }
            Frame::Span(batch) => {
                body.push(KIND_SPAN);
                put_u64(&mut body, batch.t_ns);
                put_u64(&mut body, batch.dropped);
                put_u32(&mut body, batch.spans.len() as u32);
                for s in &batch.spans {
                    body.push(if s.dur_ns.is_some() { FLAG_DUR } else { 0 });
                    put_str(&mut body, &s.track);
                    put_str(&mut body, &s.name);
                    put_u64(&mut body, s.begin_ns);
                    if let Some(dur) = s.dur_ns {
                        put_u64(&mut body, dur);
                    }
                    put_str(&mut body, &s.args);
                }
            }
        }
        let mut out = Vec::with_capacity(body.len() + 8);
        put_u32(&mut out, body.len() as u32);
        put_u32(&mut out, fnv1a32(&body));
        out.extend_from_slice(&body);
        out
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).ok_or(FrameError::Truncated)?;
        if end > self.buf.len() {
            return Err(FrameError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn i64(&mut self) -> Result<i64, FrameError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(i64::from_le_bytes(raw))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Corrupt("string is not UTF-8"))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Corrupt("trailing bytes after frame body"))
        }
    }
}

/// Declared element counts are never trusted for allocation — vectors
/// grow as elements actually decode, so a hostile count fails with
/// [`FrameError::Truncated`] before any large reservation.
fn read_hist(r: &mut Reader<'_>) -> Result<HistogramSnapshot, FrameError> {
    let n_bounds = r.u32()? as usize;
    let mut bounds = Vec::new();
    for _ in 0..n_bounds {
        bounds.push(r.u64()?);
    }
    let mut buckets = Vec::new();
    for _ in 0..=n_bounds {
        buckets.push(r.u64()?);
    }
    let count = r.u64()?;
    let sum = r.u64()?;
    Ok(HistogramSnapshot {
        bounds,
        buckets,
        count,
        sum,
    })
}

fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut r = Reader { buf: body, pos: 0 };
    let kind = r.u8()?;
    let frame = match kind {
        KIND_HELLO => {
            let version = r.u16()?;
            if version != PROTOCOL_VERSION {
                return Err(FrameError::Version { got: version });
            }
            let pid = r.u32()?;
            let label = r.str()?;
            let epoch_ns = r.u64()?;
            Frame::Hello {
                version,
                pid,
                label,
                epoch_ns,
            }
        }
        KIND_SNAPSHOT => {
            let t_ns = r.u64()?;
            let mut counters = Vec::new();
            let n = r.u32()?;
            for _ in 0..n {
                let name = r.str()?;
                counters.push((name, r.u64()?));
            }
            let mut gauges = Vec::new();
            let n = r.u32()?;
            for _ in 0..n {
                let name = r.str()?;
                gauges.push((name, r.i64()?));
            }
            let mut histograms = Vec::new();
            let n = r.u32()?;
            for _ in 0..n {
                let name = r.str()?;
                histograms.push((name, read_hist(&mut r)?));
            }
            Frame::Snapshot {
                t_ns,
                snapshot: Snapshot {
                    counters,
                    gauges,
                    histograms,
                    spans: Vec::new(),
                },
            }
        }
        KIND_PROGRESS => {
            let t_ns = r.u64()?;
            let completed = r.u64()?;
            let total = r.u64()?;
            let phase = r.str()?;
            Frame::Progress {
                t_ns,
                completed,
                total,
                phase,
            }
        }
        KIND_LOG => {
            let t_ns = r.u64()?;
            let line = r.str()?;
            Frame::Log { t_ns, line }
        }
        KIND_BYE => {
            let t_ns = r.u64()?;
            let frames_sent = r.u64()?;
            Frame::Bye { t_ns, frames_sent }
        }
        KIND_SPAN => {
            let t_ns = r.u64()?;
            let dropped = r.u64()?;
            let n = r.u32()?;
            let mut spans = Vec::new();
            for _ in 0..n {
                let flags = r.u8()?;
                if flags & !FLAG_DUR != 0 {
                    return Err(FrameError::Corrupt("unknown span flags"));
                }
                let track = r.str()?;
                let name = r.str()?;
                let begin_ns = r.u64()?;
                let dur_ns = if flags & FLAG_DUR != 0 {
                    Some(r.u64()?)
                } else {
                    None
                };
                let args = r.str()?;
                spans.push(SpanRec {
                    track,
                    name,
                    begin_ns,
                    dur_ns,
                    args,
                });
            }
            Frame::Span(SpanBatch {
                t_ns,
                dropped,
                spans,
            })
        }
        other => return Err(FrameError::UnknownKind(other)),
    };
    r.done()?;
    Ok(frame)
}

/// Incremental frame decoder over an untrusted byte stream.
///
/// Feed arbitrary chunks via [`FrameDecoder::push`]; drain complete
/// frames via [`FrameDecoder::next_frame`]. `Ok(None)` means "waiting
/// for more bytes"; any `Err` poisons the decoder permanently (the
/// stream has no resync point) and repeats on later calls. The one
/// exception is an unknown *kind* on a checksum-valid frame: the
/// length prefix delimits it exactly, so the decoder skips it, bumps
/// [`FrameDecoder::skipped`], and keeps decoding.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    consumed: usize,
    skipped: u64,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A fresh decoder.
    #[must_use]
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet decoded — non-zero at end of stream
    /// means a torn tail (the sender died mid-frame).
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Checksum-valid frames skipped because their kind byte named no
    /// frame type this decoder knows (a newer sender's extra kinds).
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    fn poison(&mut self, err: FrameError) -> Result<Option<Frame>, FrameError> {
        self.poisoned = Some(err.clone());
        Err(err)
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] poisons the decoder; later calls return the
    /// same error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        loop {
            let avail = &self.buf[self.consumed..];
            if avail.len() < 8 {
                return Ok(None);
            }
            let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]);
            if len == 0 {
                return self.poison(FrameError::Corrupt("zero-length frame"));
            }
            if len > MAX_FRAME_LEN {
                return self.poison(FrameError::Oversize { len });
            }
            let total = 8 + len as usize;
            if avail.len() < total {
                return Ok(None);
            }
            let expected = u32::from_le_bytes([avail[4], avail[5], avail[6], avail[7]]);
            let body = &avail[8..total];
            let got = fnv1a32(body);
            if got != expected {
                return self.poison(FrameError::Checksum { expected, got });
            }
            let frame = match decode_body(body) {
                Ok(f) => f,
                // The checksum already vouched for the bytes and the
                // length prefix delimits them, so an unrecognized kind
                // is safe to step over: count it and try the next
                // frame rather than killing the stream.
                Err(FrameError::UnknownKind(_)) => {
                    self.skipped += 1;
                    self.advance(total);
                    continue;
                }
                Err(e) => return self.poison(e),
            };
            self.advance(total);
            return Ok(Some(frame));
        }
    }

    fn advance(&mut self, total: usize) {
        self.consumed += total;
        // Reclaim the consumed prefix once it dominates the buffer so
        // a long-lived stream stays bounded by its largest frame.
        if self.consumed > 64 * 1024 && self.consumed * 2 > self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("disk.reads").add(41);
        reg.counter("disk.writes").add(7);
        reg.gauge("queue.depth").set(-3);
        let h = reg.histogram("disk.response_us");
        for v in [10, 200, 3000, 45] {
            h.record(v);
        }
        reg.snapshot()
    }

    fn all_kinds() -> Vec<Frame> {
        let snap = sample_snapshot();
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                pid: 4242,
                label: "job-0001".to_owned(),
                epoch_ns: 123_456_789,
            },
            Frame::Snapshot {
                t_ns: 1_500_000_000,
                snapshot: Snapshot {
                    spans: Vec::new(),
                    ..snap
                },
            },
            Frame::Progress {
                t_ns: 2_000_000_000,
                completed: 17,
                total: 32,
                phase: "running".to_owned(),
            },
            Frame::Log {
                t_ns: 2_100_000_000,
                line: "phase: exporting".to_owned(),
            },
            Frame::Bye {
                t_ns: 3_000_000_000,
                frames_sent: 5,
            },
            Frame::Span(SpanBatch {
                t_ns: 2_900_000_000,
                dropped: 3,
                spans: vec![
                    SpanRec {
                        track: "main".to_owned(),
                        name: "cli.simulate".to_owned(),
                        begin_ns: 1_000,
                        dur_ns: Some(2_000_000),
                        args: "{\"phase\":\"run\"}".to_owned(),
                    },
                    SpanRec {
                        track: "worker0".to_owned(),
                        name: "mark".to_owned(),
                        begin_ns: 42,
                        dur_ns: None,
                        args: String::new(),
                    },
                ],
            }),
        ]
    }

    #[test]
    fn roundtrip_every_kind_byte_at_a_time() {
        let frames = all_kinds();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().expect("valid stream") {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        for f in all_kinds() {
            assert_eq!(f.encode(), f.encode());
        }
    }

    #[test]
    fn truncated_length_prefix_waits_then_reads_as_torn_tail() {
        let wire = all_kinds()[0].encode();
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..3]);
        assert_eq!(dec.next_frame().expect("waiting"), None);
        assert_eq!(dec.buffered(), 3, "torn tail visible at EOF");
    }

    #[test]
    fn truncated_body_waits_rather_than_erroring() {
        let wire = all_kinds()[1].encode();
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..wire.len() - 1]);
        assert_eq!(dec.next_frame().expect("waiting"), None);
        assert!(dec.buffered() > 0);
        // The missing byte completes the frame.
        dec.push(&wire[wire.len() - 1..]);
        assert!(dec.next_frame().expect("complete").is_some());
    }

    #[test]
    fn checksum_valid_but_short_body_is_truncated_error() {
        // Craft a Progress body cut mid-field, with a *correct*
        // checksum over the cut body: framing accepts it, field
        // decoding must fail cleanly.
        let body = {
            let full = all_kinds()[2].encode();
            full[8..full.len() - 4].to_vec()
        };
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::Truncated));
    }

    #[test]
    fn every_single_bit_flip_is_caught_or_deferred() {
        let frames = all_kinds();
        let original = &frames[2];
        let wire = original.encode();
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut dec = FrameDecoder::new();
            dec.push(&flipped);
            // A flip may enlarge the length prefix (decoder waits for
            // bytes that never come) or corrupt the frame (typed
            // error). It can never decode back to the original, and it
            // never panics.
            match dec.next_frame() {
                Ok(None) | Err(_) => {}
                Ok(Some(f)) => assert_ne!(&f, original, "flipped bit {bit} went unnoticed"),
            }
        }
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        let skewed = Frame::Hello {
            version: 99,
            pid: 1,
            label: "future".to_owned(),
            epoch_ns: 0,
        };
        let mut dec = FrameDecoder::new();
        dec.push(&skewed.encode());
        assert_eq!(dec.next_frame(), Err(FrameError::Version { got: 99 }));
    }

    #[test]
    fn older_protocol_hellos_are_version_errors() {
        // A version-1 Hello had no epoch field; hand-encode one. Both
        // it and a version-2 Hello are refused: the daemon only speaks
        // to its own build.
        let mut body = vec![KIND_HELLO];
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&77u32.to_le_bytes());
        body.extend_from_slice(&3u16.to_le_bytes());
        body.extend_from_slice(b"old");
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::Version { got: 1 }));
        let v2 = Frame::Hello {
            version: 2,
            pid: 77,
            label: "old".to_owned(),
            epoch_ns: 5,
        };
        let mut dec = FrameDecoder::new();
        dec.push(&v2.encode());
        assert_eq!(dec.next_frame(), Err(FrameError::Version { got: 2 }));
    }

    #[test]
    fn unknown_kinds_are_skipped_and_counted_not_poisonous() {
        // Checksum-valid frames of unknown kinds (3 is the retired
        // window kind), followed by a perfectly ordinary frame: the
        // decoder must step over the strangers and keep going,
        // counting what it skipped.
        let mut wire = Vec::new();
        for kind in [3u8, 200u8] {
            let body = vec![kind, 1, 2, 3];
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
            wire.extend_from_slice(&body);
        }
        let survivor = all_kinds()[2].clone();
        wire.extend_from_slice(&survivor.encode());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame().expect("skip, then decode"), Some(survivor));
        assert_eq!(dec.skipped(), 2, "both strangers counted");
        assert_eq!(dec.next_frame().expect("stream still healthy"), None);
        assert_eq!(dec.buffered(), 0);
        // A corrupt *body* of an unknown kind still fails the checksum
        // path first; only checksum-valid strangers are skipped.
        let mut flipped = vec![99u8, 0, 0];
        let mut bad = Vec::new();
        bad.extend_from_slice(&(flipped.len() as u32).to_le_bytes());
        bad.extend_from_slice(&fnv1a32(&flipped).to_le_bytes());
        flipped[1] ^= 0xFF;
        bad.extend_from_slice(&flipped);
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        assert!(matches!(dec.next_frame(), Err(FrameError::Checksum { .. })));
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 4]);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn trailing_bytes_in_body_are_corrupt() {
        let mut body = all_kinds()[4].encode()[8..].to_vec();
        body.push(0xEE);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn hostile_span_frames_fail_typed_never_panic() {
        let batch = all_kinds()[5].clone();
        let wire = batch.encode();
        // Checksum-valid truncation mid-span: re-frame a cut body.
        let body = wire[8..wire.len() - 6].to_vec();
        let mut cut = Vec::new();
        cut.extend_from_slice(&(body.len() as u32).to_le_bytes());
        cut.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        cut.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&cut);
        assert_eq!(dec.next_frame(), Err(FrameError::Truncated));
        // A hostile span count never allocates: claim 4 billion spans
        // with a four-byte body behind the claim.
        let mut body = vec![KIND_SPAN];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0, 0, 0, 0]);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::Truncated));
        // Undefined flag bits are a structural refusal, not a guess.
        let mut body = vec![KIND_SPAN];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&1u32.to_le_bytes());
        body.push(0xF0);
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Corrupt("unknown span flags"))
        );
    }

    #[test]
    fn errors_poison_the_decoder() {
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 4]);
        dec.push(&wire);
        assert!(dec.next_frame().is_err());
        // A perfectly valid frame after the poison is not decoded.
        dec.push(&all_kinds()[0].encode());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn hostile_random_streams_never_panic() {
        // Deterministic xorshift fuzz, mirroring the HTTP reader's
        // hostile-input test: random bytes in random chunk sizes must
        // only ever produce Ok(None), frames, or typed errors.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            let len = (next() % 512) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            let mut dec = FrameDecoder::new();
            let mut pos = 0;
            while pos < bytes.len() {
                let chunk = ((next() % 17) + 1) as usize;
                let end = (pos + chunk).min(bytes.len());
                dec.push(&bytes[pos..end]);
                pos = end;
                while let Ok(Some(_)) = dec.next_frame() {}
            }
        }
    }

    #[test]
    fn long_log_lines_truncate_at_char_boundary() {
        let line = "é".repeat(40_000); // 80 KB of UTF-8
        let frame = Frame::Log {
            t_ns: 1,
            line: line.clone(),
        };
        let mut dec = FrameDecoder::new();
        dec.push(&frame.encode());
        let Some(Frame::Log { line: decoded, .. }) = dec.next_frame().expect("valid") else {
            panic!("expected a log frame");
        };
        assert!(decoded.len() <= usize::from(u16::MAX));
        assert!(line.starts_with(&decoded));
    }
}
