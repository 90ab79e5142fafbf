//! Cross-process telemetry frame protocol.
//!
//! A job child and the daemon that spawned it exchange checksummed,
//! length-prefixed frames over a local byte stream (the serve runner
//! hands the child a `127.0.0.1` sink address via
//! `SPINDLE_TELEMETRY_SINK`). The stream carries only what the daemon
//! cannot learn from the run's own artifacts: liveness, progress and
//! the child's wall spans. A run's registry numbers live in the
//! `metrics.json` and `timescales.json` it writes itself, and its
//! sim-time tracks in its `trace.json`; none of them cross the wire.
//!
//! * [`Frame::Progress`] — phase name plus completed/total work units,
//!   sent on every export tick: it is both the progress report and the
//!   heartbeat the daemon's stall check reads.
//! * [`Frame::Span`] — one of the child's flight-recorder wall spans on
//!   its monotonic clock, shipped at shutdown so the daemon can
//!   assemble a causal cross-process trace. The body is a
//!   [`TraceSpan`], the same record the daemon persists one per line in
//!   a job's `spans.jsonl`.
//!
//! [`Frame::Hello`] opens every stream (protocol version, child pid,
//! label, and the sender's monotonic-epoch reading, which lets the
//! receiver compute a per-child clock offset and align wall spans onto
//! its own timeline) and [`Frame::Bye`] closes it cleanly, with the
//! count of spans the sender shed; a stream that ends without `Bye` is
//! a torn tail (child killed mid-stream). Both ends are the same build
//! (the daemon spawns its own binaries), so the decoder accepts exactly
//! [`PROTOCOL_VERSION`] and knows every kind a sender can write.
//!
//! # Wire format
//!
//! Every frame is independently delimited and checksummed:
//!
//! ```text
//! [u32 le: body length]  [u32 le: FNV-1a of body]  [body: one JSON object]
//! ```
//!
//! The body is one [`crate::json`] object whose `"kind"` names the
//! frame:
//!
//! ```text
//! {"kind":"hello","version":5,"pid":…,"label":…,"epoch_ns":…}
//! {"kind":"progress","completed":…,"total":…,"phase":…}
//! {"kind":"span","origin":"wall","track":…,"name":…,"begin_ns":…,"dur_ns":…,"args":…}
//! {"kind":"bye","frames_sent":…,"spans_dropped":…}
//! ```
//!
//! Encoding a given frame is byte-deterministic, and strings are cut
//! at [`MAX_STR_LEN`] bytes on a char boundary, so no sender can build
//! a frame over [`MAX_FRAME_LEN`]. The decoder is incremental and
//! hostile-input safe: truncated prefixes simply wait for more bytes,
//! bit flips fail the checksum, an oversize or zero length is refused
//! before any allocation, nesting is bounded by the JSON parser, and an
//! unknown version or kind is a typed error. A decode error poisons the
//! stream (length-prefixed framing cannot resync) but never panics.

use crate::hash::fnv1a32;
use crate::json::{self, Json};
use std::fmt;

/// Protocol version carried in every [`Frame::Hello`]. The decoder
/// accepts only this version: any other is [`FrameError::Version`]
/// rather than a guess at an unknown layout.
pub const PROTOCOL_VERSION: u64 = 5;

/// Upper bound on one frame's body, rejecting hostile length prefixes
/// before any allocation. Real frames are a few hundred bytes.
pub const MAX_FRAME_LEN: u32 = 4 * 1024 * 1024;

/// Longest string field a sender writes, in bytes; longer ones are cut
/// at a char boundary. Span args are the only field that can plausibly
/// reach it.
pub const MAX_STR_LEN: usize = u16::MAX as usize;

/// Env var naming the telemetry sink address (`HOST:PORT`) a child
/// exporter should connect to. Defined here so the obs crate is the
/// single source of truth for the protocol's contract; the pulse
/// exporter and the serve runner both read it from this constant.
pub const SINK_ENV: &str = "SPINDLE_TELEMETRY_SINK";

/// One telemetry frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Stream opener; encodes [`PROTOCOL_VERSION`].
    Hello {
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
    /// Phase plus completed/total work units.
    Progress {
        /// Work units finished so far.
        completed: u64,
        /// Total work units (0 when unknown).
        total: u64,
        /// Current phase name.
        phase: String,
    },
    /// One flight-recorder wall span. Its origin is whatever the sender
    /// claims; a receiver decides for itself what a streamed span is.
    Span(TraceSpan),
    /// Clean end of stream.
    Bye {
        /// Frames the sender emitted before this one.
        frames_sent: u64,
        /// Spans the sender recorded but did not ship (its cap hit);
        /// non-zero means the trace is truncated, visibly.
        spans_dropped: u64,
    },
}

/// Where a trace span came from, which also fixes what its `begin_ns`
/// is relative to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOrigin {
    /// Daemon lifecycle span, daemon-epoch-relative.
    Daemon,
    /// Child wall span, child-epoch-relative (needs the clock offset).
    ChildWall,
}

impl SpanOrigin {
    fn as_str(self) -> &'static str {
        match self {
            SpanOrigin::Daemon => "daemon",
            SpanOrigin::ChildWall => "wall",
        }
    }

    fn parse(text: &str) -> Option<SpanOrigin> {
        match text {
            "daemon" => Some(SpanOrigin::Daemon),
            "wall" => Some(SpanOrigin::ChildWall),
            _ => None,
        }
    }
}

/// One wall-clock span: a [`Frame::Span`] body and one line of a serve
/// job's `spans.jsonl`, in the one JSON form of [`TraceSpan::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Which timeline the span belongs to.
    pub origin: SpanOrigin,
    /// Track (thread row) the span renders on.
    pub track: String,
    /// Span name.
    pub name: String,
    /// Start, relative to the origin's clock (see [`SpanOrigin`]).
    pub begin_ns: u64,
    /// Duration; `None` marks an instant event.
    pub dur_ns: Option<u64>,
    /// Pre-rendered JSON object of span args, empty for none.
    pub args: String,
}

impl TraceSpan {
    /// The span's record: `origin`, `track`, `name`, `begin_ns`, then
    /// `dur_ns` and `args` when present.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "origin".to_owned(),
                Json::Str(self.origin.as_str().to_owned()),
            ),
            ("track".to_owned(), Json::Str(self.track.clone())),
            ("name".to_owned(), Json::Str(self.name.clone())),
            ("begin_ns".to_owned(), Json::Uint(self.begin_ns)),
        ];
        if let Some(dur) = self.dur_ns {
            members.push(("dur_ns".to_owned(), Json::Uint(dur)));
        }
        if !self.args.is_empty() {
            members.push(("args".to_owned(), Json::Str(self.args.clone())));
        }
        Json::Obj(members)
    }

    /// Reads a record written by [`TraceSpan::to_json`]; `None` when a
    /// required field is missing or mistyped.
    #[must_use]
    pub fn from_json(doc: &Json) -> Option<TraceSpan> {
        Some(TraceSpan {
            origin: SpanOrigin::parse(doc.get("origin")?.as_str()?)?,
            track: doc.get("track")?.as_str()?.to_owned(),
            name: doc.get("name")?.as_str()?.to_owned(),
            begin_ns: doc.get("begin_ns")?.as_u64()?,
            dur_ns: doc.get("dur_ns").and_then(Json::as_u64),
            args: doc
                .get("args")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        })
    }
}

/// Renders span args to the [`TraceSpan::args`] form: a JSON object
/// string, or empty when there are none.
#[must_use]
pub fn render_args(args: &[(String, Json)]) -> String {
    if args.is_empty() {
        String::new()
    } else {
        Json::Obj(args.to_vec()).to_string()
    }
}

/// Why a frame could not be decoded. Every error poisons the stream:
/// length-prefixed framing has no resync point, so the receiver stops
/// reading (and counts the error) instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
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
    /// The `"kind"` names no known frame type.
    UnknownKind(String),
    /// The `Hello` announced a protocol version this decoder does not
    /// speak.
    Version {
        /// The announced version.
        got: u64,
    },
    /// A field the frame's kind requires is missing or mistyped.
    Field(&'static str),
    /// Structurally invalid body (empty, not UTF-8, not one JSON
    /// object, nested too deep, …).
    Corrupt(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Checksum { expected, got } => {
                write!(
                    f,
                    "frame checksum mismatch (wire {expected:#010x}, body {got:#010x})"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind `{k}`"),
            FrameError::Version { got } => {
                write!(
                    f,
                    "protocol version {got} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::Field(name) => write!(f, "frame field `{name}` missing or mistyped"),
            FrameError::Corrupt(what) => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// `s` cut to at most [`MAX_STR_LEN`] bytes at a char boundary.
fn capped(s: &str) -> Json {
    let mut end = s.len().min(MAX_STR_LEN);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    Json::Str(s[..end].to_owned())
}

/// Wraps a frame body in the wire header: length, then checksum.
#[must_use]
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

impl Frame {
    /// Encodes the frame as one self-delimiting wire unit; equal frames
    /// encode to identical bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let (kind, fields) = match self {
            Frame::Hello {
                pid,
                label,
                epoch_ns,
            } => (
                "hello",
                vec![
                    ("version".to_owned(), Json::Uint(PROTOCOL_VERSION)),
                    ("pid".to_owned(), Json::Uint(u64::from(*pid))),
                    ("label".to_owned(), capped(label)),
                    ("epoch_ns".to_owned(), Json::Uint(*epoch_ns)),
                ],
            ),
            Frame::Progress {
                completed,
                total,
                phase,
            } => (
                "progress",
                vec![
                    ("completed".to_owned(), Json::Uint(*completed)),
                    ("total".to_owned(), Json::Uint(*total)),
                    ("phase".to_owned(), capped(phase)),
                ],
            ),
            Frame::Span(span) => {
                let Json::Obj(mut fields) = span.to_json() else {
                    unreachable!("a span record is an object");
                };
                for (_, value) in &mut fields {
                    if let Json::Str(s) = value {
                        *value = capped(s);
                    }
                }
                ("span", fields)
            }
            Frame::Bye {
                frames_sent,
                spans_dropped,
            } => (
                "bye",
                vec![
                    ("frames_sent".to_owned(), Json::Uint(*frames_sent)),
                    ("spans_dropped".to_owned(), Json::Uint(*spans_dropped)),
                ],
            ),
        };
        let mut members = vec![("kind".to_owned(), Json::Str(kind.to_owned()))];
        members.extend(fields);
        seal(Json::Obj(members).to_string().as_bytes())
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let text = std::str::from_utf8(body).map_err(|_| FrameError::Corrupt("body is not UTF-8"))?;
    let doc = json::parse(text).map_err(|e| FrameError::Corrupt(e.reason))?;
    let Json::Obj(_) = doc else {
        return Err(FrameError::Corrupt("body is not a JSON object"));
    };
    let uint = |key: &'static str| {
        doc.get(key)
            .and_then(Json::as_u64)
            .ok_or(FrameError::Field(key))
    };
    let string = |key: &'static str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(FrameError::Field(key))
    };
    match doc.get("kind").and_then(Json::as_str) {
        Some("hello") => {
            let version = uint("version")?;
            if version != PROTOCOL_VERSION {
                return Err(FrameError::Version { got: version });
            }
            Ok(Frame::Hello {
                pid: u32::try_from(uint("pid")?).map_err(|_| FrameError::Field("pid"))?,
                label: string("label")?,
                epoch_ns: uint("epoch_ns")?,
            })
        }
        Some("progress") => Ok(Frame::Progress {
            completed: uint("completed")?,
            total: uint("total")?,
            phase: string("phase")?,
        }),
        Some("span") => TraceSpan::from_json(&doc)
            .map(Frame::Span)
            .ok_or(FrameError::Field("span record")),
        Some("bye") => Ok(Frame::Bye {
            frames_sent: uint("frames_sent")?,
            spans_dropped: uint("spans_dropped")?,
        }),
        Some(other) => Err(FrameError::UnknownKind(other.to_owned())),
        None => Err(FrameError::Field("kind")),
    }
}

/// Incremental frame decoder over an untrusted byte stream.
///
/// Feed arbitrary chunks via [`FrameDecoder::push`]; drain complete
/// frames via [`FrameDecoder::next_frame`]. `Ok(None)` means "waiting
/// for more bytes"; any `Err` poisons the decoder permanently (the
/// stream has no resync point) and repeats on later calls.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    consumed: usize,
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
        match decode_body(body) {
            Ok(frame) => {
                self.advance(total);
                Ok(Some(frame))
            }
            Err(e) => self.poison(e),
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

    fn all_kinds() -> Vec<Frame> {
        vec![
            Frame::Hello {
                pid: 4242,
                label: "job-0001".to_owned(),
                epoch_ns: 123_456_789,
            },
            Frame::Progress {
                completed: 17,
                total: 32,
                phase: "running".to_owned(),
            },
            Frame::Bye {
                frames_sent: 3,
                spans_dropped: 3,
            },
            Frame::Span(TraceSpan {
                origin: SpanOrigin::ChildWall,
                track: "main".to_owned(),
                name: "cli.simulate".to_owned(),
                begin_ns: 1_000,
                dur_ns: Some(2_000_000),
                args: "{\"phase\":\"run\"}".to_owned(),
            }),
            Frame::Span(TraceSpan {
                origin: SpanOrigin::ChildWall,
                track: "worker0".to_owned(),
                name: "mark".to_owned(),
                begin_ns: 42,
                dur_ns: None,
                args: String::new(),
            }),
        ]
    }

    /// Decodes one sealed body, as a receiver would.
    fn decode(body: &str) -> Result<Option<Frame>, FrameError> {
        let mut dec = FrameDecoder::new();
        dec.push(&seal(body.as_bytes()));
        dec.next_frame()
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
    fn bodies_are_json_objects_in_the_span_file_record_form() {
        let body = |f: &Frame| String::from_utf8(f.encode()[8..].to_vec()).expect("UTF-8");
        let frames = all_kinds();
        assert_eq!(
            body(&frames[0]),
            "{\"kind\":\"hello\",\"version\":5,\"pid\":4242,\"label\":\"job-0001\",\"epoch_ns\":123456789}"
        );
        assert_eq!(
            body(&frames[1]),
            "{\"kind\":\"progress\",\"completed\":17,\"total\":32,\"phase\":\"running\"}"
        );
        assert_eq!(
            body(&frames[2]),
            "{\"kind\":\"bye\",\"frames_sent\":3,\"spans_dropped\":3}"
        );
        // A span body is its span-file record behind the kind.
        let Frame::Span(span) = &frames[3] else {
            panic!("span frame");
        };
        let record = span.to_json().to_string();
        assert_eq!(
            body(&frames[3]),
            format!("{{\"kind\":\"span\",{}", &record[1..])
        );
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
    fn checksum_valid_but_short_body_is_corrupt() {
        // A Progress body cut mid-object, with a *correct* checksum
        // over the cut body: framing accepts it, decoding must fail
        // cleanly.
        let full = all_kinds()[1].encode();
        let cut = std::str::from_utf8(&full[8..full.len() - 4]).expect("ASCII");
        assert!(matches!(decode(cut), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn every_single_bit_flip_is_caught_or_deferred() {
        for original in &all_kinds()[1..4] {
            let wire = original.encode();
            for bit in 0..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let mut dec = FrameDecoder::new();
                dec.push(&flipped);
                // A flip may enlarge the length prefix (decoder waits
                // for bytes that never come) or corrupt the frame
                // (typed error). It can never decode back to the
                // original, and it never panics.
                match dec.next_frame() {
                    Ok(None) | Err(_) => {}
                    Ok(Some(f)) => assert_ne!(&f, original, "flipped bit {bit} went unnoticed"),
                }
            }
        }
    }

    /// A JSON Hello announcing `version`.
    fn hello_v(version: u64) -> String {
        format!(
            "{{\"kind\":\"hello\",\"version\":{version},\"pid\":1,\"label\":\"x\",\"epoch_ns\":0}}"
        )
    }

    #[test]
    fn version_skew_is_a_typed_error() {
        for version in [6, 99, u64::MAX] {
            assert_eq!(
                decode(&hello_v(version)),
                Err(FrameError::Version { got: version })
            );
        }
    }

    #[test]
    fn older_protocol_hellos_are_version_errors() {
        // The daemon only speaks to its own build: a JSON Hello of any
        // earlier version is refused by number.
        for version in [1, 2, 3, 4] {
            assert_eq!(
                decode(&hello_v(version)),
                Err(FrameError::Version { got: version })
            );
        }
        // A version-4 Hello as version 4 wrote it was binary: kind byte
        // 1, a u16 version, a u32 pid, a u16-prefixed label and a u64
        // epoch. It is not JSON, so it is refused before any field is
        // read.
        let mut body = vec![1u8];
        body.extend_from_slice(&4u16.to_le_bytes());
        body.extend_from_slice(&77u32.to_le_bytes());
        body.extend_from_slice(&3u16.to_le_bytes());
        body.extend_from_slice(b"old");
        body.extend_from_slice(&5u64.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&seal(&body));
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn unknown_kinds_poison_the_stream() {
        // A checksum-valid frame of a kind no version writes (the
        // registry snapshot, rollup windows and log lines of earlier
        // versions included) is a typed error that poisons the stream:
        // a perfectly ordinary frame behind it is never decoded.
        for kind in ["snapshot", "rollup", "log", "HELLO"] {
            let mut wire = seal(format!("{{\"kind\":\"{kind}\"}}").as_bytes());
            wire.extend_from_slice(&all_kinds()[1].encode());
            let mut dec = FrameDecoder::new();
            dec.push(&wire);
            let unknown = Err(FrameError::UnknownKind(kind.to_owned()));
            assert_eq!(dec.next_frame(), unknown);
            assert_eq!(
                dec.next_frame(),
                unknown,
                "the error repeats; the survivor stays unread"
            );
        }
        // No kind at all, or a kind that is not a string, is a field
        // error; a body that is not an object is corrupt.
        assert_eq!(decode("{\"pid\":1}"), Err(FrameError::Field("kind")));
        assert_eq!(decode("{\"kind\":7}"), Err(FrameError::Field("kind")));
        assert!(matches!(decode("[1,2]"), Err(FrameError::Corrupt(_))));
        // A corrupt body of an unknown kind fails the checksum first.
        let mut bad = seal(b"{\"kind\":\"x\"}");
        bad[10] ^= 0xFF;
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
    fn zero_length_frames_are_refused() {
        let mut dec = FrameDecoder::new();
        dec.push(&seal(b""));
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Corrupt("zero-length frame"))
        );
    }

    #[test]
    fn trailing_bytes_in_body_are_corrupt() {
        let mut body = all_kinds()[2].encode()[8..].to_vec();
        body.push(b'x');
        let mut dec = FrameDecoder::new();
        dec.push(&seal(&body));
        assert!(matches!(dec.next_frame(), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn hostile_span_frames_fail_typed_never_panic() {
        // Missing, mistyped and out-of-range fields are refused by name.
        for (body, field) in [
            ("{\"kind\":\"span\",\"origin\":\"wall\",\"track\":\"t\"}", "span record"),
            ("{\"kind\":\"span\",\"origin\":\"moon\",\"track\":\"t\",\"name\":\"n\",\"begin_ns\":1}", "span record"),
            ("{\"kind\":\"progress\",\"completed\":-1,\"total\":0,\"phase\":\"p\"}", "completed"),
            ("{\"kind\":\"bye\",\"frames_sent\":1}", "spans_dropped"),
            ("{\"kind\":\"hello\",\"version\":5,\"pid\":4294967296,\"label\":\"x\",\"epoch_ns\":0}", "pid"),
        ] {
            assert_eq!(decode(body), Err(FrameError::Field(field)), "{body}");
        }
        // Invalid UTF-8 is refused before parsing.
        let mut dec = FrameDecoder::new();
        dec.push(&seal(b"{\"kind\":\"\xff\"}"));
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Corrupt("body is not UTF-8"))
        );
    }

    #[test]
    fn deeply_nested_bodies_poison_the_decoder() {
        // A checksum-valid megabyte of nesting inside the length cap is
        // refused by the parser's depth limit, not by the stack.
        let depth = 1 << 20;
        let body = format!(
            "{{\"kind\":\"span\",\"x\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let mut wire = seal(body.as_bytes());
        wire.extend_from_slice(&all_kinds()[1].encode());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let Err(FrameError::Corrupt(reason)) = dec.next_frame() else {
            panic!("nesting must be a typed error");
        };
        assert!(reason.contains("nesting"), "{reason}");
        assert!(dec.next_frame().is_err(), "the stream stays poisoned");
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
        // only ever produce Ok(None), frames, or typed errors. Half the
        // streams are sealed JSON-ish bodies, so the checksum passes
        // and the body decoder sees the garbage.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const ALPHABET: &[u8] = b"{}[]\":,0123456789-.eEkindspaho \\u\xff";
        for round in 0..128 {
            let len = (next() % 512) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
            if round % 2 == 1 && !bytes.is_empty() {
                for b in &mut bytes {
                    *b = ALPHABET[usize::from(*b) % ALPHABET.len()];
                }
                bytes = seal(&bytes);
            }
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
    fn long_phase_names_truncate_at_char_boundary() {
        let long = "é".repeat(40_000); // 80 KB of UTF-8
        let frames = [
            Frame::Progress {
                completed: 0,
                total: 0,
                phase: long.clone(),
            },
            Frame::Span(TraceSpan {
                origin: SpanOrigin::ChildWall,
                track: long.clone(),
                name: long.clone(),
                begin_ns: 0,
                dur_ns: None,
                args: long.clone(),
            }),
        ];
        for frame in frames {
            let mut dec = FrameDecoder::new();
            dec.push(&frame.encode());
            let decoded = match dec.next_frame().expect("valid") {
                Some(Frame::Progress { phase, .. }) => vec![phase],
                Some(Frame::Span(s)) => vec![s.track, s.name, s.args],
                other => panic!("unexpected {other:?}"),
            };
            for s in decoded {
                assert!(s.len() <= MAX_STR_LEN && s.len() > MAX_STR_LEN - 4);
                assert!(long.starts_with(&s));
            }
        }
    }
}
