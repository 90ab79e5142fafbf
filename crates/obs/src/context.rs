//! Cross-process trace context propagation.
//!
//! The serve daemon mints one [`TraceContext`] per job attempt and
//! hands it to the child through the [`TRACE_CONTEXT_ENV`] environment
//! variable. A child that finds the variable set knows two things:
//! its spans belong to the identified trace, and somebody upstream
//! will collect them — so the CLI front ends install a
//! [`FlightRecorder`](crate::recorder::FlightRecorder) even when no
//! `--trace-out` file was requested, and the pulse exporter ships the
//! recorded spans back over the frame protocol at shutdown.
//!
//! The wire form is deliberately tiny: two 64-bit ids in fixed-width
//! hex joined by a colon (`0011223344556677:8899aabbccddeeff`). Ids
//! are minted deterministically from the job id and attempt ordinal,
//! so a resumed daemon reproduces the same context for the same
//! attempt.

use crate::hash::fnv1a64;
use std::fmt;

/// Env var carrying the encoded trace context from daemon to child.
pub const TRACE_CONTEXT_ENV: &str = "SPINDLE_TRACE_CONTEXT";

/// Identity of one causal trace: the trace itself plus the parent
/// span the receiver's work hangs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole trace (one per job).
    pub trace_id: u64,
    /// The span the receiving process's spans are parented by (one
    /// per attempt).
    pub root_span: u64,
}

impl TraceContext {
    /// Deterministically mints the context for `job_id`, attempt
    /// `attempt`: same inputs, same ids, across daemon restarts.
    #[must_use]
    pub fn mint(job_id: &str, attempt: u32) -> TraceContext {
        TraceContext {
            trace_id: fnv1a64(job_id.as_bytes()),
            root_span: fnv1a64(format!("{job_id}#{attempt}").as_bytes()),
        }
    }

    /// Parses the wire form; `None` for anything malformed (a child
    /// treats that as "no trace context" rather than an error).
    #[must_use]
    pub fn parse(text: &str) -> Option<TraceContext> {
        let (trace, span) = text.split_once(':')?;
        if trace.len() != 16 || span.len() != 16 {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_str_radix(trace, 16).ok()?,
            root_span: u64::from_str_radix(span, 16).ok()?,
        })
    }

    /// Reads [`TRACE_CONTEXT_ENV`], parsing leniently: absent, empty,
    /// or malformed all mean `None`.
    #[must_use]
    pub fn from_env() -> Option<TraceContext> {
        std::env::var(TRACE_CONTEXT_ENV)
            .ok()
            .as_deref()
            .and_then(TraceContext::parse)
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}:{:016x}", self.trace_id, self.root_span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_the_wire_form() {
        let ctx = TraceContext::mint("job-0007", 2);
        let text = ctx.to_string();
        assert_eq!(text.len(), 33, "fixed-width form: {text}");
        assert_eq!(TraceContext::parse(&text), Some(ctx));
    }

    #[test]
    fn minting_is_deterministic_and_attempt_scoped() {
        assert_eq!(
            TraceContext::mint("job-0001", 0),
            TraceContext::mint("job-0001", 0)
        );
        let a = TraceContext::mint("job-0001", 0);
        let b = TraceContext::mint("job-0001", 1);
        assert_eq!(a.trace_id, b.trace_id, "one trace per job");
        assert_ne!(a.root_span, b.root_span, "one root span per attempt");
        assert_ne!(
            a.trace_id,
            TraceContext::mint("job-0002", 0).trace_id,
            "different jobs, different traces"
        );
    }

    #[test]
    fn malformed_inputs_parse_to_none() {
        for bad in [
            "",
            "abc",
            "0011223344556677",
            "0011223344556677:",
            ":8899aabbccddeeff",
            "0011223344556677:8899aabbccddeeff:extra",
            "00112233445566zz:8899aabbccddeeff",
            "short:8899aabbccddeeff",
        ] {
            assert_eq!(TraceContext::parse(bad), None, "{bad:?}");
        }
    }
}
