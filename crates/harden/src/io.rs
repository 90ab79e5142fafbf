//! Byte-exact I/O fault injection.
//!
//! [`FaultyReader`] wraps any [`Read`] and applies a [`FaultPlan`]'s
//! reader faults:
//!
//! * `io@N` — the read that would cross byte `N` returns an
//!   [`std::io::Error`] naming the offset; every later read fails the
//!   same way (a dead device stays dead).
//! * `short@N` — the stream ends at byte `N` as if the file had been
//!   truncated there; reads return `Ok(0)` from then on.
//!
//! Reads are clamped so they stop exactly at the next fault boundary:
//! a consumer buffering in 8 KiB chunks still observes the fault at
//! byte `N`, not at its enclosing chunk edge. Bytes before the boundary
//! are delivered unmodified.

use crate::FaultPlan;
use std::collections::BTreeSet;
use std::io::{self, Read};

/// A [`Read`] adapter that injects the plan's I/O errors and short
/// reads at exact byte offsets.
#[derive(Debug)]
pub struct FaultyReader<R> {
    inner: R,
    pos: u64,
    io_errors: BTreeSet<u64>,
    short_reads: BTreeSet<u64>,
}

impl<R: Read> FaultyReader<R> {
    /// Wraps `inner` with the reader faults of `plan`.
    #[must_use]
    pub fn new(inner: R, plan: &FaultPlan) -> Self {
        FaultyReader {
            inner,
            pos: 0,
            io_errors: plan.io_errors().clone(),
            short_reads: plan.short_reads().clone(),
        }
    }

    /// Bytes delivered so far.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.pos
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(&cut) = self.short_reads.first() {
            if self.pos >= cut {
                return Ok(0);
            }
        }
        if let Some(&at) = self.io_errors.first() {
            if self.pos >= at {
                return Err(io::Error::other(format!("injected i/o error at byte {at}")));
            }
        }
        // Clamp so the next read lands exactly on the nearest fault
        // boundary; both sets hold only offsets > pos at this point.
        let mut limit = buf.len() as u64;
        for &b in [self.short_reads.first(), self.io_errors.first()]
            .into_iter()
            .flatten()
        {
            limit = limit.min(b - self.pos);
        }
        let n = usize::try_from(limit).unwrap_or(buf.len()).min(buf.len());
        let got = self.inner.read(&mut buf[..n])?;
        self.pos += got as u64;
        Ok(got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    #[test]
    fn clean_plan_is_a_pass_through() {
        let data = b"hello world".as_slice();
        let mut r = FaultyReader::new(data, &FaultPlan::default());
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello world");
        assert_eq!(r.position(), 11);
    }

    #[test]
    fn io_error_fires_at_exact_byte() {
        let data = vec![b'x'; 100];
        let mut r = FaultyReader::new(data.as_slice(), &plan("io@37"));
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(out.len(), 37, "bytes before the fault are delivered");
        assert!(
            err.to_string().contains("byte 37"),
            "error names the offset"
        );
        // The device stays dead on retry.
        assert!(r.read(&mut [0u8; 8]).is_err());
    }

    #[test]
    fn short_read_truncates_at_exact_byte() {
        let data = vec![b'y'; 100];
        let mut r = FaultyReader::new(data.as_slice(), &plan("short@42"));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), 42);
        assert_eq!(r.read(&mut [0u8; 8]).unwrap(), 0, "EOF is sticky");
    }

    #[test]
    fn fault_at_byte_zero() {
        let mut r = FaultyReader::new(b"abc".as_slice(), &plan("io@0"));
        assert!(r.read(&mut [0u8; 4]).is_err());
        let mut r = FaultyReader::new(b"abc".as_slice(), &plan("short@0"));
        assert_eq!(r.read(&mut [0u8; 4]).unwrap(), 0);
    }

    #[test]
    fn buffered_lines_survive_up_to_the_cut() {
        let text = "line one\nline two\nline three\n";
        let cut = text.find("three").unwrap() as u64;
        let spec = format!("short@{cut}");
        let r = FaultyReader::new(text.as_bytes(), &plan(&spec));
        let lines: Vec<String> = BufReader::new(r).lines().map_while(Result::ok).collect();
        assert_eq!(lines, vec!["line one", "line two", "line "]);
    }
}
