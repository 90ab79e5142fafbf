//! Minimal HTTP/1.1 request parsing and response writing, shared by
//! every embedded server in the workspace.
//!
//! The pulse telemetry endpoint and the `spindle-serve` job service
//! both speak plain HTTP over `std::net`. This module is the single
//! implementation of the wire handling they share, so hostile-input
//! behavior (truncated heads, oversized bodies, absurd headers) is
//! fixed in one place and tested in one place:
//!
//! * [`read_request`] reads one request — head *and* body — off any
//!   [`Read`] stream. The head is capped at [`MAX_HEAD_BYTES`]; the
//!   body is read iff a `Content-Length` header announces it and is
//!   capped at [`MAX_BODY_BYTES`] (1 MiB). Anything malformed comes
//!   back as a typed [`HttpError`], never a panic.
//! * [`respond`] / [`respond_with_headers`] write one
//!   `Connection: close` response.
//! * [`Acceptor`] runs the handler threads: each blocks in `accept`
//!   on one listener, so a request is served the moment it arrives,
//!   and [`Acceptor::stop`] wakes them with one loopback connect
//!   each ([`wake`]).
//!
//! The parser is deliberately narrow: no chunked transfer encoding, no
//! keep-alive, no continuation lines — embedded tool endpoints answer
//! one request per connection and hang up, and every rejected input is
//! a clean 4xx rather than undefined behavior.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 8192;

/// Upper bound on an accepted request body: 1 MiB.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string removed.
    pub path: String,
    /// The query string, when one was present (without the `?`).
    pub query: Option<String>,
    /// Header `(name, value)` pairs; names are lower-cased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` announced one).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes on the wire are not a parsable HTTP request; the
    /// message names what broke. Answer with `400 Bad Request`.
    Malformed(String),
    /// The announced body exceeds [`MAX_BODY_BYTES`]. Answer with
    /// `413 Payload Too Large`.
    BodyTooLarge(usize),
    /// The socket failed mid-read; there is usually nobody left to
    /// answer.
    Io(io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
            HttpError::Io(e) => write!(f, "i/o error reading request: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// Reads one HTTP request (head and body) off `stream`.
///
/// # Errors
///
/// [`HttpError::Malformed`] for anything that is not a well-formed
/// request — truncated head, garbage request line, bad
/// `Content-Length`, head past [`MAX_HEAD_BYTES`];
/// [`HttpError::BodyTooLarge`] when the announced body exceeds
/// [`MAX_BODY_BYTES`]; [`HttpError::Io`] when the underlying stream
/// fails.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, HttpError> {
    // Accumulate until the blank line ending the head. Bytes past it
    // (the start of the body) stay in `buf`.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(malformed("connection closed before end of headers"));
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| malformed(format!("bad request line `{request_line}`")))?
        .to_owned();
    let target = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| malformed(format!("bad request target in `{request_line}`")))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/") {
        return Err(malformed(format!(
            "bad protocol version in `{request_line}`"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target.to_owned(), None),
    };

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("header line without `:`: `{line}`")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    let mut request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };

    let content_length = match request.header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| malformed(format!("bad Content-Length `{v}`")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }

    // The body starts with whatever arrived after the head terminator.
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(malformed(format!(
                    "connection closed {} bytes into a {content_length}-byte body",
                    body.len()
                )));
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        body.extend_from_slice(&chunk[..n]);
    }
    request.body = body;
    Ok(request)
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one `Connection: close` response.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn respond<W: Write>(
    stream: &mut W,
    status_line: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    respond_with_headers(stream, status_line, content_type, &[], body)
}

/// Like [`respond`], with extra `(name, value)` headers (e.g.
/// `Retry-After`) between the standard ones and the body.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn respond_with_headers<W: Write>(
    stream: &mut W,
    status_line: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Pause after a failed `accept`, so that a persistent error such as
/// running out of file descriptors cannot spin a handler thread.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Bound on one wake connect; only a full accept queue makes it wait,
/// and then the queued connections wake the handlers anyway.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Makes one connection to the listener bound at `bound` and closes it,
/// so that a thread blocked in `accept` there returns. An unspecified
/// bind address (`0.0.0.0`, `::`) is reached on loopback at that port.
/// The caller must still hold the listener: a freed port may have been
/// bound by another process, or by another job's sink.
pub fn wake(bound: SocketAddr) {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = TcpStream::connect_timeout(&SocketAddr::new(ip, bound.port()), WAKE_TIMEOUT);
}

/// Handler threads blocked in `accept` on one listener, each serving
/// one connection at a time, until [`Acceptor::stop`] or drop. The
/// acceptor holds the listener until every thread has joined, so the
/// wakes of a stop reach no other listener.
#[derive(Debug)]
pub struct Acceptor {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Acceptor {
    /// Binds `addr` (port 0 asks the OS for a free port) and starts
    /// `threads` threads named `name-N` that pass each connection to
    /// `handle`.
    ///
    /// # Errors
    ///
    /// The bind, clone or spawn error; threads already started stop.
    pub fn start<F>(addr: &str, threads: usize, name: &str, handle: F) -> io::Result<Acceptor>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let acceptor = Acceptor {
            addr: listener.local_addr()?,
            listener,
            stop: Arc::default(),
            threads: Mutex::default(),
        };
        let handle = Arc::new(handle);
        for i in 0..threads {
            let listener = acceptor.listener.try_clone()?;
            let (stop, handle) = (Arc::clone(&acceptor.stop), Arc::clone(&handle));
            let thread = std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || loop {
                    let accepted = listener.accept();
                    // Acquire pairs with the Release in `stop`, which
                    // happens before its wakes connect.
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    match accepted {
                        Ok((stream, _)) => handle(stream),
                        Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
                    }
                })?;
            acceptor.threads().push(thread);
        }
        Ok(acceptor)
    }

    /// The address actually bound (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops every handler thread and waits for it: a request being
    /// served finishes first, a thread blocked in `accept` is woken.
    /// Idempotent. One wake per thread suffices: a thread leaves at the
    /// first connection it accepts after the flag is set.
    pub fn stop(&self) {
        let threads = std::mem::take(&mut *self.threads());
        self.stop.store(true, Ordering::Release);
        for _ in &threads {
            wake(self.addr);
        }
        for thread in threads {
            let _ = thread.join();
        }
    }

    /// The handle list; every update leaves it whole, so a poisoned
    /// lock still holds a valid one.
    fn threads(&self) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = io::Cursor::new(bytes.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse(b"GET /jobs/j1?pretty=1 HTTP/1.1\r\nHost: x\r\nX-Thing: a b\r\n\r\n")
            .expect("valid request");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/jobs/j1");
        assert_eq!(req.query.as_deref(), Some("pretty=1"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("X-THING"), Some("a b"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_by_content_length() {
        let req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");

        // Pipelined trailing bytes past the announced length are ignored.
        let req = parse(b"POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloEXTRA").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn truncated_head_is_malformed_not_a_hang_or_panic() {
        for bytes in [
            &b""[..],
            &b"GET"[..],
            &b"GET / HTTP/1.1\r\nHost: x"[..],
            &b"GET / HTTP/1.1\r\nHost: x\r\n"[..],
        ] {
            match parse(bytes) {
                Err(HttpError::Malformed(m)) => {
                    assert!(m.contains("closed"), "unexpected message: {m}");
                }
                other => panic!("expected Malformed for {bytes:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_request_lines_are_malformed() {
        for bytes in [
            &b"\r\n\r\n"[..],
            &b"get lowercase HTTP/1.1\r\n\r\n"[..],
            &b"GET missing-slash HTTP/1.1\r\n\r\n"[..],
            &b"GET / FTP/9\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"POST / HTTP/1.1\r\nno-colon-header\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(bytes), Err(HttpError::Malformed(_))),
                "accepted {bytes:?}"
            );
        }
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        while raw.len() <= MAX_HEAD_BYTES {
            raw.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // No terminator: the cap must trip before any hang.
        match parse(&raw) {
            Err(HttpError::Malformed(m)) => assert!(m.contains("head exceeds"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_rejected_by_announced_length() {
        let raw = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(raw.as_bytes()) {
            Err(HttpError::BodyTooLarge(n)) => assert_eq!(n, MAX_BODY_BYTES + 1),
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        // Exactly at the cap is accepted (the body just has to arrive).
        let mut raw =
            format!("POST /jobs HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
        raw.extend(std::iter::repeat_n(b'x', MAX_BODY_BYTES));
        assert_eq!(parse(&raw).expect("at-cap body").body.len(), MAX_BODY_BYTES);
    }

    #[test]
    fn bad_and_truncated_bodies_are_malformed() {
        match parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n") {
            Err(HttpError::Malformed(m)) => assert!(m.contains("Content-Length"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        match parse(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort") {
            Err(HttpError::Malformed(m)) => assert!(m.contains("5 bytes into"), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn responses_carry_length_and_extra_headers() {
        let mut out = Vec::new();
        respond_with_headers(
            &mut out,
            "429 Too Many Requests",
            "application/json",
            &[("Retry-After", "3")],
            "{\"error\":\"queue full\"}\n",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert!(text.contains("Content-Length: 23\r\n"), "{text}");
        assert!(text.ends_with("{\"error\":\"queue full\"}\n"), "{text}");

        let mut out = Vec::new();
        respond(&mut out, "200 OK", "text/plain; charset=utf-8", "ok\n").unwrap();
        assert!(String::from_utf8(out)
            .unwrap()
            .contains("Connection: close"));
    }

    #[test]
    fn hostile_byte_soup_never_panics() {
        // A small deterministic fuzz corpus: every prefix of a valid
        // request, plus mutated copies, must parse or fail cleanly.
        let valid = b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody".to_vec();
        for end in 0..valid.len() {
            let _ = parse(&valid[..end]);
        }
        let mut seed = 0x9E37_79B9u32;
        for _ in 0..512 {
            let mut mutated = valid.clone();
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let idx = (seed as usize) % mutated.len();
            mutated[idx] = (seed >> 16) as u8;
            let _ = parse(&mutated);
        }
    }
}
