//! Minimal JSON value, emitter, and parser.
//!
//! The workspace pins no JSON crate and the offline build registry has
//! none to offer, so the JSON sink carries its own ~200-line
//! implementation: enough of RFC 8259 to emit metric snapshots and to
//! parse them back in round-trip tests. Integers are kept exact
//! ([`Json::Uint`]/[`Json::Int`]) rather than routed through `f64`, so
//! large counters survive a round trip bit-for-bit.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    Uint(u64),
    /// A negative integer.
    Int(i64),
    /// Any other number. Non-finite values emit as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, when it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(v) => Some(v),
            Json::Int(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, when it is an exact integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Json::Uint(v) => i64::try_from(v).ok(),
            Json::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Uint(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Uint(v) => write!(f, "{v}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a decimal point or exponent, so the
                    // value parses back as Num, not as an integer.
                    write!(f, "{v:?}")
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                f.write_str(&buf)
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut key = String::with_capacity(k.len() + 2);
                    escape_into(&mut key, k);
                    write!(f, "{key}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonParseError {}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a hostile document of a few
/// hundred thousand `[` bytes overflows the thread's stack; every
/// document the workspace writes nests fewer than ten levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonParseError`] for malformed input, trailing garbage,
/// or nesting deeper than [`MAX_DEPTH`].
pub fn parse(s: &str) -> Result<Json, JsonParseError> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonParseError {
            at: pos,
            reason: "trailing characters after value",
        });
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8, reason: &'static str) -> Result<(), JsonParseError> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonParseError { at: *pos, reason })
    }
}

/// Parses one value; `depth` is how many more levels of nesting it may
/// open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonParseError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == 0 {
        return Err(JsonParseError {
            at: *pos,
            reason: "nesting deeper than the parser's limit",
        });
    }
    match b.get(*pos) {
        None => Err(JsonParseError {
            at: *pos,
            reason: "unexpected end of input",
        }),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth - 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonParseError {
                            at: *pos,
                            reason: "expected `,` or `]` in array",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':', "expected `:` after object key")?;
                let value = parse_value(b, pos, depth - 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => {
                        return Err(JsonParseError {
                            at: *pos,
                            reason: "expected `,` or `}` in object",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Json,
) -> Result<Json, JsonParseError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonParseError {
            at: *pos,
            reason: "invalid literal",
        })
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonParseError> {
    expect(b, pos, b'"', "expected string")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(JsonParseError {
                    at: *pos,
                    reason: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or(JsonParseError {
                            at: *pos,
                            reason: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonParseError {
                            at: *pos,
                            reason: "non-UTF-8 in \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonParseError {
                            at: *pos,
                            reason: "bad hex in \\u escape",
                        })?;
                        // Surrogate pairs are not needed by the emitter
                        // (it never produces them); map them to the
                        // replacement character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonParseError {
                            at: *pos,
                            reason: "unknown escape",
                        })
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume a maximal run of unescaped characters and
                // validate it as UTF-8 in one go. (`"` and `\` never
                // occur inside a multi-byte UTF-8 sequence, so byte
                // scanning cannot split a scalar; validating from here
                // to the end of the buffer per character would make
                // parsing quadratic on large documents.)
                let start = *pos;
                while let Some(&c) = b.get(*pos) {
                    if c == b'"' || c == b'\\' {
                        break;
                    }
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos]).map_err(|_| JsonParseError {
                    at: start,
                    reason: "invalid UTF-8",
                })?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
    if text.is_empty() || text == "-" {
        return Err(JsonParseError {
            at: start,
            reason: "expected a value",
        });
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(v) = stripped.parse::<u64>() {
                if let Ok(neg) = i64::try_from(v) {
                    return Ok(Json::Int(-neg));
                }
            }
        } else if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::Uint(v));
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| JsonParseError {
            at: start,
            reason: "malformed number",
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Uint(0)),
            ("18446744073709551615", Json::Uint(u64::MAX)),
            ("-42", Json::Int(-42)),
            ("1.5", Json::Num(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "parse {text}");
            assert_eq!(parse(&value.to_string()).unwrap(), value, "emit {text}");
        }
    }

    #[test]
    fn nested_structure_roundtrips() {
        let doc = Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(vec![
                    ("disk.read_hits".into(), Json::Uint(15)),
                    ("disk.read_misses".into(), Json::Uint(1)),
                ]),
            ),
            (
                "quantiles".into(),
                Json::Arr(vec![Json::Num(0.5), Json::Num(0.95), Json::Num(0.99)]),
            ),
            ("note".into(), Json::Str("tab\there \"quoted\"\n".into())),
        ]);
        let text = doc.to_string();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            back.get("counters")
                .and_then(|c| c.get("disk.read_hits"))
                .and_then(Json::as_u64),
            Some(15)
        );
    }

    #[test]
    fn floats_keep_a_marker_so_types_survive() {
        // A whole-valued float must not come back as an integer.
        let text = Json::Num(2.0).to_string();
        assert_eq!(text, "2.0");
        assert_eq!(parse(&text).unwrap(), Json::Num(2.0));
    }

    #[test]
    fn non_finite_floats_emit_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn control_characters_escape() {
        let s = Json::Str("\u{0001}".into()).to_string();
        assert_eq!(s, "\"\\u0001\"");
        assert_eq!(parse(&s).unwrap(), Json::Str("\u{0001}".into()));
    }

    #[test]
    fn hostile_strings_escape_and_roundtrip() {
        // Every metric/track/span name is caller-controlled, so quotes,
        // backslashes, and control characters must survive both as
        // object keys and as values.
        let hostile = [
            "quote \" backslash \\",
            "c:\\traces\\run.json",
            "newline\nreturn\rtab\t",
            "null byte \u{0000} and escape \u{001b}",
            "already \\\"escaped\\\"",
            "unicode outside ASCII: µs → 時間",
        ];
        for s in hostile {
            let emitted = Json::Str(s.into()).to_string();
            assert!(
                !emitted[1..emitted.len() - 1].contains('\u{0000}'),
                "raw control characters must not be emitted: {emitted:?}"
            );
            assert_eq!(parse(&emitted).unwrap(), Json::Str(s.into()), "value {s:?}");
            let doc = Json::Obj(vec![(s.to_owned(), Json::Uint(1))]);
            let back = parse(&doc.to_string()).unwrap();
            assert_eq!(back, doc, "key {s:?}");
        }
    }

    #[test]
    fn escaped_output_contains_only_ascii_control_free_text() {
        let emitted = Json::Str("\u{0007}bell \"x\" \\y".into()).to_string();
        assert!(emitted.chars().all(|c| (c as u32) >= 0x20));
        assert_eq!(emitted, "\"\\u0007bell \\\"x\\\" \\\\y\"");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![Json::Uint(1), Json::Uint(2)]))
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "1 2",
            "\"x",
            "--1",
            "-",
            "{\"a\":1,}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_limit() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok(), "{MAX_DEPTH} levels parse");
        let over = format!("{{\"a\":{at_limit}}}");
        let err = parse(&over).unwrap_err();
        assert_eq!(err.at, 5 + MAX_DEPTH - 1, "{err}");
        assert!(err.reason.contains("nesting"), "{err}");
        // A megabyte of `[` is refused at the limit, not by the stack.
        let hostile = "[".repeat(1 << 20);
        let err = parse(&hostile).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH, "{err}");
    }

    #[test]
    fn accessors() {
        let v = parse("{\"n\": 3, \"s\": \"x\", \"f\": 1.25}").unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.25));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }
}
