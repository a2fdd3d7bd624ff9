//! Bounded, never-blocking JSONL event tracing.
//!
//! A [`TraceLog`] buffers one JSON object per event in memory and writes
//! them out **after** the run (`--trace PATH` in the drivers). The buffer
//! is bounded and the lock is only ever `try_lock`ed, so the hot path has
//! two outcomes: the line is appended, or it is dropped and the drop
//! *counted* ([`TraceLog::dropped`]) — tracing can observe an event loop,
//! never stall it.
//!
//! Every line is a flat JSON object with at least:
//!
//! ```text
//!   {"t_us": 12, "ev": "conn_open", ...event-specific fields}
//! ```
//!
//! where `t_us` is microseconds since the log was created. The schema per
//! event kind is documented in `docs/ARCHITECTURE.md`; [`validate_jsonl`]
//! is the strict parser the drivers (and CI) run over the emitted file.

use std::fmt::Write as _;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

/// A field value in a trace event.
#[derive(Debug, Clone, Copy)]
pub enum TraceValue<'a> {
    /// An unsigned integer field.
    U64(u64),
    /// A string field (JSON-escaped on emit).
    Str(&'a str),
    /// A boolean field.
    Bool(bool),
}

struct TraceInner {
    start: Instant,
    capacity: usize,
    lines: Mutex<Vec<String>>,
    /// Relaxed mirror of `lines.len()`, bumped after each push: lets a full
    /// buffer reject an event *before* formatting its line, so a saturated
    /// trace costs one load per event instead of an allocation.
    approx_len: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceInner")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

/// A bounded in-memory JSONL event log; clones share the buffer.
#[derive(Clone, Debug)]
pub struct TraceLog {
    inner: Arc<TraceInner>,
}

impl TraceLog {
    /// A log holding at most `capacity` events (clamped to at least 1);
    /// events past the cap are dropped and counted.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                start: Instant::now(),
                capacity: capacity.max(1),
                lines: Mutex::new(Vec::new()),
                approx_len: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Appends one event line, or drops it (counted) if the buffer is full
    /// or momentarily locked by another emitter. Never blocks.
    pub fn emit(&self, event: &str, fields: &[(&str, TraceValue<'_>)]) {
        if self.inner.approx_len.load(Ordering::Relaxed) >= self.inner.capacity {
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let t_us = self.inner.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut line = String::with_capacity(48 + 16 * fields.len());
        let _ = write!(line, "{{\"t_us\": {t_us}, \"ev\": ");
        push_json_string(&mut line, event);
        for (key, value) in fields {
            line.push_str(", ");
            push_json_string(&mut line, key);
            line.push_str(": ");
            match value {
                TraceValue::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                TraceValue::Str(s) => push_json_string(&mut line, s),
                TraceValue::Bool(b) => {
                    let _ = write!(line, "{b}");
                }
            }
        }
        line.push('}');
        match self.inner.lines.try_lock() {
            Ok(mut lines) if lines.len() < self.inner.capacity => {
                lines.push(line);
                self.inner.approx_len.store(lines.len(), Ordering::Relaxed);
            }
            Ok(_) | Err(TryLockError::WouldBlock) => {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Err(TryLockError::Poisoned(poisoned)) => {
                let mut lines = poisoned.into_inner();
                if lines.len() < self.inner.capacity {
                    lines.push(line);
                    self.inner.approx_len.store(lines.len(), Ordering::Relaxed);
                } else {
                    self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Events dropped by the bound or by lock contention.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        match self.inner.lines.try_lock() {
            Ok(lines) => lines.len(),
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner().len(),
            Err(TryLockError::WouldBlock) => 0,
        }
    }

    /// Whether nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the buffered lines, in emission order.
    pub fn lines(&self) -> Vec<String> {
        match self.inner.lines.lock() {
            Ok(lines) => lines.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    /// Writes the buffered events as JSONL (one object per line, trailing
    /// newline each) and returns how many lines were written.
    ///
    /// # Errors
    ///
    /// Any I/O failure of `out`.
    pub fn write_to(&self, out: &mut dyn io::Write) -> io::Result<usize> {
        let lines = self.lines();
        for line in &lines {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(lines.len())
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Validates that every non-empty line of `text` is one complete JSON
/// object, returning how many lines parsed.
///
/// This is a strict, minimal JSON parser (objects, arrays, strings with
/// escapes, numbers, `true`/`false`/`null`) — enough to reject the torn or
/// concatenated lines a buggy emitter would produce, with no dependency.
///
/// # Errors
///
/// A message naming the first offending line (1-based) and what was wrong.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let mut parsed = 0usize;
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bytes = line.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        if bytes.get(pos) != Some(&b'{') {
            return Err(format!("line {}: not a JSON object", index + 1));
        }
        parse_value(bytes, &mut pos).map_err(|e| format!("line {}: {e}", index + 1))?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("line {}: trailing bytes after object", index + 1));
        }
        parsed += 1;
    }
    Ok(parsed)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
    {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", char::from(want), *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(b'-') | Some(b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(format!("unexpected byte {other:#x} at {}", *pos)),
        None => Err("unexpected end of line".into()),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        parse_value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(bytes, pos, b'"')?;
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("raw control byte {b:#x} in string"));
            }
            Some(_) => *pos += 1,
        }
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == digits_start {
        return Err(format!("expected digits at byte {}", *pos));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == frac_start {
            return Err("expected digits after decimal point".into());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp_start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        if *pos == exp_start {
            return Err("expected digits in exponent".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_lines_are_valid_jsonl() {
        let log = TraceLog::new(16);
        log.emit("conn_open", &[("conn", TraceValue::U64(3))]);
        log.emit(
            "backpressure",
            &[
                ("conn", TraceValue::U64(3)),
                ("on", TraceValue::Bool(true)),
                ("why", TraceValue::Str("parked \"tail\"\n")),
            ],
        );
        let mut out = Vec::new();
        assert_eq!(log.write_to(&mut out).unwrap(), 2);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(validate_jsonl(&text).unwrap(), 2);
        assert!(text.contains("\"ev\": \"conn_open\""));
        assert!(text.contains("\"why\": \"parked \\\"tail\\\"\\n\""));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn full_buffer_drops_and_counts_instead_of_blocking() {
        let log = TraceLog::new(2);
        for i in 0..5 {
            log.emit("tick", &[("i", TraceValue::U64(i))]);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(validate_jsonl(&log.lines().join("\n")).unwrap(), 2);
    }

    #[test]
    fn validator_accepts_real_json_shapes() {
        let text = r#"{"a": 1, "b": [1, 2.5, -3e2], "c": {"d": null, "e": false}, "f": "\u00e9"}
{"empty": {}, "arr": []}
"#;
        assert_eq!(validate_jsonl(text).unwrap(), 2);
        assert_eq!(validate_jsonl("\n\n").unwrap(), 0);
    }

    #[test]
    fn validator_rejects_torn_and_malformed_lines() {
        assert!(validate_jsonl("{\"a\": 1").is_err());
        assert!(validate_jsonl("{\"a\": 1}{\"b\": 2}").is_err());
        assert!(validate_jsonl("[1, 2]").is_err(), "line must be an object");
        assert!(validate_jsonl("{\"a\": 01e}").is_err());
        assert!(validate_jsonl("{\"a\" 1}").is_err());
        assert!(validate_jsonl("{\"a\": \"\\x\"}").is_err());
        assert!(validate_jsonl("not json").is_err());
    }

    #[test]
    fn concurrent_emitters_never_lose_silently() {
        let log = TraceLog::new(64);
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let log = log.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        log.emit("e", &[("t", TraceValue::U64(thread * 100 + i))]);
                    }
                });
            }
        });
        assert_eq!(log.len() as u64 + log.dropped(), 200);
        assert_eq!(validate_jsonl(&log.lines().join("\n")).unwrap(), log.len());
    }
}
