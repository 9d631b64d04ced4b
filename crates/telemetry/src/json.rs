//! The workspace's hand-rolled JSON value: a deterministic writer and a
//! strict reader.
//!
//! No serde in this offline environment, so every artifact (campaign
//! results, plans, partials, event streams, metrics sidecars) goes through
//! this one insertion-ordered value type. Two renderers share the writer
//! logic: [`Json::render`] (two-space pretty, for artifacts humans diff)
//! and [`Json::render_compact`] (single line, for NDJSON event streams).
//! The reader is a small recursive-descent parser with a hard nesting
//! bound, because plans, partials and event streams travel between
//! machines and must fail cleanly on hostile input.
//!
//! The reader runs in time linear in the document: every string is read
//! as runs of plain bytes, each appended in one copy, so a partial or an
//! upload costs the same per byte whatever its size. Following RFC 8259
//! §7, raw control bytes (below 0x20) inside a string are a syntax error
//! with their byte offset; the writer always escapes them, so everything
//! [`Json::render`] and [`Json::render_compact`] produce parses back.
//!
//! This module previously lived in `specstab_campaign::artifact`, which
//! still re-exports it; it moved down here so the kernel- and bench-level
//! telemetry can speak the same format without depending on the campaign
//! layer.

use std::fmt::Write as _;

/// A JSON value with insertion-ordered objects.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (serialized without decimal point).
    Int(i64),
    /// Unsigned integer.
    UInt(u64),
    /// Float (shortest round-trip formatting; NaN/∞ become `null`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object preserving insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds an insertion-ordered [`Json::Obj`] from `(&str, Json)` pairs —
/// the writers' idiom.
#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Json {
    /// Serializes with two-space indentation and trailing newline.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes to a single line without any whitespace — the NDJSON
    /// form (one event per line). No trailing newline; stream writers add
    /// the line separator themselves.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            leaf => leaf.write_leaf(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
            leaf => leaf.write_leaf(out),
        }
    }

    fn write_leaf(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(_) | Json::Obj(_) => unreachable!("containers handled by the callers"),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl Json {
    /// Parses a JSON document (the subset this module writes: no unicode
    /// escapes beyond `\uXXXX`, numbers as `i64`/`u64`/`f64`). Nesting is
    /// limited to [`MAX_PARSE_DEPTH`] levels so hostile input fails with
    /// an error instead of overflowing the stack — partials, plans and
    /// event streams travel between machines, so parse entry points see
    /// untrusted files.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Field lookup on an object (`None` for missing keys or non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required-field lookup with a contextual error.
    ///
    /// # Errors
    ///
    /// Returns a "missing field" message naming `key`.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The value as `u64` ([`Json::UInt`], or a non-negative [`Json::Int`]).
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::UInt(u) => Ok(*u),
            Json::Int(i) if *i >= 0 => Ok(*i as u64),
            other => Err(format!("expected unsigned integer, got {other:?}")),
        }
    }

    /// The value as `f64` (any numeric variant).
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            Json::UInt(u) => Ok(*u as f64),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// The value as `bool`.
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message.
    pub fn as_arr(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect_byte(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

/// Deepest container nesting [`Json::parse`] accepts. The artifacts this
/// workspace writes nest 5-6 levels; 128 leaves headroom while keeping the
/// recursive parser far from stack exhaustion.
pub const MAX_PARSE_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_PARSE_DEPTH {
        return Err(format!("nesting deeper than {MAX_PARSE_DEPTH} at byte {}", *pos));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect_byte(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Take the run of plain bytes up to the next quote, backslash or
        // control byte in one slice. The run starts after an ASCII byte and
        // ends before one (or at the end of the input), so it lies on char
        // boundaries of the `&str` the bytes came from and is valid UTF-8.
        let start = *pos;
        while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
            *pos += 1;
        }
        if *pos > start {
            out.push_str(
                std::str::from_utf8(&bytes[start..*pos]).expect("runs lie on char boundaries"),
            );
        }
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| format!("truncated \\u escape at byte {}", *pos))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("bad \\u codepoint at byte {}", *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => return Err(format!("unescaped control character at byte {}", *pos)),
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() || text == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if float {
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number '{text}': {e}"))
    } else if text.starts_with('-') {
        text.parse::<i64>().map(Json::Int).map_err(|e| format!("bad number '{text}': {e}"))
    } else {
        text.parse::<u64>().map(Json::UInt).map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_shapes() {
        let j = obj(vec![
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("xs", Json::Arr(vec![Json::Int(-1), Json::UInt(2), Json::Num(1.5), Json::Null])),
            ("empty", Json::Obj(vec![])),
            ("nan", Json::Num(f64::NAN)),
        ]);
        let s = j.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("1.5"));
        assert!(s.contains("{}"));
        assert!(s.contains("null"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let j = obj(vec![
            ("s", Json::Str("a\"b\\c\nd\tπ".into())),
            ("xs", Json::Arr(vec![Json::Int(-7), Json::UInt(u64::MAX), Json::Num(1.5)])),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null])),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
            ("nested", obj(vec![("k", Json::UInt(3))])),
        ]);
        let text = j.render();
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, j);
        // Idempotent: render(parse(render(x))) == render(x).
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn compact_rendering_is_single_line_and_round_trips() {
        let j = obj(vec![
            ("event", Json::Str("cell".into())),
            ("t_us", Json::UInt(12)),
            ("nested", obj(vec![("xs", Json::Arr(vec![Json::Int(-1), Json::Null]))])),
            ("note", Json::Str("line\nbreak".into())),
        ]);
        let line = j.render_compact();
        assert!(!line.contains('\n'), "compact form must be NDJSON-safe: {line}");
        assert!(!line.contains(": "), "no pretty separators: {line}");
        assert_eq!(Json::parse(&line).expect("parses"), j);
        assert_eq!(line, "{\"event\":\"cell\",\"t_us\":12,\"nested\":{\"xs\":[-1,null]},\"note\":\"line\\nbreak\"}");
    }

    #[test]
    fn parser_handles_compact_and_escaped_input() {
        let parsed = Json::parse("{\"a\":[1,-2,3.5],\"b\":\"x\\u0041\\n\"}").expect("parses");
        assert_eq!(parsed.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(parsed.get("b").unwrap().as_str().unwrap(), "xA\n");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // RFC 8259 §7: control bytes inside strings must be escaped.
        for (bad, at) in [("\"a\nb\"", 2), ("{\"k\u{1}\":1}", 3), ("[\"π\t\"]", 4)] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(err.contains(&format!("control character at byte {at}")), "{bad:?}: {err}");
        }
        assert_eq!(Json::parse("\"a\u{7f}\\u0001\"").unwrap(), Json::Str("a\u{7f}\u{1}".into()));
    }

    #[test]
    fn parser_is_linear_in_string_bytes() {
        // 1024 one-KiB strings (about 1 MiB): a reader that rescans the
        // rest of the document per character takes tens of seconds on this
        // input; a linear one takes milliseconds, even in a debug build.
        let kib = "aé\u{2603}\u{1f600}\\\"".repeat(1024 / 12);
        let doc = Json::Arr(vec![Json::Str(kib); 1024]).render();
        assert!(doc.len() > 1 << 20);
        let start = std::time::Instant::now();
        let parsed = Json::parse(&doc).expect("parses");
        let took = start.elapsed();
        assert_eq!(parsed.as_arr().unwrap().len(), 1024);
        assert!(took < std::time::Duration::from_secs(2), "1 MiB parse took {took:?}");
    }

    #[test]
    fn parser_bounds_nesting_depth_instead_of_overflowing() {
        // Hostile input: 100k unclosed arrays must yield an error, not a
        // stack overflow (partials/plans are untrusted cross-machine files).
        let hostile = "[".repeat(100_000);
        assert!(Json::parse(&hostile).unwrap_err().contains("nesting deeper"));
        let deep_ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&deep_ok).is_ok(), "depth 100 is within the limit");
    }

    #[test]
    fn accessors_report_type_mismatches() {
        let j = Json::parse("{\"n\": 3, \"s\": \"x\", \"neg\": -1}").unwrap();
        assert_eq!(j.req("n").unwrap().as_u64().unwrap(), 3);
        assert!(j.req("missing").is_err());
        assert!(j.req("s").unwrap().as_u64().is_err());
        assert!(j.req("neg").unwrap().as_u64().is_err(), "negative is not u64");
        assert_eq!(j.req("neg").unwrap().as_f64().unwrap(), -1.0);
        assert!(j.req("n").unwrap().as_str().is_err());
        assert!(j.req("n").unwrap().as_bool().is_err());
        assert!(j.req("n").unwrap().as_arr().is_err());
    }
}
