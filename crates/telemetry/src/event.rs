//! JSONL event encoding for the flight recorder.
//!
//! One event is one JSON object on one line. The encoder is hand-rolled (no
//! external deps, like every other substrate in this workspace) and emits
//! fields in exactly the order they are added, so a given event sequence has
//! exactly one byte representation — that is what makes golden-trace
//! comparisons across engine configurations meaningful.
//!
//! # The `wall_` convention
//!
//! Field names starting with `wall_` carry wall-clock measurements (always
//! plain numbers). They are the only fields allowed to differ between two
//! runs of the same seed, and [`strip_wall_fields`] removes them so traces
//! can be compared byte-for-byte across engine thread counts.

use std::fmt::Write as _;

/// A dynamically-typed field value for [`crate::trace`] call sites.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String (JSON-escaped on encode).
    Str(&'a str),
    /// Boolean.
    Bool(bool),
}

/// Escapes `s` into `out` as JSON string contents (no surrounding quotes).
pub fn escape_json(s: &str, out: &mut String) {
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
}

/// Builder for one JSONL event line. The event kind is always the first
/// field (`"ev"`), so every line starts `{"ev":"…"`.
#[derive(Debug)]
pub struct EventBuf {
    buf: String,
}

impl EventBuf {
    /// Starts an event of the given kind.
    pub fn new(kind: &str) -> Self {
        let mut buf = String::with_capacity(64);
        buf.push_str("{\"ev\":\"");
        escape_json(kind, &mut buf);
        buf.push('"');
        EventBuf { buf }
    }

    fn key(&mut self, name: &str) {
        self.buf.push_str(",\"");
        escape_json(name, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Adds an unsigned-integer field.
    pub fn u64(&mut self, name: &str, v: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a signed-integer field.
    pub fn i64(&mut self, name: &str, v: i64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, v: &str) -> &mut Self {
        self.key(name);
        self.buf.push('"');
        escape_json(v, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a dynamically-typed field.
    pub fn field(&mut self, name: &str, v: Field<'_>) -> &mut Self {
        match v {
            Field::U64(x) => self.u64(name, x),
            Field::I64(x) => self.i64(name, x),
            Field::Str(x) => self.str(name, x),
            Field::Bool(x) => self.bool(name, x),
        }
    }

    /// Closes the object and returns the line (with trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push_str("}\n");
        self.buf
    }
}

/// Removes every `"wall_*": <number>` field from a JSONL text, returning the
/// deterministic residue used for golden-trace comparison.
///
/// Wall fields are always numeric and never the first field of an object
/// (the `"ev"` kind is), so each occurrence is `,"wall_…":<digits>` — the
/// scan below needs no JSON parser.
pub fn strip_wall_fields(jsonl: &str) -> String {
    let mut out = String::with_capacity(jsonl.len());
    let bytes = jsonl.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b',' && jsonl[i..].starts_with(",\"wall_") {
            // Skip to the closing quote of the key, then the value.
            let key_end = jsonl[i + 2..].find('"').map(|p| i + 2 + p);
            if let Some(ke) = key_end {
                let mut j = ke + 1;
                if bytes.get(j) == Some(&b':') {
                    j += 1;
                    while j < bytes.len()
                        && matches!(bytes[j], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                    {
                        j += 1;
                    }
                    i = j;
                    continue;
                }
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_encoding_is_ordered_and_escaped() {
        let mut ev = EventBuf::new("round_start");
        ev.u64("round", 3).str("phase", "refresh\"1\"").bool("ok", true).i64("d", -2);
        assert_eq!(
            ev.finish(),
            "{\"ev\":\"round_start\",\"round\":3,\"phase\":\"refresh\\\"1\\\"\",\"ok\":true,\"d\":-2}\n"
        );
    }

    #[test]
    fn control_chars_escaped() {
        let mut s = String::new();
        escape_json("a\u{1}b\nc", &mut s);
        assert_eq!(s, "a\\u0001b\\nc");
    }

    #[test]
    fn strip_wall_removes_only_wall_fields() {
        let line = "{\"ev\":\"round_end\",\"round\":7,\"wall_ns\":123456,\"sent\":10,\"wall_rss\":9}\n";
        assert_eq!(
            strip_wall_fields(line),
            "{\"ev\":\"round_end\",\"round\":7,\"sent\":10}\n"
        );
        // Untouched text survives byte-for-byte.
        let plain = "{\"ev\":\"x\",\"walled\":1}\n";
        assert_eq!(strip_wall_fields(plain), plain);
    }

    #[test]
    fn strip_wall_handles_multiple_lines() {
        let text = "{\"ev\":\"a\",\"wall_ns\":1}\n{\"ev\":\"b\",\"n\":2,\"wall_ns\":3}\n";
        assert_eq!(strip_wall_fields(text), "{\"ev\":\"a\"}\n{\"ev\":\"b\",\"n\":2}\n");
    }
}
