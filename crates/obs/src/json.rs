//! A tiny JSON writer — just enough for the JSONL sink and the
//! `benchmark/` package's result lines. The workspace builds offline
//! with no serde, so serialization is hand-rolled: objects are emitted
//! in insertion order, strings are escaped per RFC 8259, and non-finite
//! floats map to `null` (JSON has no NaN/Infinity).

use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number, or `null` when not finite.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An incremental writer for one JSON object: tracks whether a comma
/// is due before the next member.
pub struct ObjectWriter {
    buf: String,
    first: bool,
}

impl ObjectWriter {
    /// Opens an object (`{`).
    pub fn new() -> ObjectWriter {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_str(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string member.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_str(&mut self.buf, value);
        self
    }

    /// Adds an unsigned-integer member.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean member.
    pub fn bool_field(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds an array-of-strings member.
    pub fn str_list_field(&mut self, key: &str, values: &[String]) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            write_str(&mut self.buf, v);
        }
        self.buf.push(']');
        self
    }

    /// Closes the object (`}`) and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for ObjectWriter {
    fn default() -> Self {
        ObjectWriter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_chars() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{01}f");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f""#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(' ');
        write_f64(&mut out, f64::INFINITY);
        out.push(' ');
        write_f64(&mut out, 1.5);
        assert_eq!(out, "null null 1.5");
    }

    #[test]
    fn object_writer_handles_commas_and_types() {
        let mut w = ObjectWriter::new();
        w.str_field("s", "x")
            .u64_field("n", 7)
            .bool_field("b", true)
            .str_list_field("l", &["a".into(), "b".into()]);
        assert_eq!(w.finish(), r#"{"s":"x","n":7,"b":true,"l":["a","b"]}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(ObjectWriter::new().finish(), "{}");
    }
}
