//! Minimal streaming JSON writer — the one hand-rolled serializer the
//! workspace shares (the dependency tree deliberately carries no JSON
//! crate). The writer tracks container nesting and comma placement so
//! callers only state structure; the output is deterministic for
//! deterministic inputs, which the trace/manifest byte-identity tests rely
//! on.

/// Format a float as a JSON number; non-finite values (which JSON cannot
/// represent) become `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Append the JSON escape of `s` (without surrounding quotes) to `out`.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// A string as a quoted, escaped JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// 64-bit FNV-1a digest of `bytes`: a short, stable fingerprint of a
/// serialized report, so an artifact can pin byte-identity without
/// carrying the whole report.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Streaming JSON writer with automatic comma placement.
///
/// Call [`JsonWriter::begin_object`] / [`JsonWriter::begin_array`] to open
/// containers, [`JsonWriter::key`] before each object value, and
/// [`JsonWriter::finish`] to take the output. The `field_*` helpers write
/// a key/value pair in one call.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: true until its first element lands.
    stack: Vec<bool>,
    /// A key was just written: the next value must not emit a comma.
    pending_value: bool,
}

impl JsonWriter {
    /// New writer with an empty buffer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// New writer with a preallocated buffer.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter { buf: String::with_capacity(bytes), ..JsonWriter::default() }
    }

    fn sep(&mut self) {
        if self.pending_value {
            self.pending_value = false;
            return;
        }
        if let Some(first) = self.stack.last_mut() {
            if *first {
                *first = false;
            } else {
                self.buf.push(',');
            }
        }
    }

    /// Open an object (`{`).
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('{');
        self.stack.push(true);
        self
    }

    /// Close the current object (`}`).
    pub fn end_object(&mut self) -> &mut Self {
        self.buf.push('}');
        self.stack.pop();
        self
    }

    /// Open an array (`[`).
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('[');
        self.stack.push(true);
        self
    }

    /// Close the current array (`]`).
    pub fn end_array(&mut self) -> &mut Self {
        self.buf.push(']');
        self.stack.pop();
        self
    }

    /// Write an object key; the next value call provides its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
        self.pending_value = true;
        self
    }

    /// Write a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
        self
    }

    /// Write a float value (`null` when non-finite).
    pub fn number(&mut self, v: f64) -> &mut Self {
        self.sep();
        self.buf.push_str(&number(v));
        self
    }

    /// Write an unsigned integer value.
    pub fn uint(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Write a signed integer value.
    pub fn int(&mut self, v: i64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Write a boolean value.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Write a `null` value.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.buf.push_str("null");
        self
    }

    /// Splice a pre-serialized JSON fragment as a value.
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(fragment);
        self
    }

    /// `"k":"v"` in one call.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).string(v)
    }

    /// `"k":<float>` in one call (`null` when non-finite).
    pub fn field_num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k).number(v)
    }

    /// `"k":<u64>` in one call.
    pub fn field_uint(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k).uint(v)
    }

    /// `"k":<bool>` in one call.
    pub fn field_bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).boolean(v)
    }

    /// `"k":<fragment>` in one call.
    pub fn field_raw(&mut self, k: &str, fragment: &str) -> &mut Self {
        self.key(k).raw(fragment)
    }

    /// Take the serialized output. All containers must be closed.
    pub fn finish(self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed JSON container");
        debug_assert!(!self.pending_value, "dangling JSON key");
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_arrays_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("name", "x").field_uint("n", 3).key("list").begin_array();
        w.uint(1).uint(2);
        w.begin_object().field_bool("ok", true).end_object();
        w.end_array();
        w.key("nested").begin_object().end_object();
        w.end_object();
        assert_eq!(w.finish(), r#"{"name":"x","n":3,"list":[1,2,{"ok":true}],"nested":{}}"#);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(1.5), "1.5");
        let mut w = JsonWriter::new();
        w.begin_array().number(f64::NAN).number(2.0).end_array();
        assert_eq!(w.finish(), "[null,2]");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(escaped("x\ny"), "\"x\\ny\"");
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        let mut w = JsonWriter::new();
        w.begin_object().field_str("k\"ey", "v\tal").end_object();
        assert_eq!(w.finish(), "{\"k\\\"ey\":\"v\\tal\"}");
    }

    #[test]
    fn raw_fragments_splice_unchanged() {
        let mut w = JsonWriter::new();
        w.begin_object().field_raw("inner", r#"{"a":1}"#).key("b").raw("[2]").end_object();
        assert_eq!(w.finish(), r#"{"inner":{"a":1},"b":[2]}"#);
    }

    #[test]
    fn top_level_scalars_and_determinism() {
        let build = || {
            let mut w = JsonWriter::new();
            w.begin_object().field_num("v", 0.25).field_bool("b", false).key("z").null();
            w.end_object();
            w.finish()
        };
        assert_eq!(build(), build());
        assert_eq!(build(), r#"{"v":0.25,"b":false,"z":null}"#);
    }
}
