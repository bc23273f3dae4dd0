//! The one JSON writer behind every machine-readable artifact.
//!
//! The workspace's vendored `serde` has no JSON backend, so the artifact
//! schemas (`BENCH_synth.json`, `BENCH_liquidity.json`, `RUN_METRICS.json`) were
//! each hand-rolled in place. [`JsonWriter`] centralizes the three concerns
//! they all share and must agree on:
//!
//! * **escaping** — keys and string values pass through [`escape_into`];
//! * **float formatting** — fixed decimal places chosen per field, never
//!   shortest-round-trip, so re-runs diff cleanly; non-finite values
//!   serialize as `null`;
//! * **layout** — insertion-ordered keys, two-space pretty indentation, and
//!   an *inline object* form (`{"k": v, "k2": v2}` on one line) for table
//!   rows inside arrays.
//!
//! The writer is a push-down emitter: `begin_*`/`end_*` manage nesting,
//! `key` opens an object entry, and the `field_*` helpers combine both for
//! scalar entries. [`JsonWriter::finish`] returns the document with a
//! trailing newline, byte-stable for a fixed call sequence.

use std::fmt::Write as _;

/// Appends `s` to `out` with JSON string escaping.
pub fn escape_into(out: &mut String, s: &str) {
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

enum Frame {
    /// A pretty-printed object: one `"key": value` entry per line.
    Object { entries: usize },
    /// A pretty-printed array: one element per line.
    Array { entries: usize },
    /// A single-line object (table rows inside arrays).
    Inline { entries: usize },
}

/// A streaming, byte-stable JSON document writer. See the module docs.
pub struct JsonWriter {
    out: String,
    stack: Vec<Frame>,
    after_key: bool,
}

impl JsonWriter {
    /// A writer producing two-space-indented documents.
    pub fn pretty() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            stack: Vec::new(),
            after_key: false,
        }
    }

    fn indent(&mut self) {
        let level = self
            .stack
            .iter()
            .filter(|f| !matches!(f, Frame::Inline { .. }))
            .count();
        for _ in 0..level {
            self.out.push_str("  ");
        }
    }

    /// Positions the writer for the next value: consumes a pending key, or
    /// starts a new array element on its own indented line.
    fn start_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        let first = match self.stack.last_mut() {
            Some(Frame::Array { entries }) => {
                let first = *entries == 0;
                *entries += 1;
                first
            }
            Some(Frame::Object { .. }) | Some(Frame::Inline { .. }) => {
                panic!("object values need a key() first")
            }
            None => return, // document root
        };
        if !first {
            self.out.push(',');
        }
        self.out.push('\n');
        self.indent();
    }

    /// Opens an entry named `name` in the current (pretty or inline)
    /// object; the next `begin_*`/`value_*` call provides its value.
    pub fn key(&mut self, name: &str) {
        assert!(!self.after_key, "key() twice without a value");
        let (inline, first) = match self.stack.last_mut() {
            Some(Frame::Object { entries }) => {
                let first = *entries == 0;
                *entries += 1;
                (false, first)
            }
            Some(Frame::Inline { entries }) => {
                let first = *entries == 0;
                *entries += 1;
                (true, first)
            }
            _ => panic!("key() outside an object"),
        };
        if inline {
            if !first {
                self.out.push_str(", ");
            }
        } else {
            if !first {
                self.out.push(',');
            }
            self.out.push('\n');
            self.indent();
        }
        self.out.push('"');
        escape_into(&mut self.out, name);
        self.out.push_str("\": ");
        self.after_key = true;
    }

    /// Opens a pretty-printed object (as the root, an entry value, or an
    /// array element).
    pub fn begin_object(&mut self) {
        self.start_value();
        self.out.push('{');
        self.stack.push(Frame::Object { entries: 0 });
    }

    /// Closes the current pretty-printed object.
    pub fn end_object(&mut self) {
        match self.stack.pop() {
            Some(Frame::Object { entries }) => {
                if entries > 0 {
                    self.out.push('\n');
                    self.indent();
                }
                self.out.push('}');
            }
            _ => panic!("end_object() without a matching begin_object()"),
        }
    }

    /// Opens a pretty-printed array.
    pub fn begin_array(&mut self) {
        self.start_value();
        self.out.push('[');
        self.stack.push(Frame::Array { entries: 0 });
    }

    /// Closes the current pretty-printed array.
    pub fn end_array(&mut self) {
        match self.stack.pop() {
            Some(Frame::Array { entries }) => {
                if entries > 0 {
                    self.out.push('\n');
                    self.indent();
                }
                self.out.push(']');
            }
            _ => panic!("end_array() without a matching begin_array()"),
        }
    }

    /// Opens a single-line object — the table-row form used for array
    /// elements (`{"label": "x", "total": 3}`).
    pub fn begin_inline_object(&mut self) {
        self.start_value();
        self.out.push('{');
        self.stack.push(Frame::Inline { entries: 0 });
    }

    /// Closes the current single-line object.
    pub fn end_inline_object(&mut self) {
        match self.stack.pop() {
            Some(Frame::Inline { .. }) => self.out.push('}'),
            _ => panic!("end_inline_object() without a matching begin_inline_object()"),
        }
    }

    fn raw(&mut self, s: &str) {
        self.start_value();
        self.out.push_str(s);
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.raw(&v.to_string());
    }

    /// Writes a signed integer value.
    fn value_i64(&mut self, v: i64) {
        self.raw(&v.to_string());
    }

    /// Writes a float with exactly `decimals` fractional digits; NaN and
    /// infinities become `null`.
    fn value_f64(&mut self, v: f64, decimals: usize) {
        if v.is_finite() {
            let s = format!("{v:.decimals$}");
            self.raw(&s);
        } else {
            self.raw("null");
        }
    }

    /// Writes an escaped, quoted string value.
    pub fn value_str(&mut self, v: &str) {
        self.start_value();
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
    }

    /// Writes a boolean value.
    fn value_bool(&mut self, v: bool) {
        self.raw(if v { "true" } else { "false" });
    }

    /// Writes a `null` value.
    fn value_null(&mut self) {
        self.raw("null");
    }

    /// `key(name)` + [`JsonWriter::value_u64`].
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.value_u64(v);
    }

    /// `key(name)` + `value_i64`.
    pub fn field_i64(&mut self, name: &str, v: i64) {
        self.key(name);
        self.value_i64(v);
    }

    /// `key(name)` + `value_f64`.
    pub fn field_f64(&mut self, name: &str, v: f64, decimals: usize) {
        self.key(name);
        self.value_f64(v, decimals);
    }

    /// `key(name)` + [`JsonWriter::value_str`].
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.value_str(v);
    }

    /// `key(name)` + `value_bool`.
    pub fn field_bool(&mut self, name: &str, v: bool) {
        self.key(name);
        self.value_bool(v);
    }

    /// `key(name)` + `value_null`.
    pub fn field_null(&mut self, name: &str) {
        self.key(name);
        self.value_null();
    }

    /// Returns the finished document (with trailing newline). Panics if
    /// containers are still open.
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty(), "finish() with open containers");
        assert!(!self.after_key, "finish() with a dangling key");
        self.out.push('\n');
        self.out
    }
}

/// A parsed JSON value — the read half of the byte-stable artifact story.
///
/// The workspace's artifacts are all emitted by [`JsonWriter`]; this parser
/// lets Rust consumers (the cluster harness merging `/trace` responses, the
/// live `validator_watch` example, integration tests) read them back
/// without external dependencies. Integers that fit `i128` stay exact;
/// anything with a fraction or exponent becomes [`Value::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal, kept exact.
    Int(i128),
    /// A fractional or exponent literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative in-range integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an in-range integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert losslessly up to 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value's object fields, in document order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level and its input is untrusted (`/trace` bodies, `check replay FILE`);
/// nothing `JsonWriter` emits comes near this.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of document".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected byte {:?} at {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if fractional {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        } else {
            text.parse::<i128>()
                .map(Value::Int)
                .map_err(|e| format!("bad number {text:?}: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(
                                char::from_u32(code).ok_or("unpaired surrogate in \\u escape")?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at `b`.
                    let width = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    self.pos = start + width;
                    let chunk = self
                        .bytes
                        .get(start..self.pos)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', found {:?}", other as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', found {:?}", other as char)),
            }
        }
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse(doc: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: doc.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::new();
        escape_into(&mut out, s);
        out
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("émile"), "émile");
    }

    #[test]
    fn pretty_object_matches_handrolled_layout() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("experiment", "synth");
        w.field_u64("payments", 100000);
        w.key("pipeline");
        w.begin_object();
        w.field_f64("script_secs", 0.5, 6);
        w.field_u64("events", 42);
        w.end_object();
        w.field_null("serial_secs");
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"experiment\": \"synth\",\n  \"payments\": 100000,\n  \
             \"pipeline\": {\n    \"script_secs\": 0.500000,\n    \
             \"events\": 42\n  },\n  \"serial_secs\": null\n}\n"
        );
    }

    #[test]
    fn arrays_of_inline_objects_match_row_layout() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("rows");
        w.begin_array();
        for (label, total) in [("a", 1u64), ("b", 2)] {
            w.begin_inline_object();
            w.field_str("label", label);
            w.field_u64("total", total);
            w.field_f64("pct", 99.8341, 4);
            w.end_inline_object();
        }
        w.end_array();
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"rows\": [\n    \
             {\"label\": \"a\", \"total\": 1, \"pct\": 99.8341},\n    \
             {\"label\": \"b\", \"total\": 2, \"pct\": 99.8341}\n  ]\n}\n"
        );
    }

    #[test]
    fn floats_are_fixed_decimal_and_nonfinite_is_null() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_f64("two", 4.671, 2);
        w.field_f64("nan", f64::NAN, 6);
        w.field_f64("inf", f64::INFINITY, 1);
        w.field_bool("ok", true);
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\n  \"two\": 4.67,\n  \"nan\": null,\n  \"inf\": null,\n  \"ok\": true\n}\n"
        );
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("counters");
        w.begin_object();
        w.end_object();
        w.key("rows");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"counters\": {},\n  \"rows\": []\n}\n");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_str("name", "a\"b\\c");
        w.field_u64("count", 42);
        w.field_i64("delta", -7);
        w.field_f64("rate", 2.5, 3);
        w.field_bool("ok", true);
        w.field_null("gap");
        w.key("rows");
        w.begin_array();
        w.begin_inline_object();
        w.field_u64("t", 1);
        w.end_inline_object();
        w.end_array();
        w.end_object();
        let value = parse(&w.finish()).expect("writer output parses");
        assert_eq!(value.get("name").and_then(Value::as_str), Some("a\"b\\c"));
        assert_eq!(value.get("count").and_then(Value::as_u64), Some(42));
        assert_eq!(value.get("delta").and_then(Value::as_i64), Some(-7));
        assert_eq!(value.get("rate").and_then(Value::as_f64), Some(2.5));
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(value.get("gap"), Some(&Value::Null));
        let rows = value.get("rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows[0].get("t").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{\"a\": 1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        // Integers stay exact beyond f64 precision.
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v, Value::Int(9007199254740993));
        assert_eq!(parse("-3.25").unwrap(), Value::Float(-3.25));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
    }

    #[test]
    fn parse_caps_nesting_instead_of_overflowing_the_stack() {
        // One recursion per level: uncapped, 100k levels of untrusted input
        // overflow a 2 MB thread stack and abort the process.
        let parsed = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                [
                    parse(&"[".repeat(100_000)),
                    parse(&"{\"a\":".repeat(100_000)),
                ]
            })
            .expect("spawn")
            .join()
            .expect("the parser returned");
        for result in parsed {
            let err = result.unwrap_err();
            assert!(err.starts_with("nesting deeper than 128"), "{err}");
        }
        // The cap itself: 128 levels parse, one more does not.
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        let deep = |levels: usize| "{\"a\":".repeat(levels) + "1" + &"}".repeat(levels);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
    }
}
