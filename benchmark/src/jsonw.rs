//! One-line JSON for result lines and `HISTORY.jsonl`. `ripple-obs`'s own
//! writer is pretty-printed with a fixed number of decimals; the result
//! line must be a single line carrying every value as measured, so this
//! serializes an `obs::json::Value` compactly with Rust's shortest
//! round-trip float formatting.

use crate::calls::json::{escape_into, Value};

/// An object value from `(key, value)` pairs.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn int(v: u64) -> Value {
    Value::Int(i128::from(v))
}

/// `v` as one line. A non-finite float (a ratio over a zero denominator)
/// is written as 0.
pub fn compact(v: &Value) -> String {
    let mut out = String::new();
    write(&mut out, v);
    out
}

fn write(out: &mut String, v: &Value) {
    let quoted = |out: &mut String, s: &str| {
        out.push('"');
        escape_into(out, s);
        out.push('"');
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => out.push_str(&format!("{:?}", if f.is_finite() { *f } else { 0.0 })),
        Value::Str(s) => quoted(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write(out, item);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (key, value)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                quoted(out, key);
                out.push(':');
                write(out, value);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calls::json;

    #[test]
    fn writes_one_parseable_line_with_full_precision() {
        let doc = obj([
            ("correct", Value::Bool(true)),
            ("attempted", int(7)),
            (
                "latency_ms",
                obj([
                    ("value", Value::Float(1.2034567890123)),
                    ("unit", text("m\"s")),
                ]),
            ),
            (
                "list",
                Value::Arr(vec![Value::Float(f64::NAN), text("x\ny")]),
            ),
        ]);
        let line = compact(&doc);
        assert!(!line.contains('\n'));
        assert!(line.contains("1.2034567890123"));
        let mut expected = doc.clone();
        if let Value::Obj(fields) = &mut expected {
            fields[3].1 = Value::Arr(vec![Value::Float(0.0), text("x\ny")]);
        }
        assert_eq!(json::parse(&line).expect("parses"), expected);
    }
}
