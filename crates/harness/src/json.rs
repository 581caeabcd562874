//! Minimal JSON document model and writer.
//!
//! The workspace has no serialization dependency, so campaign reports are
//! built from this small value tree. Object fields keep insertion order,
//! which — together with deterministic inputs — makes report bodies
//! reproducible byte-for-byte. Non-finite floats serialize as `null`
//! (JSON has no NaN/Infinity).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer number (kept apart from floats so counts print without `.0`).
    Int(i64),
    /// Floating-point number; NaN/±∞ serialize as `null`.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object from `(key, value)` pairs, preserving order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Array from an iterator of values.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Array of numbers.
    pub fn nums<'a, I: IntoIterator<Item = &'a f64>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(|v| Json::Num(*v)).collect())
    }

    /// Serialize with 2-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                    // Keep floats recognizably floats.
                    if v.fract() == 0.0 && v.abs() < 1e15 {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested structures wrap.
                let scalar = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if scalar {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        pad(out, indent + 1);
                        item.write(out, indent + 1);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_shapes() {
        let doc = Json::obj([
            ("name", Json::from("a\"b\\c\nd")),
            ("count", Json::from(3usize)),
            ("ratio", Json::from(0.5)),
            ("whole", Json::from(2.0)),
            ("bad", Json::Num(f64::NAN)),
            ("flags", Json::arr([Json::from(true), Json::Null])),
            ("empty", Json::Obj(vec![])),
        ]);
        let s = doc.pretty();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"count\": 3,"));
        assert!(s.contains("\"ratio\": 0.5,"));
        assert!(s.contains("\"whole\": 2.0,"));
        assert!(s.contains("\"bad\": null,"));
        assert!(s.contains("[true, null]"));
        assert!(s.contains("\"empty\": {}"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn nested_arrays_wrap() {
        let doc = Json::arr([
            Json::obj([("k", Json::Int(1))]),
            Json::obj([("k", Json::Int(2))]),
        ]);
        let s = doc.pretty();
        assert_eq!(
            s.matches('\n').count(),
            8,
            "one line per bracket/field:\n{s}"
        );
    }

    #[test]
    fn deterministic_output() {
        let build = || Json::obj([("b", Json::Int(2)), ("a", Json::nums(&[1.0, 2.5]))]).pretty();
        assert_eq!(build(), build());
    }
}
