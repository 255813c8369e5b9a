//! Minimal, dependency-free JSON emission.
//!
//! `repro --json` writes `BENCH_<id>.json` artifacts — machine-readable
//! mirrors of the repro tables plus a simulated kernel-time / sampler-tally
//! summary — that CI uploads. The workspace is offline and std-only, so
//! instead of serde this module provides a tiny value tree with a stable
//! renderer.

use std::fmt::Write as _;

/// A JSON value tree. Object member order is preserved as inserted, so
/// rendered artifacts diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered members.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Self {
        Json::Arr(values.into_iter().collect())
    }

    /// Renders with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(members) if members.is_empty() => out.push_str("{}"),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Extracts the first number stored under `"key":` in a JSON document.
    ///
    /// Deliberately not a parser: tests read a handful of scalar fields
    /// back out of documents this module rendered. Keys nested under
    /// different objects are not disambiguated.
    pub(crate) fn extract_number(src: &str, key: &str) -> Option<f64> {
        let needle = format!("\"{key}\"");
        let at = src.find(&needle)? + needle.len();
        let rest = src[at..].trim_start().strip_prefix(':')?.trim_start();
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    #[test]
    fn renders_nested_structures() {
        let doc = Json::obj([
            ("name", Json::from("parallel_drain")),
            ("ok", Json::from(true)),
            ("speedup", Json::from(2.5)),
            ("tags", Json::arr([Json::from("a"), Json::Null])),
            ("empty", Json::obj::<String>([])),
        ]);
        let s = doc.render();
        assert!(s.contains("\"name\": \"parallel_drain\""));
        assert!(s.contains("\"ok\": true"));
        assert!(s.contains("\"speedup\": 2.5"));
        assert!(s.contains("\"empty\": {}"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let s = Json::from("a\"b\\c\nd\u{1}").render();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn extracts_numbers_back_out() {
        let doc = Json::obj([
            ("throughput_qps", Json::from(1234.5)),
            ("workers", Json::from(4u64)),
            ("neg", Json::from(-2.0)),
        ])
        .render();
        assert_eq!(extract_number(&doc, "throughput_qps"), Some(1234.5));
        assert_eq!(extract_number(&doc, "workers"), Some(4.0));
        assert_eq!(extract_number(&doc, "neg"), Some(-2.0));
        assert_eq!(extract_number(&doc, "missing"), None);
    }
}
