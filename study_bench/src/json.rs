//! A JSON writer just big enough for the result line, the result file,
//! `BENCHMARK.json` and the Chrome trace.  (No reader: the suite parses
//! its children's plain `metric <name> <value> <unit>` lines instead.)

use std::fmt::Write;

/// A JSON value.  Objects keep insertion order so files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces after separators.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, with a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            // Rust prints the shortest decimal that reads back to the same
            // f64, so a measured value keeps all its digits; JSON has no
            // NaN/inf, which a metric must never be anyway.
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output_is_valid_and_ordered() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(16)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
            ("none", Json::Null),
            ("list", Json::Arr(vec![Json::Int(1), Json::Num(2.5)])),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"correct":true,"attempted":16,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}},"none":null,"list":[1,2.5]}"#
        );
    }

    #[test]
    fn strings_are_escaped_and_numbers_keep_their_digits() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").compact(),
            r#""a\"b\\c\nd\u0001""#
        );
        let x = 1.2034567890123457_f64;
        assert_eq!(Json::Num(x).compact().parse::<f64>().unwrap(), x);
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]\n");
    }

    #[test]
    fn pretty_output_indents() {
        let v = Json::obj([("a", Json::Arr(vec![Json::Int(1)]))]);
        assert_eq!(v.pretty(), "{\n  \"a\": [\n    1\n  ]\n}\n");
    }
}
