//! The one text writer behind every scrape: JSON and the Prometheus text
//! exposition, for shard ([`ScrapeSnapshot`](crate::ScrapeSnapshot)) and
//! daemon snapshots alike.
//!
//! Escaping lives here and nowhere else.  JSON strings escape quote,
//! backslash and control characters, and a non-finite float is `null`.
//! A Prometheus metric name keeps ASCII letters and digits and turns
//! anything else into `_`; a label value always escapes backslash, quote
//! and newline, so a client-chosen name (a daemon tenant) cannot end its
//! series early and forge another.

/// JSON values, rendered to text: objects, arrays, numbers, strings.
pub mod json {
    use std::fmt::Write;

    /// A JSON object of `fields`, each a key and its rendered value.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
        let fields = fields
            .into_iter()
            .map(|(key, v)| format!("{}:{v}", string(key)));
        format!("{{{}}}", fields.collect::<Vec<_>>().join(","))
    }

    /// A JSON array of rendered values.
    pub fn array(items: impl IntoIterator<Item = String>) -> String {
        format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
    }

    /// A JSON number for `v`, or `null` when it is NaN or ±∞.
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            v.to_string()
        } else {
            "null".into()
        }
    }

    /// A JSON string literal of `s`.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
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
        out
    }
}

/// The Prometheus text exposition.
pub mod prometheus {
    use std::fmt::{Display, Write};

    use crate::metrics::HistogramSnapshot;

    /// A Prometheus text exposition: `# TYPE` lines and the series under
    /// them.  Every name gets the writer's prefix, and every series carries
    /// the writer's common labels first.
    #[derive(Debug, Default)]
    pub struct Writer {
        out: String,
        prefix: &'static str,
        common: Vec<(&'static str, String)>,
        family: String,
    }

    impl Writer {
        /// A writer that prefixes every name with `prefix` and starts every
        /// series with the labels `common`.
        pub fn new(prefix: &'static str, common: Vec<(&'static str, String)>) -> Self {
            Self {
                prefix,
                common,
                ..Self::default()
            }
        }

        /// Starts family `name` of `kind` (`gauge`, `counter`, `histogram`)
        /// with its `# TYPE` line.  Starting the family just started again
        /// writes nothing, so the series of one family may come one by one.
        pub fn family(&mut self, name: &str, kind: &str) {
            let name = sanitized(self.prefix, name);
            if name != self.family {
                let _ = writeln!(self.out, "# TYPE {name} {kind}");
                self.family = name;
            }
        }

        /// One series `name{labels} value` (braces only when there are labels).
        pub fn series(&mut self, name: &str, labels: &[(&str, &str)], value: impl Display) {
            self.out.push_str(&sanitized(self.prefix, name));
            let common = self.common.iter().map(|(k, v)| (*k, v.as_str()));
            let mut sep = '{';
            for (key, value) in common.chain(labels.iter().copied()) {
                let _ = write!(self.out, "{sep}{key}=\"");
                sep = ',';
                for c in value.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            if sep == ',' {
                self.out.push('}');
            }
            let _ = writeln!(self.out, " {value}");
        }

        /// A family of `kind` with one series and no labels of its own.
        pub fn single(&mut self, name: &str, kind: &str, value: impl Display) {
            self.family(name, kind);
            self.series(name, &[], value);
        }

        /// Histogram family `name`: cumulative `le` buckets (empty ones left
        /// out, `+Inf` always written), then `_sum` and `_count`.
        pub fn histogram(&mut self, name: &str, h: &HistogramSnapshot) {
            self.family(name, "histogram");
            let bucket = format!("{name}_bucket");
            let last = h.buckets.len().saturating_sub(1);
            let mut cumulative = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 && i < last {
                    continue;
                }
                cumulative = cumulative.wrapping_add(b);
                let le = if i == last {
                    "+Inf".to_string()
                } else {
                    HistogramSnapshot::bucket_upper_bound(i).to_string()
                };
                self.series(&bucket, &[("le", &le)], cumulative);
            }
            self.series(&format!("{name}_sum"), &[], h.sum);
            self.series(&format!("{name}_count"), &[], h.count());
        }

        /// The exposition text.
        pub fn finish(self) -> String {
            self.out
        }
    }

    /// An `f64` as a Prometheus sample value: `NaN`, `+Inf` and `-Inf` for
    /// the non-finite ones.
    pub fn float(v: f64) -> String {
        match v {
            v if v.is_finite() => v.to_string(),
            v if v.is_nan() => "NaN".into(),
            v if v > 0.0 => "+Inf".into(),
            _ => "-Inf".into(),
        }
    }

    fn sanitized(prefix: &str, name: &str) -> String {
        let sanitize = |c: char| if c.is_ascii_alphanumeric() { c } else { '_' };
        prefix.chars().chain(name.chars()).map(sanitize).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sanitized_and_every_label_value_escaped() {
        let mut p = prometheus::Writer::new("m_", vec![("shard", "1".into())]);
        p.family("a.b", "gauge");
        p.family("a.b", "gauge"); // the same family again: no second TYPE line
        p.series("a.b", &[("t", "x\"} 1\n\\")], 2);
        let text = "# TYPE m_a_b gauge\nm_a_b{shard=\"1\",t=\"x\\\"} 1\\n\\\\\"} 2\n";
        assert_eq!(p.finish(), text);
        let fields = [
            ("k\n", json::string("\"\u{1}")),
            ("f", json::number(f64::NAN)),
        ];
        assert_eq!(json::object(fields), r#"{"k\n":"\"\u0001","f":null}"#);
        assert_eq!(json::array([]), "[]");
    }
}
