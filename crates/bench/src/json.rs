//! JSON emit for the table row types.
//!
//! The offline build cannot fetch `serde`/`serde_json`, and the row types
//! are flat records of strings, numbers, bools and optionals. Cells use
//! the workspace's one JSON value type, [`octo_serve::json::JsonValue`];
//! [`octo_serve::json::parse_json`] reads the emitted rows back.

use std::fmt::Write as _;

use octo_serve::json::{json_escape, JsonValue};

/// Rows that can emit themselves as ordered `(key, value)` JSON fields.
pub trait JsonRow {
    /// The row's fields in declaration order.
    fn json_fields(&self) -> Vec<(&'static str, JsonValue)>;
}

fn write_value(out: &mut String, v: &JsonValue) {
    let _ = match v {
        JsonValue::Str(s) => write!(out, "\"{}\"", json_escape(s)),
        JsonValue::Num(n) if n.is_finite() => write!(out, "{n}"),
        JsonValue::Int(i) => write!(out, "{i}"),
        JsonValue::Bool(b) => write!(out, "{b}"),
        // Cells are scalars: null, a non-finite number or a container
        // renders as `null`.
        _ => write!(out, "null"),
    };
}

/// Serialises one row as a compact JSON object.
pub fn to_json<R: JsonRow>(row: &R) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in row.json_fields().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        write_value(&mut out, v);
    }
    out.push('}');
    out
}

/// Serialises a slice of rows as a pretty-printed JSON array (2-space
/// indent), the shape `serde_json::to_string_pretty` produced before.
pub fn to_json_pretty<R: JsonRow>(rows: &[R]) -> String {
    if rows.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (ri, row) in rows.iter().enumerate() {
        out.push_str("  {\n");
        let fields = row.json_fields();
        for (fi, (k, v)) in fields.iter().enumerate() {
            let _ = write!(out, "    \"{k}\": ");
            write_value(&mut out, v);
            if fi + 1 < fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }");
        if ri + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use octo_serve::json::parse_json;

    struct Demo;

    impl JsonRow for Demo {
        fn json_fields(&self) -> Vec<(&'static str, JsonValue)> {
            vec![
                ("name", JsonValue::Str("a \"quoted\" héllo → 世界".into())),
                ("count", JsonValue::Num(3.5)),
                ("ok", JsonValue::Bool(true)),
                ("missing", JsonValue::Null),
                ("nan", JsonValue::Num(f64::NAN)),
            ]
        }
    }

    #[test]
    fn emit_and_parse_round_trip() {
        let json = to_json(&Demo);
        let doc = parse_json(&json).expect("parses");
        let field = |k: &str| doc.get(k).expect(k);
        assert_eq!(field("name").as_str(), Some("a \"quoted\" héllo → 世界"));
        assert_eq!(field("count").as_f64(), Some(3.5));
        assert_eq!(field("ok").as_bool(), Some(true));
        assert_eq!(field("missing"), &JsonValue::Null);
        assert_eq!(field("nan"), &JsonValue::Null, "non-finite renders as null");
    }

    #[test]
    fn pretty_array_shape() {
        let text = to_json_pretty(&[Demo, Demo]);
        assert!(text.starts_with("[\n  {\n"));
        assert!(text.ends_with("  }\n]"));
        assert_eq!(text.matches("\"name\"").count(), 2);
        assert_eq!(to_json_pretty::<Demo>(&[]), "[]");
    }
}
