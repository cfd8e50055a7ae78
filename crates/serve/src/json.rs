//! A minimal hand-rolled JSON reader for the wire protocol and journal.
//!
//! Same discipline as octo-faults' `FaultPlan` parser — recursive
//! descent over raw bytes, zero dependencies — but generic: protocol
//! messages arrive from untrusted clients, so the *shape* is not known
//! before parsing. [`parse_json`] produces a [`JsonValue`] tree which
//! the protocol layer then pattern-matches; malformed input is a
//! `String` diagnostic with a byte offset, never a panic.
//!
//! Deliberate limits (documented in `docs/service.md`):
//! * nesting depth is capped at [`MAX_DEPTH`] — a `[[[[…` bomb is an
//!   error, not a stack overflow;
//! * integers must fit `i64`; any number with a fraction or exponent
//!   parses as a float ([`JsonValue::Num`]);
//! * duplicate object keys are accepted, last one wins on lookup (the
//!   renderers never emit duplicates).

/// Maximum nesting depth [`parse_json`] accepts.
pub const MAX_DEPTH: usize = 32;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent) that fits `i64`.
    Int(i64),
    /// Any other numeric literal.
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as a number, integer or not, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks `key` up in an object (last occurrence wins); `None` for
    /// non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => {
                fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is &str, so
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf-8"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("empty"))?;
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u` (the `u` itself already
    /// consumed), including a following low surrogate when the first
    /// unit is a high surrogate. Leaves `pos` after the escape.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require `\uXXXX` low surrogate next.
            if self.peek() != Some(b'\\') {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.err("lone high surrogate"));
            }
            self.pos += 1;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
        }
        if (0xDC00..0xE000).contains(&hi) {
            return Err(self.err("lone low surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            value = value * 16 + d;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

/// Escapes a string for embedding in a JSON string literal (shared by
/// every renderer in this crate).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse_json("2.5").unwrap(), JsonValue::Num(2.5));
        assert_eq!(parse_json("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(
            parse_json("\"hi\"").unwrap(),
            JsonValue::Str("hi".to_string())
        );
    }

    #[test]
    fn containers_parse() {
        let v = parse_json("{\"a\":[1,2],\"b\":{\"c\":null}}").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(parse_json("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse_json("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn escapes_round_trip_through_render() {
        let original = "a\"b\\c\nd\te\u{1}é❤\u{10348}";
        let doc = format!("\"{}\"", json_escape(original));
        assert_eq!(parse_json(&doc).unwrap().as_str().unwrap(), original);
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse_json("\"\\ud83d\\ude00\"").unwrap().as_str().unwrap(),
            "😀"
        );
        assert!(parse_json("\"\\ud83d\"").is_err(), "lone high surrogate");
        assert!(parse_json("\"\\ude00\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn malformed_inputs_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1 2",
            "{} trailing",
            "nan",
            "+1",
            "99999999999999999999999999",
            "\"\u{1}\"",
        ] {
            assert!(parse_json(bad).is_err(), "should reject: {bad:?}");
        }
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.contains("nesting too deep"), "{err}");
        // …but reasonable nesting is fine.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let v = parse_json("{\"k\":1,\"k\":2}").unwrap();
        assert_eq!(v.get("k"), Some(&JsonValue::Int(2)));
    }
}
