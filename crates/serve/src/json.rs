//! A minimal, hardened JSON parser for the daemon's request codec.
//!
//! The workspace has no serde (no crates.io access), and the daemon's
//! threat model is exactly the one a hand-rolled parser must survive:
//! truncated lines, garbage bytes, pathological nesting, and oversized
//! tokens arriving on a long-lived socket. Every failure is a typed
//! [`JsonError`] carrying a byte offset — parsing never panics, never
//! recurses unboundedly (`MAX_DEPTH`), and never allocates more than the
//! input's own length (the caller caps line length before parsing; see
//! `protocol::MAX_LINE_BYTES`).
//!
//! Integers and floats are kept apart: [`Value::Int`] holds any token that
//! is a pure integer in `i128` range, so 64-bit seeds round-trip exactly
//! (an `f64` would silently round seeds above 2⁵³).

use std::fmt;

/// Maximum nesting depth accepted by the parser.
pub(crate) const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token with no fraction/exponent, in `i128` range.
    Int(i128),
    /// Any other number token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, fields in source order (duplicates kept; lookups take
    /// the first).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// First field named `key`, for objects.
    pub fn field(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// What went wrong, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Failure class.
    pub kind: JsonErrorKind,
    /// Byte offset into the input at (or near) the failure.
    pub offset: usize,
}

/// Failure classes for [`JsonError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended mid-value (a truncated line).
    Truncated,
    /// A byte that cannot start or continue the expected token.
    UnexpectedByte(u8),
    /// Nesting beyond `MAX_DEPTH`.
    TooDeep,
    /// A number token that is not a valid JSON number (or overflows f64
    /// parsing).
    BadNumber,
    /// An invalid escape or a bare control character inside a string.
    BadString,
    /// Non-UTF-8 inside a string.
    BadUtf8,
    /// Valid JSON followed by trailing non-whitespace garbage.
    TrailingGarbage,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JsonErrorKind::Truncated => "input truncated mid-value".to_string(),
            JsonErrorKind::UnexpectedByte(b) => {
                if b.is_ascii_graphic() {
                    format!("unexpected byte '{}'", *b as char)
                } else {
                    format!("unexpected byte 0x{b:02x}")
                }
            }
            JsonErrorKind::TooDeep => format!("nesting deeper than {MAX_DEPTH}"),
            JsonErrorKind::BadNumber => "malformed number".to_string(),
            JsonErrorKind::BadString => "malformed string".to_string(),
            JsonErrorKind::BadUtf8 => "invalid UTF-8 in string".to_string(),
            JsonErrorKind::TrailingGarbage => "trailing garbage after value".to_string(),
        };
        write!(f, "{what} at byte {}", self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON value; trailing whitespace is allowed, anything
/// else is [`JsonErrorKind::TrailingGarbage`].
pub fn parse(input: &[u8]) -> Result<Value, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err(JsonErrorKind::TrailingGarbage));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(x) if x == b => {
                self.pos += 1;
                Ok(())
            }
            Some(x) => Err(self.err(JsonErrorKind::UnexpectedByte(x))),
            None => Err(self.err(JsonErrorKind::Truncated)),
        }
    }

    fn literal(&mut self, word: &[u8], v: Value) -> Result<Value, JsonError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else if self.input.len() - self.pos < word.len()
            && word.starts_with(&self.input[self.pos..])
        {
            self.pos = self.input.len();
            Err(self.err(JsonErrorKind::Truncated))
        } else {
            Err(self.err(JsonErrorKind::UnexpectedByte(self.input[self.pos])))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::Truncated)),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(JsonErrorKind::UnexpectedByte(b))),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::Truncated)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                Some(b) => return Err(self.err(JsonErrorKind::UnexpectedByte(b))),
                None => return Err(self.err(JsonErrorKind::Truncated)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err(JsonErrorKind::Truncated))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err(JsonErrorKind::BadString)),
            };
            v = v * 16 + d as u32;
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut bytes: Vec<u8> = Vec::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| self.err(JsonErrorKind::Truncated))?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| self.err(JsonErrorKind::Truncated))?;
                    self.pos += 1;
                    match e {
                        b'"' => bytes.push(b'"'),
                        b'\\' => bytes.push(b'\\'),
                        b'/' => bytes.push(b'/'),
                        b'b' => bytes.push(0x08),
                        b'f' => bytes.push(0x0c),
                        b'n' => bytes.push(b'\n'),
                        b'r' => bytes.push(b'\r'),
                        b't' => bytes.push(b'\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')
                                        .map_err(|_| self.err(JsonErrorKind::BadString))?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err(JsonErrorKind::BadString));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err(JsonErrorKind::BadString));
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                // A lone low surrogate.
                                return Err(self.err(JsonErrorKind::BadString));
                            } else {
                                hi
                            };
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err(JsonErrorKind::BadString))?;
                            let mut buf = [0u8; 4];
                            bytes.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(self.err(JsonErrorKind::BadString)),
                    }
                }
                0x00..=0x1f => return Err(self.err(JsonErrorKind::BadString)),
                _ => bytes.push(b),
            }
        }
        String::from_utf8(bytes).map_err(|_| self.err(JsonErrorKind::BadUtf8))
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits()?;
        if int_digits == 0 {
            return Err(self.err(JsonErrorKind::BadNumber));
        }
        // Leading zeros are invalid JSON ("007").
        let after_sign = &self.input[start..self.pos];
        let unsigned = after_sign.strip_prefix(b"-").unwrap_or(after_sign);
        if unsigned.len() > 1 && unsigned[0] == b'0' {
            return Err(self.err(JsonErrorKind::BadNumber));
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits()? == 0 {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits()? == 0 {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
        }
        // The token is ASCII by construction.
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii number token");
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err(JsonErrorKind::BadNumber))
    }

    fn digits(&mut self) -> Result<usize, JsonError> {
        let mut n = 0;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
            n += 1;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Result<Value, JsonError> {
        parse(s.as_bytes())
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(p("null").unwrap(), Value::Null);
        assert_eq!(p("true").unwrap(), Value::Bool(true));
        assert_eq!(p("false").unwrap(), Value::Bool(false));
        assert_eq!(p("42").unwrap(), Value::Int(42));
        assert_eq!(p("-7").unwrap(), Value::Int(-7));
        assert_eq!(
            p("18446744073709551615").unwrap(),
            Value::Int(u64::MAX as i128)
        );
        assert_eq!(p("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(p("2e3").unwrap(), Value::Float(2000.0));
        assert_eq!(p("\"hi\"").unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn seeds_above_2_pow_53_round_trip_exactly() {
        let seed = u64::MAX - 1;
        let v = p(&format!("{seed}")).unwrap();
        assert_eq!(v.as_u64(), Some(seed), "no f64 rounding on big integers");
    }

    #[test]
    fn structures_parse() {
        let v = p(r#"{"a":[1,2,{"b":"x"}],"c":null, "d" : true }"#).unwrap();
        assert_eq!(v.field("c"), Some(&Value::Null));
        assert_eq!(v.field("d").and_then(Value::as_bool), Some(true));
        let a = v.field("a").unwrap();
        match a {
            Value::Arr(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].field("b").and_then(Value::as_str), Some("x"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escapes_and_unicode() {
        assert_eq!(
            p(r#""a\"b\\c\ndA""#).unwrap(),
            Value::Str("a\"b\\c\ndA".to_string())
        );
        // Surrogate pair.
        assert_eq!(p(r#""😀""#).unwrap(), Value::Str("😀".to_string()));
        // Lone surrogate halves are typed errors.
        assert_eq!(p(r#""\ud83d""#).unwrap_err().kind, JsonErrorKind::BadString);
        assert_eq!(p(r#""\ude00""#).unwrap_err().kind, JsonErrorKind::BadString);
    }

    #[test]
    fn truncation_is_typed() {
        for s in [
            "",
            "{",
            "[",
            "\"abc",
            "{\"a\":",
            "{\"a\":1,",
            "[1,",
            "tru",
            "nul",
            "-",
            "1.",
            "{\"a\"",
            "\"a\\",
        ] {
            let e = p(s).unwrap_err();
            assert!(
                matches!(
                    e.kind,
                    JsonErrorKind::Truncated | JsonErrorKind::BadNumber | JsonErrorKind::BadString
                ),
                "{s:?} -> {e:?}"
            );
        }
    }

    #[test]
    fn garbage_is_typed() {
        for s in [
            "}",
            "0x12",
            "1 2",
            "{\"a\" 1}",
            "{'a':1}",
            "{\"a\":1}x",
            "+1",
            "007",
            "--4",
        ] {
            assert!(p(s).is_err(), "{s:?} should fail");
        }
        assert_eq!(p("1 2").unwrap_err().kind, JsonErrorKind::TrailingGarbage);
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(p(&deep).unwrap_err().kind, JsonErrorKind::TooDeep);
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(p(&ok).is_ok());
    }

    #[test]
    fn control_bytes_in_strings_rejected() {
        assert_eq!(p("\"a\x01b\"").unwrap_err().kind, JsonErrorKind::BadString);
        // Raw invalid UTF-8 inside a string.
        assert_eq!(
            parse(b"\"\xff\xfe\"").unwrap_err().kind,
            JsonErrorKind::BadUtf8
        );
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tabs\tand\nnewlines",
            "uni😀code",
            "\x01ctl",
        ] {
            let enc = iac_obs::metrics::json_str(s);
            assert_eq!(p(&enc).unwrap(), Value::Str(s.to_string()), "{enc}");
        }
    }
}
