//! A minimal JSON value model and recursive-descent parser.
//!
//! The workspace has no serialization framework: each JSON artifact is
//! written by hand, by the type that owns its schema. This module is
//! the one *reading* half for all of them — trace events, profile
//! reports and the benchmark's result files: a small parser over a
//! plain value enum, no derives, no reflection. Integers read exactly
//! ([`Json::as_u64`]), and nesting deeper than [`MAX_DEPTH`] is an
//! error rather than a stack overflow, so hostile input is safe to
//! feed it.

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The program's own documents nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as its source text so that integers read
    /// exactly ([`Json::as_u64`]); it always parses as an `f64`.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as a single JSON document (trailing whitespace
    /// allowed, trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number whose exact decimal
    /// value is one: `1e3` and `7.0` read, `2.5`, `-1` and `1e30` do
    /// not, and no digit is lost to an `f64`.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::Num(text) = self else {
            return None;
        };
        let negative = text.starts_with('-');
        let text = text.trim_start_matches('-');
        let (mantissa, exp) = text.split_once(['e', 'E']).unwrap_or((text, "0"));
        let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
        // value = digits × 10^(exp − |frac|) = significant × 10^zeros.
        let digits = format!("{int}{frac}");
        let digits = digits.trim_start_matches('0');
        let significant = digits.trim_end_matches('0');
        if significant.is_empty() {
            return Some(0);
        }
        let zeros = exp.parse::<i128>().ok()? - frac.len() as i128
            + (digits.len() - significant.len()) as i128;
        if negative || zeros < 0 || significant.len() as i128 + zeros > 20 {
            return None;
        }
        format!("{significant}{}", "0".repeat(zeros as usize))
            .parse()
            .ok()
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` as a quoted JSON string literal (the writing half).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs `parse` one nesting level down, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar, checked: its width comes
                    // from the lead byte, and a stray continuation byte
                    // or a cut sequence is an error, not a panic.
                    let width = match lead {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let ch = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .and_then(|b| std::str::from_utf8(b).ok())
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", self.pos))?;
                    out.push(ch);
                    self.pos += width;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .filter(|s| s.parse::<f64>().is_ok())
            .map(|s| Json::Num(s.to_owned()))
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = Json::parse(r#"{"a":[1,2.5,-3],"b":{"c":"x\ny","d":true,"e":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{}{}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f µ";
        let doc = format!("{{\"k\":{}}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    /// Two-, three- and four-byte scalars, inside and at the ends of a
    /// string, next to escapes.
    #[test]
    fn multibyte_strings_decode_whole_scalars() {
        let text = "é€😀x\"\\n€é😀";
        let doc = format!("[{}, \"ü\"]", escape(text));
        let v = Json::parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some(text));
        assert_eq!(items[1].as_str(), Some("ü"));
        assert_eq!(
            Json::parse("\"a😀b\"")
                .unwrap()
                .as_str()
                .map(|s| s.chars().count()),
            Some(3)
        );
    }

    #[test]
    fn integers_read_exactly() {
        let u = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("18446744073709551614"), Some(u64::MAX - 1));
        assert_eq!(u("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(u("18446744073709551616"), None);
        assert_eq!(u("1e30"), None);
        assert_eq!(u("-1"), None);
        assert_eq!(u("2.5"), None);
        assert_eq!(u("1.0000000000000000001"), None);
        assert_eq!(u("1e3"), Some(1000));
        assert_eq!(u("7.0"), Some(7));
        assert_eq!(u("0.25e2"), Some(25));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("0e-999999999999999999999"), Some(0));
        assert_eq!(u("1e-999999999999999999999"), None);
        assert_eq!(u("1.5e-9223372036854775808"), None);
        assert_eq!(
            Json::parse("9007199254740993").unwrap().as_f64(),
            Some(9007199254740992.0)
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_an_abort() {
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(vec![]));
        assert_eq!(Json::parse("[ ]").unwrap(), Json::Arr(vec![]));
    }
}
