//! The wire format: a hand-rolled, dependency-free JSON codec.
//!
//! The serve protocol is line-delimited JSON — one complete JSON object per
//! `\n`-terminated line in each direction. The build environment has no
//! registry access, so this module implements the subset of JSON the
//! protocol needs from scratch rather than pulling in `serde`:
//!
//! * [`Json`] — a JSON value tree. Integers that fit `u64` are kept exact
//!   ([`Json::UInt`]) so 64-bit seeds and job ids survive the round trip
//!   bit-for-bit; all other numbers are `f64` ([`Json::Num`]), encoded with
//!   Rust's shortest-round-trip float formatting, so finite `f64` values
//!   also survive exactly.
//! * [`Json::parse`] — a recursive-descent parser with a nesting-depth
//!   limit (this codec faces untrusted network input).
//! * [`Json::encode`] — the inverse; never emits a raw newline, so one
//!   encoded value is always one wire line.
//!
//! Non-finite floats have no JSON spelling and encode as `null`; the
//! protocol layer only ever transports finite numbers (optional fields use
//! `null` explicitly).
//!
//! Object keys keep insertion order (a `Vec` of pairs, linear lookup):
//! protocol messages have a handful of fields, and deterministic field
//! order makes the wire format diffable in tests and logs.

use std::fmt;

/// Maximum nesting depth accepted by the parser. Protocol messages nest 4–5
/// levels; the limit only exists to bound stack use on hostile input.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or shape error, with the byte offset for parse failures.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input where parsing failed (0 for shape
    /// errors raised after parsing).
    pub offset: usize,
}

impl WireError {
    pub(crate) fn shape(message: impl Into<String>) -> Self {
        WireError {
            message: message.into(),
            offset: 0,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.message, self.offset)
    }
}

impl std::error::Error for WireError {}

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

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::UInt(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::UInt(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl Json {
    /// Builds an object from `(key, value)` pairs in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object (`None` for missing fields and
    /// non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact `u64` (a float qualifies only when it is
    /// integral and in range).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(n) => Some(n),
            // `u64::MAX as f64` rounds *up* to 2^64, so the bound must be
            // strict — `<=` would admit 2^64 and saturate it to u64::MAX.
            Json::Num(x) if x >= 0.0 && x < u64::MAX as f64 && x.fract() == 0.0 => Some(x as u64),
            _ => None,
        }
    }

    /// The value as a `usize` (via [`Self::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as an `f64` (exact integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(n) => Some(n as f64),
            Json::Num(x) => Some(x),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Encodes the value as compact JSON. The output never contains a raw
    /// newline, so one value is one line of the wire protocol.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::UInt(n) => {
                out.push_str(&n.to_string());
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's float Display is the shortest representation
                    // that round-trips exactly, which is what keeps sweep
                    // results bit-identical across the wire.
                    let formatted = x.to_string();
                    out.push_str(&formatted);
                    if !formatted.contains(['.', 'e', 'E']) {
                        // Keep a float a float ("5" would re-parse as UInt).
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => encode_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(key, out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value; trailing non-whitespace input is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Json, WireError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_whitespace(&mut self) {
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

    /// Consumes byte `b`, or fails naming it.
    fn eat(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, WireError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, WireError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, WireError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.eat(b':')?;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes in one shot.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Cannot fail on `&str` input, since the run ends on an
                // ASCII byte; an error all the same, never a panic.
                let run = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid utf-8 in string"))?;
                out.push_str(run);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), WireError> {
        let c = self.peek().ok_or_else(|| self.error("truncated escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let unit = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&unit) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.error("unpaired surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&unit) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(unit).ok_or_else(|| self.error("invalid \\u escape"))?
                };
                out.push(c);
            }
            other => return Err(self.error(format!("unknown escape '\\{}'", other as char))),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.error("truncated \\u"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, WireError> {
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
            .map_err(|_| self.error("invalid number"))?;
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error(format!("invalid number literal '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: Json) -> Json {
        Json::parse(&value.encode()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for value in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::UInt(0),
            Json::UInt(u64::MAX),
            Json::Str(String::new()),
            Json::Str("plain".to_string()),
        ] {
            assert_eq!(round_trip(value.clone()), value);
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [
            0.1,
            -0.1,
            1.0 / 3.0,
            5.0,
            1e-300,
            6.02214076e23,
            f64::MIN_POSITIVE,
            f64::MAX,
            0.030000000000000002,
        ] {
            let encoded = Json::Num(x).encode();
            let back = Json::parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {encoded}");
        }
    }

    #[test]
    fn integral_floats_stay_floats_on_the_wire() {
        assert_eq!(Json::Num(5.0).encode(), "5.0");
        assert_eq!(Json::parse("5.0").unwrap(), Json::Num(5.0));
        assert_eq!(Json::parse("5").unwrap(), Json::UInt(5));
        // Either spelling satisfies the numeric accessors.
        assert_eq!(Json::parse("5").unwrap().as_f64(), Some(5.0));
        assert_eq!(Json::parse("5.0").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = 0xDEAD_BEEF_CAFE_F00Du64;
        let encoded = Json::UInt(seed).encode();
        assert_eq!(Json::parse(&encoded).unwrap().as_u64(), Some(seed));
        // Above 2^53 an f64 path would corrupt the value; UInt must not.
        let big = (1u64 << 53) + 1;
        assert_eq!(
            Json::parse(&Json::UInt(big).encode()).unwrap().as_u64(),
            Some(big)
        );
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(Json::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let tricky = "line1\nline2\ttab \"quoted\" back\\slash \u{0007} héllo 日本 🚀";
        let encoded = encode_string_standalone(tricky);
        assert!(!encoded.contains('\n'), "no raw newline on the wire");
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(tricky));
    }

    fn encode_string_standalone(s: &str) -> String {
        Json::Str(s.to_string()).encode()
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\u65e5\"").unwrap().as_str(),
            Some("Aé日")
        );
        // Surrogate pair for 🚀 (U+1F680).
        assert_eq!(
            Json::parse("\"\\ud83d\\ude80\"").unwrap().as_str(),
            Some("🚀")
        );
        assert!(Json::parse("\"\\ud83d\"").is_err(), "unpaired surrogate");
        assert!(Json::parse("\"\\ude80\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn nested_structures_round_trip_in_order() {
        let value = Json::obj([
            ("verb", Json::from("submit")),
            (
                "config",
                Json::obj([
                    ("epsilons", Json::Arr(vec![0.1.into(), 0.05.into()])),
                    ("repeats", Json::from(3u64)),
                    ("fidelity", Json::Bool(false)),
                    ("note", Json::Null),
                ]),
            ),
        ]);
        let encoded = value.encode();
        assert_eq!(Json::parse(&encoded).unwrap(), value);
        assert!(
            encoded.starts_with(r#"{"verb":"submit","config":"#),
            "field order is preserved: {encoded}"
        );
    }

    #[test]
    fn parse_errors_carry_offsets() {
        let err = Json::parse(r#"{"a": }"#).unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("[1, 2,,]").is_err());
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        let obj = Json::obj([("n", Json::UInt(3))]);
        assert_eq!(obj.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(obj.get("missing"), None);
        assert_eq!(obj.as_str(), None);
        assert_eq!(Json::Str("x".into()).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None, "non-integral float");
        assert_eq!(Json::Num(-1.0).as_u64(), None, "negative float");
        // 2^64 is exactly `u64::MAX as f64`; it must be rejected, not
        // saturated to u64::MAX.
        assert_eq!(Json::Num(18446744073709551616.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None, "far out of range");
        // The largest f64 below 2^64 still converts.
        assert_eq!(
            Json::Num(18446744073709549568.0).as_u64(),
            Some(18446744073709549568)
        );
        assert_eq!(Json::UInt(7).as_f64(), Some(7.0));
    }

    #[test]
    fn whitespace_is_tolerated_everywhere() {
        let parsed = Json::parse(" { \"a\" : [ 1 , 2.5 ] , \"b\" : null } ").unwrap();
        assert_eq!(parsed.get("a").and_then(Json::as_arr).unwrap().len(), 2);
        assert!(parsed.get("b").unwrap().is_null());
    }
}
