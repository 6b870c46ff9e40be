//! A minimal JSON value, parser and serializer for the serve protocol.
//!
//! Hand-rolled for the same reason as `darm_bench::perfjson`: the build
//! environment is offline, and the protocol needs only objects, arrays,
//! strings (with full escape support — IR payloads contain newlines),
//! numbers, booleans and null. Anything outside that grammar is a hard
//! parse error, never a silently coerced value: a daemon must answer a
//! malformed frame with a typed error, not guess.
//!
//! Numbers are kept as `f64`; the protocol's integral fields (ids, fuel,
//! counters) are well within the 2^53 exact-integer range.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects use a [`BTreeMap`], so serialization is
/// deterministic (sorted keys) — warm-vs-cold byte-identity of responses
/// relies on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministically ordered keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An integer value (exact for |n| < 2^53).
    pub fn int(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Object field lookup (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integral
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing non-whitespace is an
    /// error).
    ///
    /// # Errors
    ///
    /// A human-readable message with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                // Integral values print without a fractional part, so ids
                // and counters round-trip textually.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Maximum container nesting the parser accepts. Recursion depth is
/// bounded by input nesting, so without a cap a frame of densely nested
/// `[` (up to the frame size limit) would overflow the stack — and a
/// stack overflow aborts the process, no `catch_unwind` can contain it.
/// The cap turns such input into an ordinary typed parse error; the
/// protocol itself never nests more than a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Runs a container parser one nesting level deeper, erroring past
    /// [`MAX_DEPTH`] instead of risking the recursion growing the stack
    /// without bound.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii span");
        let n = text
            .parse::<f64>()
            .map_err(|e| format!("bad number `{text}` at byte {start}: {e}"))?;
        // Out-of-range literals like `1e999` parse to infinity, and
        // `Display` would render non-finite values as invalid JSON —
        // enforce finiteness at the boundary so they can never get in.
        if !n.is_finite() {
            return Err(format!("number `{text}` at byte {start} is out of range"));
        }
        Ok(Json::Num(n))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are not paired — the serializer
                            // never emits them (it escapes only controls).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint U+{code:04X}"))?,
                            );
                        }
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Every token ends on a char
                    // boundary, so slicing the input at `pos` is O(1).
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("invalid utf-8 at byte {}", self.pos))?;
                    if (c as u32) < 0x20 {
                        return Err(format!("raw control character at byte {}", self.pos));
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values_with_escapes() {
        let v = Json::obj([
            ("id", Json::int(7)),
            ("ir", Json::str("fn @k() -> void {\nentry:\n  ret\n}\n")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::Num(1.5), Json::str("a\"b\\c\td")]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Deterministic: sorted keys, stable rendering.
        assert_eq!(text, Json::parse(&text).unwrap().to_string());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": }",
            "nul",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn integral_numbers_print_without_fraction() {
        assert_eq!(Json::int(42).to_string(), "42");
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // Far past the cap: must return a typed error, not abort. A
        // stack overflow here would kill the whole test process, so
        // merely completing proves containment.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nesting"), "unexpected error: {err}");
        }
        // At and below the cap, nesting still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&too_deep).is_err());
    }

    #[test]
    fn out_of_range_numbers_are_rejected() {
        for bad in ["1e999", "-1e999", "1e400"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("out of range"), "unexpected error: {err}");
        }
        assert!(Json::parse("1e308").is_ok());
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".to_string())
        );
        // Controls below 0x20 are escaped on output, parsed on input.
        let s = Json::Str("\u{1}".to_string());
        assert_eq!(s.to_string(), "\"\\u0001\"");
        assert_eq!(Json::parse(&s.to_string()).unwrap(), s);
    }

    #[test]
    fn multi_byte_scalars_parse() {
        let v = Json::parse("[\"é\", \"𝄞x\", \"a\\u00e9b\"]").unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![
                Json::Str("é".to_string()),
                Json::Str("𝄞x".to_string()),
                Json::Str("aéb".to_string()),
            ])
        );
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        // Raw control characters are still rejected after a wide scalar.
        assert!(Json::parse("\"𝄞\u{1}\"").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 256 KiB of mixed-width scalars: the per-character scan used to
        // revalidate the whole remaining input, which took seconds here.
        let body: String = "aé𝄞".repeat(256 * 1024 / 7);
        let doc = format!("{{\"ir\": \"{body}\"}}");
        let t = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let elapsed = t.elapsed();
        match v {
            Json::Obj(map) => assert_eq!(map["ir"], Json::Str(body)),
            other => panic!("expected an object, got {other:?}"),
        }
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "256 KiB string took {elapsed:?}"
        );
    }
}
