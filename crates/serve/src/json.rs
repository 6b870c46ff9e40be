//! A minimal JSON value, parser and serializer for the serve protocol.
//!
//! Hand-rolled for the same reason as `darm_bench::perfjson`: the build
//! environment is offline, and the protocol needs only objects, arrays,
//! strings (with full escape support — IR payloads contain newlines),
//! numbers, booleans and null. Anything outside that grammar is a hard
//! parse error, never a silently coerced value: a daemon must answer a
//! malformed frame with a typed error, not guess.
//!
//! Strings are the bulk of every frame (request IR, response IR), so
//! both directions work a run at a time, in linear time: the parser
//! copies each maximal run up to the next quote, backslash or control
//! byte with one `push_str`, and the writer emits each maximal run that
//! needs no escape with one `write_str`. Escapes follow RFC 8259: the
//! writer escapes `"`, `\` and control bytes only (`\n`, `\r`, `\t`,
//! else `\u00XX`), and the parser accepts every escape, including
//! `😀`-style surrogate pairs; an unpaired surrogate is an
//! error.
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

/// Writes `s` as a quoted JSON string literal. Each maximal run of bytes
/// that needs no escape goes out in one `write_str`, and each escape in
/// one more. Every escaped byte is ASCII, so every run boundary is a char
/// boundary.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut control = *b"\\u0000";
    out.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => {
                control[4] = HEX[usize::from(b >> 4)];
                control[5] = HEX[usize::from(b & 0xf)];
                std::str::from_utf8(&control).expect("ascii escape")
            }
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
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
            // Copy the run up to the next quote, backslash or control
            // byte in one go. All three are ASCII, so both ends of the
            // run are char boundaries of `text`.
            let run = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
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
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => return Err(format!("raw control character at byte {}", self.pos)),
            }
        }
    }

    /// Decodes the scalar of a `\u` escape whose `\u` is already
    /// consumed. A high surrogate must be followed by a `\u` escape of a
    /// low surrogate, and the pair decodes to one scalar (RFC 8259 §7);
    /// an unpaired surrogate of either kind is an error.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        let code = self.hex4()?;
        let unpaired = |kind| format!("unpaired {kind} surrogate U+{code:04X} at byte {at}");
        match code {
            0xdc00..=0xdfff => Err(unpaired("low")),
            0xd800..=0xdbff => {
                if !self.bytes[self.pos..].starts_with(b"\\u") {
                    return Err(unpaired("high"));
                }
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..=0xdfff).contains(&low) {
                    return Err(unpaired("high"));
                }
                let scalar = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                Ok(char::from_u32(scalar).expect("a surrogate pair is a supplementary scalar"))
            }
            _ => Ok(char::from_u32(code).expect("a non-surrogate BMP code point is a scalar")),
        }
    }

    /// Reads exactly four hex digits.
    fn hex4(&mut self) -> Result<u32, String> {
        let bad = || format!("bad \\u escape at byte {}", self.pos);
        let digits = self.bytes.get(self.pos..self.pos + 4).ok_or_else(bad)?;
        let mut code = 0;
        for &d in digits {
            code = code * 16 + char::from(d).to_digit(16).ok_or_else(bad)?;
        }
        self.pos += 4;
        Ok(code)
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
        for (doc, expected) in [
            ("\"\\u0041\\u00e9\"", "Aé"),
            // Surrogate pairs decode to one scalar (RFC 8259 §7).
            ("\"\\ud83d\\ude00\"", "😀"),
            ("\"\\uD83D\\uDE00\"", "😀"),
            ("\"\\ud800\\udc00\"", "\u{10000}"),
            ("\"\\udbff\\udfff\"", "\u{10ffff}"),
            // What Python's default `json.dumps` sends for an IR comment.
            ("\"// a \\ud83d\\ude00 comment\\n\"", "// a 😀 comment\n"),
        ] {
            assert_eq!(Json::parse(doc), Ok(Json::str(expected)), "{doc:?}");
        }
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

    /// The per-char writer this module shipped before runs: the frozen
    /// oracle the run-at-a-time [`write_escaped`] must match byte for
    /// byte.
    fn oracle_write_escaped(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
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

    fn oracle_cases() -> Vec<String> {
        // Every ASCII byte alone, and all of them in one run.
        let mut cases: Vec<String> = (0u8..0x80).map(|b| char::from(b).to_string()).collect();
        cases.push((0u8..0x80).map(char::from).collect());
        // Quote and backslash at the start and end of runs, the empty
        // string and an all-escape string.
        for s in [
            "",
            "\"",
            "\\",
            "\"abc",
            "abc\"",
            "\\abc",
            "abc\\",
            "\"abc\\",
            "\\abc\"",
            "ab\"cd\\ef",
            "\"\"\\\\",
            "\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}",
        ] {
            cases.push(s.to_string());
        }
        // 2-, 3- and 4-byte scalars next to escapes.
        for wide in ["é", "€", "😀", "𝄞é€"] {
            for esc in ["\"", "\\", "\n", "\u{1}", "\u{1f}"] {
                cases.push(format!("{wide}{esc}"));
                cases.push(format!("{esc}{wide}"));
                cases.push(format!("{esc}{wide}{esc}{wide}"));
                cases.push(format!("{wide}{esc}{esc}{wide}"));
            }
        }
        // A real payload: the printed fig8+fig9 suite module.
        let mut suite = darm_bench::fig8_cases();
        suite.extend(darm_bench::fig9_cases());
        cases.push(darm_bench::suite_module("fig8+fig9", &suite).to_string());
        cases
    }

    #[test]
    fn writer_matches_the_per_char_oracle_and_round_trips() {
        for s in oracle_cases() {
            let mut expected = String::new();
            oracle_write_escaped(&mut expected, &s).unwrap();
            let rendered = Json::str(s.as_str()).to_string();
            assert_eq!(rendered, expected, "rendering of {s:?}");
            assert_eq!(Json::parse(&rendered).unwrap(), Json::Str(s));
        }
    }

    /// Counts `write_str` calls: the writer's cost model, with no timing.
    #[derive(Default)]
    struct Counting {
        calls: usize,
        text: String,
    }

    impl fmt::Write for Counting {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.calls += 1;
            self.text.push_str(s);
            Ok(())
        }
    }

    #[test]
    fn writer_emits_runs_not_chars() {
        let clean = "aé€😀".repeat(64 * 1024 / 10 + 1);
        assert!(clean.len() >= 64 * 1024);
        let mut out = Counting::default();
        write_escaped(&mut out, &clean).unwrap();
        assert!(
            out.calls <= 3,
            "{} calls for an escape-free string",
            out.calls
        );
        assert_eq!(out.text, format!("\"{clean}\""));

        for k in [1, 2, 7, 100, 4096] {
            // Escapes both between runs and back to back.
            let s: String = (0..k)
                .map(|i| if i % 3 == 0 { "\n\"" } else { "run é\\" })
                .collect();
            let escapes = s
                .bytes()
                .filter(|b| matches!(b, b'\n' | b'"' | b'\\'))
                .count();
            let mut out = Counting::default();
            write_escaped(&mut out, &s).unwrap();
            assert!(
                out.calls <= 2 * escapes + 3,
                "{} calls for {escapes} escapes",
                out.calls
            );
            let mut expected = String::new();
            oracle_write_escaped(&mut expected, &s).unwrap();
            assert_eq!(out.text, expected);
        }
    }

    #[test]
    fn string_errors_name_their_byte_offset() {
        for (doc, expected) in [
            ("\"ab\u{1}c\"", "raw control character at byte 3"),
            ("\"é\u{1f}\"", "raw control character at byte 3"),
            ("\"abc", "unterminated string"),
            ("\"abc\\", "unterminated escape"),
            ("\"a\\qb\"", "unknown escape `\\q` at byte 4"),
            ("\"\\u12G4\"", "bad \\u escape at byte 3"),
            ("\"\\u12\"", "bad \\u escape at byte 3"),
            ("\"\\u00é\"", "bad \\u escape at byte 3"),
            ("{\"k\":\"x\\u\"}", "bad \\u escape at byte 9"),
            // Surrogates: unpaired halves are errors at the offending
            // escape's hex digits.
            ("\"\\ud83d\"", "unpaired high surrogate U+D83D at byte 3"),
            ("\"\\ud83dx\"", "unpaired high surrogate U+D83D at byte 3"),
            ("\"\\ud83d\\", "unpaired high surrogate U+D83D at byte 3"),
            ("\"\\ud83d\\n\"", "unpaired high surrogate U+D83D at byte 3"),
            (
                "\"\\ud83d\\u0041\"",
                "unpaired high surrogate U+D83D at byte 3",
            ),
            (
                "\"\\uD83D\\uD83D\"",
                "unpaired high surrogate U+D83D at byte 3",
            ),
            ("\"\\ude00\"", "unpaired low surrogate U+DE00 at byte 3"),
            (
                "\"x\\uDFFF\\ud83d\"",
                "unpaired low surrogate U+DFFF at byte 4",
            ),
            ("\"\\ud83d\\uzz00\"", "bad \\u escape at byte 9"),
            ("\"\\ud83d\\ude0\"", "bad \\u escape at byte 9"),
            // `\u` takes exactly four hex digits; a sign is not one.
            ("\"\\u+041\"", "bad \\u escape at byte 3"),
        ] {
            assert_eq!(Json::parse(doc), Err(expected.to_string()), "{doc:?}");
        }
    }
}
