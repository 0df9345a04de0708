//! # dimmer-json — the workspace's one JSON codec
//!
//! A small, dependency-free JSON value with a parser and a writer, shared
//! by everything in the workspace that reads or writes JSON: the `dimmerd`
//! wire protocol, the `dimmer-bench` grid reports and `dimmer-lint`'s
//! `BENCH_*.json` schema checks.
//!
//! * Objects keep insertion order as a `Vec<(String, Json)>`: no hash
//!   maps, because iteration order is part of the byte-determinism
//!   contract.
//! * Non-negative integers without fraction or exponent stay exact as
//!   [`Json::Int`], so seeds and 64-bit hashes survive a round trip
//!   bit-for-bit; every other number is a [`Json::Num`].
//! * [`parse`] refuses documents nested deeper than [`MAX_DEPTH`], so no
//!   input can exhaust the stack of the thread parsing it.
//! * `Display` writes the compact form (no whitespace), and
//!   [`escape_into`] is the one string escaper.
//!
//! # Examples
//!
//! ```
//! use dimmer_json::{parse, Json};
//!
//! let v = parse(r#"{"seed": 18446744073709551615, "mean": 0.5}"#).unwrap();
//! assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
//! assert_eq!(v.get("mean").and_then(Json::as_f64), Some(0.5));
//! assert_eq!(v.to_string(), r#"{"seed":18446744073709551615,"mean":0.5}"#);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes, a grid report, has 5 levels.
pub const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent — kept exact
    /// (seeds and 64-bit hashes must not pass through `f64`).
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object, or `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Num(x) => {
                // JSON has no NaN/Inf; write them as null.
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends the JSON string-escape of `s` (without the quotes) to `out`.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Parses one JSON value; the input must hold nothing but the value and
/// surrounding whitespace, with arrays and objects nested at most
/// [`MAX_DEPTH`] levels deep.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Compact, deterministic (no whitespace) serialization.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected '{}' at offset {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses an array or object one level deeper. The depth limit bounds
    /// the recursion, so hostile input gets an error, not a stack overflow.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
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
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by \uDC00..\uDFFF.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.consume(b'u')?;
                                } else {
                                    return Err("lone high surrogate".to_string());
                                }
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let combined = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err("invalid \\u escape".to_string()),
                            }
                        }
                        other => {
                            return Err(format!("invalid escape '\\{}'", other as char));
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // remaining bytes of the char are valid — copy them.
                    let start = self.pos - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    if end > self.bytes.len() {
                        return Err("truncated UTF-8".to_string());
                    }
                    match std::str::from_utf8(&self.bytes[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err("invalid UTF-8".to_string()),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "invalid \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos = end;
        Ok(code)
    }

    /// Scans one number by JSON's grammar:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        self.pos += usize::from(negative);
        let int_start = self.pos;
        let int_digits = self.digits();
        // At least one digit, and no leading zero before another.
        let mut valid = int_digits == 1 || (int_digits > 1 && self.bytes[int_start] != b'0');
        let mut bare = !negative;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
            bare = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
            bare = false;
        }
        if !valid {
            return Err(format!("invalid number at offset {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        // Exact integers first: seeds and hashes must not round-trip
        // through f64.
        if bare {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}'"))
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use rand::Rng;

    #[test]
    fn round_trips_the_protocol_shapes() {
        let line = r#"{"cmd":"submit","spec":{"grid":"city","quick":true,"protocols":["static","pid"],"seed":18446744073709551615},"n":-1.5}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        let spec = v.get("spec").unwrap();
        assert_eq!(
            spec.get("seed").and_then(Json::as_u64),
            Some(u64::MAX),
            "u64 seeds survive exactly"
        );
        assert_eq!(parse(&v.to_string()).unwrap(), v, "round-trip is stable");
    }

    #[test]
    fn parses_a_bench_report_shape() {
        let doc = r#"{"suite": "flood", "benchmarks": [{"name": "a/b", "mean_ns": 12.5, "iters": 100}], "flood_kernel_speedup": 2.48}"#;
        let v = parse(doc).expect("valid json");
        assert_eq!(v.get("suite").and_then(Json::as_str), Some("flood"));
        let benches = v.get("benchmarks").and_then(Json::as_arr).expect("array");
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].get("mean_ns").and_then(Json::as_f64), Some(12.5));
        // Whole numbers stay exact integers; `as_f64` reads both kinds.
        assert_eq!(benches[0].get("iters"), Some(&Json::Int(100)));
        assert_eq!(benches[0].get("iters").and_then(Json::as_f64), Some(100.0));
        assert_eq!(
            v.get("flood_kernel_speedup").and_then(Json::as_f64),
            Some(2.48)
        );
        assert_eq!(v.get("suite").and_then(Json::as_f64), None);
    }

    #[test]
    fn parses_scalars_and_escapes() {
        assert_eq!(parse("null"), Ok(Json::Null));
        assert_eq!(parse(" true "), Ok(Json::Bool(true)));
        assert_eq!(parse("-1.5e2"), Ok(Json::Num(-150.0)));
        assert_eq!(parse(r#""a\"b\nA""#), Ok(Json::Str("a\"b\nA".into())));
        assert_eq!(
            parse(r#""\/\b\f\r\t\\\u00e9\u00C9""#),
            Ok(Json::Str("/\u{8}\u{c}\r\t\\éÉ".into()))
        );
        assert_eq!(parse("[]"), Ok(Json::Arr(vec![])));
        assert_eq!(parse("{}"), Ok(Json::Obj(vec![])));
    }

    #[test]
    fn escapes_and_unescapes_strings() {
        let v = Json::Str("line1\nline2\t\"quoted\"\\x".to_string());
        let s = v.to_string();
        assert_eq!(s, r#""line1\nline2\t\"quoted\"\\x""#);
        assert_eq!(parse(&s).unwrap(), v);
        // Control characters and surrogate pairs.
        assert_eq!(
            parse(r#""\u0001\ud83d\ude00""#).unwrap(),
            Json::Str("\u{0001}\u{1f600}".to_string())
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{'a':1}",
            "tru",
            "\"abc",
            "{\"a\":1}x",
            "{\"a\":1} extra",
            "\"\\q\"",
            "01a",
            r#""\ud83d""#,
            // Numbers outside JSON's grammar.
            "+1",
            ".5",
            "-",
            "--1",
            "1.2.3",
            "1e",
            "-inf",
            "NaN",
            "Infinity",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn only_bare_digits_that_fit_a_u64_stay_integers() {
        assert_eq!(parse("7"), Ok(Json::Int(7)));
        assert_eq!(parse("0"), Ok(Json::Int(0)));
        assert_eq!(parse("7.0"), Ok(Json::Num(7.0)));
        assert_eq!(parse("1e3"), Ok(Json::Num(1000.0)));
        assert_eq!(parse("-7"), Ok(Json::Num(-7.0)));
        // One past u64::MAX no longer fits, so it becomes a float.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Json::Num(18446744073709551616.0))
        );
        let Ok(Json::Num(negative_zero)) = parse("-0") else {
            panic!("-0 is a float");
        };
        assert!(negative_zero == 0.0 && negative_zero.is_sign_negative());
    }

    #[test]
    fn refuses_numbers_outside_the_json_grammar() {
        // Leading zeros (also after `-`), a `.` or an exponent without
        // digits after it.
        for bad in [
            "01", "00", "007", "-01", "-00", "1.", "-1.", "0.", "1.e5", "1e", "1E", "1e+", "1E-",
            "1.5e", "-", "-e5",
        ] {
            let error = "invalid number at offset 0".to_string();
            assert_eq!(parse(bad), Err(error), "{bad:?}");
            let error = "invalid number at offset 5".to_string();
            assert_eq!(parse(&format!(r#"{{"a":{bad}}}"#)), Err(error), "{bad:?}");
        }
    }

    #[test]
    fn every_valid_number_form_keeps_its_value() {
        for (text, value) in [
            ("0", Json::Int(0)),
            ("10", Json::Int(10)),
            ("18446744073709551615", Json::Int(u64::MAX)),
            ("1.5", Json::Num(1.5)),
            ("0.25", Json::Num(0.25)),
            ("1e5", Json::Num(1e5)),
            ("1E+5", Json::Num(1e5)),
            ("2e-0", Json::Num(2.0)),
            ("-1.25e-3", Json::Num(-1.25e-3)),
            ("-10", Json::Num(-10.0)),
        ] {
            assert_eq!(parse(text), Ok(value.clone()), "{text}");
            assert_eq!(
                parse(&format!("[{text}]")),
                Ok(Json::Arr(vec![value])),
                "{text}"
            );
        }
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).to_string(), "null");
        }
        let v = Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)]);
        assert_eq!(v.to_string(), "[1.5,null]");
        assert_eq!(
            parse(&v.to_string()),
            Ok(Json::Arr(vec![Json::Num(1.5), Json::Null]))
        );
    }

    #[test]
    fn other_control_characters_escape_as_unicode() {
        let mut out = String::new();
        escape_into("\u{0}\u{8}\u{c}\u{1f} \u{7f}", &mut out);
        // Only characters below 0x20 are escaped; DEL passes through.
        assert_eq!(out, "\\u0000\\u0008\\u000c\\u001f \u{7f}");
        let v = Json::Str("\u{0}\u{8}\u{c}\u{1f} \u{7f}".to_string());
        assert_eq!(parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn rejects_broken_unicode_escapes() {
        for (bad, error) in [
            (r#""\ud83dx""#, "lone high surrogate"),
            (r#""\ud83d\u0041""#, "invalid low surrogate"),
            (r#""\ude00""#, "invalid \\u escape"),
            (r#""\uzzzz""#, "invalid \\u escape"),
            (r#""\u12""#, "truncated \\u escape"),
            ("\"\\", "unterminated escape"),
        ] {
            assert_eq!(parse(bad), Err(error.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn errors_name_the_offset_where_parsing_stopped() {
        for (bad, error) in [
            ("", "unexpected end of input"),
            ("@", "unexpected '@' at offset 0"),
            ("nul", "invalid literal at offset 0"),
            ("[1 2]", "expected ',' or ']' at offset 3"),
            (r#"{"a" 1}"#, "expected ':' at offset 5"),
            (r#"{"a":1 "b":2}"#, "expected ',' or '}' at offset 7"),
            ("[1] x", "trailing bytes at offset 4"),
        ] {
            assert_eq!(parse(bad), Err(error.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn non_ascii_text_is_written_unescaped() {
        let v = Json::Obj(vec![(
            "ключ \"k\"".to_string(),
            Json::Str("é – 😀".to_string()),
        )]);
        assert_eq!(v.to_string(), "{\"ключ \\\"k\\\"\":\"é – 😀\"}");
        assert_eq!(parse(&v.to_string()), Ok(v));
    }

    #[test]
    fn whitespace_between_tokens_is_ignored() {
        let v = parse(" \t\r\n{ \"a\" : [ 1 , 2 ] ,\n\"b\" : null } \n").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":null}"#);
        // A form feed is not JSON whitespace.
        assert!(parse("\u{c}1").is_err());
    }

    #[test]
    fn accessors_return_none_for_other_kinds() {
        assert_eq!(Json::Int(1).as_str(), None);
        assert_eq!(Json::Num(1.0).as_u64(), None);
        assert_eq!(Json::Str("1".into()).as_f64(), None);
        assert_eq!(Json::Null.as_bool(), None);
        assert_eq!(Json::Bool(false).as_bool(), Some(false));
        assert_eq!(Json::Obj(vec![]).as_arr(), None);
        assert_eq!(
            Json::Arr(vec![Json::Null]).as_arr(),
            Some(&[Json::Null][..])
        );
    }

    #[test]
    fn duplicate_keys_are_kept_and_get_finds_the_first() {
        let v = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Int(1)));
        assert_eq!(v.to_string(), r#"{"a":1,"a":2}"#);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn get_on_non_objects_is_none() {
        assert_eq!(parse("[1]").unwrap().get("a"), None);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects = |depth: usize| format!("{}1{}", r#"{"a":"#.repeat(depth), "}".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert!(parse(&arrays(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
        assert!(parse(&objects(MAX_DEPTH + 1))
            .unwrap_err()
            .contains("nesting"));
        // One line of 200 000 `[` is refused instead of overflowing the stack.
        assert!(parse(&"[".repeat(200_000)).unwrap_err().contains("nesting"));
    }

    /// Random values nested up to `depth` levels: every kind, finite floats
    /// across the whole exponent range, integers up to `u64::MAX`, and
    /// strings mixing control, escaped and non-ASCII characters.
    struct AnyJson {
        depth: usize,
    }

    impl Strategy for AnyJson {
        type Value = Json;

        fn sample(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 5 } else { 7 };
            let child = AnyJson {
                depth: self.depth.saturating_sub(1),
            };
            match rng.0.gen_range(0..kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.0.gen()),
                2 => Json::Int(rng.0.gen()),
                3 => number(rng),
                4 => Json::Str(text(rng)),
                5 => Json::Arr(
                    (0..rng.0.gen_range(0..4))
                        .map(|_| child.sample(rng))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.0.gen_range(0..4))
                        .map(|_| (text(rng), child.sample(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// A finite float. A whole non-negative one below 2^64 is written as
    /// bare digits and so reads back as [`Json::Int`]; it is drawn as one.
    fn number(rng: &mut TestRng) -> Json {
        let x = loop {
            let x = if rng.0.gen() {
                rng.0.gen_range(-1.0e6..1.0e6)
            } else {
                f64::from_bits(rng.0.gen())
            };
            if x.is_finite() {
                break x;
            }
        };
        if x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(64) {
            Json::Int(x as u64)
        } else {
            Json::Num(x)
        }
    }

    fn text(rng: &mut TestRng) -> String {
        (0..rng.0.gen_range(0..12))
            .map(|_| match rng.0.gen_range(0..4) {
                0 => char::from(rng.0.gen_range(0u8..0x20)),
                1 => ['"', '\\', '/', '\u{7f}'][rng.0.gen_range(0..4usize)],
                _ => loop {
                    if let Some(c) = char::from_u32(rng.0.gen_range(0x20u32..0x11_0000)) {
                        break c;
                    }
                },
            })
            .collect()
    }

    proptest! {
        #[test]
        fn display_then_parse_is_the_identity(v in AnyJson { depth: 3 }) {
            prop_assert_eq!(parse(&v.to_string()), Ok(v));
        }
    }
}
