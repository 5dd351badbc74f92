//! A minimal in-tree JSON value, writer and parser.
//!
//! The workspace builds **offline** (no registry dependencies), so the
//! machine-readable CLI output (`--json`) and the `modemerge-service`
//! JSONL wire protocol cannot use `serde`. This module provides the
//! small slice both need:
//!
//! * [`Json`] — a value tree whose objects preserve **insertion order**
//!   (a `Vec` of pairs, not a hash map), so serialization is
//!   deterministic: the same value always renders to the same bytes.
//!   That property is what lets the service cache and the loopback
//!   tests compare responses byte-for-byte.
//! * [`Json::to_string`] (via `Display`) — compact single-line output,
//!   suitable for newline-delimited-JSON framing.
//! * [`Json::parse`] — a recursive-descent parser accepting standard
//!   JSON (with `\uXXXX` escapes, including surrogate pairs). It is
//!   linear in the input: string bodies are copied run by run between
//!   escapes, and nesting is capped at [`MAX_DEPTH`] so a line of
//!   brackets is an error, not a stack overflow.
//!
//! Numbers are stored as `f64`; integral values in `|x| < 2^53` render
//! without a decimal point, so counters round-trip textually.

use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so the cap bounds its stack use
/// whatever the input; real documents nest a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value with insertion-ordered objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub fn num(n: impl Into<f64>) -> Self {
        Json::Num(n.into())
    }

    /// Builds a number from a `usize` (lossless up to 2^53).
    pub fn count(n: usize) -> Self {
        Json::Num(n as f64)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
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

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (must consume the whole input apart from
    /// trailing whitespace).
    ///
    /// # Errors
    ///
    /// Returns a one-line message with the byte offset of the failure.
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_number(f: &mut fmt::Formatter<'_>, n: f64) -> fmt::Result {
    if !n.is_finite() {
        // JSON has no NaN/Inf; degrade to null rather than emit garbage.
        return f.write_str("null");
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        write!(f, "{}", n as i64)
    } else {
        write!(f, "{n}")
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
            '\u{08}' => f.write_str("\\b")?,
            '\u{0c}' => f.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value nested inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next `"` or `\` in one piece. Both
        // are ASCII, so the run ends on a char boundary of the `&str`
        // input and validating it costs only its own length.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(bytes.len() - *pos);
        out.push_str(std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|e| e.to_string())?);
        *pos += run;
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // A `\`: decode one escape.
                *pos += 1;
                match bytes.get(*pos) {
                    None => return Err("unterminated escape".into()),
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low half.
                            if bytes.get(*pos + 1) == Some(&b'\\')
                                && bytes.get(*pos + 2) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("lone high surrogate".into());
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                return Err("lone high surrogate".into());
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                        );
                    }
                    Some(c) => return Err(format!("invalid escape `\\{}`", *c as char)),
                }
                *pos += 1;
            }
        }
    }
}

/// Parses the `XXXX` of a `\uXXXX` escape; `pos` points at the `u` on
/// entry and at the last hex digit on exit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, String> {
    let start = *pos + 1;
    let hex = bytes.get(start..start + 4).ok_or("truncated \\u escape")?;
    let text = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
    let v = u32::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape `{text}`"))?;
    *pos += 4;
    Ok(v)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        pairs.push((key, parse_value(bytes, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compound_value() {
        let v = Json::Obj(vec![
            ("name".into(), Json::str("A+B")),
            ("n".into(), Json::count(3)),
            ("frac".into(), Json::num(0.5)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "items".into(),
                Json::Arr(vec![Json::count(1), Json::str("x\ny \"q\" \\")]),
            ),
        ]);
        let text = v.to_string();
        assert!(!text.contains('\n'), "single line: {text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::count(42).to_string(), "42");
        assert_eq!(Json::num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn deterministic_object_order() {
        let v = Json::Obj(vec![
            ("b".into(), Json::count(1)),
            ("a".into(), Json::count(2)),
        ]);
        assert_eq!(v.to_string(), "{\"b\":1,\"a\":2}");
    }

    #[test]
    fn parses_standard_json() {
        let v =
            Json::parse(" { \"a\" : [ 1 , -2.5e1 , \"\\u00e9\\u0041\" ] , \"b\" : { } } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_str(),
            Some("éA")
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn surrogate_pairs_roundtrip() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let emitted = Json::str("😀").to_string();
        assert_eq!(Json::parse(&emitted).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"x", "{a:1}"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn invalid_low_surrogate_is_an_error() {
        for bad in [
            "\"\\ud83d\\u0041\"",
            "\"\\ud83d\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\udc00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert!(Json::parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("{\"a\":", "}", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested("[{\"a\":", "}]", MAX_DEPTH / 2)).is_ok());
        for deep in [
            nested("[", "]", MAX_DEPTH + 1),
            nested("{\"a\":", "}", MAX_DEPTH + 1),
            nested("[{\"a\":", "}]", MAX_DEPTH),
            "[".repeat(20_000),
        ] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(
                err.starts_with("nesting deeper than 128 levels at byte "),
                "{err}"
            );
        }
    }

    /// The char-at-a-time string decoder the run-copy parser replaced:
    /// one scalar per step, same escapes. Returns the decoded text and
    /// the byte offset just past the closing quote.
    fn reference_string(input: &str) -> Result<(String, usize), String> {
        fn hex4(chars: &mut std::str::CharIndices<'_>) -> Result<u32, String> {
            let digits: String = chars.take(4).map(|(_, c)| c).collect();
            u32::from_str_radix(&digits, 16).map_err(|_| format!("bad hex `{digits}`"))
        }
        let mut chars = input.char_indices();
        assert_eq!(chars.next(), Some((0, '"')));
        let mut out = String::new();
        while let Some((at, c)) = chars.next() {
            match c {
                '"' => return Ok((out, at + 1)),
                '\\' => match chars.next().map(|(_, c)| c) {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{08}'),
                    Some('f') => out.push('\u{0c}'),
                    Some('u') => {
                        let hi = hex4(&mut chars)?;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            let marker: String = chars.by_ref().take(2).map(|(_, c)| c).collect();
                            let lo = hex4(&mut chars)?;
                            if marker != "\\u" || !(0xdc00..0xe000).contains(&lo) {
                                return Err("lone high surrogate".into());
                            }
                            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                        } else {
                            hi
                        };
                        out.push(char::from_u32(code).ok_or("bad codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }

    /// Seeded strings built from pieces that land multi-byte UTF-8 on
    /// run boundaries (next to quotes and escapes): every escape,
    /// surrogate pairs, raw control bytes. Each is `(literal, decoded)`.
    fn generated_strings(count: usize) -> Vec<(String, String)> {
        const PIECES: &[(&str, &str)] = &[
            ("plain", "plain"),
            ("é", "é"),
            ("€", "€"),
            ("😀", "😀"),
            ("中文", "中文"),
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\b", "\u{08}"),
            ("\\f", "\u{0c}"),
            ("\\u00e9", "é"),
            ("\\u20AC", "€"),
            ("\\u0000", "\u{0}"),
            ("\\uffff", "\u{ffff}"),
            ("\\ud83d\\ude00", "😀"),
            ("\\uDBFF\\uDFFF", "\u{10ffff}"),
            ("\u{1}", "\u{1}"),
            ("\u{1f}", "\u{1f}"),
            ("\t", "\t"),
            ("\n", "\n"),
            ("\u{7f}", "\u{7f}"),
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        (0..count)
            .map(|_| {
                let (mut literal, mut decoded) = (String::from("\""), String::new());
                for _ in 0..next(12) {
                    let (lit, dec) = PIECES[next(PIECES.len())];
                    literal.push_str(lit);
                    decoded.push_str(dec);
                }
                literal.push('"');
                (literal, decoded)
            })
            .collect()
    }

    #[test]
    fn run_copy_strings_decode_like_the_char_at_a_time_reference() {
        for (literal, decoded) in generated_strings(4000) {
            // A trailing value proves both decoders stop at the quote.
            let input = format!("{literal},7");
            let mut pos = 0;
            let fast = parse_string(input.as_bytes(), &mut pos);
            assert_eq!(fast, Ok(decoded.clone()), "{literal}");
            assert_eq!(reference_string(&input), Ok((decoded, pos)), "{literal}");
            assert_eq!(&input[pos..], ",7");
        }
        // Truncations and malformed escapes fail in both decoders.
        for bad in [
            "\"é",
            "\"abc\\",
            "\"\\q\"",
            "\"\\ud83d\"",
            "\"\\ud83d\\u0041\"",
        ] {
            assert!(parse_string(bad.as_bytes(), &mut 0).is_err(), "{bad}");
            assert!(reference_string(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_four_mebibyte_string_parses_in_linear_time() {
        let unit = "run of text é€😀 ";
        let units = 4 * 1024 * 1024 / unit.len();
        let mut literal = String::from("[\"");
        let mut decoded = String::new();
        for i in 0..units {
            literal.push_str(unit);
            decoded.push_str(unit);
            if i % 4096 == 0 {
                literal.push_str("\\n");
                decoded.push('\n');
            }
        }
        literal.push_str("\"]");
        assert!(literal.len() >= 4 * 1024 * 1024);
        let parsed = Json::parse(&literal).unwrap();
        assert_eq!(
            parsed.as_array().unwrap()[0].as_str(),
            Some(decoded.as_str())
        );
    }

    #[test]
    fn accessor_helpers() {
        let v = Json::parse("{\"n\":7,\"s\":\"x\",\"b\":false}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::num(-1).as_u64(), None);
        assert_eq!(Json::num(1.5).as_u64(), None);
    }
}
