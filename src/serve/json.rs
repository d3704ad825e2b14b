//! A minimal JSON layer for the wire protocol — parse and serialize, no
//! dependencies, integers only (the protocol carries no floats).
//!
//! Objects keep insertion order so serialization is deterministic: the
//! same `Response` always renders to the same bytes, which is what lets
//! tests compare served payloads bit-for-bit.

use std::fmt::Write as _;

/// How deep arrays and objects may nest in a parsed document. The parser
/// recurses once per level, so the limit is what keeps a hostile frame
/// from overflowing the stack of the thread decoding it; the deepest
/// document the library emits nests 6 levels (response, payload,
/// estimation, history, round, sizes).
pub const MAX_DEPTH: usize = 64;

/// A JSON value. Numbers are `i64` — the protocol never needs fractions,
/// and integer round-tripping stays exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer.
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when a number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_escaped(out, s),
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing garbage is an error).
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`] deep; a deeper
    /// document is an error, not a stack overflow.
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut pos = 0;
        let v = parse_value(src, &mut pos, 0)?;
        let bytes = src.as_bytes();
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(v)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(src, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(src, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(src, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(src, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            if b[*pos] == b'-' {
                *pos += 1;
            }
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            if matches!(b.get(*pos), Some(b'.' | b'e' | b'E')) {
                return Err(format!(
                    "fractional numbers are not part of the protocol (byte {start})"
                ));
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<i64>().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("bad number at byte {start}"))
        }
        Some(c) => Err(format!("unexpected `{}` at byte {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let b = src.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        // copy the run up to the next quote or backslash in one go: both
        // are ASCII, so the run ends on a char boundary of `src`
        let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\');
        let end = run.map_or(b.len(), |n| *pos + n);
        out.push_str(&src[*pos..end]);
        *pos = end;
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // a backslash: one escape
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // surrogate pairs are not needed: we only emit BMP
                        // escapes for control characters
                        out.push(
                            char::from_u32(hex)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Num(-7)),
            ("ok".into(), Json::Bool(true)),
            ("name".into(), Json::Str("a \"quoted\"\nline\t\u{1}".into())),
            ("items".into(), Json::Arr(vec![Json::Null, Json::Num(0), Json::Str("x".into())])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // deterministic: render is a pure function of the value
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"\\q\"").is_err());
    }

    /// One piece of a generated string: its value, and a spelling inside
    /// a JSON string literal that the parser must read back as that value.
    const PIECES: &[(&str, &str)] = &[
        ("a", "a"),
        ("an ASCII run", "an ASCII run"),
        ("é", "é"),
        ("ß", "ß"),
        ("€", "€"),
        ("中", "中"),
        ("𝄞", "𝄞"),
        ("😀", "😀"),
        ("\"", "\\\""),
        ("\\", "\\\\"),
        ("/", "\\/"),
        ("\u{8}", "\\b"),
        ("\u{c}", "\\f"),
        ("\n", "\\n"),
        ("\r", "\\r"),
        ("\t", "\\t"),
        ("\u{1}", "\\u0001"),
        ("é", "\\u00e9"),
        ("€", "\\u20AC"),
        ("\u{1}", "\u{1}"),
        ("\u{1f}", "\u{1f}"),
        ("\n", "\n"),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Rendering then parsing is the identity on strings, and every
        /// spelling the parser accepts decodes to its value, wherever the
        /// quotes, backslashes and multi-byte characters fall.
        #[test]
        fn strings_round_trip(
            pieces in proptest::collection::vec(proptest::sample::select(PIECES.to_vec()), 0..48)
        ) {
            let value: String = pieces.iter().map(|(v, _)| *v).collect();
            let spelled: String = pieces.iter().map(|(_, s)| *s).collect();
            let rendered = Json::Str(value.clone()).render();
            proptest::prop_assert_eq!(Json::parse(&rendered), Ok(Json::Str(value.clone())));
            let doc = format!("{{\"{spelled}\":[\"{spelled}\"]}}");
            let want = Json::Obj(vec![(value.clone(), Json::Arr(vec![Json::Str(value)]))]);
            proptest::prop_assert_eq!(Json::parse(&doc), Ok(want));
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}0{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
        let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
        // deep enough to overflow a thread's stack if each level recursed
        assert!(Json::parse(&arrays(1 << 20)).is_err());
    }

    #[test]
    fn a_one_mebibyte_source_decodes_in_linear_time() {
        use crate::serve::proto::{Request, RequestKind};
        use std::time::{Duration, Instant};
        let line = "process P { input a: int; output x: int; x := a + 1; } // \"é\"\n";
        let source = line.repeat((1 << 20) / line.len() + 1);
        let text = Request::new(1, RequestKind::Parse, source.as_str()).to_json();
        let start = Instant::now();
        let req = Request::from_json(&text).expect("decodes");
        let took = start.elapsed();
        assert_eq!(req.source, source);
        // a decoder that rescans the rest of the frame per character needs
        // seconds here even in a release build
        assert!(took < Duration::from_secs(2), "1 MiB source took {took:?} to decode");
    }
}
