//! A minimal JSON writer **and parser** for the machine-readable benchmark
//! artifacts.
//!
//! The workspace builds offline with no serialization framework, so the
//! `BENCH_*.json` files are rendered by this hand-rolled emitter. It covers exactly what the bench schema
//! needs: objects, arrays, strings (with escaping), integers, finite floats
//! and booleans. The parser ([`JsonValue::parse`]) reads the same dialect
//! back — the `bench-regression` CI job uses it to diff a fresh run against
//! the committed `BENCH_1.json` baseline (see [`crate::regression`]).

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (rendered without a fractional part).
    Int(i64),
    /// A float; non-finite values are rendered as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Self {
        JsonValue::Str(s.into())
    }

    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> Self {
        JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses a JSON document (any whitespace style, not just the one
    /// [`JsonValue::render`] emits). Numbers with a fractional part,
    /// exponent, or outside the `i64` range parse as [`JsonValue::Num`],
    /// everything else as [`JsonValue::Int`] — the same split the emitter
    /// writes. Trailing garbage after the document is an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset of the first
    /// offending character.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(input, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array value; `None` on non-arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string payload; `None` on non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (ints included); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::Num(x) => {
                if x.is_finite() {
                    // Always include a decimal point so the field is
                    // unambiguously a float.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&format!("{x}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", byte as char, *pos))
    }
}

fn parse_value(input: &str, bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_keyword(bytes, pos, b"null", JsonValue::Null),
        Some(b't') => parse_keyword(bytes, pos, b"true", JsonValue::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, b"false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(input, bytes, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(input, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(input, bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(input, bytes, pos),
    }
}

fn parse_keyword(
    bytes: &[u8],
    pos: &mut usize,
    keyword: &[u8],
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(keyword) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(input, *pos + 1)
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        match code {
                            0xD800..=0xDBFF => {
                                // High surrogate: JSON encodes astral
                                // characters as a \uXXXX\uXXXX UTF-16 pair;
                                // a high surrogate not followed by a low one
                                // is malformed.
                                let pair_err = || {
                                    format!(
                                        "lone high surrogate \\u{code:04x} at byte {}",
                                        *pos - 4
                                    )
                                };
                                if bytes.get(*pos + 1) != Some(&b'\\')
                                    || bytes.get(*pos + 2) != Some(&b'u')
                                {
                                    return Err(pair_err());
                                }
                                let low = parse_hex4(input, *pos + 3).ok_or_else(pair_err)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(pair_err());
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(scalar)
                                        .expect("a valid surrogate pair decodes to a scalar"),
                                );
                                *pos += 6;
                            }
                            0xDC00..=0xDFFF => {
                                return Err(format!(
                                    "lone low surrogate \\u{code:04x} at byte {}",
                                    *pos - 4
                                ));
                            }
                            c => out.push(
                                char::from_u32(c).expect("non-surrogate BMP value is a scalar"),
                            ),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so byte
                // boundaries are safe to recover with char_indices).
                let rest = &input[*pos..];
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Parses exactly four ASCII hex digits at `input[at..at + 4]`.
///
/// The digit check matters: `u32::from_str_radix` accepts a leading `+`, so
/// without it `\u+123` would slip through as a "valid" escape.
fn parse_hex4(input: &str, at: usize) -> Option<u32> {
    let hex = input.get(at..at + 4)?;
    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u32::from_str_radix(hex, 16).ok()
}

fn parse_number(input: &str, bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut fractional = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                fractional = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = &input[start..*pos];
    if text.is_empty() || text == "-" {
        return Err(format!("expected a value at byte {start}"));
    }
    if !fractional {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(JsonValue::Int(i));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("bad number `{text}` at byte {start}"))
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars() {
        assert_eq!(JsonValue::Null.render(), "null\n");
        assert_eq!(JsonValue::Bool(true).render(), "true\n");
        assert_eq!(JsonValue::Int(-7).render(), "-7\n");
        assert_eq!(JsonValue::Num(1.5).render(), "1.5\n");
        assert_eq!(JsonValue::Num(3.0).render(), "3.0\n");
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null\n");
        assert_eq!(JsonValue::str("hi").render(), "\"hi\"\n");
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::str("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn renders_nested_structures() {
        let v = JsonValue::obj(vec![
            ("id", JsonValue::str("E1")),
            (
                "rows",
                JsonValue::Arr(vec![
                    JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
                    JsonValue::Arr(vec![]),
                ]),
            ),
            ("empty", JsonValue::Obj(vec![])),
        ]);
        let rendered = v.render();
        assert!(rendered.contains("\"id\": \"E1\""));
        assert!(rendered.contains("\"rows\": ["));
        assert!(rendered.contains("\"empty\": {}"));
        // Valid bracket balance (cheap sanity check).
        let opens = rendered.matches(['[', '{']).count();
        let closes = rendered.matches([']', '}']).count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn parse_roundtrips_the_emitted_dialect() {
        let doc = JsonValue::obj(vec![
            ("schema", JsonValue::str("edgecolor-bench/v1")),
            ("count", JsonValue::Int(-42)),
            ("ratio", JsonValue::Num(0.125)),
            ("whole", JsonValue::Num(3.0)),
            ("flag", JsonValue::Bool(true)),
            ("missing", JsonValue::Null),
            (
                "rows",
                JsonValue::Arr(vec![
                    JsonValue::Arr(vec![JsonValue::str("a\"b\\c\nd"), JsonValue::Int(7)]),
                    JsonValue::Arr(vec![]),
                    JsonValue::Obj(vec![]),
                ]),
            ),
        ]);
        let parsed = JsonValue::parse(&doc.render()).expect("round-trip parses");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn parse_handles_compact_and_weird_whitespace() {
        let parsed = JsonValue::parse("{\"a\":[1,2.5,null],\t\"b\":{\"c\":false}}").unwrap();
        assert_eq!(
            parsed.get("a").unwrap().as_array().unwrap()[1],
            JsonValue::Num(2.5)
        );
        assert_eq!(
            parsed.get("b").unwrap().get("c"),
            Some(&JsonValue::Bool(false))
        );
        assert_eq!(parsed.get("zzz"), None);
        assert_eq!(JsonValue::parse("  7  ").unwrap(), JsonValue::Int(7));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Num(1000.0));
        assert_eq!(
            JsonValue::parse("\"\\u0041\"").unwrap(),
            JsonValue::str("A")
        );
    }

    #[test]
    fn parse_decodes_surrogate_pairs() {
        // Regression: surrogate pairs used to collapse to U+FFFD because
        // each half was decoded in isolation.
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::str("\u{1F600}")
        );
        assert_eq!(
            JsonValue::parse("\"\\uD834\\uDD1E\"").unwrap(),
            JsonValue::str("\u{1D11E}")
        );
        // Pair math edge cases: first and last astral code points.
        assert_eq!(
            JsonValue::parse("\"\\uD800\\uDC00\"").unwrap(),
            JsonValue::str("\u{10000}")
        );
        assert_eq!(
            JsonValue::parse("\"\\uDBFF\\uDFFF\"").unwrap(),
            JsonValue::str("\u{10FFFF}")
        );
        // Surrounding characters keep their positions.
        assert_eq!(
            JsonValue::parse("\"a\\ud83d\\ude00z\"").unwrap(),
            JsonValue::str("a\u{1F600}z")
        );
    }

    #[test]
    fn parse_rejects_lone_and_malformed_surrogates() {
        for bad in [
            "\"\\ud83d\"",        // lone high surrogate
            "\"\\ud83d!\"",       // high surrogate followed by a raw char
            "\"\\ud83d\\n\"",     // high surrogate followed by a non-\u escape
            "\"\\ud83d\\u0041\"", // high surrogate followed by a BMP escape
            "\"\\ud83d\\ud83d\"", // two high surrogates
            "\"\\ude00\"",        // lone low surrogate
            "\"\\ude00\\ud83d\"", // pair in the wrong order
            "\"\\ud83d\\u\"",     // truncated low half
        ] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn parse_rejects_non_hex_unicode_escapes() {
        // `u32::from_str_radix` accepts a leading '+'; the escape must not.
        for bad in ["\"\\u+123\"", "\"\\u12g4\"", "\"\\u 123\"", "\"\\u12\""] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn astral_strings_roundtrip_through_the_emitter() {
        // The emitter writes astral characters as raw UTF-8; the parser
        // must accept both that and the escaped form identically.
        let v = JsonValue::str("emoji \u{1F600} and clef \u{1D11E}");
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"open",
            "nul",
            "[1] x",
            "-",
            "{\"a\":}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn accessors_view_the_tree() {
        let v = JsonValue::parse("{\"x\": 2, \"y\": 2.5, \"s\": \"hi\"}").unwrap();
        assert_eq!(v.get("x").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("y").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("s").unwrap().as_f64(), None);
        assert_eq!(v.as_array(), None);
    }

    #[test]
    fn committed_baseline_parses() {
        // The real regression input: the committed BENCH_1.json must stay
        // inside the dialect this parser reads.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_1.json");
        let text = std::fs::read_to_string(root).expect("BENCH_1.json exists at the repo root");
        let doc = JsonValue::parse(&text).expect("committed baseline parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("edgecolor-bench/v1")
        );
        assert!(doc.get("experiments").is_some());
    }
}
