//! The event-log codec against a reference kept in this test: the JSON
//! writer and parser the codec used before its allocation-lean rewrite
//! (one heap string per integer, strings escaped char by char, push-grown
//! containers cloned into the result), plus that version's binary framing
//! and JSONL lines. Renders must be byte-equal and parses equal, on random
//! value trees, on JSON-shaped token soup with the number edge cases, and
//! on the whole study log of `paper(7, 0.02)`.

use likelab::core::{run_study_opts, RunOptions, StudyConfig};
use likelab::sim::event::{
    decode_binary, decode_jsonl, encode_binary, encode_jsonl, LogHeader, LogRecord, FORMAT_VERSION,
    JSONL_MAGIC, MAGIC,
};
use proptest::prelude::*;
use proptest::strategy::TestRng;
use serde::{Serialize, Value};

/// The writer and parser as they were, kept as the reference.
mod reference {
    use serde::Value;

    pub fn to_string(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, &v.clone(), None, 0);
        out
    }

    pub fn to_string_pretty(v: &Value) -> String {
        let mut out = String::new();
        write_value(&mut out, &v.clone(), Some("  "), 0);
        out
    }

    /// `Ok(value)` or the error's display text.
    pub fn from_str(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(err("trailing characters", p.pos));
        }
        Ok(value.clone())
    }

    fn err(message: impl Into<String>, at: usize) -> String {
        format!("{} at byte {at}", message.into())
    }

    fn write_value(out: &mut String, v: &Value, indent: Option<&str>, depth: usize) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x) => {
                if x.is_finite() {
                    // Debug formatting gives the shortest round-trip form and
                    // always includes a decimal point or exponent.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            Value::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_string(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    fn newline_indent(out: &mut String, indent: Option<&str>, depth: usize) {
        if let Some(unit) = indent {
            out.push('\n');
            for _ in 0..depth {
                out.push_str(unit);
            }
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    // --- parsing ---------------------------------------------------------------

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
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

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(err(format!("expected `{}`", b as char), self.pos))
            }
        }

        fn expect_literal(&mut self, lit: &str) -> Result<(), String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(err(format!("expected `{lit}`"), self.pos))
            }
        }

        fn parse_value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'n') => {
                    self.expect_literal("null")?;
                    Ok(Value::Null)
                }
                Some(b't') => {
                    self.expect_literal("true")?;
                    Ok(Value::Bool(true))
                }
                Some(b'f') => {
                    self.expect_literal("false")?;
                    Ok(Value::Bool(false))
                }
                Some(b'"') => Ok(Value::Str(self.parse_string()?)),
                Some(b'[') => self.parse_array(),
                Some(b'{') => self.parse_object(),
                Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
                Some(other) => Err(err(format!("unexpected `{}`", other as char), self.pos)),
                None => Err(err("unexpected end of input", self.pos)),
            }
        }

        fn parse_array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.parse_value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(err("expected `,` or `]`", self.pos)),
                }
            }
        }

        fn parse_object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.parse_string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.parse_value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => return Err(err("expected `,` or `}`", self.pos)),
                }
            }
        }

        fn parse_string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let start = self.pos;
                // Fast path: run of plain bytes.
                while let Some(b) = self.peek() {
                    if b == b'"' || b == b'\\' || b < 0x20 {
                        break;
                    }
                    self.pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| err("invalid UTF-8", start))?,
                );
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        self.parse_escape(&mut out)?;
                    }
                    _ => return Err(err("unterminated string", self.pos)),
                }
            }
        }

        fn parse_escape(&mut self, out: &mut String) -> Result<(), String> {
            let at = self.pos;
            let b = self.peek().ok_or_else(|| err("bad escape", at))?;
            self.pos += 1;
            match b {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.parse_hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair.
                        self.expect_literal("\\u")?;
                        let lo = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(err("bad low surrogate", at));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| err("bad code point", at))?);
                }
                other => return Err(err(format!("bad escape `\\{}`", other as char), at)),
            }
            Ok(())
        }

        fn parse_hex4(&mut self) -> Result<u32, String> {
            let at = self.pos;
            if self.bytes.len() < at + 4 {
                return Err(err("bad \\u escape", at));
            }
            let hex = std::str::from_utf8(&self.bytes[at..at + 4])
                .map_err(|_| err("bad \\u escape", at))?;
            let code = u32::from_str_radix(hex, 16).map_err(|_| err("bad \\u escape", at))?;
            self.pos += 4;
            Ok(code)
        }

        fn parse_number(&mut self) -> Result<Value, String> {
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
                .map_err(|_| err("bad number", start))?;
            if !is_float {
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(Value::UInt(n));
                }
                if let Ok(n) = text.parse::<i64>() {
                    return Ok(Value::Int(n));
                }
            }
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| err(format!("bad number `{text}`"), start))
        }
    }
}

/// FNV-1a, the frame checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The binary log as the reference framing writes it.
fn reference_binary(header: &LogHeader, records: impl Iterator<Item = (u64, Value)>) -> Vec<u8> {
    let meta = reference::to_string(&header.meta).into_bytes();
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&header.version.to_le_bytes());
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    out.extend_from_slice(&meta);
    for (seq, payload) in records {
        let body = reference::to_string(&payload).into_bytes();
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
    }
    out
}

/// The JSONL log as the reference writer renders it.
fn reference_jsonl(header: &LogHeader, records: impl Iterator<Item = (u64, Value)>) -> String {
    let head = Value::Object(vec![
        ("magic".into(), Value::Str(JSONL_MAGIC.into())),
        ("version".into(), Value::UInt(u64::from(header.version))),
        ("meta".into(), header.meta.clone()),
    ]);
    let mut out = reference::to_string(&head);
    out.push('\n');
    for (seq, payload) in records {
        let line = Value::Object(vec![
            ("seq".into(), Value::UInt(seq)),
            ("event".into(), payload),
        ]);
        out.push_str(&reference::to_string(&line));
        out.push('\n');
    }
    out
}

/// Random value trees, biased toward what the codec's fast paths branch
/// on: integer extremes, every escape class, non-ASCII, empty containers.
struct Trees;

impl Trees {
    fn string(rng: &mut TestRng) -> String {
        const PIECES: &[&str] = &[
            "a",
            "plain text",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{8}",
            "\u{c}",
            "\u{0}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "/",
            "é",
            "日本",
            "😀",
            "\u{2028}",
            " ",
        ];
        (0..rng.below(6))
            .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn value(rng: &mut TestRng, depth: u32) -> Value {
        let kinds = if depth == 0 { 6 } else { 8 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::UInt(match rng.below(4) {
                0 => u64::MAX,
                1 => rng.below(10),
                _ => rng.next_u64() >> rng.below(64),
            }),
            3 => Value::Int(match rng.below(4) {
                0 => i64::MIN,
                1 => -1,
                2 => rng.below(1000) as i64, // non-negative Int renders as UInt
                _ => -((rng.next_u64() >> 1) as i64) >> rng.below(63),
            }),
            4 => Value::Float(match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => 1e300,
                5 => 5e-324,
                _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
            }),
            5 => Value::Str(Self::string(rng)),
            6 => Value::Array(
                (0..rng.below(5))
                    .map(|_| Self::value(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..rng.below(5))
                    .map(|_| (Self::string(rng), Self::value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }
}

impl Strategy for Trees {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        Self::value(rng, 4)
    }
}

/// Fragments for JSON-shaped text, with the number forms whose parse
/// takes a different path: `-0`, `007`, `1e3`, one past `u64::MAX`.
const SOUP: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    " ",
    "\n",
    "\"",
    "\"k\":",
    "null",
    "true",
    "false",
    "tru",
    "0",
    "42",
    "-",
    "-0",
    "007",
    "1e3",
    "1E-3",
    "2.5",
    "+",
    ".",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "\\n",
    "\\\"",
    "\\\\",
    "\\/",
    "\\b",
    "\\f",
    "\\r",
    "\\t",
    "\\u0041",
    "\\u001f",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\ud83dx",
    "\\u+041",
    "\\q",
    "é",
    "日本",
    "😀",
    "\u{1}",
    "\u{7f}",
];

/// Both parsers on one text: equal values, or errors with equal text.
fn parse_both(text: &str) -> Result<(), String> {
    let new = serde_json::parse_value(text).map_err(|e| e.to_string());
    let generic = serde_json::from_str::<Value>(text).map_err(|e| e.to_string());
    let old = reference::from_str(text);
    if new != old || generic != old {
        return Err(format!(
            "{text:?}: parse_value {new:?}, from_str {generic:?}, reference {old:?}"
        ));
    }
    Ok(())
}

proptest! {
    #[test]
    fn renders_match_the_reference(tree in Trees) {
        let compact = serde_json::to_string(&tree).expect("render");
        prop_assert_eq!(&compact, &reference::to_string(&tree));
        let mut appended = String::from("prefix");
        serde_json::write_value(&mut appended, &tree);
        prop_assert_eq!(&appended[6..], compact.as_str());
        prop_assert_eq!(
            serde_json::to_string_pretty(&tree).expect("render"),
            reference::to_string_pretty(&tree)
        );
        parse_both(&compact)?;
        parse_both(&reference::to_string_pretty(&tree))?;
    }

    #[test]
    fn parses_match_the_reference_on_token_soup(
        picks in prop::collection::vec(0usize..1000, 0..24),
    ) {
        let text: String = picks.iter().map(|&i| SOUP[i % SOUP.len()]).collect();
        parse_both(&text)?;
    }
}

#[test]
fn number_and_string_edges_match_the_reference() {
    for text in [
        "0",
        "-0",
        "007",
        "-007",
        "1e3",
        "1E+3",
        "0.5",
        "-",
        "0-1",
        "1.2.3",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "-9223372036854775808",
        "-9223372036854775809",
        "[18446744073709551616,7]",
        "{\"a\":007}",
        "\"\"",
        "\"plain\"",
        "\"\\u00e9\\n\\t\\\\\\\"\\/\\b\\f\\r\"",
        "\"\\ud83d\\ude00\"",
        "\"\\ud83d\"",
        "\"\\u+041\"",
        "\"日本😀\"",
        "\"unterminated",
        "[1,]",
        "[1 2]",
        "{\"k\" 1}",
        " [ ] ",
        "nul",
    ] {
        parse_both(text).unwrap();
    }
    for v in [
        Value::UInt(u64::MAX),
        Value::UInt(0),
        Value::Int(i64::MIN),
        Value::Int(0),
        Value::Float(-0.0),
    ] {
        assert_eq!(serde_json::to_string(&v).unwrap(), reference::to_string(&v));
    }
}

#[test]
fn study_log_encodes_and_decodes_like_the_reference() {
    let config = StudyConfig::paper(7, 0.02);
    let outcome = run_study_opts(
        &config,
        &RunOptions {
            capture_log: true,
            ..RunOptions::default()
        },
    )
    .expect("logged run");
    let log = outcome.log.as_ref().expect("log captured");
    let lowered = || log.records().iter().map(|(seq, r)| (*seq, r.to_value()));
    assert_eq!(log.header().version, FORMAT_VERSION);

    let want = reference_binary(log.header(), lowered());
    let bytes = log.to_binary().expect("encode");
    assert!(
        bytes == want,
        "to_binary differs from the reference framing"
    );
    let records: Vec<LogRecord> = lowered()
        .map(|(seq, payload)| LogRecord { seq, payload })
        .collect();
    let batch = encode_binary(log.header(), &records).expect("encode");
    assert!(
        batch == want,
        "encode_binary differs from the reference framing"
    );

    let want_jsonl = reference_jsonl(log.header(), lowered());
    let jsonl = log.to_jsonl().expect("encode jsonl");
    assert!(jsonl == want_jsonl, "to_jsonl differs from the reference");
    let batch_jsonl = encode_jsonl(log.header(), &records).expect("encode jsonl");
    assert!(
        batch_jsonl == want_jsonl,
        "encode_jsonl differs from the reference"
    );

    // Every decoded payload equals the reference parse of its frame.
    let (header, decoded) = decode_binary(&bytes).expect("decode");
    assert_eq!(&header, log.header());
    assert_eq!(decoded.len(), records.len());
    let mut pos = 12 + reference::to_string(&header.meta).len();
    for (got, sent) in decoded.iter().zip(&records) {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let body = std::str::from_utf8(&bytes[pos + 20..pos + 20 + len]).unwrap();
        let parsed = reference::from_str(body).expect("reference parses the frame");
        assert!(
            got.payload == parsed,
            "seq {}: decoded payload differs",
            got.seq
        );
        assert_eq!(got.seq, sent.seq);
        pos += 20 + len;
    }
    assert_eq!(pos, bytes.len());
    let (jsonl_header, jsonl_records) = decode_jsonl(&jsonl).expect("decode jsonl");
    assert_eq!(&jsonl_header, log.header());
    assert!(jsonl_records == decoded, "JSONL and binary decode differ");
}
