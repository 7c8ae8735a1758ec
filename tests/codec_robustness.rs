//! Hostile-input robustness of the event-log codecs: a small study log cut
//! at every offset, or with one bit flipped at every offset, goes through
//! the strict decoder and the tail decoder (whole, and in 1-byte and 7-byte
//! chunks). Every outcome is a typed [`LogError`] or exactly the records the
//! intact bytes mean, and nothing panics. The JSON parser behind both
//! decoders gets arbitrary bytes and JSON-shaped token soup, and must
//! answer `Ok` or `Err`.

use likelab::core::{run_study_opts, RunOptions, StudyConfig};
use likelab::sim::event::{decode_binary, encode_binary, LogError, LogHeader, LogRecord};
use likelab::sim::tail::TailReader;
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// The small log's bytes, its intact decode, and the offsets the checks
/// need.
struct Small {
    bytes: Vec<u8>,
    header: LogHeader,
    records: Vec<LogRecord>,
    /// Byte range of the header's meta document.
    meta: std::ops::Range<usize>,
    /// Start offset of every frame, then the end of the log.
    bounds: Vec<usize>,
}

/// The records of a tiny study, one of each kind whose payload stays
/// short, under a short study-style header: about 2 KB, so that checking
/// every offset stays quick in an unoptimised test build. (A real study
/// header embeds the whole config, ~6.5 KB of JSON the codec treats as one
/// opaque document.)
fn small() -> &'static Small {
    static SHARED: OnceLock<Small> = OnceLock::new();
    SHARED.get_or_init(|| {
        let config = StudyConfig::paper(7, 0.005);
        let outcome = run_study_opts(
            &config,
            &RunOptions {
                capture_log: true,
                ..RunOptions::default()
            },
        )
        .expect("logged run");
        let full = outcome.log.as_ref().expect("log captured");
        let mut kinds = BTreeSet::new();
        let mut picked = Vec::new();
        for (seq, record) in full.records() {
            let payload = record.to_value();
            let short = serde_json::to_string(&payload).expect("render").len() < 240;
            if short && kinds.insert(kind_of(&payload)) {
                picked.push(LogRecord { seq: *seq, payload });
            }
        }
        let header = LogHeader::new(Value::Object(vec![
            ("kind".into(), Value::Str("likelab-study-log".into())),
            ("seed".into(), Value::UInt(config.seed)),
            ("note".into(), Value::Str("tab\t, quote\", é".into())),
        ]));
        let bytes = encode_binary(&header, &picked).expect("encode");
        let (header, records) = decode_binary(&bytes).expect("intact log decodes");
        assert_eq!(records, picked);
        let meta_len = serde_json::to_string(&header.meta).expect("render").len();
        let mut bounds = vec![12 + meta_len];
        for r in &records {
            let body = serde_json::to_string(&r.payload).expect("render").len();
            bounds.push(bounds.last().expect("non-empty") + 20 + body);
        }
        assert_eq!(bounds.last(), Some(&bytes.len()));
        assert!(
            records.len() >= 10,
            "too few record kinds: {}",
            records.len()
        );
        Small {
            bytes,
            header,
            records,
            meta: 12..12 + meta_len,
            bounds,
        }
    })
}

/// A lowered record's variant, `World:<event>` for world mutations.
fn kind_of(v: &Value) -> String {
    match v {
        Value::Object(fields) if fields.len() == 1 => match &fields[0] {
            (world, Value::Object(event)) if world == "World" && event.len() == 1 => {
                format!("World:{}", event[0].0)
            }
            (variant, _) => variant.clone(),
        },
        _ => String::new(),
    }
}

/// What one decoder made of a byte string.
type Outcome = (Option<LogHeader>, Result<Vec<LogRecord>, LogError>);

fn strict(bytes: &[u8]) -> Outcome {
    match decode_binary(bytes) {
        Ok((h, r)) => (Some(h), Ok(r)),
        Err(e) => (None, Err(e)),
    }
}

/// Feed `bytes` to a fresh tail decoder in `chunk`-byte pieces, draining
/// after each, then declare the stream finished.
fn tailed(bytes: &[u8], chunk: usize) -> Outcome {
    let mut tail = TailReader::new();
    let mut records = Vec::new();
    for piece in bytes.chunks(chunk.max(1)) {
        tail.extend(piece);
        match tail.drain() {
            Ok(more) => records.extend(more),
            Err(e) => return (tail.header().cloned(), Err(e)),
        }
    }
    let done = tail.finish().map(|()| records);
    (tail.header().cloned(), done)
}

/// The tail decoder's answer is the same whatever the chunking.
fn tailed_every_way(bytes: &[u8]) -> Outcome {
    let whole = tailed(bytes, bytes.len());
    for chunk in [1, 7] {
        assert_eq!(
            tailed(bytes, chunk),
            whole,
            "{chunk}-byte chunks differ from one piece"
        );
    }
    whole
}

#[test]
fn every_cut_is_truncated_or_a_record_boundary() {
    let s = small();
    let mut one_byte = TailReader::new();
    let mut one_byte_records = Vec::new();
    for cut in 0..=s.bytes.len() {
        let prefix = &s.bytes[..cut];
        // The 1-byte feed of a prefix is the first `cut` steps of one
        // 1-byte feed of the whole log, so it is checked incrementally.
        if cut > 0 {
            one_byte.extend(&s.bytes[cut - 1..cut]);
            one_byte_records.extend(one_byte.drain().expect("a cut is never corrupt"));
        }
        let complete = s.bounds.iter().filter(|&&b| b <= cut).count();
        let want = s.records[..complete.saturating_sub(1)].to_vec();
        let boundary = s.bounds.contains(&cut);

        match strict(prefix) {
            (Some(h), Ok(r)) => {
                assert!(boundary, "cut {cut} decoded strictly");
                assert_eq!((h, r), (s.header.clone(), want.clone()));
            }
            (_, Err(LogError::Truncated { .. })) => assert!(!boundary, "cut {cut}"),
            other => panic!("cut {cut}: strict gave {other:?}"),
        }

        let last_bound = if complete == 0 {
            0
        } else {
            s.bounds[complete - 1] as u64
        };
        let expect_tail = if boundary {
            Ok(want.clone())
        } else {
            Err(LogError::Truncated { offset: last_bound })
        };
        let whole = tailed(prefix, prefix.len());
        assert_eq!(whole.1, expect_tail, "cut {cut}, one piece");
        assert_eq!(tailed(prefix, 7), whole, "cut {cut}, 7-byte chunks");
        assert_eq!(one_byte_records, want, "cut {cut}, 1-byte chunks");
        assert_eq!(
            one_byte.finish().map(|()| one_byte_records.clone()),
            expect_tail,
            "cut {cut}, 1-byte chunks"
        );
    }
}

#[test]
fn every_bit_flip_is_an_error_or_what_the_bytes_mean() {
    let s = small();
    let mut decoded_despite_flip = 0;
    for at in 0..s.bytes.len() {
        let bit = at % 8;
        let mut bytes = s.bytes.clone();
        bytes[at] ^= 1 << bit;
        let strict = strict(&bytes);
        let tail = tailed_every_way(&bytes);

        // The frame whose `seq` field (bytes 4..12 of the frame) holds the
        // flipped bit: the checksum covers the payload only, so such a
        // flip decodes to that record under another sequence number, or
        // is a sequence error.
        let mut want = s.records.clone();
        for (k, &start) in s.bounds[..s.records.len()].iter().enumerate() {
            if (start + 4..start + 12).contains(&at) {
                want[k].seq ^= 1 << ((at - start - 4) * 8 + bit);
            }
        }
        // Besides a `seq` field, only the meta document and the two
        // reserved header bytes can change without an error.
        let harmless = s.meta.contains(&at) || (6..8).contains(&at) || want != s.records;
        for (name, (header, records)) in [("strict", &strict), ("tail", &tail)] {
            let Ok(records) = records else { continue };
            assert!(harmless, "flip at {at}: {name} decoded a damaged log");
            decoded_despite_flip += 1;
            assert_eq!(records, &want, "flip at {at}: {name} decoded other records");
            let header = header.as_ref().expect("decoded logs have a header");
            if !s.meta.contains(&at) {
                assert_eq!(header, &s.header, "flip at {at}: {name} header");
            }
        }
        // Both decoders judge the same frames, so they agree on whether
        // the stream is good; only error offsets may differ.
        assert_eq!(
            strict.1.is_ok(),
            tail.1.is_ok(),
            "flip at {at}: strict {strict:?} vs tail {tail:?}"
        );
        if let (Ok(a), Ok(b)) = (&strict.1, &tail.1) {
            assert_eq!(a, b, "flip at {at}");
        }
    }
    assert!(decoded_despite_flip > 0, "reserved-byte flips must decode");
}

/// Fragments that steer random text toward the parser's branches: every
/// escape class, surrogates, non-ASCII, the integer fast path's edges.
const SOUP: &[&str] = &[
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "\n",
    "null",
    "true",
    "false",
    "nul",
    "0",
    "7",
    "-",
    "-0",
    "007",
    "1e3",
    "1.5",
    "E",
    "+",
    ".",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "\\n",
    "\\t",
    "\\u0041",
    "\\u00e9",
    "\\ud83d\\ude00",
    "\\ud83d",
    "\\udc00",
    "\\u+123",
    "\\x",
    "\"k\":",
    "é",
    "日本",
    "😀",
    "\u{1}",
    "\u{7f}",
];

fn soup(picks: &[usize]) -> String {
    picks.iter().map(|&i| SOUP[i % SOUP.len()]).collect()
}

proptest! {
    #[test]
    fn parser_answers_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = serde_json::parse_value(&text);
        let _ = serde_json::from_str::<Value>(&text);
    }

    #[test]
    fn parser_answers_token_soup(picks in prop::collection::vec(0usize..1000, 0..40)) {
        let text = soup(&picks);
        let parsed = serde_json::parse_value(&text);
        if let Ok(v) = &parsed {
            // Whatever parses renders and re-parses to itself.
            let again = serde_json::parse_value(&serde_json::to_string(v).expect("render"));
            prop_assert_eq!(again.ok(), Some(v.clone()));
        }
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":"] {
        let text = open.repeat(100_000);
        assert!(serde_json::parse_value(&text).is_err());
    }
    let ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
    assert!(serde_json::parse_value(&ok).is_ok(), "128 levels parse");
    let deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    assert!(serde_json::parse_value(&deep).is_err(), "129 levels do not");
}
