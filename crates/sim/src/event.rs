//! The event-log substrate: framed, seekable, corruption-detecting codecs.
//!
//! A *log* is a header plus a sequence of records. The header carries a
//! format version and a caller-defined metadata document (the study config
//! and RNG provenance live there); each record is a monotone sequence
//! number plus a payload lowered to the serde data model ([`Value`]).
//! Payload *semantics* belong to higher layers (`likelab_osn::log` defines
//! the world-mutation vocabulary, `likelab_core` the study records) — this
//! module only guarantees framing, ordering, and integrity.
//!
//! Two codecs share the same logical model:
//!
//! - **binary** — a compact framed stream (`LLOG` magic, version, FNV-1a
//!   checksums per record) meant for capture files and checkpoints. It is
//!   appendable: [`FrameWriter`] streams records to any [`io::Write`] and
//!   reports byte offsets, so a checkpoint can pin "the log up to byte N".
//! - **JSON lines** — one JSON object per line, for grepping and diffing.
//!
//! Decoding is strict: a truncated tail, a failed checksum, a version skew,
//! or a sequence number that does not strictly increase is a hard
//! [`LogError`] — never a silent partial replay.

use serde::Value;
use std::fmt;
use std::io;

/// The binary codec's magic bytes.
pub const MAGIC: [u8; 4] = *b"LLOG";

/// Current format version (bump on any framing or vocabulary change; see
/// DESIGN.md for the versioning policy).
pub const FORMAT_VERSION: u16 = 1;

/// The JSONL codec's magic string (first line, `"magic"` field).
pub const JSONL_MAGIC: &str = "likelab-log";

/// Log header: format version plus caller metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHeader {
    /// Format version of the stream (readers reject mismatches).
    pub version: u16,
    /// Caller-defined metadata (config, seed, RNG stream provenance).
    pub meta: Value,
}

impl LogHeader {
    /// A current-version header around `meta`.
    pub fn new(meta: Value) -> Self {
        LogHeader {
            version: FORMAT_VERSION,
            meta,
        }
    }
}

/// One log record: a monotone sequence number and a payload value.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Strictly increasing within a stream (gaps allowed, repeats not).
    pub seq: u64,
    /// The payload, lowered to the serde data model.
    pub payload: Value,
}

/// Why a log could not be decoded (or written). Every variant is a hard
/// error: decoders never return a partial record set alongside one.
#[derive(Debug, Clone, PartialEq)]
pub enum LogError {
    /// The stream ends mid-header or mid-record.
    Truncated {
        /// Byte (binary) or line (JSONL) offset where the data ran out.
        offset: u64,
    },
    /// The stream does not start with the expected magic.
    BadMagic,
    /// The stream was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the stream.
        found: u16,
        /// Version this reader implements.
        expected: u16,
    },
    /// A frame or payload failed validation (checksum, JSON, schema).
    Corrupt {
        /// Byte (binary) or line (JSONL) offset of the offending record.
        offset: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// A sequence number failed to strictly increase.
    NonMonotoneSeq {
        /// The previous record's sequence number.
        prev: u64,
        /// The offending record's sequence number.
        next: u64,
    },
    /// A followed file shrank below the follower's committed offset — the
    /// producer truncated or rotated it. Distinct from [`LogError::Truncated`]
    /// (which means the stream *ended* mid-frame): already-consumed bytes
    /// are gone, so the follower cannot continue and the caller must
    /// re-open the source from scratch. Reported by
    /// [`FollowReader::poll`](crate::tail::FollowReader::poll), and sticky
    /// while the file stays short.
    ShrunkSource {
        /// Bytes the follower had already consumed.
        read_bytes: u64,
        /// The file's current (smaller) length.
        len: u64,
    },
    /// An I/O failure while reading or writing a sink.
    Io(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Truncated { offset } => {
                write!(f, "log truncated at offset {offset}")
            }
            LogError::BadMagic => write!(f, "not a likelab event log (bad magic)"),
            LogError::VersionMismatch { found, expected } => {
                write!(f, "log format version {found}, reader expects {expected}")
            }
            LogError::Corrupt { offset, reason } => {
                write!(f, "log corrupt at offset {offset}: {reason}")
            }
            LogError::NonMonotoneSeq { prev, next } => {
                write!(f, "non-monotone sequence: {next} after {prev}")
            }
            LogError::ShrunkSource { read_bytes, len } => {
                write!(
                    f,
                    "followed log shrank to {len} bytes below the {read_bytes} already \
                     consumed (truncated or rotated under the follower)"
                )
            }
            LogError::Io(e) => write!(f, "log i/o: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e.to_string())
    }
}

/// FNV-1a over a byte slice — the per-record integrity checksum. Not
/// cryptographic; it catches the bit rot and partial writes a capture file
/// meets in practice.
fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fixed bytes before the header's variable-length meta document:
/// magic (4) + version (2) + reserved (2) + meta length (4).
pub(crate) const HEADER_FIXED: usize = 12;

/// Fixed bytes before a frame's payload: len (4) + seq (8) + checksum (8).
pub(crate) const FRAME_FIXED: usize = 20;

/// Largest render buffer a [`FrameWriter`] keeps for its next frame. One
/// outsized record (a population-sized like batch) must not pin its size
/// for the rest of a run.
const KEEP_BODY: usize = 1 << 20;

/// A rendered document's length as the `u32` length field that frames it.
fn len_field(doc: &str) -> Result<u32, LogError> {
    u32::try_from(doc.len()).map_err(|_| {
        LogError::Io(format!(
            "{} byte document overflows a u32 length",
            doc.len()
        ))
    })
}

/// Write the binary header: magic, version, two reserved bytes, meta
/// length, meta JSON. Returns the bytes written.
fn write_header<W: io::Write>(out: &mut W, header: &LogHeader) -> Result<u64, LogError> {
    let mut meta = String::new();
    serde_json::write_value(&mut meta, &header.meta);
    let len = len_field(&meta)?;
    out.write_all(&MAGIC)?;
    out.write_all(&header.version.to_le_bytes())?;
    out.write_all(&[0u8; 2])?; // reserved
    out.write_all(&len.to_le_bytes())?;
    out.write_all(meta.as_bytes())?;
    Ok((HEADER_FIXED + meta.len()) as u64)
}

/// Write one frame, `[len: u32][seq: u64][fnv1a: u64][payload JSON]`,
/// rendering the payload into `body`, a scratch buffer reused across
/// frames. Returns the bytes written. The one frame encoder behind
/// [`encode_binary`] and [`FrameWriter::append`].
fn push_frame<W: io::Write>(
    out: &mut W,
    body: &mut String,
    seq: u64,
    payload: &Value,
) -> Result<u64, LogError> {
    body.clear();
    serde_json::write_value(body, payload);
    let len = len_field(body)?;
    out.write_all(&len.to_le_bytes())?;
    out.write_all(&seq.to_le_bytes())?;
    out.write_all(&fnv1a_bytes(body.as_bytes()).to_le_bytes())?;
    out.write_all(body.as_bytes())?;
    Ok((FRAME_FIXED + body.len()) as u64)
}

/// Encode a whole log to the binary format.
pub fn encode_binary(header: &LogHeader, records: &[LogRecord]) -> Result<Vec<u8>, LogError> {
    let mut out = Vec::new();
    write_header(&mut out, header)?;
    let mut body = String::new();
    for r in records {
        push_frame(&mut out, &mut body, r.seq, &r.payload)?;
    }
    Ok(out)
}

/// The little-endian `u16` at `pos`, if those bytes exist; the array
/// pattern makes the width check and the decode one infallible step.
/// Shared, like `read_u32`, with the incremental [`crate::tail`] decoder.
pub(crate) fn read_u16(bytes: &[u8], pos: usize) -> Option<u16> {
    match bytes.get(pos..pos + 2) {
        Some(&[a, b]) => Some(u16::from_le_bytes([a, b])),
        _ => None,
    }
}

/// The little-endian `u32` at `pos`, if those bytes exist.
pub(crate) fn read_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    match bytes.get(pos..pos + 4) {
        Some(&[a, b, c, d]) => Some(u32::from_le_bytes([a, b, c, d])),
        _ => None,
    }
}

/// The little-endian `u64` at `pos`, if those bytes exist.
fn read_u64(bytes: &[u8], pos: usize) -> Option<u64> {
    match bytes.get(pos..pos + 8) {
        Some(&[a, b, c, d, e, f, g, h]) => Some(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
        _ => None,
    }
}

/// Parse the header's meta document, which starts at stream offset
/// `offset`. Shared with the incremental [`crate::tail`] decoder.
pub(crate) fn parse_meta(meta: &[u8], offset: u64) -> Result<Value, LogError> {
    let text = std::str::from_utf8(meta).map_err(|e| LogError::Corrupt {
        offset,
        reason: format!("header not utf-8: {e}"),
    })?;
    serde_json::parse_value(text).map_err(|e| LogError::Corrupt {
        offset,
        reason: format!("header not json: {e}"),
    })
}

/// The frame starting at `pos` split into `(seq, checksum, payload)`, or
/// `Err(at)` with the offset of the first field whose bytes are missing.
/// Shared with the incremental [`crate::tail`] decoder.
pub(crate) fn split_frame(bytes: &[u8], pos: usize) -> Result<(u64, u64, &[u8]), u64> {
    let len = read_u32(bytes, pos).ok_or(pos as u64)? as usize;
    let seq = read_u64(bytes, pos + 4).ok_or((pos + 4) as u64)?;
    let sum = read_u64(bytes, pos + 12).ok_or((pos + 12) as u64)?;
    let body = bytes
        .get(pos + FRAME_FIXED..pos + FRAME_FIXED + len)
        .ok_or((pos + FRAME_FIXED) as u64)?;
    Ok((seq, sum, body))
}

/// Judge one complete frame at stream offset `offset`: checksum, then
/// sequence order against `prev`, then the payload JSON. Shared with the
/// incremental [`crate::tail`] decoder.
pub(crate) fn parse_frame(
    offset: u64,
    seq: u64,
    sum: u64,
    body: &[u8],
    prev: Option<u64>,
) -> Result<LogRecord, LogError> {
    if fnv1a_bytes(body) != sum {
        return Err(LogError::Corrupt {
            offset,
            reason: format!("checksum mismatch on record seq {seq}"),
        });
    }
    if let Some(prev) = prev {
        if seq <= prev {
            return Err(LogError::NonMonotoneSeq { prev, next: seq });
        }
    }
    let text = std::str::from_utf8(body).map_err(|e| LogError::Corrupt {
        offset,
        reason: format!("payload not utf-8: {e}"),
    })?;
    let payload = serde_json::parse_value(text).map_err(|e| LogError::Corrupt {
        offset,
        reason: format!("payload not json: {e}"),
    })?;
    Ok(LogRecord { seq, payload })
}

/// Decode a binary log's header and return it with a strict iterator over
/// the records that follow. The iterator yields records in order and ends
/// after the first error, so a consumer can process (and drop) one record
/// at a time with exactly the errors [`decode_binary`] reports.
pub fn decode_frames(bytes: &[u8]) -> Result<(LogHeader, Frames<'_>), LogError> {
    if bytes.len() < 4 {
        return Err(LogError::Truncated { offset: 0 });
    }
    if bytes[0..4] != MAGIC {
        return Err(LogError::BadMagic);
    }
    let version = read_u16(bytes, 4).ok_or(LogError::Truncated { offset: 4 })?;
    if version != FORMAT_VERSION {
        return Err(LogError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let meta_len = read_u32(bytes, 8).ok_or(LogError::Truncated { offset: 8 })? as usize;
    let meta = bytes
        .get(HEADER_FIXED..HEADER_FIXED + meta_len)
        .ok_or(LogError::Truncated {
            offset: HEADER_FIXED as u64,
        })?;
    let header = LogHeader {
        version,
        meta: parse_meta(meta, HEADER_FIXED as u64)?,
    };
    let frames = Frames {
        bytes,
        pos: HEADER_FIXED + meta_len,
        prev_seq: None,
    };
    Ok((header, frames))
}

/// Decode a binary log. Strict: any framing, checksum, or ordering defect
/// is an error, and no records are returned alongside one.
pub fn decode_binary(bytes: &[u8]) -> Result<(LogHeader, Vec<LogRecord>), LogError> {
    let (header, frames) = decode_frames(bytes)?;
    Ok((header, frames.collect::<Result<_, _>>()?))
}

/// The records of a binary log, from [`decode_frames`].
#[derive(Debug)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev_seq: Option<u64>,
}

impl Iterator for Frames<'_> {
    type Item = Result<LogRecord, LogError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let at = self.pos;
        let next = match split_frame(self.bytes, at) {
            Ok((seq, sum, body)) => parse_frame(at as u64, seq, sum, body, self.prev_seq)
                .map(|r| (r, at + FRAME_FIXED + body.len())),
            Err(offset) => Err(LogError::Truncated { offset }),
        };
        Some(match next {
            Ok((record, end)) => {
                self.pos = end;
                self.prev_seq = Some(record.seq);
                Ok(record)
            }
            Err(e) => {
                self.pos = self.bytes.len(); // strict: nothing after an error
                Err(e)
            }
        })
    }
}

/// Encode a whole log to the JSONL format (header line, then one record
/// per line).
pub fn encode_jsonl(header: &LogHeader, records: &[LogRecord]) -> Result<String, LogError> {
    let mut out = String::new();
    jsonl_header_line(&mut out, header);
    for r in records {
        jsonl_record_line(&mut out, r.seq, &r.payload);
    }
    Ok(out)
}

/// Append the JSONL header line, `{"magic":…,"version":…,"meta":…}`.
pub fn jsonl_header_line(out: &mut String, header: &LogHeader) {
    let head = Value::Object(vec![
        ("magic".into(), Value::Str(JSONL_MAGIC.into())),
        ("version".into(), Value::UInt(u64::from(header.version))),
        ("meta".into(), header.meta.clone()),
    ]);
    serde_json::write_value(out, &head);
    out.push('\n');
}

/// Append one JSONL record line, `{"seq":…,"event":…}`: the bytes of that
/// object rendered compact, without building it around `payload`.
pub fn jsonl_record_line(out: &mut String, seq: u64, payload: &Value) {
    out.push_str("{\"seq\":");
    serde_json::write_value(out, &Value::UInt(seq));
    out.push_str(",\"event\":");
    serde_json::write_value(out, payload);
    out.push_str("}\n");
}

/// Decode a JSONL log. Offsets in errors are 1-based line numbers.
pub fn decode_jsonl(text: &str) -> Result<(LogHeader, Vec<LogRecord>), LogError> {
    let mut lines = text.lines().enumerate();
    let Some((_, first)) = lines.next() else {
        return Err(LogError::Truncated { offset: 0 });
    };
    let head = serde_json::parse_value(first).map_err(|_| LogError::BadMagic)?;
    if head.get("magic").and_then(Value::as_str) != Some(JSONL_MAGIC) {
        return Err(LogError::BadMagic);
    }
    let version = match head.get("version") {
        Some(Value::UInt(v)) => *v as u16,
        _ => return Err(LogError::BadMagic),
    };
    if version != FORMAT_VERSION {
        return Err(LogError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let meta = head.get("meta").cloned().unwrap_or(Value::Null);
    let mut records = Vec::new();
    let mut prev_seq: Option<u64> = None;
    for (i, line) in lines {
        let offset = i as u64 + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::parse_value(line).map_err(|e| LogError::Corrupt {
            offset,
            reason: format!("line not json: {e}"),
        })?;
        let seq = match v.get("seq") {
            Some(Value::UInt(s)) => *s,
            _ => {
                return Err(LogError::Corrupt {
                    offset,
                    reason: "record missing `seq`".into(),
                })
            }
        };
        if let Some(prev) = prev_seq {
            if seq <= prev {
                return Err(LogError::NonMonotoneSeq { prev, next: seq });
            }
        }
        let event = match v {
            Value::Object(fields) => fields.into_iter().find(|(k, _)| k == "event"),
            _ => None,
        };
        let payload = event.map(|(_, e)| e).ok_or_else(|| LogError::Corrupt {
            offset,
            reason: "record missing `event`".into(),
        })?;
        records.push(LogRecord { seq, payload });
        prev_seq = Some(seq);
    }
    Ok((LogHeader { version, meta }, records))
}

/// Streaming binary-log writer over any [`io::Write`] sink.
///
/// Tracks bytes written and the last sequence number, so callers can pin
/// resumable offsets (checkpoints store `bytes_written` and truncate the
/// file back to it before continuing).
pub struct FrameWriter<W: io::Write> {
    sink: W,
    bytes: u64,
    last_seq: Option<u64>,
    /// Payload render buffer, reused across frames.
    body: String,
}

impl<W: io::Write> FrameWriter<W> {
    /// Start a fresh stream: writes the header immediately.
    pub fn new(mut sink: W, header: &LogHeader) -> Result<Self, LogError> {
        let bytes = write_header(&mut sink, header)?;
        Ok(FrameWriter::resume(sink, bytes, None))
    }

    /// Continue an existing stream (header already on disk): the sink must
    /// be positioned at `bytes` — usually a file truncated to a checkpoint
    /// offset and seeked to its end.
    pub fn resume(sink: W, bytes: u64, last_seq: Option<u64>) -> Self {
        FrameWriter {
            sink,
            bytes,
            last_seq,
            body: String::new(),
        }
    }

    /// Append one record. `seq` must strictly increase.
    pub fn append(&mut self, seq: u64, payload: &Value) -> Result<(), LogError> {
        if let Some(prev) = self.last_seq {
            if seq <= prev {
                return Err(LogError::NonMonotoneSeq { prev, next: seq });
            }
        }
        self.bytes += push_frame(&mut self.sink, &mut self.body, seq, payload)?;
        if self.body.capacity() > KEEP_BODY {
            self.body = String::new();
        }
        self.last_seq = Some(seq);
        Ok(())
    }

    /// The sink, with everything appended so far written to it.
    pub fn into_inner(self) -> W {
        self.sink
    }

    /// Flush the sink (call before pinning a checkpoint offset).
    pub fn flush(&mut self) -> Result<(), LogError> {
        self.sink.flush()?;
        Ok(())
    }

    /// Total bytes written, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// The last appended sequence number, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> LogHeader {
        LogHeader::new(Value::Object(vec![
            ("seed".into(), Value::UInt(42)),
            ("preset".into(), Value::Str("paper".into())),
        ]))
    }

    fn sample_records() -> Vec<LogRecord> {
        (0..5)
            .map(|i| LogRecord {
                seq: i,
                payload: Value::Object(vec![
                    ("kind".into(), Value::Str("like".into())),
                    ("user".into(), Value::UInt(i * 7)),
                ]),
            })
            .collect()
    }

    #[test]
    fn binary_roundtrips() {
        let bytes = encode_binary(&sample_header(), &sample_records()).unwrap();
        let (h, r) = decode_binary(&bytes).unwrap();
        assert_eq!(h, sample_header());
        assert_eq!(r, sample_records());
    }

    #[test]
    fn jsonl_roundtrips() {
        let text = encode_jsonl(&sample_header(), &sample_records()).unwrap();
        let (h, r) = decode_jsonl(&text).unwrap();
        assert_eq!(h, sample_header());
        assert_eq!(r, sample_records());
        assert_eq!(text.lines().count(), 6, "header + 5 records");
    }

    #[test]
    fn empty_log_is_valid_both_ways() {
        let bytes = encode_binary(&sample_header(), &[]).unwrap();
        assert!(decode_binary(&bytes).unwrap().1.is_empty());
        let text = encode_jsonl(&sample_header(), &[]).unwrap();
        assert!(decode_jsonl(&text).unwrap().1.is_empty());
    }

    #[test]
    fn truncation_is_a_hard_error() {
        let bytes = encode_binary(&sample_header(), &sample_records()).unwrap();
        // Every proper prefix that cuts into a record must fail loudly.
        let cut = bytes.len() - 3;
        match decode_binary(&bytes[..cut]) {
            Err(LogError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mut bytes = encode_binary(&sample_header(), &sample_records()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match decode_binary(&bytes) {
            Err(LogError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode_binary(&sample_header(), &[]).unwrap();
        bytes[0] = b'X';
        assert_eq!(decode_binary(&bytes), Err(LogError::BadMagic));
        let mut versioned = encode_binary(&sample_header(), &[]).unwrap();
        versioned[4] = 99;
        assert!(matches!(
            decode_binary(&versioned),
            Err(LogError::VersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn non_monotone_seq_is_rejected() {
        let records = vec![
            LogRecord {
                seq: 5,
                payload: Value::Null,
            },
            LogRecord {
                seq: 5,
                payload: Value::Null,
            },
        ];
        let bytes = encode_binary(&sample_header(), &records).unwrap();
        assert_eq!(
            decode_binary(&bytes),
            Err(LogError::NonMonotoneSeq { prev: 5, next: 5 })
        );
        let text = encode_jsonl(&sample_header(), &records).unwrap();
        assert_eq!(
            decode_jsonl(&text),
            Err(LogError::NonMonotoneSeq { prev: 5, next: 5 })
        );
    }

    #[test]
    fn frames_stop_after_the_first_error() {
        let records = sample_records();
        let mut bytes = encode_binary(&sample_header(), &records).unwrap();
        let (_, intact) = decode_frames(&bytes).unwrap();
        assert_eq!(intact.collect::<Result<Vec<_>, _>>(), Ok(records.clone()));
        // Damage the second frame's payload: one record, one error, done.
        let second = encode_binary(&sample_header(), &records[..1])
            .unwrap()
            .len();
        bytes[second + 20] ^= 1;
        let (_, mut frames) = decode_frames(&bytes).unwrap();
        assert_eq!(frames.next(), Some(Ok(records[0].clone())));
        assert!(matches!(
            frames.next(),
            Some(Err(LogError::Corrupt { offset, .. })) if offset == second as u64
        ));
        assert_eq!(frames.next(), None);
    }

    #[test]
    fn frame_writer_matches_batch_encoder() {
        let header = sample_header();
        let records = sample_records();
        let batch = encode_binary(&header, &records).unwrap();
        let mut sink = Vec::new();
        {
            let mut w = FrameWriter::new(&mut sink, &header).unwrap();
            for r in &records {
                w.append(r.seq, &r.payload).unwrap();
            }
            assert_eq!(w.bytes_written(), batch.len() as u64);
            assert_eq!(w.last_seq(), Some(4));
        }
        assert_eq!(sink, batch, "streamed and batch encodings must agree");
    }

    #[test]
    fn frame_writer_rejects_seq_reuse() {
        let mut w = FrameWriter::new(Vec::new(), &sample_header()).unwrap();
        w.append(1, &Value::Null).unwrap();
        assert!(matches!(
            w.append(1, &Value::Null),
            Err(LogError::NonMonotoneSeq { prev: 1, next: 1 })
        ));
    }

    #[test]
    fn jsonl_corrupt_line_is_reported_with_offset() {
        let mut text = encode_jsonl(&sample_header(), &sample_records()).unwrap();
        text.push_str("{not json\n");
        match decode_jsonl(&text) {
            Err(LogError::Corrupt { offset, .. }) => assert_eq!(offset, 7, "1-based line"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
