//! Incremental, follow-capable decoding of the binary event log.
//!
//! [`crate::event::decode_binary`] is strict by design: a stream that ends
//! mid-record is a hard [`LogError::Truncated`]. That is the right contract
//! for a capture file at rest — but a *live* log being tailed while a study
//! still writes it ends mid-record almost all the time, and that is not
//! corruption, it is just data that has not arrived yet.
//!
//! [`TailReader`] is the same decoder re-expressed incrementally (it shares
//! the strict decoder's frame splitting and checks): bytes go in via
//! [`extend`](TailReader::extend) in whatever chunks the transport
//! produces, complete frames come out of [`next_record`](TailReader::next_record),
//! and an incomplete tail means "not yet" (`Ok(None)`) instead of an error.
//! Consumed bytes are dropped by the next `extend`, never while decoding,
//! so a whole-log catch-up is one linear pass.
//! Every *integrity* defect — bad magic, version skew, checksum mismatch, a
//! sequence number that fails to strictly increase — is still a hard error
//! the moment the offending bytes are complete enough to judge. When the
//! producer is known to be done, [`finish`](TailReader::finish) converts any
//! leftover partial frame back into the strict `Truncated` error.
//!
//! [`FollowReader`] wraps a `TailReader` around a file path and polls it:
//! each [`poll`](FollowReader::poll) reads whatever bytes were appended
//! since the last poll and returns the newly completed records. This is the
//! file-follow substrate `likelab serve` ingests from.
//!
//! A `TailReader` fed the whole stream in one `extend` and drained yields
//! exactly the records `decode_binary` yields — asserted by tests below and
//! by the chunk-split property test in the serve parity suite.

use crate::event::{
    parse_frame, parse_meta, read_u16, read_u32, split_frame, LogError, LogHeader, LogRecord,
    FORMAT_VERSION, FRAME_FIXED, HEADER_FIXED, MAGIC,
};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Consumed-prefix size from which [`TailReader::extend`] drops the
/// consumed bytes before appending.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Incremental binary-log decoder. See the module docs.
///
/// ```
/// use likelab_sim::event::{encode_binary, LogHeader, LogRecord};
/// use likelab_sim::tail::TailReader;
/// use serde::Value;
///
/// let header = LogHeader::new(Value::Null);
/// let records = vec![LogRecord { seq: 1, payload: Value::UInt(7) }];
/// let bytes = encode_binary(&header, &records).unwrap();
///
/// // Feed the stream one byte at a time: records appear exactly when
/// // their last byte does, and an incomplete tail is never an error.
/// let mut tail = TailReader::new();
/// let mut seen = Vec::new();
/// for b in &bytes {
///     tail.extend(std::slice::from_ref(b));
///     while let Some(r) = tail.next_record().unwrap() {
///         seen.push(r);
///     }
/// }
/// assert_eq!(seen, records);
/// tail.finish().unwrap(); // no partial frame left behind
/// ```
#[derive(Debug, Default)]
pub struct TailReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (decoded into the header/records).
    pos: usize,
    /// Absolute stream offset of `buf[0]` (grows on compaction).
    base: u64,
    header: Option<LogHeader>,
    last_seq: Option<u64>,
    /// A decode error is sticky: once the stream is bad, it stays bad.
    failed: bool,
}

impl TailReader {
    /// A reader that has seen no bytes yet.
    pub fn new() -> Self {
        TailReader::default()
    }

    /// A reader resuming mid-stream: the header was already decoded (e.g.
    /// from a checkpoint) and the next bytes fed in are frames following
    /// sequence number `last_seq`.
    pub fn resuming(header: LogHeader, last_seq: Option<u64>, offset: u64) -> Self {
        TailReader {
            header: Some(header),
            last_seq,
            base: offset,
            ..TailReader::default()
        }
    }

    /// Append newly arrived bytes (any chunking, including one byte at a
    /// time).
    ///
    /// Compaction happens here and only here: once the consumed prefix
    /// reaches 64 KiB, it is dropped before the new bytes are appended.
    /// Decoding never moves the buffer, so draining a whole log fed in one
    /// piece costs one pass over it, and a follower fed small appends
    /// keeps at most one append's worth of consumed bytes beyond the
    /// threshold. Offsets stay absolute throughout.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.pos >= COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The decoded header, once its bytes have fully arrived.
    pub fn header(&self) -> Option<&LogHeader> {
        self.header.as_ref()
    }

    /// The last decoded record's sequence number.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Absolute stream offset of the first undecoded byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes buffered but not yet decodable (a partial frame, or nothing).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute offset helper for error reporting.
    fn abs(&self, rel: usize) -> u64 {
        self.base + rel as u64
    }

    /// Try to decode the header from the buffered bytes. `Ok(true)` once
    /// the header is available (now or previously), `Ok(false)` while more
    /// bytes are needed.
    fn try_header(&mut self) -> Result<bool, LogError> {
        if self.header.is_some() {
            return Ok(true);
        }
        // Judge the magic as soon as its bytes exist — a stream that is
        // not a log should fail on the first 4 bytes, not wait forever.
        let have = self.buf.len().min(4);
        // lint:allow(panic-reachable-from-serve): have <= buf.len() and have <= MAGIC.len() by min()
        if self.buf[..have] != MAGIC[..have] {
            return Err(LogError::BadMagic);
        }
        let Some(version) = read_u16(&self.buf, 4) else {
            return Ok(false);
        };
        if version != FORMAT_VERSION {
            return Err(LogError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let Some(meta_len) = read_u32(&self.buf, 8) else {
            return Ok(false);
        };
        let meta_len = meta_len as usize;
        let Some(meta) = self.buf.get(HEADER_FIXED..HEADER_FIXED + meta_len) else {
            return Ok(false);
        };
        let meta = parse_meta(meta, self.abs(HEADER_FIXED))?;
        self.header = Some(LogHeader { version, meta });
        self.pos = HEADER_FIXED + meta_len;
        Ok(true)
    }

    /// Decode the next complete record, if its bytes have all arrived.
    ///
    /// `Ok(None)` means the buffer holds no complete frame *yet* — feed
    /// more bytes and call again. Integrity errors (magic, version,
    /// checksum, JSON, sequence ordering) are hard and sticky: after an
    /// `Err`, every later call returns the stream-corrupt error again.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>, LogError> {
        if self.failed {
            return Err(LogError::Corrupt {
                offset: self.offset(),
                reason: "stream already failed an earlier decode".into(),
            });
        }
        match self.next_record_inner() {
            Err(e) => {
                self.failed = true;
                Err(e)
            }
            ok => ok,
        }
    }

    fn next_record_inner(&mut self) -> Result<Option<LogRecord>, LogError> {
        if !self.try_header()? {
            return Ok(None);
        }
        let at = self.pos;
        let Ok((seq, sum, body)) = split_frame(&self.buf, at) else {
            return Ok(None);
        };
        let end = at + FRAME_FIXED + body.len();
        let record = parse_frame(self.abs(at), seq, sum, body, self.last_seq)?;
        self.pos = end;
        self.last_seq = Some(seq);
        Ok(Some(record))
    }

    /// All records currently decodable, in order.
    pub fn drain(&mut self) -> Result<Vec<LogRecord>, LogError> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Declare the stream complete. A leftover partial frame (or a stream
    /// too short for its own header) becomes the strict
    /// [`LogError::Truncated`] that [`crate::event::decode_binary`] would
    /// have reported.
    pub fn finish(&self) -> Result<(), LogError> {
        if self.pending_bytes() > 0 || self.header.is_none() {
            return Err(LogError::Truncated {
                offset: self.offset(),
            });
        }
        Ok(())
    }
}

/// Follow a binary log file as it grows: each [`poll`](FollowReader::poll)
/// reads the bytes appended since the last poll and returns the records
/// they complete.
///
/// The file may not exist yet when the reader is constructed (the producer
/// creates it on its first write); polls before that simply return no
/// records. Reads are positional (`seek` + `read_to_end`), so the producer
/// and the follower never share a file cursor.
#[derive(Debug)]
pub struct FollowReader {
    path: PathBuf,
    read_bytes: u64,
    tail: TailReader,
}

impl FollowReader {
    /// Follow `path` from its beginning.
    pub fn open(path: &Path) -> Self {
        FollowReader {
            path: path.to_path_buf(),
            read_bytes: 0,
            tail: TailReader::new(),
        }
    }

    /// Read any newly appended bytes and return the records they complete.
    /// A missing file is "nothing yet", not an error.
    ///
    /// # Errors
    /// Besides decode failures, returns [`LogError::ShrunkSource`] when the
    /// file is smaller than the bytes already consumed — the producer
    /// truncated or rotated it, consumed history is gone, and silently
    /// seeking past EOF would stall the follower forever at a stale offset.
    /// The error repeats on every poll until the file grows back past the
    /// committed offset (i.e. it is not masked by a later, unrelated
    /// append); recovery means re-opening the source from scratch.
    pub fn poll(&mut self) -> Result<Vec<LogRecord>, LogError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(LogError::Io(e.to_string())),
        };
        let len = file.metadata()?.len();
        if len < self.read_bytes {
            return Err(LogError::ShrunkSource {
                read_bytes: self.read_bytes,
                len,
            });
        }
        file.seek(SeekFrom::Start(self.read_bytes))?;
        let mut fresh = Vec::new();
        file.read_to_end(&mut fresh)?;
        self.read_bytes += fresh.len() as u64;
        self.tail.extend(&fresh);
        self.tail.drain()
    }

    /// The wrapped incremental decoder (header, last seq, pending bytes).
    pub fn tail(&self) -> &TailReader {
        &self.tail
    }

    /// Total file bytes consumed so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Declare the producer done; fails on a leftover partial frame.
    pub fn finish(&self) -> Result<(), LogError> {
        self.tail.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{decode_binary, encode_binary};
    use serde::Value;

    fn sample() -> (LogHeader, Vec<LogRecord>) {
        let header = LogHeader::new(Value::Object(vec![(
            "kind".into(),
            Value::Str("tail-test".into()),
        )]));
        let records = (1..=20)
            .map(|i| LogRecord {
                seq: i * 3,
                payload: Value::Object(vec![("n".into(), Value::UInt(i))]),
            })
            .collect();
        (header, records)
    }

    #[test]
    fn whole_stream_matches_strict_decoder() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let strict = decode_binary(&bytes).unwrap();
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        let drained = tail.drain().unwrap();
        assert_eq!(tail.header(), Some(&strict.0));
        assert_eq!(drained, strict.1);
        tail.finish().unwrap();
    }

    #[test]
    fn byte_at_a_time_yields_every_record_exactly_once() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let mut tail = TailReader::new();
        let mut seen = Vec::new();
        for b in &bytes {
            tail.extend(std::slice::from_ref(b));
            seen.extend(tail.drain().unwrap());
        }
        assert_eq!(seen, records);
        assert_eq!(tail.last_seq(), Some(60));
        assert_eq!(tail.pending_bytes(), 0);
    }

    #[test]
    fn partial_tail_is_not_an_error_until_finish() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let cut = bytes.len() - 3;
        let mut tail = TailReader::new();
        tail.extend(&bytes[..cut]);
        let drained = tail.drain().unwrap();
        assert_eq!(drained.len(), records.len() - 1, "last record incomplete");
        assert!(matches!(tail.finish(), Err(LogError::Truncated { .. })));
        // The missing bytes arrive: the record completes, finish passes.
        tail.extend(&bytes[cut..]);
        assert_eq!(tail.drain().unwrap(), records[records.len() - 1..]);
        tail.finish().unwrap();
    }

    #[test]
    fn bad_magic_fails_on_the_first_bytes() {
        let mut tail = TailReader::new();
        tail.extend(b"LX");
        assert_eq!(tail.next_record(), Err(LogError::BadMagic));
    }

    #[test]
    fn version_skew_is_rejected() {
        let (header, _) = sample();
        let mut bytes = encode_binary(&header, &[]).unwrap();
        bytes[4] = 99;
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        assert!(matches!(
            tail.next_record(),
            Err(LogError::VersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn checksum_corruption_is_hard_and_sticky() {
        let (header, records) = sample();
        let mut bytes = encode_binary(&header, &records).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        let mut err = None;
        loop {
            match tail.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(LogError::Corrupt { .. })));
        // Sticky: the reader refuses to continue past corruption.
        assert!(tail.next_record().is_err());
    }

    #[test]
    fn non_monotone_seq_is_rejected_mid_stream() {
        let (header, _) = sample();
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
        let bytes = encode_binary(&header, &records).unwrap();
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        assert_eq!(tail.next_record(), Ok(Some(records[0].clone())));
        assert_eq!(
            tail.next_record(),
            Err(LogError::NonMonotoneSeq { prev: 5, next: 5 })
        );
    }

    #[test]
    fn resuming_reader_enforces_seq_continuity() {
        let (header, _) = sample();
        let mut tail = TailReader::resuming(header.clone(), Some(10), 0);
        // Frames only — a resumed stream has no header bytes.
        let stale = encode_binary(
            &header,
            &[LogRecord {
                seq: 10,
                payload: Value::Null,
            }],
        )
        .unwrap();
        let head_len = encode_binary(&header, &[]).unwrap().len();
        tail.extend(&stale[head_len..]);
        assert_eq!(
            tail.next_record(),
            Err(LogError::NonMonotoneSeq { prev: 10, next: 10 })
        );
    }

    #[test]
    fn compaction_preserves_absolute_offsets() {
        let (header, _) = sample();
        let big = LogRecord {
            seq: 1,
            payload: Value::Str("x".repeat(COMPACT_THRESHOLD)),
        };
        let tail_rec = LogRecord {
            seq: 2,
            payload: Value::Null,
        };
        let bytes = encode_binary(&header, &[big.clone(), tail_rec.clone()]).unwrap();
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        assert_eq!(tail.next_record(), Ok(Some(big)));
        assert_eq!(tail.next_record(), Ok(Some(tail_rec)));
        assert_eq!(tail.offset(), bytes.len() as u64);
        tail.finish().unwrap();
    }

    #[test]
    fn extend_drops_the_consumed_prefix_and_decoding_never_moves_it() {
        let (header, _) = sample();
        let records: Vec<LogRecord> = (1..=300)
            .map(|i| LogRecord {
                seq: i,
                payload: Value::Str("x".repeat(1000)),
            })
            .collect();
        let bytes = encode_binary(&header, &records).unwrap();

        // Whole log in one piece: the drain leaves the buffer in place.
        let mut whole = TailReader::new();
        whole.extend(&bytes);
        assert_eq!(whole.drain().unwrap(), records);
        assert_eq!((whole.base, whole.buf.len()), (0, bytes.len()));
        // The next extend drops everything consumed; offsets stay absolute.
        whole.extend(&[]);
        assert_eq!((whole.base, whole.buf.len()), (bytes.len() as u64, 0));
        assert_eq!(whole.offset(), bytes.len() as u64);
        whole.finish().unwrap();

        // Small appends: the buffer stays within one append of the
        // threshold, and records and offsets match the strict decoder.
        let mut tail = TailReader::new();
        let mut seen = Vec::new();
        for piece in bytes.chunks(4096) {
            tail.extend(piece);
            assert!(tail.buf.len() < COMPACT_THRESHOLD + 2 * 4096);
            seen.extend(tail.drain().unwrap());
        }
        assert_eq!(seen, records);
        assert!(tail.base > 0, "compaction ran");
        assert_eq!(tail.offset(), bytes.len() as u64);
        tail.finish().unwrap();
    }

    #[test]
    fn follow_reader_sees_appends_across_polls() {
        let dir = std::env::temp_dir().join(format!("likelab-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.log");
        let _ = std::fs::remove_file(&path);

        let mut follow = FollowReader::open(&path);
        assert_eq!(follow.poll().unwrap(), Vec::new(), "missing file is empty");

        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();
        let first = follow.poll().unwrap();
        assert!(first.len() < records.len());

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut f, &bytes[split..]).unwrap();
        drop(f);
        let mut all = first;
        all.extend(follow.poll().unwrap());
        assert_eq!(all, records);
        follow.finish().unwrap();
        assert_eq!(follow.read_bytes(), bytes.len() as u64);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn follow_reader_detects_mid_follow_truncation() {
        // Regression: a followed file shrinking below the committed offset
        // used to seek past EOF, read zero bytes, and stall silently at the
        // stale offset forever. It must surface ShrunkSource instead.
        let dir = std::env::temp_dir().join(format!("likelab-shrink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.log");
        let _ = std::fs::remove_file(&path);

        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let mut follow = FollowReader::open(&path);
        assert_eq!(follow.poll().unwrap(), records);
        let consumed = follow.read_bytes();

        // Producer rotates: the file is truncated under the follower.
        let short = bytes.len() / 2;
        std::fs::write(&path, &bytes[..short]).unwrap();
        assert_eq!(
            follow.poll(),
            Err(LogError::ShrunkSource {
                read_bytes: consumed,
                len: short as u64,
            })
        );
        // Sticky while the file stays short — no silent stall, no records.
        assert!(matches!(follow.poll(), Err(LogError::ShrunkSource { .. })));
        assert_eq!(follow.read_bytes(), consumed, "offset never rewinds");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
