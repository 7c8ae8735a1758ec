//! The study log: the record vocabulary and the append-side plumbing.
//!
//! A study run captured with logging on produces a time-ordered stream of
//! [`StudyRecord`]s — every world mutation (as
//! [`WorldEvent`]s), every RNG stream fork (the
//! per-stream provenance), and every measurement artifact the collection
//! pass produced. The stream, prefixed by a header embedding the full
//! [`StudyConfig`](crate::StudyConfig), is *sufficient*: replaying it with
//! [`replay`](crate::replay) reconstructs the final world and dataset
//! byte-for-byte without re-running any model code.
//!
//! [`StudyLog`] is the append side: it assigns monotone sequence numbers,
//! optionally streams frames to a binary sink on disk
//! ([`FrameWriter`]), and keeps an
//! in-memory copy for same-process replay. [`read_study_log`] is the read
//! side, accepting either codec (binary sniffed by magic, JSONL otherwise).

use likelab_graph::PageId;
use likelab_honeypot::{BaselineRecord, CrawlCoverage, LikerRecord, Observation};
use likelab_osn::WorldEvent;
use likelab_sim::event::{
    decode_frames, decode_jsonl, jsonl_header_line, jsonl_record_line, FrameWriter, LogError,
    LogHeader, LogRecord, MAGIC,
};
use likelab_sim::SimTime;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// One record in a study log, in stream order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum StudyRecord {
    /// A world mutation (account, page, friendship, like, termination).
    World(WorldEvent),
    /// RNG provenance: the master stream forked a named child here. Replay
    /// never consumes randomness, but the fork order on record is the
    /// ground truth a resumed run must honor.
    RngFork {
        /// The fork label (`population`, `farms`, `ads`, ...).
        label: String,
    },
    /// A campaign's honeypot page went live.
    CampaignLaunched {
        /// Campaign index (into the config's campaign list).
        campaign: usize,
        /// The honeypot page.
        page: PageId,
        /// Launch time.
        at: SimTime,
    },
    /// A campaign turned out to be a scam (charged, delivered nothing).
    CampaignInactive {
        /// Campaign index.
        campaign: usize,
    },
    /// One crawler poll of a campaign's page.
    CrawlObserved {
        /// Campaign index.
        campaign: usize,
        /// The observation.
        observation: Observation,
    },
    /// Monitoring of a campaign ended; final coverage accounting.
    MonitoringEnded {
        /// Campaign index.
        campaign: usize,
        /// Days monitored (None for inactive campaigns).
        monitoring_days: Option<u64>,
        /// Final crawl coverage (profile-side counters included).
        coverage: CrawlCoverage,
    },
    /// One liker profile collected for a campaign.
    ProfileCollected {
        /// Campaign index.
        campaign: usize,
        /// The collected record.
        record: LikerRecord,
    },
    /// The month-later termination probe of a campaign's likers.
    TerminationsProbed {
        /// Campaign index.
        campaign: usize,
        /// Accounts confirmed gone.
        terminated: usize,
        /// Probes that never got an answer.
        unknown: usize,
    },
    /// The directory baseline sample.
    BaselineSampled {
        /// The sampled records, in draw order.
        records: Vec<BaselineRecord>,
    },
}

impl StudyRecord {
    /// The campaign index this record is pinned to, if any — the unit of
    /// incremental re-analysis.
    pub fn campaign(&self) -> Option<usize> {
        match self {
            StudyRecord::CampaignLaunched { campaign, .. }
            | StudyRecord::CampaignInactive { campaign }
            | StudyRecord::CrawlObserved { campaign, .. }
            | StudyRecord::MonitoringEnded { campaign, .. }
            | StudyRecord::ProfileCollected { campaign, .. }
            | StudyRecord::TerminationsProbed { campaign, .. } => Some(*campaign),
            StudyRecord::World(_)
            | StudyRecord::RngFork { .. }
            | StudyRecord::BaselineSampled { .. } => None,
        }
    }
}

/// Why a logged, checkpointed, or replayed study failed.
#[derive(Debug)]
pub enum StudyError {
    /// A log codec failure (truncation, corruption, version skew...).
    Log(LogError),
    /// A filesystem failure, with the offending path.
    Io {
        /// What was being touched.
        path: PathBuf,
        /// The underlying error.
        error: String,
    },
    /// A record decoded but does not parse as a [`StudyRecord`].
    BadRecord {
        /// The record's sequence number.
        seq: u64,
        /// Why it failed to parse.
        reason: String,
    },
    /// A checkpoint or cache does not match the current run.
    Mismatch(String),
    /// The `--crash-after-checkpoints` test hook fired.
    SimulatedCrash {
        /// Checkpoints written before crashing.
        checkpoints: u64,
    },
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Log(e) => write!(f, "study log: {e}"),
            StudyError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            StudyError::BadRecord { seq, reason } => {
                write!(f, "record seq {seq} is not a study record: {reason}")
            }
            StudyError::Mismatch(why) => write!(f, "mismatch: {why}"),
            StudyError::SimulatedCrash { checkpoints } => {
                write!(f, "simulated crash after {checkpoints} checkpoint(s)")
            }
        }
    }
}

impl std::error::Error for StudyError {}

impl From<LogError> for StudyError {
    fn from(e: LogError) -> Self {
        StudyError::Log(e)
    }
}

/// Tag an I/O error with the path it happened on.
pub(crate) fn io_err(path: &Path, e: impl fmt::Display) -> StudyError {
    StudyError::Io {
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

/// The header metadata a study log carries: enough to replay without any
/// out-of-band knowledge.
pub(crate) fn study_meta(config: &crate::StudyConfig) -> Value {
    Value::Object(vec![
        ("kind".into(), Value::Str("likelab-study-log".into())),
        ("seed".into(), Value::UInt(config.seed)),
        ("config".into(), config.to_value()),
    ])
}

/// Extract the [`StudyConfig`](crate::StudyConfig) embedded in a log header.
pub fn config_from_header(header: &LogHeader) -> Result<crate::StudyConfig, StudyError> {
    let config = header
        .meta
        .get("config")
        .ok_or_else(|| StudyError::Mismatch("log header has no `config`".into()))?;
    Deserialize::from_value(config)
        .map_err(|e| StudyError::Mismatch(format!("log header config: {e}")))
}

/// The append side of a study log: monotone sequence numbers, an optional
/// streaming binary sink, and an in-memory record copy for same-process
/// replay.
pub struct StudyLog {
    header: LogHeader,
    records: Vec<(u64, StudyRecord)>,
    next_seq: u64,
    sink: Option<FrameWriter<BufWriter<File>>>,
    sink_path: Option<PathBuf>,
}

impl StudyLog {
    /// An in-memory log for `config`.
    pub fn in_memory(config: &crate::StudyConfig) -> Self {
        StudyLog {
            header: LogHeader::new(study_meta(config)),
            records: Vec::new(),
            next_seq: 0,
            sink: None,
            sink_path: None,
        }
    }

    /// A log that also streams binary frames to `path` (created/truncated).
    pub fn to_file(config: &crate::StudyConfig, path: &Path) -> Result<Self, StudyError> {
        let header = LogHeader::new(study_meta(config));
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let sink = FrameWriter::new(BufWriter::new(file), &header)?;
        Ok(StudyLog {
            header,
            records: Vec::new(),
            next_seq: 0,
            sink: Some(sink),
            sink_path: Some(path.to_path_buf()),
        })
    }

    /// Reopen `path` for appending after a checkpoint: the file is
    /// truncated back to `bytes` (discarding any frames written after the
    /// checkpoint was pinned) and appending continues at `next_seq`.
    pub fn resume_file(
        config: &crate::StudyConfig,
        path: &Path,
        bytes: u64,
        next_seq: u64,
    ) -> Result<Self, StudyError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(bytes).map_err(|e| io_err(path, e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, e))?;
        let sink = FrameWriter::resume(BufWriter::new(file), bytes, next_seq.checked_sub(1));
        Ok(StudyLog {
            header: LogHeader::new(study_meta(config)),
            records: Vec::new(),
            next_seq,
            sink: Some(sink),
            sink_path: Some(path.to_path_buf()),
        })
    }

    /// Append one record, returning its sequence number.
    pub fn append(&mut self, record: StudyRecord) -> Result<u64, StudyError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(sink) = &mut self.sink {
            sink.append(seq, &record.to_value())?;
        }
        self.records.push((seq, record));
        likelab_obs::metrics::counter("log.append", 1);
        Ok(seq)
    }

    /// Drain the world's buffered mutation events into the log.
    pub fn drain_world(&mut self, world: &mut likelab_osn::OsnWorld) -> Result<(), StudyError> {
        for ev in world.drain_events() {
            self.append(StudyRecord::World(ev))?;
        }
        Ok(())
    }

    /// Flush the sink (no-op for in-memory logs). Call before pinning a
    /// checkpoint offset.
    pub fn flush(&mut self) -> Result<(), StudyError> {
        if let Some(sink) = &mut self.sink {
            sink.flush()?;
        }
        Ok(())
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes written to the sink so far (0 for in-memory logs).
    pub fn bytes_written(&self) -> u64 {
        self.sink.as_ref().map_or(0, FrameWriter::bytes_written)
    }

    /// The sink path, when streaming to disk.
    pub fn sink_path(&self) -> Option<&Path> {
        self.sink_path.as_deref()
    }

    /// The log header.
    pub fn header(&self) -> &LogHeader {
        &self.header
    }

    /// Records captured by *this process* (a resumed run only holds the
    /// post-resume tail; the full stream lives in the sink file).
    pub fn records(&self) -> &[(u64, StudyRecord)] {
        &self.records
    }

    /// Render the captured records as a JSONL log (for diffing/grepping),
    /// lowering one record at a time.
    pub fn to_jsonl(&self) -> Result<String, StudyError> {
        let mut out = String::new();
        jsonl_header_line(&mut out, &self.header);
        for (seq, r) in &self.records {
            jsonl_record_line(&mut out, *seq, &r.to_value());
        }
        Ok(out)
    }

    /// Encode the captured records through the binary framing (header,
    /// length-prefixed checksummed frames) — the same bytes a streamed
    /// sink would hold. Each record is lowered, framed and dropped before
    /// the next, so the log never exists as one value tree. The benches
    /// (`world_log`, `world_serve`, likebench) and the serve parity tests
    /// use it to get a log's bytes without a disk sink.
    pub fn to_binary(&self) -> Result<Vec<u8>, StudyError> {
        let mut out = FrameWriter::new(Vec::new(), &self.header)?;
        for (seq, r) in &self.records {
            out.append(*seq, &r.to_value())?;
        }
        Ok(out.into_inner())
    }
}

/// Parse log records into study records as they arrive, dropping each
/// decoded payload once parsed. Errors keep the precedence of decoding the
/// whole stream first: a framing error anywhere beats an unparseable
/// record, and among unparseable records the first one is named by its
/// sequence number.
pub(crate) fn parse_records(
    records: impl IntoIterator<Item = Result<LogRecord, LogError>>,
) -> Result<Vec<(u64, StudyRecord)>, StudyError> {
    let mut parsed = Vec::new();
    let mut bad = None;
    for r in records {
        let r = r?;
        if bad.is_some() {
            continue;
        }
        match Deserialize::from_value(&r.payload) {
            Ok(record) => parsed.push((r.seq, record)),
            Err(e) => {
                bad = Some(StudyError::BadRecord {
                    seq: r.seq,
                    reason: e.to_string(),
                })
            }
        }
    }
    bad.map_or(Ok(parsed), Err)
}

/// Read a study log from disk: binary (sniffed by the `LLOG` magic) or
/// JSONL. Strict end to end — truncation, corruption, version skew, or an
/// unparseable record is a hard error, never a partial stream.
pub fn read_study_log(path: &Path) -> Result<(LogHeader, Vec<(u64, StudyRecord)>), StudyError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    if bytes.starts_with(&MAGIC) {
        let (header, frames) = decode_frames(&bytes)?;
        return Ok((header, parse_records(frames)?));
    }
    let text = String::from_utf8(bytes)
        .map_err(|e| io_err(path, format!("not utf-8 (and not a binary log): {e}")))?;
    let (header, raw) = decode_jsonl(&text)?;
    Ok((header, parse_records(raw.into_iter().map(Ok))?))
}

/// Write a text file atomically: write to a sibling `.tmp`, then rename.
pub(crate) fn write_atomic(path: &Path, content: &str) -> Result<(), StudyError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(content.as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        f.flush().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fork(seq: u64) -> Result<LogRecord, LogError> {
        let payload = StudyRecord::RngFork {
            label: "population".into(),
        }
        .to_value();
        Ok(LogRecord { seq, payload })
    }

    fn junk(seq: u64) -> Result<LogRecord, LogError> {
        Ok(LogRecord {
            seq,
            payload: Value::Str("not a study record".into()),
        })
    }

    #[test]
    fn parse_records_streams_with_whole_stream_error_precedence() {
        let parsed = parse_records([fork(0), fork(1)]).unwrap();
        assert_eq!(parsed.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [0, 1]);
        // The first unparseable record is named ...
        assert!(matches!(
            parse_records([fork(0), junk(1), junk(2)]),
            Err(StudyError::BadRecord { seq: 1, .. })
        ));
        // ... unless the stream fails to decode further on.
        let cut = Err(LogError::Truncated { offset: 99 });
        assert!(matches!(
            parse_records([fork(0), junk(1), fork(2), cut]),
            Err(StudyError::Log(LogError::Truncated { offset: 99 }))
        ));
    }
}
