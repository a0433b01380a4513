//! The write-ahead log.
//!
//! An append-only file of CRC-framed records:
//!
//! ```text
//! frame   := [len u32 LE][crc u32 LE][payload: len bytes]   crc = CRC-32(payload)
//! payload := [tag u8][fields...]
//! string  := [len u32 LE][utf-8 bytes]
//! option  := [present u8][value if present]
//! ```
//!
//! Record grammar (tag → fields):
//!
//! ```text
//! 1 Meta      backend:string mode:string       first record of every log
//! 2 Delete    path:string                      guarded structural delete
//! 3 Insert    parent:string name:string text:option<string>
//! 4 SignSet   id:i64 sign:u8                   decoded only (older logs)
//! 5 SignClear id:i64                           decoded only (older logs)
//! 6 Commit    epoch:u64                        transaction boundary, fsync'd
//! ```
//!
//! A transaction is every record since the previous `Commit` up to and
//! including its own; recovery replays whole committed transactions
//! only. The serving engine writes `Meta` + `Commit` at a fresh boot
//! and then one operation record + `Commit` per update, in one `write`
//! and one fsync. Logs written before signs were re-derived at reopen
//! also hold sign records; they still decode, so such a log reads as
//! committed history that recovery can refuse by its `Meta` tag, rather
//! than as a torn first transaction.
//!
//! On reopen the log is scanned front to back: the first incomplete or
//! CRC-failing frame is the **torn tail** a crash mid-append leaves
//! behind, and everything from the last `Commit` boundary onward (torn
//! bytes and valid-but-uncommitted records alike) is the interrupted
//! transaction. [`Wal::open`] truncates it away — an implicit abort;
//! [`Wal::scan`] leaves the file untouched until
//! [`Wal::truncate_tail`].

use crate::crc::crc32;
use crate::error::{Result, StoreError, StoreErrorKind};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Refuse frames larger than this — no legal record comes close, so a
/// bigger declared length means a corrupt header, not a big record.
const MAX_FRAME: u32 = 1 << 20;

/// Bytes [`Wal::append_batch`] buffers before a `write`: a transaction
/// (one operation record and its `Commit`) fits in one, and the buffer
/// stays below the allocator's default `mmap` threshold, so a large
/// batch reuses one heap block instead of mapping and unmapping one.
const BATCH_BYTES: usize = 64 << 10;

fn wal_records() -> &'static Arc<xac_obs::Counter> {
    static C: OnceLock<Arc<xac_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_wal_records_total"))
}

fn wal_bytes() -> &'static Arc<xac_obs::Counter> {
    static C: OnceLock<Arc<xac_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_wal_appended_bytes_total"))
}

fn wal_fsyncs() -> &'static Arc<xac_obs::Counter> {
    static C: OnceLock<Arc<xac_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_wal_fsyncs_total"))
}

fn wal_commits() -> &'static Arc<xac_obs::Counter> {
    static C: OnceLock<Arc<xac_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_wal_commits_total"))
}

fn wal_replayed() -> &'static Arc<xac_obs::Counter> {
    static C: OnceLock<Arc<xac_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_wal_replayed_records_total"))
}

/// One WAL record. See the module docs for the on-disk grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Identifies the log: which backend and annotate mode wrote it.
    /// Always the first record; recovery refuses a log whose tag does
    /// not match the backend being recovered.
    Meta {
        /// The backend's `Backend::name`, e.g. `relational/column`.
        backend: String,
        /// The annotate mode's canonical spelling.
        mode: String,
    },
    /// A committed guarded delete's path (source text).
    Delete {
        /// XPath source designating the deleted nodes.
        path: String,
    },
    /// A committed guarded insert.
    Insert {
        /// XPath source designating the parent nodes.
        parent: String,
        /// Inserted element name.
        name: String,
        /// Optional text content.
        text: Option<String>,
    },
    /// Sign diff entry of an older log: node/tuple `id` now carries
    /// `sign`. Decoded so such a log is recognised; no longer written.
    SignSet {
        /// The backend-assigned node/tuple id.
        id: i64,
        /// `'+'` or `'-'`.
        sign: char,
    },
    /// Sign diff entry of an older log: node/tuple `id` no longer
    /// carries a sign. Decoded only, like [`WalRecord::SignSet`].
    SignClear {
        /// The backend-assigned node/tuple id.
        id: i64,
    },
    /// Transaction boundary; `epoch` is the backend epoch after the
    /// transaction.
    Commit {
        /// Backend epoch at commit.
        epoch: u64,
    },
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.at + n > self.bytes.len() {
            return Err(StoreError::new(
                StoreErrorKind::Corrupt,
                "wal record truncated inside a field",
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::new(StoreErrorKind::Corrupt, "wal string is not utf-8"))
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

impl WalRecord {
    /// Encode to the payload form (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        self.encode_into(&mut out);
        out
    }

    /// Append the payload form to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Meta { backend, mode } => {
                out.push(1);
                put_string(out, backend);
                put_string(out, mode);
            }
            WalRecord::Delete { path } => {
                out.push(2);
                put_string(out, path);
            }
            WalRecord::Insert { parent, name, text } => {
                out.push(3);
                put_string(out, parent);
                put_string(out, name);
                match text {
                    Some(t) => {
                        out.push(1);
                        put_string(out, t);
                    }
                    None => out.push(0),
                }
            }
            WalRecord::SignSet { id, sign } => {
                out.push(4);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(*sign as u8);
            }
            WalRecord::SignClear { id } => {
                out.push(5);
                out.extend_from_slice(&id.to_le_bytes());
            }
            WalRecord::Commit { epoch } => {
                out.push(6);
                out.extend_from_slice(&epoch.to_le_bytes());
            }
        }
    }

    /// Decode a payload. Trailing bytes are an error — a frame holds
    /// exactly one record.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord> {
        let mut c = Cursor { bytes, at: 0 };
        let record = match c.u8()? {
            1 => WalRecord::Meta { backend: c.string()?, mode: c.string()? },
            2 => WalRecord::Delete { path: c.string()? },
            3 => {
                let parent = c.string()?;
                let name = c.string()?;
                let text = match c.u8()? {
                    0 => None,
                    1 => Some(c.string()?),
                    other => {
                        return Err(StoreError::new(
                            StoreErrorKind::Corrupt,
                            format!("bad option byte {other} in wal insert"),
                        ))
                    }
                };
                WalRecord::Insert { parent, name, text }
            }
            4 => WalRecord::SignSet { id: c.i64()?, sign: c.u8()? as char },
            5 => WalRecord::SignClear { id: c.i64()? },
            6 => WalRecord::Commit { epoch: c.u64()? },
            tag => {
                return Err(StoreError::new(
                    StoreErrorKind::Corrupt,
                    format!("unknown wal record tag {tag}"),
                ))
            }
        };
        if !c.done() {
            return Err(StoreError::new(
                StoreErrorKind::Corrupt,
                "trailing bytes after wal record",
            ));
        }
        Ok(record)
    }
}

/// Running counters for one WAL instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (commits included).
    pub records_appended: u64,
    /// Frame bytes appended.
    pub bytes_appended: u64,
    /// `fsync` calls.
    pub fsyncs: u64,
    /// Commit records appended.
    pub commits: u64,
    /// Committed records returned by the reopen scan.
    pub records_replayed: u64,
    /// Bytes discarded by torn-tail/uncommitted truncation on reopen.
    pub truncated_bytes: u64,
}

/// The write-ahead log over one append-only file.
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Current append offset (== file length).
    len: u64,
    /// Offset just past the last durable `Commit` record.
    last_commit_end: u64,
    stats: WalStats,
}

impl Wal {
    /// Open (creating if absent) the log at `path`, scan it, truncate
    /// any torn or uncommitted tail, and return the log positioned for
    /// appending together with every *committed* record in order.
    pub fn open(path: &Path) -> Result<(Wal, Vec<WalRecord>)> {
        let (mut wal, records) = Wal::scan(path)?;
        wal.truncate_tail()?;
        Ok((wal, records))
    }

    /// [`Wal::open`] without the truncation: the torn or uncommitted
    /// tail stays on disk, so a caller can inspect the committed records
    /// (and refuse the log) before anything is written. The next
    /// [`Wal::truncate_tail`] or [`Wal::abort_to_last_commit`] drops the
    /// tail.
    pub fn scan(path: &Path) -> Result<(Wal, Vec<WalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io(format!("open wal {}", path.display()), e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StoreError::io("read wal", e))?;
        let mut records = Vec::new();
        let mut at = 0usize;
        let mut last_commit_end = 0u64;
        let mut committed = 0usize;
        loop {
            if at + 8 > bytes.len() {
                break; // torn header (or clean EOF)
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
            if len == 0 || len > MAX_FRAME || at + 8 + len as usize > bytes.len() {
                break; // torn payload or garbage header
            }
            let payload = &bytes[at + 8..at + 8 + len as usize];
            if crc32(payload) != crc {
                break; // torn write inside the payload
            }
            let Ok(record) = WalRecord::decode(payload) else {
                break; // framed garbage: treat like a torn tail
            };
            at += 8 + len as usize;
            let is_commit = matches!(record, WalRecord::Commit { .. });
            records.push(record);
            if is_commit {
                last_commit_end = at as u64;
                committed = records.len();
            }
        }
        // Drop valid-but-uncommitted records; their bytes and any torn
        // bytes beyond stay on disk until the tail is truncated.
        records.truncate(committed);
        let len = bytes.len() as u64;
        file.seek(SeekFrom::Start(len))
            .map_err(|e| StoreError::io("seek wal end", e))?;
        let stats = WalStats { records_replayed: records.len() as u64, ..WalStats::default() };
        wal_replayed().add(records.len() as u64);
        Ok((Wal { file, path: path.to_path_buf(), len, last_commit_end, stats }, records))
    }

    /// Truncate the torn or uncommitted tail a [`Wal::scan`] left on
    /// disk, counting its bytes in [`WalStats::truncated_bytes`].
    pub fn truncate_tail(&mut self) -> Result<()> {
        let tail = self.len - self.last_commit_end;
        self.abort_to_last_commit()?;
        self.stats.truncated_bytes += tail;
        Ok(())
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no committed records.
    pub fn is_empty(&self) -> bool {
        self.last_commit_end == 0
    }

    /// Offset just past the last `Commit` record.
    pub fn last_commit_end(&self) -> u64 {
        self.last_commit_end
    }

    /// This log's counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Append `record`'s frame (header + payload) to `out`.
    fn frame_into(out: &mut Vec<u8>, record: &WalRecord) {
        let head = out.len();
        out.extend_from_slice(&[0; 8]);
        record.encode_into(out);
        let len = (out.len() - head - 8) as u32;
        let crc = crc32(&out[head + 8..]);
        out[head..head + 4].copy_from_slice(&len.to_le_bytes());
        out[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
    }

    fn frame(record: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        Wal::frame_into(&mut out, record);
        out
    }

    /// Append one record (no fsync; durability comes from
    /// [`Wal::commit`]).
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.write_frames(&Wal::frame(record), 1)
    }

    /// Append every record of `records`, framed back to back into one
    /// buffer that is written whenever it reaches [`BATCH_BYTES`] and at
    /// the end — one `write` for a transaction's usual few hundred
    /// records, and a bounded buffer for a whole-document one. The log
    /// ends byte-identical to one [`Wal::append`] per record, and the
    /// counters move per record.
    pub fn append_batch(&mut self, records: impl IntoIterator<Item = WalRecord>) -> Result<()> {
        let mut frames = Vec::new();
        let mut count = 0u64;
        for record in records {
            Wal::frame_into(&mut frames, &record);
            count += 1;
            if frames.len() >= BATCH_BYTES {
                self.write_frames(&frames, count)?;
                frames.clear();
                count = 0;
            }
        }
        self.write_frames(&frames, count)
    }

    fn write_frames(&mut self, frames: &[u8], records: u64) -> Result<()> {
        self.file
            .write_all(frames)
            .map_err(|e| StoreError::io("append wal record", e))?;
        self.len += frames.len() as u64;
        self.stats.records_appended += records;
        self.stats.bytes_appended += frames.len() as u64;
        wal_records().add(records);
        wal_bytes().add(frames.len() as u64);
        Ok(())
    }

    /// Append the `Commit` boundary and (when `sync`) fsync everything
    /// up to it — the transaction's durability point.
    pub fn commit(&mut self, epoch: u64, sync: bool) -> Result<()> {
        self.commit_batch([], epoch, sync)
    }

    /// Append `records` and the `Commit` boundary framed into one
    /// buffer — one `write` for a transaction's operation record and its
    /// commit — then (when `sync`) one fsync: [`Wal::append_batch`]
    /// followed by [`Wal::commit`], in one system call fewer.
    pub fn commit_batch(
        &mut self,
        records: impl IntoIterator<Item = WalRecord>,
        epoch: u64,
        sync: bool,
    ) -> Result<()> {
        self.append_batch(records.into_iter().chain([WalRecord::Commit { epoch }]))?;
        if sync {
            self.file
                .sync_data()
                .map_err(|e| StoreError::io("fsync wal", e))?;
            self.stats.fsyncs += 1;
            wal_fsyncs().inc();
        }
        self.last_commit_end = self.len;
        self.stats.commits += 1;
        wal_commits().inc();
        Ok(())
    }

    /// Abort the in-flight transaction: truncate the log back to the
    /// last commit boundary. Idempotent; called before each new
    /// transaction, so a failed transaction's partial records can never
    /// pollute the next one's replay.
    pub fn abort_to_last_commit(&mut self) -> Result<()> {
        if self.len == self.last_commit_end {
            return Ok(());
        }
        self.file
            .set_len(self.last_commit_end)
            .map_err(|e| StoreError::io("truncate aborted wal tail", e))?;
        self.file
            .seek(SeekFrom::Start(self.last_commit_end))
            .map_err(|e| StoreError::io("seek wal end", e))?;
        self.len = self.last_commit_end;
        Ok(())
    }

    /// Fault-injection hook: append only a prefix of `record`'s frame —
    /// the torn write a crash mid-append leaves behind. The reopen scan
    /// stops here and truncates.
    pub fn append_torn(&mut self, record: &WalRecord) -> Result<()> {
        let frame = Wal::frame(record);
        let cut = 8 + (frame.len() - 8) / 2;
        self.file
            .write_all(&frame[..cut])
            .map_err(|e| StoreError::io("append torn wal record", e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("fsync torn wal record", e))?;
        self.len += cut as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xac_store_wal_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_txn() -> Vec<WalRecord> {
        vec![
            WalRecord::Meta { backend: "relational/column".into(), mode: "compiled".into() },
            WalRecord::SignSet { id: 1, sign: '+' },
            WalRecord::SignSet { id: 2, sign: '-' },
            WalRecord::Commit { epoch: 1 },
        ]
    }

    #[test]
    fn record_codec_round_trips() {
        let records = vec![
            WalRecord::Meta { backend: "native/xml".into(), mode: "compiled".into() },
            WalRecord::Delete { path: "//regular".into() },
            WalRecord::Insert { parent: "//patients".into(), name: "patient".into(), text: None },
            WalRecord::Insert {
                parent: "//patient".into(),
                name: "psn".into(),
                text: Some("033".into()),
            },
            WalRecord::SignSet { id: -9, sign: '+' },
            WalRecord::SignClear { id: 42 },
            WalRecord::Commit { epoch: 7 },
        ];
        for r in &records {
            assert_eq!(&WalRecord::decode(&r.encode()).unwrap(), r);
        }
        assert!(WalRecord::decode(&[99]).is_err(), "unknown tag");
        let mut extra = records[1].encode();
        extra.push(0);
        assert!(WalRecord::decode(&extra).is_err(), "trailing byte");
    }

    #[test]
    fn committed_records_survive_reopen() {
        let path = tmp("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, replayed) = Wal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for r in sample_txn() {
                match r {
                    WalRecord::Commit { epoch } => wal.commit(epoch, true).unwrap(),
                    other => wal.append(&other).unwrap(),
                }
            }
            assert_eq!(wal.stats().commits, 1);
            assert_eq!(wal.stats().fsyncs, 1);
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, sample_txn());
        assert_eq!(wal.stats().records_replayed, 4);
        assert_eq!(wal.stats().truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let committed_len;
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for r in sample_txn() {
                match r {
                    WalRecord::Commit { epoch } => wal.commit(epoch, true).unwrap(),
                    other => wal.append(&other).unwrap(),
                }
            }
            committed_len = wal.last_commit_end();
            // A second transaction dies mid-record.
            wal.append(&WalRecord::Delete { path: "//regular".into() }).unwrap();
            wal.append_torn(&WalRecord::SignSet { id: 5, sign: '-' }).unwrap();
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, sample_txn(), "only the committed transaction replays");
        assert!(wal.stats().truncated_bytes > 0);
        assert_eq!(wal.len(), committed_len, "torn + uncommitted bytes truncated");
    }

    #[test]
    fn uncommitted_tail_is_an_implicit_abort() {
        let path = tmp("abort");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for r in sample_txn() {
                match r {
                    WalRecord::Commit { epoch } => wal.commit(epoch, true).unwrap(),
                    other => wal.append(&other).unwrap(),
                }
            }
            // Valid, complete records — but no commit mark.
            wal.append(&WalRecord::SignSet { id: 77, sign: '+' }).unwrap();
            wal.append(&WalRecord::SignSet { id: 78, sign: '+' }).unwrap();
        }
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, sample_txn());
    }

    #[test]
    fn explicit_abort_truncates_in_process() {
        let path = tmp("abort2");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&WalRecord::Meta { backend: "native/xml".into(), mode: "paper".into() })
            .unwrap();
        wal.commit(1, false).unwrap();
        let committed = wal.len();
        wal.append(&WalRecord::SignSet { id: 1, sign: '+' }).unwrap();
        assert!(wal.len() > committed);
        wal.abort_to_last_commit().unwrap();
        assert_eq!(wal.len(), committed);
        // The next transaction appends cleanly after the abort.
        wal.append(&WalRecord::SignSet { id: 2, sign: '-' }).unwrap();
        wal.commit(2, false).unwrap();
        drop(wal);
        let (_, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 4);
        assert!(matches!(replayed[2], WalRecord::SignSet { id: 2, sign: '-' }));
    }

    #[test]
    fn a_batched_append_writes_the_bytes_of_per_record_appends() {
        let mut records = vec![
            WalRecord::Insert { parent: "//patients".into(), name: "patient".into(), text: None },
            WalRecord::SignSet { id: 1 << 40, sign: '-' },
            WalRecord::SignClear { id: 7 },
        ];
        // Past `BATCH_BYTES`, so the batch is written in several parts.
        records.extend((0..5000).map(|id| WalRecord::SignSet { id, sign: '+' }));
        let mut logs = Vec::new();
        for (name, batched) in [("per_record", false), ("batched", true)] {
            let path = tmp(name);
            let _ = std::fs::remove_file(&path);
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&sample_txn()[0]).unwrap();
            if batched {
                wal.append_batch(records.clone()).unwrap();
                wal.append_batch(Vec::new()).unwrap();
            } else {
                for r in &records {
                    wal.append(r).unwrap();
                }
            }
            wal.commit(2, false).unwrap();
            let stats = wal.stats();
            assert_eq!(wal.len(), std::fs::metadata(&path).unwrap().len(), "{name}");
            drop(wal);
            logs.push((std::fs::read(&path).unwrap(), stats));
        }
        assert_eq!(logs[0].0, logs[1].0, "byte-identical logs");
        assert_eq!(logs[0].1, logs[1].1, "identical counters");
        assert_eq!(logs[1].1.records_appended, records.len() as u64 + 2);
        assert!(logs[1].1.bytes_appended > BATCH_BYTES as u64);
        let (_, replayed) = Wal::open(&tmp("batched")).unwrap();
        assert_eq!(&replayed[1..=records.len()], &records[..]);
    }

    #[test]
    fn garbage_header_stops_the_scan() {
        let path = tmp("garbage");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Meta { backend: "native/xml".into(), mode: "paper".into() })
                .unwrap();
            wal.commit(1, true).unwrap();
        }
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF; 32]).unwrap();
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(wal.stats().truncated_bytes, 32);
    }
}
