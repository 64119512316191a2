//! Segmented write-ahead log + checksummed snapshots + prefix-disciplined
//! recovery.
//!
//! On-disk layout inside a state dir:
//!
//! ```text
//! wal-<first_seq:016x>.log    segment: 8-byte magic "RHWAL001", then records
//!                             [u32 LE len][u32 LE crc32(payload)][payload]
//! snap-<seq:016x>.snap        snapshot: "RHSNAP01", u32 version, u32 crc,
//!                             u64 seq, u64 len, payload
//! *.quarantined               corrupt bytes preserved for post-mortems
//! ```
//!
//! Record `i` of a segment has sequence number `first_seq + i`; a snapshot
//! at `seq` captures the state after applying every record below `seq`.
//! [`Wal::open`] scans the dir, picks the newest *valid* snapshot, replays
//! the longest contiguous run of valid records after it, and quarantines
//! everything else — each dropped suffix, orphaned segment, or invalid
//! snapshot counts as one quarantine event with its byte size. Damaged
//! segments are salvaged in place (suffix preserved to a sidecar, file
//! truncated to the good prefix) so a corruption is counted exactly once,
//! not on every subsequent boot.

use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::crc;

/// Hard per-record bound, checked before any allocation on both the write
/// and the recovery path (a torn length word must never drive a huge
/// `Vec` reservation).
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// Snapshot payload bound, same role as [`MAX_RECORD_BYTES`].
pub(crate) const MAX_SNAPSHOT_BYTES: u64 = 256 * 1024 * 1024;

/// Snapshot format version; a header carrying any other value is foreign
/// and quarantined, never half-parsed.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Default fsync batching: `sync_data` once every this many appends (and
/// always on [`Wal::sync`]).
pub(crate) const DEFAULT_SYNC_EVERY: u64 = 32;

const SEGMENT_MAGIC: [u8; 8] = *b"RHWAL001";
const SNAPSHOT_MAGIC: [u8; 8] = *b"RHSNAP01";
const RECORD_HEADER_BYTES: usize = 8;
const SNAPSHOT_HEADER_BYTES: usize = 32;

/// The newest valid snapshot found during recovery.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Records below this sequence number are folded into the payload.
    pub seq: u64,
    /// Caller-defined encoded state.
    pub payload: Vec<u8>,
}

/// Everything [`Wal::open`] learned from the state dir. Replaying
/// `records` (in order) on top of the state decoded from `snapshot`
/// reconstructs the durable state; the quarantine counters feed the
/// Dashboard.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Newest valid snapshot, if any survived.
    pub snapshot: Option<Snapshot>,
    /// `(seq, payload)` for the contiguous valid records after the
    /// snapshot, oldest first.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Quarantine events: each corrupt suffix, orphaned segment, or
    /// invalid snapshot counts once.
    pub quarantined: u64,
    /// Total bytes those events set aside.
    pub quarantined_bytes: u64,
    /// Sequence number the reopened WAL continues from.
    pub next_seq: u64,
}

/// Append-only writer over a state dir. Obtain via [`Wal::open`]; every
/// boot recovers first, then appends from `next_seq`.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// Reused per-append encode buffer; grows to the largest record seen
    /// (bounded by [`MAX_RECORD_BYTES`]) and is cleared each append.
    buf: Vec<u8>,
    segment_first_seq: u64,
    next_seq: u64,
    sync_every: u64,
    unsynced: u64,
    records_written: u64,
    snapshots_written: u64,
}

impl Wal {
    /// Open (creating if needed) the state dir with default fsync batching.
    pub fn open(dir: &Path) -> io::Result<(Wal, Recovery)> {
        Wal::open_with(dir, DEFAULT_SYNC_EVERY)
    }

    /// [`Wal::open`] with an explicit fsync cadence (`sync_every` appends
    /// per `sync_data`; clamped to at least 1).
    pub fn open_with(dir: &Path, sync_every: u64) -> io::Result<(Wal, Recovery)> {
        fs::create_dir_all(dir)?;
        remove_stale_tmp(dir);
        let (segments, snapshots) = list_dir(dir)?;
        let mut rec = Recovery::default();

        // Newest valid snapshot wins; invalid ones are quarantined and
        // counted, older valid ones are merely stale (pruned later).
        for (seq, path) in snapshots.iter().rev() {
            let Ok(data) = fs::read(path) else {
                rec.quarantined = rec.quarantined.saturating_add(1);
                quarantine_file(path);
                continue;
            };
            match parse_snapshot(&data, *seq) {
                Some(payload) => {
                    rec.snapshot = Some(Snapshot { seq: *seq, payload });
                    break;
                }
                None => {
                    rec.quarantined = rec.quarantined.saturating_add(1);
                    rec.quarantined_bytes =
                        rec.quarantined_bytes.saturating_add(to_u64(data.len()));
                    quarantine_file(path);
                }
            }
        }
        rec.next_seq = rec.snapshot.as_ref().map(|s| s.seq).unwrap_or(0);

        // Walk segments oldest-first, keeping the contiguous chain. A gap
        // or a damaged record ends the chain; everything past it is
        // unreachable by the prefix discipline and is quarantined whole.
        let mut chain_broken = false;
        let mut tail: Option<(u64, u64, PathBuf)> = None;
        for (first_seq, path) in &segments {
            if chain_broken || *first_seq > rec.next_seq {
                chain_broken = true;
                rec.quarantined = rec.quarantined.saturating_add(1);
                let size = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                rec.quarantined_bytes = rec.quarantined_bytes.saturating_add(size);
                quarantine_file(path);
                continue;
            }
            let scan = scan_segment(path)?;
            let end_seq = first_seq.saturating_add(to_u64(scan.payloads.len()));
            for (i, payload) in scan.payloads.into_iter().enumerate() {
                let seq = first_seq.saturating_add(to_u64(i));
                if seq >= rec.next_seq {
                    rec.records.push((seq, payload));
                }
            }
            if end_seq > rec.next_seq {
                rec.next_seq = end_seq;
            }
            if scan.damaged {
                chain_broken = true;
                rec.quarantined = rec.quarantined.saturating_add(1);
                rec.quarantined_bytes = rec
                    .quarantined_bytes
                    .saturating_add(scan.total_bytes.saturating_sub(scan.good_bytes));
                salvage(path, scan.good_bytes)?;
            }
            tail = Some((*first_seq, end_seq, path.clone()));
        }

        // Append target: the last accepted segment iff it ends exactly at
        // the recovery cursor (always true unless it predates the
        // snapshot); otherwise a fresh segment starting at `next_seq`.
        let (file, segment_first_seq) = match tail {
            Some((first, end, path)) if end == rec.next_seq => {
                (OpenOptions::new().append(true).open(&path)?, first)
            }
            _ => (create_segment(dir, rec.next_seq)?, rec.next_seq),
        };

        let wal = Wal {
            dir: dir.to_path_buf(),
            file,
            buf: Vec::new(),
            segment_first_seq,
            next_seq: rec.next_seq,
            sync_every: sync_every.max(1),
            unsynced: 0,
            records_written: 0,
            snapshots_written: 0,
        };
        Ok((wal, rec))
    }

    /// Append one record, returning its sequence number. Durable after the
    /// next batched `sync_data` (every `sync_every` appends) or an explicit
    /// [`Wal::sync`].
    // rhlint:hot — one call per backend mutation while serving; reuses
    // `self.buf` (clear + extend), single `write_all`, no per-record
    // allocation.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let Ok(len) = u32::try_from(payload.len()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "WAL record exceeds u32 length prefix",
            ));
        };
        if len > MAX_RECORD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "WAL record exceeds MAX_RECORD_BYTES",
            ));
        }
        self.buf.clear();
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf
            .extend_from_slice(&crc::crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.file.write_all(&self.buf)?;
        let seq = self.next_seq;
        self.next_seq = self.next_seq.saturating_add(1);
        self.records_written = self.records_written.saturating_add(1);
        self.unsynced = self.unsynced.saturating_add(1);
        if self.unsynced >= self.sync_every {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(seq)
    }

    /// Force every appended record to stable storage (drain path).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Write a compacted snapshot of the caller's full state, rotate to a
    /// fresh segment, and prune everything the snapshot covers. Returns
    /// the snapshot's sequence number (== `next_seq` at call time). A write
    /// that fails removes its partial `.tmp` file and prunes nothing.
    pub fn snapshot(&mut self, payload: &[u8]) -> io::Result<u64> {
        if to_u64(payload.len()) > MAX_SNAPSHOT_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot exceeds MAX_SNAPSHOT_BYTES",
            ));
        }
        let seq = self.next_seq;
        let mut header = Vec::with_capacity(SNAPSHOT_HEADER_BYTES);
        header.extend_from_slice(&SNAPSHOT_MAGIC);
        header.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        header.extend_from_slice(&crc::crc32(payload).to_le_bytes());
        header.extend_from_slice(&seq.to_le_bytes());
        header.extend_from_slice(&to_u64(payload.len()).to_le_bytes());

        let final_path = self.dir.join(snapshot_name(seq));
        let mut tmp_path = final_path.as_os_str().to_os_string();
        tmp_path.push(".tmp");
        // Header and payload go out as two writes: the payload is never
        // copied behind the header.
        let written = File::create(&tmp_path)
            .and_then(|mut f| {
                f.write_all(&header)?;
                f.write_all(payload)?;
                f.sync_data()
            })
            .and_then(|()| fs::rename(&tmp_path, &final_path));
        if let Err(e) = written {
            let _ = fs::remove_file(&tmp_path);
            return Err(e);
        }
        sync_dir(&self.dir);

        // The WAL must be durable before anything it covered disappears.
        self.sync()?;
        if self.segment_first_seq != seq {
            self.file = create_segment(&self.dir, seq)?;
            self.segment_first_seq = seq;
        }
        let (segments, snapshots) = list_dir(&self.dir)?;
        for (s, p) in segments {
            if s < seq {
                let _ = fs::remove_file(p);
            }
        }
        for (s, p) in snapshots {
            if s < seq {
                let _ = fs::remove_file(p);
            }
        }
        sync_dir(&self.dir);
        self.snapshots_written = self.snapshots_written.saturating_add(1);
        Ok(seq)
    }

    /// Sequence number the next [`Wal::append`] will return.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records appended by *this* handle (not lifetime-of-dir).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Snapshots written by *this* handle.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }
}

/// `usize` → `u64` without `as` (lossless on every supported target; the
/// saturation arm is unreachable but keeps the conversion total).
pub(crate) fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

pub(crate) fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:016x}.snap")
}

/// Parse `<prefix><16 hex digits><suffix>` file names back to their
/// sequence number; anything else (including `*.quarantined` sidecars) is
/// not ours and is left alone.
fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// `(segments, snapshots)`, each sorted ascending by sequence number.
fn list_dir(dir: &Path) -> io::Result<(Vec<(u64, PathBuf)>, Vec<(u64, PathBuf)>)> {
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, "wal-", ".log") {
            segments.push((seq, entry.path()));
        } else if let Some(seq) = parse_seq(name, "snap-", ".snap") {
            snapshots.push((seq, entry.path()));
        }
    }
    segments.sort();
    snapshots.sort();
    Ok((segments, snapshots))
}

/// Drop `*.tmp` leftovers from a snapshot interrupted before its rename.
fn remove_stale_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

struct SegScan {
    payloads: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (magic included).
    good_bytes: u64,
    total_bytes: u64,
    damaged: bool,
}

/// Decode one segment: the longest valid record prefix plus whether a
/// corrupt suffix follows it. Corruption is data here, never `Err`.
fn scan_segment(path: &Path) -> io::Result<SegScan> {
    let data = fs::read(path)?;
    let mut scan = SegScan {
        payloads: Vec::new(),
        good_bytes: 0,
        total_bytes: to_u64(data.len()),
        damaged: false,
    };
    if data.get(..SEGMENT_MAGIC.len()) != Some(&SEGMENT_MAGIC[..]) {
        scan.damaged = true;
        return Ok(scan);
    }
    let mut offset = SEGMENT_MAGIC.len();
    loop {
        if offset == data.len() {
            break;
        }
        let Some(len) = read_u32(&data, offset) else {
            scan.damaged = true;
            break;
        };
        let Some(crc_at) = offset.checked_add(4) else {
            scan.damaged = true;
            break;
        };
        let Some(stored_crc) = read_u32(&data, crc_at) else {
            scan.damaged = true;
            break;
        };
        if len > MAX_RECORD_BYTES {
            scan.damaged = true;
            break;
        }
        let Ok(len_usize) = usize::try_from(len) else {
            scan.damaged = true;
            break;
        };
        let Some(body_start) = offset.checked_add(RECORD_HEADER_BYTES) else {
            scan.damaged = true;
            break;
        };
        let Some(body_end) = body_start.checked_add(len_usize) else {
            scan.damaged = true;
            break;
        };
        let Some(payload) = data.get(body_start..body_end) else {
            // Torn tail: the length word promises more bytes than exist.
            scan.damaged = true;
            break;
        };
        if crc::crc32(payload) != stored_crc {
            scan.damaged = true;
            break;
        }
        scan.payloads.push(payload.to_vec());
        offset = body_end;
    }
    scan.good_bytes = to_u64(offset);
    Ok(scan)
}

/// Validate and extract a snapshot payload; `None` means quarantine (bad
/// magic, foreign version, seq/filename mismatch, bad length, bad CRC).
fn parse_snapshot(data: &[u8], want_seq: u64) -> Option<Vec<u8>> {
    if data.get(..SNAPSHOT_MAGIC.len())? != &SNAPSHOT_MAGIC[..] {
        return None;
    }
    let version = read_u32(data, 8)?;
    if version != SNAPSHOT_VERSION {
        return None;
    }
    let stored_crc = read_u32(data, 12)?;
    let seq = read_u64(data, 16)?;
    if seq != want_seq {
        return None;
    }
    let len = read_u64(data, 24)?;
    if len > MAX_SNAPSHOT_BYTES {
        return None;
    }
    let len_usize = usize::try_from(len).ok()?;
    let end = SNAPSHOT_HEADER_BYTES.checked_add(len_usize)?;
    if end != data.len() {
        return None;
    }
    let payload = data.get(SNAPSHOT_HEADER_BYTES..end)?;
    if crc::crc32(payload) != stored_crc {
        return None;
    }
    Some(payload.to_vec())
}

fn read_u32(data: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let bytes: [u8; 4] = data.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn read_u64(data: &[u8], at: usize) -> Option<u64> {
    let end = at.checked_add(8)?;
    let bytes: [u8; 8] = data.get(at..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Preserve a damaged segment's corrupt suffix to a `.quarantined` sidecar
/// and truncate the live file to its good prefix, so the next boot sees a
/// clean segment and this corruption is counted exactly once.
fn salvage(path: &Path, good_bytes: u64) -> io::Result<()> {
    let data = fs::read(path)?;
    let good = usize::try_from(good_bytes).unwrap_or(data.len());
    if let Some(suffix) = data.get(good..) {
        if !suffix.is_empty() {
            let mut side = path.as_os_str().to_os_string();
            side.push(".quarantined");
            let _ = fs::write(side, suffix);
        }
    }
    let magic_len = to_u64(SEGMENT_MAGIC.len());
    if good_bytes < magic_len {
        // Even the magic was bad: rebuild an empty segment in place.
        let mut f = OpenOptions::new().write(true).truncate(true).open(path)?;
        f.write_all(&SEGMENT_MAGIC)?;
        f.sync_data()?;
    } else {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(good_bytes)?;
        f.sync_data()?;
    }
    Ok(())
}

/// Move a wholly-unusable file aside (invalid snapshot, orphaned segment).
fn quarantine_file(path: &Path) {
    let mut side: OsString = path.as_os_str().to_os_string();
    side.push(".quarantined");
    let _ = fs::rename(path, side);
}

/// Create (or reopen, if an empty one exists from a previous boot) the
/// segment whose first record will be `first_seq`, magic written + synced.
fn create_segment(dir: &Path, first_seq: u64) -> io::Result<File> {
    let path = dir.join(segment_name(first_seq));
    let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
    if f.metadata()?.len() == 0 {
        f.write_all(&SEGMENT_MAGIC)?;
        f.sync_data()?;
        sync_dir(dir);
    }
    Ok(f)
}

/// Best-effort directory fsync so renames/creates survive power loss; a
/// platform that cannot fsync a dir handle degrades gracefully.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}
