//! Property tests for the durability layer: WAL records round-trip
//! bit-exactly, any truncation of a segment recovers exactly the complete
//! record prefix (counted as one quarantine event when the cut is dirty),
//! bit flips quarantine the suffix, and foreign-version snapshots are set
//! aside — never panics, never silently-corrupt state.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rockdur::{fault, Wal, MAX_RECORD_BYTES};

static COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Fresh state dir under the system tempdir, removed on drop.
struct StateDir {
    root: PathBuf,
}

impl StateDir {
    fn new(tag: &str) -> StateDir {
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("rockdur-{tag}-{}-{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        StateDir { root }
    }

    fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..=255, 0..200), 1..20)
}

/// Append `records`, force-sync, and drop the handle (clean shutdown).
fn write_all(dir: &Path, records: &[Vec<u8>]) {
    let (mut wal, rec) = Wal::open(dir).expect("open fresh dir");
    assert_eq!(rec.next_seq, 0, "fresh dir starts at seq 0");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_round_trip(records in payloads()) {
        let dir = StateDir::new("roundtrip");
        write_all(dir.path(), &records);

        let (wal, rec) = Wal::open(dir.path()).expect("reopen");
        prop_assert_eq!(rec.quarantined, 0);
        prop_assert_eq!(rec.quarantined_bytes, 0);
        prop_assert!(rec.snapshot.is_none());
        prop_assert_eq!(rec.next_seq, records.len() as u64);
        prop_assert_eq!(wal.next_seq(), records.len() as u64);
        let got: Vec<&Vec<u8>> = rec.records.iter().map(|(_, p)| p).collect();
        let want: Vec<&Vec<u8>> = records.iter().collect();
        prop_assert_eq!(got, want);
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
        }
    }

    #[test]
    fn any_truncation_recovers_the_complete_prefix(
        records in payloads(),
        cut_seed: u64,
    ) {
        let dir = StateDir::new("truncate");
        write_all(dir.path(), &records);

        let seg = fault::newest_segment(dir.path())
            .expect("list dir")
            .expect("segment exists");
        let full = std::fs::metadata(&seg).expect("stat").len();
        let cut = cut_seed % (full + 1);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open segment");
        f.set_len(cut).expect("truncate");
        drop(f);

        // Expected: every record whose bytes fit entirely under the cut.
        let mut boundary = 8u64; // segment magic
        let mut expect = 0usize;
        for r in &records {
            let next = boundary + 8 + r.len() as u64;
            if next > cut {
                break;
            }
            boundary = next;
            expect += 1;
        }
        let clean_cut = cut >= 8 && cut == boundary;

        let (_, rec) = Wal::open(dir.path()).expect("recover from truncation");
        prop_assert_eq!(rec.records.len(), expect,
            "cut at {} of {} must keep exactly the complete prefix", cut, full);
        let got: Vec<&Vec<u8>> = rec.records.iter().map(|(_, p)| p).collect();
        let want: Vec<&Vec<u8>> = records.iter().take(expect).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(rec.quarantined, u64::from(!clean_cut));
        prop_assert_eq!(rec.next_seq, expect as u64);

        // Salvage makes the corruption count exactly once: a second boot
        // sees a clean dir with the same state.
        let (_, again) = Wal::open(dir.path()).expect("boot again");
        prop_assert_eq!(again.quarantined, 0);
        prop_assert_eq!(again.records.len(), expect);
    }

    #[test]
    fn bit_flips_quarantine_the_suffix(
        records in payloads(),
        flip_seed: u64,
    ) {
        let dir = StateDir::new("bitflip");
        write_all(dir.path(), &records);

        let seg = fault::newest_segment(dir.path())
            .expect("list dir")
            .expect("segment exists");
        fault::flip_bit(&seg, flip_seed)
            .expect("flip")
            .expect("segment is not empty");

        let (_, rec) = Wal::open(dir.path()).expect("recover from bit flip");
        prop_assert!(rec.quarantined >= 1, "a flipped bit must be noticed");
        prop_assert!(rec.records.len() < records.len());
        // Whatever survived is a verbatim prefix.
        for (got, want) in rec.records.iter().zip(records.iter()) {
            prop_assert_eq!(&got.1, want);
        }
        // Recovery already salvaged: the next boot is clean.
        let (_, again) = Wal::open(dir.path()).expect("boot again");
        prop_assert_eq!(again.quarantined, 0);
        prop_assert_eq!(again.records.len(), rec.records.len());
    }

    #[test]
    fn snapshot_plus_tail_replay(
        records in payloads(),
        split_seed: u64,
        state in prop::collection::vec(0u8..=255, 0..300),
    ) {
        let dir = StateDir::new("snapshot");
        let split = (split_seed as usize) % records.len();

        let (mut wal, _) = Wal::open(dir.path()).expect("open");
        for r in records.iter().take(split) {
            wal.append(r).expect("append pre-snapshot");
        }
        let snap_seq = wal.snapshot(&state).expect("snapshot");
        assert_eq!(snap_seq, split as u64);
        for r in records.iter().skip(split) {
            wal.append(r).expect("append post-snapshot");
        }
        wal.sync().expect("sync");
        drop(wal);

        let (_, rec) = Wal::open(dir.path()).expect("recover");
        prop_assert_eq!(rec.quarantined, 0);
        let snap = rec.snapshot.expect("snapshot survives");
        prop_assert_eq!(snap.seq, split as u64);
        prop_assert_eq!(&snap.payload, &state);
        let got: Vec<&Vec<u8>> = rec.records.iter().map(|(_, p)| p).collect();
        let want: Vec<&Vec<u8>> = records.iter().skip(split).collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(rec.next_seq, records.len() as u64);
    }

    #[test]
    fn foreign_version_snapshots_are_quarantined(
        records in payloads(),
        state in prop::collection::vec(0u8..=255, 1..100),
    ) {
        let dir = StateDir::new("foreign");
        let (mut wal, _) = Wal::open(dir.path()).expect("open");
        for r in &records {
            wal.append(r).expect("append");
        }
        wal.snapshot(&state).expect("snapshot");
        drop(wal);

        let snap = fault::newest_snapshot(dir.path())
            .expect("list dir")
            .expect("snapshot exists");
        fault::foreign_snapshot_version(&snap).expect("stamp foreign version");

        // The snapshot is unreadable and the pre-snapshot WAL was pruned,
        // so the only sound recovery is an empty state — quarantined and
        // counted, with zero panics.
        let (_, rec) = Wal::open(dir.path()).expect("recover");
        prop_assert!(rec.snapshot.is_none());
        prop_assert!(rec.quarantined >= 1);
        prop_assert!(rec.quarantined_bytes > 0);
        prop_assert_eq!(rec.records.len(), 0);
    }
}

#[test]
fn oversized_records_are_rejected_before_any_write() {
    let dir = StateDir::new("oversize");
    let (mut wal, _) = Wal::open(dir.path()).expect("open");
    let too_big = vec![0u8; MAX_RECORD_BYTES as usize + 1];
    let err = wal
        .append(&too_big)
        .expect_err("oversized append must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // The refused record leaves no trace: recovery sees an empty log.
    drop(wal);
    let (_, rec) = Wal::open(dir.path()).expect("reopen");
    assert_eq!(rec.records.len(), 0);
    assert_eq!(rec.quarantined, 0);
}

#[test]
fn torn_tail_is_seed_deterministic() {
    let mk = |tag: &str| {
        let dir = StateDir::new(tag);
        write_all(dir.path(), &[vec![1u8; 40], vec![2u8; 40], vec![3u8; 40]]);
        dir
    };
    let a = mk("torn-a");
    let b = mk("torn-b");
    let chopped_a = fault::torn_tail(a.path(), 0x5EED).expect("chop a");
    let chopped_b = fault::torn_tail(b.path(), 0x5EED).expect("chop b");
    assert_eq!(chopped_a, chopped_b, "same seed, same crash point");
    assert!(chopped_a >= 1);

    let (_, ra) = Wal::open(a.path()).expect("recover a");
    let (_, rb) = Wal::open(b.path()).expect("recover b");
    assert_eq!(ra.records, rb.records);
    assert_eq!(ra.quarantined, rb.quarantined);
}

#[test]
fn handle_counters_track_this_handle_not_the_directory() {
    let dir = StateDir::new("counters");
    // Explicit fsync cadence of 1: every append hits the sync_data path.
    let (mut wal, _) = Wal::open_with(dir.path(), 1).expect("open");
    for i in 0..5u8 {
        wal.append(&[i; 16]).expect("append");
    }
    wal.snapshot(&[9u8; 32]).expect("snapshot");
    assert_eq!(wal.records_written(), 5);
    assert_eq!(wal.snapshots_written(), 1);
    drop(wal);

    // A fresh handle on the same dir starts its own tally at zero even
    // though the directory already holds a snapshot and pruned history.
    let (mut wal, rec) = Wal::open_with(dir.path(), 1).expect("reopen");
    assert!(rec.snapshot.is_some());
    assert_eq!(wal.records_written(), 0);
    assert_eq!(wal.snapshots_written(), 0);
    wal.append(&[7u8; 16]).expect("append after reopen");
    assert_eq!(wal.records_written(), 1);
}

#[test]
fn a_failed_snapshot_removes_its_tmp_and_prunes_nothing() {
    let dir = StateDir::new("failed-snapshot");
    let (mut wal, _) = Wal::open(dir.path()).expect("open");
    for i in 0..3u8 {
        wal.append(&[i; 8]).expect("append");
    }
    // A directory where the snapshot should land makes the final rename
    // fail after the `.tmp` file was created and written.
    let blocker = dir.path().join(format!("snap-{:016x}.snap", 3));
    std::fs::create_dir_all(blocker.join("occupied")).expect("blocker");
    assert!(wal.snapshot(&[1u8; 64]).is_err());
    assert_eq!(wal.snapshots_written(), 0);
    let tmp_files: Vec<String> = std::fs::read_dir(dir.path())
        .expect("list")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert_eq!(tmp_files, Vec::<String>::new(), "the partial file is gone");
    drop(wal);

    std::fs::remove_dir_all(&blocker).expect("unblock");
    let (_, rec) = Wal::open(dir.path()).expect("reopen");
    assert!(rec.snapshot.is_none());
    assert_eq!(rec.records.len(), 3, "the log behind it was not pruned");
}
