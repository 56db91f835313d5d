//! The disk-backed persistent result-cache tier.
//!
//! A restarted server process loses the in-memory run cache, and every
//! cell it was keeping hot must re-simulate — seconds of annealing and
//! cycle-level simulation per cell. But a completed run is a pure function
//! of its `(Bench, BuildCfg)` fingerprint, and its serveable surface
//! (cycles, commands issued, verification verdict, canonical report text)
//! is tiny. This module persists exactly that surface so a restarted
//! server warm-starts from disk instead of re-simulating.
//!
//! ## On-disk layout
//!
//! A tier directory holds two files:
//!
//! * `segment.log` — an **append-only segment**: every newly simulated
//!   run is appended as one self-checking record. Appends are flushed
//!   immediately; a crash can only truncate the tail, never corrupt the
//!   prefix.
//! * `snapshot.bin` — a **compacted snapshot** of the whole index,
//!   written to a temporary file, fsynced, then atomically renamed into
//!   place ([`PersistentTier::snapshot`]); the segment is truncated
//!   afterwards. A reader therefore sees either the old snapshot or the
//!   new one, never a half-written hybrid.
//!
//! Both files share one format: an 8-byte magic + format-version header,
//! then a sequence of records. Each record carries its 128-bit key
//! fingerprint, the persisted run fields, and a CRC-32 over everything
//! before the checksum. Loading stops at the first record that fails its
//! CRC, truncates mid-field, or overruns a sanity bound — the valid
//! prefix is kept (append-only means it is trustworthy) and the failure
//! surfaces as a structured [`ColdStart`], **never** a panic. A snapshot
//! with the wrong format version is skipped whole: its record layout
//! cannot be trusted even where the CRCs pass.
//!
//! The tier never stores timed-out, faulted, or degraded runs; the
//! engine only appends results it also admitted to the in-memory cache,
//! so every disk entry is a completed, trustworthy run.

use revel_workloads::WorkloadRun;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File-format version. Bump whenever the record layout (or the
/// fingerprint recipe in [`fingerprint`]) changes; old files then surface
/// as a structured version-mismatch cold start instead of misdecoding.
pub const FORMAT_VERSION: u32 = 1;

/// Magic prefix of every tier file.
const MAGIC: &[u8; 8] = b"RVLCACH\0";

/// Sanity bound on one persisted string (verification error or canonical
/// text). A corrupted length field must not make the loader allocate
/// gigabytes before the CRC catches it.
const MAX_FIELD_BYTES: u32 = 16 * 1024 * 1024;

/// The append-only segment file name inside a tier directory.
const SEGMENT: &str = "segment.log";

/// The compacted snapshot file name inside a tier directory.
const SNAPSHOT: &str = "snapshot.bin";

/// 128-bit cache-key fingerprint: two independent 64-bit FNV-1a passes
/// over a stable rendering of the key. Deliberately *not* the standard
/// library's `DefaultHasher` (its algorithm and keying are unspecified
/// and may change between releases); an on-disk format needs a hash that
/// is stable across processes, toolchains, and time.
pub fn fingerprint(key: &str) -> (u64, u64) {
    (fnv1a(key.as_bytes(), 0xcbf2_9ce4_8422_2325), fnv1a(key.as_bytes(), 0x9e37_79b9_7f4a_7c15))
}

fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) over `bytes`.
/// Table-free: tier records are small and loads are one-shot, so the
/// 8-iterations-per-byte loop is not worth a lookup table.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The serveable surface of one completed run, as persisted on disk.
///
/// Deliberately *not* a full `WorkloadRun`: the simulator's in-memory
/// report (stepper internals, deadlock snapshots, fault sections) exists
/// only for runs that actually executed in this process. What a server
/// needs to answer a repeat request is the result summary plus the
/// byte-stable canonical report text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedRun {
    /// Total machine cycles of the completed run.
    pub cycles: u64,
    /// Stream commands issued by the control core.
    pub commands_issued: u64,
    /// Numerical verification verdict (`Err` carries the failure text).
    pub verified: Result<(), String>,
    /// The run report's byte-stable canonical rendering
    /// (`RunReport::canonical_text`), the artifact warm comparisons diff.
    pub canonical_text: String,
}

impl From<&WorkloadRun> for PersistedRun {
    fn from(run: &WorkloadRun) -> Self {
        PersistedRun {
            cycles: run.cycles,
            commands_issued: run.report.commands_issued,
            verified: run.verified.clone(),
            canonical_text: run.report.canonical_text(),
        }
    }
}

/// One file the loader had to give up on, surfaced as data (never a
/// panic): the restarted server cold-starts for the lost suffix and
/// re-simulates on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdStart {
    /// File name inside the tier directory (`segment.log` /
    /// `snapshot.bin`).
    pub file: String,
    /// What was wrong (truncated record, checksum mismatch, version
    /// mismatch, ...).
    pub reason: String,
}

impl std::fmt::Display for ColdStart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.file, self.reason)
    }
}

/// What [`PersistentTier::open`] recovered from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart {
    /// Entries loaded into the index (serveable without simulation).
    pub entries: usize,
    /// Files (or file suffixes) that failed validation and were skipped.
    pub cold_starts: Vec<ColdStart>,
}

/// A disk-backed result-cache tier: an in-memory index over an
/// append-only segment plus an atomically-replaced snapshot.
pub struct PersistentTier {
    dir: PathBuf,
    index: HashMap<(u64, u64), PersistedRun>,
    segment: File,
    /// Set when an append failed partway: the segment tail may hold a
    /// torn record, and appending more would bury valid records behind
    /// garbage (the loader keeps only the prefix before the first
    /// invalid byte). A wounded tier refuses further appends — lookups
    /// still serve the in-memory index — until [`PersistentTier::snapshot`]
    /// rewrites the whole tier and heals it.
    wounded: bool,
}

impl PersistentTier {
    /// Opens (creating if needed) the tier rooted at `dir` and loads
    /// every valid record: the snapshot first, then the segment written
    /// since it. Corrupt files degrade to [`ColdStart`] entries in the
    /// returned [`WarmStart`]; only real I/O failures (permissions, a
    /// vanished directory) are `Err`. A segment is cut back to its last
    /// whole record before anything is appended, so a torn tail a crash
    /// left cannot hide the records written after the restart.
    ///
    /// # Errors
    /// Propagates directory-creation and file-open failures.
    pub fn open(dir: &Path) -> io::Result<(PersistentTier, WarmStart)> {
        fs::create_dir_all(dir)?;
        let mut index = HashMap::new();
        let mut cold_starts = Vec::new();
        let mut segment_whole = None;
        for file in [SNAPSHOT, SEGMENT] {
            let path = dir.join(file);
            if !path.exists() {
                continue;
            }
            let bytes = fs::read(&path)?;
            let (whole, loaded) = load_records(&bytes, file, &mut index);
            if let Err(reason) = loaded {
                cold_starts.push(ColdStart { file: file.to_string(), reason });
                if file == SEGMENT {
                    segment_whole = Some(whole);
                }
            }
        }
        let segment_path = dir.join(SEGMENT);
        let mut segment = OpenOptions::new().create(true).append(true).open(&segment_path)?;
        if let Some(whole) = segment_whole {
            segment.set_len(whole as u64)?;
        }
        // A new segment, or one whose header was bad and is cut to nothing.
        if segment.metadata()?.len() == 0 {
            segment.write_all(&header())?;
            segment.flush()?;
        }
        let warm = WarmStart { entries: index.len(), cold_starts };
        Ok((PersistentTier { dir: dir.to_path_buf(), index, segment, wounded: false }, warm))
    }

    /// Entries currently serveable from the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Looks `fp` up in the in-memory index (which mirrors disk exactly).
    pub fn lookup(&self, fp: (u64, u64)) -> Option<&PersistedRun> {
        self.index.get(&fp)
    }

    /// Appends `run` under `fp` to the segment and the index. A
    /// fingerprint already present is skipped (`Ok(false)`): the tier is
    /// append-only, and one entry per configuration is the invariant the
    /// snapshot compaction restores anyway.
    ///
    /// The record is written in two halves around the
    /// `persist.append.mid-write` failpoint, so a crash test can abort
    /// the process with a genuinely torn record on disk — a crash
    /// between two `write_all` calls is the real-world shape an
    /// in-kernel buffer cannot paper over. `persist.append.before-write`
    /// and `persist.append.before-flush` bracket the other two
    /// crash-critical instants.
    ///
    /// # Errors
    /// Propagates write failures (the index is only updated after the
    /// record is flushed, so a failed append never desyncs index and
    /// disk). Any failure wounds the tier (see [`PersistentTier::wounded`]):
    /// the segment tail may be torn, and further appends are refused
    /// with an error until a successful [`PersistentTier::snapshot`]
    /// rewrites the tier. This is the fsync-gate lesson — after a failed
    /// write the on-disk state is unknown, and pretending otherwise is
    /// how torn tails bury good records.
    pub fn append(&mut self, fp: (u64, u64), run: &PersistedRun) -> io::Result<bool> {
        if self.index.contains_key(&fp) {
            return Ok(false);
        }
        if self.wounded {
            return Err(io::Error::other(
                "tier wounded by an earlier failed append; snapshot() heals it",
            ));
        }
        let record = encode_record(fp, run);
        if let Err(e) = self.write_record(&record) {
            self.wounded = true;
            return Err(e);
        }
        self.index.insert(fp, run.clone());
        Ok(true)
    }

    fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        revel_failpoint::hit_with("persist.append.before-write", || self.ctx())?;
        let split = record.len() / 2;
        self.segment.write_all(&record[..split])?;
        revel_failpoint::hit_with("persist.append.mid-write", || self.ctx())?;
        self.segment.write_all(&record[split..])?;
        revel_failpoint::hit_with("persist.append.before-flush", || self.ctx())?;
        self.segment.flush()
    }

    /// Failpoint context: arms filtered on this tier's directory fire
    /// only here, which is what keeps concurrent tests independent.
    fn ctx(&self) -> String {
        self.dir.display().to_string()
    }

    /// True when an earlier failed append left the segment tail in an
    /// unknown state and the tier is refusing appends.
    pub fn wounded(&self) -> bool {
        self.wounded
    }

    /// Compacts the whole index into a fresh snapshot: write to a
    /// temporary file, fsync, atomically rename over `snapshot.bin`, then
    /// truncate the segment. A crash at any point leaves either the old
    /// or the new snapshot in place (plus, at worst, a stale segment
    /// whose records are re-deduplicated on load).
    ///
    /// Failpoints bracket the three crash-critical instants —
    /// `persist.snapshot.pre-sync` (data written, not yet durable),
    /// `persist.snapshot.pre-rename` (durable under the temporary name),
    /// and `persist.snapshot.post-rename` (renamed, segment not yet
    /// truncated) — so a crash test can abort at each and prove a
    /// reader still sees a whole snapshot, old or new.
    ///
    /// # Errors
    /// Propagates write/rename failures. A failure leaves the previous
    /// snapshot and the full segment untouched, so nothing is lost; the
    /// tier's wounded flag (if set) stays set until a snapshot succeeds.
    pub fn snapshot(&mut self) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&header())?;
            // Deterministic record order (sorted by fingerprint), so
            // identical indices produce byte-identical snapshots.
            let mut keys: Vec<(u64, u64)> = self.index.keys().copied().collect();
            keys.sort_unstable();
            for fp in keys {
                let run = &self.index[&fp];
                f.write_all(&encode_record(fp, run))?;
            }
            revel_failpoint::hit_with("persist.snapshot.pre-sync", || self.ctx())?;
            f.sync_all()?;
        }
        revel_failpoint::hit_with("persist.snapshot.pre-rename", || self.ctx())?;
        fs::rename(&tmp, self.dir.join(SNAPSHOT))?;
        revel_failpoint::hit_with("persist.snapshot.post-rename", || self.ctx())?;
        // The snapshot now covers everything; restart the segment.
        let mut segment = File::create(self.dir.join(SEGMENT))?;
        segment.write_all(&header())?;
        segment.flush()?;
        self.segment = OpenOptions::new().append(true).open(self.dir.join(SEGMENT))?;
        // The rewrite subsumed any torn segment tail: the tier is whole.
        self.wounded = false;
        Ok(())
    }
}

fn header() -> Vec<u8> {
    let mut h = MAGIC.to_vec();
    h.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    h
}

fn encode_record(fp: (u64, u64), run: &PersistedRun) -> Vec<u8> {
    let err = match &run.verified {
        Ok(()) => "",
        Err(e) => e.as_str(),
    };
    let mut r = Vec::with_capacity(49 + err.len() + run.canonical_text.len());
    r.extend_from_slice(&fp.0.to_le_bytes());
    r.extend_from_slice(&fp.1.to_le_bytes());
    r.extend_from_slice(&run.cycles.to_le_bytes());
    r.extend_from_slice(&run.commands_issued.to_le_bytes());
    r.push(u8::from(run.verified.is_ok()));
    r.extend_from_slice(&(err.len() as u32).to_le_bytes());
    r.extend_from_slice(err.as_bytes());
    r.extend_from_slice(&(run.canonical_text.len() as u32).to_le_bytes());
    r.extend_from_slice(run.canonical_text.as_bytes());
    let crc = crc32(&r);
    r.extend_from_slice(&crc.to_le_bytes());
    r
}

/// A bounds-checked little-endian cursor over one loaded file.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(format!("truncated record at byte {}", self.pos)),
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()?;
        if len > MAX_FIELD_BYTES {
            return Err(format!("field length {len} exceeds the {MAX_FIELD_BYTES}-byte bound"));
        }
        String::from_utf8(self.take(len as usize)?.to_vec()).map_err(|_| "not UTF-8".to_string())
    }
}

/// Loads every valid record of one file into `index` (later records win,
/// which is how segment entries shadow snapshot entries on reload).
/// Returns the end of the last whole record (0 if the header is bad), and
/// `Err(reason)` if loading stopped at an invalid byte; everything decoded
/// before it stays in `index`.
fn load_records(
    bytes: &[u8],
    file: &str,
    index: &mut HashMap<(u64, u64), PersistedRun>,
) -> (usize, Result<(), String>) {
    let mut whole = 0;
    let loaded = read_records(&mut Cursor { bytes, pos: 0 }, file, index, &mut whole);
    (whole, loaded)
}

/// `load_records`' decoder: advances `whole` past each record it keeps.
fn read_records(
    c: &mut Cursor<'_>,
    file: &str,
    index: &mut HashMap<(u64, u64), PersistedRun>,
    whole: &mut usize,
) -> Result<(), String> {
    let bytes = c.bytes;
    if c.take(MAGIC.len()).map_err(|_| "missing file header".to_string())? != MAGIC {
        return Err(format!("{file}: bad magic (not a tier file)"));
    }
    let version = c.u32().map_err(|_| "missing format version".to_string())?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "{file}: format version {version} does not match this build's {FORMAT_VERSION}"
        ));
    }
    *whole = c.pos;
    while c.pos < bytes.len() {
        let start = c.pos;
        let fp = (c.u64()?, c.u64()?);
        let cycles = c.u64()?;
        let commands_issued = c.u64()?;
        let verified_byte = c.u8()?;
        let err = c.string()?;
        let canonical_text = c.string()?;
        let stored_crc = c.u32()?;
        let actual = crc32(&bytes[start..c.pos - 4]);
        if stored_crc != actual {
            return Err(format!(
                "checksum mismatch in record at byte {start} \
                 (stored {stored_crc:#010x}, computed {actual:#010x})"
            ));
        }
        if verified_byte > 1 {
            return Err(format!("record at byte {start}: bad verified flag {verified_byte}"));
        }
        let verified = if verified_byte == 1 { Ok(()) } else { Err(err) };
        index.insert(fp, PersistedRun { cycles, commands_issued, verified, canonical_text });
        *whole = c.pos;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("revel-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(i: u64) -> ((u64, u64), PersistedRun) {
        (
            fingerprint(&format!("cell-{i}")),
            PersistedRun {
                cycles: 1000 + i,
                commands_issued: 40 + i,
                verified: if i.is_multiple_of(2) {
                    Ok(())
                } else {
                    Err(format!("lane {i} diverged"))
                },
                canonical_text: format!("cycles={}\ncommands_issued={}\n", 1000 + i, 40 + i),
            },
        )
    }

    #[test]
    fn fingerprint_is_stable_and_collision_resistant_for_distinct_keys() {
        // Pinned values: the fingerprint is an on-disk format. If this
        // test breaks, FORMAT_VERSION must be bumped.
        assert_eq!(fingerprint(""), (0xcbf2_9ce4_8422_2325, 0x9e37_79b9_7f4a_7c15));
        assert_ne!(fingerprint("a"), fingerprint("b"));
        assert_eq!(fingerprint("gemm|revel"), fingerprint("gemm|revel"));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_lookup_roundtrip_survives_reopen() {
        let dir = tmp_dir("roundtrip");
        let (mut tier, warm) = PersistentTier::open(&dir).expect("open");
        assert_eq!(warm.entries, 0);
        assert!(warm.cold_starts.is_empty());
        let (fp, run) = sample(1);
        assert!(tier.append(fp, &run).expect("append"));
        assert!(!tier.append(fp, &run).expect("dup append"), "duplicates are skipped");
        assert_eq!(tier.lookup(fp), Some(&run));
        drop(tier);
        let (tier, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 1, "segment records survive a restart");
        assert!(warm.cold_starts.is_empty());
        assert_eq!(tier.lookup(fp), Some(&run));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_segment_restarts() {
        let dir = tmp_dir("snapshot");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let entries: Vec<_> = (0..5).map(sample).collect();
        for (fp, run) in &entries {
            tier.append(*fp, run).expect("append");
        }
        tier.snapshot().expect("snapshot");
        // Post-snapshot the segment holds only its header.
        assert_eq!(fs::read(dir.join(SEGMENT)).expect("segment"), header());
        // New appends after the snapshot land in the fresh segment...
        let (fp6, run6) = sample(6);
        tier.append(fp6, &run6).expect("append post-snapshot");
        drop(tier);
        // ...and a reopen sees snapshot + segment merged.
        let (tier, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 6);
        assert!(warm.cold_starts.is_empty());
        for (fp, run) in &entries {
            assert_eq!(tier.lookup(*fp), Some(run));
        }
        assert_eq!(tier.lookup(fp6), Some(&run6));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_segment_keeps_the_valid_prefix_and_reports_a_cold_start() {
        let dir = tmp_dir("truncated");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let (fp1, run1) = sample(1);
        let (fp2, run2) = sample(2);
        tier.append(fp1, &run1).expect("append");
        tier.append(fp2, &run2).expect("append");
        drop(tier);
        // Chop the last 7 bytes off the segment, as a crash mid-append
        // would.
        let path = dir.join(SEGMENT);
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate");
        let (tier, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 1, "the intact first record survives");
        assert_eq!(warm.cold_starts.len(), 1);
        assert_eq!(warm.cold_starts[0].file, SEGMENT);
        assert!(
            warm.cold_starts[0].reason.contains("truncated")
                || warm.cold_starts[0].reason.contains("checksum"),
            "structured reason, got: {}",
            warm.cold_starts[0].reason
        );
        assert_eq!(tier.lookup(fp1), Some(&run1));
        assert_eq!(tier.lookup(fp2), None, "the torn record must not be served");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_after_a_torn_tail_survive_the_next_restart() {
        let dir = tmp_dir("torn-then-append");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        for i in [1, 2] {
            let (fp, run) = sample(i);
            tier.append(fp, &run).expect("append");
        }
        drop(tier);
        // Half a third record, as a crash mid-append leaves it.
        let (fp3, run3) = sample(3);
        let record = encode_record(fp3, &run3);
        let mut segment = OpenOptions::new().append(true).open(dir.join(SEGMENT)).expect("open");
        segment.write_all(&record[..record.len() / 2]).expect("torn write");
        drop(segment);
        let (mut tier, warm) = PersistentTier::open(&dir).expect("reopen after the crash");
        assert_eq!((warm.entries, warm.cold_starts.len()), (2, 1), "{:?}", warm.cold_starts);
        tier.append(fp3, &run3).expect("append after the restart");
        drop(tier);
        let (tier, warm) = PersistentTier::open(&dir).expect("reopen after a second restart");
        assert_eq!(warm.entries, 3);
        assert!(warm.cold_starts.is_empty(), "the torn tail was cut: {:?}", warm.cold_starts);
        assert_eq!(tier.lookup(fp3), Some(&run3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_fails_the_checksum_and_reports_a_cold_start() {
        let dir = tmp_dir("bitflip");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let (fp, run) = sample(3);
        tier.append(fp, &run).expect("append");
        drop(tier);
        // Flip one bit inside the record payload (past the 12-byte
        // header, before the trailing CRC).
        let path = dir.join(SEGMENT);
        let mut bytes = fs::read(&path).expect("read");
        let target = header().len() + 20;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let (tier, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 0, "a corrupt record must not be served");
        assert_eq!(warm.cold_starts.len(), 1);
        assert!(
            warm.cold_starts[0].reason.contains("checksum mismatch"),
            "got: {}",
            warm.cold_starts[0].reason
        );
        assert!(tier.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatched_snapshot_is_skipped_whole() {
        let dir = tmp_dir("version");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let (fp, run) = sample(4);
        tier.append(fp, &run).expect("append");
        tier.snapshot().expect("snapshot");
        drop(tier);
        // Rewrite the snapshot's version field to a future format.
        let path = dir.join(SNAPSHOT);
        let mut bytes = fs::read(&path).expect("read");
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        let (tier, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 0, "a version-mismatched snapshot must not be decoded");
        assert_eq!(warm.cold_starts.len(), 1);
        assert_eq!(warm.cold_starts[0].file, SNAPSHOT);
        assert!(
            warm.cold_starts[0].reason.contains("format version 99"),
            "got: {}",
            warm.cold_starts[0].reason
        );
        assert!(tier.lookup(fp).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_length_field_is_rejected_before_allocation() {
        let dir = tmp_dir("oversized");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let (fp, run) = sample(5);
        tier.append(fp, &run).expect("append");
        drop(tier);
        // Overwrite the error-length field (offset 33 into the record)
        // with an absurd length; the loader must reject it without trying
        // to allocate.
        let path = dir.join(SEGMENT);
        let mut bytes = fs::read(&path).expect("read");
        let off = header().len() + 33;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).expect("rewrite");
        let (_, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 0);
        assert!(
            warm.cold_starts[0].reason.contains("exceeds"),
            "got: {}",
            warm.cold_starts[0].reason
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Satellite property test: truncate a K-record segment at **every**
    /// byte offset and reopen. The recovered index must be exactly the
    /// records whose CRC frames fit below the cut — never a panic, never
    /// a garbage record, and a cold start exactly when the cut is not on
    /// a record boundary.
    #[test]
    fn every_truncation_offset_recovers_exactly_the_full_crc_frames() {
        let dir = tmp_dir("every-offset");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        // Varied record lengths (the error and text fields grow with i),
        // so cuts land in every field of every record shape.
        let entries: Vec<_> = (0..4).map(sample).collect();
        // Byte offset at which each record ends (monotone; starts with
        // the 12-byte header).
        let mut bounds = vec![header().len()];
        for (fp, run) in &entries {
            tier.append(*fp, run).expect("append");
            bounds.push(fs::metadata(dir.join(SEGMENT)).expect("segment metadata").len() as usize);
        }
        drop(tier);
        let full = fs::read(dir.join(SEGMENT)).expect("read segment");
        assert_eq!(*bounds.last().expect("bounds"), full.len());

        for cut in 0..=full.len() {
            fs::write(dir.join(SEGMENT), &full[..cut]).expect("truncate");
            let (reopened, warm) = PersistentTier::open(&dir).expect("reopen never errors");
            // Number of whole records at or below the cut (the header
            // itself counts as "record 0 fits").
            let whole =
                if cut >= bounds[0] { bounds.iter().filter(|&&b| b <= cut).count() - 1 } else { 0 };
            assert_eq!(warm.entries, whole, "cut at byte {cut}: exactly the full frames load");
            for (i, (fp, run)) in entries.iter().enumerate() {
                let expect = if i < whole { Some(run) } else { None };
                assert_eq!(reopened.lookup(*fp), expect, "cut at byte {cut}, record {i}");
            }
            let clean = bounds.contains(&cut);
            assert_eq!(
                warm.cold_starts.len(),
                usize::from(!clean),
                "cut at byte {cut}: a cold start exactly when the cut tears a frame \
                 (got {:?})",
                warm.cold_starts
            );
            // `open` appended nothing and the truncated file is intact
            // for the next iteration's rewrite.
            drop(reopened);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// An injected I/O error mid-append (the failpoint splits the record
    /// write in half) wounds the tier: the failed entry is not indexed,
    /// further appends are refused, and a reopen serves exactly the
    /// records from before the failure — the torn half-record degrades to
    /// a structured cold start.
    #[test]
    fn failed_append_wounds_the_tier_and_reopen_recovers_the_prefix() {
        let dir = tmp_dir("wounded");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let (fp1, run1) = sample(1);
        tier.append(fp1, &run1).expect("clean append");
        let filter = dir.display().to_string();
        revel_failpoint::arm(
            "persist.append.mid-write",
            &filter,
            revel_failpoint::Action::InjectError,
            1,
            false,
        );
        let (fp2, run2) = sample(2);
        let err = tier.append(fp2, &run2).expect_err("mid-write failpoint fires");
        assert!(err.to_string().contains("injected"), "got: {err}");
        revel_failpoint::disarm("persist.append.mid-write", &filter);
        assert!(tier.wounded(), "a failed append wounds the tier");
        assert_eq!(tier.lookup(fp2), None, "the failed entry is not indexed");
        let (fp3, run3) = sample(3);
        let refused = tier.append(fp3, &run3).expect_err("wounded tier refuses appends");
        assert!(refused.to_string().contains("wounded"), "got: {refused}");
        drop(tier);
        let (reopened, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 1, "the pre-failure prefix survives");
        assert_eq!(warm.cold_starts.len(), 1, "the torn half-record is a cold start");
        assert_eq!(reopened.lookup(fp1), Some(&run1));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A successful snapshot heals a wounded tier (the rewrite subsumes
    /// the torn tail), and a snapshot that fails before its atomic
    /// rename leaves every record serveable on reopen.
    #[test]
    fn snapshot_heals_a_wounded_tier_and_a_failed_snapshot_loses_nothing() {
        let dir = tmp_dir("snapheal");
        let (mut tier, _) = PersistentTier::open(&dir).expect("open");
        let (fp1, run1) = sample(1);
        tier.append(fp1, &run1).expect("append");
        let filter = dir.display().to_string();
        // Wound the tier...
        revel_failpoint::arm(
            "persist.append.mid-write",
            &filter,
            revel_failpoint::Action::InjectError,
            1,
            false,
        );
        let (fp2, run2) = sample(2);
        tier.append(fp2, &run2).expect_err("wounding append");
        revel_failpoint::disarm("persist.append.mid-write", &filter);
        // ...then fail a snapshot before the rename: still wounded, and
        // nothing on disk moved.
        revel_failpoint::arm(
            "persist.snapshot.pre-rename",
            &filter,
            revel_failpoint::Action::InjectError,
            1,
            false,
        );
        tier.snapshot().expect_err("pre-rename failpoint fires");
        revel_failpoint::disarm("persist.snapshot.pre-rename", &filter);
        assert!(tier.wounded(), "a failed snapshot does not heal");
        // A clean snapshot heals: appends work again and a reopen sees
        // every surviving record with no cold start.
        tier.snapshot().expect("clean snapshot");
        assert!(!tier.wounded());
        tier.append(fp2, &run2).expect("healed tier accepts appends");
        drop(tier);
        let (reopened, warm) = PersistentTier::open(&dir).expect("reopen");
        assert_eq!(warm.entries, 2);
        assert!(warm.cold_starts.is_empty(), "the rewrite subsumed the torn tail");
        assert_eq!(reopened.lookup(fp1), Some(&run1));
        assert_eq!(reopened.lookup(fp2), Some(&run2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_file_is_a_cold_start_not_a_panic() {
        let dir = tmp_dir("foreign");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join(SEGMENT), b"this is not a tier file at all").expect("write");
        let (tier, warm) = PersistentTier::open(&dir).expect("open");
        assert!(tier.is_empty());
        assert_eq!(warm.cold_starts.len(), 1);
        assert!(warm.cold_starts[0].reason.contains("bad magic"));
        let _ = fs::remove_dir_all(&dir);
    }
}
