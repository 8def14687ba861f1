//! The store: open/scan/truncate, indexed lookups, atomic appends.

use crate::segment::{
    decode_frame, decode_header, encode_frame, encode_header, FrameError, HEADER_LEN,
};
use std::collections::HashMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// How [`Store::open`] found the segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenStatus {
    /// No usable file existed; a fresh empty store was created.
    Created,
    /// The file carried the expected fingerprint; its records loaded.
    Loaded,
    /// The file existed but its fingerprint (or header) did not match
    /// the expected build fingerprint: the store was reset to empty.
    /// `found` is the stale fingerprint (`None` for a malformed header).
    Invalidated {
        /// The fingerprint the stale file carried, when readable.
        found: Option<u64>,
    },
}

/// What [`Store::open`] did, for logging and counter export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// How the segment file was treated.
    pub status: OpenStatus,
    /// Records serving after the open (the valid prefix).
    pub records: usize,
    /// Bytes dropped from a corrupt or torn tail (0 on a clean open).
    pub dropped_bytes: u64,
    /// The frame error that ended the scan, if the tail was dropped.
    pub tail_error: Option<FrameError>,
}

impl OpenReport {
    /// True when a corrupt/torn tail was truncated away.
    pub fn tail_corrupt(&self) -> bool {
        self.dropped_bytes > 0
    }

    /// True when a stale fingerprint reset the store.
    pub fn invalidated(&self) -> bool {
        matches!(self.status, OpenStatus::Invalidated { .. })
    }
}

/// Why [`Store::open`] could not open a segment file.
#[derive(Debug)]
pub enum OpenError {
    /// Another open [`Store`] (in this process or another) holds the
    /// file's exclusive lock. The file is left untouched.
    Locked(PathBuf),
    /// Opening, locking, reading or repairing the file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Locked(path) => {
                write!(f, "{} is locked by another open store", path.display())
            }
            OpenError::Io(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<std::io::Error> for OpenError {
    fn from(e: std::io::Error) -> Self {
        OpenError::Io(e)
    }
}

/// One indexed record: text and value live in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    text_off: usize,
    text_len: usize,
    value_off: usize,
    value_len: usize,
}

/// A content-addressed result store, backed by one segment file or by
/// memory alone ([`Store::in_memory`]).
///
/// All reads are served from the in-memory index; a file-backed store
/// builds it at open, and each write appends one checksummed frame
/// before updating it. The store never overwrites: a key/text pair,
/// once written, is immutable (a second [`Store::put`] with the same
/// pair is a no-op, which is what makes double-run warm passes produce
/// byte-identical files). A file-backed store holds the file's
/// exclusive lock until it is dropped, so one file has one writer.
#[derive(Debug)]
pub struct Store {
    /// The locked segment file; `None` for an in-memory store.
    file: Option<File>,
    fingerprint: u64,
    /// Text and value payload bytes of every live record.
    arena: Vec<u8>,
    entries: Vec<Entry>,
    /// key → indices into `entries` with that hash (collision chain).
    index: HashMap<u64, Vec<usize>>,
    /// Total value bytes held (for introspection/telemetry).
    value_bytes: u64,
}

impl Store {
    /// An empty store with no file behind it: it keeps every record
    /// for its own lifetime and persists nothing.
    pub fn in_memory() -> Store {
        Store {
            file: None,
            fingerprint: 0,
            arena: Vec::new(),
            entries: Vec::new(),
            index: HashMap::new(),
            value_bytes: 0,
        }
    }

    /// Opens (or creates) the store at `path` for build `fingerprint`,
    /// taking the file's exclusive lock first.
    ///
    /// * Locked by another open store → [`OpenError::Locked`].
    /// * Missing or empty file → fresh store ([`OpenStatus::Created`]).
    /// * Valid header, same fingerprint → records stream in; a corrupt
    ///   or torn tail is truncated off and reported
    ///   ([`OpenStatus::Loaded`]).
    /// * Anything else — foreign bytes, old format, different
    ///   fingerprint — resets the file to an empty store for the new
    ///   fingerprint ([`OpenStatus::Invalidated`]).
    pub fn open(path: impl AsRef<Path>, fingerprint: u64) -> Result<(Store, OpenReport), OpenError> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        match file.try_lock() {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => return Err(OpenError::Locked(path.to_path_buf())),
            Err(TryLockError::Error(e)) => return Err(OpenError::Io(e)),
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut store = Store {
            file: Some(file),
            fingerprint,
            ..Store::in_memory()
        };
        if bytes.is_empty() {
            store.reset_file()?;
            let report = OpenReport {
                status: OpenStatus::Created,
                records: 0,
                dropped_bytes: 0,
                tail_error: None,
            };
            return Ok((store, report));
        }

        match decode_header(&bytes) {
            Some(found) if found == fingerprint => {
                let (valid_len, tail_error) = store.load_records(&bytes);
                let dropped = bytes.len() as u64 - valid_len as u64;
                let file = store.file.as_mut().expect("opened with a file");
                if dropped > 0 {
                    file.set_len(valid_len as u64)?;
                }
                file.seek(SeekFrom::End(0))?;
                let report = OpenReport {
                    status: OpenStatus::Loaded,
                    records: store.entries.len(),
                    dropped_bytes: dropped,
                    tail_error,
                };
                Ok((store, report))
            }
            found => {
                store.reset_file()?;
                let report = OpenReport {
                    status: OpenStatus::Invalidated { found },
                    records: 0,
                    dropped_bytes: 0,
                    tail_error: None,
                };
                Ok((store, report))
            }
        }
    }

    /// Truncates the file and writes a fresh header.
    fn reset_file(&mut self) -> std::io::Result<()> {
        let file = self.file.as_mut().expect("opened with a file");
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&encode_header(self.fingerprint))?;
        file.flush()?;
        self.arena.clear();
        self.entries.clear();
        self.index.clear();
        self.value_bytes = 0;
        Ok(())
    }

    /// Streams records out of `bytes`, stopping at the first bad frame.
    /// Returns the byte length of the valid prefix and the error (if
    /// any) that ended the scan.
    fn load_records(&mut self, bytes: &[u8]) -> (usize, Option<FrameError>) {
        let mut pos = HEADER_LEN;
        let mut tail_error = None;
        while pos < bytes.len() {
            match decode_frame(&bytes[pos..]) {
                Ok(frame) => {
                    self.insert_entry(frame.key, frame.text, frame.value);
                    pos += frame.len;
                }
                Err(e) => {
                    tail_error = Some(e);
                    break;
                }
            }
        }
        (pos, tail_error)
    }

    /// Indexes one record, copying its payloads into the arena. A
    /// duplicate key/text pair (possible only from a file written by
    /// something other than this store) keeps the first record — the
    /// append-only contract says a pair, once written, never changes.
    fn insert_entry(&mut self, key: u64, text: &str, value: &[u8]) {
        if self.lookup(key, text).is_some() {
            return;
        }
        let text_off = self.arena.len();
        self.arena.extend_from_slice(text.as_bytes());
        let value_off = self.arena.len();
        self.arena.extend_from_slice(value);
        let entry = Entry {
            key,
            text_off,
            text_len: text.len(),
            value_off,
            value_len: value.len(),
        };
        self.index.entry(key).or_default().push(self.entries.len());
        self.entries.push(entry);
        self.value_bytes += value.len() as u64;
    }

    fn lookup(&self, key: u64, text: &str) -> Option<&Entry> {
        self.index.get(&key)?.iter().map(|&i| &self.entries[i]).find(|e| {
            e.key == key
                && &self.arena[e.text_off..e.text_off + e.text_len] == text.as_bytes()
        })
    }

    /// Looks up the stored value for `(key, text)`. The text compare
    /// guards against hash collisions — a collision is a miss, never a
    /// wrong value.
    pub fn get(&self, key: u64, text: &str) -> Option<&[u8]> {
        self.lookup(key, text)
            .map(|e| &self.arena[e.value_off..e.value_off + e.value_len])
    }

    /// True when `(key, text)` is stored.
    pub fn contains(&self, key: u64, text: &str) -> bool {
        self.lookup(key, text).is_some()
    }

    /// Stores `(key, text) → value` if absent: a file-backed store
    /// first appends one frame to the segment (a single write syscall,
    /// so a crash tears at most the tail), then indexes it. Returns
    /// `true` when a record was written, `false` when the pair was
    /// already stored (the existing record is kept — values are
    /// immutable once written).
    ///
    /// A failed append (a transient ENOSPC, say) is undone before the
    /// error returns: the file is cut back to the offset the frame
    /// started at and the write position returns there, and nothing is
    /// indexed. A partial frame would stop the scan at reopen and cost
    /// every record appended after it; undone, the failure costs only
    /// its own record, and a later put of the same pair may succeed.
    pub fn put(&mut self, key: u64, text: &str, value: &[u8]) -> std::io::Result<bool> {
        if self.contains(key, text) {
            return Ok(false);
        }
        if let Some(file) = &mut self.file {
            let start = file.stream_position()?;
            if let Err(e) = append(file, &encode_frame(key, text, value)) {
                file.set_len(start)?;
                file.seek(SeekFrom::Start(start))?;
                return Err(e);
            }
        }
        self.insert_entry(key, text, value);
        Ok(true)
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total stored value bytes.
    pub fn value_bytes(&self) -> u64 {
        self.value_bytes
    }

    /// The build fingerprint this store is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Appends one frame at the file's write position.
fn append(file: &mut File, frame: &[u8]) -> std::io::Result<()> {
    #[cfg(test)]
    if let Some(n) = CUT_NEXT_WRITE.take() {
        file.write_all(&frame[..n.min(frame.len())])?;
        return Err(std::io::Error::other("injected fault: frame cut short"));
    }
    file.write_all(frame)?;
    file.flush()
}

#[cfg(test)]
thread_local! {
    /// Test fault hook: when set to `Some(n)`, the next frame append on
    /// this thread writes only its first `n` bytes and then fails.
    static CUT_NEXT_WRITE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch path per test invocation; no tempfile crate.
    fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "pvc-store-test-{}-{n}-{name}.bin",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    const FP: u64 = 0x1234_5678_9abc_def0;

    fn filled(path: &Path) -> Store {
        let (mut s, r) = Store::open(path, FP).unwrap();
        assert_eq!(r.status, OpenStatus::Created);
        assert!(s.put(1, "req-one", b"value-one").unwrap());
        assert!(s.put(2, "req-two", b"value-two").unwrap());
        assert!(s.put(3, "req-three", b"value-three").unwrap());
        s
    }

    #[test]
    fn put_get_reopen_round_trip() {
        let path = scratch("roundtrip");
        let _c = Cleanup(path.clone());
        let s = filled(&path);
        assert_eq!(s.get(2, "req-two"), Some(&b"value-two"[..]));
        assert_eq!(s.get(2, "other text"), None, "collision guard");
        assert_eq!(s.get(9, "req-two"), None);
        drop(s);
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.status, OpenStatus::Loaded);
        assert_eq!(r.records, 3);
        assert!(!r.tail_corrupt());
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(3, "req-three"), Some(&b"value-three"[..]));
        assert_eq!(s.value_bytes(), 9 + 9 + 11);
    }

    #[test]
    fn put_is_idempotent_and_file_stable() {
        let path = scratch("idempotent");
        let _c = Cleanup(path.clone());
        let mut s = filled(&path);
        let before = std::fs::read(&path).unwrap();
        assert!(!s.put(1, "req-one", b"value-one").unwrap());
        // Even a conflicting value for an existing pair is a no-op:
        // records are immutable once written.
        assert!(!s.put(1, "req-one", b"DIFFERENT").unwrap());
        assert_eq!(s.get(1, "req-one"), Some(&b"value-one"[..]));
        assert_eq!(std::fs::read(&path).unwrap(), before, "file untouched");
    }

    #[test]
    fn same_puts_produce_byte_identical_files() {
        let pa = scratch("identical-a");
        let pb = scratch("identical-b");
        let (_ca, _cb) = (Cleanup(pa.clone()), Cleanup(pb.clone()));
        filled(&pa);
        filled(&pb);
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
    }

    #[test]
    fn fingerprint_mismatch_invalidates_whole_store() {
        let path = scratch("fingerprint");
        let _c = Cleanup(path.clone());
        filled(&path);
        let (s, r) = Store::open(&path, FP ^ 1).unwrap();
        assert_eq!(r.status, OpenStatus::Invalidated { found: Some(FP) });
        assert!(r.invalidated());
        assert_eq!(r.records, 0);
        assert!(s.is_empty(), "stale results must never serve");
        drop(s);
        // The reset persisted: reopening with the new fingerprint loads
        // an empty store, reopening with the old one invalidates again.
        let (_, r) = Store::open(&path, FP ^ 1).unwrap();
        assert_eq!(r.status, OpenStatus::Loaded);
        assert_eq!(r.records, 0);
    }

    #[test]
    fn foreign_bytes_invalidate_with_unreadable_fingerprint() {
        let path = scratch("foreign");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, b"this is not a store file at all").unwrap();
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.status, OpenStatus::Invalidated { found: None });
        assert!(s.is_empty());
    }

    #[test]
    fn truncated_tail_record_degrades_to_valid_prefix() {
        let path = scratch("truncated");
        let _c = Cleanup(path.clone());
        drop(filled(&path));
        let bytes = std::fs::read(&path).unwrap();
        // Tear the last record: cut 5 bytes off the file.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.status, OpenStatus::Loaded);
        assert_eq!(r.records, 2, "valid prefix survives");
        assert!(r.tail_corrupt());
        assert!(r.dropped_bytes > 0);
        assert_eq!(s.get(1, "req-one"), Some(&b"value-one"[..]));
        assert_eq!(s.get(2, "req-two"), Some(&b"value-two"[..]));
        assert_eq!(s.get(3, "req-three"), None, "torn record is gone");
        // The truncation persisted: the next open is clean.
        drop(s);
        let (_, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.records, 2);
        assert!(!r.tail_corrupt());
    }

    #[test]
    fn checksum_corrupt_tail_is_skipped_and_appends_resume_cleanly() {
        let path = scratch("bitflip");
        let _c = Cleanup(path.clone());
        drop(filled(&path));
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside the last record's value payload.
        let n = bytes.len();
        bytes[n - 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (mut s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.records, 2);
        assert!(r.tail_corrupt());
        assert_eq!(r.tail_error, Some(FrameError::ChecksumMismatch));
        // Re-append the lost record plus a new one; everything reloads.
        assert!(s.put(3, "req-three", b"value-three").unwrap());
        assert!(s.put(4, "req-four", b"value-four").unwrap());
        drop(s);
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.records, 4);
        assert!(!r.tail_corrupt());
        assert_eq!(s.get(3, "req-three"), Some(&b"value-three"[..]));
        assert_eq!(s.get(4, "req-four"), Some(&b"value-four"[..]));
    }

    #[test]
    fn corruption_mid_file_drops_everything_after_it() {
        // Framing cannot resync past a bad frame; the valid prefix is
        // whatever decodes before the first corrupt byte.
        let path = scratch("midfile");
        let _c = Cleanup(path.clone());
        drop(filled(&path));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 2] ^= 0xff; // inside the first record
        std::fs::write(&path, &bytes).unwrap();
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.records, 0);
        assert!(r.tail_corrupt());
        assert!(s.is_empty());
    }

    /// A put whose frame write fails partway leaves no partial frame:
    /// the next put still lands, and on reopen every acknowledged record
    /// loads with nothing dropped.
    #[test]
    fn failed_append_costs_no_later_record() {
        let path = scratch("failed-append");
        let _c = Cleanup(path.clone());
        let mut s = filled(&path);
        let before = std::fs::metadata(&path).unwrap().len();
        CUT_NEXT_WRITE.set(Some(7));
        assert!(s.put(4, "req-four", b"value-four").is_err());
        let after = std::fs::metadata(&path).unwrap().len();
        assert_eq!(after, before, "the partial frame is cut back out");
        assert!(!s.contains(4, "req-four"), "a failed put indexes nothing");
        assert!(s.put(5, "req-five", b"value-five").unwrap());
        drop(s);

        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.status, OpenStatus::Loaded);
        assert_eq!(r.dropped_bytes, 0);
        assert_eq!(r.records, 4);
        for (key, text, value) in [
            (1, "req-one", &b"value-one"[..]),
            (2, "req-two", b"value-two"),
            (3, "req-three", b"value-three"),
            (5, "req-five", b"value-five"),
        ] {
            assert_eq!(s.get(key, text), Some(value), "{text}");
        }
        assert_eq!(s.get(4, "req-four"), None);
    }

    #[test]
    fn empty_values_store_and_load() {
        let path = scratch("empty-value");
        let _c = Cleanup(path.clone());
        let (mut s, _) = Store::open(&path, FP).unwrap();
        assert!(s.put(5, "empty", b"").unwrap());
        assert_eq!(s.get(5, "empty"), Some(&b""[..]));
        drop(s);
        let (s, _) = Store::open(&path, FP).unwrap();
        assert_eq!(s.get(5, "empty"), Some(&b""[..]));
    }

    #[test]
    fn colliding_keys_with_different_text_both_serve() {
        let path = scratch("collision");
        let _c = Cleanup(path.clone());
        let (mut s, _) = Store::open(&path, FP).unwrap();
        assert!(s.put(7, "text A", b"A").unwrap());
        assert!(s.put(7, "text B", b"B").unwrap());
        assert_eq!(s.get(7, "text A"), Some(&b"A"[..]));
        assert_eq!(s.get(7, "text B"), Some(&b"B"[..]));
        drop(s);
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.records, 2);
        assert_eq!(s.get(7, "text B"), Some(&b"B"[..]));
    }

    #[test]
    fn one_open_store_per_file() {
        let path = scratch("lock");
        let _c = Cleanup(path.clone());
        let first = filled(&path);
        let before = std::fs::read(&path).unwrap();
        match Store::open(&path, FP) {
            Err(OpenError::Locked(p)) => assert_eq!(p, path),
            other => panic!("second open must be Locked, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "a refused open writes nothing");
        drop(first);
        let (s, r) = Store::open(&path, FP).unwrap();
        assert_eq!(r.status, OpenStatus::Loaded);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn in_memory_store_keeps_records_without_a_file() {
        let mut s = Store::in_memory();
        assert!(s.is_empty());
        assert!(s.put(1, "req-one", b"value-one").unwrap());
        assert!(!s.put(1, "req-one", b"DIFFERENT").unwrap(), "immutable once written");
        assert_eq!(s.get(1, "req-one"), Some(&b"value-one"[..]));
        assert_eq!(s.get(1, "other"), None, "collision guard");
        assert_eq!(s.len(), 1);
    }
}
