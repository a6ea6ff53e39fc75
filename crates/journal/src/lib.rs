//! # spasm-journal — a crash-safe write-ahead journal for sweeps
//!
//! Figure sweeps are hour-scale batches of minute-scale points; a
//! SIGKILL, OOM, or power cut at minute 50 must not throw away every
//! completed point. This crate supplies the durability layer: an
//! append-only journal of opaque records (the experiment layer encodes
//! one record per completed sweep point) that survives being killed at
//! **any** byte boundary.
//!
//! Durability contract:
//!
//! * every record is **length-prefixed and CRC64-checksummed**
//!   ([`crc64`], in-tree ECMA-182 — no external deps);
//! * every commit is **write-then-atomic-rename**: the full journal is
//!   written to a sibling temp file, fsynced, and renamed over the live
//!   path, so the on-disk journal transitions atomically from *n* to
//!   *n + 1* records — or, for a batch ([`Journal::append_all`]), to
//!   *n + k* (journals are KB-scale, so rewriting is cheap and buys true
//!   atomicity);
//! * a **torn tail** (a final record cut short by a crash, a non-atomic
//!   filesystem, or an external truncation) is detected on open and
//!   repaired by truncating to the longest valid prefix — it is never
//!   propagated to the reader;
//! * a **corrupt interior record** (full frame present, checksum wrong)
//!   is *not* silently dropped: [`Journal::open`] fails with
//!   [`JournalError::CorruptRecord`] naming the record and offset,
//!   because past the first bad frame the stream cannot be resynced and
//!   silently skipping data would forge history;
//! * the header carries a caller-supplied **config fingerprint**
//!   ([`Fingerprint`]); opening with a different fingerprint fails with
//!   [`JournalError::FingerprintMismatch`] instead of resuming a sweep
//!   under a different configuration.
//!
//! Every file operation flows through a [`Vfs`] ([`RealVfs`] by
//! default), so the whole protocol can be exercised against the
//! deterministic, fault-scripted in-memory filesystem ([`FaultVfs`])
//! that powers the crash-consistency harness in `spasm-core::chaos` —
//! see the [`vfs`] module docs.
//!
//! The crate is hermetic: `std` plus the in-tree `spasm-prng`.
//!
//! # Example
//!
//! ```
//! use spasm_journal::{Fingerprint, Journal};
//!
//! let dir = std::env::temp_dir().join("spasm-journal-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("sweep.journal");
//! let _ = std::fs::remove_file(&path);
//!
//! let mut fp = Fingerprint::new();
//! fp.absorb_str("F1");
//! fp.absorb_u64(1995);
//! let fp = fp.finish();
//!
//! let mut j = Journal::create(&path, fp).unwrap();
//! j.append(b"point 1").unwrap();
//! j.append(b"point 2").unwrap();
//! drop(j);
//!
//! let (j, recovery) = Journal::open(&path, fp).unwrap();
//! assert_eq!(recovery.records, vec![b"point 1".to_vec(), b"point 2".to_vec()]);
//! assert_eq!(j.records(), 2);
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc64;
pub mod vfs;

pub use crc64::{crc64, Crc64};
pub use vfs::{Fault, FaultScript, FaultVfs, RealVfs, TraceEntry, Vfs, VfsOpKind};

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic: identifies a spasm journal and its format version (the
/// trailing digit — a format change bumps it, and older files fail
/// typed with [`JournalError::NotAJournal`]).
const MAGIC: &[u8; 8] = b"SPASMJL1";

/// Header bytes: magic plus the little-endian config fingerprint.
const HEADER_LEN: usize = MAGIC.len() + 8;

/// Record frame overhead: `u32` payload length plus `u64` CRC64.
const FRAME_LEN: usize = 4 + 8;

/// An incremental digest over configuration facts, yielding the `u64`
/// stored in the journal header. Streams through [`Crc64`]; strings and
/// byte slices are length-prefixed so absorbed fields cannot alias
/// (`("ab","c")` and `("a","bc")` digest differently).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fingerprint {
    crc: Crc64,
}

impl Fingerprint {
    /// A fresh fingerprint builder.
    pub fn new() -> Self {
        Fingerprint { crc: Crc64::new() }
    }

    /// Absorbs a length-prefixed byte slice.
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.absorb_u64(bytes.len() as u64);
        self.crc.update(bytes);
    }

    /// Absorbs a length-prefixed UTF-8 string.
    pub fn absorb_str(&mut self, s: &str) {
        self.absorb_bytes(s.as_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn absorb_u64(&mut self, v: u64) {
        self.crc.update(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern, so fingerprints distinguish
    /// values `==` cannot (e.g. `0.0` vs `-0.0`) and never depend on
    /// float formatting.
    pub fn absorb_f64(&mut self, v: f64) {
        self.absorb_u64(v.to_bits());
    }

    /// The digest of everything absorbed.
    pub fn finish(&self) -> u64 {
        self.crc.finish()
    }
}

/// Why a journal operation failed. Every variant names the path; I/O
/// variants carry the failing operation and the OS error.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying filesystem operation failed.
    Io {
        /// What the journal was doing ("create", "read", "commit", …).
        op: &'static str,
        /// The journal path.
        path: PathBuf,
        /// The OS error.
        error: std::io::Error,
    },
    /// [`Journal::create`] refused to clobber an existing file — resume
    /// it or delete it explicitly.
    AlreadyExists {
        /// The journal path.
        path: PathBuf,
    },
    /// The file exists but does not start with a spasm journal header
    /// (wrong magic, or shorter than a header).
    NotAJournal {
        /// The offending path.
        path: PathBuf,
    },
    /// The journal was written under a different configuration
    /// fingerprint; resuming would silently mix incompatible sweeps.
    FingerprintMismatch {
        /// The journal path.
        path: PathBuf,
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint stored in the header.
        found: u64,
    },
    /// Record `index`'s frame is fully present but its checksum does
    /// not match: interior corruption. The stream cannot be resynced
    /// past it, so the open fails rather than forging a prefix.
    CorruptRecord {
        /// The journal path.
        path: PathBuf,
        /// Zero-based index of the bad record.
        index: usize,
        /// Byte offset of the bad record's frame.
        offset: usize,
    },
    /// A record payload exceeded the frame format's `u32` length limit.
    RecordTooLarge {
        /// The attempted payload length.
        len: usize,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, path, error } => {
                write!(f, "journal {op} failed on {}: {error}", path.display())
            }
            JournalError::AlreadyExists { path } => write!(
                f,
                "journal {} already exists; resume it or remove it first",
                path.display()
            ),
            JournalError::NotAJournal { path } => {
                write!(f, "{} is not a spasm journal", path.display())
            }
            JournalError::FingerprintMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {} was written under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x}); \
                 refusing to resume",
                path.display()
            ),
            JournalError::CorruptRecord {
                path,
                index,
                offset,
            } => write!(
                f,
                "journal {}: record {index} at byte {offset} failed its \
                 checksum (interior corruption; cannot resync)",
                path.display()
            ),
            JournalError::RecordTooLarge { len } => {
                write!(f, "record of {len} bytes exceeds the u32 frame limit")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// What [`Journal::open`] found and did: the valid records, plus how
/// much (if anything) it truncated to repair a torn tail.
#[derive(Debug)]
pub struct Recovery {
    /// Every valid record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes dropped from the tail of the file (0 for a clean journal).
    /// A nonzero value means the last append was torn by a crash and
    /// the journal was repaired to its longest valid prefix.
    pub truncated_bytes: usize,
    /// Whether [`Journal::open`] removed an orphan sibling `.tmp` file
    /// left behind by a crashed or failed commit. Always `false` from
    /// [`Journal::read`], which never modifies anything (the temp file
    /// may belong to a live writer mid-commit).
    pub removed_orphan_tmp: bool,
}

/// Accumulated directory-sync failures on a journal (see
/// [`Journal::dir_sync_warning`]). A failed `fsync` of the journal's
/// parent directory does not fail the commit — the rename itself
/// succeeded, and some platforms cannot fsync directories at all — but
/// it does mean the rename could be lost to a power cut, so it is
/// counted and surfaced instead of silently swallowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirSyncWarning {
    /// How many commits failed to sync the parent directory.
    pub failures: u64,
    /// The most recent failure's rendering.
    pub last_error: String,
}

impl fmt::Display for DirSyncWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} commit(s) could not sync the journal's parent directory \
             (last error: {}); renames may not survive a power cut",
            self.failures, self.last_error
        )
    }
}

/// Validates a journal image and scans its record frames, returning the
/// header fingerprint, the valid record payloads in append order, and
/// the byte offset of the valid prefix's end (anything past it is a torn
/// tail).
///
/// The scan stops at the first frame that runs past end-of-file: that is
/// a torn write (the crash window of an append). A frame that is fully
/// present but fails its CRC is interior corruption and fails typed
/// instead — truncating there could drop an unbounded amount of valid
/// history without telling the caller.
fn scan(
    path: &Path,
    buf: &[u8],
    expected_fingerprint: u64,
) -> Result<(u64, Vec<Vec<u8>>, usize), JournalError> {
    if buf.len() < HEADER_LEN || &buf[..MAGIC.len()] != MAGIC {
        return Err(JournalError::NotAJournal {
            path: path.to_path_buf(),
        });
    }
    let found = u64::from_le_bytes(
        buf[MAGIC.len()..HEADER_LEN]
            .try_into()
            .expect("header slice is exactly 8 bytes"),
    );
    if found != expected_fingerprint {
        return Err(JournalError::FingerprintMismatch {
            path: path.to_path_buf(),
            expected: expected_fingerprint,
            found,
        });
    }
    let mut records = Vec::new();
    let mut off = HEADER_LEN;
    loop {
        let rem = buf.len() - off;
        if rem == 0 {
            break;
        }
        if rem < FRAME_LEN {
            break; // torn: not even a whole frame header
        }
        let len = u32::from_le_bytes(
            buf[off..off + 4]
                .try_into()
                .expect("length slice is exactly 4 bytes"),
        ) as usize;
        if rem < FRAME_LEN + len {
            break; // torn: payload cut short (or a garbage length)
        }
        let stored = u64::from_le_bytes(
            buf[off + 4..off + FRAME_LEN]
                .try_into()
                .expect("crc slice is exactly 8 bytes"),
        );
        let payload = &buf[off + FRAME_LEN..off + FRAME_LEN + len];
        if crc64(payload) != stored {
            return Err(JournalError::CorruptRecord {
                path: path.to_path_buf(),
                index: records.len(),
                offset: off,
            });
        }
        records.push(payload.to_vec());
        off += FRAME_LEN + len;
    }
    Ok((found, records, off))
}

/// A durable append-only journal of opaque records. See the crate docs
/// for the format and the durability contract.
#[derive(Debug)]
pub struct Journal {
    vfs: Arc<dyn Vfs>,
    path: PathBuf,
    /// The full serialized journal (header + records). Source of truth
    /// for commits: every append rewrites the file from this buffer via
    /// temp-file + atomic rename.
    buf: Vec<u8>,
    records: usize,
    fingerprint: u64,
    dir_sync_failures: u64,
    last_dir_sync_error: Option<String>,
}

/// The sibling temp file a commit stages through: `<path>.tmp`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.to_path_buf().into_os_string();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

impl Journal {
    /// Creates a new, empty journal at `path` with the given config
    /// fingerprint, on the real filesystem.
    ///
    /// # Errors
    ///
    /// [`JournalError::AlreadyExists`] if `path` exists (never clobbers
    /// a previous sweep's journal), or [`JournalError::Io`].
    pub fn create(path: impl AsRef<Path>, fingerprint: u64) -> Result<Journal, JournalError> {
        Journal::create_with(Arc::new(RealVfs), path, fingerprint)
    }

    /// [`Journal::create`] on an explicit [`Vfs`]. An orphan sibling
    /// `.tmp` file (a previous process's failed commit) is removed
    /// best-effort before the first commit stages through it.
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        fingerprint: u64,
    ) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        if vfs.exists(&path) {
            return Err(JournalError::AlreadyExists { path });
        }
        let tmp = tmp_path(&path);
        if vfs.exists(&tmp) {
            let _ = vfs.remove_file(&tmp);
        }
        let mut buf = Vec::with_capacity(HEADER_LEN);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&fingerprint.to_le_bytes());
        let mut journal = Journal {
            vfs,
            path,
            buf,
            records: 0,
            fingerprint,
            dir_sync_failures: 0,
            last_dir_sync_error: None,
        };
        journal.commit()?;
        Ok(journal)
    }

    /// Opens an existing journal, verifying the header and every record
    /// checksum. A torn final record is repaired (truncated away, and
    /// the repaired file committed atomically) and reported via
    /// [`Recovery::truncated_bytes`].
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] for a wrong or missing header,
    /// [`JournalError::FingerprintMismatch`] if the journal belongs to
    /// a differently-configured sweep, [`JournalError::CorruptRecord`]
    /// for interior corruption, or [`JournalError::Io`].
    pub fn open(
        path: impl AsRef<Path>,
        expected_fingerprint: u64,
    ) -> Result<(Journal, Recovery), JournalError> {
        Journal::open_with(Arc::new(RealVfs), path, expected_fingerprint)
    }

    /// [`Journal::open`] on an explicit [`Vfs`]. Taking ownership of a
    /// journal also cleans up an orphan sibling `.tmp` file left by a
    /// crashed or failed commit (reported via
    /// [`Recovery::removed_orphan_tmp`]).
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        expected_fingerprint: u64,
    ) -> Result<(Journal, Recovery), JournalError> {
        let path = path.as_ref().to_path_buf();
        let buf = vfs.read(&path).map_err(|error| JournalError::Io {
            op: "read",
            path: path.clone(),
            error,
        })?;
        let (found, records, off) = scan(&path, &buf, expected_fingerprint)?;
        // This open owns the journal now, so a leftover commit temp file
        // is garbage from a dead writer: reclaim it. (Done only after
        // the scan succeeds — a refused journal is left untouched.)
        let tmp = tmp_path(&path);
        let removed_orphan_tmp = vfs.exists(&tmp) && vfs.remove_file(&tmp).is_ok();
        let truncated_bytes = buf.len() - off;
        let mut journal = Journal {
            vfs,
            path,
            buf,
            records: records.len(),
            fingerprint: found,
            dir_sync_failures: 0,
            last_dir_sync_error: None,
        };
        if truncated_bytes > 0 {
            journal.buf.truncate(off);
            journal.commit()?; // persist the repair
        }
        Ok((
            journal,
            Recovery {
                records,
                truncated_bytes,
                removed_orphan_tmp,
            },
        ))
    }

    /// Reads a journal without taking ownership of it: verifies the
    /// header and every record checksum exactly like [`Journal::open`],
    /// but never writes — a torn tail is tolerated and reported via
    /// [`Recovery::truncated_bytes`] without being repaired on disk.
    /// The reader for files another process may still be appending to
    /// (e.g. a merge over live shard journals).
    ///
    /// # Errors
    ///
    /// The same classes as [`Journal::open`]:
    /// [`JournalError::NotAJournal`], [`JournalError::FingerprintMismatch`],
    /// [`JournalError::CorruptRecord`], or [`JournalError::Io`].
    pub fn read(
        path: impl AsRef<Path>,
        expected_fingerprint: u64,
    ) -> Result<Recovery, JournalError> {
        Journal::read_with(&RealVfs, path, expected_fingerprint)
    }

    /// [`Journal::read`] on an explicit [`Vfs`]. Like [`Journal::read`],
    /// strictly read-only: no repair, and no orphan-temp cleanup (the
    /// temp file may belong to a live writer mid-commit).
    pub fn read_with(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
        expected_fingerprint: u64,
    ) -> Result<Recovery, JournalError> {
        let path = path.as_ref().to_path_buf();
        let buf = vfs.read(&path).map_err(|error| JournalError::Io {
            op: "read",
            path: path.clone(),
            error,
        })?;
        let (_, records, off) = scan(&path, &buf, expected_fingerprint)?;
        Ok(Recovery {
            records,
            truncated_bytes: buf.len() - off,
            removed_orphan_tmp: false,
        })
    }

    /// Appends one record and commits it durably (the call returns only
    /// after the journal containing the record has been renamed into
    /// place).
    ///
    /// # Errors
    ///
    /// [`JournalError::RecordTooLarge`] or [`JournalError::Io`].
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.append_all(&[payload])
    }

    /// Appends every record of `payloads`, in order, under **one** durable
    /// commit: after a crash at any instant the journal holds all of them
    /// or none. An empty batch does no I/O.
    ///
    /// # Errors
    ///
    /// [`JournalError::RecordTooLarge`] or [`JournalError::Io`]; either
    /// way none of the batch was appended.
    pub fn append_all(&mut self, payloads: &[impl AsRef<[u8]>]) -> Result<(), JournalError> {
        if payloads.is_empty() {
            return Ok(());
        }
        let rollback = self.buf.len();
        let staged = payloads.iter().try_for_each(|payload| {
            let payload = payload.as_ref();
            let len = u32::try_from(payload.len())
                .map_err(|_| JournalError::RecordTooLarge { len: payload.len() })?;
            self.buf.extend_from_slice(&len.to_le_bytes());
            self.buf.extend_from_slice(&crc64(payload).to_le_bytes());
            self.buf.extend_from_slice(payload);
            Ok(())
        });
        if let Err(e) = staged.and_then(|()| self.commit()) {
            self.buf.truncate(rollback); // keep memory consistent with disk
            return Err(e);
        }
        self.records += payloads.len();
        Ok(())
    }

    /// Number of committed records.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The header fingerprint this journal was created with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Directory-sync failures accumulated over this journal's commits,
    /// or `None` if every commit's parent-directory fsync succeeded.
    /// A warning, not an error: the commits themselves landed, but
    /// their renames are not guaranteed to survive a power cut.
    pub fn dir_sync_warning(&self) -> Option<DirSyncWarning> {
        self.last_dir_sync_error.as_ref().map(|e| DirSyncWarning {
            failures: self.dir_sync_failures,
            last_error: e.clone(),
        })
    }

    /// Writes the in-memory journal image to a sibling temp file,
    /// fsyncs it, and atomically renames it over the live path, so the
    /// on-disk journal is always a complete, valid prefix. A failed
    /// parent-directory sync does not fail the commit (not every
    /// platform can fsync a directory) but is counted and surfaced via
    /// [`Journal::dir_sync_warning`].
    fn commit(&mut self) -> Result<(), JournalError> {
        let io = |op: &'static str| {
            let path = self.path.clone();
            move |error| JournalError::Io { op, path, error }
        };
        let tmp = tmp_path(&self.path);
        self.vfs.write(&tmp, &self.buf).map_err(io("write"))?;
        self.vfs.sync_file(&tmp).map_err(io("sync"))?;
        self.vfs.rename(&tmp, &self.path).map_err(io("commit"))?;
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(error) = self.vfs.sync_dir(dir) {
                self.dir_sync_failures += 1;
                self.last_dir_sync_error = Some(error.to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("spasm-journal-unit");
        fs::create_dir_all(&dir).expect("temp dir is writable");
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn read_is_read_only_and_tolerates_a_torn_tail() {
        let path = scratch("read-only.journal");
        let mut j = Journal::create(&path, 9).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        drop(j);
        // Simulate a torn append: extra garbage past the valid prefix.
        let clean = fs::read(&path).unwrap();
        let mut torn = clean.clone();
        torn.extend_from_slice(&[7u8; 5]);
        fs::write(&path, &torn).unwrap();

        let rec = Journal::read(&path, 9).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.records[0], b"one");
        assert_eq!(rec.truncated_bytes, 5);
        // The torn tail was reported, not repaired: the file on disk is
        // untouched (it may belong to a live writer mid-append).
        assert_eq!(fs::read(&path).unwrap(), torn);

        // The same error surface as open.
        match Journal::read(&path, 10) {
            Err(JournalError::FingerprintMismatch { found, .. }) => assert_eq!(found, 9),
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        fs::write(&path, &clean).unwrap();
        let mut buf = clean;
        buf[HEADER_LEN + FRAME_LEN] ^= 0xff; // first record's payload
        fs::write(&path, &buf).unwrap();
        match Journal::read(&path, 9) {
            Err(JournalError::CorruptRecord { index, .. }) => assert_eq!(index, 0),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_append_reopen_roundtrip() {
        let path = scratch("roundtrip.journal");
        let mut j = Journal::create(&path, 42).unwrap();
        j.append(b"alpha").unwrap();
        j.append(b"").unwrap();
        j.append(&[0u8; 300]).unwrap();
        assert_eq!(j.records(), 3);
        drop(j);
        let (j, rec) = Journal::open(&path, 42).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[0], b"alpha");
        assert_eq!(rec.records[1], b"");
        assert_eq!(rec.records[2], vec![0u8; 300]);
        assert_eq!(j.records(), 3);
        assert_eq!(j.fingerprint(), 42);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = scratch("clobber.journal");
        Journal::create(&path, 1).unwrap();
        match Journal::create(&path, 1) {
            Err(JournalError::AlreadyExists { .. }) => {}
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_typed() {
        let path = scratch("fp.journal");
        Journal::create(&path, 7).unwrap();
        match Journal::open(&path, 8) {
            Err(JournalError::FingerprintMismatch {
                expected: 8,
                found: 7,
                ..
            }) => {}
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_repaired_on_disk() {
        let path = scratch("torn.journal");
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(b"kept").unwrap();
        j.append(b"torn-away").unwrap();
        drop(j);
        // Cut the final record short by one byte, as a crash mid-write
        // on a non-atomic filesystem would.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let (_, rec) = Journal::open(&path, 3).unwrap();
        assert_eq!(rec.records, vec![b"kept".to_vec()]);
        assert!(rec.truncated_bytes > 0);
        // The repair was persisted: a second open is clean.
        let (_, rec) = Journal::open(&path, 3).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated_bytes, 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_fails_typed_naming_the_record() {
        let path = scratch("corrupt.journal");
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(b"record zero").unwrap();
        j.append(b"record one").unwrap();
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of record 0 (frame starts at HEADER_LEN).
        bytes[HEADER_LEN + FRAME_LEN] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match Journal::open(&path, 3) {
            Err(JournalError::CorruptRecord {
                index: 0, offset, ..
            }) => {
                assert_eq!(offset, HEADER_LEN);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn not_a_journal_is_typed() {
        let path = scratch("plain.txt");
        fs::write(&path, b"hello").unwrap();
        assert!(matches!(
            Journal::open(&path, 0),
            Err(JournalError::NotAJournal { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_repair_continue_the_prefix() {
        let path = scratch("repair-append.journal");
        let mut j = Journal::create(&path, 9).unwrap();
        j.append(b"a").unwrap();
        j.append(b"b").unwrap();
        drop(j);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (mut j, rec) = Journal::open(&path, 9).unwrap();
        assert_eq!(rec.records, vec![b"a".to_vec()]);
        j.append(b"c").unwrap();
        drop(j);
        let (_, rec) = Journal::open(&path, 9).unwrap();
        assert_eq!(rec.records, vec![b"a".to_vec(), b"c".to_vec()]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_cleans_up_an_orphan_commit_temp_file() {
        // A failed commit leaks `<path>.tmp`; taking ownership of the
        // journal again must reclaim it.
        let path = scratch("orphan.journal");
        let mut j = Journal::create(&path, 4).unwrap();
        j.append(b"kept").unwrap();
        drop(j);
        let tmp = tmp_path(&path);
        fs::write(&tmp, b"leaked by a dead writer").unwrap();

        let (_, rec) = Journal::open(&path, 4).unwrap();
        assert!(rec.removed_orphan_tmp);
        assert!(!tmp.exists(), "open must reclaim the orphan temp file");
        assert_eq!(rec.records, vec![b"kept".to_vec()]);

        // A clean open reports no cleanup.
        let (_, rec) = Journal::open(&path, 4).unwrap();
        assert!(!rec.removed_orphan_tmp);

        // A refused open leaves the orphan alone.
        fs::write(&tmp, b"leaked again").unwrap();
        assert!(Journal::open(&path, 5).is_err());
        assert!(tmp.exists(), "a refused open must not touch anything");

        // Create (after the stale journal is explicitly removed)
        // reclaims it too.
        fs::remove_file(&path).unwrap();
        Journal::create(&path, 4).unwrap();
        assert!(!tmp.exists(), "create must reclaim the orphan temp file");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_never_cleans_up_the_commit_temp_file() {
        let path = scratch("orphan-ro.journal");
        Journal::create(&path, 4).unwrap();
        let tmp = tmp_path(&path);
        fs::write(&tmp, b"a live writer may own this").unwrap();
        let rec = Journal::read(&path, 4).unwrap();
        assert!(!rec.removed_orphan_tmp);
        assert!(tmp.exists(), "read is strictly read-only");
        fs::remove_file(&tmp).unwrap();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degenerate_files_fail_typed_or_recover_cleanly() {
        // Zero-length file: not a journal.
        let path = scratch("zero-len.journal");
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            Journal::read(&path, 0),
            Err(JournalError::NotAJournal { .. })
        ));
        assert!(matches!(
            Journal::open(&path, 0),
            Err(JournalError::NotAJournal { .. })
        ));

        // A bare header (magic + fingerprint, zero records) is a valid,
        // empty journal.
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&9u64.to_le_bytes());
        fs::write(&path, &header).unwrap();
        let rec = Journal::read(&path, 9).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.truncated_bytes, 0);

        // A header truncated mid-fingerprint is not a journal.
        fs::write(&path, &header[..HEADER_LEN - 3]).unwrap();
        assert!(matches!(
            Journal::read(&path, 9),
            Err(JournalError::NotAJournal { .. })
        ));

        // Header plus one torn record: every truncation point of the
        // only record is tolerated by read and repaired by open.
        let full = {
            let _ = fs::remove_file(&path);
            let mut j = Journal::create(&path, 9).unwrap();
            j.append(b"the only record").unwrap();
            fs::read(&path).unwrap()
        };
        for cut in HEADER_LEN..full.len() {
            fs::write(&path, &full[..cut]).unwrap();
            let rec = Journal::read(&path, 9).unwrap();
            assert!(rec.records.is_empty(), "cut at {cut}");
            assert_eq!(rec.truncated_bytes, cut - HEADER_LEN, "cut at {cut}");
        }
        let (_, rec) = Journal::open(&path, 9).unwrap();
        assert!(rec.records.is_empty() && rec.truncated_bytes > 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dir_sync_failures_are_counted_and_typed() {
        // Scripted FailDirSync on both commits' sync_dir ops (create's
        // op 3, append's op 7): the commits succeed, the warning counts.
        let vfs = Arc::new(FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(3, Fault::FailDirSync), (7, Fault::FailDirSync)],
        }));
        let path = PathBuf::from("/chaos/dirsync.journal");
        let mut j = Journal::create_with(vfs.clone(), &path, 1).unwrap();
        let w = j.dir_sync_warning().expect("first dir sync failed");
        assert_eq!(w.failures, 1);
        j.append(b"still lands").unwrap();
        let w = j.dir_sync_warning().expect("second dir sync failed");
        assert_eq!(w.failures, 2);
        assert!(w.last_error.contains("simulated directory sync failure"));
        assert!(w.to_string().contains("2 commit(s)"));

        // And the cost is real: the un-synced rename does not survive a
        // crash — the journal vanishes with its dirent.
        vfs.reboot();
        assert!(!vfs.exists(&path));

        // A healthy journal carries no warning.
        let vfs2: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
        let j2 = Journal::create_with(vfs2, &path, 1).unwrap();
        assert!(j2.dir_sync_warning().is_none());
    }

    #[test]
    fn journal_protocol_runs_unchanged_on_a_fault_vfs() {
        let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::pristine());
        let path = PathBuf::from("/chaos/roundtrip.journal");
        let mut j = Journal::create_with(vfs.clone(), &path, 11).unwrap();
        j.append(b"one").unwrap();
        j.append(b"two").unwrap();
        drop(j);
        let (j, rec) = Journal::open_with(vfs.clone(), &path, 11).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert_eq!(j.records(), 2);
        let rec = Journal::read_with(&*vfs, &path, 11).unwrap();
        assert_eq!(rec.records[1], b"two");
    }

    #[test]
    fn a_batch_lands_whole_under_one_commit_or_not_at_all() {
        let path = PathBuf::from("/chaos/batch.journal");
        let batch: [&[u8]; 3] = [b"one", b"", b"three"];
        let reference = Arc::new(FaultVfs::pristine());
        let mut j = Journal::create_with(reference.clone(), &path, 5).unwrap();
        let ops_created = reference.trace().len();
        j.append(b"before").unwrap();
        let ops_before = reference.trace().len();
        j.append_all(&batch).unwrap();
        assert_eq!(j.records(), 4);
        let ops = reference.trace().len();
        // Three records cost what one does, and an empty batch nothing.
        assert_eq!(ops - ops_before, ops_before - ops_created);
        j.append_all(&[] as &[&[u8]]).unwrap();
        assert_eq!(reference.trace().len(), ops);

        // A power cut at every operation of the batched commit leaves the
        // one earlier record alone or all four — never part of the batch.
        for k in ops_before..=ops {
            let vfs = Arc::new(FaultVfs::new(FaultScript::crash_at(k)));
            let mut j = Journal::create_with(vfs.clone(), &path, 5).unwrap();
            j.append(b"before").unwrap();
            let _ = j.append_all(&batch);
            vfs.reboot();
            let survived = Journal::read_with(&*vfs, &path, 5).unwrap().records.len();
            assert_eq!(survived, if k < ops { 1 } else { 4 }, "crash at op {k}");
        }

        // A failed commit rolls the whole batch back in memory too: the
        // next append continues the committed prefix.
        let vfs = Arc::new(FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(ops_before, Fault::Enospc)],
        }));
        let mut j = Journal::create_with(vfs.clone(), &path, 5).unwrap();
        j.append(b"before").unwrap();
        assert!(matches!(
            j.append_all(&batch),
            Err(JournalError::Io { op: "write", .. })
        ));
        assert_eq!(j.records(), 1);
        j.append(b"after").unwrap();
        let rec = Journal::read_with(&*vfs, &path, 5).unwrap();
        assert_eq!(rec.records, vec![b"before".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn fingerprint_builder_separates_fields() {
        let digest = |f: &dyn Fn(&mut Fingerprint)| {
            let mut fp = Fingerprint::new();
            f(&mut fp);
            fp.finish()
        };
        let ab_c = digest(&|fp| {
            fp.absorb_str("ab");
            fp.absorb_str("c");
        });
        let a_bc = digest(&|fp| {
            fp.absorb_str("a");
            fp.absorb_str("bc");
        });
        assert_ne!(ab_c, a_bc, "length prefixing must prevent aliasing");
        assert_ne!(
            digest(&|fp| fp.absorb_f64(0.0)),
            digest(&|fp| fp.absorb_f64(-0.0))
        );
        assert_eq!(
            digest(&|fp| fp.absorb_u64(5)),
            digest(&|fp| fp.absorb_u64(5))
        );
    }
}
