//! Virtual filesystem layer for the journal: every byte the journal
//! puts on (or reads off) disk flows through a [`Vfs`], so the whole
//! durability protocol can be driven against a deterministic, in-memory
//! filesystem with scripted faults.
//!
//! Two implementations ship here:
//!
//! * [`RealVfs`] — the default; thin passthrough to `std::fs`.
//! * [`FaultVfs`] — a fully in-memory filesystem with an explicit
//!   *durability model* and a seeded [`FaultScript`]. It distinguishes
//!   what the running process sees (the **live** image) from what would
//!   survive a power cut right now (the **durable** image):
//!
//!   - a [`Vfs::write`] replaces the live content; its durable content
//!     is a *torn prefix* of the new bytes, drawn deterministically
//!     from the script seed, until a [`Vfs::sync_file`] promotes the
//!     full content;
//!   - directory entries (creations, renames, removals) become durable
//!     only when [`Vfs::sync_dir`] runs on the parent directory —
//!     exactly the POSIX contract the journal's
//!     write–fsync–rename–dirsync commit sequence is built against;
//!   - [`FaultVfs::reboot`] collapses the live image onto the durable
//!     one, simulating a crash + restart without killing any process.
//!
//! Faults are scripted by **mutating-operation index**: the *k*-th
//! write/sync/rename/remove/dirsync call (reads and existence probes
//! are free) can be made to crash, tear, short-write, report `ENOSPC`,
//! silently drop its durability, or fail outright. The operation
//! counter keeps running across [`FaultVfs::reboot`], so one script can
//! fault the recovery path too. Every mutating operation is also
//! recorded in a [`TraceEntry`] log — the reference trace the
//! crash-point explorer in `spasm-core::chaos` replays against.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The filesystem surface the journal layer uses. Object-safe: journals
/// hold an `Arc<dyn Vfs>`.
///
/// Only the operations the durability protocol actually performs are
/// modelled; there is deliberately no open-file-handle state — the
/// journal's files are KB-scale and every commit is a whole-file
/// rewrite, so path-level operations are the honest granularity.
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Reads the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Whether `path` currently exists (in the live image).
    fn exists(&self, path: &Path) -> bool;
    /// Creates-or-truncates `path` and writes `data` to it. Durability
    /// is *not* implied — call [`Vfs::sync_file`] next.
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Flushes `path`'s content to stable storage (`fsync`).
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames `from` onto `to`. The *rename itself* is not
    /// durable until [`Vfs::sync_dir`] on the parent directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes a directory's entries (creations, renames, removals) to
    /// stable storage. May legitimately fail on platforms that cannot
    /// fsync directories — callers decide whether that is fatal.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Lists the files in `dir`, in a deterministic (sorted) order.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The production [`Vfs`]: a thin passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        f.write_all(data)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        fs::File::open(dir)?.sync_all()
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }
}

/// A fault species a [`FaultScript`] can pin to one mutating-operation
/// index. Species only take effect on the operation kinds they model
/// (e.g. [`Fault::DropSync`] on a rename is inert), so randomly
/// generated scripts are always well-defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The directory sync fails (`sync_dir` only). Dirent durability is
    /// *not* promoted; the process keeps running.
    FailDirSync,
    /// The rename fails with an I/O error and has no effect
    /// (`rename` only).
    FailRename,
    /// The operation fails with `ENOSPC` and has no effect
    /// (`write` and `sync_file`).
    Enospc,
    /// Only a deterministic strict prefix of the data lands; the write
    /// returns an error but the process keeps running (`write` only).
    ShortWrite,
    /// The sync returns `Ok` but silently promotes nothing — the
    /// classic lying-fsync failure (`sync_file` only).
    DropSync,
    /// The machine crashes mid-write: a deterministic prefix of the
    /// data becomes the file's durable content and every subsequent
    /// operation fails (`write` only).
    TornWrite,
    /// The machine crashes immediately *before* this operation takes
    /// effect; it and every subsequent operation fail (all kinds).
    Crash,
}

/// The kind of a mutating [`Vfs`] operation, as recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsOpKind {
    /// [`Vfs::write`].
    Write,
    /// [`Vfs::sync_file`].
    SyncFile,
    /// [`Vfs::rename`].
    Rename,
    /// [`Vfs::sync_dir`].
    SyncDir,
    /// [`Vfs::remove_file`].
    RemoveFile,
}

impl fmt::Display for VfsOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VfsOpKind::Write => "write",
            VfsOpKind::SyncFile => "sync_file",
            VfsOpKind::Rename => "rename",
            VfsOpKind::SyncDir => "sync_dir",
            VfsOpKind::RemoveFile => "remove_file",
        })
    }
}

/// One mutating operation as recorded by a [`FaultVfs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The operation's index in the mutating-operation counter.
    pub index: usize,
    /// What kind of operation it was.
    pub kind: VfsOpKind,
    /// The path it targeted (the *destination* for renames).
    pub path: PathBuf,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {} {} {}", self.index, self.kind, self.path.display())
    }
}

/// A seeded fault plan for a [`FaultVfs`]: `(operation index, species)`
/// pairs, plus the seed every deterministic tear length is drawn from.
/// An empty script is a perfectly healthy in-memory filesystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// Seed for the torn-prefix draws (and nothing else): two scripts
    /// with the same entries and seed tear identically, entry by entry.
    pub seed: u64,
    /// Which mutating operation indices fault, and how. The first
    /// matching entry wins when indices repeat.
    pub faults: Vec<(usize, Fault)>,
}

impl FaultScript {
    /// A script holding exactly one [`Fault::Crash`] at operation `op`
    /// — the unit the exhaustive crash-point explorer sweeps.
    pub fn crash_at(op: usize) -> FaultScript {
        FaultScript {
            seed: 0,
            faults: vec![(op, Fault::Crash)],
        }
    }

    /// The fault scripted for operation `op`, if any.
    fn fault_at(&self, op: usize) -> Option<Fault> {
        self.faults.iter().find(|&&(i, _)| i == op).map(|&(_, f)| f)
    }
}

impl fmt::Display for FaultScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={:#x} [", self.seed)?;
        for (i, (op, fault)) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{fault:?}@{op}")?;
        }
        f.write_str("]")
    }
}

/// One file's two images: what the live process sees and what a crash
/// would preserve.
#[derive(Debug, Default, Clone)]
struct Inode {
    live: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct State {
    script: FaultScript,
    /// Live directory namespace: path → inode id.
    live: BTreeMap<PathBuf, usize>,
    /// Durable directory namespace: what a crash right now preserves.
    durable: BTreeMap<PathBuf, usize>,
    inodes: Vec<Inode>,
    ops: usize,
    crashed: bool,
    trace: Vec<TraceEntry>,
}

/// The deterministic chaos [`Vfs`]: an in-memory filesystem with the
/// live/durable durability model described in the module docs, scripted
/// by a [`FaultScript`]. See [`FaultVfs::reboot`] for crash recovery.
#[derive(Debug, Default)]
pub struct FaultVfs {
    state: Mutex<State>,
}

/// The `io::Error` every operation returns once the scripted machine
/// has crashed. Callers that want to distinguish "the simulated machine
/// died" from an ordinary fault can match on this text.
pub const CRASHED_MSG: &str = "simulated machine is down (FaultVfs crash)";

fn crashed_error() -> io::Error {
    io::Error::other(CRASHED_MSG)
}

/// `data[..n]` for a deterministic `n <= limit` drawn from
/// `(seed, op)`. SplitMix64 (the same mixer as `spasm-prng`) so tears
/// are stable across platforms and unaffected by script edits at other
/// indices.
fn tear_len(seed: u64, op: usize, limit: usize) -> usize {
    let mut s = seed ^ (op as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (spasm_prng::splitmix64(&mut s) as usize) % (limit + 1)
}

impl State {
    /// Counts, traces, and fault-resolves one mutating operation.
    /// `Err` means the machine is (now) down.
    fn begin(&mut self, kind: VfsOpKind, path: &Path) -> io::Result<Option<Fault>> {
        if self.crashed {
            return Err(crashed_error());
        }
        let index = self.ops;
        self.ops += 1;
        self.trace.push(TraceEntry {
            index,
            kind,
            path: path.to_path_buf(),
        });
        let fault = self.script.fault_at(index);
        if fault == Some(Fault::Crash) {
            self.crashed = true;
            return Err(crashed_error());
        }
        Ok(fault)
    }

    fn set_content(&mut self, path: &Path, live: Vec<u8>, durable: Vec<u8>) {
        match self.live.get(path) {
            Some(&id) => {
                self.inodes[id] = Inode { live, durable };
            }
            None => {
                self.inodes.push(Inode { live, durable });
                self.live.insert(path.to_path_buf(), self.inodes.len() - 1);
            }
        }
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("{}: no such file", path.display()),
        )
    }
}

impl FaultVfs {
    /// A fault vfs driven by `script`.
    pub fn new(script: FaultScript) -> FaultVfs {
        FaultVfs {
            state: Mutex::new(State {
                script,
                ..State::default()
            }),
        }
    }

    /// A healthy in-memory filesystem (empty script): used to record
    /// reference operation traces.
    pub fn pristine() -> FaultVfs {
        FaultVfs::new(FaultScript::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("FaultVfs mutex poisoned")
    }

    /// How many mutating operations have been issued so far.
    pub fn ops(&self) -> usize {
        self.lock().ops
    }

    /// Whether a scripted crash (or torn write) has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// The mutating-operation trace so far.
    pub fn trace(&self) -> Vec<TraceEntry> {
        self.lock().trace.clone()
    }

    /// Simulates a power cut and restart: the live image collapses onto
    /// the durable one (unsynced content becomes its torn prefix,
    /// un-`sync_dir`'d creations/renames/removals vanish) and the
    /// machine comes back up. The operation counter and script keep
    /// running, so later script entries can fault the recovery path.
    pub fn reboot(&self) {
        let mut st = self.lock();
        st.live = st.durable.clone();
        for inode in &mut st.inodes {
            inode.live = inode.durable.clone();
        }
        st.crashed = false;
    }

    /// The live content of `path`, if it exists — a test peephole that
    /// does not count as an operation.
    pub fn peek(&self, path: impl AsRef<Path>) -> Option<Vec<u8>> {
        let st = self.lock();
        let &id = st.live.get(path.as_ref())?;
        Some(st.inodes[id].live.clone())
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.lock();
        if st.crashed {
            return Err(crashed_error());
        }
        match st.live.get(path) {
            Some(&id) => Ok(st.inodes[id].live.clone()),
            None => Err(State::not_found(path)),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.lock();
        !st.crashed && st.live.contains_key(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let fault = st.begin(VfsOpKind::Write, path)?;
        let op = st.ops - 1;
        let seed = st.script.seed;
        match fault {
            Some(Fault::Enospc) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated ENOSPC",
            )),
            Some(Fault::TornWrite) => {
                let keep = tear_len(seed, op, data.len());
                st.set_content(path, data[..keep].to_vec(), data[..keep].to_vec());
                st.crashed = true;
                Err(crashed_error())
            }
            Some(Fault::ShortWrite) => {
                // Strictly shorter than the data whenever possible.
                let keep = tear_len(seed, op, data.len().saturating_sub(1));
                st.set_content(path, data[..keep].to_vec(), data[..keep].to_vec());
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "simulated short write",
                ))
            }
            _ => {
                // Healthy write: live content lands in full, but until a
                // sync_file only a torn prefix would survive a crash.
                let keep = tear_len(seed, op, data.len());
                st.set_content(path, data.to_vec(), data[..keep].to_vec());
                Ok(())
            }
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let fault = st.begin(VfsOpKind::SyncFile, path)?;
        match fault {
            Some(Fault::Enospc) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "simulated ENOSPC during fsync",
            )),
            // The lying fsync: reports success, promotes nothing.
            Some(Fault::DropSync) => Ok(()),
            _ => {
                let &id = st.live.get(path).ok_or_else(|| State::not_found(path))?;
                st.inodes[id].durable = st.inodes[id].live.clone();
                Ok(())
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let fault = st.begin(VfsOpKind::Rename, to)?;
        if fault == Some(Fault::FailRename) {
            return Err(io::Error::other("simulated rename failure"));
        }
        let id = st.live.remove(from).ok_or_else(|| State::not_found(from))?;
        st.live.insert(to.to_path_buf(), id);
        Ok(())
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let fault = st.begin(VfsOpKind::SyncDir, dir)?;
        if fault == Some(Fault::FailDirSync) {
            return Err(io::Error::other("simulated directory sync failure"));
        }
        // Promote this directory's entries: the durable namespace for
        // `dir` becomes exactly the live one. File *content* durability
        // is not touched — that is sync_file's job.
        let in_dir = |p: &Path| p.parent() == Some(dir);
        st.durable.retain(|p, _| !in_dir(p));
        let promoted: Vec<(PathBuf, usize)> = st
            .live
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, &id)| (p.clone(), id))
            .collect();
        st.durable.extend(promoted);
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        st.begin(VfsOpKind::RemoveFile, path)?;
        st.live
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| State::not_found(path))
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let st = self.lock();
        if st.crashed {
            return Err(crashed_error());
        }
        // BTreeMap iteration is sorted: deterministic for free.
        Ok(st
            .live
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    /// The journal's commit sequence against one file, by hand.
    fn commit(vfs: &FaultVfs, path: &str, data: &[u8]) -> io::Result<()> {
        let live = p(path);
        let tmp = p(&format!("{path}.tmp"));
        vfs.write(&tmp, data)?;
        vfs.sync_file(&tmp)?;
        vfs.rename(&tmp, &live)?;
        vfs.sync_dir(live.parent().unwrap())
    }

    #[test]
    fn unsynced_content_survives_only_as_a_torn_prefix() {
        let vfs = FaultVfs::pristine();
        vfs.write(&p("/d/a"), b"0123456789").unwrap();
        vfs.sync_dir(&p("/d")).unwrap(); // dirent durable, content not
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"0123456789");
        vfs.reboot();
        let after = vfs.read(&p("/d/a")).unwrap();
        assert!(b"0123456789".starts_with(&after[..]), "{after:?}");
        assert!(after.len() < 10, "an unsynced write must not be durable");

        // Synced content survives in full.
        vfs.write(&p("/d/a"), b"0123456789").unwrap();
        vfs.sync_file(&p("/d/a")).unwrap();
        vfs.reboot();
        assert_eq!(vfs.read(&p("/d/a")).unwrap(), b"0123456789");
    }

    #[test]
    fn dirents_need_sync_dir_to_survive() {
        let vfs = FaultVfs::pristine();
        vfs.write(&p("/d/a"), b"x").unwrap();
        vfs.sync_file(&p("/d/a")).unwrap();
        vfs.reboot(); // no sync_dir: the file itself vanishes
        assert!(!vfs.exists(&p("/d/a")));

        // Rename durability likewise pends on sync_dir of the parent.
        commit(&vfs, "/d/j", b"v1").unwrap();
        vfs.write(&p("/d/j.tmp"), b"v2").unwrap();
        vfs.sync_file(&p("/d/j.tmp")).unwrap();
        vfs.rename(&p("/d/j.tmp"), &p("/d/j")).unwrap();
        assert_eq!(vfs.read(&p("/d/j")).unwrap(), b"v2");
        vfs.reboot(); // rename not yet durable: old image reappears
        assert_eq!(vfs.read(&p("/d/j")).unwrap(), b"v1");
    }

    #[test]
    fn committed_images_survive_any_crash_point() {
        // Crash at every op index of a two-commit sequence: the durable
        // journal is always the empty state, v1 in full, or v2 in full.
        let probe = {
            let vfs = FaultVfs::pristine();
            commit(&vfs, "/d/j", b"version-one").unwrap();
            commit(&vfs, "/d/j", b"version-two!").unwrap();
            vfs.ops()
        };
        for k in 0..probe {
            let vfs = FaultVfs::new(FaultScript::crash_at(k));
            let r = commit(&vfs, "/d/j", b"version-one")
                .and_then(|()| commit(&vfs, "/d/j", b"version-two!"));
            assert!(vfs.crashed());
            assert!(r.is_err(), "crash at op {k} must surface");
            vfs.reboot();
            match vfs.peek("/d/j") {
                None => {} // crashed before the first commit was durable
                Some(img) => assert!(
                    img == b"version-one" || img == b"version-two!",
                    "crash at op {k} left a torn committed image: {img:?}"
                ),
            }
        }
    }

    #[test]
    fn drop_sync_plus_crash_yields_a_torn_file() {
        // Ops: 0 write, 1 sync (dropped), 2 rename, 3 sync_dir, crash @4.
        let script = FaultScript {
            seed: 7,
            faults: vec![(1, Fault::DropSync), (4, Fault::Crash)],
        };
        let vfs = FaultVfs::new(script);
        commit(&vfs, "/d/j", b"0123456789abcdef").unwrap();
        let _ = vfs.write(&p("/d/next"), b"boom"); // op 4: crash
        assert!(vfs.crashed());
        vfs.reboot();
        let img = vfs.peek("/d/j").expect("the rename itself was durable");
        assert!(img.len() < 16, "the dropped fsync must cost bytes");
        assert!(b"0123456789abcdef".starts_with(&img[..]));
    }

    #[test]
    fn fault_species_behave_and_inert_entries_pass_through() {
        // ENOSPC: typed, no effect.
        let vfs = FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(0, Fault::Enospc)],
        });
        let err = vfs.write(&p("/d/a"), b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(!vfs.exists(&p("/d/a")));
        assert!(!vfs.crashed());

        // ShortWrite: strict prefix lands, typed error, no crash.
        let vfs = FaultVfs::new(FaultScript {
            seed: 3,
            faults: vec![(0, Fault::ShortWrite)],
        });
        let err = vfs.write(&p("/d/a"), b"0123456789").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let got = vfs.peek("/d/a").unwrap();
        assert!(got.len() < 10 && b"0123456789".starts_with(&got[..]));

        // FailRename: typed, no effect.
        let vfs = FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(2, Fault::FailRename)],
        });
        vfs.write(&p("/d/t"), b"v").unwrap();
        vfs.sync_file(&p("/d/t")).unwrap();
        assert!(vfs.rename(&p("/d/t"), &p("/d/j")).is_err());
        assert!(vfs.exists(&p("/d/t")) && !vfs.exists(&p("/d/j")));

        // An inert species (DropSync on a write) passes through.
        let vfs = FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(0, Fault::DropSync)],
        });
        vfs.write(&p("/d/a"), b"x").unwrap();
        assert_eq!(vfs.peek("/d/a").unwrap(), b"x");
    }

    #[test]
    fn trace_records_every_mutating_op_and_script_spans_reboot() {
        let vfs = FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(5, Fault::Crash)],
        });
        commit(&vfs, "/d/j", b"v1").unwrap(); // ops 0..=3
        let trace = vfs.trace();
        assert_eq!(trace.len(), 4);
        assert_eq!(
            trace.iter().map(|t| t.kind).collect::<Vec<_>>(),
            vec![
                VfsOpKind::Write,
                VfsOpKind::SyncFile,
                VfsOpKind::Rename,
                VfsOpKind::SyncDir
            ]
        );
        assert_eq!(trace[0].path, p("/d/j.tmp"));
        assert_eq!(trace[2].path, p("/d/j"));

        vfs.reboot(); // counter keeps running: op 4 ok, op 5 crashes
        vfs.write(&p("/d/x"), b"a").unwrap();
        assert!(vfs.write(&p("/d/y"), b"b").is_err());
        assert!(vfs.crashed());
    }

    #[test]
    fn list_dir_is_sorted_and_scoped() {
        let vfs = FaultVfs::pristine();
        for name in ["/d/b", "/d/a", "/e/c"] {
            vfs.write(&p(name), b"x").unwrap();
        }
        assert_eq!(vfs.list_dir(&p("/d")).unwrap(), vec![p("/d/a"), p("/d/b")]);
        assert_eq!(vfs.list_dir(&p("/e")).unwrap(), vec![p("/e/c")]);
        assert!(vfs.list_dir(&p("/nope")).unwrap().is_empty());
    }
}
