//! Crash-safe sweep journaling: resume a killed figure sweep.
//!
//! A [`SweepJournal`] wraps a durable `spasm-journal` file with one
//! record per *completed* sweep point — the point's identity (machine,
//! processor count) and its [`PointVerdict`]: for a completed point the
//! full [`RunMetrics`] and interval telemetry, for a failed one the
//! error's rendering. The file's header carries [`Sweep::fingerprint`]
//! — everything that determines point outcomes (figure spec, size, procs
//! grid, seed, machine configurations, resilience knobs) — so a resume
//! against a journal written under a different configuration fails with
//! a typed error instead of silently mixing incompatible results, and
//! [`Sweep::run`] refuses a journal opened for another sweep.
//!
//! Only completed points are journaled: a point that ran to a verdict
//! (`Ok` or `Failed`) is durable, while points lost to a SIGKILL are not,
//! so a resumed sweep re-runs exactly those and converges on the same
//! [`crate::sweep::FigureData`] an uninterrupted run produces,
//! byte-for-byte (failure reasons replay verbatim via
//! [`ExperimentError::Replayed`]).

use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use spasm_apps::SizeClass;
use spasm_journal::{DirSyncWarning, Fingerprint, Journal, JournalError, RealVfs, Vfs};
use spasm_machine::IntervalRecord;

use crate::figures::FigureSpec;
use crate::sweep::{PointVerdict, Sweep, SweepConfig};
use crate::{ExperimentError, Machine, RunMetrics};

/// Why a journal could not be created, opened, or replayed.
#[derive(Debug)]
pub enum ResumeError {
    /// The journal file itself is unusable: I/O failure, not a journal,
    /// interior corruption, or a configuration-fingerprint mismatch.
    Journal(JournalError),
    /// A record passed its checksum but does not decode as a sweep
    /// point — the journal was written by something else entirely.
    BadRecord {
        /// Zero-based index of the undecodable record.
        index: usize,
        /// What failed while decoding it.
        detail: String,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Journal(e) => e.fmt(f),
            ResumeError::BadRecord { index, detail } => {
                write!(
                    f,
                    "journal record {index} does not decode as a sweep point: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<JournalError> for ResumeError {
    fn from(e: JournalError) -> Self {
        ResumeError::Journal(e)
    }
}

impl ResumeError {
    /// True when the journal exists and is healthy but was written under
    /// a different sweep configuration.
    pub fn is_fingerprint_mismatch(&self) -> bool {
        matches!(
            self,
            ResumeError::Journal(JournalError::FingerprintMismatch { .. })
        )
    }
}

impl Sweep<'_> {
    /// Fingerprint of everything that determines this sweep's point
    /// outcomes — what a journal's header certifies.
    ///
    /// The one scheduling knob is deliberately excluded — `jobs` changes
    /// *when* points run, not what they compute, and a sweep may
    /// legitimately be resumed with more workers than the run that was
    /// killed.
    pub fn fingerprint(&self) -> u64 {
        let Sweep {
            spec,
            size,
            procs,
            seed,
            config,
        } = *self;
        let mut fp = Fingerprint::new();
        // v2: records carry interval telemetry and the fingerprint absorbs
        // the telemetry knob plus custom-app definitions; v1 journals are
        // refused typed rather than mis-decoded.
        fp.absorb_str("spasm-sweep-v2");
        // The shard contract rides in the fingerprint: per-shard journals
        // and a serial journal of the same sweep interoperate, while shards
        // cut under a different point→shard mapping are refused by
        // `shard::merge_shards` instead of silently mis-merged.
        fp.absorb_str(crate::shard::CONTRACT);
        fp.absorb_str(spec.id);
        fp.absorb_str(&spec.app.to_string());
        // A custom app (a compiled scenario) is identified by its
        // canonical definition text, not just its name: journals
        // written under one scenario file refuse to resume under an edited
        // one even when the name is reused. Built-ins contribute a fixed
        // empty detail.
        fp.absorb_str(spec.app.fingerprint_detail().unwrap_or(""));
        fp.absorb_str(&spec.net.to_string());
        fp.absorb_str(&format!("{:?}", spec.metric));
        fp.absorb_u64(spec.machines.len() as u64);
        // Every outcome-affecting machine-config field, so a resumed sweep
        // refuses a journal written under a different configuration.
        // Composite fields go in via their `Debug` rendering
        // (length-prefixed, so fields cannot alias across boundaries);
        // `g_scale` goes in as exact bits.
        for &m in spec.machines {
            fp.absorb_str(&m.to_string());
            let c = m.config();
            fp.absorb_str("machine-config");
            fp.absorb_str(&format!("{:?}", c.cache));
            fp.absorb_str(&format!("{:?}", c.gap_policy));
            fp.absorb_f64(c.g_scale);
            fp.absorb_str(&format!("{:?}", c.protocol));
            fp.absorb_str(&format!("{:?}", c.faults));
            fp.absorb_str(&c.budget.fingerprint_text());
            fp.absorb_str(&format!("{:?}", c.check));
            fp.absorb_str(&format!("{:?}", c.telemetry));
            fp.absorb_str(&format!("{:?}", c.engine));
        }
        fp.absorb_str(&format!("{size:?}"));
        fp.absorb_u64(procs.len() as u64);
        for &p in procs {
            fp.absorb_u64(p as u64);
        }
        fp.absorb_u64(seed);
        // The same four renderings key the cross-figure `PointCache`, so
        // what a header certifies and what two figures may share cannot
        // drift apart.
        let [faults, budget, check, telemetry] = config.outcome_knobs();
        fp.absorb_str(&faults);
        fp.absorb_str(&budget);
        // The slot of the retired retry ceiling, a per-sweep knob and then
        // a constant, which every journal ever written absorbed as 3.
        fp.absorb_u64(3);
        fp.absorb_str(&check);
        // Likewise the slot of a removed sweep-wide event budget, which every
        // journal ever written by `figures` absorbed as its unset rendering.
        fp.absorb_str("None");
        fp.absorb_str(&telemetry);
        // And the slot of the engine selector retired with Time Warp, which
        // every un-faulted journal on disk absorbed as this rendering.
        fp.absorb_str("Sequential");
        fp.finish()
    }
}

/// A durable journal bound to one figure sweep, committed as a pipelined
/// group-commit log. A commit is a full atomic rewrite plus two fsyncs —
/// milliseconds on a disk, as much as a small point — so no worker pays
/// for one: a worker [`enqueue`](SweepJournal::enqueue)s its finished
/// point and moves on, and the thread that submitted the sweep
/// [`drain`](SweepJournal::drain)s whatever has accumulated under one
/// commit. While that commit is in flight the next batch forms by itself,
/// so batch size follows fsync latency with nothing to tune.
#[derive(Debug)]
pub struct SweepJournal {
    inner: Mutex<Inner>,
    /// Encoded records of points that finished since the last drain; held
    /// only for a push or a swap, never across I/O.
    backlog: Mutex<Vec<Vec<u8>>>,
    replay: HashMap<(Machine, usize), PointVerdict>,
    repaired_bytes: usize,
    /// The header's fingerprint: the one sweep this journal serves.
    fingerprint: u64,
}

#[derive(Debug)]
struct Inner {
    journal: Journal,
    /// First append failure, latched: the sweep keeps running on its
    /// in-memory results, but the caller can surface the lost
    /// durability.
    io_error: Option<JournalError>,
    /// Successful point commits since open.
    commits: usize,
}

impl SweepJournal {
    /// Opens the journal of `sweep` at `path` on `vfs` (the disk is
    /// `Arc::new(RealVfs)`; the chaos harness passes a fault-scripted
    /// filesystem).
    ///
    /// With `resume` off this creates a fresh journal and refuses to
    /// clobber an existing file — resuming must be an explicit choice.
    /// With `resume` on an existing file is validated against
    /// [`Sweep::fingerprint`], a torn tail is repaired and every intact
    /// record is loaded for replay; a missing file is created (resuming
    /// nothing is a clean start, which makes retry loops idempotent).
    pub fn open(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        sweep: &Sweep<'_>,
        resume: bool,
    ) -> Result<SweepJournal, ResumeError> {
        let path = path.as_ref();
        let fingerprint = sweep.fingerprint();
        let mut replay = HashMap::new();
        let mut repaired_bytes = 0;
        let journal = if resume && vfs.exists(path) {
            let (journal, recovery) = Journal::open_with(vfs, path, fingerprint)?;
            for (index, record) in recovery.records.iter().enumerate() {
                let (machine, procs, point) = decode_point(record)
                    .map_err(|detail| ResumeError::BadRecord { index, detail })?;
                replay.insert((machine, procs), point);
            }
            repaired_bytes = recovery.truncated_bytes;
            journal
        } else {
            Journal::create_with(vfs, path, fingerprint)?
        };
        Ok(SweepJournal {
            inner: Mutex::new(Inner {
                journal,
                io_error: None,
                commits: 0,
            }),
            backlog: Mutex::new(Vec::new()),
            replay,
            repaired_bytes,
            fingerprint,
        })
    }

    /// Remnant of the positional constructors: [`SweepJournal::open`] on the
    /// disk, resuming. Stays because `benchmark/src/fleet.rs::load` calls it;
    /// goes when that stops.
    pub fn resume(
        path: impl AsRef<Path>,
        spec: &FigureSpec,
        size: SizeClass,
        procs: &[usize],
        seed: u64,
        config: &SweepConfig,
    ) -> Result<SweepJournal, ResumeError> {
        let sweep = Sweep {
            spec,
            size,
            procs,
            seed,
            config: *config,
        };
        SweepJournal::open(Arc::new(RealVfs), path, &sweep, true)
    }

    /// Fingerprint of the sweep this journal was opened for; the only
    /// sweep [`Sweep::run`] lets it serve.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of points loaded for replay.
    pub fn replayed(&self) -> usize {
        self.replay.len()
    }

    /// Bytes of torn tail dropped while opening (0 for a clean file).
    pub fn repaired_bytes(&self) -> usize {
        self.repaired_bytes
    }

    /// The first append failure, if any: results after it are correct in
    /// memory but will re-run on a future resume.
    pub fn io_error(&self) -> Option<String> {
        self.inner
            .lock()
            .expect("journal mutex poisoned: a journal append panicked")
            .io_error
            .as_ref()
            .map(|e| e.to_string())
    }

    /// Directory-sync failures accumulated over this journal's commits
    /// (see [`spasm_journal::DirSyncWarning`]): the appends landed, but
    /// their renames are not guaranteed to survive a power cut.
    pub fn dir_sync_warning(&self) -> Option<DirSyncWarning> {
        self.inner
            .lock()
            .expect("journal mutex poisoned: a journal append panicked")
            .journal
            .dir_sync_warning()
    }

    /// The journaled verdict for a point, if one exists.
    pub(crate) fn lookup(&self, machine: Machine, procs: usize) -> Option<PointVerdict> {
        self.replay.get(&(machine, procs)).cloned()
    }

    /// Successful point commits since open — not the create, not a
    /// torn-tail repair. A serial sweep makes one per fresh point plus one
    /// for its cache hits; with workers, fewer: each commit takes every
    /// point that finished during the one before it.
    pub fn commits(&self) -> usize {
        self.inner
            .lock()
            .expect("journal mutex poisoned: a journal append panicked")
            .commits
    }

    /// The journal's one write path: encodes a finished point — a
    /// worker's, or a cache hit the submitting thread shares — and leaves
    /// it for the next [`SweepJournal::drain`]. No I/O, and no lock a
    /// commit ever holds.
    pub(crate) fn enqueue(&self, machine: Machine, procs: usize, verdict: &PointVerdict) {
        let payload = encode_point(machine, procs, verdict);
        self.backlog
            .lock()
            .expect("backlog mutex poisoned: a push panicked")
            .push(payload);
    }

    /// Commits everything enqueued since the last drain under one commit
    /// (a crash keeps every record of it or none); nothing enqueued, no
    /// I/O. The submitting thread calls it once for a figure's cache hits,
    /// on every executor event and once more after the last, so a sweep
    /// returns with each record it produced durable or its failure
    /// latched (see [`SweepJournal::io_error`]) rather than failing the
    /// sweep — the in-memory figure is still correct.
    pub(crate) fn drain(&self) {
        let batch = std::mem::take(
            &mut *self
                .backlog
                .lock()
                .expect("backlog mutex poisoned: a push panicked"),
        );
        if batch.is_empty() {
            return;
        }
        let mut inner = self
            .inner
            .lock()
            .expect("journal mutex poisoned: a journal append panicked");
        if inner.io_error.is_some() {
            return;
        }
        match inner.journal.append_all(&batch) {
            Ok(()) => inner.commits += 1,
            Err(e) => inner.io_error = Some(e),
        }
    }
}

// --- record codec -------------------------------------------------------
//
// Fixed-width little-endian fields and length-prefixed strings; the
// framing layer already guards integrity (CRC64) and atomicity, so the
// payload only needs to be self-describing enough to decode.

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_f64(buf: &mut Vec<u8>, v: f64) {
    push_u64(buf, v.to_bits());
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    push_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos.checked_add(8).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| format!("u64 field runs past byte {}", self.buf.len()))?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = usize::try_from(self.u64()?).map_err(|_| "string length overflow".to_string())?;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        let end = end.ok_or_else(|| format!("{len}-byte string runs past the record"))?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|e| format!("string is not UTF-8: {e}"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.buf.len() - self.pos))
        }
    }
}

const TAG_OK: u64 = 0;
const TAG_FAILED: u64 = 1;

fn encode_point(machine: Machine, procs: usize, verdict: &PointVerdict) -> Vec<u8> {
    let intervals = verdict.as_ref().map_or(0, |(_, telemetry)| telemetry.len());
    let mut buf = Vec::with_capacity(160 + intervals * 96);
    push_str(&mut buf, &machine.to_string());
    push_u64(&mut buf, procs as u64);
    match verdict {
        Ok((m, telemetry)) => {
            push_u64(&mut buf, TAG_OK);
            push_f64(&mut buf, m.exec_us);
            push_f64(&mut buf, m.latency_us);
            push_f64(&mut buf, m.contention_us);
            push_f64(&mut buf, m.sync_us);
            push_f64(&mut buf, m.dir_wait_us);
            push_u64(&mut buf, m.messages);
            push_u64(&mut buf, m.bytes);
            push_u64(&mut buf, m.events);
            push_f64(&mut buf, m.crossing_fraction);
            push_u64(&mut buf, m.cache_hits);
            push_u64(&mut buf, m.cache_misses);
            push_u64(&mut buf, m.faults_injected);
            push_u64(&mut buf, m.wall.as_nanos() as u64);
            // The point's interval telemetry rides in the same record,
            // so a replayed point reproduces its JSONL byte-for-byte.
            push_u64(&mut buf, telemetry.len() as u64);
            for r in telemetry {
                push_u64(&mut buf, r.index);
                push_u64(&mut buf, r.t0_ns);
                push_u64(&mut buf, r.t1_ns);
                push_u64(&mut buf, r.events);
                push_u64(&mut buf, r.queue_depth);
                push_u64(&mut buf, r.busy_ns);
                push_u64(&mut buf, r.mem_ns);
                push_u64(&mut buf, r.comm_ns);
                push_u64(&mut buf, r.sync_ns);
                push_u64(&mut buf, r.cache_hits);
                push_u64(&mut buf, r.cache_misses);
                push_u64(&mut buf, r.faults);
            }
        }
        Err(error) => {
            push_u64(&mut buf, TAG_FAILED);
            // The slot of the retired attempt count: every point now runs
            // once, and records written under retries replay unchanged.
            push_u64(&mut buf, 1);
            push_str(&mut buf, &error.to_string());
        }
    }
    buf
}

/// Decodes one record. A failed point comes back as
/// [`ExperimentError::Replayed`] carrying the original error's rendering
/// verbatim.
pub(crate) fn decode_point(record: &[u8]) -> Result<(Machine, usize, PointVerdict), String> {
    let mut c = Cursor {
        buf: record,
        pos: 0,
    };
    let name = c.str()?;
    let machine = Machine::from_name(&name).map_err(|e| e.to_string())?;
    let procs = usize::try_from(c.u64()?).map_err(|_| "procs overflows usize".to_string())?;
    let point = match c.u64()? {
        TAG_OK => {
            let metrics = RunMetrics {
                exec_us: c.f64()?,
                latency_us: c.f64()?,
                contention_us: c.f64()?,
                sync_us: c.f64()?,
                dir_wait_us: c.f64()?,
                messages: c.u64()?,
                bytes: c.u64()?,
                events: c.u64()?,
                crossing_fraction: c.f64()?,
                cache_hits: c.u64()?,
                cache_misses: c.u64()?,
                faults_injected: c.u64()?,
                wall: Duration::from_nanos(c.u64()?),
            };
            let count = usize::try_from(c.u64()?)
                .map_err(|_| "interval count overflows usize".to_string())?;
            // 12 u64 fields per interval; bound the claim against the
            // remaining bytes before allocating.
            if count > (record.len() - c.pos) / 96 {
                return Err(format!("{count} intervals cannot fit the record"));
            }
            let mut telemetry = Vec::with_capacity(count);
            for _ in 0..count {
                telemetry.push(IntervalRecord {
                    index: c.u64()?,
                    t0_ns: c.u64()?,
                    t1_ns: c.u64()?,
                    events: c.u64()?,
                    queue_depth: c.u64()?,
                    busy_ns: c.u64()?,
                    mem_ns: c.u64()?,
                    comm_ns: c.u64()?,
                    sync_ns: c.u64()?,
                    cache_hits: c.u64()?,
                    cache_misses: c.u64()?,
                    faults: c.u64()?,
                });
            }
            Ok((metrics, telemetry))
        }
        TAG_FAILED => {
            c.u64()?; // the attempt count: read, never interpreted
            Err(ExperimentError::Replayed(c.str()?))
        }
        tag => return Err(format!("unknown outcome tag {tag}")),
    };
    c.done()?;
    Ok((machine, procs, point))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::figures;
    use spasm_journal::{Fault, FaultScript, FaultVfs};
    use spasm_testkit::{check_with, gens, Config};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spasm-core-journal-tests");
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        let path = dir.join(format!("{}-{name}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    pub(crate) fn sample_metrics() -> RunMetrics {
        RunMetrics {
            exec_us: 1.5,
            latency_us: 0.25,
            contention_us: 0.125,
            sync_us: 3.0,
            dir_wait_us: 0.0,
            messages: 42,
            bytes: 1024,
            events: 9001,
            crossing_fraction: 0.5,
            cache_hits: 7,
            cache_misses: 3,
            faults_injected: 1,
            wall: Duration::from_micros(1234),
        }
    }

    fn sample_telemetry() -> Vec<IntervalRecord> {
        vec![
            IntervalRecord {
                index: 0,
                t0_ns: 0,
                t1_ns: 100_000,
                events: 12,
                queue_depth: 3,
                busy_ns: 9_000,
                mem_ns: 600,
                comm_ns: 1_200,
                sync_ns: 0,
                cache_hits: 5,
                cache_misses: 2,
                faults: 0,
            },
            IntervalRecord {
                index: 3,
                t0_ns: 300_000,
                t1_ns: 400_000,
                events: 1,
                queue_depth: 0,
                busy_ns: 30,
                mem_ns: 0,
                comm_ns: 0,
                sync_ns: 90,
                cache_hits: 0,
                cache_misses: 1,
                faults: 1,
            },
        ]
    }

    #[test]
    fn point_codec_roundtrips_both_outcomes() {
        let m = sample_metrics();
        let telemetry = sample_telemetry();
        let ok = encode_point(Machine::CLogP, 8, &Ok((m, telemetry.clone())));
        let (machine, procs, point) = decode_point(&ok).unwrap();
        assert_eq!(machine, Machine::CLogP);
        assert_eq!(procs, 8);
        let (got, got_telemetry) = point.expect("an Ok record");
        assert_eq!(got.exec_us.to_bits(), m.exec_us.to_bits());
        assert_eq!(got.messages, m.messages);
        assert_eq!(got.wall, m.wall);
        assert_eq!(got_telemetry, telemetry);

        let failed = Err(ExperimentError::Config("3 is not a power of two".into()));
        let enc = encode_point(Machine::Pram, 3, &failed);
        assert_eq!(
            enc,
            failed_record(
                "pram",
                3,
                1,
                "invalid configuration: 3 is not a power of two"
            )
        );
        let (machine, procs, point) = decode_point(&enc).unwrap();
        assert_eq!((machine, procs), (Machine::Pram, 3));
        assert_eq!(
            point.unwrap_err(),
            ExperimentError::Replayed("invalid configuration: 3 is not a power of two".into())
        );
    }

    /// A Failed record as every version writes it: the attempt count (1
    /// now, up to 3 under the retired retries) sits before the reason.
    fn failed_record(machine: &str, procs: u64, attempts: u64, reason: &str) -> Vec<u8> {
        let mut buf = Vec::new();
        push_str(&mut buf, machine);
        push_u64(&mut buf, procs);
        push_u64(&mut buf, TAG_FAILED);
        push_u64(&mut buf, attempts);
        push_str(&mut buf, reason);
        buf
    }

    #[test]
    fn a_failed_record_from_a_retrying_writer_replays_and_merges_as_today() {
        use crate::shard::{merge_shards, ShardSpec};
        let spec = figures::FigureSpec {
            id: "R3",
            app: spasm_apps::AppId::Ep,
            net: crate::Net::Full,
            metric: figures::Metric::ExecTime,
            machines: &[Machine::Pram],
            expect: "one failed point",
        };
        let sweep = Sweep::new(&spec, SizeClass::Test, &[3], 1);
        let today = sweep.run(None, &mut crate::sweep::PointCache::default(), |_| {});
        let reason = "invalid configuration: processor count must be a power of two (got 3)";
        assert!(today.to_csv().contains(reason), "{}", today.to_csv());
        let fp = sweep.fingerprint();
        let vfs = Arc::new(FaultVfs::pristine());
        let write = |path: &str, attempts: u64| {
            let mut j = Journal::create_with(vfs.clone(), path, fp).unwrap();
            j.append(&failed_record("pram", 3, attempts, reason))
                .unwrap();
        };

        // Replay: a journal holding the attempts = 3 record renders the
        // figure byte-for-byte and runs nothing.
        write("/j", 3);
        let r = SweepJournal::open(vfs.clone(), "/j", &sweep, true).unwrap();
        let mut ran = 0;
        let resumed = sweep.run(Some(&r), &mut crate::sweep::PointCache::default(), |_| {
            ran += 1
        });
        assert_eq!(ran, 0);
        assert_eq!(resumed.to_csv(), today.to_csv());
        assert_eq!(resumed.render_table(), today.render_table());

        // Merge: the same point from an attempts = 1 writer is a duplicate,
        // not a conflict.
        for (k, attempts) in [(1, 3), (2, 1)] {
            let shard = ShardSpec::new(k, 2).unwrap();
            write(&format!("/shards/{}", shard.file_name(spec.id)), attempts);
        }
        let report = merge_shards(&*vfs, Path::new("/shards"), &sweep).unwrap();
        assert_eq!((report.shards_merged, report.duplicates), (2, 1));
        assert_eq!(report.data.to_csv(), today.to_csv());
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        assert!(decode_point(&[]).is_err());
        // A valid record with trailing garbage must not decode.
        let mut enc = encode_point(
            Machine::Pram,
            2,
            &Ok((sample_metrics(), sample_telemetry())),
        );
        enc.push(0);
        assert!(decode_point(&enc).unwrap_err().contains("trailing"));
        // An unknown machine name is named in the error.
        let mut bad = Vec::new();
        push_str(&mut bad, "bsp");
        push_u64(&mut bad, 2);
        push_u64(&mut bad, TAG_OK);
        assert!(decode_point(&bad).unwrap_err().contains("bsp"));
    }

    /// Hostile input for the record codec, generated: any truncation,
    /// single-byte flip or inflated length or count field of a valid Ok
    /// record with telemetry, or of a Failed record, decodes to `Ok` or a
    /// typed `Err` (a panic fails the property). An interval count that
    /// cannot fit is refused by the check that runs before allocating.
    #[test]
    fn hostile_records_decode_or_refuse_typed() {
        let ok = Ok((sample_metrics(), sample_telemetry()));
        let failed = Err(ExperimentError::Config("3 is not a power of two".into()));
        let records = [
            encode_point(Machine::CLogP, 8, &ok),
            encode_point(Machine::Pram, 3, &failed),
        ];
        // The u64 fields that claim a size: the machine name's length, then
        // the Ok record's interval count or the Failed record's reason length.
        let count_at = 8 + Machine::CLogP.to_string().len() + 8 + 8 + 13 * 8;
        let sized = [[0, count_at], [0, 8 + "pram".len() + 8 + 8 + 8]];
        // (record, edit: truncate | flip | inflate, position, inflation).
        let edits = gens::tuple4(
            gens::usizes(0..2),
            gens::usizes(0..3),
            gens::usizes(0..4096),
            gens::choice(vec![1u64, 2, 95, 96, 97, 1 << 32, u64::MAX]),
        );
        // Decoding is cheap: enough cases to touch most positions of both.
        let config = Config {
            cases: 1024,
            ..Config::default()
        };
        check_with(
            config,
            "hostile_journal_records",
            &edits,
            |&(r, edit, at, k)| {
                let mut bytes = records[r].clone();
                let (pos, field) = (at % bytes.len(), sized[r][at % 2]);
                let claim = u64::from_le_bytes(bytes[field..field + 8].try_into().unwrap());
                let claim = claim.saturating_add(k);
                match edit {
                    0 => bytes.truncate(pos),
                    1 => bytes[pos] = !bytes[pos],
                    _ => bytes[field..field + 8].copy_from_slice(&claim.to_le_bytes()),
                }
                match decode_point(&bytes) {
                    Ok(_) if edit != 1 => Err("a truncated or inflated record decoded".into()),
                    Err(e) if edit == 2 && field == count_at && !e.contains("cannot fit") => {
                        Err(format!("{claim} intervals were not refused up front: {e}"))
                    }
                    _ => Ok(()),
                }
            },
        );
    }

    #[test]
    fn fingerprint_separates_every_outcome_affecting_knob() {
        let spec = figures::by_id("F1").unwrap();
        let base = Sweep::new(spec, SizeClass::Test, &[2, 4], 5);
        let fp = base.fingerprint();
        // Same inputs, same fingerprint.
        assert_eq!(
            fp,
            Sweep::new(spec, SizeClass::Test, &[2, 4], 5).fingerprint()
        );
        let with = |config| Sweep { config, ..base };
        // Each knob separates; telemetry too, since it changes what every
        // record carries.
        let instrumented = SweepConfig {
            telemetry: Some(spasm_machine::TelemetryConfig::every_us(100)),
            ..SweepConfig::default()
        };
        for (knob, other) in [
            (
                "spec",
                Sweep {
                    spec: figures::by_id("F2").unwrap(),
                    ..base
                },
            ),
            (
                "size",
                Sweep {
                    size: SizeClass::Small,
                    ..base
                },
            ),
            (
                "procs",
                Sweep {
                    procs: &[2, 4, 8],
                    ..base
                },
            ),
            ("seed", Sweep { seed: 6, ..base }),
            ("telemetry", with(instrumented)),
        ] {
            assert_ne!(fp, other.fingerprint(), "{knob}");
        }
        // `jobs` does NOT separate: resume may change it.
        assert_eq!(fp, with(SweepConfig::parallel(7)).fingerprint());
    }

    #[test]
    fn fingerprint_stream_is_pinned_to_journals_already_on_disk() {
        // Literals computed while `max_attempts`, `total_events` and
        // `engine` were still `SweepConfig` fields: a change to the absorb
        // order, or to the three constants kept in their slots, orphans
        // every journal and shard written so far, and fails here first.
        let spec = figures::by_id("F1").unwrap();
        let base = Sweep::new(spec, SizeClass::Test, &[2, 4], 5);
        assert_eq!(base.fingerprint(), 0xe152_ea82_c8d8_8aa5);
        let instrumented = SweepConfig {
            telemetry: Some(spasm_machine::TelemetryConfig::every_us(100)),
            ..SweepConfig::default()
        };
        assert_eq!(
            Sweep {
                config: instrumented,
                ..base
            }
            .fingerprint(),
            0x8c82_8994_495c_1fef
        );
    }

    #[test]
    fn create_refuses_existing_and_resume_replays() {
        let spec = figures::by_id("F12").unwrap();
        let sweep = Sweep::new(spec, SizeClass::Test, &[2], 5);
        let path = scratch("create-resume");
        let j = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, false).unwrap();
        j.enqueue(
            Machine::Pram,
            2,
            &Ok((sample_metrics(), sample_telemetry())),
        );
        j.drain();
        j.enqueue(
            Machine::Target,
            2,
            &Err(ExperimentError::Verify("wrong sum".into())),
        );
        j.drain();
        assert!(j.io_error().is_none());
        drop(j);

        // A second create must refuse the existing file.
        match SweepJournal::open(Arc::new(RealVfs), &path, &sweep, false) {
            Err(ResumeError::Journal(JournalError::AlreadyExists { .. })) => {}
            other => panic!("expected AlreadyExists, got {other:?}"),
        }

        // Resume replays both points, typed and verbatim.
        let r = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, true).unwrap();
        assert_eq!(r.replayed(), 2);
        assert_eq!(r.repaired_bytes(), 0);
        let (metrics, telemetry) = r.lookup(Machine::Pram, 2).unwrap().unwrap();
        assert_eq!(metrics.events, 9001);
        assert_eq!(telemetry, sample_telemetry());
        let error = r.lookup(Machine::Target, 2).unwrap().unwrap_err();
        assert_eq!(error.to_string(), "verification failed: wrong sum");
        assert!(matches!(error, ExperimentError::Replayed(_)));
        assert!(r.lookup(Machine::LogP, 2).is_none());

        // Resume under a different seed must refuse the journal.
        match SweepJournal::open(Arc::new(RealVfs), &path, &Sweep { seed: 6, ..sweep }, true) {
            Err(e) => assert!(e.is_fingerprint_mismatch(), "{e}"),
            Ok(_) => panic!("fingerprint mismatch accepted"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// F12 at p = 2 — three points, one per machine — and a verdict to
    /// journal for any of them.
    fn three_points() -> (Sweep<'static>, PointVerdict) {
        let spec = figures::by_id("F12").unwrap();
        let ok = Ok((sample_metrics(), sample_telemetry()));
        (Sweep::new(spec, SizeClass::Test, &[2], 5), ok)
    }

    #[test]
    fn five_enqueues_and_one_drain_are_one_commit() {
        use spasm_journal::VfsOpKind::{Rename, SyncDir, SyncFile, Write};
        let (sweep, ok) = three_points();
        let vfs = Arc::new(FaultVfs::pristine());
        let j = SweepJournal::open(vfs.clone(), "/j", &sweep, false).unwrap();
        let created = vfs.ops();
        for procs in [2, 4, 8, 16, 32] {
            j.enqueue(Machine::Target, procs, &ok);
        }
        assert_eq!(
            (vfs.ops(), j.commits()),
            (created, 0),
            "an enqueue is a push"
        );
        j.drain();
        let kinds: Vec<_> = vfs.trace()[created..].iter().map(|t| t.kind).collect();
        assert_eq!(kinds, [Write, SyncFile, Rename, SyncDir]);
        assert_eq!(j.commits(), 1);
        // Nothing enqueued since: no I/O, no commit.
        j.drain();
        assert_eq!((vfs.ops(), j.commits()), (created + 4, 1));
        assert!(j.io_error().is_none());
        drop(j);
        let r = SweepJournal::open(vfs, "/j", &sweep, true).unwrap();
        assert_eq!(r.replayed(), 5);
    }

    #[test]
    fn a_crash_between_enqueue_and_commit_costs_exactly_the_backlog() {
        let (sweep, ok) = three_points();
        // One point committed, two enqueued behind it.
        let victim = |vfs: &Arc<FaultVfs>| {
            let j = SweepJournal::open(vfs.clone(), "/j", &sweep, false).unwrap();
            j.enqueue(Machine::Target, 2, &ok);
            j.drain();
            j.enqueue(Machine::LogP, 2, &ok);
            j.enqueue(Machine::CLogP, 2, &ok);
            j
        };
        let dry = Arc::new(FaultVfs::pristine());
        victim(&dry);
        // The power goes on the drain's first operation.
        let vfs = Arc::new(FaultVfs::new(FaultScript::crash_at(dry.ops())));
        let j = victim(&vfs);
        j.drain();
        assert!(vfs.crashed() && j.io_error().is_some());
        assert_eq!(j.commits(), 1);
        drop(j);

        // The previous prefix survives, and a resumed sweep runs the two
        // points the backlog held — no more, no fewer.
        vfs.reboot();
        let r = SweepJournal::open(vfs.clone(), "/j", &sweep, true).unwrap();
        assert_eq!(r.replayed(), 1);
        assert!(r.lookup(Machine::Target, 2).is_some());
        let mut ran = 0usize;
        sweep.run(Some(&r), &mut crate::sweep::PointCache::default(), |_| {
            ran += 1
        });
        assert_eq!((ran, r.commits()), (2, 2));
        assert!(r.io_error().is_none());
        drop(r);
        let whole = SweepJournal::open(vfs, "/j", &sweep, true).unwrap();
        assert_eq!(whole.replayed(), 3);
    }

    #[test]
    fn a_journal_that_stopped_persisting_does_no_more_io() {
        let (sweep, ok) = three_points();
        // The disk fills on the first commit after the create (4 ops).
        let vfs = Arc::new(FaultVfs::new(FaultScript {
            seed: 0,
            faults: vec![(4, Fault::Enospc)],
        }));
        let j = SweepJournal::open(vfs.clone(), "/j", &sweep, false).unwrap();
        assert_eq!(vfs.ops(), 4);
        j.enqueue(Machine::Target, 2, &ok);
        j.drain();
        assert!(j.io_error().is_some() && !vfs.crashed());
        let latched = vfs.ops();
        j.enqueue(Machine::LogP, 2, &ok);
        j.drain();
        j.enqueue(Machine::CLogP, 2, &ok);
        j.drain();
        assert_eq!((vfs.ops(), j.commits()), (latched, 0));
        drop(j);
        let r = SweepJournal::open(vfs, "/j", &sweep, true).unwrap();
        assert_eq!(r.replayed(), 0);
    }

    #[test]
    fn resume_of_a_missing_path_is_a_clean_start() {
        let spec = figures::by_id("F12").unwrap();
        let path = scratch("resume-fresh");
        let sweep = Sweep::new(spec, SizeClass::Test, &[2], 5);
        let j = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, true).unwrap();
        assert_eq!(j.replayed(), 0);
        assert!(
            path.exists(),
            "resume-of-nothing must still create the file"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
