//! Whole-stack sharded fan-out: for any shard width and any kill/resume
//! schedule, merging the per-shard journals must render **byte-identical**
//! to a single-process serial run. Overlapping shards dedup; shards that
//! disagree on a point abort the merge; corrupt, mismatched, or missing
//! shards degrade to quarantine + partial-figure salvage — never a panic,
//! never a silently different figure.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spasm::apps::SizeClass;
use spasm::core::figures::{self, FigureSpec};
use spasm::core::journal::SweepJournal;
use spasm::core::shard::{merge_shards, MergeReport, ShardError, ShardSpec};
use spasm::core::sweep::{PointCache, Sweep};
use spasm::journal::{Journal, RealVfs};

const SEED: u64 = 5;
const PROCS: [usize; 2] = [2, 4];

fn spec() -> &'static FigureSpec {
    figures::by_id("F1").expect("F1 is a defined figure")
}

/// The one sweep every shard in this suite is a slice of.
fn sweep() -> Sweep<'static> {
    Sweep::new(spec(), SizeClass::Test, &PROCS, SEED)
}

/// A unique scratch directory per call, so tests never collide.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("spasm-shard-merge-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// The uninterrupted serial run's renderings.
fn serial() -> (String, String) {
    let data = sweep().run(None, &mut PointCache::default(), |_| {});
    (data.render_table(), data.to_csv())
}

/// Runs (or resumes) one shard worker's pass into `dir`, exactly as
/// `figures --shard K/N --journal dir --resume` does.
fn run_shard(dir: &Path, shard: ShardSpec) {
    let path = dir.join(shard.file_name(spec().id));
    let journal =
        SweepJournal::open(Arc::new(RealVfs), &path, &sweep(), true).expect("shard journal opens");
    sweep().run_shard(shard, &journal, &mut PointCache::default(), |_| {});
}

fn merge(dir: &Path) -> Result<MergeReport, ShardError> {
    merge_shards(&RealVfs, dir, &sweep())
}

fn assert_identical(report: &MergeReport) {
    let (table, csv) = serial();
    assert_eq!(report.data.render_table(), table, "table must match serial");
    assert_eq!(report.data.to_csv(), csv, "csv must match serial");
}

#[test]
fn merge_is_byte_identical_to_serial_for_every_width() {
    let total = spec().machines.len() * PROCS.len();
    for n in [1usize, 2, 3, 8] {
        let dir = scratch_dir();
        // Launch order must not matter: run the workers in reverse.
        for k in (1..=n).rev() {
            run_shard(&dir, ShardSpec::new(k, n).unwrap());
        }
        let report = merge(&dir).expect("merge succeeds");
        assert_identical(&report);
        assert_eq!(report.points_merged, total, "N={n}");
        assert_eq!(report.duplicates, 0, "N={n}");
        assert_eq!(report.missing_points, 0, "N={n}");
        assert!(report.quarantined.is_empty(), "N={n}");
        // With more shards than points, the surplus workers own nothing
        // and write header-only journals — still merged, still clean.
        assert_eq!(report.shards_merged, n, "N={n}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Three workers each sweep F3 and then F12 through a cache of their own,
/// as `figures --shard K/3 --figure F3 --figure F12` does: every F12 point
/// a worker owns is a point of F3 it ran a moment earlier, so its F12
/// journal is written from hits alone — and the fleet's journals still
/// merge to the bytes of the serial figures.
#[test]
fn shards_that_share_points_merge_byte_identically_to_serial() {
    let dir = scratch_dir();
    let sweeps = ["F3", "F12"].map(|id| Sweep {
        spec: figures::by_id(id).expect("a defined figure"),
        ..sweep()
    });
    for k in 1..=3 {
        let shard = ShardSpec::new(k, 3).unwrap();
        let mut cache = PointCache::default();
        let reports = sweeps.map(|sweep| {
            let path = dir.join(shard.file_name(sweep.spec.id));
            let journal =
                SweepJournal::open(Arc::new(RealVfs), &path, &sweep, false).expect("creates");
            let report = sweep.run_shard(shard, &journal, &mut cache, |_| {});
            assert!(journal.io_error().is_none());
            report
        });
        let [f3, f12] = reports;
        assert_eq!((f3.owned, f3.shared, f3.fresh), (2, 0, 2), "shard {k}");
        assert_eq!((f12.owned, f12.shared, f12.fresh), (2, 2, 0), "shard {k}");
        assert_eq!((f3.replayed, f12.replayed, f12.failed), (0, 0, 0));
    }
    for sweep in sweeps {
        let serial = sweep.run(None, &mut PointCache::default(), |_| {});
        let report = merge_shards(&RealVfs, &dir, &sweep).expect("merge succeeds");
        assert_eq!(report.data.render_table(), serial.render_table());
        assert_eq!(report.data.to_csv(), serial.to_csv());
        assert_eq!(
            (
                report.points_merged,
                report.duplicates,
                report.missing_points
            ),
            (6, 0, 0)
        );
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn any_kill_and_resume_schedule_converges() {
    let dir = scratch_dir();
    for k in 1..=3 {
        run_shard(&dir, ShardSpec::new(k, 3).unwrap());
    }
    let victim = dir.join(ShardSpec::new(2, 3).unwrap().file_name(spec().id));
    let full = fs::read(&victim).expect("victim shard readable");
    // A SIGKILL can stop the worker's whole-file commit at any byte:
    // replay the shard from every interesting prefix — header only,
    // mid-frame, one frame short — and demand convergence.
    for cut in [16usize, 17, full.len() / 2, full.len() - 5] {
        fs::write(&victim, &full[..cut]).expect("simulated torn commit");
        run_shard(&dir, ShardSpec::new(2, 3).unwrap());
        let report = merge(&dir).expect("merge succeeds after resume");
        assert_identical(&report);
        assert_eq!(report.missing_points, 0, "cut at {cut}");
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn overlapping_shard_sets_are_deduplicated() {
    let total = spec().machines.len() * PROCS.len();
    let dir = scratch_dir();
    // Three *families* over the same sweep: every point is journaled
    // twice (once by the 2-way family, once by the 1/1 full pass).
    for shard in [
        ShardSpec::new(1, 2).unwrap(),
        ShardSpec::new(2, 2).unwrap(),
        ShardSpec::new(1, 1).unwrap(),
    ] {
        run_shard(&dir, shard);
    }
    let report = merge(&dir).expect("agreeing overlaps merge fine");
    assert_identical(&report);
    assert_eq!(report.shards_merged, 3);
    assert_eq!(report.points_merged, total);
    assert_eq!(report.duplicates, total);
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Reads a journal's header fingerprint straight off the disk layout
/// (magic, then a little-endian u64) — the test forges rival shards
/// without reaching into crate internals.
fn header_fingerprint(path: &Path) -> u64 {
    let bytes = fs::read(path).expect("journal readable");
    u64::from_le_bytes(bytes[8..16].try_into().expect("header holds a u64"))
}

/// Forges a shard journal holding one tampered copy of an honest
/// record, with `flip` applied to the payload before it is re-framed
/// (checksums are recomputed by `append`, so only the semantic conflict
/// check can catch it).
fn forge_rival(dir: &Path, honest: &Path, rival: ShardSpec, flip: impl Fn(&mut Vec<u8>)) {
    let fp = header_fingerprint(honest);
    let recovery = Journal::read(honest, fp).expect("honest shard reads");
    let mut record = recovery.records[0].clone();
    flip(&mut record);
    let path = dir.join(rival.file_name(spec().id));
    let mut forged = Journal::create(&path, fp).expect("forged journal creates");
    forged.append(&record).expect("forged record appends");
}

#[test]
fn conflicting_overlap_aborts_the_merge() {
    let dir = scratch_dir();
    run_shard(&dir, ShardSpec::new(1, 1).unwrap());
    let honest = dir.join(ShardSpec::new(1, 1).unwrap().file_name(spec().id));
    // Flip a bit of `faults_injected` (the third-to-last u64 of an Ok
    // record — `wall` and the empty telemetry count trail it): still
    // decodes, passes its checksum, but the simulation result now
    // *differs* — the merge must refuse to pick a winner.
    forge_rival(&dir, &honest, ShardSpec::new(1, 2).unwrap(), |rec| {
        let i = rec.len() - 24;
        rec[i] ^= 0x01;
    });
    match merge(&dir) {
        Err(ShardError::Overlap { first, second, .. }) => {
            assert_ne!(first, second);
        }
        other => panic!("expected Overlap, got {other:?}"),
    }
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn wall_clock_differences_are_not_conflicts() {
    let dir = scratch_dir();
    run_shard(&dir, ShardSpec::new(1, 1).unwrap());
    let honest = dir.join(ShardSpec::new(1, 1).unwrap().file_name(spec().id));
    // Same point, different host wall-clock (the u64 before the empty
    // telemetry count): exactly what an honest re-run of the point
    // produces. Dedup, not conflict.
    forge_rival(&dir, &honest, ShardSpec::new(1, 2).unwrap(), |rec| {
        let i = rec.len() - 16;
        rec[i] ^= 0xff;
    });
    let report = merge(&dir).expect("wall-clock skew is not a conflict");
    assert_identical(&report);
    assert_eq!(report.duplicates, 1);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupt_shard_is_quarantined_and_its_points_salvaged() {
    let dir = scratch_dir();
    for k in 1..=3 {
        run_shard(&dir, ShardSpec::new(k, 3).unwrap());
    }
    // Interior corruption (not a torn tail): flip a byte inside the
    // first record of shard 1.
    let victim = dir.join(ShardSpec::new(1, 3).unwrap().file_name(spec().id));
    let mut bytes = fs::read(&victim).expect("victim readable");
    bytes[40] ^= 0x01;
    fs::write(&victim, &bytes).expect("corruption lands");
    let report = merge(&dir).expect("merge survives a corrupt shard");
    assert_eq!(report.quarantined.len(), 1);
    assert!(matches!(report.quarantined[0], ShardError::Corrupt { .. }));
    assert!(report.missing_points > 0);
    // Every uncovered point degrades to a FAILED cell naming the shard
    // that should have produced it.
    let named = report
        .data
        .series
        .iter()
        .flat_map(|s| &s.points)
        .filter(|v| {
            v.as_ref()
                .is_err_and(|e| e.to_string().contains("shard 1/3"))
        })
        .count();
    assert_eq!(named, report.missing_points);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn mismatched_fingerprint_shard_is_quarantined() {
    let dir = scratch_dir();
    run_shard(&dir, ShardSpec::new(1, 1).unwrap());
    let honest = dir.join(ShardSpec::new(1, 1).unwrap().file_name(spec().id));
    let alien = Sweep {
        seed: SEED + 1, // a different seed: honest work, wrong configuration
        ..sweep()
    }
    .fingerprint();
    assert_ne!(alien, header_fingerprint(&honest));
    let path = dir.join(ShardSpec::new(2, 2).unwrap().file_name(spec().id));
    Journal::create(&path, alien).expect("alien shard creates");
    let report = merge(&dir).expect("merge survives a mismatched shard");
    assert_identical(&report);
    assert_eq!(report.quarantined.len(), 1);
    assert!(matches!(
        report.quarantined[0],
        ShardError::FingerprintMismatch { .. }
    ));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn an_empty_directory_is_a_typed_missing_error() {
    let dir = scratch_dir();
    assert!(matches!(merge(&dir), Err(ShardError::Missing { .. })));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stray_non_shard_files_are_ignored_by_the_merge() {
    let dir = scratch_dir();
    for k in 1..=2 {
        run_shard(&dir, ShardSpec::new(k, 2).expect("valid shard"));
    }
    // Clutter the directory with everything a real fleet directory
    // accumulates: notes, CSV exports, a non-shard journal name, a
    // different figure's shard (filled with garbage to prove it is
    // never even opened), and a stray commit temp file.
    fs::write(dir.join("README.txt"), b"fleet scratch dir").expect("write");
    fs::write(dir.join("F1.csv"), b"proc,speedup\n2,1.0\n").expect("write");
    fs::write(dir.join("F1.journal"), b"not a shard name").expect("write");
    fs::write(dir.join("F9.shard-1-of-2.journal"), b"garbage bytes").expect("write");
    fs::write(dir.join("F1.shard-1-of-2.journal.tmp"), b"torn commit").expect("write");
    let report = merge(&dir).expect("merge succeeds despite strays");
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(report.missing_points, 0);
    assert_identical(&report);
    fs::remove_dir_all(&dir).expect("cleanup");
}
