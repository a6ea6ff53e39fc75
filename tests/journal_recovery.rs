//! Whole-stack crash recovery: damage a sweep journal at an arbitrary
//! byte — truncation (a crash mid-commit) or a flipped bit (rot) — and
//! the resume path must either repair to a valid prefix and then
//! complete the figure **byte-identically** to an uninterrupted run, or
//! refuse with a typed error naming what is wrong. Never a panic, never
//! a silently different figure.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spasm::apps::SizeClass;
use spasm::core::figures::{self, FigureSpec};
use spasm::core::journal::{ResumeError, SweepJournal};
use spasm::core::sweep::{PointCache, Sweep};
use spasm::journal::{Journal, JournalError, RealVfs};
use spasm_testkit::{check_with, gens, prop_assert, prop_assert_eq, Config};

const SEED: u64 = 5;
const PROCS: [usize; 2] = [2, 4];

/// The suite's sweep shape, over `spec`.
fn sweep_of(spec: &FigureSpec) -> Sweep<'_> {
    Sweep::new(spec, SizeClass::Test, &PROCS, SEED)
}

/// The sweep every damaged journal in this suite was written by.
fn f1() -> Sweep<'static> {
    sweep_of(figures::by_id("F1").expect("F1 is a defined figure"))
}

/// A unique scratch path per call, so shrinking re-runs never collide.
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("spasm-journal-recovery");
    fs::create_dir_all(&dir).expect("temp dir is writable");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("case-{}-{n}.journal", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

/// The uninterrupted run's rendering and the bytes of a complete
/// journal of the same sweep. Each test computes it once (the
/// simulations are the expensive part of this suite).
fn fixture() -> (String, String, Vec<u8>) {
    let clean = f1().run(None, &mut PointCache::default(), |_| {});
    let path = scratch();
    let j = SweepJournal::open(Arc::new(RealVfs), &path, &f1(), false).expect("create in temp dir");
    let journaled = f1().run(Some(&j), &mut PointCache::default(), |_| {});
    assert_eq!(journaled.to_csv(), clean.to_csv());
    let bytes = fs::read(&path).expect("journal readable");
    fs::remove_file(&path).expect("cleanup");
    (clean.to_csv(), clean.render_table(), bytes)
}

/// Resumes from a (possibly damaged) journal file and, if the journal
/// opens, completes the sweep and demands the bytes of `fixture`.
fn resume_and_compare(
    path: &PathBuf,
    fixture: &(String, String, Vec<u8>),
) -> Result<Result<(), ResumeError>, String> {
    let (clean_csv, clean_table, _) = fixture;
    match SweepJournal::open(Arc::new(RealVfs), path, &f1(), true) {
        Ok(j) => {
            let data = f1().run(Some(&j), &mut PointCache::default(), |_| {});
            prop_assert_eq!(&data.to_csv(), clean_csv, "CSV diverged after resume");
            prop_assert_eq!(
                &data.render_table(),
                clean_table,
                "table diverged after resume"
            );
            Ok(Ok(()))
        }
        Err(e) => Ok(Err(e)),
    }
}

#[test]
fn truncation_anywhere_resumes_byte_identical_or_fails_typed() {
    let fixture = fixture();
    let len = fixture.2.len() as u64;
    check_with(
        Config {
            cases: 24,
            ..Config::default()
        },
        "journal_recovery_truncate",
        &gens::u64s(0..len),
        |&cut| {
            let path = scratch();
            fs::write(&path, &fixture.2[..cut as usize]).expect("write damaged copy");
            let verdict = match resume_and_compare(&path, &fixture)? {
                Ok(()) => Ok(()),
                // A cut inside the 16-byte header leaves no journal to
                // resume; everything past it must repair and complete.
                Err(ResumeError::Journal(JournalError::NotAJournal { .. })) => {
                    prop_assert!(cut < 16, "NotAJournal for a cut at byte {}", cut);
                    Ok(())
                }
                Err(other) => Err(format!("unexpected error for cut {cut}: {other}")),
            };
            fs::remove_file(&path).expect("cleanup");
            verdict
        },
    );
}

#[test]
fn byte_flip_anywhere_resumes_byte_identical_or_fails_typed() {
    let fixture = fixture();
    let len = fixture.2.len() as u64;
    check_with(
        Config {
            cases: 24,
            ..Config::default()
        },
        "journal_recovery_flip",
        &gens::tuple2(gens::u64s(0..len), gens::u64s(1..256)),
        |&(pos, flip)| {
            let path = scratch();
            let mut damaged = fixture.2.clone();
            damaged[pos as usize] ^= flip as u8;
            fs::write(&path, &damaged).expect("write damaged copy");
            let verdict = match resume_and_compare(&path, &fixture)? {
                // Opened: the flip read as a torn tail; the surviving
                // prefix replayed and the rest re-ran to the same bytes.
                Ok(()) => Ok(()),
                Err(ResumeError::Journal(JournalError::NotAJournal { .. })) => {
                    prop_assert!(pos < 8, "magic damage reported for byte {}", pos);
                    Ok(())
                }
                Err(ResumeError::Journal(JournalError::FingerprintMismatch { .. })) => {
                    prop_assert!(
                        (8..16).contains(&pos),
                        "fingerprint damage reported for byte {}",
                        pos
                    );
                    Ok(())
                }
                // Interior corruption must name the damaged record.
                Err(ResumeError::Journal(JournalError::CorruptRecord { index, .. })) => {
                    prop_assert!(pos >= 16, "record damage reported for header byte {}", pos);
                    prop_assert!(index < 6, "record index {} out of range", index);
                    Ok(())
                }
                // A flip inside a payload that dodged the CRC is
                // effectively impossible; decode failures would land
                // here and are still typed.
                Err(ResumeError::BadRecord { .. }) => {
                    prop_assert!(pos >= 16, "payload damage reported for byte {}", pos);
                    Ok(())
                }
                Err(other) => Err(format!("unexpected error for flip at {pos}: {other}")),
            };
            fs::remove_file(&path).expect("cleanup");
            verdict
        },
    );
}

/// A figure whose every point an earlier figure already ran journals them
/// all in one batched commit. That journal is a whole journal — resumed
/// alone it replays every point to the bytes of a solo sweep — and cut
/// anywhere inside the batch it repairs to the records that survived and
/// re-runs the rest.
#[test]
fn a_journal_written_from_cache_hits_is_a_whole_journal() {
    let f3 = sweep_of(figures::by_id("F3").expect("F3 is a defined figure"));
    let f12 = sweep_of(figures::by_id("F12").expect("F12 is a defined figure"));
    let points = f12.spec.machines.len() * PROCS.len();
    let solo = f12.run(None, &mut PointCache::default(), |_| {});
    // Resumes F12 alone, sharing nothing; returns how many points
    // replayed and demands the rest re-run to the solo bytes.
    let resume_alone = |path: &PathBuf| {
        let j = SweepJournal::open(Arc::new(RealVfs), path, &f12, true).expect("resumes");
        let mut fresh = 0usize;
        let data = f12.run(Some(&j), &mut PointCache::default(), |_| fresh += 1);
        assert_eq!(j.replayed() + fresh, points);
        assert_eq!(data.to_csv(), solo.to_csv());
        assert_eq!(data.render_table(), solo.render_table());
        j.replayed()
    };

    let mut cache = PointCache::default();
    f3.run(None, &mut cache, |_| {});
    let path = scratch();
    let j = SweepJournal::open(Arc::new(RealVfs), &path, &f12, false).expect("create");
    let shared = f12.run(Some(&j), &mut cache, |_| {
        panic!("a hit entered the executor")
    });
    assert!(j.io_error().is_none());
    drop(j);
    assert_eq!(shared.to_csv(), solo.to_csv());
    let whole = fs::read(&path).expect("journal readable");
    let on_disk = Journal::read(&path, f12.fingerprint()).expect("journal reads");
    assert_eq!(on_disk.records.len(), points);
    assert_eq!(resume_alone(&path), points, "a whole journal replays whole");

    // Every thirteenth byte of the batch, and each frame boundary with its
    // neighbours (all 900-odd cuts pass too; they take nine seconds).
    let mut cuts: Vec<usize> = (16..whole.len()).step_by(13).collect();
    let mut at = 16;
    for record in &on_disk.records {
        at += 12 + record.len();
        cuts.extend([at - 1, at, at + 1]);
    }
    for cut in cuts.into_iter().filter(|&c| c < whole.len()) {
        fs::write(&path, &whole[..cut]).expect("write damaged copy");
        let survived = resume_alone(&path);
        assert!(survived < points, "cut at {cut} of {}", whole.len());
    }
    fs::remove_file(&path).expect("cleanup");
}

#[test]
fn journals_from_a_different_scenario_definition_are_refused() {
    let compile = |name: &str, rounds: u64| {
        let text =
            format!("[scenario]\nname = {name}\nrounds = {rounds}\n[phase]\nkind = barrier\n");
        let sc = spasm::scenario::parse(&text).expect("scenario parses");
        spasm::scenario::compile(&sc).expect("compiles")
    };
    let a = compile("recov", 1);
    // An edited definition under the *same* name compiles to the same
    // figure id but a different app.
    let edited = compile("recov", 2);
    assert_eq!(edited.id, a.id);
    assert_ne!(edited.app, a.app);

    // A journal written under A refuses the edit, and a different
    // scenario outright: the canonical text is part of the sweep
    // fingerprint.
    let path = scratch();
    drop(SweepJournal::open(Arc::new(RealVfs), &path, &sweep_of(a), false).expect("create"));
    for other in [edited, compile("recov-b", 2)] {
        match SweepJournal::open(Arc::new(RealVfs), &path, &sweep_of(other), true) {
            Err(e) => assert!(e.is_fingerprint_mismatch(), "{e}"),
            Ok(_) => panic!("a journal from a different scenario was accepted"),
        }
    }
    // Sanity: the journal still resumes under its own definition,
    // compiled again.
    SweepJournal::open(
        Arc::new(RealVfs),
        &path,
        &sweep_of(compile("recov", 1)),
        true,
    )
    .expect("same definition resumes");
    fs::remove_file(&path).expect("cleanup");
}

#[test]
fn resume_under_a_different_configuration_is_refused() {
    let path = scratch();
    fs::write(&path, &fixture().2).expect("write journal copy");
    // Same file, different seed: the fingerprint must refuse it. And a
    // different figure entirely: also refused, not mixed.
    let other_seed = Sweep {
        seed: SEED + 1,
        ..f1()
    };
    let other = sweep_of(figures::by_id("F2").expect("F2 is a defined figure"));
    for mismatched in [other_seed, other] {
        match SweepJournal::open(Arc::new(RealVfs), &path, &mismatched, true) {
            Err(e) => assert!(e.is_fingerprint_mismatch(), "{e}"),
            Ok(_) => panic!("a mismatched fingerprint was accepted"),
        }
    }
    fs::remove_file(&path).expect("cleanup");
}
