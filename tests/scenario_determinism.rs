//! Scenario telemetry determinism: the interval stream a `.scn`
//! workload emits is a function of (scenario, seed) alone — not of the
//! worker count that swept it, and not of whether the sweep survived a
//! crash. Both are checked at the byte level on the JSONL rendering,
//! because that is what downstream tooling diffs.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spasm::apps::SizeClass;
use spasm::core::figures::FigureSpec;
use spasm::core::journal::SweepJournal;
use spasm::core::sweep::{PointCache, Sweep, SweepConfig};
use spasm::journal::RealVfs;
use spasm::machine::TelemetryConfig;

const SEED: u64 = 7;
const PROCS: [usize; 2] = [2, 4];

/// The bundled streaming scenario, compiled.
fn spec() -> &'static FigureSpec {
    let text = include_str!("../examples/scenarios/streaming.scn");
    let sc = spasm::scenario::parse(text).expect("bundled scenario parses");
    spasm::scenario::compile(&sc).expect("bundled scenario compiles")
}

/// The instrumented sweep of the scenario on `jobs` workers.
fn sweep(jobs: usize) -> Sweep<'static> {
    let config = SweepConfig {
        telemetry: Some(TelemetryConfig::every_us(50)),
        ..SweepConfig::parallel(jobs)
    };
    Sweep {
        config,
        ..Sweep::new(spec(), SizeClass::Test, &PROCS, SEED)
    }
}

/// A unique scratch path per call.
fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("spasm-scenario-determinism");
    fs::create_dir_all(&dir).expect("temp dir is writable");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("case-{}-{n}.journal", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

#[test]
fn telemetry_is_byte_identical_across_worker_counts() {
    let serial = sweep(1).run(None, &mut PointCache::default(), |_| {});
    assert_eq!(serial.failed_points(), 0);
    let jsonl = serial.to_telemetry_jsonl();
    assert!(
        jsonl.contains("\"kind\":\"interval\""),
        "telemetry must actually be on"
    );
    for jobs in [2usize, 4] {
        let parallel = sweep(jobs).run(None, &mut PointCache::default(), |_| {});
        assert_eq!(
            parallel.to_telemetry_jsonl(),
            jsonl,
            "jobs={jobs} changed the telemetry bytes"
        );
        assert_eq!(parallel.to_csv(), serial.to_csv());
    }
}

#[test]
fn telemetry_survives_kill_and_resume_byte_identical() {
    // The uninterrupted journaled run is the reference.
    let path = scratch();
    let sweep = sweep(1);
    let j = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, false).expect("create journal");
    let clean = sweep.run(Some(&j), &mut PointCache::default(), |_| {});
    assert_eq!(clean.failed_points(), 0);
    let jsonl = clean.to_telemetry_jsonl();
    assert!(jsonl.contains("\"kind\":\"interval\""));
    let bytes = fs::read(&path).expect("journal readable");
    fs::remove_file(&path).expect("cleanup");

    // Kill the run at several points: truncate the journal there (a
    // crash mid-commit), resume, and demand the same telemetry bytes.
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() * 3 / 4] {
        let damaged = scratch();
        fs::write(&damaged, &bytes[..cut]).expect("write damaged copy");
        let j = SweepJournal::open(Arc::new(RealVfs), &damaged, &sweep, true)
            .unwrap_or_else(|e| panic!("resume after cut at {cut}: {e}"));
        let resumed = sweep.run(Some(&j), &mut PointCache::default(), |_| {});
        assert_eq!(
            resumed.to_telemetry_jsonl(),
            jsonl,
            "telemetry diverged after a kill at byte {cut}"
        );
        assert_eq!(resumed.to_csv(), clean.to_csv());
        fs::remove_file(&damaged).expect("cleanup");
    }
}
