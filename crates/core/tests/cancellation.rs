//! Cancellation: aborting a run at any poll point must be clean. Clean
//! means a typed [`RunError::Cancelled`], no panic, and *nothing from
//! the aborted run becoming durable*: a cancelled point never reaches
//! the sweep journal, so a later resume re-runs it from scratch and
//! converges on the same bytes as an uninterrupted sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use spasm_apps::SizeClass;
use spasm_core::journal::SweepJournal;
use spasm_core::sweep::{PointCache, Sweep, SweepConfig};
use spasm_core::{figures, Machine};
use spasm_journal::RealVfs;
use spasm_machine::{CheckMode, Engine, MemCtx, ProcBody, RunError, SetupCtx};
use spasm_topology::Topology;

/// The engine polls its probe once per this many popped events.
const POLL_STRIDE: u64 = 1024;

/// Two processors race `fetch_add`s on a word homed at node 0: four
/// events per processor per iteration, so 600 iterations cross the poll
/// stride four times.
fn contended_engine() -> Engine {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let counter = setup.alloc(0, 1);
    let bodies = (0..2)
        .map(|_| {
            let b: ProcBody = Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                for _ in 0..600 {
                    mem.fetch_add(counter, 1);
                    mem.compute(5);
                }
            });
            b
        })
        .collect();
    let mut config = Machine::CLogP.config();
    config.check = CheckMode::Strict;
    Engine::with_config(
        spasm_machine::MachineKind::CLogP,
        &topo,
        config,
        setup,
        bodies,
    )
}

/// Exhaustive kill sweep: count how many times an uncancelled run polls
/// the probe, then re-run the identical schedule killing it at each poll
/// index in turn. Every kill must surface as a typed `Cancelled` at
/// exactly that poll's event count, never a panic, hang, or silently
/// completed run.
#[test]
fn killing_a_run_at_every_poll_point_aborts_cleanly() {
    // Pass 1: count polls without cancelling.
    let polls = Arc::new(AtomicU64::new(0));
    let mut eng = contended_engine();
    let seen = Arc::clone(&polls);
    eng.set_cancel_probe(Box::new(move || {
        seen.fetch_add(1, Ordering::Relaxed);
        false
    }));
    let report = eng.run().expect("uncancelled run completes");
    let total_polls = polls.load(Ordering::Relaxed);
    assert_eq!(total_polls, report.events / POLL_STRIDE);
    assert!(
        total_polls >= 3,
        "only {total_polls} poll(s): schedule too short"
    );

    // Pass 2: kill at each poll index.
    for kill_at in 1..=total_polls {
        let mut eng = contended_engine();
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        eng.set_cancel_probe(Box::new(move || {
            seen.fetch_add(1, Ordering::Relaxed) + 1 >= kill_at
        }));
        match eng.run() {
            Err(RunError::Cancelled { events, .. }) => {
                assert_eq!(events, kill_at * POLL_STRIDE, "kill at poll {kill_at}");
            }
            other => {
                panic!("kill at poll {kill_at}/{total_polls}: expected Cancelled, got {other:?}")
            }
        }
    }
}

/// The durability half of the contract, through the public sweep path:
/// a zero deadline cancels every point of a journaled sweep mid-run, the
/// journal must end *empty* — an aborted run is not a verdict — and
/// resuming that journal without the deadline converges byte-for-byte
/// on an uninterrupted sweep's output.
#[test]
fn cancelled_points_never_reach_the_journal() {
    cancelled_points_stay_out_of_the_journal(1);
}

/// The same on two workers, where a finished point reaches the journal
/// through the backlog the submitting thread drains: a cancelled one must
/// not get that far either.
#[test]
fn cancelled_points_never_reach_the_backlog() {
    cancelled_points_stay_out_of_the_journal(2);
}

fn cancelled_points_stay_out_of_the_journal(jobs: usize) {
    let spec = figures::by_id("F1").expect("F1 exists");
    let sweep = Sweep {
        config: SweepConfig::parallel(jobs),
        ..Sweep::new(spec, SizeClass::Small, &[8], 1995)
    };

    let dir = std::env::temp_dir().join("spasm-cancel-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-cancel-{jobs}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // Pass 1: every point is overdue the moment it starts running (the
    // deadline is a scheduling knob — it stays out of the journal
    // fingerprint, so pass 2 can drop it).
    let doomed = Sweep {
        config: SweepConfig {
            deadline: Some(Duration::ZERO),
            ..sweep.config
        },
        ..sweep
    };
    let j = SweepJournal::open(Arc::new(RealVfs), &path, &doomed, false).unwrap();
    let data = doomed.run(Some(&j), &mut PointCache::default(), |_| {});
    assert!(j.io_error().is_none());
    assert_eq!(j.commits(), 0);
    assert_eq!(
        data.failed_points(),
        spec.machines.len(),
        "a zero deadline must cancel every point mid-run"
    );
    drop(j);

    // The journal recorded nothing from the aborted runs.
    let resumed = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, true).unwrap();
    assert_eq!(
        resumed.replayed(),
        0,
        "cancelled points leaked into the journal"
    );

    // Pass 2: resume without the deadline; the re-run must match an
    // uninterrupted sweep exactly.
    let clean = sweep.run(None, &mut PointCache::default(), |_| {});
    let recovered = sweep.run(Some(&resumed), &mut PointCache::default(), |_| {});
    assert_eq!(recovered.failed_points(), 0);
    assert_eq!(recovered.to_csv(), clean.to_csv(), "recovery diverged");
    std::fs::remove_file(&path).unwrap();
}
