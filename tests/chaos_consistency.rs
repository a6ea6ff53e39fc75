//! Crash-consistency oracle, end to end: every I/O-operation crash
//! point of a reference journaled sweep must either resume
//! **byte-identically** or refuse with a **typed error naming the
//! corruption** — zero silent divergence — and so must every generated
//! multi-fault trial, whose failure shrinks to a minimal script.

use std::cell::Cell;

use spasm::apps::SizeClass;
use spasm::core::chaos::{
    explore_crash_points, run_reference, script_gen, total_points, verify_script_with,
    verify_shard_script, CrashVerdict,
};
use spasm::core::figures::{self, FigureSpec};
use spasm::core::sweep::{PointCache, Sweep, SweepConfig};
use spasm::journal::{Fault, FaultScript};
use spasm::machine::{CheckMode, FaultPlan};
use spasm_testkit::{check_with, gens, Config};

/// The smallest interesting sweep: F1 at test size, p = 2.
fn smoke() -> Sweep<'static> {
    let spec = figures::by_id("F1").expect("F1 is a defined figure");
    Sweep::new(spec, SizeClass::Test, &[2], 42)
}

#[test]
fn every_crash_point_resumes_byte_identically() {
    let cs = smoke();
    let report = explore_crash_points(&cs, &PointCache::default(), 0).expect("zero divergence");
    assert!(report.ops > 0, "the reference sweep must do I/O");
    assert_eq!(report.crash_points, report.ops, "one power cut per op");
    // A pure power cut can never corrupt the journal: the whole-file
    // atomic-rename commit means the durable image is always the last
    // fully committed one, so every crash point resumes identically.
    assert_eq!(report.refused, 0, "{:?}", report.refusals);
    assert_eq!(report.identical, report.crash_points);
    // Coverage, not vacuity: early crashes leave nothing to replay,
    // late crashes replay all but the in-flight point.
    let total = total_points(&cs);
    assert_eq!(report.min_replayed, 0, "a crash before the first commit");
    assert!(
        report.max_replayed + 1 >= total,
        "a crash at the last op must preserve nearly every point \
         (replayed {} of {total})",
        report.max_replayed
    );
}

#[test]
fn torn_journals_repair_or_refuse_but_never_diverge() {
    let cs = smoke();
    // Dropped fsync at every sync op × crash within the next 8 ops:
    // the classic torn-file grid. Identical (torn-tail repair) and
    // Refused (the tear destroyed the header — NotAJournal) are both
    // lawful; divergence would have returned Err.
    let report = explore_crash_points(&cs, &PointCache::default(), 8).expect("zero divergence");
    assert!(report.torn_points > 0, "the grid must cover some sync ops");
    assert_eq!(report.refused_pure_crash, 0);
    for (script, error) in &report.refusals {
        assert!(
            script.faults.iter().any(|&(_, f)| f == Fault::DropSync),
            "only dropped-fsync scripts may refuse, got {script}"
        );
        assert!(
            error.contains("not a spasm journal") || error.contains("corrupt"),
            "a refusal must name the corruption: {error}"
        );
    }
}

/// A victim whose cache an earlier figure warmed journals its hits in one
/// batched commit. Whatever crashes inside it, a resume that shares
/// nothing finds all of the batch or none of it — and still converges.
#[test]
fn a_crash_inside_a_batched_commit_keeps_all_of_the_batch_or_none() {
    let spec = figures::by_id("F1").expect("F1 is a defined figure");
    let cs = Sweep::new(spec, SizeClass::Test, &[2, 4], 42);
    let total = total_points(&cs);
    let (_, cold_trace) = run_reference(&cs, &PointCache::default()).expect("reference");
    // A cache warmed by an earlier figure that plotted the first `series`
    // series of this one.
    let warmed = |series: usize| {
        let earlier = FigureSpec {
            machines: &spec.machines[..series],
            ..*spec
        };
        let mut warm = PointCache::default();
        Sweep {
            spec: &earlier,
            ..cs
        }
        .run(None, &mut warm, |_| {});
        warm
    };
    // The first series only (a batch, then single commits), and the whole
    // figure (nothing but the batch).
    for series in [1, spec.machines.len()] {
        let warm = warmed(series);
        let batch = series * cs.procs.len();
        let (expected, trace) = run_reference(&cs, &warm).expect("reference run is clean");
        assert!(
            trace.len() < cold_trace.len(),
            "{batch} hits must cost fewer commits than {batch} runs"
        );
        for k in 0..trace.len() {
            let script = FaultScript::crash_at(k);
            match verify_script_with(&cs, &cs.config, &warm, &expected, &script) {
                Ok(CrashVerdict::Identical { replayed }) => assert!(
                    replayed == 0 || (batch..=total).contains(&replayed),
                    "crash at op {k}: {replayed} of a {batch}-point batch survived"
                ),
                other => panic!("crash at op {k}: {other:?}"),
            }
        }
    }
    // The explorer proper over the all-hits universe, torn-file grid
    // included: repair or refuse, never diverge.
    let all = warmed(spec.machines.len());
    let report = explore_crash_points(&cs, &all, 8).expect("zero divergence");
    assert!(report.crash_points < cold_trace.len() && report.torn_points > 0);
    assert_eq!(report.refused_pure_crash, 0, "{:?}", report.refusals);
    assert_eq!((report.min_replayed, report.max_replayed), (0, total));
}

#[test]
fn single_fault_species_each_meet_the_oracle() {
    let cs = smoke();
    let (expected, trace) =
        run_reference(&cs, &PointCache::default()).expect("reference run is clean");
    let mid = trace.len() / 2;
    for fault in [
        Fault::FailDirSync,
        Fault::FailRename,
        Fault::Enospc,
        Fault::ShortWrite,
        Fault::DropSync,
        Fault::TornWrite,
        Fault::Crash,
    ] {
        let script = FaultScript {
            seed: cs.seed,
            faults: vec![(mid, fault)],
        };
        let verdict =
            verify_script_with(&cs, &cs.config, &PointCache::default(), &expected, &script)
                .expect("no divergence");
        match verdict {
            CrashVerdict::Identical { .. } => {}
            CrashVerdict::Refused { ref error } => {
                assert!(!error.is_empty(), "refusals carry a typed message");
            }
        }
    }
}

/// Where a generated trial runs, simplest first (the order it shrinks
/// toward). Each family has one sweep, and its reference is computed
/// once, before any trial.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// The serial F1 sweep: one commit per point.
    Journal,
    /// F1 at p = 2, 4 on a victim that differs from the reference only
    /// in `jobs = 2`: its workers enqueue and the submitting thread
    /// commits whatever has accumulated, so the batch sizes, and the
    /// operation a scripted fault lands on, vary from run to run.
    GroupCommit,
    /// The serial sweep as a two-shard fleet, recovered and then merged.
    ShardMerge,
    /// The serial sweep checked (`CheckMode::On`) under an adversarial
    /// machine fault plan.
    MachineFaults,
}

impl Family {
    const ALL: [Family; 4] = [
        Family::Journal,
        Family::GroupCommit,
        Family::ShardMerge,
        Family::MachineFaults,
    ];
}

/// One value is the whole trial: a family, the script's tear seed and its
/// faults. Every trial recovers to its family's reference bytes or
/// refuses typed. A failing one shrinks through testkit to a minimal
/// trial, printed with the `SPASM_PT_SEED` line that replays it alone.
#[test]
fn every_generated_fault_trial_meets_the_oracle() {
    let serial = smoke();
    let spec = figures::by_id("F1").expect("F1 is a defined figure");
    let wide = Sweep::new(spec, SizeClass::Test, &[2, 4], 42);
    let faulted = Sweep {
        config: SweepConfig {
            faults: Some(FaultPlan::adversarial(serial.seed)),
            check: CheckMode::On,
            ..serial.config
        },
        ..serial
    };
    let cold = PointCache::default();
    let reference = |cs: &Sweep<'_>| run_reference(cs, &cold).expect("reference run is clean");
    let (serial_bytes, _) = reference(&serial);
    let (wide_bytes, wide_trace) = reference(&wide);
    let (faulted_bytes, _) = reference(&faulted);
    let victim = SweepConfig {
        jobs: 2,
        ..wide.config
    };

    // Twice the widest sweep's I/O: past a victim's last operation,
    // indices reach into its recoveries.
    let max_op = 2 * wide_trace.len() + 8;
    let trials = gens::tuple3(
        gens::choice(Family::ALL.to_vec()),
        gens::u64s(0..u64::MAX),
        script_gen(max_op),
    );
    let config = Config {
        cases: 32,
        ..Config::default()
    };
    let seen = Cell::new(0u8);
    check_with(
        config,
        "fault_trial_oracle",
        &trials,
        |(family, seed, faults)| {
            seen.set(seen.get() | 1 << *family as u8);
            let script = FaultScript {
                seed: *seed,
                faults: faults.clone(),
            };
            let verdict = match family {
                Family::Journal => {
                    verify_script_with(&serial, &serial.config, &cold, &serial_bytes, &script)
                }
                Family::GroupCommit => {
                    verify_script_with(&wide, &victim, &cold, &wide_bytes, &script)
                }
                Family::ShardMerge => verify_shard_script(&serial, 2, &serial_bytes, &script),
                Family::MachineFaults => {
                    verify_script_with(&faulted, &faulted.config, &cold, &faulted_bytes, &script)
                }
            };
            // `Ok` is identical or refused typed; `Err` is a divergence.
            verdict.map(|_| ()).map_err(|e| e.to_string())
        },
    );
    // A replay runs the one case it names; a full run reaches every family.
    if std::env::var_os("SPASM_PT_SEED").is_none() {
        assert_eq!(seen.get(), 0b1111, "a family was never generated");
    }
}

/// The record EXPERIMENTS.md quotes, pinned by equality. The serial
/// operation trace is a contract: one commit of four operations per point,
/// after the point and before the next. From a warm cache every point is a
/// hit, enqueued and drained in one batched commit before anything runs:
/// that trace is a contract too.
#[test]
fn the_f1_traces_are_pinned() {
    let cs = smoke();
    let cold = explore_crash_points(&cs, &PointCache::default(), 8).expect("zero divergence");
    assert_eq!(
        cold.to_string(),
        "16 ops, 16 crash points + 26 torn points: 38 identical, 4 refused \
         (0 on pure crashes), replayed 0..=3, 0 divergent"
    );
    let mut warm = PointCache::default();
    cs.run(None, &mut warm, |_| {});
    let shared = explore_crash_points(&cs, &warm, 8).expect("zero divergence");
    assert_eq!(
        shared.to_string(),
        "8 ops, 8 crash points + 10 torn points: 14 identical, 4 refused \
         (0 on pure crashes), replayed 0..=3, 0 divergent"
    );
}
