//! Crash-consistency oracle, end to end: every I/O-operation crash
//! point of a reference journaled sweep must either resume
//! **byte-identically** or refuse with a **typed error naming the
//! corruption** — zero silent divergence — and a failing chaos
//! campaign must shrink to a minimal reproducing fault script.

use spasm::apps::SizeClass;
use spasm::core::chaos::{
    explore_crash_points, run_campaign, run_reference, script_gen, shrink_demo, total_points,
    verify_script, verify_script_with, CampaignConfig, CrashVerdict, FAMILIES,
};
use spasm::core::figures::{self, FigureSpec};
use spasm::core::sweep::{PointCache, Sweep, SweepConfig};
use spasm::journal::{Fault, FaultScript};

/// The smallest interesting sweep — the one the campaign itself uses.
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
        let verdict = verify_script(&cs, &expected, &script).expect("no divergence");
        match verdict {
            CrashVerdict::Identical { .. } => {}
            CrashVerdict::Refused { ref error } => {
                assert!(!error.is_empty(), "refusals carry a typed message");
            }
        }
    }
}

/// Group commit under fire: the victim differs from the reference only in
/// `jobs = 2`, so its workers enqueue and the submitting thread commits
/// whatever has accumulated — batches whose size, and so the operation a
/// scripted fault lands on, vary from run to run. The oracle does not:
/// every script recovers to the serial reference's bytes or refuses typed.
#[test]
fn a_group_committing_victim_meets_the_oracle_under_generated_scripts() {
    let spec = figures::by_id("F1").expect("F1 is a defined figure");
    let cs = Sweep::new(spec, SizeClass::Test, &[2, 4], 42);
    let cold = PointCache::default();
    let (expected, trace) = run_reference(&cs, &cold).expect("reference run is clean");
    let victim = SweepConfig {
        jobs: 2,
        ..cs.config
    };
    let config = spasm_testkit::Config {
        cases: 24,
        ..spasm_testkit::Config::default()
    };
    // Indices past the victim's last operation reach into the recoveries.
    let scripts = script_gen(trace.len() + 8);
    spasm_testkit::check_with(config, "group_commit_oracle", &scripts, |faults| {
        let script = FaultScript {
            seed: cs.seed,
            faults: faults.clone(),
        };
        // `Ok` is identical or refused typed; `Err` is a divergence.
        verify_script_with(&cs, &victim, &cold, &expected, &script)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
}

#[test]
fn a_seeded_campaign_passes_across_all_families() {
    // One trial per family; the pinned record below runs eight.
    let trials = FAMILIES.len();
    let outcome = run_campaign(&CampaignConfig::new(0xC4A05, trials))
        .unwrap_or_else(|failure| panic!("campaign failed: {failure}"));
    assert_eq!(outcome.trials, trials);
    assert_eq!(outcome.identical + outcome.refused, trials);
}

#[test]
fn a_failing_campaign_shrinks_to_a_minimal_script() {
    let demo = shrink_demo(0xD).expect("demo finds its failure");
    assert_eq!(demo.script.faults.len(), 3, "the demo starts multi-fault");
    assert_eq!(
        demo.minimized.faults.len(),
        1,
        "the shrinker must reach a single-entry reproducer, got {}",
        demo.minimized
    );
    assert!(demo.shrink_steps > 0);
    assert!(!demo.minimized_detail.is_empty());
}

/// The record EXPERIMENTS.md quotes, pinned by equality. The serial
/// operation trace is a contract: one commit of four operations per point,
/// after the point and before the next. From a warm cache every point is a
/// hit, enqueued and drained in one batched commit before anything runs:
/// that trace is a contract too.
#[test]
fn the_f1_traces_the_campaign_and_the_shrink_demo_are_pinned() {
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

    let outcome = run_campaign(&CampaignConfig::new(1, 8))
        .unwrap_or_else(|failure| panic!("campaign failed: {failure}"));
    assert_eq!(
        (outcome.trials, outcome.identical, outcome.refused),
        (8, 7, 1)
    );

    let demo = shrink_demo(7).expect("demo finds its failure");
    assert_eq!(
        demo.script.to_string(),
        "seed=0x7 [Enospc@0, DropSync@13, Crash@15]"
    );
    assert_eq!(demo.minimized.to_string(), "seed=0x7 [Enospc@0]");
}
