//! Whole-stack determinism: repeated simulations are bit-identical in
//! every reported metric, for every machine — the property that makes the
//! paper's model-vs-model comparisons meaningful.

use spasm::apps::{AppId, SizeClass};
use spasm::core::{Experiment, Machine, Net, RunMetrics};

fn fingerprint(m: &RunMetrics) -> (u64, u64, u64, u64, u64, u64) {
    (
        m.exec_us.to_bits(),
        m.latency_us.to_bits(),
        m.contention_us.to_bits(),
        m.messages,
        m.bytes,
        m.events,
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    for machine in [
        Machine::Pram,
        Machine::Target,
        Machine::LogP,
        Machine::CLogP,
    ] {
        for app in [AppId::Is, AppId::Cholesky] {
            let exp = Experiment {
                app,
                size: SizeClass::Test,
                net: Net::Mesh,
                machine,
                procs: 4,
                seed: 11,
            };
            let a = exp.run().unwrap();
            let b = exp.run().unwrap();
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{app} on {machine} must be deterministic"
            );
        }
    }
}

/// Golden fingerprint: the full app × machine matrix is bit-identical
/// across two repeated in-process runs. This is the broadest form of the
/// determinism claim: no wall-clock, allocator, or iteration-order
/// dependence anywhere in the stack for any supported configuration.
///
/// Seeds here carried over unchanged from the rand/StdRng era: the apps
/// seed per-processor streams through `proc_rng` and their verifiers
/// recompute references from those same streams, so swapping the PRNG to
/// the in-tree xoshiro256** never required retuning a seed or tolerance.
#[test]
fn golden_fingerprint_full_matrix() {
    for machine in [
        Machine::Pram,
        Machine::Target,
        Machine::LogP,
        Machine::CLogP,
    ] {
        for app in AppId::ALL {
            let exp = Experiment {
                app,
                size: SizeClass::Test,
                net: Net::Cube,
                machine,
                procs: 4,
                seed: 1995,
            };
            let a = exp.run().unwrap();
            let b = exp.run().unwrap();
            assert_eq!(
                fingerprint(&a),
                fingerprint(&b),
                "{app} on {machine} must be bit-identical across repeated runs"
            );
        }
    }
}

/// The executor extends the determinism claim across schedules: a sweep
/// run on 4 workers is *byte-identical* — CSV, rendered table, and the
/// bit patterns of every metric — to the same sweep run inline on the
/// calling thread, healthy or under an active fault plan. Worker count
/// is a pure throughput knob, never an input to the results.
#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    use spasm::core::figures;
    use spasm::core::sweep::{PointCache, Sweep, SweepConfig};
    use spasm::machine::FaultPlan;

    let spec = figures::by_id("F2").expect("F2 exists");
    let base = Sweep::new(spec, SizeClass::Test, &[2, 4, 8], 1995);
    let plans: [Option<FaultPlan>; 2] = [None, Some(FaultPlan::adversarial(1995))];
    for faults in plans {
        let on = |jobs| {
            let config = SweepConfig {
                faults,
                jobs,
                ..base.config
            };
            Sweep { config, ..base }.run(None, &mut PointCache::default(), |_| {})
        };
        let serial = on(1);
        let parallel = on(4);
        let label = if faults.is_some() {
            "faulted"
        } else {
            "healthy"
        };
        assert_eq!(
            serial.to_csv(),
            parallel.to_csv(),
            "{label}: CSV must not depend on worker count"
        );
        assert_eq!(
            serial.render_table(),
            parallel.render_table(),
            "{label}: rendered table must not depend on worker count"
        );
        for (a, b) in serial.series.iter().zip(&parallel.series) {
            for (pa, pb) in a.points.iter().zip(&b.points) {
                match (pa, pb) {
                    (Ok((ma, _)), Ok((mb, _))) => assert_eq!(
                        fingerprint(ma),
                        fingerprint(mb),
                        "{label}: {} metrics must be bit-identical across schedules",
                        a.machine
                    ),
                    (Err(_), Err(_)) => {}
                    _ => panic!(
                        "{label}: {} point succeeded on one schedule only",
                        a.machine
                    ),
                }
            }
        }
    }
}

/// Sharing changes nothing observable: F12 swept after F3 through one
/// `PointCache` — every one of its points a hit, none simulated — equals
/// F12 swept alone in every metric but the host's `wall` and in every
/// rendered byte, on either schedule, with telemetry riding along or not.
#[test]
fn a_shared_sweep_is_byte_identical_to_a_solo_one() {
    use spasm::core::figures;
    use spasm::core::sweep::{PointCache, PointVerdict, Sweep, SweepConfig};
    use spasm::core::TelemetryConfig;

    let f3 = figures::by_id("F3").expect("F3 exists");
    let f12 = figures::by_id("F12").expect("F12 exists");
    for telemetry in [None, Some(TelemetryConfig::every_us(100))] {
        for jobs in [1, 2] {
            let config = SweepConfig {
                jobs,
                telemetry,
                ..SweepConfig::default()
            };
            let of = |spec| Sweep {
                config,
                ..Sweep::new(spec, SizeClass::Test, &[2, 4, 8], 1995)
            };
            let solo = of(f12).run(None, &mut PointCache::default(), |_| {});
            let mut cache = PointCache::default();
            of(f3).run(None, &mut cache, |_| {});
            let mut ran = 0usize;
            let shared = of(f12).run(None, &mut cache, |_| ran += 1);
            let label = format!("jobs={jobs}, telemetry={}", telemetry.is_some());
            assert_eq!((ran, cache.hits()), (0, 9), "{label}: F12 must run nothing");

            assert_eq!(shared.to_csv(), solo.to_csv(), "{label}");
            assert_eq!(shared.render_table(), solo.render_table(), "{label}");
            assert_eq!(
                shared.to_telemetry_jsonl(),
                solo.to_telemetry_jsonl(),
                "{label}"
            );
            assert_eq!(
                shared.to_telemetry_jsonl().is_empty(),
                telemetry.is_none(),
                "{label}"
            );
            let timeless = |v: &PointVerdict| {
                v.as_ref().ok().map(|(m, _)| RunMetrics {
                    wall: std::time::Duration::ZERO,
                    ..*m
                })
            };
            for (a, b) in shared.series.iter().zip(&solo.series) {
                let (ma, mb): (Vec<_>, Vec<_>) = (
                    a.points.iter().map(timeless).collect(),
                    b.points.iter().map(timeless).collect(),
                );
                assert!(ma.iter().all(Option::is_some), "{label}: {}", a.machine);
                assert_eq!(ma, mb, "{label}: {} metrics", a.machine);
            }
        }
    }
}

/// Group commit changes the order records land in, never which records:
/// four workers enqueue points as they finish and the submitting thread
/// commits whatever has accumulated, so the journal holds every point of
/// the grid exactly once in some order — and resumed serially it renders
/// what a serial sweep that never saw a journal renders, byte for byte.
#[test]
fn a_group_committed_journal_holds_each_point_once_and_resumes_serially() {
    use spasm::core::figures;
    use spasm::core::journal::SweepJournal;
    use spasm::core::sweep::{PointCache, Sweep, SweepConfig};
    use spasm::core::TelemetryConfig;
    use spasm::journal::{Journal, RealVfs};
    use std::sync::Arc;

    let spec = figures::by_id("F2").expect("F2 exists");
    let dir = std::env::temp_dir().join("spasm-determinism-tests");
    std::fs::create_dir_all(&dir).unwrap();
    for telemetry in [None, Some(TelemetryConfig::every_us(100))] {
        let on = |jobs| Sweep {
            config: SweepConfig {
                jobs,
                telemetry,
                ..SweepConfig::default()
            },
            ..Sweep::new(spec, SizeClass::Test, &[2, 4, 8], 1995)
        };
        let label = format!("telemetry={}", telemetry.is_some());
        let path = dir.join(format!("{}-{label}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let j = SweepJournal::open(Arc::new(RealVfs), &path, &on(4), false).unwrap();
        on(4).run(Some(&j), &mut PointCache::default(), |_| {});
        assert!(j.io_error().is_none(), "{label}");
        assert!((1..=9).contains(&j.commits()), "{label}: {}", j.commits());
        drop(j);

        // Nine records; below, nine distinct points of which the serial
        // resume misses none of the grid's nine: each exactly once.
        let records = Journal::read(&path, on(4).fingerprint()).unwrap().records;
        assert_eq!(records.len(), 9, "{label}");

        let plain = on(1).run(None, &mut PointCache::default(), |_| {});
        let r = SweepJournal::open(Arc::new(RealVfs), &path, &on(1), true).unwrap();
        let mut ran = 0usize;
        let resumed = on(1).run(Some(&r), &mut PointCache::default(), |_| ran += 1);
        assert_eq!((r.replayed(), ran, r.commits()), (9, 0, 0), "{label}");
        assert_eq!(resumed.render_table(), plain.render_table(), "{label}");
        assert_eq!(resumed.to_csv(), plain.to_csv(), "{label}");
        assert_eq!(
            resumed.to_telemetry_jsonl(),
            plain.to_telemetry_jsonl(),
            "{label}"
        );
        assert_eq!(
            plain.to_telemetry_jsonl().is_empty(),
            telemetry.is_none(),
            "{label}"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn different_seeds_give_different_dynamic_behaviour() {
    // CHOLESKY's matrix (and so its task graph) depends on the seed.
    let run = |seed| {
        Experiment {
            app: AppId::Cholesky,
            size: SizeClass::Test,
            net: Net::Full,
            machine: Machine::Target,
            procs: 4,
            seed,
        }
        .run()
        .unwrap()
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should change the workload"
    );
}

#[test]
fn machine_models_differ_from_each_other() {
    // Sanity against accidental aliasing of the machine models.
    let run = |machine| {
        Experiment {
            app: AppId::Is,
            size: SizeClass::Test,
            net: Net::Mesh,
            machine,
            procs: 8,
            seed: 11,
        }
        .run()
        .unwrap()
    };
    let target = run(Machine::Target);
    let logp = run(Machine::LogP);
    let clogp = run(Machine::CLogP);
    assert_ne!(fingerprint(&target), fingerprint(&logp));
    assert_ne!(fingerprint(&target), fingerprint(&clogp));
    assert_ne!(fingerprint(&logp), fingerprint(&clogp));
}
