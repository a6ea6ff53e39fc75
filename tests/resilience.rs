//! Whole-stack resilience: hostile workloads, injected faults, and
//! malformed configurations must always come back as *typed errors* —
//! never a panic escaping `Experiment::run`, never a hang, never an
//! abort — and faulted runs must stay bit-identical per fault seed.

use spasm::apps::{AppId, SizeClass};
use spasm::core::{run_bodies, Experiment, ExperimentError, Machine, Net, RunMetrics};
use spasm::machine::{
    FaultPlan, MachineConfig, MemCtx, Pred, ProcBody, RunBudget, RunError, SetupCtx,
};

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

/// A machine config with the machine's own gap policy plus the given
/// resilience overrides.
fn config_for(machine: Machine, faults: Option<FaultPlan>, budget: RunBudget) -> MachineConfig {
    MachineConfig {
        faults,
        budget,
        ..machine.config()
    }
}

#[test]
fn panicking_body_is_a_typed_error_on_every_machine() {
    for machine in Machine::ALL {
        let setup = SetupCtx::new(2);
        let bodies: Vec<ProcBody> = vec![
            Box::new(|_, _| {}),
            Box::new(|_, _| panic!("deliberate body panic")),
        ];
        let err = run_bodies(machine, Net::Full, 2, machine.config(), setup, bodies).unwrap_err();
        match err {
            ExperimentError::Run(RunError::Panicked { proc, message }) => {
                assert_eq!(proc, 1, "{machine}");
                assert!(message.contains("deliberate"), "{machine}: {message}");
            }
            other => panic!("{machine}: expected Panicked, got {other}"),
        }
    }
}

#[test]
fn stuck_workload_is_deadlock_or_budget_on_every_machine() {
    // Proc 0 waits on a flag nobody ever sets. On the polling LogP
    // machine this is a livelock (the spin honestly re-reads forever),
    // so only the event budget can end it; on every other machine the
    // waiter parks and the drained queue is reported as a deadlock.
    for machine in Machine::ALL {
        let mut setup = SetupCtx::new(2);
        let flag = setup.alloc(0, 1);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                MemCtx::new(ctx).wait_until(flag, Pred::Eq(1));
            }),
            Box::new(|_, _| {}),
        ];
        let config = config_for(machine, None, RunBudget::events(200_000));
        let err = run_bodies(machine, Net::Full, 2, config, setup, bodies).unwrap_err();
        match (machine, err) {
            (Machine::LogP, ExperimentError::Run(RunError::BudgetExceeded { events, .. })) => {
                assert!(events > 0)
            }
            (Machine::LogP, other) => {
                panic!("logp: polling livelock should exhaust the budget, got {other}")
            }
            (_, ExperimentError::Run(RunError::Deadlock { waiting, .. })) => {
                assert_eq!(waiting, vec![0], "{machine}")
            }
            (_, other) => panic!("{machine}: expected Deadlock, got {other}"),
        }
    }
}

#[test]
fn config_errors_name_the_bad_parameter() {
    let base = Experiment {
        app: AppId::Ep,
        size: SizeClass::Test,
        net: Net::Mesh,
        machine: Machine::Target,
        procs: 4,
        seed: 1,
    };
    // 128 is past every machine's bound (the target's full-map directory
    // keeps a 64-bit presence set): each must refuse it before running.
    let bad = [
        (0, "positive"),
        (6, "power of two"),
        (128, "maximum"),
        (1 << 20, "maximum"),
    ];
    for machine in Machine::ALL {
        for (procs, needle) in bad {
            match (Experiment {
                procs,
                machine,
                ..base
            })
            .run()
            {
                Err(ExperimentError::Config(msg)) => {
                    assert!(msg.contains(needle), "{machine} procs={procs}: {msg}")
                }
                other => panic!("{machine} procs={procs}: expected Config, got {other:?}"),
            }
        }
    }
}

/// The fault matrix: every application on every machine under an
/// adversarial fault plan completes or fails with a typed error — the
/// process never aborts — and the outcome is bit-identical per fault
/// seed.
#[test]
fn fault_matrix_completes_or_fails_typed_and_deterministically() {
    for app in AppId::ALL {
        for machine in Machine::ALL {
            let run = |fault_seed: u64| {
                let exp = Experiment {
                    app,
                    size: SizeClass::Test,
                    net: Net::Cube,
                    machine,
                    procs: 4,
                    seed: 1995,
                };
                // A budget keeps any fault-induced livelock finite.
                exp.run_with_config(config_for(
                    machine,
                    Some(FaultPlan::adversarial(fault_seed)),
                    RunBudget::events(50_000_000),
                ))
            };
            let a = run(7);
            let b = run(7);
            match (&a, &b) {
                (Ok(ma), Ok(mb)) => assert_eq!(
                    fingerprint(ma),
                    fingerprint(mb),
                    "{app} on {machine}: faulted runs must be bit-identical"
                ),
                (Err(ea), Err(eb)) => assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "{app} on {machine}: failures must be reproducible"
                ),
                _ => panic!("{app} on {machine}: outcome flipped between identical runs"),
            }
            // A different fault seed is a different (but still typed)
            // outcome — never an abort. Just running it is the assertion.
            let _ = run(8);
        }
    }
}

#[test]
fn quiet_fault_plan_matches_unfaulted_baseline() {
    for machine in Machine::ALL {
        let exp = Experiment {
            app: AppId::Is,
            size: SizeClass::Test,
            net: Net::Full,
            machine,
            procs: 4,
            seed: 3,
        };
        let healthy = exp.run().unwrap();
        let quiet = exp
            .run_with_config(config_for(
                machine,
                Some(FaultPlan::quiet(42)),
                RunBudget::UNLIMITED,
            ))
            .unwrap();
        assert_eq!(
            fingerprint(&healthy),
            fingerprint(&quiet),
            "{machine}: a quiet plan must not perturb the simulation"
        );
    }
}

#[test]
fn figure_sweep_renders_failed_point_without_dropping_series() {
    use spasm::core::figures::{FigureSpec, Metric};
    use spasm::core::sweep::{PointCache, Sweep};

    let spec = FigureSpec {
        id: "RX",
        app: AppId::Ep,
        net: Net::Full,
        metric: Metric::ExecTime,
        machines: &[Machine::Pram, Machine::Target, Machine::LogP],
        expect: "p=3 fails, the rest survive",
    };
    let data = Sweep::new(&spec, SizeClass::Test, &[2, 3, 4], 1).run(
        None,
        &mut PointCache::default(),
        |_| {},
    );
    assert_eq!(data.failed_points(), 3, "one failed point per series");
    for s in &data.series {
        let finite = |i: usize| {
            s.points[i]
                .as_ref()
                .is_ok_and(|(m, _)| m.exec_us.is_finite())
        };
        assert!(finite(0) && finite(2));
        assert!(matches!(s.points[1], Err(ExperimentError::Config(_))));
    }
    let table = data.render_table();
    assert!(table.contains("FAILED"), "{table}");
    assert!(table.contains("(3 point(s) FAILED)"), "{table}");
    let csv = data.to_csv();
    assert!(csv.contains(",3,target,FAILED"), "{csv}");
    let chart = data.render_chart(8);
    assert!(chart.contains('?'), "{chart}");
    assert!(chart.contains("?=failed"), "{chart}");
}
