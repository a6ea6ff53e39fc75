//! Engine-level fault injection and budget tests: every failure is a
//! typed error, faults are deterministic per seed, and a quiet plan is
//! indistinguishable from no plan at all.

use spasm_desim::SimTime;
use spasm_machine::{
    Engine, FaultPlan, MachineConfig, MachineKind, MemCtx, Pred, ProcBody, RunBudget, RunError,
    RunReport, SetupCtx,
};
use spasm_topology::Topology;

const ALL_MACHINES: [MachineKind; 4] = [
    MachineKind::Pram,
    MachineKind::Target,
    MachineKind::LogP,
    MachineKind::CLogP,
];

/// A two-proc workload with real traffic: proc 1 increments a shared
/// counter and raises a flag; proc 0 waits on the flag and reads back.
fn flag_workload() -> (Topology, SetupCtx, Vec<ProcBody>) {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let counter = setup.alloc(0, 1);
    let flag = setup.alloc(1, 1);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            mem.wait_until(flag, Pred::Eq(1));
            assert_eq!(mem.read(counter), 7);
        }),
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            mem.write(counter, 7);
            mem.write(flag, 1);
        }),
    ];
    (topo, setup, bodies)
}

fn run_with(config: MachineConfig, kind: MachineKind) -> Result<RunReport, RunError> {
    let (topo, setup, bodies) = flag_workload();
    Engine::with_config(kind, &topo, config, setup, bodies).run()
}

#[test]
fn event_budget_converts_polling_livelock_into_typed_error() {
    // A flag nobody ever sets: on the polling LogP machine the waiter
    // re-reads forever (livelock); the budget turns that into a typed
    // error instead of a hang.
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let flag = setup.alloc(0, 1);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            MemCtx::new(ctx).wait_until(flag, Pred::Eq(1));
        }),
        Box::new(|_, _| {}),
    ];
    let config = MachineConfig {
        budget: RunBudget::events(10_000),
        ..MachineConfig::default()
    };
    match Engine::with_config(MachineKind::LogP, &topo, config, setup, bodies).run() {
        Err(RunError::BudgetExceeded { events, .. }) => assert!(events > 0),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn generous_budget_changes_nothing() {
    for kind in ALL_MACHINES {
        let baseline = run_with(MachineConfig::default(), kind).unwrap();
        let config = MachineConfig {
            budget: RunBudget::events(1_000_000),
            ..MachineConfig::default()
        };
        let bounded = run_with(config, kind).unwrap();
        assert_eq!(baseline.exec_time, bounded.exec_time, "{kind}");
        assert_eq!(baseline.events, bounded.events, "{kind}");
    }
}

#[test]
fn quiet_plan_is_indistinguishable_from_no_plan() {
    for kind in ALL_MACHINES {
        let baseline = run_with(MachineConfig::default(), kind).unwrap();
        let config = MachineConfig {
            faults: Some(FaultPlan::quiet(99)),
            ..MachineConfig::default()
        };
        let quiet = run_with(config, kind).unwrap();
        assert_eq!(baseline.exec_time, quiet.exec_time, "{kind}");
        assert_eq!(quiet.faults.total(), 0, "{kind}");
    }
}

#[test]
fn adversarial_faults_are_deterministic_per_seed() {
    for kind in ALL_MACHINES {
        let run = |seed| {
            let config = MachineConfig {
                faults: Some(FaultPlan::adversarial(seed)),
                ..MachineConfig::default()
            };
            run_with(config, kind).unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.exec_time, b.exec_time, "{kind}");
        assert_eq!(a.faults, b.faults, "{kind}");
        assert_eq!(a.totals.contention, b.totals.contention, "{kind}");
    }
}

#[test]
fn injected_faults_slow_the_run_down() {
    // A plan that delays every network transaction must stretch the
    // simulated execution time on every network-touching machine.
    for kind in [MachineKind::Target, MachineKind::LogP, MachineKind::CLogP] {
        let healthy = run_with(MachineConfig::default(), kind).unwrap();
        let config = MachineConfig {
            faults: Some(FaultPlan {
                delay_prob: 1.0,
                max_delay_ns: 1, // deterministic magnitude: always 1 ns
                ..FaultPlan::quiet(3)
            }),
            ..MachineConfig::default()
        };
        let faulted = run_with(config, kind).unwrap();
        assert!(faulted.faults.delayed > 0, "{kind}: nothing injected");
        assert!(
            faulted.exec_time > healthy.exec_time,
            "{kind}: delays must stretch execution"
        );
    }
}

#[test]
fn duplicated_messages_are_tolerated_by_fifo_mailboxes() {
    // Explicit message passing under 100% duplication: the receiver takes
    // the original (FIFO), the copy is left unconsumed, the run completes.
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        Box::new(|_, ctx| {
            MemCtx::new(ctx).send(1, 8, 42, 1234);
        }),
        Box::new(|_, ctx| {
            assert_eq!(MemCtx::new(ctx).recv(42), 1234);
        }),
    ];
    let config = MachineConfig {
        faults: Some(FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::quiet(1)
        }),
        ..MachineConfig::default()
    };
    let report = Engine::with_config(MachineKind::Target, &topo, config, setup, bodies)
        .run()
        .unwrap();
    assert_eq!(report.faults.duplicated, 1);
}

#[test]
fn stalls_are_counted_and_charged() {
    let config = MachineConfig {
        faults: Some(FaultPlan {
            stall_prob: 1.0,
            stall_ns: 1_000,
            ..FaultPlan::quiet(8)
        }),
        ..MachineConfig::default()
    };
    let report = run_with(config, MachineKind::Pram).unwrap();
    assert!(report.faults.stalls > 0);
    assert!(report.totals.sync >= SimTime::from_ns(1_000));
}

#[test]
fn unallocated_address_is_a_typed_run_error() {
    use spasm_machine::Addr;
    // A fabricated pointer, touched by each kind of memory operation.
    const FABRICATED: Addr = Addr(1 << 40);
    let touches: [fn(&MemCtx<'_>); 4] = [
        |mem| {
            mem.read(FABRICATED);
        },
        |mem| mem.write(FABRICATED, 7),
        |mem| {
            mem.fetch_add(FABRICATED, 1);
        },
        |mem| {
            mem.wait_until(FABRICATED, Pred::Eq(1));
        },
    ];
    for kind in ALL_MACHINES {
        for (op, touch) in touches.into_iter().enumerate() {
            let topo = Topology::full(2);
            let mut setup = SetupCtx::new(2);
            setup.alloc(0, 1);
            let bodies: Vec<ProcBody> = vec![
                Box::new(move |_, ctx| touch(&MemCtx::new(ctx))),
                Box::new(|_, _| {}),
            ];
            match Engine::new(kind, &topo, setup, bodies).run() {
                Err(RunError::UnallocatedAddress { addr }) => {
                    assert_eq!(addr, FABRICATED, "{kind} op {op}")
                }
                other => panic!("{kind} op {op}: expected UnallocatedAddress, got {other:?}"),
            }
        }
    }
}
