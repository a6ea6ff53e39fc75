//! Fault-negative proof for the invariant layer: each injected fault
//! species, applied with probability 1 under [`CheckMode::Strict`],
//! must surface as a *typed* [`RunError::Check`] naming its own
//! invariant — never a panic, never a silently wrong run. A delayed
//! message trips `delivery-conformance`, a delayed access
//! `access-conformance`, a duplicate `message-conservation`, a stall
//! `dispatch-conformance`. Lenient mode ([`CheckMode::On`]) must
//! tolerate the same injections, because a faulted-but-internally-
//! consistent run is exactly what it certifies.

use spasm_machine::{
    CheckMode, Engine, FaultPlan, MachineConfig, MachineKind, MemCtx, Pred, ProcBody, RunError,
    SetupCtx,
};
use spasm_topology::Topology;

/// Explicit message passing: one send, one receive. The only network
/// traffic is the message itself, so message-path faults (delay, dup)
/// hit exactly one checker hook.
fn msgpass_workload() -> (Topology, SetupCtx, Vec<ProcBody>) {
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
    (topo, setup, bodies)
}

/// Shared-memory traffic: a flag handshake over remote blocks, so
/// access-path faults (delays) have network transactions to stretch.
fn shmem_workload() -> (Topology, SetupCtx, Vec<ProcBody>) {
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

fn run(
    kind: MachineKind,
    mode: CheckMode,
    plan: FaultPlan,
    workload: fn() -> (Topology, SetupCtx, Vec<ProcBody>),
) -> Result<(), RunError> {
    let (topo, setup, bodies) = workload();
    let config = MachineConfig {
        check: mode,
        faults: Some(plan),
        ..MachineConfig::default()
    };
    Engine::with_config(kind, &topo, config, setup, bodies)
        .run()
        .map(|_| ())
}

/// Runs under strict checking and demands a `CheckViolation` for the
/// named invariant — as a value, not a panic.
fn expect_violation(
    kind: MachineKind,
    plan: FaultPlan,
    workload: fn() -> (Topology, SetupCtx, Vec<ProcBody>),
    invariant: &str,
) {
    match run(kind, CheckMode::Strict, plan, workload) {
        Err(RunError::Check(v)) => {
            assert_eq!(v.invariant, invariant, "{kind}: wrong invariant fired: {v}")
        }
        other => panic!("{kind}: expected a {invariant} violation, got {other:?}"),
    }
}

#[test]
fn duplicated_message_trips_message_conservation() {
    let plan = FaultPlan {
        dup_prob: 1.0,
        ..FaultPlan::quiet(1)
    };
    expect_violation(
        MachineKind::Target,
        plan,
        msgpass_workload,
        "message-conservation",
    );
}

#[test]
fn delayed_message_trips_delivery_conformance() {
    let plan = FaultPlan {
        delay_prob: 1.0,
        max_delay_ns: 500,
        ..FaultPlan::quiet(2)
    };
    expect_violation(
        MachineKind::Target,
        plan,
        msgpass_workload,
        "delivery-conformance",
    );
}

#[test]
fn stalled_processor_trips_dispatch_conformance() {
    let plan = FaultPlan {
        stall_prob: 1.0,
        stall_ns: 1_000,
        ..FaultPlan::quiet(3)
    };
    for kind in [MachineKind::Pram, MachineKind::Target, MachineKind::CLogP] {
        expect_violation(kind, plan, shmem_workload, "dispatch-conformance");
    }
}

#[test]
fn delayed_access_trips_access_conformance() {
    let plan = FaultPlan {
        delay_prob: 1.0,
        max_delay_ns: 500,
        ..FaultPlan::quiet(4)
    };
    for kind in [MachineKind::Target, MachineKind::LogP, MachineKind::CLogP] {
        expect_violation(kind, plan, shmem_workload, "access-conformance");
    }
}

#[test]
fn lenient_mode_tolerates_every_species() {
    // CheckMode::On certifies internal consistency of the perturbed
    // schedule; injections must pass through it cleanly. Both delay
    // plans are the strict tests' own: seed 2 for messages, seed 4 for
    // accesses.
    let plans = [
        FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::quiet(1)
        },
        FaultPlan {
            delay_prob: 1.0,
            max_delay_ns: 500,
            ..FaultPlan::quiet(2)
        },
        FaultPlan {
            stall_prob: 1.0,
            stall_ns: 1_000,
            ..FaultPlan::quiet(3)
        },
        FaultPlan {
            delay_prob: 1.0,
            max_delay_ns: 500,
            ..FaultPlan::quiet(4)
        },
    ];
    for plan in plans {
        run(MachineKind::Target, CheckMode::On, plan, msgpass_workload)
            .unwrap_or_else(|e| panic!("msgpass under {plan:?}: {e}"));
        run(MachineKind::Target, CheckMode::On, plan, shmem_workload)
            .unwrap_or_else(|e| panic!("shmem under {plan:?}: {e}"));
    }
}

#[test]
fn violations_render_the_event_ring() {
    // A delayed message fires inside the popped `Send` event, so the
    // ring has history to dump (a stall on the *first* dispatch would
    // legitimately precede any popped event).
    let plan = FaultPlan {
        delay_prob: 1.0,
        max_delay_ns: 500,
        ..FaultPlan::quiet(5)
    };
    match run(
        MachineKind::Target,
        CheckMode::Strict,
        plan,
        msgpass_workload,
    ) {
        Err(RunError::Check(v)) => {
            let rendered = v.to_string();
            assert!(rendered.contains("invariant"), "{rendered}");
            assert!(rendered.contains(&v.recent[0]), "{rendered}");
            assert_eq!(
                v.recent,
                ["t=0ns Dispatch(0, Send { dst: 1, bytes: 8, tag: 42, value: 1234 })"]
            );
        }
        other => panic!("expected a check violation, got {other:?}"),
    }

    // A commit carries the request it completes. Under seed 9 the first
    // two requests draw no stall and the sender's next one, issued when
    // its `Send` commits, does: the ring ends on that commit.
    let plan = FaultPlan {
        stall_prob: 0.5,
        stall_ns: 1_000,
        ..FaultPlan::quiet(9)
    };
    let send_then_compute = || {
        let (topo, setup, mut bodies) = msgpass_workload();
        bodies[0] = Box::new(|_, ctx| {
            let mem = MemCtx::new(ctx);
            mem.send(1, 8, 42, 1234);
            mem.compute(10);
        });
        (topo, setup, bodies)
    };
    match run(
        MachineKind::Target,
        CheckMode::Strict,
        plan,
        send_then_compute,
    ) {
        Err(RunError::Check(v)) => {
            assert_eq!(v.invariant, "dispatch-conformance", "{v}");
            assert_eq!(
                v.recent,
                [
                    "t=0ns Dispatch(0, Send { dst: 1, bytes: 8, tag: 42, value: 1234 })",
                    "t=0ns Dispatch(1, Recv { tag: 42 })",
                    "t=400ns Commit(0, Send { dst: 1, bytes: 8, tag: 42, value: 1234 })",
                ]
            );
        }
        other => panic!("expected a check violation, got {other:?}"),
    }
}
