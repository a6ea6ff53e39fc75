//! Accounting tests for fault injection: each species increments its
//! [`FaultCounters`] field exactly once per injection, so
//! `RunReport.faults` is a trustworthy census of the adversity a run
//! actually absorbed — with probability 1 the counts equal the number
//! of injection sites the workload exposes, no more, no fewer.

use spasm_machine::{
    Engine, FaultPlan, MachineConfig, MachineKind, MemCtx, ProcBody, RunReport, SetupCtx,
};
use spasm_topology::Topology;

/// `sends` explicit messages proc 0 → proc 1, each received.
fn msgpass(sends: u64) -> (Topology, SetupCtx, Vec<ProcBody>) {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            for tag in 0..sends {
                mem.send(1, 8, tag, tag + 100);
            }
        }),
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            for tag in 0..sends {
                assert_eq!(mem.recv(tag), tag + 100);
            }
        }),
    ];
    (topo, setup, bodies)
}

/// `writes` local memory operations on proc 0; proc 1 idles.
fn local_writes(writes: u64) -> (Topology, SetupCtx, Vec<ProcBody>) {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let words = setup.alloc(0, writes);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            for i in 0..writes {
                mem.write(words.offset_words(i), i);
            }
        }),
        Box::new(|_, _| {}),
    ];
    (topo, setup, bodies)
}

/// `reads` distinct remote words (homed at node 1) read by proc 0, each
/// a fresh block so every read is a network-touching miss on the target.
fn remote_reads(reads: u64) -> (Topology, SetupCtx, Vec<ProcBody>) {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    // One word per block: stride by the block size in words.
    let words_per_block = spasm_machine::BLOCK_BYTES / spasm_machine::WORD_BYTES;
    let base = setup.alloc(1, reads * words_per_block);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            for i in 0..reads {
                mem.read(base.offset_words(i * words_per_block));
            }
        }),
        Box::new(|_, _| {}),
    ];
    (topo, setup, bodies)
}

fn run_faulted(
    kind: MachineKind,
    plan: FaultPlan,
    (topo, setup, bodies): (Topology, SetupCtx, Vec<ProcBody>),
) -> RunReport {
    let config = MachineConfig {
        faults: Some(plan),
        ..MachineConfig::default()
    };
    Engine::with_config(kind, &topo, config, setup, bodies)
        .run()
        .unwrap()
}

#[test]
fn duplication_counts_exactly_one_per_send() {
    let plan = FaultPlan {
        dup_prob: 1.0,
        ..FaultPlan::quiet(1)
    };
    for sends in [1u64, 3, 8] {
        let report = run_faulted(MachineKind::Target, plan, msgpass(sends));
        assert_eq!(report.faults.duplicated, sends, "sends={sends}");
        assert_eq!(report.faults.total(), sends, "no other species leaked");
    }
}

#[test]
fn delay_counts_exactly_one_per_message() {
    let plan = FaultPlan {
        delay_prob: 1.0,
        max_delay_ns: 1,
        ..FaultPlan::quiet(2)
    };
    for sends in [1u64, 3, 8] {
        let report = run_faulted(MachineKind::Target, plan, msgpass(sends));
        assert_eq!(report.faults.delayed, sends, "sends={sends}");
        assert_eq!(report.faults.total(), sends);
    }
}

#[test]
fn stall_counts_exactly_one_per_dispatch() {
    let plan = FaultPlan {
        stall_prob: 1.0,
        stall_ns: 100,
        ..FaultPlan::quiet(3)
    };
    // Every operation dispatch is a stall site; the workload's dispatch
    // count scales one-for-one with its operation count, so the counter
    // difference between W and W+k writes must be exactly k.
    let stalls_for = |writes| {
        run_faulted(MachineKind::Pram, plan, local_writes(writes))
            .faults
            .stalls
    };
    let base = stalls_for(1);
    for extra in [1u64, 4, 9] {
        assert_eq!(
            stalls_for(1 + extra),
            base + extra,
            "each extra write must add exactly one stall"
        );
    }
}

#[test]
fn delay_counts_exactly_one_per_remote_transaction() {
    let plan = FaultPlan {
        delay_prob: 1.0,
        max_delay_ns: 1,
        ..FaultPlan::quiet(4)
    };
    for reads in [1u64, 3, 6] {
        let report = run_faulted(MachineKind::Target, plan, remote_reads(reads));
        assert_eq!(report.faults.delayed, reads, "reads={reads}");
        assert_eq!(
            report.summary.cache_misses, reads,
            "workload must be one miss per read for the count to be exact"
        );
    }
}

/// A selector naming the counter a plan's single species owns.
type CounterOf = fn(&spasm_machine::FaultCounters) -> u64;

#[test]
fn counters_are_disjoint_and_total_is_their_sum() {
    // One species at a time: the other counters stay zero.
    let species: [(FaultPlan, CounterOf); 3] = [
        (
            FaultPlan {
                dup_prob: 1.0,
                ..FaultPlan::quiet(5)
            },
            |c| c.duplicated,
        ),
        (
            FaultPlan {
                delay_prob: 1.0,
                max_delay_ns: 1,
                ..FaultPlan::quiet(5)
            },
            |c| c.delayed,
        ),
        (
            FaultPlan {
                stall_prob: 1.0,
                stall_ns: 100,
                ..FaultPlan::quiet(5)
            },
            |c| c.stalls,
        ),
    ];
    for (plan, own) in species {
        let report = run_faulted(MachineKind::Target, plan, msgpass(2));
        assert_eq!(
            report.faults.total(),
            own(&report.faults),
            "{plan:?}: another species' counter moved"
        );
    }
}
