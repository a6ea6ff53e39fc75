//! Engine-level tests: whole simulations on all four machines.

use spasm_desim::SimTime;
use spasm_machine::{
    sync, CheckMode, Engine, FaultPlan, MachineConfig, MachineKind, MemCtx, Pred, ProcBody,
    RunError, RunReport, SetupCtx,
};
use spasm_topology::Topology;

const ALL_MACHINES: [MachineKind; 4] = [
    MachineKind::Pram,
    MachineKind::Target,
    MachineKind::LogP,
    MachineKind::CLogP,
];

fn run(kind: MachineKind, topo: &Topology, setup: SetupCtx, bodies: Vec<ProcBody>) -> RunReport {
    Engine::new(kind, topo, setup, bodies).run().unwrap()
}

#[test]
fn single_processor_compute_only() {
    for kind in ALL_MACHINES {
        let topo = Topology::full(1);
        let setup = SetupCtx::new(1);
        let bodies: Vec<ProcBody> = vec![Box::new(|_, ctx| {
            MemCtx::new(ctx).compute(100);
        })];
        let r = run(kind, &topo, setup, bodies);
        assert_eq!(r.exec_time, SimTime::from_ns(3000), "{kind}");
        assert_eq!(r.totals.busy, SimTime::from_ns(3000));
        assert_eq!(r.summary.net_messages, 0);
    }
}

#[test]
fn read_write_roundtrip_on_all_machines() {
    for kind in ALL_MACHINES {
        let topo = Topology::hypercube(2);
        let mut setup = SetupCtx::new(2);
        let a = setup.alloc_init(1, &[7]);
        let out = setup.alloc(0, 1);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                let v = mem.read(a);
                mem.write(out, v * 2);
            }),
            Box::new(|_, _| {}),
        ];
        let r = run(kind, &topo, setup, bodies);
        assert_eq!(r.final_store.read_word(out), 14, "{kind}");
    }
}

#[test]
fn lock_protected_counter_is_atomic_on_all_machines() {
    for kind in ALL_MACHINES {
        let p = 4;
        let topo = Topology::hypercube(p);
        let mut setup = SetupCtx::new(p);
        let counter = setup.alloc(0, 1);
        let lock = setup.alloc(0, 1);
        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let b: ProcBody = Box::new(move |_, ctx| {
                    let mem = MemCtx::new(ctx);
                    for _ in 0..5 {
                        sync::lock(&mem, lock);
                        let v = mem.read(counter);
                        mem.compute(10);
                        mem.write(counter, v + 1);
                        sync::unlock(&mem, lock);
                    }
                });
                b
            })
            .collect();
        let r = run(kind, &topo, setup, bodies);
        assert_eq!(r.final_store.read_word(counter), 20, "{kind}");
    }
}

#[test]
fn barrier_rendezvous_on_all_machines() {
    for kind in ALL_MACHINES {
        let p = 4;
        let topo = Topology::mesh(p);
        let mut setup = SetupCtx::new(p);
        let slots = setup.alloc(0, p as u64);
        let barrier = sync::Barrier::alloc(&mut setup, 0, p);
        let check = setup.alloc(0, p as u64);
        let bodies: Vec<ProcBody> = (0..p)
            .map(|i| {
                let b: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    let mut bar = barrier.handle();
                    // Phase 1: everyone writes their slot (staggered work).
                    mem.compute(10 * (me as u64 + 1));
                    mem.write(slots.offset_words(me as u64), me as u64 + 100);
                    bar.wait(&mem);
                    // Phase 2: everyone reads the *next* processor's slot,
                    // which is only safe if the barrier held.
                    let next = (me + 1) % 4;
                    let v = mem.read(slots.offset_words(next as u64));
                    mem.write(check.offset_words(me as u64), v);
                    bar.wait(&mem);
                });
                debug_assert!(i < p);
                b
            })
            .collect();
        let r = run(kind, &topo, setup, bodies);
        for me in 0..p as u64 {
            let next = (me + 1) % 4;
            assert_eq!(
                r.final_store.read_word(check.offset_words(me)),
                next + 100,
                "{kind} proc {me}"
            );
        }
    }
}

#[test]
fn condition_flag_signalling() {
    for kind in ALL_MACHINES {
        let p = 4;
        let topo = Topology::full(p);
        let mut setup = SetupCtx::new(p);
        let flag = sync::CondFlag::alloc(&mut setup, 0);
        let seen = setup.alloc(0, p as u64);
        let bodies: Vec<ProcBody> = (0..p)
            .map(|i| {
                let b: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    if me == 0 {
                        mem.compute(1000); // make waiters actually wait
                        flag.signal(&mem, 42);
                        mem.write(seen.offset_words(0), 42);
                    } else {
                        let v = flag.wait(&mem);
                        mem.write(seen.offset_words(me as u64), v);
                    }
                });
                debug_assert!(i < p);
                b
            })
            .collect();
        let r = run(kind, &topo, setup, bodies);
        for me in 0..p as u64 {
            assert_eq!(r.final_store.read_word(seen.offset_words(me)), 42, "{kind}");
        }
    }
}

#[test]
fn waiters_accumulate_sync_time() {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let flag = sync::CondFlag::alloc(&mut setup, 0);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            mem.compute(100_000); // 3ms of work
            flag.signal(&mem, 1);
        }),
        Box::new(move |_, ctx| {
            flag.wait(&MemCtx::new(ctx));
        }),
    ];
    let r = run(MachineKind::Target, &topo, setup, bodies);
    // The waiter spent essentially the whole run spinning.
    assert!(r.per_proc[1].buckets.sync > SimTime::from_ms(2));
    // But generated almost no traffic: first and last accesses only.
    assert!(r.per_proc[1].buckets.msgs <= 6);
}

#[test]
fn logp_spinning_generates_traffic_but_cached_machines_do_not() {
    // The paper's EP observation (§6.2): on the LogP machine every
    // condition-variable poll is a network access; on CLogP/target only
    // the first and last.
    let mut msgs = std::collections::HashMap::new();
    for kind in [MachineKind::Target, MachineKind::LogP, MachineKind::CLogP] {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let flag = sync::CondFlag::alloc(&mut setup, 0);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                mem.compute(10_000);
                flag.signal(&mem, 1);
            }),
            Box::new(move |_, ctx| {
                flag.wait(&MemCtx::new(ctx));
            }),
        ];
        let r = run(kind, &topo, setup, bodies);
        msgs.insert(kind.to_string(), r.per_proc[1].buckets.msgs);
    }
    assert!(
        msgs["logp"] > 10 * msgs["clogp"].max(1),
        "LogP spin must flood the network: {msgs:?}"
    );
    assert!(msgs["target"] <= 6);
    assert!(msgs["clogp"] <= 6);
}

#[test]
fn spatial_locality_clogp_fetches_once_logp_four_times() {
    // Four consecutive words = one cache block (the paper's FFT ~4x
    // latency factor between LogP and target/CLogP).
    let mut latency = std::collections::HashMap::new();
    for kind in [MachineKind::LogP, MachineKind::CLogP] {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let data = setup.alloc_init(1, &[1, 2, 3, 4]);
        let out = setup.alloc(0, 1);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                let mut sum = 0;
                for w in 0..4 {
                    sum += mem.read(data.offset_words(w));
                }
                mem.write(out, sum);
            }),
            Box::new(|_, _| {}),
        ];
        let r = run(kind, &topo, setup, bodies);
        assert_eq!(r.final_store.read_word(out), 10, "{kind}");
        latency.insert(kind.to_string(), r.totals.latency.as_ns());
    }
    let ratio = latency["logp"] as f64 / latency["clogp"] as f64;
    assert!(
        (3.0..=5.0).contains(&ratio),
        "expected ~4x latency ratio, got {ratio}"
    );
}

#[test]
fn determinism_identical_runs_identical_reports() {
    for kind in ALL_MACHINES {
        let mk = || {
            let p = 4;
            let topo = Topology::mesh(p);
            let mut setup = SetupCtx::new(p);
            let counter = setup.alloc(0, 1);
            let lock = setup.alloc(0, 1);
            let bodies: Vec<ProcBody> = (0..p)
                .map(|_| {
                    let b: ProcBody = Box::new(move |me, ctx| {
                        let mem = MemCtx::new(ctx);
                        mem.compute(me as u64 * 13 + 5);
                        sync::lock(&mem, lock);
                        let v = mem.read(counter);
                        mem.write(counter, v + me as u64);
                        sync::unlock(&mem, lock);
                    });
                    b
                })
                .collect();
            run(kind, &topo, setup, bodies)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.exec_time, b.exec_time, "{kind}");
        assert_eq!(a.totals.latency, b.totals.latency);
        assert_eq!(a.totals.contention, b.totals.contention);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.final_store.read_word(spasm_machine::Addr(0)),
            b.final_store.read_word(spasm_machine::Addr(0))
        );
    }
}

#[test]
fn panicking_body_reports_error() {
    let topo = Topology::full(1);
    let setup = SetupCtx::new(1);
    let bodies: Vec<ProcBody> = vec![Box::new(|_, _| panic!("app bug"))];
    match Engine::new(MachineKind::Pram, &topo, setup, bodies).run() {
        Err(RunError::Panicked { proc: 0, message }) => assert!(message.contains("app bug")),
        other => panic!("{other:?}"),
    }
}

/// A write is posted: the body runs on before the engine has priced it.
/// The processor still finishes when its last write commits, which is when
/// a called RMW priced the same way would have returned.
#[test]
fn a_last_posted_write_finishes_at_its_commit() {
    for kind in ALL_MACHINES {
        let finish = |last_is_write: bool| {
            let topo = Topology::hypercube(2);
            let mut setup = SetupCtx::new(2);
            let remote = setup.alloc(1, 1);
            let bodies: Vec<ProcBody> = vec![
                Box::new(move |_, ctx| {
                    let mem = MemCtx::new(ctx);
                    mem.compute(100);
                    if last_is_write {
                        mem.write(remote, 1);
                    } else {
                        mem.swap(remote, 1);
                    }
                }),
                Box::new(|_, _| {}),
            ];
            run(kind, &topo, setup, bodies).per_proc[0].finish
        };
        let posted_at = SimTime::from_ns(3000);
        assert!(finish(true) > posted_at, "{kind}");
        assert_eq!(finish(true), finish(false), "{kind}");
    }
}

/// The panic behind a posted write waits until the write is served, so the
/// run ends with the write's own error.
#[test]
fn a_bad_posted_write_is_reported_before_the_panic_behind_it() {
    for kind in ALL_MACHINES {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let word = setup.alloc(0, 2);
        let bodies: Vec<ProcBody> = vec![Box::new(move |_, ctx| {
            MemCtx::new(ctx).write(spasm_machine::Addr(word.0 + 4), 1);
            panic!("after the unaligned write");
        })];
        match Engine::new(kind, &topo, setup, bodies).run() {
            Err(RunError::BadRequest { proc: 0, message }) => {
                assert!(message.contains("unaligned"), "{kind}: {message}");
            }
            other => panic!("{kind}: {other:?}"),
        }
    }
}

#[test]
fn lost_wakeup_detected_as_deadlock() {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let flag = setup.alloc(0, 1);
    let bodies: Vec<ProcBody> = vec![
        Box::new(|_, _| {}), // never signals
        Box::new(move |_, ctx| {
            MemCtx::new(ctx).wait_until(flag, Pred::Eq(1));
        }),
    ];
    match Engine::new(MachineKind::Target, &topo, setup, bodies).run() {
        Err(RunError::Deadlock { waiting, .. }) => assert_eq!(waiting, vec![1]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_deadlock_names_spinners_and_receivers_together() {
    let topo = Topology::full(4);
    let mut setup = SetupCtx::new(4);
    let flag = setup.alloc(0, 1);
    let bodies: Vec<ProcBody> = vec![
        Box::new(|_, _| {}), // never sends, never signals
        Box::new(|_, ctx| {
            MemCtx::new(ctx).recv(9);
        }),
        Box::new(move |_, ctx| {
            MemCtx::new(ctx).wait_until(flag, Pred::Eq(1));
        }),
        Box::new(move |_, ctx| {
            MemCtx::new(ctx).wait_until(flag, Pred::Eq(1));
        }),
    ];
    match Engine::new(MachineKind::Target, &topo, setup, bodies).run() {
        Err(RunError::Deadlock { waiting, .. }) => assert_eq!(waiting, vec![1, 2, 3]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn spinners_wake_in_the_order_they_blocked() {
    let p = 4;
    let topo = Topology::full(p);
    let mut setup = SetupCtx::new(p);
    let flag = setup.alloc(0, 1);
    let ticket = setup.alloc(0, 1);
    let took = setup.alloc(0, p as u64);
    // Staggered work makes processors 3, 1 and 2 block in that order.
    let delay = [0, 20, 30, 10];
    let bodies: Vec<ProcBody> = (0..p)
        .map(|_| {
            let b: ProcBody = Box::new(move |me, ctx| {
                let mem = MemCtx::new(ctx);
                if me == 0 {
                    mem.compute(100);
                    mem.write(flag, 1);
                } else {
                    mem.compute(delay[me]);
                    mem.wait_until(flag, Pred::Eq(1));
                    let t = mem.fetch_add(ticket, 1);
                    mem.write(took.offset_words(t), me as u64);
                }
            });
            b
        })
        .collect();
    let r = run(MachineKind::Pram, &topo, setup, bodies);
    let order: Vec<u64> = (0..3)
        .map(|t| r.final_store.read_word(took.offset_words(t)))
        .collect();
    assert_eq!(order, [3, 1, 2]);
}

#[test]
fn exec_time_orders_pram_fastest() {
    // PRAM <= CLogP <= target <= LogP for a communication-heavy kernel.
    let mut times = std::collections::HashMap::new();
    for kind in ALL_MACHINES {
        let p = 4;
        let topo = Topology::mesh(p);
        let mut setup = SetupCtx::new(p);
        let data = setup.alloc(0, 64);
        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let b: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    for i in 0..16u64 {
                        let v = mem.read(data.offset_words(i));
                        mem.compute(5);
                        if me == 0 {
                            mem.write(data.offset_words(48 + i), v + 1);
                        }
                    }
                });
                b
            })
            .collect();
        times.insert(kind.to_string(), run(kind, &topo, setup, bodies).exec_time);
    }
    assert!(times["pram"] < times["clogp"]);
    assert!(times["clogp"] < times["logp"]);
    assert!(times["target"] < times["logp"]);
}

#[test]
fn rmw_swap_and_fetch_add() {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let a = setup.alloc_init(1, &[5]);
    let out = setup.alloc(0, 2);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            let old = mem.fetch_add(a, 10);
            mem.write(out, old);
            let old2 = mem.swap(a, 99);
            mem.write(out.offset_words(1), old2);
        }),
        Box::new(|_, _| {}),
    ];
    let r = run(MachineKind::Target, &topo, setup, bodies);
    assert_eq!(r.final_store.read_word(out), 5);
    assert_eq!(r.final_store.read_word(out.offset_words(1)), 15);
    assert_eq!(r.final_store.read_word(a), 99);
}

#[test]
fn f64_values_survive_simulation() {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let x = setup.alloc_init_f64(1, &[2.5]);
    let y = setup.alloc(0, 1);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            let mem = MemCtx::new(ctx);
            let v = mem.read_f64(x);
            mem.write_f64(y, v * v);
        }),
        Box::new(|_, _| {}),
    ];
    let r = run(MachineKind::CLogP, &topo, setup, bodies);
    assert_eq!(r.final_store.read_f64(y), 6.25);
}

#[test]
fn report_metric_helpers() {
    let topo = Topology::full(2);
    let mut setup = SetupCtx::new(2);
    let a = setup.alloc(1, 1);
    let bodies: Vec<ProcBody> = vec![
        Box::new(move |_, ctx| {
            MemCtx::new(ctx).read(a);
        }),
        Box::new(|_, _| {}),
    ];
    let r = run(MachineKind::LogP, &topo, setup, bodies);
    assert_eq!(r.procs(), 2);
    // 2 messages x 1.6us over 2 procs = 1.6us mean.
    assert!((r.latency_overhead_us() - 1.6).abs() < 1e-9);
    assert!(r.exec_time_us() >= 3.2);
    assert!(r.contention_overhead_us() >= 0.0);
}

/// What a run's outcome is made of, host wall time left out.
fn outcome(r: &RunReport) -> String {
    let per_proc: Vec<_> = r
        .per_proc
        .iter()
        .map(|s| (s.buckets, s.finish, s.ops))
        .collect();
    format!(
        "exec {:?} events {} faults {:?} per_proc {per_proc:?} store {:?}",
        r.exec_time, r.events, r.faults, r.final_store
    )
}

/// Reading k words with one `read_f64_many` is the same run as reading
/// them one by one: the engine sees the same requests at the same
/// simulated times, a posted write ahead of them included, plain, under
/// the strict checkers and under injected stalls.
#[test]
fn a_batched_read_run_is_the_run_of_its_reads_one_by_one() {
    let stalls = FaultPlan {
        stall_prob: 0.3,
        stall_ns: 700,
        ..FaultPlan::quiet(7)
    };
    let configs = [
        MachineConfig::default(),
        MachineConfig {
            check: CheckMode::Strict,
            ..MachineConfig::default()
        },
        MachineConfig {
            faults: Some(stalls),
            ..MachineConfig::default()
        },
    ];
    for k in [2usize, 15, 16, 17, 40] {
        for kind in ALL_MACHINES {
            for config in configs {
                let report = |batched: bool| {
                    let topo = Topology::hypercube(2);
                    let mut setup = SetupCtx::new(2);
                    let words = setup.alloc(1, k as u64);
                    for i in 0..k as u64 {
                        setup.init_f64(words.offset_words(i), i as f64 * 1.5);
                    }
                    let out = setup.alloc(0, 2);
                    let bodies: Vec<ProcBody> = (0..2)
                        .map(|_| {
                            let body: ProcBody = Box::new(move |me, ctx| {
                                let mem = MemCtx::new(ctx);
                                // Posted ahead of the reads; processor 1's
                                // lands in the words processor 0 reads.
                                let first = if me == 0 {
                                    out
                                } else {
                                    words.offset_words(k as u64 / 2)
                                };
                                mem.write_f64(first, -1.0);
                                let addrs = (0..k as u64).map(|i| words.offset_words(i));
                                // Stale values `read_f64_many` must clear.
                                let mut vals = vec![f64::NAN; 3];
                                if batched {
                                    mem.read_f64_many(addrs, &mut vals);
                                } else {
                                    vals = addrs.map(|a| mem.read_f64(a)).collect();
                                }
                                mem.compute(5);
                                let sum: f64 = vals.iter().sum();
                                mem.write_f64(out.offset_words(me as u64), sum);
                            });
                            body
                        })
                        .collect();
                    Engine::with_config(kind, &topo, config, setup, bodies)
                        .run()
                        .unwrap_or_else(|e| panic!("k={k} {kind} {config:?}: {e}"))
                };
                let (one_by_one, batched) = (report(false), report(true));
                assert_eq!(
                    outcome(&one_by_one),
                    outcome(&batched),
                    "k={k} {kind} {config:?}"
                );
                if config.faults.is_some() {
                    assert!(batched.faults.stalls > 0, "k={k} {kind}: no stall drawn");
                }
            }
        }
    }
}
