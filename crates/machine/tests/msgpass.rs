//! Message-passing platform tests: explicit SEND/RECEIVE, the other
//! platform family the SPASM simulator supports.

use spasm_desim::SimTime;
use spasm_machine::{Engine, MachineKind, MemCtx, ProcBody, RunError, SetupCtx};
use spasm_topology::Topology;

const ALL: [MachineKind; 4] = [
    MachineKind::Pram,
    MachineKind::Target,
    MachineKind::LogP,
    MachineKind::CLogP,
];

#[test]
fn ping_pong_roundtrips_value_on_all_machines() {
    for kind in ALL {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let out = setup.alloc(0, 1);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                mem.send(1, 32, 7, 41);
                let v = mem.recv(8);
                mem.write(out, v);
            }),
            Box::new(|_, ctx| {
                let mem = MemCtx::new(ctx);
                let v = mem.recv(7);
                mem.send(0, 32, 8, v + 1);
            }),
        ];
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        assert_eq!(r.final_store.read_word(out), 42, "{kind}");
    }
}

#[test]
fn recv_before_send_blocks_and_accumulates_sync() {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        Box::new(|_, ctx| {
            let mem = MemCtx::new(ctx);
            mem.compute(10_000); // 300us of work before sending
            mem.send(1, 8, 1, 99);
        }),
        Box::new(|_, ctx| {
            assert_eq!(MemCtx::new(ctx).recv(1), 99);
        }),
    ];
    let r = Engine::new(MachineKind::Target, &topo, setup, bodies)
        .run()
        .unwrap();
    assert!(r.per_proc[1].buckets.sync >= SimTime::from_us(250));
}

#[test]
fn messages_with_same_tag_are_fifo() {
    for kind in ALL {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let out = setup.alloc(0, 3);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                for i in 0..3u64 {
                    mem.send(1, 16, 5, 100 + i);
                }
            }),
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                for i in 0..3u64 {
                    let v = mem.recv(5);
                    mem.write(out.offset_words(i), v);
                }
            }),
        ];
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        for i in 0..3u64 {
            assert_eq!(
                r.final_store.read_word(out.offset_words(i)),
                100 + i,
                "{kind}"
            );
        }
    }
}

#[test]
fn tags_demultiplex_independent_streams() {
    for kind in ALL {
        let topo = Topology::hypercube(2);
        let mut setup = SetupCtx::new(2);
        let out = setup.alloc(0, 3);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                mem.send(1, 8, 2, 222);
                mem.send(1, 8, 1, 111);
                mem.send(1, 8, 2, 333);
            }),
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                // Let all three arrive first, so the tag-1 receive has to
                // skip the earlier tag-2 message: tag matching, not arrival
                // order, decides, and each tag stays FIFO.
                mem.compute(10_000);
                let a = mem.recv(1);
                let b = mem.recv(2);
                let c = mem.recv(2);
                mem.write(out, a);
                mem.write(out.offset_words(1), b);
                mem.write(out.offset_words(2), c);
            }),
        ];
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        let got: Vec<u64> = (0..3)
            .map(|i| r.final_store.read_word(out.offset_words(i)))
            .collect();
        assert_eq!(got, [111, 222, 333], "{kind}");
    }
}

#[test]
fn ring_all_reduce_computes_global_sum() {
    // Each processor contributes (me+1); a token circulates the ring twice
    // (accumulate, then broadcast). Verified on every machine.
    for kind in ALL {
        let p = 8;
        let topo = Topology::hypercube(p);
        let mut setup = SetupCtx::new(p);
        let out = setup.alloc(0, p as u64);
        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let b: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    let next = (me + 1) % p;
                    let mine = me as u64 + 1;
                    // Accumulation pass.
                    let acc = if me == 0 { mine } else { mem.recv(1) + mine };
                    mem.send(next, 32, if next == 0 { 2 } else { 1 }, acc);
                    // Broadcast pass.
                    let total = if me == 0 {
                        let t = mem.recv(2);
                        mem.send(next, 32, 3, t);
                        t
                    } else {
                        let t = mem.recv(3);
                        if next != 0 {
                            mem.send(next, 32, 3, t);
                        }
                        t
                    };
                    mem.write(out.offset_words(me as u64), total);
                });
                b
            })
            .collect();
        let r = Engine::new(kind, &topo, setup, bodies).run().unwrap();
        let want = (1..=p as u64).sum::<u64>();
        for me in 0..p as u64 {
            assert_eq!(
                r.final_store.read_word(out.offset_words(me)),
                want,
                "{kind}"
            );
        }
    }
}

#[test]
fn logp_sender_is_asynchronous_target_sender_holds_circuit() {
    // On the LogP machines a send costs the sender only its NI slot; on
    // the circuit-switched target the sender drives the wire for the full
    // transmission.
    let run = |kind| {
        let topo = Topology::full(2);
        let setup = SetupCtx::new(2);
        let bodies: Vec<ProcBody> = vec![
            Box::new(|_, ctx| {
                let mem = MemCtx::new(ctx);
                mem.send(1, 32, 1, 0);
                // Sender's finish time IS its completion of the send.
            }),
            Box::new(|_, ctx| {
                MemCtx::new(ctx).recv(1);
            }),
        ];
        Engine::new(kind, &topo, setup, bodies).run().unwrap()
    };
    let target = run(MachineKind::Target);
    let logp = run(MachineKind::LogP);
    // Target sender blocked ~1.6us (32B transmission); LogP sender free
    // almost immediately (first slot, no gap backlog).
    assert!(target.per_proc[0].finish >= SimTime::from_ns(1600));
    assert!(logp.per_proc[0].finish < SimTime::from_ns(200));
}

#[test]
fn message_passing_latency_is_exact_under_logp() {
    // With explicit 32-byte messages there is no memory system to
    // abstract and L exactly equals the target's per-message transmission
    // time, so the two machines' *latency* overheads agree to the
    // nanosecond (they count the same messages at the same price). The
    // remaining divergence is purely the g-model's contention pessimism —
    // LogP in its cleanest form.
    const P: usize = 4;
    const ROUNDS: u64 = 4;
    let run = |kind| {
        let topo = Topology::full(P);
        let setup = SetupCtx::new(P);
        let bodies: Vec<ProcBody> = (0..P)
            .map(|_| {
                let b: ProcBody = Box::new(|me, ctx| {
                    let mem = MemCtx::new(ctx);
                    // One tag per (round, sender): each value is checkable.
                    let tag = |round: u64, src: usize| round * P as u64 + src as u64;
                    for round in 0..ROUNDS {
                        for dst in (0..P).filter(|&d| d != me) {
                            mem.send(dst, 32, tag(round, me), me as u64);
                        }
                        for src in (0..P).filter(|&s| s != me) {
                            assert_eq!(mem.recv(tag(round, src)), src as u64);
                        }
                    }
                });
                b
            })
            .collect();
        Engine::new(kind, &topo, setup, bodies).run().unwrap()
    };
    let target = run(MachineKind::Target);
    let logp = run(MachineKind::LogP);
    assert_eq!(
        target.summary.net_messages, logp.summary.net_messages,
        "same messages on both machines"
    );
    assert_eq!(target.summary.net_messages, ROUNDS * (P * (P - 1)) as u64);
    // Every message is 32 B: latency overheads agree exactly.
    assert_eq!(target.totals.latency, logp.totals.latency);
    // Contention is where the models part ways (g pessimism).
    assert!(logp.totals.contention > target.totals.contention);
}

#[test]
fn missing_sender_is_a_deadlock_not_a_hang() {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        Box::new(|_, _| {}),
        Box::new(|_, ctx| {
            MemCtx::new(ctx).recv(9);
        }),
    ];
    match Engine::new(MachineKind::Target, &topo, setup, bodies).run() {
        Err(RunError::Deadlock { waiting, .. }) => assert_eq!(waiting, vec![1]),
        other => panic!("{other:?}"),
    }
}

#[test]
fn oversized_message_rejected() {
    let topo = Topology::full(2);
    let setup = SetupCtx::new(2);
    let bodies: Vec<ProcBody> = vec![
        Box::new(|_, ctx| {
            MemCtx::new(ctx).send(1, 64, 1, 0);
        }),
        Box::new(|_, ctx| {
            MemCtx::new(ctx).recv(1);
        }),
    ];
    // The malformed request is a typed error, not a process abort.
    match Engine::new(MachineKind::Target, &topo, setup, bodies).run() {
        Err(RunError::BadRequest { proc, message }) => {
            assert_eq!(proc, 0);
            assert!(message.contains("outside 1..=32"), "{message}");
        }
        other => panic!("{other:?}"),
    }
}
