//! The seeded synthetic traffic generator behind every scenario.
//!
//! Each processor emulates `clients` logical clients walking the phase
//! list `rounds` times. Every choice the generator makes — which word
//! to touch, whether to read or write, where a message goes, how big
//! it is, what it carries — is a pure hash of
//! `(seed, proc, client, round, phase, op)`, never of a value read
//! from simulated memory. That makes the issued operation stream
//! identical on every machine model (the point of the study: same
//! workload, different machine characterizations) and makes the final
//! memory image recomputable by a sequential reference, so scenarios
//! verify exactly like the built-in kernels.
//!
//! Deadlock freedom: within a comm phase every processor issues all of
//! its sends before its first receive, and the expected receive count
//! is the pure function [`expected_incoming`] evaluated over all
//! senders — total receives posted for a `(processor, tag)` pair equal
//! total messages ever sent to it, so a blocked receive always has a
//! message in flight behind it.

use spasm_apps::{App, BuiltApp, Verifier};
use spasm_machine::{sync, Addr, MemCtx, ProcBody, SetupCtx};
use spasm_prng::mix64;

use crate::{Locality, Phase, Scenario};

/// SplitMix64 avalanche over a word list: the generator's one
/// source of randomness. Stateless, so the simulated bodies and the
/// sequential verifier replay identical streams by construction.
fn mix(parts: &[u64]) -> u64 {
    let mut z = 0x9E37_79B9_7F4A_7C15u64;
    for &p in parts {
        z = mix64(z ^ p.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_add(z << 6));
    }
    z
}

/// Maps a hash to [0, 1): 53 uniform mantissa bits.
fn frac(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The communication partner of `me` under a locality pattern. `h`
/// feeds only the uniform pattern; the structured patterns are static.
/// Never returns `me` for `p > 1` (self-messages would collapse every
/// pattern to the same no-network workload).
fn partner(loc: Locality, me: usize, p: usize, h: u64) -> usize {
    if p <= 1 {
        return 0;
    }
    match loc {
        Locality::Ring => (me + 1) % p,
        Locality::Neighbor => {
            let n = me ^ 1;
            if n < p {
                n
            } else {
                (me + 1) % p
            }
        }
        Locality::Uniform => (me + 1 + (h as usize % (p - 1))) % p,
        Locality::Hotspot => usize::from(me == 0),
    }
}

/// One shared-memory operation of a mem phase. Writes always target
/// the processor's *own* region — the final memory image stays a pure
/// per-processor function — while reads visit a partner's region with
/// probability `sharing` (the coherence/locality traffic the scenario
/// knobs steer).
enum MemOp {
    Write { off: u64, val: u64 },
    ReadOwn { off: u64 },
    ReadPartner { from: usize, off: u64 },
}

fn mem_op(sc: &Scenario, p: usize, seed: u64, me: usize, ids: [u64; 4]) -> MemOp {
    let [round, pi, client, op] = ids;
    let key = [seed, me as u64, round, pi, client, op];
    let off = mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 1]) % sc.working_set;
    if frac(mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 2])) < sc.writes {
        let val = mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 3]);
        MemOp::Write { off, val }
    } else if frac(mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 4])) < sc.sharing {
        let h = mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 5]);
        MemOp::ReadPartner {
            from: partner(sc.locality, me, p, h),
            off,
        }
    } else {
        MemOp::ReadOwn { off }
    }
}

/// One message of a comm phase. The tag encodes `(phase, client)` so
/// streams from different clients and phases stay distinguishable on
/// the wire.
struct Msg {
    dst: usize,
    bytes: u64,
    tag: u64,
    payload: u64,
}

fn message(sc: &Scenario, p: usize, seed: u64, me: usize, ids: [u64; 4]) -> Msg {
    let [round, pi, client, m] = ids;
    let key = [seed, me as u64, round, pi, client, m];
    let (lo, hi) = sc.msg_bytes;
    Msg {
        dst: partner(
            sc.locality,
            me,
            p,
            mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 6]),
        ),
        bytes: lo + mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 7]) % (hi - lo + 1),
        tag: pi * 64 + client,
        payload: mix(&[key[0], key[1], key[2], key[3], key[4], key[5], 8]),
    }
}

/// How many messages with `tag` arrive at `me` in comm phase `pi` of
/// `round` — evaluated by re-running every sender's pure message
/// stream. Receivers post exactly this many receives.
fn expected_incoming(
    sc: &Scenario,
    p: usize,
    seed: u64,
    me: usize,
    [round, pi, messages]: [u64; 3],
    tag: u64,
) -> u64 {
    let mut n = 0;
    for src in 0..p {
        if src == me {
            continue;
        }
        for client in 0..sc.clients {
            for m in 0..messages {
                let msg = message(sc, p, seed, src, [round, pi, client, m]);
                if msg.dst == me && msg.tag == tag {
                    n += 1;
                }
            }
        }
    }
    n
}

/// Sequential reference for one processor: final own-region image,
/// operation count, and the wrapping sum of every message payload it
/// receives (order-independent, hence model-independent).
fn reference(sc: &Scenario, p: usize, seed: u64, me: usize) -> (Vec<u64>, u64, u64) {
    let mut region = vec![0u64; sc.working_set as usize];
    let mut ops_done = 0u64;
    let mut payload_sum = 0u64;
    for round in 0..sc.rounds {
        for (pi, phase) in sc.phases.iter().enumerate() {
            let pi = pi as u64;
            match *phase {
                Phase::Compute { .. } | Phase::Barrier => {}
                Phase::Mem { ops } => {
                    for client in 0..sc.clients {
                        for op in 0..ops {
                            match mem_op(sc, p, seed, me, [round, pi, client, op]) {
                                MemOp::Write { off, val } => region[off as usize] = val,
                                MemOp::ReadOwn { .. } | MemOp::ReadPartner { .. } => {}
                            }
                            ops_done += 1;
                        }
                    }
                }
                Phase::Comm { messages } => {
                    for src in 0..p {
                        for client in 0..sc.clients {
                            for m in 0..messages {
                                let msg = message(sc, p, seed, src, [round, pi, client, m]);
                                if src != me && msg.dst == me {
                                    payload_sum = payload_sum.wrapping_add(msg.payload);
                                }
                                if src == me {
                                    ops_done += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (region, ops_done, payload_sum)
}

/// A compiled scenario as an [`App`]. The size class is ignored — a
/// scenario's size lives in the scenario text itself (rounds, clients,
/// working-set), so the same workload runs at every `--size`.
pub(crate) struct ScenarioApp {
    pub(crate) name: &'static str,
    pub(crate) sc: Scenario,
}

impl App for ScenarioApp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let sc = self.sc.clone();
        let p = setup.nodes();

        // One working-set region homed at each processor, plus a
        // two-word result slot (ops count, payload checksum).
        let regions: Vec<Addr> = (0..p)
            .map(|me| setup.alloc_labeled(me, sc.working_set, "scn-ws"))
            .collect();
        let slots: Vec<Addr> = (0..p)
            .map(|me| setup.alloc_labeled(me, 2, "scn-result"))
            .collect();
        // One barrier per barrier position in the phase list, reused
        // every round.
        let barriers: Vec<sync::Barrier> = sc
            .phases
            .iter()
            .filter(|ph| matches!(ph, Phase::Barrier))
            .map(|_| sync::Barrier::alloc(setup, 0, p))
            .collect();

        let bodies: Vec<ProcBody> = (0..p)
            .map(|me| {
                let sc = sc.clone();
                let regions = regions.clone();
                let mut handles: Vec<sync::BarrierHandle> =
                    barriers.iter().map(|b| b.handle()).collect();
                let slot = slots[me];
                let body: ProcBody = Box::new(move |_, ctx| {
                    let mem = MemCtx::new(ctx);
                    let mut ops_done = 0u64;
                    let mut payload_sum = 0u64;
                    for round in 0..sc.rounds {
                        let mut barrier_at = 0usize;
                        for (pi, phase) in sc.phases.iter().enumerate() {
                            let pi = pi as u64;
                            match *phase {
                                Phase::Compute { cycles } => {
                                    for _ in 0..sc.clients {
                                        mem.compute(cycles);
                                    }
                                }
                                Phase::Mem { ops } => {
                                    for client in 0..sc.clients {
                                        for op in 0..ops {
                                            match mem_op(&sc, p, seed, me, [round, pi, client, op])
                                            {
                                                MemOp::Write { off, val } => {
                                                    mem.write(regions[me].offset_words(off), val);
                                                }
                                                MemOp::ReadOwn { off } => {
                                                    mem.read(regions[me].offset_words(off));
                                                }
                                                MemOp::ReadPartner { from, off } => {
                                                    mem.read(regions[from].offset_words(off));
                                                }
                                            }
                                            ops_done += 1;
                                        }
                                    }
                                }
                                Phase::Comm { messages } => {
                                    if p > 1 {
                                        // All sends first, then the
                                        // expected receives: never a
                                        // send stuck behind a receive.
                                        for client in 0..sc.clients {
                                            for m in 0..messages {
                                                let msg = message(
                                                    &sc,
                                                    p,
                                                    seed,
                                                    me,
                                                    [round, pi, client, m],
                                                );
                                                mem.send(msg.dst, msg.bytes, msg.tag, msg.payload);
                                                ops_done += 1;
                                            }
                                        }
                                        for client in 0..sc.clients {
                                            let tag = pi * 64 + client;
                                            let n = expected_incoming(
                                                &sc,
                                                p,
                                                seed,
                                                me,
                                                [round, pi, messages],
                                                tag,
                                            );
                                            for _ in 0..n {
                                                payload_sum =
                                                    payload_sum.wrapping_add(mem.recv(tag));
                                            }
                                        }
                                    }
                                }
                                Phase::Barrier => {
                                    handles[barrier_at].wait(&mem);
                                    barrier_at += 1;
                                }
                            }
                        }
                    }
                    mem.write(slot, ops_done);
                    mem.write(slot.offset_words(1), payload_sum);
                });
                body
            })
            .collect();

        let verify: Verifier = Box::new(move |store| {
            for me in 0..p {
                let (region, ops_done, payload_sum) = reference(&sc, p, seed, me);
                // With one processor, comm phases degenerate to no-ops
                // (there is no one to talk to); mirror that in the
                // reference counts.
                let (ops_done, payload_sum) = if p > 1 {
                    (ops_done, payload_sum)
                } else {
                    let mem_only: u64 = sc
                        .phases
                        .iter()
                        .map(|ph| match *ph {
                            Phase::Mem { ops } => ops * sc.clients,
                            _ => 0,
                        })
                        .sum::<u64>()
                        * sc.rounds;
                    (mem_only, 0)
                };
                for (off, &want) in region.iter().enumerate() {
                    let got = store.read_word(regions[me].offset_words(off as u64));
                    if got != want {
                        return Err(format!(
                            "proc {me} word {off}: got {got:#x}, want {want:#x}"
                        ));
                    }
                }
                let got_ops = store.read_word(slots[me]);
                if got_ops != ops_done {
                    return Err(format!("proc {me} ops: got {got_ops}, want {ops_done}"));
                }
                let got_sum = store.read_word(slots[me].offset_words(1));
                if got_sum != payload_sum {
                    return Err(format!(
                        "proc {me} payload checksum: got {got_sum:#x}, want {payload_sum:#x}"
                    ));
                }
            }
            Ok(())
        });

        BuiltApp { bodies, verify }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_machine::{Engine, MachineKind};
    use spasm_topology::Topology;

    fn demo() -> Scenario {
        crate::parse(
            "[scenario]\n\
             name = gen-test\n\
             clients = 2\n\
             rounds = 2\n\
             working-set = 16\n\
             sharing = 0.5\n\
             writes = 0.5\n\
             locality = uniform\n\
             msg-bytes = 4..16\n\
             [phase]\nkind = compute\ncycles = 40\n\
             [phase]\nkind = mem\nops = 8\n\
             [phase]\nkind = comm\nmessages = 3\n\
             [phase]\nkind = barrier\n",
        )
        .unwrap()
    }

    #[test]
    fn verifies_on_every_machine_and_every_locality() {
        for loc in [
            Locality::Ring,
            Locality::Neighbor,
            Locality::Uniform,
            Locality::Hotspot,
        ] {
            let mut sc = demo();
            sc.locality = loc;
            for kind in [
                MachineKind::Pram,
                MachineKind::Target,
                MachineKind::LogP,
                MachineKind::CLogP,
            ] {
                let topo = Topology::full(4);
                let mut setup = SetupCtx::new(4);
                let app = ScenarioApp {
                    name: "scn-gen-test",
                    sc: sc.clone(),
                };
                let built = app.build(&mut setup, 11);
                let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
                (built.verify)(&report.final_store)
                    .unwrap_or_else(|e| panic!("{loc:?} on {kind}: {e}"));
            }
        }
    }

    #[test]
    fn single_processor_runs_comm_free() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let app = ScenarioApp {
            name: "scn-gen-test",
            sc: demo(),
        };
        let built = app.build(&mut setup, 11);
        let report = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&report.final_store).unwrap();
        assert_eq!(report.totals.msgs, 0, "nothing to send to on p=1");
    }

    #[test]
    fn partner_never_targets_self() {
        for loc in [
            Locality::Ring,
            Locality::Neighbor,
            Locality::Uniform,
            Locality::Hotspot,
        ] {
            for p in [2usize, 3, 4, 8] {
                for me in 0..p {
                    for h in 0..16u64 {
                        assert_ne!(partner(loc, me, p, h), me, "{loc:?} p={p} me={me}");
                    }
                }
            }
        }
    }

    #[test]
    fn expected_incoming_balances_sends() {
        let sc = demo();
        for p in [2usize, 4, 5] {
            let (round, pi, messages) = (1u64, 2u64, 3u64);
            let mut sent = 0u64;
            for src in 0..p {
                for client in 0..sc.clients {
                    for m in 0..messages {
                        let msg = message(&sc, p, 11, src, [round, pi, client, m]);
                        assert_ne!(msg.dst, src);
                        assert!(msg.bytes >= 4 && msg.bytes <= 16);
                        sent += 1;
                    }
                }
            }
            let mut expected = 0u64;
            for me in 0..p {
                for client in 0..sc.clients {
                    expected +=
                        expected_incoming(&sc, p, 11, me, [round, pi, messages], pi * 64 + client);
                }
            }
            assert_eq!(sent, expected, "p={p}: every send must be expected");
        }
    }
}
