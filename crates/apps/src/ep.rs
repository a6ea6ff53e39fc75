//! EP — the NAS Embarrassingly Parallel kernel.

use std::sync::Arc;

use spasm_machine::{sync, MemCtx, Pred, ProcBody, SetupCtx};

use crate::common::{block_range, close, proc_rng};
use crate::{App, BuiltApp, SizeClass};
use spasm_prng::Rng;

/// Gaussian deviates by the Marsaglia polar method, binned by magnitude —
/// the NAS EP statistic. Communication structure (the part that matters to
/// the study):
///
/// * the bulk is private computation — EP has the suite's highest
///   computation-to-communication ratio, so all machine characterizations
///   agree on its execution time (paper Figure 12);
/// * one lock-protected accumulation of 10 bin counts and two sums into
///   globals homed at node 0;
/// * a **spin condition variable** at the end: workers spin on a flag that
///   node 0 sets once all accumulations are in. On cached machines only
///   the first and last spin accesses touch the network; on the LogP
///   machine every poll is a round trip — the paper's Figure 3 latency
///   blow-up.
#[derive(Debug, Clone, Copy)]
pub struct Ep {
    /// Total Gaussian pairs attempted across all processors.
    pub pairs: usize,
}

/// Bins: `l <= max(|X|,|Y|) < l+1` for `l` in `0..10`.
const BINS: usize = 10;
/// Charged cycles per attempted pair (log, sqrt, compares on a 33 MHz
/// SPARC-class core).
const CYCLES_PER_PAIR: u64 = 120;
/// Pairs per computation chunk (keeps simulator event counts sane without
/// distorting time: the charge is identical).
const CHUNK: usize = 16;

impl Ep {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        let pairs = match size {
            SizeClass::Test => 4_096,
            SizeClass::Small => 65_536,
            SizeClass::Full => 262_144,
        };
        Ep { pairs }
    }

    /// Creates the kernel with an explicit pair count.
    pub fn with_pairs(pairs: usize) -> Self {
        Ep { pairs }
    }
}

/// One processor's private statistics: (bins, sx, sy).
type Stats = ([u64; BINS], f64, f64);

/// Pairs `local_stats` carries through each of its stages at a time.
const BLOCK: usize = 256;

/// One processor's private statistics pass over its own `proc_rng` stream,
/// in blocks of [`BLOCK`] pairs and four stages per block: draw the pairs
/// and keep the accepted ones (without a branch), take every `ln`, every
/// scale factor, then bin and sum in pair order. The sums are taken in the
/// order a pair-at-a-time loop takes them, with the same IEEE operations,
/// so the result is bit-identical to it; the stages only let independent
/// `ln`s and square roots overlap.
fn local_stats(seed: u64, proc: usize, lo: usize, hi: usize) -> Stats {
    let mut rng = proc_rng(seed, proc);
    let mut q = [0u64; BINS];
    let (mut sx, mut sy) = (0.0f64, 0.0f64);
    let (mut xs, mut ys) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
    let (mut ts, mut fs) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
    let mut left = hi - lo;
    while left > 0 {
        let drawn = left.min(BLOCK);
        left -= drawn;
        // Every pair is stored at the next free slot, which advances only
        // past an accepted one: at draw i, kept <= i < BLOCK.
        let mut kept = 0;
        for _ in 0..drawn {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let t = x * x + y * y;
            (xs[kept], ys[kept], ts[kept]) = (x, y, t);
            kept += usize::from((t > 0.0) & (t <= 1.0));
        }
        let (xs, ys, ts, fs) = (&xs[..kept], &ys[..kept], &ts[..kept], &mut fs[..kept]);
        for (f, &t) in fs.iter_mut().zip(ts) {
            *f = t.ln();
        }
        for (f, &t) in fs.iter_mut().zip(ts) {
            *f = (-2.0 * *f / t).sqrt();
        }
        for ((&x, &y), &f) in xs.iter().zip(ys).zip(fs.iter()) {
            let (gx, gy) = (x * f, y * f);
            let l = gx.abs().max(gy.abs()) as usize;
            if l < BINS {
                q[l] += 1;
            }
            sx += gx;
            sy += gy;
        }
    }
    (q, sx, sy)
}

/// Every processor's private statistics, indexed by processor. Built once
/// per point by `Ep::build` and shared by the simulated bodies and the
/// verifier, so the reference is exact by construction and the pass — most
/// of an EP point's host time — runs once, not once on each side. It lives
/// and dies with the built point: a process-wide memo across points or
/// machines would save the pass again but is hidden state, and is
/// deliberately not kept.
fn stats_table(seed: u64, pairs: usize, p: usize) -> Vec<Stats> {
    (0..p)
        .map(|proc| {
            let (lo, hi) = block_range(pairs, p, proc);
            local_stats(seed, proc, lo, hi)
        })
        .collect()
}

/// The sequential reference: the table summed in processor order.
fn totals(stats: &[Stats]) -> Stats {
    let mut want_q = [0u64; BINS];
    let (mut want_sx, mut want_sy) = (0.0f64, 0.0f64);
    for (q, sx, sy) in stats {
        for l in 0..BINS {
            want_q[l] += q[l];
        }
        want_sx += sx;
        want_sy += sy;
    }
    (want_q, want_sx, want_sy)
}

impl App for Ep {
    fn name(&self) -> &'static str {
        "ep"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let pairs = self.pairs;

        // Globals homed at node 0, as in a master-allocated NAS port.
        let q_global = setup.alloc_labeled(0, BINS as u64, "globals");
        let sx_global = setup.alloc_labeled(0, 1, "globals");
        let sy_global = setup.alloc_labeled(0, 1, "globals");
        let lock = setup.alloc_labeled(0, 1, "lock");
        let done = setup.alloc_labeled(0, 1, "globals");
        let flag = sync::CondFlag::alloc(setup, 0);
        setup.init_f64(sx_global, 0.0);
        setup.init_f64(sy_global, 0.0);

        let stats = Arc::new(stats_table(seed, pairs, p));

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let stats = Arc::clone(&stats);
                let body: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    let (lo, hi) = block_range(pairs, p, me);

                    // Private computation: executed natively (in `build`),
                    // charged in chunks.
                    let todo = hi - lo;
                    let full_chunks = todo / CHUNK;
                    for _ in 0..full_chunks {
                        mem.compute(CYCLES_PER_PAIR * CHUNK as u64);
                    }
                    mem.compute(CYCLES_PER_PAIR * (todo % CHUNK) as u64);
                    let (q, sx, sy) = stats[me];

                    // Lock-protected global accumulation.
                    sync::lock(&mem, lock);
                    for (l, &count) in q.iter().enumerate() {
                        if count > 0 {
                            let addr = q_global.offset_words(l as u64);
                            let cur = mem.read(addr);
                            mem.write(addr, cur + count);
                        }
                    }
                    let cur = mem.read_f64(sx_global);
                    mem.write_f64(sx_global, cur + sx);
                    let cur = mem.read_f64(sy_global);
                    mem.write_f64(sy_global, cur + sy);
                    sync::unlock(&mem, lock);

                    // Completion: everyone spins on the condition variable
                    // until node 0 observes all arrivals and signals.
                    mem.fetch_add(done, 1);
                    if me == 0 {
                        mem.wait_until(done, Pred::Ge(p as u64));
                        flag.signal(&mem, 1);
                    } else {
                        flag.wait(&mem);
                    }
                });
                body
            })
            .collect();

        let verify: crate::Verifier = Box::new(move |store| {
            let (want_q, want_sx, want_sy) = totals(&stats);
            for (l, &want) in want_q.iter().enumerate() {
                let got = store.read_word(q_global.offset_words(l as u64));
                if got != want {
                    return Err(format!("bin {l}: got {got}, want {want}"));
                }
            }
            let gx = store.read_f64(sx_global);
            let gy = store.read_f64(sy_global);
            if !close(gx, want_sx, 1e-9) || !close(gy, want_sy, 1e-9) {
                return Err(format!(
                    "sums: got ({gx}, {gy}), want ({want_sx}, {want_sy})"
                ));
            }
            if store.read_word(done) != p as u64 {
                return Err("completion counter wrong".to_string());
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

    #[test]
    fn ep_verifies_on_every_machine() {
        for kind in [
            MachineKind::Pram,
            MachineKind::Target,
            MachineKind::LogP,
            MachineKind::CLogP,
        ] {
            let topo = Topology::full(4);
            let mut setup = SetupCtx::new(4);
            let built = Ep::with_pairs(128).build(&mut setup, 9);
            let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&report.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn ep_compute_dominates() {
        let topo = Topology::full(4);
        let mut setup = SetupCtx::new(4);
        let built = Ep::new(SizeClass::Test).build(&mut setup, 9);
        let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        assert!(
            r.totals.busy > r.totals.latency,
            "EP must be compute-bound: busy={} latency={}",
            r.totals.busy,
            r.totals.latency
        );
    }

    /// `local_stats` one pair at a time, as it was before its stages: the
    /// oracle the staged pass is held to, bit for bit.
    fn local_stats_per_pair(seed: u64, proc: usize, lo: usize, hi: usize) -> Stats {
        let mut rng = proc_rng(seed, proc);
        let mut q = [0u64; BINS];
        let (mut sx, mut sy) = (0.0f64, 0.0f64);
        for _ in lo..hi {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let t = x * x + y * y;
            if t > 0.0 && t <= 1.0 {
                let f = (-2.0 * t.ln() / t).sqrt();
                let (gx, gy) = (x * f, y * f);
                let l = gx.abs().max(gy.abs()) as usize;
                if l < BINS {
                    q[l] += 1;
                }
                sx += gx;
                sy += gy;
            }
        }
        (q, sx, sy)
    }

    #[test]
    fn the_staged_pass_matches_the_per_pair_loop_bit_for_bit() {
        for seed in [1, 7, 1995, 2024] {
            for pairs in [1, 17, 255, 256, 257, 4_096, 65_536, 262_144] {
                for p in [1, 3, 5, 32, 64] {
                    for proc in 0..p {
                        let (lo, hi) = block_range(pairs, p, proc);
                        let (q, sx, sy) = local_stats(seed, proc, lo, hi);
                        let (want_q, want_sx, want_sy) = local_stats_per_pair(seed, proc, lo, hi);
                        let at = format!("seed={seed} pairs={pairs} p={p} proc={proc}");
                        assert_eq!(q, want_q, "{at}");
                        assert_eq!(sx.to_bits(), want_sx.to_bits(), "{at}");
                        assert_eq!(sy.to_bits(), want_sy.to_bits(), "{at}");
                    }
                }
            }
        }
    }

    /// The verifier as it was before the shared table: every processor's
    /// pass recomputed from its `proc_rng` stream. The oracle the table is
    /// held to, bit for bit.
    fn fresh_reference(seed: u64, pairs: usize, p: usize) -> Stats {
        let mut want_q = [0u64; BINS];
        let (mut want_sx, mut want_sy) = (0.0f64, 0.0f64);
        for proc in 0..p {
            let (lo, hi) = block_range(pairs, p, proc);
            let (q, sx, sy) = local_stats(seed, proc, lo, hi);
            for l in 0..BINS {
                want_q[l] += q[l];
            }
            want_sx += sx;
            want_sy += sy;
        }
        (want_q, want_sx, want_sy)
    }

    #[test]
    fn shared_stats_match_a_fresh_reference() {
        // 1001 pairs split evenly over none of 2, 4 and 32 processors.
        for p in [1, 2, 4, 32] {
            for pairs in [1001, 4096] {
                let table = stats_table(9, pairs, p);
                assert_eq!(table.len(), p);
                let (q, sx, sy) = totals(&table);
                let (want_q, want_sx, want_sy) = fresh_reference(9, pairs, p);
                assert_eq!(q, want_q, "p={p} pairs={pairs}");
                assert_eq!(
                    (sx.to_bits(), sy.to_bits()),
                    (want_sx.to_bits(), want_sy.to_bits()),
                    "p={p} pairs={pairs}"
                );
            }
        }
    }

    #[test]
    fn ep_single_processor_works() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = Ep::with_pairs(64).build(&mut setup, 3);
        let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }
}
