//! CG — the NAS Conjugate Gradient kernel.

use std::sync::Arc;

use spasm_machine::{sync, Addr, MemCtx, ProcBody, SetupCtx};

use crate::common::{block_range, close};
use crate::sparse::SymSparse;
use crate::{App, BuiltApp, SizeClass};

/// Conjugate-gradient iterations on a random sparse SPD system.
///
/// The paper's characterization: rows are assigned statically
/// ("a certain number of rows of the matrix in CG is assigned to a
/// processor at compile time"), but the *communication pattern is not
/// regular* — the sparse mat-vec reads `p[col]` for whichever columns
/// happen to be nonzero, so the remote-reference stream is data-dependent
/// and "cannot be determined at compile time". Reductions (the dot
/// products) use per-processor partials combined by processor 0 between
/// barriers, the standard optimized NAS-port shape.
#[derive(Debug, Clone)]
pub struct Cg {
    /// System dimension.
    pub n: usize,
    /// Extra off-diagonal entries per row in the generator.
    pub extra: usize,
    /// CG iterations to run.
    pub iters: usize,
}

/// Charged cycles per multiply-accumulate in the mat-vec.
const CYCLES_MAC: u64 = 8;
/// Charged cycles per element of a vector update / dot product.
const CYCLES_VEC: u64 = 6;

impl Cg {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        let (n, iters) = match size {
            SizeClass::Test => (128, 3),
            SizeClass::Small => (320, 4),
            SizeClass::Full => (512, 5),
        };
        Cg { n, extra: 3, iters }
    }

    /// Creates the kernel with explicit parameters.
    pub fn with_params(n: usize, extra: usize, iters: usize) -> Self {
        Cg { n, extra, iters }
    }
}

/// Distributed vector: one block-range slice per processor.
#[derive(Debug, Clone)]
struct DistVec {
    /// Element `i`'s address, one table shared by every body.
    addrs: Arc<[Addr]>,
}

impl DistVec {
    fn alloc(setup: &mut SetupCtx, n: usize, p: usize, label: &'static str) -> Self {
        let mut addrs = Vec::with_capacity(n);
        for home in 0..p {
            let (lo, hi) = block_range(n, p, home);
            let base = setup.alloc_labeled(home, (hi - lo).max(1) as u64, label);
            addrs.extend((0..(hi - lo) as u64).map(|k| base.offset_words(k)));
        }
        DistVec {
            addrs: addrs.into(),
        }
    }

    fn addr(&self, i: usize) -> Addr {
        self.addrs[i]
    }
}

/// Reference sequential CG mirroring the parallel reduction structure.
fn reference_cg(a: &SymSparse, iters: usize, p: usize) -> (Vec<f64>, f64) {
    let n = a.n;
    let b = vec![1.0f64; n];
    let mut x = vec![0.0f64; n];
    let mut r = b;
    let mut pv = r.clone();
    // Partial-sum-per-processor dot product, matching the parallel shape.
    let dot = |u: &[f64], v: &[f64]| -> f64 {
        (0..p)
            .map(|me| {
                let (lo, hi) = block_range(n, p, me);
                (lo..hi).map(|i| u[i] * v[i]).sum::<f64>()
            })
            .sum()
    };
    for _ in 0..iters {
        let rho = dot(&r, &r);
        let q = a.matvec(&pv);
        let alpha = rho / dot(&pv, &q);
        for i in 0..n {
            x[i] += alpha * pv[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot(&r, &r);
        let beta = rho_new / rho;
        for i in 0..n {
            pv[i] = r[i] + beta * pv[i];
        }
    }
    let rnorm = dot(&r, &r).sqrt();
    (x, rnorm)
}

impl App for Cg {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let n = self.n;
        let iters = self.iters;
        assert!(n >= p, "need at least one row per processor");
        let a = Arc::new(SymSparse::random_spd(n, self.extra, seed));

        // Distributed vectors; b = 1, x0 = 0 => r0 = p0 = 1.
        let xv = DistVec::alloc(setup, n, p, "x-vec");
        let rv = DistVec::alloc(setup, n, p, "r-vec");
        let pv = DistVec::alloc(setup, n, p, "p-vec");
        let qv = DistVec::alloc(setup, n, p, "q-vec");
        for i in 0..n {
            setup.init_f64(xv.addr(i), 0.0);
            setup.init_f64(rv.addr(i), 1.0);
            setup.init_f64(pv.addr(i), 1.0);
            setup.init_f64(qv.addr(i), 0.0);
        }
        // Reductions use per-processor partial slots (each homed at its
        // writer) combined by processor 0 — the standard NAS-port shape,
        // which costs O(p) remote reads instead of an O(p^2) lock herd.
        // Fresh total slots per iteration avoid reset races.
        let partial_slots: Vec<spasm_machine::Addr> = (0..p)
            .map(|home| setup.alloc_labeled(home, 1, "reduction"))
            .collect();
        let rho_slots = setup.alloc(0, iters as u64);
        let pq_slots = setup.alloc(0, iters as u64);
        let rho_new_slots = setup.alloc(0, iters as u64);
        for it in 0..iters as u64 {
            setup.init_f64(rho_slots.offset_words(it), 0.0);
            setup.init_f64(pq_slots.offset_words(it), 0.0);
            setup.init_f64(rho_new_slots.offset_words(it), 0.0);
        }
        let barrier = sync::Barrier::alloc(setup, 0, p);

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let a = Arc::clone(&a);
                let (xv, rv, pv, qv) = (xv.clone(), rv.clone(), pv.clone(), qv.clone());
                let partial_slots = partial_slots.clone();
                let body: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    let mut bar = barrier.handle();
                    let (lo, hi) = block_range(n, p, me);

                    // Values of the reads in flight; runs of reads whose
                    // values are used only after the run go out batched.
                    let mut vals = Vec::new();

                    // Partial-sum reduction: publish the local partial,
                    // rendezvous, processor 0 combines, rendezvous again.
                    let reduce = |slot: Addr,
                                  local: f64,
                                  bar: &mut sync::BarrierHandle,
                                  vals: &mut Vec<f64>| {
                        mem.write_f64(partial_slots[me], local);
                        bar.wait(&mem);
                        if me == 0 {
                            mem.read_f64_many(partial_slots.iter().copied(), vals);
                            let mut total = 0.0;
                            for &v in vals.iter() {
                                total += v;
                            }
                            mem.compute(CYCLES_VEC * p as u64);
                            mem.write_f64(slot, total);
                        }
                        bar.wait(&mem);
                    };

                    for it in 0..iters as u64 {
                        // rho = r.r over the local slice.
                        mem.read_f64_many((lo..hi).map(|i| rv.addr(i)), &mut vals);
                        let mut local = 0.0;
                        for &ri in &vals {
                            local += ri * ri;
                        }
                        mem.compute(CYCLES_VEC * (hi - lo) as u64);
                        reduce(rho_slots.offset_words(it), local, &mut bar, &mut vals);

                        // q = A p over the local rows: the irregular,
                        // data-dependent remote reads.
                        for i in lo..hi {
                            let row = &a.rows[i];
                            mem.read_f64_many(row.iter().map(|&(j, _)| pv.addr(j)), &mut vals);
                            let mut acc = 0.0;
                            for (&(_, v), &pj) in row.iter().zip(&vals) {
                                acc += v * pj;
                            }
                            mem.compute(CYCLES_MAC * row.len() as u64);
                            mem.write_f64(qv.addr(i), acc);
                        }

                        // pq = p.q over the local slice.
                        mem.read_f64_many(
                            (lo..hi).flat_map(|i| [pv.addr(i), qv.addr(i)]),
                            &mut vals,
                        );
                        let mut local = 0.0;
                        for pq in vals.chunks_exact(2) {
                            local += pq[0] * pq[1];
                        }
                        mem.compute(CYCLES_VEC * (hi - lo) as u64);
                        reduce(pq_slots.offset_words(it), local, &mut bar, &mut vals);

                        let rho = mem.read_f64(rho_slots.offset_words(it));
                        let pq = mem.read_f64(pq_slots.offset_words(it));
                        let alpha = rho / pq;

                        // x += alpha p ; r -= alpha q (local slices), then
                        // rho_new = r.r.
                        let mut local = 0.0;
                        for i in lo..hi {
                            mem.read_f64_many([xv.addr(i), pv.addr(i)], &mut vals);
                            mem.write_f64(xv.addr(i), vals[0] + alpha * vals[1]);
                            mem.read_f64_many([rv.addr(i), qv.addr(i)], &mut vals);
                            let ri = vals[0] - alpha * vals[1];
                            mem.write_f64(rv.addr(i), ri);
                            local += ri * ri;
                        }
                        mem.compute(2 * CYCLES_VEC * (hi - lo) as u64);
                        reduce(rho_new_slots.offset_words(it), local, &mut bar, &mut vals);

                        // p = r + beta p: writes that invalidate every
                        // consumer's cached copy of p.
                        let rho_new = mem.read_f64(rho_new_slots.offset_words(it));
                        let beta = rho_new / rho;
                        for i in lo..hi {
                            mem.read_f64_many([pv.addr(i), rv.addr(i)], &mut vals);
                            mem.write_f64(pv.addr(i), vals[1] + beta * vals[0]);
                        }
                        mem.compute(CYCLES_VEC * (hi - lo) as u64);
                        bar.wait(&mem);
                    }
                });
                body
            })
            .collect();

        let a_v = Arc::clone(&a);
        let verify: crate::Verifier = Box::new(move |store| {
            let (want_x, want_rnorm) = reference_cg(&a_v, iters, p);
            for (i, &want) in want_x.iter().enumerate() {
                let got = store.read_f64(xv.addr(i));
                if !close(got, want, 1e-6) {
                    return Err(format!("x[{i}] = {got}, want {want}"));
                }
            }
            // The iterate must actually have made progress.
            let mut rnorm2 = 0.0;
            for i in 0..a_v.n {
                let ri = store.read_f64(rv.addr(i));
                rnorm2 += ri * ri;
            }
            let bnorm = (a_v.n as f64).sqrt();
            if rnorm2.sqrt() >= bnorm {
                return Err(format!(
                    "residual did not decrease: {} vs {bnorm}",
                    rnorm2.sqrt()
                ));
            }
            if !close(rnorm2.sqrt(), want_rnorm, 1e-4) {
                return Err(format!(
                    "residual norm {} differs from reference {want_rnorm}",
                    rnorm2.sqrt()
                ));
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
    fn cg_verifies_on_every_machine() {
        for kind in [
            MachineKind::Pram,
            MachineKind::Target,
            MachineKind::LogP,
            MachineKind::CLogP,
        ] {
            let topo = Topology::hypercube(4);
            let mut setup = SetupCtx::new(4);
            let built = Cg::with_params(32, 2, 3).build(&mut setup, 21);
            let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&report.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn cg_single_processor() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = Cg::with_params(24, 2, 3).build(&mut setup, 8);
        let r = Engine::new(MachineKind::CLogP, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }

    #[test]
    fn reference_cg_converges() {
        let a = SymSparse::random_spd(48, 3, 4);
        let (_, r3) = reference_cg(&a, 3, 2);
        let (_, r6) = reference_cg(&a, 6, 2);
        assert!(r6 < r3, "more iterations must shrink the residual");
        assert!(r3 < (48f64).sqrt());
    }
}
