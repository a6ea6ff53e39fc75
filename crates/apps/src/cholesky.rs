//! CHOLESKY — sparse fan-out factorization with a dynamic task queue.

use std::sync::Arc;

use spasm_machine::{sync, Addr, MemCtx, Pred, ProcBody, SetupCtx};

use crate::common::close;
use crate::sparse::{symbolic_cholesky, SymSparse};
use crate::{App, BuiltApp, SizeClass};

/// Sparse Cholesky factorization (`A = L·Lᵀ`) in the SPLASH style: a
/// **dynamically maintained queue of runnable tasks** — the paper's
/// exemplar of an application whose communication "cannot be determined at
/// compile time". Which processor factors which column, and therefore the
/// entire remote-reference stream, is decided by simulated-time ordering
/// and differs across machine models; the numerical result does not.
///
/// Fan-out algorithm: when column `j`'s remaining-modification count hits
/// zero it is enqueued; a worker pops it, performs `cdiv(j)` (scale by the
/// diagonal square root), then applies `cmod(i, j)` to every column `i` in
/// `j`'s sub-diagonal structure (under per-column locks), decrementing
/// each `i`'s count and enqueuing newly-ready columns.
#[derive(Debug, Clone, Copy)]
pub struct Cholesky {
    /// Matrix dimension.
    pub n: usize,
    /// Extra off-diagonal entries per row in the generator.
    pub extra: usize,
}

/// Charged cycles per cdiv element (divide).
const CYCLES_CDIV: u64 = 20;
/// Charged cycles per cmod multiply-subtract.
const CYCLES_CMOD: u64 = 8;

impl Cholesky {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        let n = match size {
            SizeClass::Test => 32,
            SizeClass::Small => 128,
            SizeClass::Full => 256,
        };
        Cholesky { n, extra: 2 }
    }

    /// Creates the kernel with explicit parameters.
    pub fn with_params(n: usize, extra: usize) -> Self {
        Cholesky { n, extra }
    }
}

impl App for Cholesky {
    fn name(&self) -> &'static str {
        "cholesky"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let n = self.n;
        let a = Arc::new(SymSparse::random_spd(n, self.extra, seed));

        // Symbolic factorization: L's column structure including fill.
        let lower = a.lower_columns();
        let pattern: Arc<Vec<Vec<usize>>> = Arc::new(symbolic_cholesky(
            &lower
                .iter()
                .map(|col| col.iter().map(|&(r, _)| r).collect())
                .collect::<Vec<_>>(),
        ));

        // Column value arrays (A values, zero at fill positions), each
        // column homed round-robin; per-column locks live with the data.
        let col_bases: Vec<Addr> = (0..n)
            .map(|j| setup.alloc_labeled(j % p, pattern[j].len() as u64, "columns"))
            .collect();
        let col_locks: Vec<Addr> = (0..n)
            .map(|j| setup.alloc_labeled(j % p, 1, "col-locks"))
            .collect();
        for j in 0..n {
            for (slot, &row) in pattern[j].iter().enumerate() {
                let v = lower[j]
                    .iter()
                    .find(|&&(r, _)| r == row)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0);
                setup.init_f64(col_bases[j].offset_words(slot as u64), v);
            }
        }

        // Remaining-modification counts: how many earlier columns will
        // cmod column i.
        let mut nmod = vec![0u64; n];
        for j in 0..n {
            for &i in &pattern[j][1..] {
                nmod[i] += 1;
            }
        }
        let nmod_base = setup.alloc_init(0, &nmod);

        // The dynamic task queue (head/tail indices + item array) plus the
        // done counter and a version word that wakes idle workers.
        let items = setup.alloc_labeled(0, n as u64, "task-queue");
        let qhead = setup.alloc_labeled(0, 1, "task-queue");
        let qtail = setup.alloc_labeled(0, 1, "task-queue");
        let qlock = setup.alloc_labeled(0, 1, "task-queue");
        let done = setup.alloc_labeled(0, 1, "task-queue");
        let version = setup.alloc_labeled(0, 1, "task-queue");
        let mut ready = 0u64;
        for (j, &count) in nmod.iter().enumerate() {
            if count == 0 {
                setup.init(items.offset_words(ready), j as u64);
                ready += 1;
            }
        }
        setup.init(qtail, ready);

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let pattern = Arc::clone(&pattern);
                let col_bases = col_bases.clone();
                let col_locks = col_locks.clone();
                let body: ProcBody = Box::new(move |_me, ctx| {
                    let mem = MemCtx::new(ctx);
                    let mut vals = Vec::new();

                    loop {
                        // Pop a runnable column.
                        sync::lock(&mem, qlock);
                        let head = mem.read(qhead);
                        let tail = mem.read(qtail);
                        let job = if head < tail {
                            let j = mem.read(items.offset_words(head));
                            mem.write(qhead, head + 1);
                            Some(j as usize)
                        } else {
                            None
                        };
                        sync::unlock(&mem, qlock);

                        let Some(j) = job else {
                            // Read the version BEFORE the done counter:
                            // the finishing worker bumps `done` first and
                            // `version` second, so observing a stale
                            // `done` here guarantees the final version
                            // bump is still ahead of `v` and the wait
                            // below cannot miss it.
                            let v = mem.read(version);
                            if mem.read(done) == n as u64 {
                                break;
                            }
                            // Idle until something is enqueued or the last
                            // column completes.
                            mem.wait_until(version, Pred::Ge(v + 1));
                            continue;
                        };

                        // cdiv(j): read the column, scale by sqrt(diag),
                        // write it back.
                        let rows = &pattern[j];
                        let col =
                            (0..rows.len() as u64).map(|slot| col_bases[j].offset_words(slot));
                        mem.read_f64_many(col, &mut vals);
                        mem.compute(CYCLES_CDIV * rows.len() as u64);
                        let diag = vals[0].sqrt();
                        vals[0] = diag;
                        for v in &mut vals[1..] {
                            *v /= diag;
                        }
                        for (slot, &v) in vals.iter().enumerate() {
                            mem.write_f64(col_bases[j].offset_words(slot as u64), v);
                        }

                        // Fan-out: cmod(i, j) for every i in j's structure.
                        // rows[idx..] is a sorted subset of column i's
                        // sorted structure, so one forward walk of that
                        // structure finds every target slot.
                        for (idx, &i) in rows.iter().enumerate().skip(1) {
                            let lij = vals[idx];
                            sync::lock(&mem, col_locks[i]);
                            let mut slots = pattern[i].iter().enumerate();
                            for (&r, &lrj) in rows[idx..].iter().zip(&vals[idx..]) {
                                let (slot, _) = slots
                                    .find(|&(_, &row)| row == r)
                                    .unwrap_or_else(|| panic!("row {r} not in column {i}"));
                                let addr = col_bases[i].offset_words(slot as u64);
                                let cur = mem.read_f64(addr);
                                mem.write_f64(addr, cur - lij * lrj);
                            }
                            mem.compute(CYCLES_CMOD * (rows.len() - idx) as u64);
                            sync::unlock(&mem, col_locks[i]);

                            // Column i lost one dependency; enqueue when
                            // it becomes runnable.
                            let old = mem.fetch_add(nmod_base.offset_words(i as u64), u64::MAX);
                            if old == 1 {
                                sync::lock(&mem, qlock);
                                let tail = mem.read(qtail);
                                mem.write(items.offset_words(tail), i as u64);
                                mem.write(qtail, tail + 1);
                                sync::unlock(&mem, qlock);
                                mem.fetch_add(version, 1);
                            }
                        }

                        let finished = mem.fetch_add(done, 1) + 1;
                        if finished == n as u64 {
                            mem.fetch_add(version, 1); // release idlers
                        }
                    }
                });
                body
            })
            .collect();

        let a_v = Arc::clone(&a);
        let pattern_v = Arc::clone(&pattern);
        let col_bases_v = col_bases;
        let verify: crate::Verifier = Box::new(move |store| {
            if store.read_word(done) != n as u64 {
                return Err("not all columns factored".to_string());
            }
            // Read L back and check A = L L^T entry-wise (dense check).
            let mut l = vec![vec![0.0f64; n]; n];
            for j in 0..n {
                for (slot, &row) in pattern_v[j].iter().enumerate() {
                    l[row][j] = store.read_f64(col_bases_v[j].offset_words(slot as u64));
                }
            }
            for i in 0..n {
                for jj in 0..n {
                    let want = a_v.rows[i]
                        .iter()
                        .find(|&&(c, _)| c == jj)
                        .map(|&(_, v)| v)
                        .unwrap_or(0.0);
                    // L is lower-triangular: every product past
                    // min(i, jj) is an exact zero.
                    let got: f64 = (0..=i.min(jj)).map(|k| l[i][k] * l[jj][k]).sum();
                    if !close(got, want, 1e-6) {
                        return Err(format!("(LL^T)[{i}][{jj}] = {got}, want {want}"));
                    }
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

    #[test]
    fn cholesky_verifies_on_every_machine() {
        for kind in [
            MachineKind::Pram,
            MachineKind::Target,
            MachineKind::LogP,
            MachineKind::CLogP,
        ] {
            let topo = Topology::mesh(4);
            let mut setup = SetupCtx::new(4);
            let built = Cholesky::with_params(24, 2).build(&mut setup, 13);
            let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&report.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn cholesky_single_processor() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = Cholesky::with_params(16, 2).build(&mut setup, 4);
        let r = Engine::new(MachineKind::Target, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }

    #[test]
    fn cholesky_schedule_is_dynamic_but_result_is_not() {
        // Different machine models time the queue differently; the factor
        // must verify regardless (and did, above). Here: two *different*
        // machines produce bit-different execution times but both verify.
        let mut times = Vec::new();
        for kind in [MachineKind::Target, MachineKind::CLogP] {
            let topo = Topology::full(4);
            let mut setup = SetupCtx::new(4);
            let built = Cholesky::with_params(24, 2).build(&mut setup, 13);
            let r = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&r.final_store).unwrap();
            times.push(r.exec_time);
        }
        assert_ne!(
            times[0], times[1],
            "models should time the queue differently"
        );
    }
}
