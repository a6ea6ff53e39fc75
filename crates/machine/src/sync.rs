//! Synchronization primitives built from simulated memory operations.
//!
//! Nothing here is magic: locks are test-test-and-set spins, barriers are
//! sense-reversing counters, condition flags are spin-read words. Because
//! they reduce to ordinary reads/writes/atomics, their cost *emerges* from
//! the machine model — the whole point of the paper's locality study. On
//! the target and CLogP machines a spinning processor idles in its cache;
//! on the LogP machine every poll is a network round trip (which is why,
//! per §6.2, "a test-test&set primitive would behave like an ordinary
//! test&set operation in the LogP machine").

use crate::{Addr, MemCtx, Pred, SetupCtx};

/// Acquires the test-test-and-set spin lock at `lock`.
///
/// Spins (in-cache where the machine has caches) until the lock word reads
/// free, then attempts the atomic test-and-set; on failure, resumes
/// spinning.
#[inline]
pub fn lock(mem: &MemCtx<'_>, lock: Addr) {
    loop {
        mem.wait_until(lock, Pred::Eq(0));
        if mem.test_and_set(lock) == 0 {
            return;
        }
    }
}

/// Releases the spin lock at `lock`.
///
/// The releasing store invalidates the spinners' cached copies, waking
/// them to re-read and re-contend.
#[inline]
pub fn unlock(mem: &MemCtx<'_>, lock: Addr) {
    mem.write(lock, 0);
}

/// A centralized sense-reversing barrier.
///
/// Layout: one counter word and one "sense" (generation) word. Each
/// processor keeps its own episode counter (`BarrierHandle`), so the same
/// barrier can be reused any number of times.
///
/// The last arriver resets the counter and publishes the new generation;
/// everyone else spins on the generation word.
#[derive(Debug, Clone, Copy)]
pub struct Barrier {
    count: Addr,
    sense: Addr,
    p: u64,
}

impl Barrier {
    /// Allocates barrier state homed at `home`.
    pub fn alloc(setup: &mut SetupCtx, home: usize, p: usize) -> Self {
        let count = setup.alloc_labeled(home, 1, "barrier");
        let sense = setup.alloc_labeled(home, 1, "barrier");
        Barrier {
            count,
            sense,
            p: p as u64,
        }
    }

    /// Creates the per-processor handle (episode counter).
    pub fn handle(&self) -> BarrierHandle {
        BarrierHandle {
            barrier: *self,
            episode: 0,
        }
    }
}

/// A processor's view of a [`Barrier`].
#[derive(Debug, Clone, Copy)]
pub struct BarrierHandle {
    barrier: Barrier,
    episode: u64,
}

impl BarrierHandle {
    /// Waits until all `p` processors have arrived.
    #[inline]
    pub fn wait(&mut self, mem: &MemCtx<'_>) {
        self.episode += 1;
        let b = self.barrier;
        let arrived = mem.fetch_add(b.count, 1) + 1;
        if arrived == b.p {
            mem.write(b.count, 0);
            mem.write(b.sense, self.episode);
        } else {
            mem.wait_until(b.sense, Pred::Ge(self.episode));
        }
    }
}

/// A one-shot condition flag (the paper's EP "condition variable").
///
/// Waiters spin on the flag word; the signaller writes a nonzero
/// generation. On cached machines only the first and last spin accesses
/// touch the network.
#[derive(Debug, Clone, Copy)]
pub struct CondFlag {
    flag: Addr,
}

impl CondFlag {
    /// Allocates the flag homed at `home`.
    pub fn alloc(setup: &mut SetupCtx, home: usize) -> Self {
        CondFlag {
            flag: setup.alloc_labeled(home, 1, "condflag"),
        }
    }

    /// Signals waiters by publishing `value` (must be nonzero).
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero (would not release waiters).
    #[inline]
    pub fn signal(&self, mem: &MemCtx<'_>, value: u64) {
        assert!(value != 0, "signal value must be nonzero");
        mem.write(self.flag, value);
    }

    /// Spins until the flag is signalled; returns the signalled value.
    #[inline]
    pub fn wait(&self, mem: &MemCtx<'_>) -> u64 {
        mem.wait_until(self.flag, Pred::Ne(0))
    }
}

#[cfg(test)]
mod tests {
    //! Engine-level tests of the primitives live in `tests/engine.rs`;
    //! these cover pure layout logic.
    use super::*;

    #[test]
    fn barrier_allocates_two_words() {
        let mut setup = SetupCtx::new(2);
        let b = Barrier::alloc(&mut setup, 1, 2);
        assert_ne!(b.count, b.sense);
        let h = b.handle();
        assert_eq!(h.episode, 0);
    }

    #[test]
    fn cond_flag_allocates() {
        let mut setup = SetupCtx::new(1);
        let a = CondFlag::alloc(&mut setup, 0);
        let b = CondFlag::alloc(&mut setup, 0);
        assert_ne!(a.flag, b.flag);
    }
}
