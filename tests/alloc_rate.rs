//! Nothing on the per-event path allocates.
//!
//! A counting global allocator tallies the heap allocations made on the
//! calling thread while one experiment runs. Setup (the application's
//! arrays, the machine's tables) allocates in proportion to the number
//! of structures, not events, so the *marginal* count between a Test-
//! and a Small-size run of the same point is what the simulated events
//! themselves cost. An event queue that drops its buffer when drained,
//! an `Outcome` that collects the invalidated nodes into a `Vec`, or a
//! blocked-processor list or mailbox rebuilt on every wake or delivery
//! each shows up as a fraction of an allocation per extra event; the
//! bound is one per twenty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spasm::apps::{AppId, SizeClass};
use spasm::core::{Experiment, Machine, Net};

/// The system allocator, counting allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread by one run, and its simulated events.
fn allocs_and_events(e: Experiment) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let m = e.run().unwrap_or_else(|err| panic!("{e:?}: {err}"));
    (ALLOCS.with(Cell::get) - before, m.events)
}

#[test]
fn extra_events_cost_no_allocations() {
    for machine in [Machine::Target, Machine::LogP, Machine::CLogP] {
        for app in [AppId::Is, AppId::Cg, AppId::Fft] {
            let at = |size| Experiment {
                app,
                size,
                net: Net::Mesh,
                machine,
                procs: 8,
                seed: 1995,
            };
            let (allocs_test, events_test) = allocs_and_events(at(SizeClass::Test));
            let (allocs_small, events_small) = allocs_and_events(at(SizeClass::Small));
            assert!(
                events_small > events_test,
                "{app} on {machine}: sizes do not differ"
            );
            let (allocs, events) = (
                allocs_small.saturating_sub(allocs_test),
                events_small - events_test,
            );
            assert!(
                allocs <= events / 20,
                "{app} on {machine}/mesh/8: {allocs} more allocations for {events} more \
                 events ({:.3} per event; the bound is 0.05)",
                allocs as f64 / events as f64
            );
        }
    }
}
