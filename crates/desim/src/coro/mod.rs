//! Simulation processes as coroutines of the simulator.
//!
//! The paper's SPASM simulator is *execution-driven*: application code
//! actually executes, and only operations that may touch the network are
//! simulated. We reproduce that structure by running each simulated
//! processor's program as a coroutine that **rendezvouses** with the
//! single-threaded simulator:
//!
//! * exactly one process is running at any instant — the simulator
//!   resumes a process by handing it a response, and gets control back
//!   when that process either issues its next request or finishes;
//! * consequently the interleaving of processes is chosen entirely by the
//!   simulator's event queue, and simulations are fully deterministic;
//! * application code is ordinary blocking Rust: control flow may depend on
//!   values computed from shared data (dynamic task queues, sparse
//!   structures), which is exactly what makes execution-driven simulation
//!   more faithful than trace-driven simulation.
//!
//! # The backend
//!
//! Every simulated memory operation crosses the simulator↔process edge
//! twice, so the cost of one crossing bounds the whole simulator. Each
//! process body runs on its own `mmap`ed stack *on the simulator's own OS
//! thread* (`fiber`); a crossing saves the six callee-saved registers,
//! swaps `rsp` and returns — no futex, no scheduler, no spinning. All of
//! the crate's `unsafe` lives in that one module. It is written for
//! x86-64 Linux, the one supported host; elsewhere the crate stops at a
//! `compile_error!`, and a port is a second `fiber`, not a thread
//! fallback.
//!
//! Neither the pool nor the context is `Send`: a pool is driven from the
//! thread that built it.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("spasm-desim supports x86-64 Linux only: its coroutines switch stacks in x86-64 assembly (coro/fiber.rs)");

#[allow(unsafe_code)]
mod fiber;
pub use fiber::{CoroCtx, CoroPool};

/// Identifier of a simulated processor / simulation process.
pub type ProcId = usize;

/// What a resumed process did with its time slice.
#[derive(Debug)]
pub enum Step<Q> {
    /// The process issued a request and is blocked awaiting the response.
    Request(Q),
    /// The process's body returned normally.
    Done,
    /// The process's body panicked; the payload is the panic message.
    Panicked(String),
}

/// Private unwind token for simulator-initiated shutdown of a process
/// blocked in `call`. Not a real panic: it is raised with
/// `resume_unwind`, so it bypasses the panic hook, and the backend's
/// root wrapper catches it silently.
struct Shutdown;

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The coroutine contract.
#[cfg(test)]
#[allow(clippy::needless_range_loop, clippy::type_complexity)]
mod tests {
    use super::{CoroCtx, CoroPool, ProcId, Step};

    #[test]
    fn single_process_request_response_cycle() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, ctx| {
            let a = ctx.call(10);
            let b = ctx.call(a + 1);
            assert_eq!(b, 22);
        });
        let q = match pool.resume(0, 0) {
            Step::Request(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q, 10);
        let q = match pool.resume(0, 11) {
            Step::Request(q) => q,
            other => panic!("{other:?}"),
        };
        assert_eq!(q, 12);
        assert!(matches!(pool.resume(0, 22), Step::Done));
        assert!(!pool.is_live(0));
    }

    #[test]
    fn many_processes_interleave_deterministically() {
        let n = 8;
        let mut pool: CoroPool<usize, usize> = CoroPool::new(n, |id, ctx| {
            for round in 0..3 {
                let echoed = ctx.call(id * 100 + round);
                assert_eq!(echoed, id * 100 + round);
            }
        });
        assert_eq!(pool.len(), n);
        assert!(!pool.is_empty());
        // Drive round-robin; every request must come from the resumed proc.
        let mut pending: Vec<Option<usize>> = vec![None; n];
        for p in 0..n {
            if let Step::Request(q) = pool.resume(p, 0) {
                pending[p] = Some(q);
            }
        }
        let mut done = 0;
        while done < n {
            done = 0;
            for p in 0..n {
                if let Some(q) = pending[p].take() {
                    match pool.resume(p, q) {
                        Step::Request(q2) => pending[p] = Some(q2),
                        Step::Done => {}
                        Step::Panicked(m) => panic!("{m}"),
                    }
                }
                if !pool.is_live(p) {
                    done += 1;
                }
            }
        }
    }

    #[test]
    fn distinct_bodies_per_process() {
        let bodies: Vec<Box<dyn FnOnce(ProcId, &CoroCtx<u32, u32>)>> = vec![
            Box::new(|_, ctx| {
                ctx.call(1);
            }),
            Box::new(|_, ctx| {
                ctx.call(2);
            }),
        ];
        let mut pool = CoroPool::from_bodies(bodies);
        match pool.resume(0, 0) {
            Step::Request(1) => {}
            other => panic!("{other:?}"),
        }
        match pool.resume(1, 0) {
            Step::Request(2) => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(pool.resume(0, 0), Step::Done));
        assert!(matches!(pool.resume(1, 0), Step::Done));
    }

    #[test]
    fn panicking_body_is_reported_not_propagated() {
        // Process 0 panics at once with a literal, process 1 after a
        // round trip with a formatted message.
        let mut pool: CoroPool<u32, u32> = CoroPool::new(2, |id, ctx| {
            if id == 0 {
                panic!("deliberate test panic");
            }
            let resp = ctx.call(1);
            panic!("deliberate panic after response {resp}");
        });
        match pool.resume(0, 0) {
            Step::Panicked(msg) => assert!(msg.contains("deliberate test panic")),
            other => panic!("{other:?}"),
        }
        assert!(!pool.is_live(0));
        assert!(matches!(pool.resume(1, 0), Step::Request(1)));
        match pool.resume(1, 42) {
            Step::Panicked(msg) => assert!(msg.contains("after response 42")),
            other => panic!("{other:?}"),
        }
        assert!(!pool.is_live(1));
    }

    #[test]
    fn body_returning_without_requests_is_done_immediately() {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(1, |_, _| {});
        assert!(matches!(pool.resume(0, 0), Step::Done));
    }

    #[test]
    fn dropping_pool_with_blocked_processes_does_not_hang() {
        let pool: CoroPool<u32, u32> = CoroPool::new(4, |_, ctx| {
            // Processes immediately block on their first call; the pool is
            // dropped while they are blocked.
            let _ = ctx.call(0);
            unreachable!("never resumed");
        });
        let mut pool = pool;
        // Start them so they are genuinely parked inside `call`.
        for p in 0..4 {
            match pool.resume(p, 0) {
                Step::Request(_) => {}
                other => panic!("{other:?}"),
            }
        }
        drop(pool); // must not deadlock or panic
    }

    #[test]
    fn dropping_the_pool_releases_a_body_in_any_state() {
        use std::sync::Arc;

        let token = Arc::new(());
        let held = Arc::clone(&token);
        let mut pool: CoroPool<u32, u32> = CoroPool::new(3, move |id, ctx| {
            let _on_stack = Arc::clone(&held);
            if id == 1 {
                ctx.call(0);
            }
        });
        // 0 never starts, 1 is suspended in `call`, 2 has finished.
        assert!(matches!(pool.resume(1, 0), Step::Request(0)));
        assert!(matches!(pool.resume(2, 0), Step::Done));
        // Held by: the test, bodies 0 and 1, and 1's stack.
        assert_eq!(Arc::strong_count(&token), 4);
        drop(pool);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn proc_id_visible_to_body() {
        let mut pool: CoroPool<usize, usize> = CoroPool::new(3, |id, ctx| {
            assert_eq!(ctx.id(), id);
            ctx.call(id);
        });
        for p in 0..3 {
            match pool.resume(p, 0) {
                Step::Request(q) => assert_eq!(q, p),
                other => panic!("{other:?}"),
            }
        }
    }
}
