//! OS-thread backend: one thread per process, handing off over
//! `std::sync::mpsc` channels.
//!
//! The only backend on targets without the stack-switching fast path
//! (see the parent module), and the reference the shared test suite also
//! runs on targets that have it. Exactly one process thread is runnable
//! at any instant: the simulator resumes a process by sending it a
//! response, then waits until that process sends its next envelope.
//! Every wait parks on the channel, so a crossing costs a futex handoff
//! on top of the scheduler's context switch — the price of a fallback
//! no workload is tuned for.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

use super::{panic_message, ProcId, Shutdown, Step};

enum Envelope<Q> {
    Request(ProcId, Q),
    Done(ProcId),
    Panicked(ProcId, String),
}

/// The process-side handle used to issue simulation requests.
///
/// Passed to each process body; [`CoroCtx::call`] blocks the process (in
/// real time) until the simulator responds (in simulated time).
#[derive(Debug)]
pub struct CoroCtx<Q, R> {
    me: ProcId,
    tx: Sender<Envelope<Q>>,
    rx: Receiver<R>,
    /// Not `Send`, like the stack-switching backend's context.
    _not_send: PhantomData<*mut ()>,
}

impl<Q, R> CoroCtx<Q, R> {
    /// This process's id.
    pub fn id(&self) -> ProcId {
        self.me
    }

    /// Issues `req` to the simulator and blocks until the response arrives.
    ///
    /// # Panics
    ///
    /// Unwinds (terminating the process body) if the simulator has shut
    /// down. [`CoroPool`]'s drop handler triggers exactly this to unwind
    /// any still-blocked process threads; the unwind uses
    /// [`std::panic::resume_unwind`] with a private `Shutdown` token, so
    /// it never reaches the global panic hook (no spurious backtraces) and
    /// is caught silently by the pool's thread wrapper.
    pub fn call(&self, req: Q) -> R {
        if self.tx.send(Envelope::Request(self.me, req)).is_err() {
            std::panic::resume_unwind(Box::new(Shutdown));
        }
        match self.rx.recv() {
            Ok(resp) => resp,
            Err(_) => std::panic::resume_unwind(Box::new(Shutdown)),
        }
    }
}

#[derive(Debug)]
struct ProcSlot<Q, R> {
    /// The response channel; `None` once [`CoroPool`]'s drop closed it.
    tx: Option<Sender<R>>,
    /// This process's envelope channel; only the simulator reads it.
    env: Receiver<Envelope<Q>>,
    handle: Option<JoinHandle<()>>,
    live: bool,
}

/// A pool of simulation processes in rendezvous with the simulator.
///
/// Type parameters: `Q` is the request type processes send to the
/// simulator; `R` is the response type the simulator sends back.
///
/// # Protocol
///
/// Each process starts parked. The simulator calls [`CoroPool::resume`] with
/// a response value; the process runs until it issues its next request via
/// [`CoroCtx::call`] (returned as [`Step::Request`]), returns
/// ([`Step::Done`]) or panics ([`Step::Panicked`]). The very first `resume`
/// of a process delivers its "start" response.
///
/// # Example
///
/// ```
/// use spasm_desim::{CoroPool, Step};
///
/// // Processes that ask the simulator to double numbers.
/// let mut pool: CoroPool<u64, u64> = CoroPool::new(2, |id, ctx| {
///     let doubled = ctx.call(id as u64 + 1);
///     assert_eq!(doubled, (id as u64 + 1) * 2);
/// });
/// for p in 0..2 {
///     // First resume: the "start" value is ignored by `call`-side code.
///     let req = match pool.resume(p, 0) {
///         Step::Request(q) => q,
///         other => panic!("expected request, got {other:?}"),
///     };
///     assert!(matches!(pool.resume(p, req * 2), Step::Done));
/// }
/// ```
#[derive(Debug)]
pub struct CoroPool<Q, R> {
    slots: Vec<ProcSlot<Q, R>>,
    /// Not `Send` on either backend: the stack-switching one must never
    /// resume a suspended stack on a different OS thread, and the API is
    /// the same everywhere.
    _not_send: PhantomData<*mut ()>,
}

impl<Q, R> CoroPool<Q, R>
where
    Q: Send + 'static,
    R: Send + 'static,
{
    /// Spawns `n` process threads, each running `body(proc_id, ctx)`.
    ///
    /// Processes are parked until their first [`CoroPool::resume`].
    pub fn new<F>(n: usize, body: F) -> Self
    where
        F: Fn(ProcId, &CoroCtx<Q, R>) + Send + Sync + Clone + 'static,
    {
        Self::from_bodies((0..n).map(|_| body.clone()).collect::<Vec<_>>())
    }

    /// Spawns one process per element of `bodies`.
    ///
    /// Unlike [`CoroPool::new`], each process can have a distinct body
    /// (closure), which is how per-processor application kernels are built.
    pub fn from_bodies<F>(bodies: Vec<F>) -> Self
    where
        F: FnOnce(ProcId, &CoroCtx<Q, R>) + Send + 'static,
    {
        let slots = bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| Self::spawn_proc(id, body))
            .collect();
        CoroPool {
            slots,
            _not_send: PhantomData,
        }
    }

    /// Spawns one process thread with fresh rendezvous channels.
    fn spawn_proc<F>(id: ProcId, body: F) -> ProcSlot<Q, R>
    where
        F: FnOnce(ProcId, &CoroCtx<Q, R>) + Send + 'static,
    {
        // Rendezvous channels: the process blocks until resumed, and its
        // envelopes land in a queue only the simulator reads.
        let (resp_tx, resp_rx) = mpsc::channel::<R>();
        let (env_tx, env_rx) = mpsc::channel::<Envelope<Q>>();
        let handle = std::thread::Builder::new()
            .name(format!("sim-proc-{id}"))
            .spawn(move || {
                // Park until the simulator's first resume.
                let Ok(_start) = resp_rx.recv() else {
                    return; // simulator dropped before starting us
                };
                let ctx = CoroCtx {
                    me: id,
                    tx: env_tx.clone(),
                    rx: resp_rx,
                    _not_send: PhantomData,
                };
                let result = catch_unwind(AssertUnwindSafe(|| body(id, &ctx)));
                // If the simulator is gone these sends fail; that is the
                // normal shutdown path and the error is ignored.
                let _ = match result {
                    Ok(()) => env_tx.send(Envelope::Done(id)),
                    Err(payload) => {
                        // Teardown-induced unwinds (simulator dropped
                        // the response channel mid-call) are normal
                        // shutdown, not application panics.
                        if payload.is::<Shutdown>() {
                            return;
                        }
                        let msg = panic_message(payload.as_ref());
                        env_tx.send(Envelope::Panicked(id, msg))
                    }
                };
            })
            .expect("spawn simulation process thread");
        ProcSlot {
            tx: Some(resp_tx),
            env: env_rx,
            handle: Some(handle),
            live: true,
        }
    }

    /// Number of processes in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the pool has no processes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resumes process `proc` with response `resp` and waits for its next
    /// action.
    ///
    /// # Panics
    ///
    /// Panics if `proc` already finished (resuming a dead process is a
    /// simulator logic error) or if the process thread vanished without
    /// reporting (should be impossible).
    pub fn resume(&mut self, proc: ProcId, resp: R) -> Step<Q> {
        let slot = &mut self.slots[proc];
        assert!(slot.live, "resumed process {proc} after it finished");
        let tx = slot.tx.as_ref().expect("the pool is not being dropped");
        assert!(tx.send(resp).is_ok(), "process thread vanished");
        match slot.env.recv() {
            Ok(Envelope::Request(p, q)) => {
                debug_assert_eq!(p, proc, "request from unexpected process");
                Step::Request(q)
            }
            Ok(Envelope::Done(p)) => {
                debug_assert_eq!(p, proc);
                self.retire(proc);
                Step::Done
            }
            Ok(Envelope::Panicked(p, msg)) => {
                debug_assert_eq!(p, proc);
                self.retire(proc);
                Step::Panicked(msg)
            }
            Err(_) => panic!("process thread vanished"),
        }
    }

    fn retire(&mut self, proc: ProcId) {
        let slot = &mut self.slots[proc];
        slot.live = false;
        if let Some(h) = slot.handle.take() {
            let _ = h.join();
        }
    }

    /// Returns `true` if `proc` has not yet finished.
    pub fn is_live(&self, proc: ProcId) -> bool {
        self.slots[proc].live
    }
}

impl<Q, R> Drop for CoroPool<Q, R> {
    fn drop(&mut self) {
        // Unblock any process still parked in `call`: dropping the response
        // sender closes the channel, so its recv fails, which unwinds the
        // body thread.
        for slot in &mut self.slots {
            slot.tx = None;
            if let Some(h) = slot.handle.take() {
                let _ = h.join();
            }
        }
    }
}
