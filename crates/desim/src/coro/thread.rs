//! OS-thread backend: one thread per process, single-slot channels.
//!
//! The only backend on targets without the stack-switching fast path
//! (see the parent module), and the reference the shared test suite also
//! runs on targets that have it. Exactly one process thread is runnable
//! at any instant: the simulator resumes a process by sending it a
//! response, then waits until that process deposits its next envelope.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::{panic_message, ProcId, Shutdown, Step};

// ---------------------------------------------------------------------------
// Single-slot rendezvous channel
// ---------------------------------------------------------------------------
//
// The simulator↔process handoff is the hottest edge in the whole stack:
// every simulated memory operation crosses it twice (request out,
// response in). `std::sync::mpsc` channels park the receiving thread on
// every recv, which costs a futex sleep + wake syscall pair per crossing.
// But a rendezvous has a special shape — exactly one value is ever in
// flight, and the peer is about to produce it — so a single-slot channel
// that briefly spins and yields before parking completes most handoffs
// with no syscall beyond the scheduler's own context switch.
//
// Protocol safety: `waiting` is only set by the receiver while holding
// the lock, and `Condvar::wait` releases that lock atomically, so a
// sender that sees `waiting == true` knows the receiver is (or is about
// to be) parked and a `notify_one` cannot be lost. A sender that sees
// `waiting == false` skips the notify entirely — the receiver is in its
// spin/yield phase and will observe the value on its next lock.

/// Spin-then-yield budget before parking on the condvar. The first few
/// iterations use `spin_loop` (cheap, helps when the peer runs on another
/// core); the rest call `yield_now`, which on a loaded or single-CPU host
/// donates the timeslice straight to the peer thread.
const SPIN_ROUNDS: u32 = 16;
const YIELD_ROUNDS: u32 = 4;

struct Slot<T> {
    value: Option<T>,
    waiting: bool,
    closed: bool,
}

struct Chan<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
    /// Bumped under the lock on every deposit/close. Receivers spin on
    /// this instead of taking the lock each round; a change guarantees
    /// the next locked check finds the value (or the close flag).
    gen: AtomicU32,
}

struct Sender<T>(Arc<Chan<T>>);

struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

// Bound-free Debug (like mpsc's endpoints): the payload is opaque.
impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        slot: Mutex::new(Slot {
            value: None,
            waiting: false,
            closed: false,
        }),
        cv: Condvar::new(),
        gen: AtomicU32::new(0),
    });
    (Sender(Arc::clone(&chan)), Receiver { chan })
}

impl<T> Chan<T> {
    fn close(&self) {
        let mut s = self.slot.lock().expect("rendezvous lock poisoned");
        s.closed = true;
        self.gen.fetch_add(1, Ordering::Release);
        self.cv.notify_all();
    }
}

impl<T> Sender<T> {
    /// Deposits `value` for the receiver. Errors (returning the value)
    /// if the channel is closed. The rendezvous protocol guarantees the
    /// slot is empty: only one value is ever in flight per channel.
    fn send(&self, value: T) -> Result<(), T> {
        let mut s = self.0.slot.lock().expect("rendezvous lock poisoned");
        if s.closed {
            return Err(value);
        }
        assert!(
            s.value.is_none(),
            "rendezvous protocol violation: slot full"
        );
        s.value = Some(value);
        self.0.gen.fetch_add(1, Ordering::Release);
        if s.waiting {
            self.0.cv.notify_one();
        }
        Ok(())
    }

    /// Closes the channel, waking and erroring any parked receiver.
    fn close(&self) {
        self.0.close();
    }
}

impl<T> Clone for Sender<T> {
    // Cloning shares the channel; dropping a clone does NOT close it
    // (the env channel has one sender per process thread).
    fn clone(&self) -> Self {
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Receiver<T> {
    /// One locked inspection of the slot. `Some(result)` if a value or
    /// close was found; `None` (plus the generation observed under the
    /// lock) if the slot is still empty.
    fn try_take(&self) -> Result<Result<T, ()>, u32> {
        let mut s = self.chan.slot.lock().expect("rendezvous lock poisoned");
        if let Some(v) = s.value.take() {
            return Ok(Ok(v));
        }
        if s.closed {
            return Ok(Err(()));
        }
        // `gen` only changes under this lock, so the value read here is
        // exact: any later bump means a deposit or close we have not seen.
        Err(self.chan.gen.load(Ordering::Acquire))
    }

    /// Blocks until a value arrives or the channel closes, parking on the
    /// condvar once the spin/yield budget runs out. Used by process
    /// threads: their next resume may be arbitrarily far in the future
    /// (other processes run first), so they must eventually sleep.
    fn recv(&self) -> Result<T, ()> {
        let gen0 = match self.try_take() {
            Ok(done) => return done,
            Err(g) => g,
        };
        // Fast path: watch the generation hint without touching the lock.
        for round in 0..(SPIN_ROUNDS + YIELD_ROUNDS) {
            if self.chan.gen.load(Ordering::Acquire) != gen0 {
                if let Ok(done) = self.try_take() {
                    return done;
                }
                unreachable!("generation advanced but slot empty and open");
            }
            if round < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Slow path: park until the sender notifies.
        let mut s = self.chan.slot.lock().expect("rendezvous lock poisoned");
        loop {
            if let Some(v) = s.value.take() {
                return Ok(v);
            }
            if s.closed {
                return Err(());
            }
            s.waiting = true;
            s = self.chan.cv.wait(s).expect("rendezvous lock poisoned");
            s.waiting = false;
        }
    }

    /// Like [`Receiver::recv`] but never parks: spins and donates
    /// timeslices until the value arrives. Used by the simulator while
    /// awaiting the envelope from the one process it just resumed — that
    /// process is the only runnable peer and always replies, so parking
    /// would only add a futex sleep/wake pair to every rendezvous.
    fn recv_spin(&self) -> Result<T, ()> {
        let gen0 = match self.try_take() {
            Ok(done) => return done,
            Err(g) => g,
        };
        let mut round = 0u32;
        loop {
            if self.chan.gen.load(Ordering::Acquire) != gen0 {
                if let Ok(done) = self.try_take() {
                    return done;
                }
                unreachable!("generation advanced but slot empty and open");
            }
            if round < SPIN_ROUNDS {
                round += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl<T> Drop for Receiver<T> {
    // A vanished receiver must fail subsequent sends (the simulator
    // treats that as "process thread vanished").
    fn drop(&mut self) {
        self.chan.close();
    }
}

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
            Err(()) => std::panic::resume_unwind(Box::new(Shutdown)),
        }
    }
}

#[derive(Debug)]
struct ProcSlot<Q, R> {
    tx: Sender<R>,
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
        // envelopes land in a slot only the simulator reads.
        let (resp_tx, resp_rx) = channel::<R>();
        let (env_tx, env_rx) = channel::<Envelope<Q>>();
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
            tx: resp_tx,
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
        assert!(slot.tx.send(resp).is_ok(), "process thread vanished");
        // Spins rather than parks: the process is the only runnable peer
        // and is about to deposit its envelope.
        match slot.env.recv_spin() {
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
            Err(()) => panic!("process thread vanished"),
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
        // Unblock any process still parked in `call`: closing the response
        // channel makes its recv fail, which unwinds the body thread.
        for slot in &mut self.slots {
            slot.tx.close();
            if let Some(h) = slot.handle.take() {
                let _ = h.join();
            }
        }
    }
}
