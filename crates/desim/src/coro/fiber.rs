//! Stack-switching backend: processes as stackful coroutines on the
//! simulator's own OS thread (x86-64 Linux).
//!
//! This is the only module in the workspace that contains `unsafe`. It
//! holds three things and nothing else may touch them:
//!
//! * **the switch** — `spasm_desim_fiber_switch` pushes the six System V
//!   callee-saved registers (`rbp`, `rbx`, `r12`–`r15`), stores `rsp`
//!   through its first argument, loads `rsp` from its second, pops the
//!   six registers and returns. Everything else is caller-saved and the
//!   compiler already treats it as clobbered by the call. MXCSR and the
//!   x87 control word are *not* saved: both sides of a switch are the same
//!   OS thread and no process body changes the rounding mode;
//! * **the stack** — [`STACK_BYTES`] (std's default thread stack size, so
//!   every body that fits a thread fits a coroutine) above one `PROT_NONE`
//!   guard page, mapped `MAP_NORESERVE`. The first resume takes one from
//!   the thread's spare list, or maps one if the list is empty; when the
//!   body finishes or its pool is dropped the stack goes back on the list,
//!   guard page and all, up to [`MAX_SPARE_STACKS`], and is unmapped past
//!   that or once the thread's TLS is gone. Untouched pages cost no
//!   memory; an overflow faults on the guard page and kills the program
//!   with SIGSEGV instead of corrupting a neighbour;
//! * **the shared cell** — one heap cell per process through which the two
//!   sides pass the response, the next envelope, the shutdown flag and
//!   each other's saved stack pointer.
//!
//! # Invariants
//!
//! 1. *One thread.* Pool, coroutine and context are `!Send`/`!Sync`, so a
//!    suspended stack is only ever resumed by the OS thread that started
//!    it (thread-local addresses cached in its frames stay valid).
//! 2. *One side runs at a time.* A coroutine executes only inside
//!    [`Coroutine::switch_in`], i.e. while its owner is blocked in
//!    `resume` or a drop; the owner executes only while the coroutine is
//!    suspended in [`CoroCtx::call`], has finished, or has not started.
//!    The shared cell is therefore never accessed concurrently, and it is
//!    built from `Cell`s so that neither side ever holds a `&mut` into it
//!    across a switch.
//! 3. *The cell outlives the stack.* The cell is freed only by
//!    `Coroutine::drop`, after the coroutine has finished (or was never
//!    started); every pointer to it on the coroutine's stack is dead by
//!    then.
//! 4. *Unwinding never crosses a switch.* The body runs inside
//!    `catch_unwind` in the coroutine's root frame: an application panic
//!    becomes `Step::Panicked`, and the pool's drop is a `Shutdown` unwind
//!    raised by `call` on the coroutine's own stack and caught by that same
//!    root frame. The boot trampoline marks `rip` undefined in its CFI, so
//!    unwinders and backtraces stop there.
//! 5. *A finished stack is never re-entered.* The root frame's last act
//!    is a switch to the owner, who releases the stack (to the spare list,
//!    or unmapped) before doing anything else with the coroutine. A spare
//!    stack runs again only from the boot frame `prepare` writes afresh
//!    for its next body, never from a frame its last body left.

use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};

use super::{panic_message, ProcId, Shutdown, Step};

// ---------------------------------------------------------------------------
// The switch and the boot trampoline
// ---------------------------------------------------------------------------

std::arch::global_asm!(
    ".pushsection .text.spasm_desim_fiber,\"ax\",@progbits",
    // fn(save: *mut *mut u8 [rdi], to: *mut u8 [rsi])
    ".p2align 4",
    ".hidden spasm_desim_fiber_switch",
    ".globl spasm_desim_fiber_switch",
    ".type spasm_desim_fiber_switch,@function",
    "spasm_desim_fiber_switch:",
    "    push rbp",
    "    push rbx",
    "    push r12",
    "    push r13",
    "    push r14",
    "    push r15",
    "    mov [rdi], rsp",
    "    mov rsp, rsi",
    "    pop r15",
    "    pop r14",
    "    pop r13",
    "    pop r12",
    "    pop rbx",
    "    pop rbp",
    "    ret",
    ".size spasm_desim_fiber_switch, . - spasm_desim_fiber_switch",
    // First `ret` target of a fresh stack (see `Stack::prepare`): the
    // root function is in r13 and its argument in r12. The root never
    // returns; `.cfi_undefined rip` ends every stack walk here.
    ".p2align 4",
    ".hidden spasm_desim_fiber_boot",
    ".globl spasm_desim_fiber_boot",
    ".type spasm_desim_fiber_boot,@function",
    "spasm_desim_fiber_boot:",
    "    .cfi_startproc",
    "    .cfi_undefined rip",
    "    mov rdi, r12",
    "    call r13",
    "    ud2",
    "    .cfi_endproc",
    ".size spasm_desim_fiber_boot, . - spasm_desim_fiber_boot",
    ".popsection",
);

extern "C" {
    /// Saves the caller's callee-saved registers and stack pointer
    /// (through `save`) and continues on the stack whose saved stack
    /// pointer is `to`. Returns when something switches back to `*save`.
    ///
    /// # Safety
    ///
    /// `to` must be a stack pointer stored by an earlier call of this
    /// function (or built by `Stack::prepare`) on a stack that is still
    /// mapped, suspended, and was started by the current OS thread;
    /// `save` must be valid for a write.
    fn spasm_desim_fiber_switch(save: *mut *mut u8, to: *mut u8);

    /// Never called from Rust; only its address is taken.
    fn spasm_desim_fiber_boot();
}

// ---------------------------------------------------------------------------
// The stack
// ---------------------------------------------------------------------------

// std already links libc; these are its x86-64 Linux prototypes and
// constants.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}
const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

/// Usable stack per process: std's default thread stack size.
const STACK_BYTES: usize = 2 << 20;
/// One x86-64 page below the stack, never accessible.
const GUARD_BYTES: usize = 4096;
const MAPPING_BYTES: usize = GUARD_BYTES + STACK_BYTES;
/// Finished stacks a thread keeps mapped for its next pools: one per
/// processor of the largest machine (`spasm_topology::MAX_NODES`).
const MAX_SPARE_STACKS: usize = 64;

thread_local! {
    /// This thread's finished stacks, guard pages intact. Memory, not
    /// state: a body starts on a spare stack from a frame `prepare` wrote
    /// for it and reads nothing its predecessor left.
    static SPARE_STACKS: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// An owned stack mapping: guard page at `base`, stack above it.
struct Stack {
    base: NonNull<c_void>,
}

impl Stack {
    /// One of this thread's spare stacks, else a fresh mapping.
    fn take() -> Stack {
        SPARE_STACKS
            .try_with(|spare| spare.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(Stack::map)
    }

    /// Puts a stack no coroutine is suspended on (invariant 5) on this
    /// thread's spare list. A full list, or a thread whose TLS is gone,
    /// drops it instead, which unmaps it.
    fn release(self) {
        let _ = SPARE_STACKS.try_with(move |spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < MAX_SPARE_STACKS {
                spare.push(self);
            }
        });
    }

    fn map() -> Stack {
        #[cfg(test)]
        tests::MAPPED.with(|n| n.set(n.get() + 1));
        // SAFETY: a fresh anonymous private mapping at an address the
        // kernel chooses aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                MAPPING_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "cannot map a coroutine stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack {
            base: NonNull::new(base).expect("mmap returned null without a hint"),
        };
        // SAFETY: the first page of the mapping created above, which
        // nothing uses yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "cannot protect a coroutine guard page: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// Writes the frame the switch pops on its first entry into this
    /// stack and returns the stack pointer to switch to: the six
    /// callee-saved registers (`r12` = `arg`, `r13` = `root`, the rest
    /// zero so frame-pointer walks stop) below the boot trampoline's
    /// address as the return target. After that `ret`, `rsp` is the
    /// 16-byte-aligned top of the mapping, as the ABI requires at a call.
    fn prepare(&self, root: usize, arg: usize) -> *mut u8 {
        let boot = spasm_desim_fiber_boot as *const () as usize;
        // Ascending addresses, i.e. pop order: r15 r14 r13 r12 rbx rbp ret.
        let frame: [usize; 7] = [0, 0, root, arg, 0, 0, boot];
        // SAFETY: the top `size_of(frame)` bytes of the mapping are
        // writable stack (STACK_BYTES is far larger), word-aligned (the
        // top is page-aligned), and not in use: no coroutine runs on this
        // stack until the returned pointer is switched to.
        unsafe {
            let top = self.base.as_ptr().cast::<u8>().add(MAPPING_BYTES);
            let sp = top.cast::<usize>().sub(frame.len());
            ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
            sp.cast::<u8>()
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `map` created; a `Stack` is dropped
        // only when no coroutine is suspended on it (invariant 5).
        // A failure would leak address space, nothing more, so the result
        // is ignored (drops must not panic).
        unsafe { munmap(self.base.as_ptr(), MAPPING_BYTES) };
    }
}

// ---------------------------------------------------------------------------
// The shared cell and the coroutine
// ---------------------------------------------------------------------------

type Body<Q, R> = Box<dyn FnOnce(ProcId, &CoroCtx<Q, R>)>;

/// What the owner and the coroutine pass each other (invariant 2).
struct Shared<Q, R> {
    id: ProcId,
    /// The process body until the first resume takes it.
    body: Cell<Option<Body<Q, R>>>,
    /// Owner → coroutine: the response `call` returns.
    resp: Cell<Option<R>>,
    /// Coroutine → owner: what the time slice ended with. `None` after a
    /// switch back means the body unwound with `Shutdown`.
    step: Cell<Option<Step<Q>>>,
    /// Owner → coroutine: unwind instead of returning from `call`.
    shutdown: Cell<bool>,
    /// The owner's stack pointer while the coroutine runs.
    owner_sp: Cell<*mut u8>,
    /// The coroutine's stack pointer while it is suspended.
    coro_sp: Cell<*mut u8>,
}

/// One process: its shared cell, plus its stack once started.
struct Coroutine<Q, R> {
    /// From `Box::into_raw`; freed in `drop` (invariant 3). A raw pointer
    /// rather than the `Box` so that moving the `Coroutine` asserts no
    /// uniqueness over a cell the suspended stack also points into.
    shared: NonNull<Shared<Q, R>>,
    /// `Some` iff the coroutine is suspended inside `call`.
    stack: Option<Stack>,
}

impl<Q, R> Coroutine<Q, R> {
    fn new(id: ProcId, body: Body<Q, R>) -> Self {
        let shared = Box::new(Shared {
            id,
            body: Cell::new(Some(body)),
            resp: Cell::new(None),
            step: Cell::new(None),
            shutdown: Cell::new(false),
            owner_sp: Cell::new(ptr::null_mut()),
            coro_sp: Cell::new(ptr::null_mut()),
        });
        Coroutine {
            shared: NonNull::from(Box::leak(shared)),
            stack: None,
        }
    }

    #[inline]
    fn shared(&self) -> &Shared<Q, R> {
        // SAFETY: allocated in `new`, freed only in `drop` (invariant 3);
        // only shared references to it are ever formed (invariant 2).
        unsafe { self.shared.as_ref() }
    }

    /// Runs the process until it next suspends in `call` (`Request`) or
    /// finishes. The first resume takes a stack and starts the body;
    /// its "start" response is discarded, as the API documents.
    #[inline]
    fn resume(&mut self, resp: R) -> Step<Q> {
        if self.stack.is_none() {
            let stack = Stack::take();
            let root = root::<Q, R> as extern "C" fn(*const Shared<Q, R>) -> !;
            let sp = stack.prepare(root as usize, self.shared.as_ptr() as usize);
            self.shared().coro_sp.set(sp);
            self.stack = Some(stack);
            drop(resp);
        } else {
            self.shared().resp.set(Some(resp));
        }
        self.switch_in()
            .expect("a process unwound with Shutdown outside its pool's drop")
    }

    /// Switches to the coroutine and returns what it hands back; releases
    /// the stack if that was its last switch out.
    #[inline]
    fn switch_in(&mut self) -> Option<Step<Q>> {
        let shared = self.shared();
        // SAFETY: `coro_sp` was stored by `prepare` or by the coroutine's
        // last switch out of `call`; its stack is `self.stack`, still
        // mapped and suspended; `Coroutine` is `!Send`, so this is the
        // thread that started it (invariant 1).
        unsafe { spasm_desim_fiber_switch(shared.owner_sp.as_ptr(), shared.coro_sp.get()) };
        let step = shared.step.take();
        if !matches!(step, Some(Step::Request(_))) {
            // The root frame made its final switch (invariant 5).
            if let Some(stack) = self.stack.take() {
                stack.release();
            }
        }
        step
    }
}

impl<Q, R> Drop for Coroutine<Q, R> {
    fn drop(&mut self) {
        if self.stack.is_some() {
            // Suspended inside `call`: have it unwind its own stack so
            // the body's locals are dropped. `call` refuses to suspend
            // again once the flag is set, so this one switch finishes it.
            self.shared().shutdown.set(true);
            self.switch_in();
        }
        // SAFETY: the pointer came from `Box::leak` in `new`; the
        // coroutine has finished or never started, so no frame holds a
        // pointer to the cell any more (invariant 3).
        drop(unsafe { Box::from_raw(self.shared.as_ptr()) });
    }
}

/// The coroutine's root frame, entered once from the boot trampoline.
/// `extern "C"` also makes an unwind out of it abort rather than run off
/// the top of the stack.
extern "C" fn root<Q, R>(shared: *const Shared<Q, R>) -> ! {
    // SAFETY: the owner passed its cell pointer through `prepare`, and
    // keeps the cell alive until this coroutine has finished
    // (invariant 3).
    let shared = unsafe { &*shared };
    // Everything with a destructor lives inside `run`, so nothing is
    // left on this stack when the owner releases it.
    run(shared);
    // SAFETY: `owner_sp` was stored by the `switch_in` that is running
    // this coroutine, on a stack that is blocked in that call.
    unsafe { spasm_desim_fiber_switch(shared.coro_sp.as_ptr(), shared.owner_sp.get()) };
    // Invariant 5: nobody switches to a finished coroutine.
    std::process::abort()
}

fn run<Q, R>(shared: &Shared<Q, R>) {
    let body = shared.body.take().expect("a coroutine starts once");
    let ctx = CoroCtx {
        me: shared.id,
        shared: NonNull::from(shared),
    };
    let step = match catch_unwind(AssertUnwindSafe(|| body(shared.id, &ctx))) {
        Ok(()) => Some(Step::Done),
        // The pool's drop, not an application panic: nothing to report.
        Err(payload) if payload.is::<Shutdown>() => None,
        Err(payload) => Some(Step::Panicked(panic_message(payload.as_ref()))),
    };
    shared.step.set(step);
}

/// The process-side handle used to issue simulation requests.
///
/// Passed to each process body; [`CoroCtx::call`] suspends the process
/// until the simulator responds (in simulated time).
pub struct CoroCtx<Q, R> {
    me: ProcId,
    /// The cell of the coroutine this context was created on. `NonNull`
    /// also makes the context `!Send` and `!Sync`, and the body only ever
    /// sees it behind a reference it cannot keep, so `call` always runs
    /// on that coroutine's own stack.
    shared: NonNull<Shared<Q, R>>,
}

impl<Q, R> fmt::Debug for CoroCtx<Q, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoroCtx")
            .field("me", &self.me)
            .finish_non_exhaustive()
    }
}

impl<Q, R> CoroCtx<Q, R> {
    /// This process's id.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.me
    }

    /// Issues `req` to the simulator and suspends until the response
    /// arrives.
    ///
    /// # Panics
    ///
    /// Unwinds (terminating the process body) if the simulator is
    /// shutting this process down: the pool's drop resumes a suspended
    /// process exactly so that it unwinds and drops its locals. The
    /// unwind uses [`std::panic::resume_unwind`] with a private
    /// `Shutdown` token, so it never reaches the global panic hook (no
    /// spurious backtraces) and is caught silently by the coroutine's
    /// root frame.
    #[inline]
    pub fn call(&self, req: Q) -> R {
        // SAFETY: a context exists only in the root frame of a running
        // coroutine, whose owner keeps the cell alive (invariant 3).
        let shared = unsafe { self.shared.as_ref() };
        // Set only by the owner's drop; seen here before suspending if
        // the body swallowed the first `Shutdown` unwind and called again.
        if shared.shutdown.get() {
            resume_unwind(Box::new(Shutdown));
        }
        shared.step.set(Some(Step::Request(req)));
        // SAFETY: this runs on the coroutine's stack (see the field's
        // doc), inside the owner's `switch_in`, which stored `owner_sp`
        // and is blocked on its own stack until this switch.
        unsafe { spasm_desim_fiber_switch(shared.coro_sp.as_ptr(), shared.owner_sp.get()) };
        if shared.shutdown.get() {
            resume_unwind(Box::new(Shutdown));
        }
        shared
            .resp
            .take()
            .expect("a suspended process is resumed with a response")
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

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
///
/// A pool is driven from the thread that built it; it is not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<spasm_desim::CoroPool<u64, u64>>();
/// ```
pub struct CoroPool<Q, R> {
    /// `None` once the body has finished.
    slots: Vec<Option<Coroutine<Q, R>>>,
}

impl<Q, R> fmt::Debug for CoroPool<Q, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CoroPool")
            .field("procs", &self.slots.len())
            .finish_non_exhaustive()
    }
}

impl<Q: 'static, R: 'static> CoroPool<Q, R> {
    /// Creates `n` processes, each running `body(proc_id, ctx)`.
    ///
    /// Processes are parked until their first [`CoroPool::resume`].
    pub fn new<F>(n: usize, body: F) -> Self
    where
        F: Fn(ProcId, &CoroCtx<Q, R>) + Clone + 'static,
    {
        Self::from_bodies((0..n).map(|_| body.clone()).collect::<Vec<_>>())
    }

    /// Creates one process per element of `bodies`.
    ///
    /// Unlike [`CoroPool::new`], each process can have a distinct body
    /// (closure), which is how per-processor application kernels are built.
    pub fn from_bodies<F>(bodies: Vec<F>) -> Self
    where
        F: FnOnce(ProcId, &CoroCtx<Q, R>) + 'static,
    {
        let slots = bodies
            .into_iter()
            .enumerate()
            .map(|(id, body)| Some(Coroutine::new(id, Box::new(body))))
            .collect();
        CoroPool { slots }
    }

    /// Number of processes in the pool.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the pool has no processes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resumes process `proc` with response `resp` and returns its next
    /// action.
    ///
    /// # Panics
    ///
    /// Panics if `proc` already finished (resuming a dead process is a
    /// simulator logic error).
    #[inline]
    pub fn resume(&mut self, proc: ProcId, resp: R) -> Step<Q> {
        let slot = &mut self.slots[proc];
        let Some(coro) = slot else {
            panic!("resumed process {proc} after it finished");
        };
        let step = coro.resume(resp);
        if !matches!(step, Step::Request(_)) {
            *slot = None;
        }
        step
    }

    /// Returns `true` if `proc` has not yet finished.
    pub fn is_live(&self, proc: ProcId) -> bool {
        self.slots[proc].is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    thread_local! {
        /// Stacks `Stack::map` made on this thread. Each test runs on its
        /// own thread, so a concurrent test cannot move another's count.
        pub(super) static MAPPED: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs one pool of `n` processes to its drop: process 0 finishes,
    /// the others are dropped suspended in `call`.
    fn finish_one_pool(n: usize) {
        let mut pool: CoroPool<u32, u32> = CoroPool::new(n, |_, ctx| {
            ctx.call(0);
        });
        for p in 0..n {
            assert!(matches!(pool.resume(p, 0), Step::Request(0)));
        }
        assert!(matches!(pool.resume(0, 0), Step::Done));
    }

    #[test]
    fn a_second_pool_of_the_same_size_maps_no_stack() {
        finish_one_pool(8);
        let mapped = MAPPED.with(Cell::get);
        finish_one_pool(8);
        assert_eq!(MAPPED.with(Cell::get), mapped);
    }

    #[test]
    fn the_spare_list_keeps_at_most_its_cap() {
        finish_one_pool(MAX_SPARE_STACKS + 8);
        let spare = SPARE_STACKS.with(|s| s.borrow().len());
        assert_eq!(spare, MAX_SPARE_STACKS);
        // Past the cap a pool maps only what the list cannot give.
        let mapped = MAPPED.with(Cell::get);
        finish_one_pool(MAX_SPARE_STACKS + 8);
        assert_eq!(MAPPED.with(Cell::get), mapped + 8);
    }

    /// Recurses until `want` bytes of stack lie between `top` and the
    /// current frame, then returns how many were actually used.
    #[inline(never)]
    fn dive(top: usize, want: usize) -> usize {
        let pad = [0u8; 1024];
        let here = black_box(&pad).as_ptr() as usize;
        if top - here >= want {
            return top - here;
        }
        // Not a tail call: `pad` is still live after it.
        let used = dive(top, want);
        black_box(&pad);
        used
    }

    #[test]
    fn a_body_may_use_a_megabyte_of_stack() {
        let mut pool: CoroPool<usize, usize> = CoroPool::new(1, |_, ctx| {
            let top = 0u8;
            let used = dive(black_box(&top) as *const u8 as usize, 1 << 20);
            ctx.call(used);
        });
        match pool.resume(0, 0) {
            Step::Request(used) => assert!(used >= 1 << 20, "only {used} bytes deep"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(pool.resume(0, 0), Step::Done));
    }

    /// The child half of `runaway_recursion_dies_by_signal`: overflows a
    /// coroutine stack on purpose and takes the test process with it. The
    /// stack it overflows is a reused one, so the guard page must survive
    /// a round on the spare list.
    #[test]
    #[ignore = "crashes by design; run by runaway_recursion_dies_by_signal"]
    fn runaway_recursion_child() {
        finish_one_pool(1);
        let mapped = MAPPED.with(Cell::get);
        let mut pool: CoroPool<usize, usize> = CoroPool::new(1, move |_, ctx| {
            // A panic here reports as a clean exit, failing the parent.
            assert_eq!(MAPPED.with(Cell::get), mapped, "not a reused stack");
            let top = 0u8;
            ctx.call(dive(black_box(&top) as *const u8 as usize, usize::MAX));
        });
        pool.resume(0, 0);
    }

    #[test]
    fn runaway_recursion_dies_by_signal() {
        use std::os::unix::process::ExitStatusExt;
        let child = concat!(module_path!(), "::runaway_recursion_child");
        let child = child.split_once("::").expect("crate::path").1;
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args(["--exact", child, "--ignored", "--test-threads=1"])
            .output()
            .expect("re-exec the test binary");
        assert!(
            out.status.signal().is_some(),
            "an overflowing body must hit the guard page and die by signal, got {:?}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout)
        );
    }

    /// Counts its drops, so a test can see that a body's locals were
    /// released.
    struct Guard(Arc<AtomicUsize>);

    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_pool_dropped_while_its_host_unwinds_does_not_abort() {
        let drops = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&drops);
        let result = catch_unwind(move || {
            let mut pool: CoroPool<u32, u32> = CoroPool::new(4, move |_, ctx| {
                let _guard = Guard(Arc::clone(&seen));
                ctx.call(0);
            });
            for p in 0..4 {
                assert!(matches!(pool.resume(p, 0), Step::Request(0)));
            }
            panic!("host panic with four suspended processes");
        });
        assert!(result.is_err());
        // Each suspended body was unwound on its own stack mid-panic.
        assert_eq!(drops.load(Ordering::SeqCst), 4);
    }

    fn vm_size_bytes() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmSize:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .expect("VmSize line");
        kb.trim().parse::<usize>().expect("VmSize value") * 1024
    }

    #[test]
    fn started_and_dropped_pools_leave_no_stack_mappings() {
        const POOLS: usize = 10_000;
        let before = vm_size_bytes();
        for _ in 0..POOLS {
            let mut pool: CoroPool<u32, u32> = CoroPool::new(4, |_, ctx| {
                ctx.call(0);
            });
            // Both ends: finished, dropped suspended (x3).
            for p in 0..4 {
                assert!(matches!(pool.resume(p, 0), Step::Request(0)));
            }
            assert!(matches!(pool.resume(0, 0), Step::Done));
        }
        let grown = vm_size_bytes().saturating_sub(before);
        // Leaking every stack would be 80 GiB (and would exhaust the
        // kernel's mapping count long before). The slack absorbs what
        // concurrently running tests map: thread stacks, malloc arenas.
        let leak = POOLS * 4 * STACK_BYTES;
        assert!(
            grown < leak / 10,
            "address space grew by {grown} bytes over {POOLS} pools"
        );
    }
}
