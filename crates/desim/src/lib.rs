//! # spasm-desim — deterministic discrete-event simulation kernel
//!
//! This crate provides the simulation substrate used by the `spasm-rs`
//! reproduction of *"Abstracting Network Characteristics and Locality
//! Properties of Parallel Systems"* (HPCA-1, 1995). The paper's SPASM
//! simulator was built on CSIM, a process-oriented sequential simulation
//! package; this crate plays the same role:
//!
//! * [`SimTime`] — simulated time in nanoseconds, with saturating arithmetic;
//! * [`CalendarQueue`] — a min-ordered queue of timestamped events with
//!   **stable tie-breaking** (events at equal times pop in push order),
//!   which makes whole simulations deterministic and reproducible. It is
//!   a bucketed ladder/calendar queue (O(1) amortized), verified against
//!   a binary-heap reference by the differential suite in
//!   `tests/queue_diff.rs`;
//! * [`CoroPool`] — process-oriented simulation processes implemented as
//!   coroutines in rendezvous with the (single-threaded) simulator, so that
//!   application code can be written as ordinary blocking Rust code while the
//!   simulator retains full control over interleaving (exactly one process
//!   runs at any instant). A process is a stack the simulator's own thread
//!   switches to, which ties the crate to x86-64 Linux, its one supported
//!   host.
//!
//! # Example
//!
//! ```
//! use spasm_desim::{CalendarQueue, SimTime};
//!
//! let mut q = CalendarQueue::new();
//! q.push(SimTime::from_ns(30), "beta");
//! q.push(SimTime::from_ns(10), "alpha");
//! q.push(SimTime::from_ns(10), "gamma"); // same time: pops after alpha
//! assert_eq!(q.pop(), Some((SimTime::from_ns(10), "alpha")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(10), "gamma")));
//! assert_eq!(q.pop(), Some((SimTime::from_ns(30), "beta")));
//! ```

// `deny`, not `forbid`: the stack-switching coroutine backend
// (`coro::fiber`) is the one module in the workspace allowed to lift it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod coro;
mod event_queue;
mod time;

pub use coro::{CoroCtx, CoroPool, ProcId, Step};
pub use event_queue::{CalendarQueue, PopIfBefore};
pub use time::SimTime;
