//! # spasm-desim — deterministic discrete-event simulation kernel
//!
//! This crate provides the simulation substrate used by the `spasm-rs`
//! reproduction of *"Abstracting Network Characteristics and Locality
//! Properties of Parallel Systems"* (HPCA-1, 1995). The paper's SPASM
//! simulator was built on CSIM, a process-oriented sequential simulation
//! package; this crate plays the same role:
//!
//! * [`SimTime`] — simulated time in nanoseconds, with saturating arithmetic;
//! * [`EventQueue`] — a min-ordered queue of timestamped events with
//!   **stable tie-breaking** (events at equal times pop in push order),
//!   which makes whole simulations deterministic and reproducible. It is
//!   one `Vec` kept sorted, latest event first, so a pop is `Vec::pop`
//!   and a push shifts a population of a few events per processor; the
//!   differential suite in `tests/queue_diff.rs` holds it against a
//!   binary-heap reference;
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
//! use spasm_desim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
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
pub use event_queue::{CalendarQueue, EventQueue, PopIfBefore};
pub use time::SimTime;
