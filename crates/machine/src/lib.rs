//! # spasm-machine — the paper's machine characterizations
//!
//! The heart of the reproduction: four simulated machines behind one
//! interface, driven by one execution-driven engine.
//!
//! | Machine | Network | Locality | Paper role |
//! |---|---|---|---|
//! | [`MachineKind::Pram`] | none (unit-cost memory) | none needed | SPASM's *ideal time* metric |
//! | [`MachineKind::Target`] | link-level circuit-switched wormhole (`spasm-net`) | 64 KB 2-way coherent cache, Berkeley protocol, fully-mapped directory, every coherence action priced | the CC-NUMA machine being abstracted |
//! | [`MachineKind::LogP`] | L/g abstraction (`spasm-logp`) | **no caches** (NUMA à la Butterfly GP-1000) | "is LogP a good network abstraction?" |
//! | [`MachineKind::CLogP`] | L/g abstraction | *ideal coherent cache*: same Berkeley state machine, zero-cost coherence actions | "is an ideal cache a good locality abstraction?" |
//!
//! ## Execution-driven engine
//!
//! Application code runs as real Rust closures, one per simulated processor
//! (see `spasm-desim`'s coroutine pool). Every shared-memory operation
//! ([`MemReq`]) traps into the [`Engine`], which prices it on the selected
//! machine model and resumes the processor at the operation's completion
//! time. Values live in a [`ValueStore`] and commit at completion time, so
//! data-dependent control flow (sparse structures, dynamic task queues)
//! behaves exactly as on the simulated machine — the defining property of
//! execution-driven simulation.
//!
//! Synchronization (spin locks, sense-reversing barriers, condition flags in
//! [`sync`]) is built from ordinary memory operations plus [`MemReq::WaitUntil`],
//! a simulated spin loop: on cached machines the spinner idles in its cache
//! until the flag's block is updated (first and last accesses touch the
//! network — §6.2's EP observation); on the cache-less LogP machine every
//! poll honestly costs a network round trip.
//!
//! # Example
//!
//! ```
//! use spasm_machine::{Engine, MachineKind, MemCtx, ProcBody, SetupCtx};
//! use spasm_topology::Topology;
//!
//! // One word at home node 0, incremented by both processors under a lock.
//! let mut setup = SetupCtx::new(2);
//! let counter = setup.alloc(0, 1);
//! let lock = setup.alloc(0, 1);
//!
//! let bodies: Vec<ProcBody> = (0..2)
//!     .map(|_| {
//!         let body: ProcBody = Box::new(move |_, ctx| {
//!             let mem = MemCtx::new(ctx);
//!             spasm_machine::sync::lock(&mem, lock);
//!             let v = mem.read(counter);
//!             mem.write(counter, v + 1);
//!             spasm_machine::sync::unlock(&mem, lock);
//!         });
//!         body
//!     })
//!     .collect();
//!
//! let topo = Topology::full(2);
//! let mut engine = Engine::new(MachineKind::Target, &topo, setup, bodies);
//! let report = engine.run().unwrap();
//! assert_eq!(report.final_store.read_word(counter), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod engine;
mod faults;
mod models;
mod ops;
mod report;
mod setup;
mod stats;
mod store;
pub mod sync;
mod telemetry;

pub use addr::{Addr, AddressMap, UnallocatedAddress, BLOCK_BYTES, WORD_BYTES};
pub use engine::{Engine, EngineMode, ProcBody, RunError, RunReport, SpecStats};
pub use faults::{FaultCounters, FaultPlan, RunBudget};
pub use models::{MachineConfig, MachineKind};
pub use ops::{MemCtx, MemReq, MemResp, Pred, RmwOp};
pub use setup::SetupCtx;
pub use spasm_check::{CheckMode, CheckViolation};
pub use stats::{Buckets, ProcStats};
pub use store::ValueStore;
pub use telemetry::{IntervalRecord, TelemetryConfig};

/// CPU cycle time: the paper fixes 33 MHz SPARC processors; we round the
/// 30.3 ns cycle to 30 ns.
pub const CYCLE_NS: u64 = 30;

/// Local memory access time: 10 cycles (300 ns).
pub const MEM_NS: u64 = 300;

/// Size of a coherence control message (request/forward/inval/ack/grant).
pub const CTRL_BYTES: u64 = 8;

/// Size of a data (cache-block) message.
pub const DATA_BYTES: u64 = 32;
