//! The execution-driven simulation engine: one event popped, one
//! effect applied, one processor resumed, in deterministic virtual-time
//! order. This module holds the engine's types and construction;
//! [`sequential`] is the event loop itself.

mod sequential;

use std::collections::VecDeque;
use std::fmt;
use std::time::Duration;

use spasm_check::{CheckViolation, EngineChecker};
use spasm_desim::{CoroCtx, CoroPool, EventQueue, SimTime};
use spasm_topology::Topology;

use crate::addr::UnallocatedAddress;
use crate::faults::{FaultCounters, FaultInjector, RunBudget};
use crate::models::{MachineConfig, MachineKind, Model, ModelSummary};
use crate::ops::{MemReq, MemResp, Pred};
use crate::stats::{Buckets, ProcStats};
use crate::telemetry::{Collector, IntervalRecord, Snapshot};
use crate::{Addr, AddressMap, SetupCtx, ValueStore};

/// One simulated processor's program.
pub type ProcBody = Box<dyn FnOnce(usize, &CoroCtx<MemReq, MemResp>) + 'static>;

/// Inert remnant of the Time Warp engine retired at PR 19: names only,
/// no behaviour. Stays because `benchmark/src/grid.rs` constructs
/// `Optimistic`; goes when that stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// The one engine.
    #[default]
    Sequential,
    /// Accepted and ignored.
    Optimistic {
        /// Ignored.
        workers: usize,
    },
}

/// Why a simulation failed.
///
/// Every variant is a *typed* outcome of [`Engine::run`]: application-level
/// failure modes (panic, deadlock, bad request) and a configured
/// [`RunBudget`] end the run with an error value, never a
/// process abort.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A processor's body panicked.
    Panicked {
        /// The processor.
        proc: usize,
        /// The panic message.
        message: String,
    },
    /// No events remain but processors are still waiting — a lost-wakeup
    /// or application-level deadlock.
    Deadlock {
        /// Simulated time at which progress stopped.
        at: SimTime,
        /// Processors still blocked.
        waiting: Vec<usize>,
    },
    /// The run exceeded its [`RunBudget`] (livelock, runaway workload, or
    /// a deliberately tight bound).
    BudgetExceeded {
        /// Simulated time when the budget tripped.
        at: SimTime,
        /// Events processed when the budget tripped.
        events: u64,
    },
    /// A memory operation named an address outside every allocation.
    UnallocatedAddress {
        /// The offending address.
        addr: Addr,
    },
    /// A processor issued a malformed request (unaligned access,
    /// out-of-range destination, oversized message, double receive).
    BadRequest {
        /// The processor.
        proc: usize,
        /// What was wrong with the request.
        message: String,
    },
    /// An online invariant checker detected a violation (only possible
    /// when the run's [`MachineConfig`] enables a
    /// [`spasm_check::CheckMode`]).
    Check(CheckViolation),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { proc, message } => {
                write!(f, "processor {proc} panicked: {message}")
            }
            RunError::Deadlock { at, waiting } => {
                write!(
                    f,
                    "deadlock at {at}: processors {waiting:?} blocked forever"
                )
            }
            RunError::BudgetExceeded { at, events } => {
                write!(f, "run budget exceeded at {at} after {events} events")
            }
            RunError::UnallocatedAddress { addr } => {
                write!(f, "address {addr} not allocated")
            }
            RunError::BadRequest { proc, message } => {
                write!(f, "processor {proc} issued a bad request: {message}")
            }
            RunError::Check(violation) => write!(f, "{violation}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<UnallocatedAddress> for RunError {
    fn from(e: UnallocatedAddress) -> Self {
        RunError::UnallocatedAddress { addr: e.0 }
    }
}

impl From<CheckViolation> for RunError {
    fn from(violation: CheckViolation) -> Self {
        RunError::Check(violation)
    }
}

/// Inert remnant of the same retired engine: always zero. Stays because
/// `benchmark/src/grid.rs` reads `.rollbacks` off
/// `Experiment::run_observed`'s third element; goes when that stops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Always 0.
    pub rollbacks: u64,
}

/// Results of one simulation run.
#[derive(Debug)]
pub struct RunReport {
    /// Which machine was simulated.
    pub kind: MachineKind,
    /// Total (simulated) execution time: the maximum over processors of
    /// their completion times — SPASM's "total time".
    pub exec_time: SimTime,
    /// Per-processor statistics.
    pub per_proc: Vec<ProcStats>,
    /// Sum of all processors' buckets.
    pub totals: Buckets,
    /// Simulator events processed (the simulation-speed driver).
    pub events: u64,
    /// Machine-side counters (network traffic, cache behaviour).
    pub summary: ModelSummary,
    /// Per-labeled-region overhead attribution (SPASM-style "which data
    /// structure caused the traffic"), sorted by label.
    pub region_traffic: Vec<(&'static str, Buckets)>,
    /// The shared memory at completion, for result verification.
    pub final_store: ValueStore,
    /// Faults actually injected during the run (all zero when no
    /// [`crate::FaultPlan`] was configured).
    pub faults: FaultCounters,
    /// Interval telemetry records, one per non-empty sim-time bucket in
    /// order (empty unless the run's [`MachineConfig`] enabled a
    /// [`crate::TelemetryConfig`]).
    pub telemetry: Vec<IntervalRecord>,
    /// Host wall-clock time the simulation took (§7 "Speed of Simulation").
    pub wall: Duration,
}

impl RunReport {
    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Mean per-processor latency overhead, in microseconds — the metric
    /// the paper's latency figures plot.
    pub fn latency_overhead_us(&self) -> f64 {
        self.totals.latency.as_us_f64() / self.procs() as f64
    }

    /// Mean per-processor contention overhead, in microseconds.
    pub fn contention_overhead_us(&self) -> f64 {
        self.totals.contention.as_us_f64() / self.procs() as f64
    }

    /// Execution time in microseconds.
    pub fn exec_time_us(&self) -> f64 {
        self.exec_time.as_us_f64()
    }
}

/// One scheduled event. `Copy` and 48 bytes: the queue holds the events
/// themselves, so a pop hands over the value the handler consumes. The
/// processor is a `u32` so that it shares the variant tag's word.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// Handle a processor's request at its issue time.
    Dispatch(u32, MemReq),
    /// The request completes: apply its effect and resume the processor.
    Commit(u32, MemReq),
    /// An explicit message arrives at its destination's mailbox.
    Deliver { dst: usize, tag: u64, value: u64 },
}

// A queue entry is `(SimTime, seq, Ev)`: one 64-byte cache line.
const _: () = assert!(std::mem::size_of::<(SimTime, u64, Ev)>() == 64);
// Every processor id fits `Ev`'s `u32`, so its `as u32` casts never truncate.
const _: () = assert!(spasm_topology::MAX_NODES <= u32::MAX as usize);

/// What a blocked processor waits for.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// A write to this word (an in-cache spin on a caching machine); the
    /// woken processor re-reads it and re-checks the predicate.
    Word(Addr, Pred),
    /// A message with this tag.
    Tag(u64),
}

/// Drives application processes over a machine model.
///
/// See the crate-level example. The engine owns the coroutine pool, the
/// event queue, the value store, and the machine model; [`Engine::run`]
/// consumes events to completion and produces a [`RunReport`].
pub struct Engine {
    pool: CoroPool<MemReq, MemResp>,
    model: Model,
    amap: AddressMap,
    store: ValueStore,
    events: EventQueue<Ev>,
    /// Processors blocked on a word or a tag, in the order they blocked:
    /// a write wakes its word's spinners in that order. A processor
    /// blocks at most once, so the list holds at most one entry each.
    blocked: Vec<(usize, Wait)>,
    /// Label id (see [`AddressMap::labels`]) → overheads attributed to the
    /// label's regions; `None` until the first access, so the report
    /// lists exactly the labels that were touched.
    region_traffic: Vec<Option<Buckets>>,
    /// Receiver → arrived-but-unconsumed `(tag, value)` messages in
    /// arrival order; a receive takes the first with its tag.
    mailboxes: Vec<VecDeque<(u64, u64)>>,
    wait_start: Vec<Option<SimTime>>,
    stats: Vec<ProcStats>,
    live: usize,
    now: SimTime,
    budget: RunBudget,
    injector: Option<FaultInjector>,
    checker: Option<EngineChecker<Ev>>,
    telemetry: Option<Collector>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("kind", &self.model.kind())
            .field("procs", &self.stats.len())
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine with the default [`MachineConfig`].
    pub fn new(kind: MachineKind, topo: &Topology, setup: SetupCtx, bodies: Vec<ProcBody>) -> Self {
        Engine::with_config(kind, topo, MachineConfig::default(), setup, bodies)
    }

    /// Builds an engine with an explicit machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the number of bodies does not match the topology size or
    /// the setup's node count.
    pub fn with_config(
        kind: MachineKind,
        topo: &Topology,
        config: MachineConfig,
        setup: SetupCtx,
        bodies: Vec<ProcBody>,
    ) -> Self {
        let p = topo.nodes();
        assert_eq!(bodies.len(), p, "one body per processor");
        assert_eq!(setup.nodes(), p, "setup sized for a different machine");
        // The address space is final from here on: nothing allocates
        // once the engine owns the map.
        let (amap, store) = setup.into_parts();
        let labels = amap.labels().len();
        Engine {
            pool: CoroPool::from_bodies(bodies),
            model: Model::new(kind, topo, &amap, config),
            amap,
            store,
            events: EventQueue::new(),
            blocked: Vec::with_capacity(p),
            region_traffic: vec![None; labels],
            mailboxes: vec![VecDeque::new(); p],
            wait_start: vec![None; p],
            stats: vec![ProcStats::default(); p],
            live: p,
            now: SimTime::ZERO,
            budget: config.budget,
            injector: config
                .faults
                .filter(|f| f.is_active())
                .map(FaultInjector::new),
            checker: config
                .check
                .enabled()
                .then(|| EngineChecker::new(config.check, p)),
            telemetry: config.telemetry.map(Collector::new),
        }
    }

    /// Samples the monotone counters the telemetry deltas derive from.
    /// Only called at bucket boundaries, so the O(procs) sweep is off the
    /// per-event path.
    fn telemetry_snapshot(&self) -> Snapshot {
        let mut busy = SimTime::ZERO;
        let mut mem = SimTime::ZERO;
        let mut comm = SimTime::ZERO;
        let mut sync = SimTime::ZERO;
        for s in &self.stats {
            busy += s.buckets.busy;
            mem += s.buckets.mem;
            comm += s.buckets.latency + s.buckets.contention + s.buckets.dir_wait;
            sync += s.buckets.sync;
        }
        let summary = self.model.summary(self.stats.len());
        Snapshot {
            busy_ns: busy.as_ns(),
            mem_ns: mem.as_ns(),
            comm_ns: comm.as_ns(),
            sync_ns: sync.as_ns(),
            cache_hits: summary.cache_hits,
            cache_misses: summary.cache_misses,
            faults: self.injector.as_ref().map_or(0, |i| i.counters.total()),
        }
    }
}
