//! The four machine characterizations behind one dispatch enum.

mod abstract_net;
mod clogp;
mod logp_machine;
mod pram;
mod target;

pub(crate) use abstract_net::AbstractNet;

use spasm_cache::{AccessKind, CacheConfig, ProtocolKind};
use spasm_check::{CheckMode, CheckViolation};
use spasm_desim::SimTime;
use spasm_logp::GapPolicy;
use spasm_topology::Topology;

use crate::engine::EngineMode;
use crate::faults::{FaultPlan, RunBudget};
use crate::{AddressMap, Buckets};

pub use clogp::CLogPModel;
pub use logp_machine::LogPModel;
pub use pram::PramModel;
pub use target::TargetModel;

/// Which machine characterization to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// Ideal PRAM: unit-cost conflict-free memory. Produces SPASM's
    /// *ideal time* (algorithmic overheads only).
    Pram,
    /// The CC-NUMA target: coherent caches, full Berkeley/directory
    /// protocol, link-level network.
    Target,
    /// The LogP abstraction: no caches, L/g network.
    LogP,
    /// LogP plus the ideal coherent cache.
    CLogP,
}

impl std::fmt::Display for MachineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MachineKind::Pram => "pram",
            MachineKind::Target => "target",
            MachineKind::LogP => "logp",
            MachineKind::CLogP => "clogp",
        };
        f.write_str(s)
    }
}

/// Tunables for machine construction beyond the kind and topology.
#[derive(Debug, Clone, Copy)]
pub struct MachineConfig {
    /// Cache geometry for the target and CLogP machines.
    pub cache: CacheConfig,
    /// Gap enforcement policy for the LogP-abstracted machines
    /// (ablation A1 flips this to [`GapPolicy::PerEventType`]).
    pub gap_policy: GapPolicy,
    /// Multiplier on the derived g (ablation: "a better estimate of g").
    pub g_scale: f64,
    /// Coherence protocol for the target machine (the CLogP ideal cache
    /// always runs Berkeley state transitions — the abstraction under
    /// study). Ablation for the Wood et al. protocol-insensitivity claim.
    pub protocol: ProtocolKind,
    /// Deterministic fault plan to run under, if any. `None` (the
    /// default) simulates a fault-free machine.
    pub faults: Option<FaultPlan>,
    /// Bound on the run's event count. Unlimited by default.
    pub budget: RunBudget,
    /// How much online invariant checking the run performs. Off (the
    /// default) constructs no checker state and adds no per-event cost;
    /// see [`CheckMode`] for the lenient/strict distinction.
    pub check: CheckMode,
    /// Streaming interval telemetry. `None` (the default) collects
    /// nothing and adds one `Option` test per event; `Some` buckets the
    /// run into fixed sim-time intervals (see [`crate::TelemetryConfig`])
    /// and the report carries one [`crate::IntervalRecord`] per non-empty
    /// bucket.
    pub telemetry: Option<crate::TelemetryConfig>,
    /// Inert: accepted and ignored. Stays only because
    /// `benchmark/src/grid.rs` assigns it; goes when that stops.
    pub engine: EngineMode,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cache: CacheConfig::paper(),
            gap_policy: GapPolicy::Unified,
            g_scale: 1.0,
            protocol: ProtocolKind::Berkeley,
            faults: None,
            budget: RunBudget::UNLIMITED,
            check: CheckMode::Off,
            telemetry: None,
            engine: EngineMode::Sequential,
        }
    }
}

/// The time-and-traffic price of one memory operation.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// When the operation completes and the processor may continue.
    pub finish: SimTime,
    /// Overhead charges for the operation.
    pub buckets: Buckets,
}

/// The price of one explicit (message-passing) send.
#[derive(Debug, Clone, Copy)]
pub struct MsgCost {
    /// When the sender may continue. On the circuit-switched target the
    /// sender holds the circuit for the whole transmission; on the LogP
    /// machines the send is asynchronous and the sender is free once its
    /// network-interface slot is granted.
    pub sender_free: SimTime,
    /// When the payload becomes receivable at the destination.
    pub delivered: SimTime,
    /// Overhead charges for the message (to the sender's buckets).
    pub buckets: Buckets,
}

/// Aggregate machine-side counters for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSummary {
    /// Network messages (real or abstracted): the run's
    /// [`Buckets::msgs`] total, filled in by the engine.
    pub net_messages: u64,
    /// Bytes carried: the run's [`Buckets::bytes`] total.
    pub net_bytes: u64,
    /// Cache hits summed over nodes (cached machines).
    pub cache_hits: u64,
    /// Cache misses summed over nodes (cached machines).
    pub cache_misses: u64,
    /// Lines invalidated by coherence actions (cached machines).
    pub invalidations: u64,
    /// Messages that crossed the canonical bisection (target machine
    /// only — the abstracted network has no geometry to cross).
    pub bisection_crossings: u64,
}

impl ModelSummary {
    /// Fraction of messages that crossed the bisection (0 when idle).
    pub fn crossing_fraction(&self) -> f64 {
        if self.net_messages == 0 {
            0.0
        } else {
            self.bisection_crossings as f64 / self.net_messages as f64
        }
    }
}

/// One of the four machine models.
///
/// An enum rather than a trait object so the engine's hot loop dispatches
/// statically-knowable variants and the whole simulator stays trivially
/// `Send`. A model prices only requests the engine has validated: every
/// address it sees is allocated and resolved to its home, and every node
/// it routes is in range.
#[derive(Debug)]
pub(crate) enum Model {
    /// See [`MachineKind::Pram`].
    Pram(PramModel),
    /// See [`MachineKind::Target`].
    Target(TargetModel),
    /// See [`MachineKind::LogP`].
    LogP(LogPModel),
    /// See [`MachineKind::CLogP`].
    CLogP(CLogPModel),
}

impl Model {
    /// Builds the model for `kind` over `topo` and the final address
    /// space `amap` with `config`.
    pub fn new(
        kind: MachineKind,
        topo: &Topology,
        amap: &AddressMap,
        config: MachineConfig,
    ) -> Self {
        match kind {
            MachineKind::Pram => Model::Pram(PramModel::new()),
            MachineKind::Target => Model::Target(TargetModel::new(topo, amap, config)),
            MachineKind::LogP => Model::LogP(LogPModel::new(topo, config)),
            MachineKind::CLogP => Model::CLogP(CLogPModel::new(topo, amap, config)),
        }
    }

    /// Which kind this model is.
    pub fn kind(&self) -> MachineKind {
        match self {
            Model::Pram(_) => MachineKind::Pram,
            Model::Target(_) => MachineKind::Target,
            Model::LogP(_) => MachineKind::LogP,
            Model::CLogP(_) => MachineKind::CLogP,
        }
    }

    /// Prices one access of `kind` by `proc` to `block`, homed at `home`,
    /// starting at `at`. `amap` places the victims of evictions.
    ///
    /// # Errors
    ///
    /// The violation, when checking is on and an invariant breaks.
    pub fn access(
        &mut self,
        at: SimTime,
        proc: usize,
        block: u64,
        home: usize,
        amap: &AddressMap,
        kind: AccessKind,
    ) -> Result<Cost, CheckViolation> {
        match self {
            Model::Pram(m) => Ok(m.access(at)),
            Model::Target(m) => m.access(at, proc, block, home, amap, kind),
            Model::LogP(m) => m.access(at, proc, home),
            Model::CLogP(m) => m.access(at, proc, block, home, amap, kind),
        }
    }

    /// Prices one explicit message from `src` to `dst` of `bytes` bytes
    /// injected at `at`.
    ///
    /// # Errors
    ///
    /// The violation, when checking is on and the network breaks its own
    /// rules.
    pub fn msg_send(
        &mut self,
        at: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> Result<MsgCost, CheckViolation> {
        match self {
            Model::Pram(_) => {
                let cycle = SimTime::from_ns(crate::CYCLE_NS);
                Ok(MsgCost {
                    sender_free: at + cycle,
                    delivered: at + cycle,
                    buckets: Buckets {
                        mem: cycle,
                        ..Buckets::default()
                    },
                })
            }
            Model::Target(m) => m.msg_send(at, src, dst, bytes),
            Model::LogP(m) => m.net_mut().msg_send(at, src, dst),
            Model::CLogP(m) => m.net_mut().msg_send(at, src, dst),
        }
    }

    /// End-of-run invariant sweep: a full coherence-state consistency
    /// scan on the cached machines (nothing when checking is off).
    ///
    /// # Errors
    ///
    /// The first violated coherence invariant.
    pub fn final_check(&mut self) -> Result<(), CheckViolation> {
        match self {
            Model::Pram(_) | Model::LogP(_) => Ok(()),
            Model::Target(m) => m.final_check(),
            Model::CLogP(m) => m.final_check(),
        }
    }

    /// Whether `WaitUntil` must poll (re-issue reads) rather than idle
    /// until the watched word changes. True only for the cache-less LogP
    /// machine, where a spin loop really does re-touch the network.
    pub fn is_polling(&self) -> bool {
        matches!(self, Model::LogP(_))
    }

    /// Aggregate counters for the run report. The traffic fields stay
    /// zero: the engine fills them from the processors' [`Buckets`].
    pub fn summary(&self, p: usize) -> ModelSummary {
        match self {
            Model::Pram(_) | Model::LogP(_) => ModelSummary::default(),
            Model::Target(m) => m.summary(p),
            Model::CLogP(m) => m.summary(p),
        }
    }
}
