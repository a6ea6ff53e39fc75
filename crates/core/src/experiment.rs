//! One simulation experiment: configuration, execution, metrics.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use spasm_apps::{AppId, SizeClass};
use spasm_logp::GapPolicy;
use spasm_machine::{
    Engine, IntervalRecord, MachineConfig, MachineKind, ProcBody, RunError, SetupCtx, SpecStats,
};
use spasm_topology::{Topology, TopologyKind};

/// Network selection for an experiment (mirrors `TopologyKind`, with the
/// paper's names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Net {
    /// Fully connected.
    Full,
    /// Binary hypercube.
    Cube,
    /// 2-D mesh.
    Mesh,
}

impl Net {
    /// All three networks.
    pub const ALL: [Net; 3] = [Net::Full, Net::Cube, Net::Mesh];

    /// The corresponding topology kind.
    pub fn kind(self) -> TopologyKind {
        match self {
            Net::Full => TopologyKind::Full,
            Net::Cube => TopologyKind::Hypercube,
            Net::Mesh => TopologyKind::Mesh2D,
        }
    }

    /// Parses "full" / "cube" / "mesh".
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] naming the unknown network and the
    /// valid names.
    pub fn from_name(name: &str) -> Result<Net, ExperimentError> {
        match name {
            "full" => Ok(Net::Full),
            "cube" => Ok(Net::Cube),
            "mesh" => Ok(Net::Mesh),
            _ => {
                let valid: Vec<String> = Net::ALL.iter().map(Net::to_string).collect();
                Err(ExperimentError::Config(format!(
                    "unknown network \"{name}\" (valid: {})",
                    valid.join(", ")
                )))
            }
        }
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Net::Full => "full",
            Net::Cube => "cube",
            Net::Mesh => "mesh",
        };
        f.write_str(s)
    }
}

/// Machine characterization for an experiment, including the A1 ablation
/// variant (CLogP with the per-event-type gap of the paper's §7
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// Ideal PRAM (SPASM's ideal time).
    Pram,
    /// The CC-NUMA target.
    Target,
    /// LogP without caches.
    LogP,
    /// LogP with the ideal coherent cache.
    CLogP,
    /// CLogP, gap enforced only between identical event kinds (§7).
    CLogPPerEventGap,
}

impl Machine {
    /// All five characterizations (the four machines plus the A1 variant).
    pub const ALL: [Machine; 5] = [
        Machine::Pram,
        Machine::Target,
        Machine::LogP,
        Machine::CLogP,
        Machine::CLogPPerEventGap,
    ];

    /// The underlying machine kind.
    pub fn kind(self) -> MachineKind {
        match self {
            Machine::Pram => MachineKind::Pram,
            Machine::Target => MachineKind::Target,
            Machine::LogP => MachineKind::LogP,
            Machine::CLogP | Machine::CLogPPerEventGap => MachineKind::CLogP,
        }
    }

    /// The machine configuration (gap policy etc.).
    pub fn config(self) -> MachineConfig {
        let mut c = MachineConfig::default();
        if self == Machine::CLogPPerEventGap {
            c.gap_policy = GapPolicy::PerEventType;
        }
        c
    }

    /// Parses the display name.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] naming the unknown machine and the
    /// valid names.
    pub fn from_name(name: &str) -> Result<Machine, ExperimentError> {
        match name {
            "pram" => Ok(Machine::Pram),
            "target" => Ok(Machine::Target),
            "logp" => Ok(Machine::LogP),
            "clogp" => Ok(Machine::CLogP),
            "clogp-pet" => Ok(Machine::CLogPPerEventGap),
            _ => {
                let valid: Vec<String> = Machine::ALL.iter().map(Machine::to_string).collect();
                Err(ExperimentError::Config(format!(
                    "unknown machine \"{name}\" (valid: {})",
                    valid.join(", ")
                )))
            }
        }
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Machine::Pram => "pram",
            Machine::Target => "target",
            Machine::LogP => "logp",
            Machine::CLogP => "clogp",
            Machine::CLogPPerEventGap => "clogp-pet",
        };
        f.write_str(s)
    }
}

/// A fully specified simulation run. Equal experiments run the same
/// simulation (under equal machine configurations), which is what lets
/// [`crate::sweep::PointCache`] key on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Experiment {
    /// Which application.
    pub app: AppId,
    /// Problem-size preset.
    pub size: SizeClass,
    /// Interconnect.
    pub net: Net,
    /// Machine characterization.
    pub machine: Machine,
    /// Processor count (power of two).
    pub procs: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Why an experiment failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The experiment was rejected before anything ran: bad processor
    /// count, oversized topology, and friends.
    Config(String),
    /// The simulation itself failed (panic, deadlock, exhausted budget,
    /// bad request).
    Run(RunError),
    /// The simulation completed but produced a wrong answer.
    Verify(String),
    /// A panic escaped the simulation infrastructure itself (builder,
    /// model, or verifier) and was caught at the experiment boundary.
    Aborted(String),
    /// The failure was reconstructed from a sweep journal on resume: the
    /// string is the original error's rendering, preserved verbatim so
    /// resumed figures are byte-identical to uninterrupted ones.
    Replayed(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Config(e) => write!(f, "invalid configuration: {e}"),
            ExperimentError::Run(e) => write!(f, "simulation failed: {e}"),
            ExperimentError::Verify(e) => write!(f, "verification failed: {e}"),
            ExperimentError::Aborted(e) => write!(f, "experiment aborted: {e}"),
            // Verbatim: the journal stored the original error's rendering.
            ExperimentError::Replayed(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Renders a caught panic payload (best effort: `&str` and `String`
/// payloads are quoted, anything else is described).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The measurements of one run, in the units the paper's figures use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Execution time (max over processors), µs.
    pub exec_us: f64,
    /// Mean per-processor latency overhead, µs.
    pub latency_us: f64,
    /// Mean per-processor contention overhead, µs.
    pub contention_us: f64,
    /// Mean per-processor synchronization spin time, µs.
    pub sync_us: f64,
    /// Mean per-processor home-directory wait, µs (target only).
    pub dir_wait_us: f64,
    /// Network messages.
    pub messages: u64,
    /// Network bytes.
    pub bytes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Fraction of network messages that crossed the bisection (target
    /// machine only; 0 on the abstracted machines).
    pub crossing_fraction: f64,
    /// Cache hits summed over nodes (0 on the cache-less machines).
    pub cache_hits: u64,
    /// Cache misses summed over nodes (0 on the cache-less machines).
    pub cache_misses: u64,
    /// Faults injected during the run, all classes summed (0 without an
    /// active fault plan).
    pub faults_injected: u64,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
}

impl Experiment {
    /// Runs the experiment: build, simulate, verify, extract metrics.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Run`] if the simulation panics or deadlocks;
    /// [`ExperimentError::Verify`] if the application's verifier rejects
    /// the result.
    pub fn run(&self) -> Result<RunMetrics, ExperimentError> {
        self.run_with_config(self.machine.config())
    }

    /// Runs the experiment with an explicit machine configuration — used
    /// by the ablations (gap policy, scaled g) and by faulted sweeps
    /// (fault plan, run budget).
    ///
    /// # Errors
    ///
    /// As [`Experiment::run`], plus [`ExperimentError::Config`] for an
    /// invalid topology request. Panics from the application builder,
    /// the machine models, or the verifier are caught at this boundary
    /// and surface as [`ExperimentError::Aborted`] — they never escape
    /// to poison a sweep.
    pub fn run_with_config(&self, config: MachineConfig) -> Result<RunMetrics, ExperimentError> {
        self.run_observed(config, None).map(|(m, _, _)| m)
    }

    /// The full-control entry point behind every other `run_*`: the run's
    /// telemetry alongside the metrics. The second parameter and the
    /// third element are inert remnants (the parameter admits only
    /// `None`; the element is always `SpecStats::default()`):
    /// `benchmark/src/grid.rs` passes the one and destructures the
    /// other; they go when that stops.
    ///
    /// # Errors
    ///
    /// As [`Experiment::run_with_config`].
    pub fn run_observed(
        &self,
        config: MachineConfig,
        _: Option<std::convert::Infallible>,
    ) -> Result<(RunMetrics, Vec<IntervalRecord>, SpecStats), ExperimentError> {
        fenced(self.net, self.procs, |topo| {
            let mut setup = SetupCtx::new(self.procs);
            let app = self.app.instantiate(self.size);
            let built = app.build(&mut setup, self.seed);
            let mut engine =
                Engine::with_config(self.machine.kind(), topo, config, setup, built.bodies);
            let report = engine.run().map_err(ExperimentError::Run)?;
            (built.verify)(&report.final_store).map_err(ExperimentError::Verify)?;
            Ok((metrics_of(&report), report.telemetry, SpecStats::default()))
        })
    }
}

/// The experiment boundary: builds the `net` topology over `procs`
/// processors, refusing an invalid count as [`ExperimentError::Config`],
/// and runs `body` on it behind the one panic fence, so a panic from the
/// builder, a model or a verifier surfaces as [`ExperimentError::Aborted`].
fn fenced<T>(
    net: Net,
    procs: usize,
    body: impl FnOnce(&Topology) -> Result<T, ExperimentError>,
) -> Result<T, ExperimentError> {
    let topo = Topology::try_of_kind(net.kind(), procs)
        .map_err(|e| ExperimentError::Config(e.to_string()))?;
    catch_unwind(AssertUnwindSafe(|| body(&topo)))
        .unwrap_or_else(|payload| Err(ExperimentError::Aborted(panic_message(&*payload))))
}

/// Extracts figure-ready metrics from an engine report.
fn metrics_of(report: &spasm_machine::RunReport) -> RunMetrics {
    let p = report.procs() as f64;
    RunMetrics {
        exec_us: report.exec_time_us(),
        latency_us: report.latency_overhead_us(),
        contention_us: report.contention_overhead_us(),
        sync_us: report.totals.sync.as_us_f64() / p,
        dir_wait_us: report.totals.dir_wait.as_us_f64() / p,
        messages: report.summary.net_messages,
        bytes: report.summary.net_bytes,
        events: report.events,
        crossing_fraction: report.summary.crossing_fraction(),
        cache_hits: report.summary.cache_hits,
        cache_misses: report.summary.cache_misses,
        faults_injected: report.faults.total(),
        wall: report.wall,
    }
}

/// Runs caller-supplied processor bodies through the full experiment
/// pipeline — topology validation, engine execution, panic isolation —
/// on one machine characterization. This is the harness the resilience
/// suite uses to throw hostile workloads (deadlocks, panics, livelocks)
/// at every machine and demand a typed error back.
///
/// # Errors
///
/// [`ExperimentError::Config`] for an invalid topology request,
/// [`ExperimentError::Run`] for simulation failures, and
/// [`ExperimentError::Aborted`] if a panic escapes the engine itself.
pub fn run_bodies(
    machine: Machine,
    net: Net,
    procs: usize,
    config: MachineConfig,
    setup: SetupCtx,
    bodies: Vec<ProcBody>,
) -> Result<RunMetrics, ExperimentError> {
    fenced(net, procs, |topo| {
        let mut engine = Engine::with_config(machine.kind(), topo, config, setup, bodies);
        let report = engine.run().map_err(ExperimentError::Run)?;
        Ok(metrics_of(&report))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrips() {
        for net in Net::ALL {
            assert_eq!(Net::from_name(&net.to_string()).unwrap(), net);
        }
        for m in [
            Machine::Pram,
            Machine::Target,
            Machine::LogP,
            Machine::CLogP,
            Machine::CLogPPerEventGap,
        ] {
            assert_eq!(Machine::from_name(&m.to_string()).unwrap(), m);
        }
    }

    #[test]
    fn unknown_names_are_typed_config_errors_listing_valid_names() {
        match Net::from_name("ring") {
            Err(ExperimentError::Config(msg)) => {
                assert!(msg.contains("\"ring\""), "{msg}");
                for net in Net::ALL {
                    assert!(msg.contains(&net.to_string()), "{msg} missing {net}");
                }
            }
            other => panic!("expected Config error, got {other:?}"),
        }
        match Machine::from_name("bsp") {
            Err(ExperimentError::Config(msg)) => {
                assert!(msg.contains("\"bsp\""), "{msg}");
                for m in Machine::ALL {
                    assert!(msg.contains(&m.to_string()), "{msg} missing {m}");
                }
            }
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn experiment_runs_and_verifies() {
        let m = Experiment {
            app: AppId::Is,
            size: SizeClass::Test,
            net: Net::Cube,
            machine: Machine::Target,
            procs: 4,
            seed: 3,
        }
        .run()
        .unwrap();
        assert!(m.exec_us > 0.0);
        assert!(m.messages > 0);
        assert!(m.events > 0);
    }

    #[test]
    fn pram_has_no_traffic() {
        let m = Experiment {
            app: AppId::Ep,
            size: SizeClass::Test,
            net: Net::Full,
            machine: Machine::Pram,
            procs: 2,
            seed: 3,
        }
        .run()
        .unwrap();
        assert_eq!(m.messages, 0);
        assert_eq!(m.latency_us, 0.0);
    }

    #[test]
    fn invalid_processor_counts_are_config_errors() {
        let base = Experiment {
            app: AppId::Ep,
            size: SizeClass::Test,
            net: Net::Cube,
            machine: Machine::Pram,
            procs: 3,
            seed: 1,
        };
        for (procs, needle) in [(3, "power of two"), (0, "positive"), (128, "maximum")] {
            match (Experiment { procs, ..base }).run() {
                Err(ExperimentError::Config(msg)) => {
                    assert!(msg.contains(needle), "procs={procs}: {msg}")
                }
                other => panic!("procs={procs}: expected Config error, got {other:?}"),
            }
        }
        assert!(Experiment { procs: 4, ..base }.run().is_ok());
    }

    #[test]
    fn panicking_bodies_yield_typed_errors_not_aborts() {
        use spasm_machine::ProcBody;
        for machine in Machine::ALL {
            let setup = SetupCtx::new(2);
            let bodies: Vec<ProcBody> = vec![
                Box::new(|_, _| panic!("app body exploded")),
                Box::new(|_, _| {}),
            ];
            let err =
                run_bodies(machine, Net::Full, 2, machine.config(), setup, bodies).unwrap_err();
            match err {
                ExperimentError::Run(RunError::Panicked { proc, message }) => {
                    assert_eq!(proc, 0, "{machine}");
                    assert!(message.contains("exploded"), "{machine}: {message}");
                }
                other => panic!("{machine}: expected Panicked, got {other}"),
            }
        }
    }

    #[test]
    fn per_event_gap_reduces_contention() {
        let base = Experiment {
            app: AppId::Fft,
            size: SizeClass::Test,
            net: Net::Cube,
            machine: Machine::CLogP,
            procs: 4,
            seed: 3,
        };
        let unified = base.run().unwrap();
        let pet = Experiment {
            machine: Machine::CLogPPerEventGap,
            ..base
        }
        .run()
        .unwrap();
        assert!(
            pet.contention_us < unified.contention_us,
            "per-event-type gap must lower contention: {} vs {}",
            pet.contention_us,
            unified.contention_us
        );
    }
}
