//! # spasm-scenario — declarative workloads on the figure harness
//!
//! The paper's suite is five fixed kernels; this crate opens the same
//! machinery — machine models, networks, sweeps, journals, shards,
//! invariant checking, telemetry — to *described* workloads. A
//! scenario is a small text file (`.scn`, see [`parse`]) naming a
//! working-set size, a sharing degree, a communication locality
//! pattern, a message-size range, and a phase structure
//! (compute / mem / comm / barrier sequences); [`compile`] turns it
//! into a [`FigureSpec`] whose app is a seeded synthetic traffic
//! generator emulating `clients` logical clients per processor.
//! Everything downstream is the ordinary figure pipeline:
//!
//! ```no_run
//! use spasm_core::{figures::PROC_SWEEP, sweep::{PointCache, Sweep}};
//! use spasm_apps::SizeClass;
//!
//! let sc = spasm_scenario::parse("[scenario]\nname = demo\n[phase]\nkind = barrier\n")?;
//! let spec = spasm_scenario::compile(&sc)?;
//! let sweep = Sweep::new(spec, SizeClass::Test, PROC_SWEEP, 42);
//! let data = sweep.run(None, &mut PointCache::default(), |_| {});
//! println!("{}", spasm_scenario::report(&sc, &data));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The generated workload is a pure function of `(scenario, seed)` —
//! see [`gen`](self) internals — so scenario sweeps inherit every
//! determinism guarantee of the built-in figures: byte-identical
//! output across `--jobs N`, journaled resume, sharded merge. The
//! scenario's canonical text is its durable identity: it enters the
//! sweep fingerprint through the dynamic-app registry, so journals
//! and shards written under one scenario definition refuse to mix
//! with another.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod parse;

pub use parse::{limits, parse, render, ParseError};

use spasm_core::figures::{FigureSpec, Metric};
use spasm_core::sweep::FigureData;
use spasm_core::{Machine, Net};

/// Communication locality pattern: who a processor's traffic targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Next processor around a ring: `(p + 1) % P`.
    Ring,
    /// Hypercube-style nearest neighbor: `p ^ 1`.
    Neighbor,
    /// Hash-spread over all other processors.
    Uniform,
    /// Everyone targets processor 0 (which targets 1).
    Hotspot,
}

impl std::fmt::Display for Locality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Locality::Ring => "ring",
            Locality::Neighbor => "neighbor",
            Locality::Uniform => "uniform",
            Locality::Hotspot => "hotspot",
        })
    }
}

/// The interconnect a scenario asks for (mirrors [`Net`], spelled in
/// scenario vocabulary so the parser owns its own names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioNet {
    /// Fully connected.
    Full,
    /// Binary hypercube.
    Cube,
    /// 2-D mesh.
    Mesh,
}

impl ScenarioNet {
    fn to_net(self) -> Net {
        match self {
            ScenarioNet::Full => Net::Full,
            ScenarioNet::Cube => Net::Cube,
            ScenarioNet::Mesh => Net::Mesh,
        }
    }
}

impl std::fmt::Display for ScenarioNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScenarioNet::Full => "full",
            ScenarioNet::Cube => "cube",
            ScenarioNet::Mesh => "mesh",
        })
    }
}

/// Which metric the compiled figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioMetric {
    /// Total execution time.
    Exec,
    /// Mean per-processor latency overhead.
    Latency,
    /// Mean per-processor contention overhead.
    Contention,
}

impl ScenarioMetric {
    fn to_metric(self) -> Metric {
        match self {
            ScenarioMetric::Exec => Metric::ExecTime,
            ScenarioMetric::Latency => Metric::Latency,
            ScenarioMetric::Contention => Metric::Contention,
        }
    }
}

impl std::fmt::Display for ScenarioMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScenarioMetric::Exec => "exec",
            ScenarioMetric::Latency => "latency",
            ScenarioMetric::Contention => "contention",
        })
    }
}

/// One phase of the per-round schedule. All processors execute the
/// same phase list; each numeric knob is *per client*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Private computation: `cycles` charged per client.
    Compute {
        /// Cycles charged per client.
        cycles: u64,
    },
    /// Shared-memory traffic: `ops` reads/writes per client, steered
    /// by the scenario's `sharing`, `writes`, and `locality` knobs.
    Mem {
        /// Operations issued per client.
        ops: u64,
    },
    /// Explicit messages: `messages` sends per client to the locality
    /// pattern's partner, then the matching receives.
    Comm {
        /// Messages sent per client.
        messages: u64,
    },
    /// Global barrier across all processors.
    Barrier,
}

/// A parsed scenario: the declarative description of one synthetic
/// workload. Construct with [`parse`]; [`render`] gives back the
/// canonical text.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workload name; the compiled figure id is `scn-<name>`.
    pub name: String,
    /// Logical clients emulated per processor.
    pub clients: u64,
    /// Repetitions of the phase list.
    pub rounds: u64,
    /// Per-processor working-set size in words.
    pub working_set: u64,
    /// Probability a read targets a partner's region instead of the
    /// processor's own.
    pub sharing: f64,
    /// Probability a mem-phase operation is a write.
    pub writes: f64,
    /// Communication locality pattern.
    pub locality: Locality,
    /// Message size bounds `(lo, hi)` in bytes, inclusive.
    pub msg_bytes: (u64, u64),
    /// Interconnect to simulate.
    pub net: ScenarioNet,
    /// Metric the compiled figure plots.
    pub metric: ScenarioMetric,
    /// The per-round schedule, at least one phase.
    pub phases: Vec<Phase>,
}

/// The four machine characterizations every scenario sweeps — the
/// paper's full ladder from the ideal PRAM to the cycle-level target.
const MACHINES: &[Machine] = &[
    Machine::Pram,
    Machine::Target,
    Machine::LogP,
    Machine::CLogP,
];

/// Compiles a scenario into a figure spec runnable by everything in
/// [`spasm_core::sweep`]: the scenario's traffic generator is
/// registered as a dynamic app (id `scn-<name>`) whose canonical text
/// ([`render`]) becomes part of the sweep fingerprint.
///
/// Compiling the same scenario again returns an equivalent spec;
/// compiling a *different* scenario under an already-registered name
/// is refused — within one process a name means one workload.
///
/// # Errors
///
/// A name collision with a built-in app or with a different scenario
/// already registered under the same name.
pub fn compile(sc: &Scenario) -> Result<&'static FigureSpec, String> {
    let canon = render(sc);
    let id: &'static str = Box::leak(format!("scn-{}", sc.name).into_boxed_str());
    let template = sc.clone();
    let app = spasm_apps::register_app(id, &canon, move |_size| {
        Box::new(gen::ScenarioApp {
            name: id,
            sc: template.clone(),
        })
    })?;
    let expect: &'static str = Box::leak(
        format!(
            "scenario {}: {} locality, sharing {}, {} phase(s) x {} round(s)",
            sc.name,
            sc.locality,
            sc.sharing,
            sc.phases.len(),
            sc.rounds
        )
        .into_boxed_str(),
    );
    Ok(Box::leak(Box::new(FigureSpec {
        id,
        app,
        net: sc.net.to_net(),
        metric: sc.metric.to_metric(),
        machines: MACHINES,
        expect,
    })))
}

/// Summary of one scenario sweep, aggregated from the figure data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub name: String,
    /// Grid points swept (machines × processor counts).
    pub points: usize,
    /// Points that failed (budget, verification, or salvage).
    pub failed: usize,
    /// Simulator events across all successful points.
    pub events: u64,
    /// Messages across all successful points.
    pub messages: u64,
    /// Bytes across all successful points.
    pub bytes: u64,
    /// Telemetry intervals recorded (0 with telemetry off).
    pub intervals: usize,
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scenario {}: {} point(s), {} failed, {} events, \
             {} message(s) / {} byte(s), {} telemetry interval(s)",
            self.name,
            self.points,
            self.failed,
            self.events,
            self.messages,
            self.bytes,
            self.intervals
        )
    }
}

/// Aggregates a swept scenario's [`FigureData`] into a
/// [`ScenarioReport`].
pub fn report(sc: &Scenario, data: &FigureData) -> ScenarioReport {
    let mut r = ScenarioReport {
        name: sc.name.clone(),
        points: 0,
        failed: 0,
        events: 0,
        messages: 0,
        bytes: 0,
        intervals: 0,
    };
    for series in &data.series {
        for (i, outcome) in series.outcomes.iter().enumerate() {
            r.points += 1;
            if !outcome.is_ok() {
                r.failed += 1;
            }
            if let Some(m) = &series.metrics[i] {
                r.events += m.events;
                r.messages += m.messages;
                r.bytes += m.bytes;
            }
            r.intervals += series.telemetry[i].len();
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_apps::SizeClass;
    use spasm_core::sweep::{PointCache, Sweep, SweepConfig};
    use spasm_core::TelemetryConfig;

    fn tiny(name: &str) -> Scenario {
        let text = format!(
            "[scenario]\nname = {name}\nclients = 2\nrounds = 2\nworking-set = 16\n\
             sharing = 0.5\nwrites = 0.5\nlocality = ring\nmsg-bytes = 4..8\n\
             [phase]\nkind = compute\ncycles = 50\n\
             [phase]\nkind = mem\nops = 4\n\
             [phase]\nkind = comm\nmessages = 2\n\
             [phase]\nkind = barrier\n"
        );
        parse(&text).unwrap()
    }

    #[test]
    fn compile_runs_through_the_figure_harness() {
        let sc = tiny("lib-harness");
        let spec = compile(&sc).unwrap();
        assert_eq!(spec.id, "scn-lib-harness");
        assert_eq!(spec.machines.len(), 4);
        // Re-compiling the identical scenario is fine; a different one
        // under the same name is refused.
        compile(&sc).unwrap();
        let mut other = sc.clone();
        other.rounds = 3;
        assert!(compile(&other)
            .unwrap_err()
            .contains("different definition"));

        let data = Sweep::new(spec, SizeClass::Test, &[2, 4], 7).run(
            None,
            &mut PointCache::default(),
            |_| {},
        );
        let rep = report(&sc, &data);
        assert_eq!(rep.points, 8);
        assert_eq!(rep.failed, 0, "{}", data.render_table());
        assert!(rep.events > 0);
        assert!(rep.messages > 0);
        assert_eq!(rep.intervals, 0, "telemetry defaults off");
    }

    #[test]
    fn telemetry_flows_through_scenario_sweeps() {
        let sc = tiny("lib-telemetry");
        let spec = compile(&sc).unwrap();
        let config = SweepConfig {
            telemetry: Some(TelemetryConfig::every_us(50)),
            ..SweepConfig::default()
        };
        let sweep = Sweep {
            config,
            ..Sweep::new(spec, SizeClass::Test, &[2], 7)
        };
        let data = sweep.run(None, &mut PointCache::default(), |_| {});
        let rep = report(&sc, &data);
        assert_eq!(rep.failed, 0);
        assert!(rep.intervals > 0, "intervals must be recorded");
        let jsonl = data.to_telemetry_jsonl();
        assert!(jsonl.contains("\"kind\":\"interval\""));
        assert!(jsonl.contains("\"kind\":\"summary\""));
    }
}
