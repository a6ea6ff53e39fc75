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
//! ```
//! use spasm_core::sweep::{PointCache, Sweep};
//! use spasm_apps::SizeClass;
//!
//! let sc = spasm_scenario::parse("[scenario]\nname = demo\n[phase]\nkind = barrier\n")?;
//! let spec = spasm_scenario::compile(&sc)?;
//! let sweep = Sweep::new(spec, SizeClass::Test, &[2, 4], 42);
//! let data = sweep.run(None, &mut PointCache::default(), |_| {});
//! assert_eq!(data.failed_points(), 0);
//! println!("{}", data.render_table());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The generated workload is a pure function of `(scenario, seed)` —
//! see [`gen`](self) internals — so scenario sweeps inherit every
//! determinism guarantee of the built-in figures: byte-identical
//! output across `--jobs N`, journaled resume, sharded merge. The
//! scenario's canonical text is its durable identity: the compiled
//! app ([`spasm_apps::CustomApp`]) is compared by it and the sweep
//! fingerprint absorbs it, so journals and shards written under one
//! scenario definition refuse to mix with another.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod parse;

pub use parse::{limits, parse, render, ParseError};

use spasm_apps::{AppId, CustomApp};
use spasm_core::figures::{FigureSpec, Metric};
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
    /// Interconnect to simulate (`.scn`: `full | cube | mesh`).
    pub net: Net,
    /// Metric the compiled figure plots (`.scn`: `exec | latency |
    /// contention`).
    pub metric: Metric,
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
/// [`spasm_core::sweep`]. Its app is a [`CustomApp`] named `scn-<name>`
/// whose canonical text ([`render`]) is its identity and part of the
/// sweep fingerprint: two compiles of one definition give equal apps,
/// and an edited definition under the same name gives a different one,
/// whose journals and shards never mix with the first's.
///
/// Never fails: the `scn-` prefix keeps every id clear of the built-in
/// names, and a reused name is told apart by its text, not refused. Each
/// call leaks its spec and app, which then live for the whole process as
/// the built-in specs do.
pub fn compile(sc: &Scenario) -> Result<&'static FigureSpec, String> {
    let id: &'static str = Box::leak(format!("scn-{}", sc.name).into_boxed_str());
    let template = sc.clone();
    let app = CustomApp::new(id, render(sc), move |_size| {
        Box::new(gen::ScenarioApp {
            name: id,
            sc: template.clone(),
        })
    });
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
        app: AppId::Custom(Box::leak(Box::new(app))),
        net: sc.net,
        metric: sc.metric,
        machines: MACHINES,
        expect,
    })))
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

    /// The bundled BSP scenario's sweep at Test, p = 2 and 4, seed 5 —
    /// the shape of `journal::tests::fingerprint_stream_is_pinned_to_journals_already_on_disk`.
    fn bsp_sweep() -> Sweep<'static> {
        let sc = parse(include_str!("../../../examples/scenarios/bsp.scn")).unwrap();
        Sweep::new(compile(&sc).unwrap(), SizeClass::Test, &[2, 4], 5)
    }

    #[test]
    fn scenario_fingerprint_is_pinned_to_journals_already_on_disk() {
        // Computed while a compiled scenario was an index into a
        // process-global registry: the fingerprint absorbed its name and
        // canonical text then as now, so scenario journals and shards
        // written by older binaries still resume and merge.
        assert_eq!(bsp_sweep().fingerprint(), 0x46d9_b193_78de_0229);
    }

    #[test]
    fn compile_runs_through_the_figure_harness() {
        let sc = tiny("harness");
        let spec = compile(&sc).unwrap();
        assert_eq!(spec.id, "scn-harness");
        assert_eq!(spec.machines.len(), 4);
        let sweep = Sweep::new(spec, SizeClass::Test, &[2, 4], 7);

        // Compiling the same definition again gives the same app, so a
        // second sweep through one cache runs nothing and shares all 8.
        let again = Sweep::new(compile(&sc).unwrap(), SizeClass::Test, &[2, 4], 7);
        assert_eq!(again.spec.app, spec.app);
        let mut cache = PointCache::default();
        let data = sweep.run(None, &mut cache, |_| {});
        let mut fresh = 0;
        let shared = again.run(None, &mut cache, |_| fresh += 1);
        assert_eq!((fresh, cache.hits()), (0, 8));
        assert_eq!(shared.to_csv(), data.to_csv());

        // An edited definition under the same name is another app and
        // another sweep.
        let edited = compile(&Scenario { rounds: 3, ..sc }).unwrap();
        assert_eq!(edited.id, spec.id);
        assert_ne!(edited.app, spec.app);
        assert_ne!(
            Sweep {
                spec: edited,
                ..sweep
            }
            .fingerprint(),
            sweep.fingerprint()
        );

        assert_eq!(data.failed_points(), 0, "{}", data.render_table());
        let metrics: Vec<_> = data
            .series
            .iter()
            .flat_map(|s| s.metrics.iter().flatten())
            .collect();
        assert_eq!(metrics.len(), 8);
        assert!(metrics.iter().all(|m| m.events > 0));
        assert!(metrics.iter().any(|m| m.messages > 0));
        assert!(
            data.series
                .iter()
                .flat_map(|s| &s.telemetry)
                .all(Vec::is_empty),
            "telemetry defaults off"
        );
    }

    #[test]
    fn telemetry_flows_through_scenario_sweeps() {
        let spec = compile(&tiny("telemetry")).unwrap();
        let config = SweepConfig {
            telemetry: Some(TelemetryConfig::every_us(50)),
            ..SweepConfig::default()
        };
        let sweep = Sweep {
            config,
            ..Sweep::new(spec, SizeClass::Test, &[2], 7)
        };
        let data = sweep.run(None, &mut PointCache::default(), |_| {});
        assert_eq!(data.failed_points(), 0);
        let intervals: usize = data
            .series
            .iter()
            .flat_map(|s| &s.telemetry)
            .map(Vec::len)
            .sum();
        assert!(intervals > 0, "intervals must be recorded");
        let jsonl = data.to_telemetry_jsonl();
        assert!(jsonl.contains("\"kind\":\"interval\""));
        assert!(jsonl.contains("\"kind\":\"summary\""));
    }
}
