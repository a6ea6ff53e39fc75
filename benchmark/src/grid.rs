//! The three machine-grid workloads: one fixed grid of sweep points run
//! in-process on one machine characterization, timed from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use spasm_apps::{AppId, SizeClass};
use spasm_core::{Experiment, Machine, Net, RunMetrics, TelemetryConfig};
use spasm_journal::Fingerprint;
use spasm_machine::{CheckMode, Engine, EngineMode, MachineConfig, RunReport, SetupCtx};
use spasm_topology::Topology;

use crate::host;
use crate::layers::{self, Counts};
use crate::report::{fingerprint_metric, Report};
use crate::stats::{median, min_of, quantile_sorted};
use crate::trace::Recorder;

/// One grid point; the machine is the workload's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    pub app: AppId,
    pub net: Net,
    pub procs: usize,
}

/// The grid every machine workload runs. The issue's 69-point GRID,
/// shrunk in its stated order and then further until four or five
/// passes fit one run: first cholesky p = 16, then the cube network,
/// then (beyond the stated order) cholesky p = 8 and cholesky on the
/// mesh. One cholesky point costs 1.2–2 s at `SizeClass::Small`, half
/// as much as the other forty points together, and on this class of
/// host only the best of several passes is steady.
pub fn points() -> Vec<Point> {
    let mut out = Vec::new();
    for app in [AppId::Ep, AppId::Is, AppId::Cg, AppId::Fft] {
        for net in [Net::Full, Net::Mesh] {
            for procs in [2, 4, 8, 16, 32] {
                out.push(Point { app, net, procs });
            }
        }
    }
    out.push(Point {
        app: AppId::Cholesky,
        net: Net::Full,
        procs: 4,
    });
    out
}

/// The simulated (deterministic) outcome of one point: everything the
/// fingerprint and the accuracy rows are computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    pub exec_us: f64,
    pub latency_us: f64,
    pub contention_us: f64,
    pub messages: u64,
    pub bytes: u64,
    pub events: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl SimStats {
    pub fn of_metrics(m: &RunMetrics) -> SimStats {
        SimStats {
            exec_us: m.exec_us,
            latency_us: m.latency_us,
            contention_us: m.contention_us,
            messages: m.messages,
            bytes: m.bytes,
            events: m.events,
            cache_hits: m.cache_hits,
            cache_misses: m.cache_misses,
        }
    }

    fn of_report(r: &RunReport) -> SimStats {
        SimStats {
            exec_us: r.exec_time_us(),
            latency_us: r.latency_overhead_us(),
            contention_us: r.contention_overhead_us(),
            messages: r.summary.net_messages,
            bytes: r.summary.net_bytes,
            events: r.events,
            cache_hits: r.summary.cache_hits,
            cache_misses: r.summary.cache_misses,
        }
    }

    pub fn absorb(&self, fp: &mut Fingerprint) {
        fp.absorb_f64(self.exec_us);
        fp.absorb_f64(self.latency_us);
        fp.absorb_f64(self.contention_us);
        fp.absorb_u64(self.messages);
        fp.absorb_u64(self.bytes);
        fp.absorb_u64(self.events);
        fp.absorb_u64(self.cache_hits);
        fp.absorb_u64(self.cache_misses);
    }
}

/// Digest over every point's simulated outcome, in grid order. A failed
/// point absorbs a marker so it cannot alias a shorter grid.
pub fn sim_fingerprint(stats: &[Option<SimStats>]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.absorb_u64(stats.len() as u64);
    for s in stats {
        match s {
            Some(s) => s.absorb(&mut fp),
            None => fp.absorb_str("failed"),
        }
    }
    fp.finish()
}

fn experiment(pt: Point, machine: Machine, size: SizeClass, seed: u64) -> Experiment {
    Experiment {
        app: pt.app,
        size,
        net: pt.net,
        machine,
        procs: pt.procs,
        seed,
    }
}

/// One pass over the grid through `Experiment::run`, the call a user of
/// the library makes: per-point wall time and simulated outcome (`None`
/// = the point failed; it is counted, never panicked on). Times are in
/// reference seconds (see [`host::SyscallIndex`]), scaled by the index
/// sampled before the first and after every point of this pass.
pub struct Pass {
    pub wall_s: Vec<f64>,
    pub stats: Vec<Option<SimStats>>,
    pub cpu_s: f64,
    /// The pass as the clock saw it, unscaled, and the index it ran under.
    pub raw_wall_s: f64,
    pub yield_ns: f64,
}

pub fn run_pass(pts: &[Point], machine: Machine, size: SizeClass, seed: u64) -> Pass {
    let cpu0 = host::cpu_seconds().0;
    let mut index = host::SyscallIndex::default();
    index.sample();
    let mut wall_s = Vec::with_capacity(pts.len());
    let mut stats = Vec::with_capacity(pts.len());
    for &pt in pts {
        let exp = experiment(pt, machine, size, seed);
        let t = Instant::now();
        let outcome = exp.run();
        wall_s.push(t.elapsed().as_secs_f64());
        index.sample();
        match outcome {
            Ok(m) => stats.push(Some(SimStats::of_metrics(&m))),
            Err(e) => {
                eprintln!(
                    "FAILED {} {} p={} on {machine}: {e}",
                    pt.app, pt.net, pt.procs
                );
                stats.push(None);
            }
        }
    }
    let scale = index.scale();
    let raw_wall_s = wall_s.iter().sum();
    wall_s.iter_mut().for_each(|w| *w *= scale);
    Pass {
        wall_s,
        stats,
        cpu_s: (host::cpu_seconds().0 - cpu0) * scale,
        raw_wall_s,
        yield_ns: index.yield_ns(),
    }
}

/// Result of the timed phase: whole passes repeated while the next one
/// still fits the measuring time, reduced to per-pass figures.
pub struct Timed {
    pub passes: usize,
    /// Sum over points of the fastest (reference-second) wall time any
    /// pass saw for that point. What the syscall index leaves is bursts
    /// of interference, which only ever add time: the per-point minimum
    /// over passes spread across the run is what repeats (the repo's own
    /// `timewarp_speed` bench reports min-wall for the same reason).
    pub wall_s: f64,
    /// CPU seconds of the cheapest pass.
    pub cpu_s: f64,
    /// Unscaled wall seconds of the fastest pass, and the range of the
    /// syscall index over the passes: for the record line only.
    pub raw_wall_s: f64,
    pub yield_ns: (f64, f64),
    pub stats: Vec<Option<SimStats>>,
    /// Point runs that failed, over all passes.
    pub failed_runs: usize,
    /// Points whose outcome differed between two passes of one run.
    pub unstable_points: usize,
}

pub fn run_timed(
    pts: &[Point],
    machine: Machine,
    size: SizeClass,
    seed: u64,
    seconds: f64,
) -> Timed {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let t = Instant::now();
        passes.push(run_pass(pts, machine, size, seed));
        let last = t.elapsed().as_secs_f64();
        // Whole passes only, so every exact counter is a per-pass figure.
        if started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let fastest = |i: usize| min_of(passes.iter().map(|p| p.wall_s[i]));
    let first = &passes[0].stats;
    Timed {
        passes: passes.len(),
        wall_s: (0..pts.len()).map(fastest).sum(),
        cpu_s: min_of(passes.iter().map(|p| p.cpu_s)),
        raw_wall_s: min_of(passes.iter().map(|p| p.raw_wall_s)),
        yield_ns: (
            min_of(passes.iter().map(|p| p.yield_ns)),
            passes.iter().map(|p| p.yield_ns).fold(0.0, f64::max),
        ),
        stats: first.clone(),
        failed_runs: passes
            .iter()
            .flat_map(|p| &p.stats)
            .filter(|s| s.is_none())
            .count(),
        unstable_points: (0..pts.len())
            .filter(|&i| passes.iter().any(|p| p.stats[i] != first[i]))
            .count(),
    }
}

/// What the traced pipeline learns about one point beyond [`SimStats`].
#[derive(Debug, Clone, Copy)]
pub struct TracedPoint {
    pub stats: SimStats,
    /// Memory operations dispatched (`ProcStats::ops` summed): one
    /// coroutine rendezvous each.
    pub ops: u64,
    pub wall_ns: u64,
    /// Id of the point's span, the parent of its layer-replay spans.
    pub span: u32,
}

/// Runs one point through the same steps as `Experiment::run`, taken
/// apart so each layer boundary gets a span: app build, engine
/// construction, the event loop, the app's verifier. The traced and the
/// untraced pipeline must agree on every simulated statistic — the
/// caller compares fingerprints.
pub fn run_point_traced(
    rec: &mut Recorder,
    parent: u32,
    pt: Point,
    machine: Machine,
    size: SizeClass,
    seed: u64,
) -> Option<TracedPoint> {
    let span = rec.open(parent, "point");
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(SimStats, u64), String> {
        let topo = Topology::try_of_kind(pt.net.kind(), pt.procs).map_err(|e| e.to_string())?;
        let mut setup = SetupCtx::new(pt.procs);
        let built = rec.span(span, "apps.build", || {
            pt.app.instantiate(size).build(&mut setup, seed)
        });
        let mut engine = rec.span(span, "machine.engine_new", || {
            Engine::with_config(machine.kind(), &topo, machine.config(), setup, built.bodies)
        });
        let report = rec
            .span(span, "machine.run", || engine.run())
            .map_err(|e| e.to_string())?;
        rec.span(span, "apps.verify", || (built.verify)(&report.final_store))?;
        let ops = report.per_proc.iter().map(|p| p.ops).sum();
        Ok((SimStats::of_report(&report), ops))
    }));
    rec.close(span);
    let wall_ns = rec.spans()[span as usize - 1].dur_ns();
    match outcome {
        Ok(Ok((stats, ops))) => Some(TracedPoint {
            stats,
            ops,
            wall_ns,
            span,
        }),
        Ok(Err(e)) => {
            eprintln!(
                "FAILED {} {} p={} on {machine}: {e}",
                pt.app, pt.net, pt.procs
            );
            None
        }
        Err(_) => {
            eprintln!(
                "FAILED {} {} p={} on {machine}: panicked",
                pt.app, pt.net, pt.procs
            );
            None
        }
    }
}

/// Mean absolute percentage difference of `pick(model)` against
/// `pick(target)` over the points both completed with a non-zero target
/// value. "Error" here is always against the target *model*: the repo
/// holds no hardware measurements.
pub fn mean_abs_err_pct(
    model: &[Option<SimStats>],
    target: &[Option<SimStats>],
    pick: impl Fn(&SimStats) -> f64,
) -> f64 {
    let errs: Vec<f64> = model
        .iter()
        .zip(target)
        .filter_map(|(m, t)| {
            let (m, t) = (pick(m.as_ref()?), pick(t.as_ref()?));
            (t != 0.0).then(|| 100.0 * (m - t).abs() / t)
        })
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// The three main-series machines, in the order the derived rows use.
const MACHINES: [Machine; 3] = [Machine::Target, Machine::LogP, Machine::CLogP];

/// The untraced run: set-up, the timed phase, the end-to-end metrics.
pub fn run_untraced(machine: Machine, seed: u64, seconds: f64, size: SizeClass) -> Report {
    // Set-up is generating the point list and one warm-up pass at the
    // test size; it is done three times and the median reported, so a
    // later change that moves work into set-up shows here.
    let mut setups = Vec::new();
    let mut pts = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        pts = points();
        let generated = t.elapsed().as_secs_f64();
        let warm_up = run_pass(&pts, machine, SizeClass::Test, seed);
        setups.push(generated + warm_up.wall_s.iter().sum::<f64>());
    }
    let timed = run_timed(&pts, machine, size, seed, seconds);
    let events: u64 = timed.stats.iter().flatten().map(|s| s.events).sum();
    let mut r = Report {
        attempted: (pts.len() * timed.passes) as u64,
        failed: (timed.failed_runs + timed.unstable_points) as u64,
        ..Report::default()
    };
    r.put("setup_s", median(&mut setups));
    r.put("wall_s", timed.wall_s);
    r.put("events_per_s", events as f64 / timed.wall_s);
    r.put("cpu_s", timed.cpu_s);
    r.put("peak_rss_mb", host::peak_rss_mb("self"));
    r.note("points", pts.len());
    r.note("passes", timed.passes);
    r.note("raw_wall_s", format!("{:.4}", timed.raw_wall_s));
    r.note(
        "yield_ns",
        format!("{:.0}-{:.0}", timed.yield_ns.0, timed.yield_ns.1),
    );
    r.note("events", events);
    r.note(
        "sim_fingerprint",
        format!("{:016x}", sim_fingerprint(&timed.stats)),
    );
    r
}

/// Counts one extra run into `r`; its wall seconds and rollbacks if it
/// completed.
fn extra_run(r: &mut Report, exp: &Experiment, config: MachineConfig) -> Option<(f64, u64)> {
    let t = Instant::now();
    let out = exp.run_observed(config, None);
    let wall = t.elapsed().as_secs_f64();
    r.attempted += 1;
    match out {
        Ok((_, _, spec)) => Some((wall, spec.rollbacks)),
        Err(e) => {
            eprintln!(
                "FAILED {} {} p={} on {}: {e}",
                exp.app, exp.net, exp.procs, exp.machine
            );
            r.failed += 1;
            None
        }
    }
}

/// What the opt-in features cost, as wall ratios against a plain run, on
/// a fixed subset: cg and fft at p = 8 on the full network, all three
/// machines. Each point runs its four variants back to back, so a slow
/// host phase hits numerator and denominator alike.
fn opt_in_costs(r: &mut Report, size: SizeClass, seed: u64) {
    let edits: [fn(&mut MachineConfig); 4] = [
        |_| {},
        |c| c.check = CheckMode::On,
        |c| c.check = CheckMode::Strict,
        |c| c.telemetry = Some(TelemetryConfig::every_us(100)),
    ];
    let mut wall = [0.0f64; 4];
    for m in MACHINES {
        for app in [AppId::Cg, AppId::Fft] {
            let pt = Point {
                app,
                net: Net::Full,
                procs: 8,
            };
            let exp = experiment(pt, m, size, seed);
            let runs = edits.map(|edit| {
                let mut config = m.config();
                edit(&mut config);
                extra_run(r, &exp, config)
            });
            if let [Some(a), Some(b), Some(c), Some(d)] = runs {
                for (w, run) in wall.iter_mut().zip([a, b, c, d]) {
                    *w += run.0;
                }
            }
        }
    }
    if wall[0] > 0.0 {
        r.put("check.on_overhead_x", wall[1] / wall[0]);
        r.put("check.strict_overhead_x", wall[2] / wall[0]);
        r.put("machine.telemetry_overhead_x", wall[3] / wall[0]);
    }
}

/// Time Warp against the sequential engine on the two configurations
/// `timewarp_speed` names, back to back.
fn time_warp(r: &mut Report, size: SizeClass, seed: u64, workers: usize) {
    let (mut seq, mut opt, mut rollbacks) = (0.0, 0.0, 0u64);
    for (app, m) in [(AppId::Ep, Machine::CLogP), (AppId::Cg, Machine::Target)] {
        let pt = Point {
            app,
            net: Net::Full,
            procs: 4,
        };
        let exp = experiment(pt, m, size, seed);
        let mut speculative = m.config();
        speculative.engine = EngineMode::Optimistic { workers };
        let runs = [
            extra_run(r, &exp, m.config()),
            extra_run(r, &exp, speculative),
        ];
        if let [Some(a), Some(b)] = runs {
            seq += a.0;
            opt += b.0;
            rollbacks += b.1;
        }
    }
    if opt > 0.0 {
        r.put("machine.optimistic_speedup_x", seq / opt);
        r.put("machine.rollbacks", rollbacks as f64);
    }
}

/// The traced run: one pass per machine (the workload's own through the
/// span-recording pipeline), layer replays of every own-machine point,
/// the opt-in-cost ratios, and the fixed probes.
pub fn run_traced(
    machine: Machine,
    seed: u64,
    size: SizeClass,
    jobs: usize,
    scratch: &Path,
    rec: &mut Recorder,
) -> Report {
    let pts = points();
    run_pass(&pts, machine, SizeClass::Test, seed); // warm-up, as in the untraced run
    let mut r = Report::default();
    let root = rec.open(0, "workload");

    // One pass per machine over the identical points.
    let mut traced: Vec<Option<TracedPoint>> = Vec::new();
    let mut wall: Vec<Vec<f64>> = Vec::new();
    let mut stats: Vec<Vec<Option<SimStats>>> = Vec::new();
    for m in MACHINES {
        if m == machine {
            let mut index = host::SyscallIndex::default();
            index.sample();
            for &pt in &pts {
                traced.push(run_point_traced(rec, root, pt, m, size, seed));
                index.sample();
            }
            let scale = index.scale() / 1e9;
            wall.push(
                traced
                    .iter()
                    .map(|t| t.map_or(0.0, |t| t.wall_ns as f64 * scale))
                    .collect(),
            );
            stats.push(traced.iter().map(|t| t.map(|t| t.stats)).collect());
        } else {
            let pass = run_pass(&pts, m, size, seed);
            wall.push(pass.wall_s);
            stats.push(pass.stats);
        }
    }
    let own = MACHINES
        .iter()
        .position(|&m| m == machine)
        .expect("a main-series machine");
    r.attempted += (3 * pts.len()) as u64;
    r.failed += stats.iter().flatten().filter(|s| s.is_none()).count() as u64;

    // Tracing overhead and the traced-vs-untraced identity, on the forty
    // sub-second points (rerunning cholesky would cost a quarter of the
    // run for one more sample).
    let cheap: Vec<usize> = (0..pts.len())
        .filter(|&i| pts[i].app != AppId::Cholesky)
        .collect();
    let cheap_pts: Vec<Point> = cheap.iter().map(|&i| pts[i]).collect();
    let ctx0 = host::ctx_switches();
    let again = run_pass(&cheap_pts, machine, size, seed);
    let ctx_per_event = (host::ctx_switches() - ctx0) as f64
        / again
            .stats
            .iter()
            .flatten()
            .map(|s| s.events)
            .sum::<u64>()
            .max(1) as f64;
    let traced_cheap: f64 = cheap.iter().map(|&i| wall[own][i]).sum();
    r.put(
        "bench.trace_overhead_x",
        traced_cheap / again.wall_s.iter().sum::<f64>(),
    );
    r.attempted += 1;
    if cheap
        .iter()
        .zip(&again.stats)
        .any(|(&i, s)| stats[own][i] != *s)
    {
        eprintln!("MISMATCH traced and untraced pipelines disagree on {machine}");
        r.failed += 1;
    }
    r.put("desim.ctx_switches_per_event", ctx_per_event);

    // Layer replays: each own-machine point's exact counts.
    let mut ops = 0u64;
    for (pt, t) in pts.iter().zip(&traced) {
        let Some(t) = t else { continue };
        ops += t.ops;
        let counts = Counts {
            ops: t.ops,
            events: t.stats.events,
            messages: t.stats.messages,
            cache_hits: t.stats.cache_hits,
            cache_misses: t.stats.cache_misses,
        };
        layers::replay_point(rec, t.span, machine, pt.net, pt.procs, counts);
    }
    // Replays and point spans are both raw nanoseconds: shares need no index.
    let own_wall_ns: f64 = traced.iter().flatten().map(|t| t.wall_ns as f64).sum();
    let share = |rec: &Recorder, span: &str| rec.estimated_total_ns(span) / own_wall_ns;
    r.put("desim.rendezvous_share", share(rec, "desim.rendezvous"));
    r.put("desim.queue_share", share(rec, "desim.queue"));
    r.put("netsim.share", share(rec, "netsim.send"));
    r.put("logp.share", share(rec, "logp.acquire"));
    r.put("cachesim.share", share(rec, "cachesim.access"));
    r.put(
        "apps.build_share",
        rec.total_ns("apps.build") as f64 / own_wall_ns,
    );

    // Exact counters of the own-machine pass.
    let sum = |f: fn(&SimStats) -> u64| stats[own].iter().flatten().map(f).sum::<u64>();
    let (events, messages) = (sum(|s| s.events), sum(|s| s.messages));
    let (hits, misses) = (sum(|s| s.cache_hits), sum(|s| s.cache_misses));
    r.put("machine.events", events as f64);
    r.put("machine.ops", ops as f64);
    // Messages are the network's on the target and the gap tracker's on
    // the abstractions; the other layer is bypassed and reads exactly 0.
    let (net_messages, logp_messages) = match machine {
        Machine::Target => (messages, 0),
        _ => (0, messages),
    };
    r.put("netsim.messages", net_messages as f64);
    r.put("logp.messages", logp_messages as f64);
    r.put("cachesim.hits", hits as f64);
    r.put("cachesim.misses", misses as f64);
    r.put(
        "cachesim.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let fp = sim_fingerprint(&stats[own]);
    r.put("machine.sim_fingerprint", fingerprint_metric(fp));
    r.note("sim_fingerprint", format!("{fp:016x}"));

    // Point-level cost, 41 samples: p75 keeps ten beyond it.
    let per = |div: fn(&TracedPoint) -> u64| -> Vec<f64> {
        let mut v: Vec<f64> = traced
            .iter()
            .flatten()
            .map(|t| t.wall_ns as f64 / div(t).max(1) as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let per_event = per(|t| t.stats.events);
    if !per_event.is_empty() {
        r.put(
            "machine.point_ns_per_event_p50",
            quantile_sorted(&per_event, 0.50),
        );
        r.put(
            "machine.point_ns_per_event_p75",
            quantile_sorted(&per_event, 0.75),
        );
        r.put(
            "machine.point_ns_per_op_p50",
            quantile_sorted(&per(|t| t.ops), 0.50),
        );
    }

    // The paper's R5 and the abstractions' accuracy, side by side.
    let total = |m: usize| wall[m].iter().sum::<f64>();
    r.put("core.r5_clogp_over_target", total(2) / total(0));
    r.put("core.logp_over_target", total(1) / total(0));
    r.put(
        "core.clogp_exec_err_pct",
        mean_abs_err_pct(&stats[2], &stats[0], |s| s.exec_us),
    );
    r.put(
        "core.logp_exec_err_pct",
        mean_abs_err_pct(&stats[1], &stats[0], |s| s.exec_us),
    );
    r.put(
        "core.clogp_latency_err_pct",
        mean_abs_err_pct(&stats[2], &stats[0], |s| s.latency_us),
    );

    opt_in_costs(&mut r, size, seed);
    time_warp(&mut r, size, seed, jobs);
    rec.close(root);

    layers::probes(scratch, jobs, &mut r.metrics);
    r.note("points", pts.len());
    r.note("events", events);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(exec_us: f64, events: u64) -> SimStats {
        SimStats {
            exec_us,
            latency_us: 1.0,
            contention_us: 0.0,
            messages: 1,
            bytes: 8,
            events,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    #[test]
    fn grid_is_the_documented_41_points() {
        let pts = points();
        assert_eq!(pts.len(), 41);
        assert_eq!(pts.iter().filter(|p| p.app == AppId::Cholesky).count(), 1);
        assert!(pts.iter().all(|p| p.net != Net::Cube));
    }

    #[test]
    fn fingerprint_sees_every_field_and_failures() {
        let a = vec![Some(stat(1.0, 5)), Some(stat(2.0, 6))];
        let mut b = a.clone();
        assert_eq!(sim_fingerprint(&a), sim_fingerprint(&b));
        b[1] = Some(stat(2.0, 7));
        assert_ne!(sim_fingerprint(&a), sim_fingerprint(&b));
        b[1] = None;
        assert_ne!(sim_fingerprint(&a), sim_fingerprint(&b));
        assert_ne!(sim_fingerprint(&a), sim_fingerprint(&a[..1]));
    }

    #[test]
    fn error_is_mean_absolute_percent_over_shared_points() {
        let target = vec![Some(stat(100.0, 1)), Some(stat(200.0, 1)), None];
        let model = vec![
            Some(stat(110.0, 1)),
            Some(stat(180.0, 1)),
            Some(stat(1.0, 1)),
        ];
        assert_eq!(mean_abs_err_pct(&model, &target, |s| s.exec_us), 10.0);
        // A zero target value is skipped, not divided by.
        assert_eq!(mean_abs_err_pct(&model, &target, |s| s.contention_us), 0.0);
    }

    #[test]
    fn traced_and_untraced_pipelines_agree() {
        let pt = Point {
            app: AppId::Is,
            net: Net::Mesh,
            procs: 4,
        };
        for machine in [Machine::Target, Machine::LogP, Machine::CLogP] {
            let pass = run_pass(&[pt], machine, SizeClass::Test, 3);
            let mut rec = Recorder::new();
            let traced = run_point_traced(&mut rec, 0, pt, machine, SizeClass::Test, 3).unwrap();
            assert_eq!(pass.stats[0], Some(traced.stats), "{machine}");
            assert!(traced.ops > 0 && traced.ops <= traced.stats.events);
            let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                names,
                [
                    "point",
                    "apps.build",
                    "machine.engine_new",
                    "machine.run",
                    "apps.verify"
                ]
            );
        }
    }
}
