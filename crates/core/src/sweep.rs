//! Processor sweeps over a figure's series, with table/CSV rendering.
//!
//! A sweep is one value, [`Sweep`]: [`Sweep::run`] produces the figure
//! (under an optional [`SweepJournal`]), [`Sweep::run_shard`] one fleet
//! worker's slice of it, [`Sweep::fingerprint`] what a journal header
//! certifies, and [`crate::shard::merge_shards`] reassembles it.
//!
//! Sweeps are *resilient*: a failed point (invalid configuration,
//! exhausted budget, deadlock, wrong answer) is recorded as a
//! [`Outcome::Failed`] cell instead of aborting the whole figure. A
//! point runs exactly once: it is a pure function of its experiment and
//! the sweep's knobs, which is what [`Sweep::fingerprint`] certifies.
//!
//! Sweeps are also *parallel*: every (machine × procs) point is an
//! independent simulation, so [`SweepConfig::jobs`] hands the points to
//! the `spasm-exec` worker pool. Results are reassembled in submission
//! order, and each point's simulation is internally unchanged, so the
//! resulting [`FigureData`] — table, CSV, chart, metric bits — is
//! **byte-identical** to a serial sweep of the same seeds.
//!
//! And sweeps *share*: the paper's 22 figures name 60 (app, net, machine)
//! series of which 31 are distinct, so whoever sweeps several figures
//! passes one [`PointCache`] to all of them and each distinct point is
//! simulated once. A verdict therefore has three sources — the figure's
//! journal, the cache, a run — and which one served it changes no byte of
//! any rendering or journal.

use std::collections::HashMap;
use std::time::Duration;

use spasm_apps::SizeClass;
use spasm_exec::{execute, ExecConfig, JobOutput};
use spasm_machine::{CheckMode, FaultPlan, IntervalRecord, RunBudget, TelemetryConfig};

use crate::figures::{FigureSpec, Metric};
use crate::journal::SweepJournal;
use crate::{Experiment, ExperimentError, Machine, RunMetrics};

/// One figure's regenerated data: `values[series][point]` aligned with
/// `procs[point]`.
#[derive(Debug)]
pub struct FigureData {
    /// The figure this data regenerates.
    pub spec: FigureSpec,
    /// Processor counts swept.
    pub procs: Vec<usize>,
    /// Series, in `spec.machines` order.
    pub series: Vec<Series>,
}

/// One machine's curve.
#[derive(Debug)]
pub struct Series {
    /// The machine simulated.
    pub machine: Machine,
    /// The plotted metric at each processor count; `NaN` for failed
    /// points (renderers show `FAILED`, never a bogus number).
    pub values: Vec<f64>,
    /// Full metrics (for secondary analysis); `None` for failed points.
    pub metrics: Vec<Option<RunMetrics>>,
    /// Per-point outcome, aligned with `values`.
    pub outcomes: Vec<Outcome>,
    /// Per-point interval telemetry, aligned with `values` (empty vectors
    /// unless [`SweepConfig::telemetry`] was set; always empty for failed
    /// points).
    pub telemetry: Vec<Vec<IntervalRecord>>,
}

/// What happened at one sweep point.
#[derive(Debug)]
pub enum Outcome {
    /// The run completed and verified.
    Ok,
    /// The point failed.
    Failed {
        /// Why the point failed.
        error: ExperimentError,
    },
}

impl Outcome {
    /// True for a completed point.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }
}

/// Sweep-level resilience knobs, applied on top of each machine's own
/// configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Deterministic fault plan injected into every run (`None` for a
    /// healthy sweep).
    pub faults: Option<FaultPlan>,
    /// Resource budget per run; an exceeded budget fails the point, not
    /// the figure.
    pub budget: RunBudget,
    /// Worker count for the sweep's point executor: `1` (the default)
    /// runs inline on the calling thread, `0` means one worker per host
    /// hardware thread, `n > 1` spawns `n` OS workers. Output is
    /// byte-identical across all settings.
    pub jobs: usize,
    /// Online invariant checking applied to every run. A violated
    /// invariant fails the point without failing the figure.
    pub check: CheckMode,
    /// Streaming interval telemetry applied to every run. `None` (the
    /// default) collects nothing. Telemetry is outcome-affecting for
    /// journaling purposes — the records ride in the journal — so it
    /// enters the sweep fingerprint, unlike `jobs`.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            faults: None,
            budget: RunBudget::UNLIMITED,
            jobs: 1,
            check: CheckMode::Off,
            telemetry: None,
        }
    }
}

impl SweepConfig {
    /// A default-resilience config that runs points on `jobs` workers.
    pub fn parallel(jobs: usize) -> Self {
        SweepConfig {
            jobs,
            ..SweepConfig::default()
        }
    }

    /// The outcome-affecting knobs — `faults`, `budget`, `check`,
    /// `telemetry` — as the renderings [`Sweep::fingerprint`] absorbs and
    /// [`PointCache`] keys on. `jobs` decides when a point runs, never
    /// what it computes, so it appears in neither.
    pub(crate) fn outcome_knobs(&self) -> [String; 4] {
        [
            format!("{:?}", self.faults),
            self.budget.fingerprint_text(),
            format!("{:?}", self.check),
            format!("{:?}", self.telemetry),
        ]
    }
}

/// What a cached point was computed from: the experiment and
/// [`SweepConfig::outcome_knobs`].
type PointKey = (Experiment, [String; 4]);

/// Completed points remembered across the figures of one invocation, so a
/// point several figures plot (F3 and F12 are the same fifteen runs read
/// through different metrics) is simulated once.
///
/// A value its caller owns, never a global: whoever sweeps figures that
/// may share points passes one cache to all of them, and everyone else
/// passes a fresh empty one. Only [`Outcome::Ok`] verdicts enter it —
/// a failure re-runs under the next figure as it would alone. The key is
/// content: the [`Experiment`] (a compiled scenario's app compares by its
/// name and canonical text, the same two strings [`Sweep::fingerprint`]
/// absorbs) plus the four outcome-affecting [`SweepConfig`] knobs,
/// exactly as the fingerprint absorbs them.
#[derive(Debug, Clone, Default)]
pub struct PointCache {
    points: HashMap<PointKey, (RunMetrics, Vec<IntervalRecord>)>,
    hits: usize,
}

impl PointCache {
    /// Verdicts served from the cache so far, over every sweep it was
    /// passed to: points that neither ran nor replayed from a journal.
    pub fn hits(&self) -> usize {
        self.hits
    }

    fn get(&mut self, key: &PointKey) -> Option<PointVerdict> {
        let (m, telemetry) = self.points.get(key)?;
        self.hits += 1;
        Some(Ok((*m, telemetry.clone())))
    }

    fn insert(&mut self, key: PointKey, verdict: &PointVerdict) {
        if let Ok((m, telemetry)) = verdict {
            self.points.insert(key, (*m, telemetry.clone()));
        }
    }
}

/// Extracts a figure's plotted metric from run metrics.
pub fn extract(metric: Metric, m: &RunMetrics) -> f64 {
    match metric {
        Metric::Latency => m.latency_us,
        Metric::Contention => m.contention_us,
        Metric::ExecTime => m.exec_us,
        Metric::Events => m.events as f64,
    }
}

/// One figure sweep as a value: what is swept (`spec`), at which size,
/// over which processor counts, from which seed, under which
/// [`SweepConfig`]. Everything that runs, journals, shards or merges a
/// sweep takes one of these, so the run that appends to a journal and
/// the header that certifies it cannot name different sweeps. Variants
/// derive by struct update: `Sweep { seed: 6, ..base }`.
#[derive(Debug, Clone, Copy)]
pub struct Sweep<'a> {
    /// The figure swept.
    pub spec: &'a FigureSpec,
    /// Problem size class of every point.
    pub size: SizeClass,
    /// Processor counts swept.
    pub procs: &'a [usize],
    /// Base seed of every point.
    pub seed: u64,
    /// Resilience and scheduling knobs.
    pub config: SweepConfig,
}

/// What one shard worker's pass over its points amounted to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRunReport {
    /// Points the shard contract assigns to this worker.
    pub owned: usize,
    /// Owned points replayed from the journal without simulating.
    pub replayed: usize,
    /// Owned points taken from the [`PointCache`] (and journaled) without
    /// simulating; `owned == replayed + shared + fresh`.
    pub shared: usize,
    /// Owned points simulated (and journaled) by this pass.
    pub fresh: usize,
    /// Owned points whose verdict — replayed or fresh — is a failure.
    pub failed: usize,
}

/// One point's verdict: replayed from a journal, shared through a
/// [`PointCache`], or fresh from a run.
pub(crate) type PointVerdict = Result<(RunMetrics, Vec<IntervalRecord>), ExperimentError>;

impl<'a> Sweep<'a> {
    /// The sweep of `spec` under default resilience settings (no faults,
    /// no budget, serial).
    pub fn new(spec: &'a FigureSpec, size: SizeClass, procs: &'a [usize], seed: u64) -> Self {
        Sweep {
            spec,
            size,
            procs,
            seed,
            config: SweepConfig::default(),
        }
    }

    /// Runs the full processor sweep. Never fails as a whole: each point
    /// runs once and carries its own [`Outcome`], and
    /// [`SweepConfig::jobs`] sizes the worker pool.
    ///
    /// Points are submitted series-major (every processor count of the
    /// first machine, then the second, …), exactly the serial iteration
    /// order, and results are reassembled by submission index, so the
    /// returned [`FigureData`] does not depend on scheduling. `observe`
    /// hears the wall time of every point that ran, on the calling thread.
    ///
    /// Under a `journal`, points it already holds are replayed without
    /// simulating (and without entering the executor, so the observer
    /// sees only fresh points), and every freshly completed point is
    /// committed — by this thread, never by the worker that ran it (see
    /// [`SweepJournal`]) — before `observe` hears it finished and before
    /// anything is assembled. Kill this at any moment
    /// and re-run with a resumed journal: the final [`FigureData`] is
    /// byte-identical to an uninterrupted sweep. Points lost to the crash
    /// itself are *not* journaled, so a resume re-runs them, as it does
    /// the few that finished while the last commit was in flight.
    ///
    /// Points `cache` already holds do not run either: they are appended
    /// to *this* sweep's journal under one commit, so the journal ends up
    /// holding every point of its figure whoever simulated it, and every
    /// point this sweep completes (or replays) enters `cache` for the next.
    /// Pass `&mut PointCache::default()` to share nothing.
    ///
    /// # Panics
    ///
    /// If `journal` was opened for a sweep with a different
    /// [`Sweep::fingerprint`] (see [`SweepJournal::open`]).
    pub fn run(
        &self,
        journal: Option<&SweepJournal>,
        cache: &mut PointCache,
        observe: impl FnMut(Duration),
    ) -> FigureData {
        let (verdicts, _) = self.points(journal, cache, |_| true, observe);
        let mut verdicts = verdicts.into_iter();
        FigureData::assemble(self, |_, _, _| {
            verdicts.next().expect("one verdict per grid point")
        })
    }

    /// Runs only the points shard `shard` owns (see
    /// [`crate::shard::ShardSpec::owns`]): one worker process's slice of a
    /// fleet-wide figure sweep.
    ///
    /// No [`FigureData`] is assembled — a shard's output *is* its journal,
    /// which [`crate::shard::merge_shards`] later reassembles byte-identically
    /// to a serial run. Kill this worker at any moment and re-run it with a
    /// resumed journal: completed points replay, the rest re-run, and the
    /// shard converges on the same records. `cache` shares points between
    /// the figures one worker sweeps, as in [`Sweep::run`].
    ///
    /// # Panics
    ///
    /// As [`Sweep::run`], on a journal opened for another sweep.
    pub fn run_shard(
        &self,
        shard: crate::shard::ShardSpec,
        journal: &SweepJournal,
        cache: &mut PointCache,
        observe: impl FnMut(Duration),
    ) -> ShardRunReport {
        let hits_before = cache.hits();
        let (verdicts, fresh) = self.points(Some(journal), cache, |i| shard.owns(i), observe);
        let shared = cache.hits() - hits_before;
        ShardRunReport {
            owned: verdicts.len(),
            replayed: verdicts.len() - shared - fresh,
            shared,
            fresh,
            failed: verdicts.iter().filter(|v| v.is_err()).count(),
        }
    }

    /// The sweep's full point grid in series-major (= serial iteration)
    /// order: every processor count of the first machine, then the second,
    /// …. The enumeration index of this order is the *point index* the
    /// shard contract ([`crate::shard::ShardSpec::owns`]) partitions.
    fn grid(&self) -> Vec<(Machine, Experiment)> {
        self.spec
            .machines
            .iter()
            .flat_map(|&machine| {
                self.procs.iter().map(move |&p| {
                    (
                        machine,
                        Experiment {
                            app: self.spec.app,
                            size: self.size,
                            net: self.spec.net,
                            machine,
                            procs: p,
                            seed: self.seed,
                        },
                    )
                })
            })
            .collect()
    }

    /// The one sweep path under both [`Sweep::run`] and
    /// [`Sweep::run_shard`]: of the grid points `owns` selects (by point
    /// index), those the journal already holds are replayed, those `cache`
    /// holds are shared (and journaled), and the rest run on the executor.
    /// Returns one verdict per owned point in grid order, and how many of
    /// them ran fresh.
    fn points(
        &self,
        journal: Option<&SweepJournal>,
        cache: &mut PointCache,
        owns: impl Fn(usize) -> bool,
        mut observe: impl FnMut(Duration),
    ) -> (Vec<PointVerdict>, usize) {
        // The header certifies what every record under it was computed
        // from; `jobs` is outside the fingerprint, so a resume may still
        // change it.
        if let Some(j) = journal {
            assert!(
                j.fingerprint() == self.fingerprint(),
                "journal opened for sweep {:#018x} cannot serve sweep {:#018x}",
                j.fingerprint(),
                self.fingerprint()
            );
        }
        // Series-major order, minus the points already known: submission
        // indices — and thus results — stay deterministic for a fixed
        // replay set. A known point never enters the executor, so it
        // consumes no result slot.
        let knobs = self.config.outcome_knobs();
        let mut points = Vec::new();
        let mut hits = Vec::new();
        let mut pending = Vec::new();
        for (i, (machine, exp)) in self.grid().into_iter().enumerate() {
            if !owns(i) {
                continue;
            }
            let key = (exp, knobs.clone());
            let known = match journal.and_then(|j| j.lookup(machine, exp.procs)) {
                Some(replayed) => {
                    cache.insert(key, &replayed);
                    Some(replayed)
                }
                None => {
                    let hit = cache.get(&key);
                    match &hit {
                        Some(_) => hits.push(points.len()),
                        None => pending.push((machine, exp)),
                    }
                    hit
                }
            };
            points.push((exp, known));
        }
        // One commit for all of this figure's hits, before anything runs:
        // a hit costs nothing to compute, so a commit apiece would be most
        // of what sharing saves.
        if let Some(j) = journal {
            for &at in &hits {
                let (exp, hit) = &points[at];
                j.enqueue(
                    exp.machine,
                    exp.procs,
                    hit.as_ref().expect("a hit holds its verdict"),
                );
            }
            j.drain();
        }
        let fresh = pending.len();
        let report = execute(
            ExecConfig::with_jobs(self.config.jobs),
            pending,
            |_, (machine, exp)| journaled_point(journal, self.config, machine, &exp),
            // This thread is the journal's only committer. It wakes on every
            // event, and a point is enqueued before its wall time is sent,
            // so each commit takes whatever finished during the last one;
            // inline (`jobs <= 1`) events arrive synchronously and that is
            // one commit per point, before the next point starts.
            |wall| {
                if let Some(j) = journal {
                    j.drain();
                }
                observe(wall);
            },
        );
        // `execute` has joined its workers, so whatever finished is
        // enqueued, and after this drain nothing is left waiting whatever
        // the events did: nothing below runs on an undurable point.
        if let Some(j) = journal {
            j.drain();
        }
        // Back on the calling thread: no worker ever touches the cache.
        let mut slots = report.results.into_iter();
        let verdicts = points
            .into_iter()
            .map(|(exp, known)| {
                known.unwrap_or_else(|| {
                    let point = slots
                        .next()
                        .expect("one result slot per point that had to run");
                    cache.insert((exp, knobs.clone()), &point);
                    point
                })
            })
            .collect();
        (verdicts, fresh)
    }
}

/// Remnant of the positional entry points: [`Sweep::run`] under a journal,
/// sharing nothing. Stays because `benchmark/src/fleet.rs::load` calls it;
/// goes when that stops.
pub fn run_figure_journaled(
    spec: &FigureSpec,
    size: SizeClass,
    procs: &[usize],
    seed: u64,
    config: SweepConfig,
    journal: &SweepJournal,
    observe: impl FnMut(Duration),
) -> FigureData {
    Sweep {
        spec,
        size,
        procs,
        seed,
        config,
    }
    .run(Some(journal), &mut PointCache::default(), observe)
}

/// Runs one submitted point on a worker and hands its verdict to the
/// journal's backlog; the submitting thread commits it (see
/// [`SweepJournal::drain`]) before the result becomes visible to the
/// caller.
fn journaled_point(
    journal: Option<&SweepJournal>,
    sweep: SweepConfig,
    machine: Machine,
    exp: &Experiment,
) -> JobOutput<PointVerdict> {
    let verdict = run_point(exp, machine, sweep);
    if let Some(j) = journal {
        j.enqueue(machine, exp.procs, &verdict);
    }
    JobOutput::plain(verdict)
}

/// Runs one sweep point, once: the machine's own configuration under the
/// sweep's knobs. Shared verbatim by the serial and parallel paths (the
/// executor calls it from worker threads).
fn run_point(exp: &Experiment, machine: Machine, sweep: SweepConfig) -> PointVerdict {
    let mut config = machine.config();
    config.budget = sweep.budget;
    config.check = sweep.check;
    config.telemetry = sweep.telemetry;
    config.faults = sweep.faults;
    exp.run_observed(config, None)
        .map(|(m, telemetry, _spec)| (m, telemetry))
}

/// Renders a JSON string literal (quotes, backslashes, and control
/// characters escaped — the only classes our identifier-like names could
/// ever smuggle in).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Flattens an error rendering into one CSV cell: commas and newlines
/// become `;` so the row structure survives any failure message.
fn csv_sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| match c {
            ',' | '\n' | '\r' => ';',
            c => c,
        })
        .collect()
}

impl FigureData {
    /// Builds the figure of `sweep` from one verdict per grid point:
    /// `verdict_of(machine, procs, point index)` is asked series-major,
    /// the order a serial sweep runs in.
    pub(crate) fn assemble(
        sweep: &Sweep<'_>,
        mut verdict_of: impl FnMut(Machine, usize, usize) -> PointVerdict,
    ) -> FigureData {
        let mut index = 0;
        let mut series = Vec::with_capacity(sweep.spec.machines.len());
        for &machine in sweep.spec.machines {
            let mut values = Vec::with_capacity(sweep.procs.len());
            let mut metrics = Vec::with_capacity(sweep.procs.len());
            let mut outcomes = Vec::with_capacity(sweep.procs.len());
            let mut telemetry = Vec::with_capacity(sweep.procs.len());
            for &p in sweep.procs {
                let (outcome, m, intervals) = match verdict_of(machine, p, index) {
                    Ok((m, intervals)) => (Outcome::Ok, Some(m), intervals),
                    Err(error) => (Outcome::Failed { error }, None, Vec::new()),
                };
                index += 1;
                values.push(
                    m.as_ref()
                        .map_or(f64::NAN, |m| extract(sweep.spec.metric, m)),
                );
                metrics.push(m);
                outcomes.push(outcome);
                telemetry.push(intervals);
            }
            series.push(Series {
                machine,
                values,
                metrics,
                outcomes,
                telemetry,
            });
        }
        FigureData {
            spec: *sweep.spec,
            procs: sweep.procs.to_vec(),
            series,
        }
    }

    /// Number of failed points across all series.
    pub fn failed_points(&self) -> usize {
        self.series
            .iter()
            .flat_map(|s| s.outcomes.iter())
            .filter(|o| !o.is_ok())
            .count()
    }

    /// Renders the figure as an aligned text table (the harness's
    /// stand-in for the paper's plots). Failed points render as `FAILED`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{}: {} on {} — {}\n  expect: {}\n",
            self.spec.id, self.spec.app, self.spec.net, self.spec.metric, self.spec.expect
        ));
        out.push_str(&format!("  {:>6}", "procs"));
        for s in &self.series {
            out.push_str(&format!(" {:>14}", s.machine.to_string()));
        }
        out.push('\n');
        for (i, &p) in self.procs.iter().enumerate() {
            out.push_str(&format!("  {p:>6}"));
            for s in &self.series {
                let v = s.values[i];
                if v.is_finite() {
                    out.push_str(&format!(" {v:>14.2}"));
                } else {
                    out.push_str(&format!(" {:>14}", "FAILED"));
                }
            }
            out.push('\n');
        }
        let failed = self.failed_points();
        if failed > 0 {
            out.push_str(&format!("  ({failed} point(s) FAILED)\n"));
        }
        out
    }

    /// Renders the figure as CSV
    /// (`figure,app,net,metric,procs,machine,value,reason`). Failed
    /// points emit the literal `FAILED` so downstream consumers fail
    /// loudly instead of silently plotting `NaN` as zero, and carry the
    /// failure's rendering in the `reason` column (empty for completed
    /// points) so salvaged partial figures stay machine-readable.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("figure,app,net,metric,procs,machine,value,reason\n");
        for s in &self.series {
            for (i, &p) in self.procs.iter().enumerate() {
                let v = s.values[i];
                let cell = if v.is_finite() {
                    v.to_string()
                } else {
                    "FAILED".to_string()
                };
                let reason = match &s.outcomes[i] {
                    Outcome::Ok => String::new(),
                    Outcome::Failed { error, .. } => csv_sanitize(&error.to_string()),
                };
                out.push_str(&format!(
                    "{},{},{},{:?},{},{},{},{}\n",
                    self.spec.id,
                    self.spec.app,
                    self.spec.net,
                    self.spec.metric,
                    p,
                    s.machine,
                    cell,
                    reason
                ));
            }
        }
        out
    }

    /// Renders the figure's interval telemetry as JSONL (schema `"v":1`):
    /// per point, in series-major order, one `"kind":"interval"` line per
    /// non-empty sim-time bucket followed by one `"kind":"summary"` line.
    /// Every field is simulation-deterministic and fields render in a
    /// fixed order, so the output is byte-identical across `--jobs`
    /// settings, journaled resume, and shard merges of the same sweep.
    ///
    /// Empty unless the sweep ran with [`SweepConfig::telemetry`] set
    /// (failed points still contribute their summary line).
    pub fn to_telemetry_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.series {
            for (i, &p) in self.procs.iter().enumerate() {
                let point = format!(
                    "\"figure\":{},\"app\":{},\"net\":{},\"machine\":{},\"procs\":{p}",
                    json_str(self.spec.id),
                    json_str(&self.spec.app.to_string()),
                    json_str(&self.spec.net.to_string()),
                    json_str(&s.machine.to_string()),
                );
                let intervals = &s.telemetry[i];
                if intervals.is_empty() && s.outcomes[i].is_ok() {
                    // Telemetry was off for this sweep: no lines at all.
                    continue;
                }
                for r in intervals {
                    out.push_str(&format!(
                        "{{\"v\":1,\"kind\":\"interval\",{point},\"i\":{},\"t0_ns\":{},\"t1_ns\":{},\"events\":{},\"queue\":{},\"busy_ns\":{},\"mem_ns\":{},\"comm_ns\":{},\"sync_ns\":{},\"cache_hits\":{},\"cache_misses\":{},\"faults\":{}}}\n",
                        r.index,
                        r.t0_ns,
                        r.t1_ns,
                        r.events,
                        r.queue_depth,
                        r.busy_ns,
                        r.mem_ns,
                        r.comm_ns,
                        r.sync_ns,
                        r.cache_hits,
                        r.cache_misses,
                        r.faults,
                    ));
                }
                let events: u64 = intervals.iter().map(|r| r.events).sum();
                let peak_queue = intervals.iter().map(|r| r.queue_depth).max().unwrap_or(0);
                let (exec_us, outcome) = match (&s.outcomes[i], &s.metrics[i]) {
                    (Outcome::Ok, Some(m)) => (m.exec_us.to_string(), "ok"),
                    _ => ("null".to_string(), "failed"),
                };
                out.push_str(&format!(
                    "{{\"v\":1,\"kind\":\"summary\",{point},\"intervals\":{},\"events\":{events},\"exec_us\":{exec_us},\"peak_queue\":{peak_queue},\"outcome\":\"{outcome}\"}}\n",
                    intervals.len(),
                ));
            }
        }
        out
    }

    /// The series for `machine`, if present.
    pub fn series_for(&self, machine: Machine) -> Option<&Series> {
        self.series.iter().find(|s| s.machine == machine)
    }

    /// Renders the figure as an ASCII chart (the closest a terminal gets
    /// to the paper's plots): y is the metric on a linear scale from zero
    /// to the maximum observed value, x is the processor sweep, one glyph
    /// per series. Failed points show as `?` on the baseline.
    ///
    /// Intended for eyeballing curve *shapes*; exact values are in
    /// [`FigureData::render_table`].
    pub fn render_chart(&self, height: usize) -> String {
        const GLYPHS: [char; 5] = ['T', 'L', 'C', 'P', 'G'];
        let height = height.max(4);
        let max = self
            .series
            .iter()
            .flat_map(|s| s.values.iter().copied())
            .filter(|v| v.is_finite())
            .fold(0.0f64, f64::max);
        let mut out = String::new();
        out.push_str(&format!(
            "{}: {} on {} — {} (0..{max:.0})\n",
            self.spec.id, self.spec.app, self.spec.net, self.spec.metric
        ));
        if max <= 0.0 {
            out.push_str("  (all values zero)\n");
            return out;
        }
        // Column per sweep point, 6 chars wide.
        let col_w = 7;
        let mut grid = vec![vec![' '; self.procs.len() * col_w]; height];
        for (si, s) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for (pi, &v) in s.values.iter().enumerate() {
                let c = pi * col_w + col_w / 2;
                if !v.is_finite() {
                    // Failed point: a question mark on the baseline.
                    grid[height - 1][c] = '?';
                    continue;
                }
                let row = ((v / max) * (height - 1) as f64).round() as usize;
                let r = height - 1 - row.min(height - 1);
                // Overlapping points show the later series' glyph with a
                // '*' marker to flag the collision.
                grid[r][c] = if grid[r][c] == ' ' { glyph } else { '*' };
            }
        }
        for row in grid {
            out.push_str("  |");
            out.extend(row);
            out.push('\n');
        }
        out.push_str("  +");
        out.push_str(&"-".repeat(self.procs.len() * col_w));
        out.push('\n');
        out.push_str("   ");
        for &p in &self.procs {
            out.push_str(&format!("{p:^col_w$}"));
        }
        out.push('\n');
        out.push_str("  key:");
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!(" {}={}", GLYPHS[si % GLYPHS.len()], s.machine));
        }
        out.push_str("  (*=overlap, ?=failed)\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use crate::journal::tests::sample_metrics;
    use crate::Net;
    use spasm_apps::AppId;
    use spasm_journal::RealVfs;
    use spasm_testkit::{check_with, gens, prop_assert_eq, Config};
    use std::sync::Arc;

    /// `sweep` on its own: no journal, nothing shared, nobody watching.
    fn alone(sweep: Sweep<'_>) -> FigureData {
        sweep.run(None, &mut PointCache::default(), |_| {})
    }

    #[test]
    fn small_sweep_produces_aligned_data() {
        let spec = figures::by_id("F1").unwrap();
        let data = alone(Sweep::new(spec, SizeClass::Test, &[2, 4], 5));
        assert_eq!(data.procs, vec![2, 4]);
        assert_eq!(data.series.len(), 3);
        assert_eq!(data.failed_points(), 0);
        for s in &data.series {
            assert_eq!(s.values.len(), 2);
            assert_eq!(s.metrics.len(), 2);
            assert_eq!(s.outcomes.len(), 2);
            assert!(s.values.iter().all(|v| v.is_finite()));
            assert!(s.metrics.iter().all(|m| m.is_some()));
            assert!(s.outcomes.iter().all(|o| o.is_ok()));
        }
    }

    #[test]
    fn table_and_csv_render() {
        let spec = figures::by_id("F12").unwrap();
        let data = alone(Sweep::new(spec, SizeClass::Test, &[2], 5));
        let table = data.render_table();
        assert!(table.contains("F12"));
        assert!(table.contains("target"));
        assert!(!table.contains("FAILED"));
        let csv = data.to_csv();
        assert_eq!(csv.lines().count(), 1 + 3); // header + 3 series x 1 p
        assert!(csv.contains("F12,ep,full"));
    }

    #[test]
    fn chart_renders_axes_key_and_points() {
        let spec = figures::by_id("F12").unwrap();
        let data = alone(Sweep::new(spec, SizeClass::Test, &[2, 4], 5));
        let chart = data.render_chart(8);
        assert!(chart.contains("F12"));
        assert!(chart.contains("T=target"));
        assert!(chart.contains("L=logp"));
        // Axis row lists the sweep points.
        assert!(chart.contains('2') && chart.contains('4'));
        // Max point must sit on the top row of the plot area.
        let plot_rows: Vec<&str> = chart.lines().filter(|l| l.starts_with("  |")).collect();
        assert_eq!(plot_rows.len(), 8);
        assert!(
            plot_rows[0].chars().any(|c| c != ' ' && c != '|'),
            "top row should carry the maximum: {chart}"
        );
    }

    #[test]
    fn chart_handles_all_zero_series() {
        let spec = figures::FigureSpec {
            id: "Z",
            app: AppId::Ep,
            net: Net::Full,
            metric: Metric::Contention,
            machines: &[Machine::Pram],
            expect: "zeros",
        };
        let data = alone(Sweep::new(&spec, SizeClass::Test, &[2], 1));
        assert!(data.render_chart(6).contains("all values zero"));
    }

    #[test]
    fn series_lookup() {
        let spec = figures::FigureSpec {
            id: "T",
            app: AppId::Ep,
            net: Net::Full,
            metric: Metric::ExecTime,
            machines: &[Machine::Pram, Machine::Target],
            expect: "test",
        };
        let data = alone(Sweep::new(&spec, SizeClass::Test, &[2], 1));
        assert!(data.series_for(Machine::Pram).is_some());
        assert!(data.series_for(Machine::LogP).is_none());
        // PRAM is the ideal-time floor.
        let pram = data.series_for(Machine::Pram).unwrap().values[0];
        let target = data.series_for(Machine::Target).unwrap().values[0];
        assert!(pram <= target);
    }

    #[test]
    fn invalid_point_fails_without_dropping_healthy_points() {
        // p = 3 is not a power of two: that single point must fail with a
        // Config error while 2 and 4 survive in every series.
        let spec = figures::FigureSpec {
            id: "R",
            app: AppId::Ep,
            net: Net::Full,
            metric: Metric::ExecTime,
            machines: &[Machine::Pram, Machine::Target],
            expect: "one failed column",
        };
        let data = alone(Sweep::new(&spec, SizeClass::Test, &[2, 3, 4], 1));
        assert_eq!(data.failed_points(), 2); // one per series
        for s in &data.series {
            assert!(s.values[0].is_finite());
            assert!(s.values[1].is_nan());
            assert!(s.values[2].is_finite());
            match &s.outcomes[1] {
                Outcome::Failed { error } => {
                    assert!(matches!(error, ExperimentError::Config(_)), "{error}");
                }
                other => panic!("expected Failed outcome, got {other:?}"),
            }
        }
        let table = data.render_table();
        assert!(table.contains("FAILED"), "{table}");
        let csv = data.to_csv();
        assert!(csv.contains(",3,pram,FAILED"), "{csv}");
        let chart = data.render_chart(6);
        assert!(chart.contains('?'), "{chart}");
    }

    #[test]
    fn a_faulted_point_runs_once_under_the_sweep_seed() {
        // Under an adversarial plan a swept point — completed, and FAILED
        // by a starved budget — is exactly a direct run under the plan's
        // own seed: nothing reseeds it, and nothing runs it twice.
        let spec = figures::FigureSpec {
            id: "B",
            app: AppId::Ep,
            net: Net::Full,
            metric: Metric::ExecTime,
            machines: &[Machine::Target],
            expect: "one run per point",
        };
        let faults = Some(FaultPlan::adversarial(7));
        for budget in [RunBudget::UNLIMITED, RunBudget::events(3)] {
            let sweep = Sweep {
                config: SweepConfig {
                    faults,
                    budget,
                    ..SweepConfig::default()
                },
                ..Sweep::new(&spec, SizeClass::Test, &[2], 1)
            };
            let mut ran = 0;
            let data = sweep.run(None, &mut PointCache::default(), |_| ran += 1);
            assert_eq!(ran, 1);
            let exp = sweep.grid()[0].1;
            let mut config = Machine::Target.config();
            config.faults = faults;
            config.budget = budget;
            let direct = exp.run_with_config(config);
            let series = &data.series[0];
            match (&series.outcomes[0], direct) {
                (Outcome::Ok, Ok(m)) => {
                    let swept = series.metrics[0].expect("an Ok point carries metrics");
                    assert!(m.faults_injected > 0, "the plan injected nothing");
                    assert_eq!(swept.exec_us.to_bits(), m.exec_us.to_bits());
                    assert_eq!(
                        (swept.events, swept.faults_injected),
                        (m.events, m.faults_injected)
                    );
                }
                (Outcome::Failed { error }, Err(e)) => {
                    assert!(
                        matches!(
                            error,
                            ExperimentError::Run(spasm_machine::RunError::BudgetExceeded { .. })
                        ),
                        "{error}"
                    );
                    assert_eq!(error.to_string(), e.to_string());
                }
                (swept, direct) => panic!("{budget:?}: swept {swept:?}, direct {direct:?}"),
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let spec = figures::by_id("F1").unwrap();
        let sweep = Sweep::new(spec, SizeClass::Test, &[2, 4], 5);
        let serial = alone(sweep);
        let parallel = Sweep {
            config: SweepConfig::parallel(4),
            ..sweep
        }
        .run(None, &mut PointCache::default(), |_| {});
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(serial.render_table(), parallel.render_table());
        assert_eq!(serial.render_chart(10), parallel.render_chart(10));
        for (a, b) in serial.series.iter().zip(&parallel.series) {
            for (va, vb) in a.values.iter().zip(&b.values) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{}", a.machine);
            }
        }
    }

    #[test]
    fn parallel_sweep_reports_failed_points_like_serial() {
        // p = 3 fails in both paths, in the same cell, with the same
        // typed error.
        let spec = figures::FigureSpec {
            id: "RP",
            app: AppId::Ep,
            net: Net::Full,
            metric: Metric::ExecTime,
            machines: &[Machine::Pram, Machine::Target],
            expect: "one failed column, both paths",
        };
        let sweep = Sweep::new(&spec, SizeClass::Test, &[2, 3, 4], 1);
        let serial = alone(sweep);
        let parallel = Sweep {
            config: SweepConfig::parallel(3),
            ..sweep
        }
        .run(None, &mut PointCache::default(), |_| {});
        assert_eq!(serial.to_csv(), parallel.to_csv());
        assert_eq!(parallel.failed_points(), 2);
    }

    #[test]
    fn observer_sees_every_point_of_a_parallel_sweep() {
        use std::cell::RefCell;
        let spec = figures::by_id("F12").unwrap();
        let finished = RefCell::new(0usize);
        let sweep = Sweep {
            config: SweepConfig::parallel(2),
            ..Sweep::new(spec, SizeClass::Test, &[2, 4], 5)
        };
        let data = sweep.run(None, &mut PointCache::default(), |_| {
            *finished.borrow_mut() += 1;
        });
        assert_eq!(*finished.borrow(), data.series.len() * data.procs.len());
    }

    /// One (experiment, config) pair picked by eleven binary choices: the
    /// ten dimensions a point's outcome depends on, then `jobs`.
    fn pick(c: &[usize]) -> (Experiment, SweepConfig) {
        let exp = Experiment {
            app: [AppId::Ep, AppId::Fft][c[0]],
            size: [SizeClass::Test, SizeClass::Small][c[1]],
            net: [Net::Full, Net::Mesh][c[2]],
            machine: [Machine::Target, Machine::CLogP][c[3]],
            procs: [2, 4][c[4]],
            seed: [5, 6][c[5]],
        };
        let config = SweepConfig {
            faults: [None, Some(FaultPlan::quiet(7))][c[6]],
            budget: [RunBudget::UNLIMITED, RunBudget::events(3)][c[7]],
            check: [CheckMode::Off, CheckMode::On][c[8]],
            telemetry: [None, Some(TelemetryConfig::every_us(100))][c[9]],
            jobs: [1, 4][c[10]],
        };
        (exp, config)
    }

    #[test]
    fn two_points_share_a_cache_entry_iff_their_outcomes_must_agree() {
        // A pair and up to two of its eleven choices flipped (11 = none),
        // so a good share of the cases differ in nothing that matters.
        let cases = gens::tuple3(
            gens::vecs(gens::usizes(0..2), 11..12),
            gens::usizes(0..12),
            gens::usizes(0..12),
        );
        let config = Config {
            cases: 256,
            ..Config::default()
        };
        let f1 = figures::by_id("F1").unwrap();
        check_with(config, "point_cache_key", &cases, |(a, f1st, f2nd)| {
            let mut b = a.clone();
            for flip in [*f1st, *f2nd].into_iter().filter(|&f| f < 11) {
                b[flip] ^= 1;
            }
            let ((exp_a, config_a), (exp_b, config_b)) = (pick(a), pick(&b));
            let verdict = Ok((sample_metrics(), Vec::new()));
            let mut cache = PointCache::default();
            cache.insert((exp_a, config_a.outcome_knobs()), &verdict);
            let served = cache.get(&(exp_b, config_b.outcome_knobs())).is_some();
            prop_assert_eq!(served, a[..10] == b[..10], "{:?} served {:?}", a, b);
            prop_assert_eq!(cache.hits(), usize::from(served));

            // The key's config half and the journal fingerprint move
            // together: what a header certifies is what may be shared.
            let of = |config| Sweep {
                config,
                ..Sweep::new(f1, SizeClass::Test, &[2], 5)
            };
            prop_assert_eq!(
                of(config_a).fingerprint() == of(config_b).fingerprint(),
                config_a.outcome_knobs() == config_b.outcome_knobs(),
                "fingerprint and key disagree on {:?} vs {:?}",
                config_a,
                config_b
            );
            Ok(())
        });
    }

    /// Sweeps F3 then F12 — the same fifteen-point series read through two
    /// metrics — through one cache, returning F12's data and how many
    /// points each figure ran.
    fn f3_then_f12(config: SweepConfig, cache: &mut PointCache) -> (FigureData, [usize; 2]) {
        let mut ran = [0usize; 2];
        let mut last = None;
        for (i, id) in ["F3", "F12"].into_iter().enumerate() {
            let sweep = Sweep {
                config,
                ..Sweep::new(figures::by_id(id).unwrap(), SizeClass::Test, &[2, 4], 5)
            };
            last = Some(sweep.run(None, cache, |_| ran[i] += 1));
        }
        (last.expect("two figures swept"), ran)
    }

    #[test]
    fn a_completed_point_runs_once_and_a_failed_one_under_every_figure() {
        let mut cache = PointCache::default();
        let (f12, ran) = f3_then_f12(SweepConfig::default(), &mut cache);
        assert_eq!(ran, [6, 0], "F12 plots the six points F3 ran");
        assert_eq!(cache.hits(), 6);
        assert_eq!(f12.failed_points(), 0);

        // Nothing survives three events: no verdict is `Ok`, so none is
        // cached and F12 runs every point again, as it would alone.
        let starved = SweepConfig {
            budget: RunBudget::events(3),
            ..SweepConfig::default()
        };
        let mut cache = PointCache::default();
        let (f12, ran) = f3_then_f12(starved, &mut cache);
        assert_eq!(ran, [6, 6]);
        assert_eq!(cache.hits(), 0);
        assert_eq!(f12.failed_points(), 6);
    }

    /// A fresh scratch path for one journaling test.
    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spasm-sweep-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}-{name}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn journaled_sweep_matches_plain_and_replays_without_simulating() {
        let spec = figures::by_id("F1").unwrap();
        let sweep = Sweep::new(spec, SizeClass::Test, &[2, 4], 5);
        let plain = alone(sweep);
        let path = scratch("f1");

        // First journaled run: identical output, every point recorded.
        let j = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, false).unwrap();
        let first = sweep.run(Some(&j), &mut PointCache::default(), |_| {});
        assert!(j.io_error().is_none());
        assert_eq!(first.to_csv(), plain.to_csv());
        drop(j);

        // Resume over the complete journal — through the two remnants,
        // called exactly as `benchmark/src/fleet.rs::load` calls them:
        // zero fresh simulations, and still byte-identical tables and CSV.
        let config = SweepConfig::default();
        let r = SweepJournal::resume(&path, spec, SizeClass::Test, &[2, 4], 5, &config).unwrap();
        assert_eq!(r.replayed(), spec.machines.len() * 2);
        let mut fresh = 0usize;
        let resumed = run_figure_journaled(spec, SizeClass::Test, &[2, 4], 5, config, &r, |_| {
            fresh += 1;
        });
        assert_eq!(fresh, 0, "a complete journal must replay every point");
        assert_eq!(resumed.to_csv(), plain.to_csv());
        assert_eq!(resumed.render_table(), plain.render_table());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commits_are_one_per_fresh_point_when_serial_and_no_more_with_workers() {
        // F3 runs six points, F12 takes all six from the cache: serial,
        // that is six commits and one; with workers a commit may take
        // several points, and either way both journals end up whole.
        for jobs in [1, 4] {
            let vfs = Arc::new(spasm_journal::FaultVfs::pristine());
            let mut cache = PointCache::default();
            let mut commits = Vec::new();
            for id in ["F3", "F12"] {
                let sweep = Sweep {
                    config: SweepConfig::parallel(jobs),
                    ..Sweep::new(figures::by_id(id).unwrap(), SizeClass::Test, &[2, 4], 5)
                };
                let j = SweepJournal::open(vfs.clone(), id, &sweep, false).unwrap();
                sweep.run(Some(&j), &mut cache, |_| {});
                assert!(j.io_error().is_none());
                commits.push(j.commits());
                drop(j);
                let whole = SweepJournal::open(vfs.clone(), id, &sweep, true).unwrap();
                assert_eq!(whole.replayed(), 6, "{id} at jobs={jobs}");
            }
            if jobs == 1 {
                assert_eq!(commits, [6, 1]);
            } else {
                assert!((1..=6).contains(&commits[0]), "{commits:?}");
                assert_eq!(commits[1], 1);
            }
        }
    }

    #[test]
    fn a_journal_refuses_a_sweep_it_was_not_opened_for() {
        let spec = figures::by_id("F1").unwrap();
        let sweep = Sweep::new(spec, SizeClass::Test, &[2, 4], 5);
        let path = scratch("refusal");
        let j = SweepJournal::open(Arc::new(RealVfs), &path, &sweep, false).unwrap();

        // Another seed is another sweep: its points must not land under
        // this header, so the run panics before simulating anything.
        let other = Sweep { seed: 6, ..sweep };
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.run(Some(&j), &mut PointCache::default(), |_| {})
        }));
        let payload = refused.expect_err("a journal of seed 5 served a sweep of seed 6");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        for fp in [sweep.fingerprint(), other.fingerprint()] {
            assert!(message.contains(&format!("{fp:#018x}")), "{message}");
        }
        let on_disk = spasm_journal::Journal::read(&path, sweep.fingerprint()).unwrap();
        assert!(on_disk.records.is_empty(), "the refused sweep journaled");

        // `jobs` is outside the fingerprint: same sweep.
        let rescheduled = Sweep {
            config: SweepConfig::parallel(4),
            ..sweep
        };
        let data = rescheduled.run(Some(&j), &mut PointCache::default(), |_| {});
        assert!(j.io_error().is_none());
        assert_eq!(data.to_csv(), alone(sweep).to_csv());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn csv_reason_column_carries_the_failure_sanitized() {
        let spec = figures::FigureSpec {
            id: "RC",
            app: AppId::Ep,
            net: Net::Full,
            metric: Metric::ExecTime,
            machines: &[Machine::Pram],
            expect: "reason column",
        };
        let data = alone(Sweep::new(&spec, SizeClass::Test, &[2, 3], 1));
        let csv = data.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "figure,app,net,metric,procs,machine,value,reason"
        );
        let ok_row = lines.next().unwrap();
        assert!(
            ok_row.ends_with(','),
            "ok rows carry an empty reason: {ok_row}"
        );
        let failed_row = lines.next().unwrap();
        assert!(failed_row.contains(",3,pram,FAILED,"), "{failed_row}");
        assert!(failed_row.contains("invalid configuration"), "{failed_row}");
        // Rows stay 8 columns even though error renderings may contain
        // commas (sanitized to ';').
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), 8, "{line}");
        }
        assert_eq!(csv_sanitize("a,b\nc"), "a;b;c");
    }

    #[test]
    fn faulted_sweep_is_deterministic_per_fault_seed() {
        let spec = figures::by_id("F12").unwrap();
        let config = SweepConfig {
            faults: Some(FaultPlan::adversarial(11)),
            ..SweepConfig::default()
        };
        let sweep = Sweep {
            config,
            ..Sweep::new(spec, SizeClass::Test, &[2], 5)
        };
        let a = alone(sweep);
        let b = alone(sweep);
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(
                sa.values[0].to_bits(),
                sb.values[0].to_bits(),
                "{}",
                sa.machine
            );
        }
    }
}
