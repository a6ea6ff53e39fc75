//! Regenerates every figure of the paper's evaluation section.
//!
//! The command line is [`Cli`]: its flag table decides what each mode
//! reads, and a usage error prints [`USAGE`] and exits 2. Sweep points
//! run on the `spasm-exec` worker pool — one worker per host hardware
//! thread by default (`--jobs auto`), inline under `--serial` — with
//! byte-identical output either way. Figures that plot the same (app,
//! net, machine) points — F3 and F12, say — share them: each distinct
//! point is simulated once per invocation. Tables, charts and `wrote`
//! lines go to stdout; per-series run times, where each figure's points
//! came from and every failed point go to stderr.
//!
//! `--journal PATH` records every completed point in a durable per-figure
//! journal (`PATH.<figure-id>`); after a crash or SIGKILL the same command
//! with `--resume` replays completed points, runs only the rest, and
//! prints byte-identical stdout. `--shard K/N` journals only shard K's
//! points under `DIR/<figure>.shard-K-of-N.journal`; `--merge DIR`
//! reassembles any set of shard journals into stdout byte-identical to a
//! serial run, quarantining corrupt or mismatched shards and degrading
//! points no surviving shard covers to FAILED rows.
//!
//! Exit codes are the [`Exit`] enum; when several apply, the largest
//! wins.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spasm_apps::SizeClass;
use spasm_bench::{Cli, Mode, Study, USAGE};
use spasm_core::figures;
use spasm_core::journal::SweepJournal;
use spasm_core::shard::{merge_shards, ShardError, ShardSpec};
use spasm_core::sweep::{FigureData, Outcome, PointCache, Sweep};
use spasm_core::ExperimentError;
use spasm_exec::ExecConfig;
use spasm_journal::RealVfs;

/// Every exit code of the binary. Ordered by severity: a run that meets
/// several reports the largest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Exit {
    /// Every requested point completed and every output was written.
    Clean = 0,
    /// An `--ablation` study's simulation failed.
    Ablation = 1,
    /// Bad flags, an unknown figure or ablation, an unreadable scenario.
    Usage = 2,
    /// Points failed but partial figures were salvaged.
    Salvaged = 3,
    /// A journal's fingerprint rejects this configuration.
    Mismatch = 4,
    /// Journal, CSV or telemetry I/O failure, or journal corruption.
    Io = 5,
    /// Two shards claim the same point with different results — a
    /// determinism failure nothing should paper over.
    Overlap = 6,
}

impl From<Exit> for ExitCode {
    fn from(e: Exit) -> ExitCode {
        ExitCode::from(e as u8)
    }
}

/// Runs one of the extension studies (EXPERIMENTS.md A2–A4) and prints
/// its table, or stops at the first typed simulation error. `jobs` sizes
/// the worker pool for each study's independent runs (executor
/// convention: 0 = auto, 1 = serial).
fn run_ablation(study: Study, jobs: usize) -> Result<(), ExperimentError> {
    use spasm_apps::AppId;
    use spasm_core::ablation;
    use spasm_core::Net;

    let started = Instant::now();
    match study {
        Study::G => {
            println!("A2: traffic-aware g on the 8-processor mesh (test size)\n");
            println!(
                "{:>9} {:>9} {:>12} {:>12} {:>12}",
                "app", "crossing", "target (us)", "naive (us)", "aware (us)"
            );
            for app in AppId::ALL {
                let s = ablation::traffic_aware_g(app, SizeClass::Test, Net::Mesh, 8, 1995, jobs)?;
                println!(
                    "{:>9} {:>8.0}% {:>12.1} {:>12.1} {:>12.1}",
                    app.to_string(),
                    100.0 * s.crossing_fraction,
                    s.target.contention_us,
                    s.naive.contention_us,
                    s.aware.contention_us,
                );
            }
        }
        Study::Protocol => {
            println!("A3: coherence-protocol sensitivity on the target (full, p=8)\n");
            println!(
                "{:>9} {:>14} {:>18} {:>8}",
                "app", "berkeley (us)", "wb-on-read (us)", "gap"
            );
            for app in AppId::ALL {
                let s =
                    ablation::protocol_sensitivity(app, SizeClass::Test, Net::Full, 8, 1995, jobs)?;
                println!(
                    "{:>9} {:>14.1} {:>18.1} {:>7.1}%",
                    app.to_string(),
                    s.berkeley.exec_us,
                    s.write_back_on_read.exec_us,
                    100.0 * s.exec_gap(),
                );
            }
        }
        Study::Cache => {
            println!("A4: cache working-set sweep on the target (full, p=8)\n");
            print!("{:>9}", "app");
            for &cap in ablation::CACHE_SWEEP {
                print!(" {:>9}KiB", cap / 1024);
            }
            println!();
            for app in AppId::ALL {
                let points = ablation::cache_working_set(
                    app,
                    SizeClass::Test,
                    Net::Full,
                    8,
                    1995,
                    ablation::CACHE_SWEEP,
                    jobs,
                )?;
                print!("{:>9}", app.to_string());
                for p in points {
                    print!(" {:>12.1}", p.metrics.exec_us);
                }
                println!();
            }
            println!("\n(cells: execution time in us)");
        }
    }
    eprintln!(
        "ablation {}: elapsed {:.1?} ({})",
        study.name(),
        started.elapsed(),
        jobs_label(jobs)
    );
    Ok(())
}

/// Human label for a `--jobs` setting.
fn jobs_label(jobs: usize) -> String {
    if jobs == 0 {
        format!("jobs=auto({})", spasm_exec::available_parallelism())
    } else {
        format!("jobs={jobs}")
    }
}

/// The one way a journal is used: open it for `sweep` (mapping each
/// failure class onto its exit code), report a repaired torn tail, hand
/// it to `pass`, then report what the pass did to its durability.
/// Returns `pass`'s value, how many commits it took
/// ([`SweepJournal::commits`]) and whether the journal stopped persisting.
fn with_journal<T>(
    jpath: &str,
    sweep: &Sweep<'_>,
    resume: bool,
    pass: impl FnOnce(&SweepJournal) -> T,
) -> Result<(T, usize, bool), Exit> {
    let id = sweep.spec.id;
    let journal = SweepJournal::open(Arc::new(RealVfs), jpath, sweep, resume).map_err(|e| {
        eprintln!("journal {jpath}: {e}");
        if matches!(
            e,
            spasm_core::journal::ResumeError::Journal(
                spasm_journal::JournalError::AlreadyExists { .. }
            )
        ) {
            eprintln!("(pass --resume to continue the interrupted sweep)");
        }
        if e.is_fingerprint_mismatch() {
            Exit::Mismatch
        } else {
            Exit::Io
        }
    })?;
    if journal.repaired_bytes() > 0 {
        eprintln!(
            "{id}: journal {jpath}: dropped a {}-byte torn tail",
            journal.repaired_bytes()
        );
    }
    let value = pass(&journal);
    let stopped = journal.io_error();
    if let Some(e) = &stopped {
        eprintln!(
            "{id}: warning: journal {jpath} stopped persisting ({e}); \
             points after that will re-run on resume"
        );
    }
    if let Some(w) = journal.dir_sync_warning() {
        eprintln!("{id}: warning: {w}");
    }
    Ok((value, journal.commits(), stopped.is_some()))
}

/// What every mode that renders figures does after the sweep: print
/// each figure, name its failed points, collect the CSV and telemetry
/// rows, write the requested files, and settle the exit code.
struct Output {
    csv: String,
    jsonl: String,
    failed_points: usize,
}

impl Output {
    fn new() -> Self {
        Output {
            csv: String::from("figure,app,net,metric,procs,machine,value,reason\n"),
            jsonl: String::new(),
            failed_points: 0,
        }
    }

    /// Table (and chart) to stdout, every failed point to stderr — a
    /// failure never aborts the remaining figures.
    fn figure(&mut self, data: &FigureData, chart: bool) {
        println!("{}", data.render_table());
        if chart {
            println!("{}", data.render_chart(12));
        }
        for s in &data.series {
            for (i, outcome) in s.outcomes.iter().enumerate() {
                if let Outcome::Failed { error } = outcome {
                    self.failed_points += 1;
                    eprintln!(
                        "{}: p={} {}: FAILED: {error}",
                        data.spec.id, data.procs[i], s.machine
                    );
                }
            }
        }
        // Append all but the shared header line.
        for line in data.to_csv().lines().skip(1) {
            self.csv.push_str(line);
            self.csv.push('\n');
        }
        self.jsonl.push_str(&data.to_telemetry_jsonl());
    }

    /// Writes `--csv` and `--telemetry` (both are attempted even if the
    /// first fails) and folds what happened into `worst`.
    fn finish(self, cli: &Cli, mut worst: Exit) -> ExitCode {
        for (path, bytes) in [(&cli.csv, &self.csv), (&cli.telemetry, &self.jsonl)] {
            let Some(path) = path else { continue };
            match std::fs::File::create(path).and_then(|mut f| f.write_all(bytes.as_bytes())) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    worst = worst.max(Exit::Io);
                }
            }
        }
        if self.failed_points > 0 {
            eprintln!(
                "{} point(s) failed (partial figures salvaged)",
                self.failed_points
            );
            worst = worst.max(Exit::Salvaged);
        }
        worst.into()
    }
}

/// Worker mode: run only `shard`'s points of each requested figure into
/// `DIR/<figure>.shard-K-of-N.journal`. Prints nothing to stdout — the
/// journal is the shard's entire output, so a merge over the directory
/// is the only way results become visible, and killing this process at
/// any instant costs the points in flight plus those that finished during
/// the commit in flight (none, at `--serial`).
fn run_shard(
    cli: &Cli,
    sweeps: &[Sweep<'_>],
    shard: ShardSpec,
    dir: &str,
    resume: bool,
) -> ExitCode {
    if let Some(path) = &cli.telemetry {
        eprintln!(
            "shard {shard}: interval records ride in the shard journals; \
             {path} will be written by the --merge invocation"
        );
    }
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create journal directory {dir}: {e}");
        return Exit::Io.into();
    }
    let started = Instant::now();
    let mut worst = Exit::Clean;
    let mut cache = PointCache::default();
    for sweep in sweeps {
        let id = sweep.spec.id;
        let jpath = std::path::Path::new(dir)
            .join(shard.file_name(id))
            .display()
            .to_string();
        let pass = with_journal(&jpath, sweep, resume, |journal| {
            sweep.run_shard(shard, journal, &mut cache, |_| {})
        });
        let (report, commits, stopped) = match pass {
            Ok(p) => p,
            Err(code) => return worst.max(code).into(),
        };
        eprintln!(
            "{id} shard {shard}: {} owned, {} replayed, {} shared, {} fresh, {} failed, \
             {commits} commits",
            report.owned, report.replayed, report.shared, report.fresh, report.failed
        );
        if stopped {
            // Unlike the single-process journaled path, a shard has no
            // stdout to fall back on: a journal that stopped persisting
            // means the work is simply not done.
            worst = worst.max(Exit::Io);
        }
        if report.failed > 0 {
            worst = worst.max(Exit::Salvaged);
        }
    }
    eprintln!(
        "shard {shard}: {} figure(s) in {:.1?} ({})",
        sweeps.len(),
        started.elapsed(),
        jobs_label(cli.config.jobs)
    );
    worst.into()
}

/// Merge mode: reassemble per-shard journals under `dir` into stdout
/// byte-identical to a serial run, quarantining what cannot be trusted
/// and salvaging partial figures from what can.
fn run_merge(cli: &Cli, sweeps: &[Sweep<'_>], dir: &str) -> ExitCode {
    let mut out = Output::new();
    let mut worst = Exit::Clean;
    for sweep in sweeps {
        let id = sweep.spec.id;
        let report = match merge_shards(&RealVfs, std::path::Path::new(dir), sweep) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{id}: merge {dir}: {e}");
                return worst
                    .max(match e {
                        ShardError::Overlap { .. } => Exit::Overlap,
                        _ => Exit::Io,
                    })
                    .into();
            }
        };
        eprintln!(
            "{id}: merged {} shard journal(s): {} point(s), {} duplicate(s) deduped",
            report.shards_merged, report.points_merged, report.duplicates
        );
        for (path, bytes) in &report.torn {
            eprintln!(
                "{id}: {}: tolerated a {bytes}-byte torn tail",
                path.display()
            );
        }
        for q in &report.quarantined {
            eprintln!("{id}: quarantined shard: {q}");
            worst = worst.max(match q {
                ShardError::FingerprintMismatch { .. } => Exit::Mismatch,
                _ => Exit::Io,
            });
        }
        if report.missing_points > 0 {
            eprintln!(
                "{id}: {} point(s) not covered by any surviving shard",
                report.missing_points
            );
        }
        out.figure(&report.data, cli.chart);
    }
    out.finish(cli, worst)
}

/// Sweep mode: run every requested figure (under its `--journal`, when
/// one is given) and render it. Timing goes to stderr: the stdout stream
/// stays parseable (tables/CSV only) and byte-identical across `--jobs`
/// settings and `--resume`.
fn run_sweeps(cli: &Cli, sweeps: &[Sweep<'_>], journal: Option<&(String, bool)>) -> ExitCode {
    let total_started = Instant::now();
    let mut total_busy = Duration::ZERO;
    let (mut total_points, mut total_fresh) = (0usize, 0usize);
    let mut out = Output::new();
    // One cache for the invocation: a point an earlier figure completed
    // is not simulated again.
    let mut cache = PointCache::default();
    for sweep in sweeps {
        let id = sweep.spec.id;
        let started = Instant::now();
        // Only fresh points enter the executor (the rest are replayed or
        // shared), so its events time what this invocation itself simulated
        // — and nothing else: a worker never commits to the journal, so a
        // point's wall holds no disk time. Summed over wall time that is how
        // many workers were busy simulating, not a speedup: two points at
        // once on two contended vCPUs each run slower than one alone.
        let mut fresh = 0usize;
        let fresh_points = |wall| {
            fresh += 1;
            total_busy += wall;
        };
        let shared_before = cache.hits();
        // Under a journal, how the fresh points were batched: one commit
        // each at `--serial` (plus one for all the shared), fewer with
        // workers, where a commit takes whatever finished during the last.
        let mut commits = None;
        let data = match journal {
            None => sweep.run(None, &mut cache, fresh_points),
            Some((base, resume)) => {
                let jpath = format!("{base}.{id}");
                let pass = with_journal(&jpath, sweep, *resume, |journal| {
                    sweep.run(Some(journal), &mut cache, fresh_points)
                });
                // A journal that stopped persisting costs nothing here:
                // the results are complete in memory and on stdout.
                match pass {
                    Ok((data, n, _stopped)) => {
                        commits = Some(n);
                        data
                    }
                    Err(code) => return code.into(),
                }
            }
        };
        // Every completed point carries the wall time of the one run that
        // produced it — journaled with it, cached with it — so these sums
        // hold for replayed and shared points too, and name a run once per
        // figure that plots it. What this invocation simulated is `total:`.
        for s in &data.series {
            let busy: Duration = s.metrics.iter().flatten().map(|m| m.wall).sum();
            eprintln!(
                "{id}: series {}: {busy:.1?} of recorded run time across {} point(s)",
                s.machine,
                data.procs.len()
            );
        }
        let points = data.series.len() * data.procs.len();
        let shared = cache.hits() - shared_before;
        let replayed = points - fresh - shared;
        eprintln!(
            "{id}: swept in {:.1?} ({fresh} fresh, {replayed} replayed, {shared} shared, {}{})",
            started.elapsed(),
            commits.map_or(String::new(), |n| format!("{n} commits, ")),
            jobs_label(cli.config.jobs)
        );
        total_points += points;
        total_fresh += fresh;
        out.figure(&data, cli.chart);
    }
    let total_wall = total_started.elapsed();
    eprintln!(
        "total: {} figure(s), {} point(s) ({} fresh, {} replayed, {} shared), \
         {:.1?} simulated in {:.1?} wall ({:.1} of {} workers busy, {})",
        sweeps.len(),
        total_points,
        total_fresh,
        total_points - total_fresh - cache.hits(),
        cache.hits(),
        total_busy,
        total_wall,
        total_busy.as_secs_f64() / total_wall.as_secs_f64().max(1e-9),
        ExecConfig::with_jobs(cli.config.jobs).resolved_workers(usize::MAX),
        jobs_label(cli.config.jobs)
    );
    out.finish(cli, Exit::Clean)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return Exit::Usage.into();
        }
    };
    // One sweep value per requested figure; every mode below takes these.
    let sweeps: Vec<Sweep<'_>> = cli
        .figures
        .iter()
        .map(|&spec| Sweep {
            spec,
            size: cli.size,
            procs: &cli.procs,
            seed: cli.seed,
            config: cli.config,
        })
        .collect();
    match &cli.mode {
        Mode::List => {
            for f in figures::FIGURES {
                println!(
                    "{:>3}  {:8} {:4} {:24} {}",
                    f.id,
                    f.app.to_string(),
                    f.net.to_string(),
                    f.metric.to_string(),
                    f.expect
                );
            }
            Exit::Clean.into()
        }
        Mode::Ablation(study) => match run_ablation(*study, cli.config.jobs) {
            Ok(()) => Exit::Clean.into(),
            Err(e) => {
                eprintln!("ablation {} failed: {e}", study.name());
                Exit::Ablation.into()
            }
        },
        Mode::Sweep { journal } => run_sweeps(&cli, &sweeps, journal.as_ref()),
        Mode::Shard { shard, dir, resume } => run_shard(&cli, &sweeps, *shard, dir, *resume),
        Mode::Merge { dir } => run_merge(&cli, &sweeps, dir),
    }
}
