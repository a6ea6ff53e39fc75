//! Regenerates every figure of the paper's evaluation section.
//!
//! The synopsis is [`USAGE`], printed on any usage error. `--all`,
//! `--figure ID` (repeatable) and `--scenario FILE` pick what to sweep,
//! each id once in first-mention order; `--list` alone prints the figure
//! ids; `--ablation g|protocol|cache` runs one of the extension studies
//! (EXPERIMENTS.md A2–A4) instead of a sweep, at the size, p and seed it
//! fixes itself, so it takes no flag but `--jobs` / `--serial`. A flag a
//! mode would ignore is refused by name, and so is a one-value flag given
//! twice (`--serial` and `--jobs` set one value, as do the two checks, so
//! `--serial --serial` is refused too; `--chart`, `--resume`, `--list` and
//! the figure pickers may repeat).
//!
//! Sweep points run on the `spasm-exec` worker pool — one worker per
//! host hardware thread by default (`--jobs auto`); `--serial` forces
//! the inline single-thread path. Output is byte-identical either way;
//! per-series run times and the total simulated time go to stderr so how
//! busy the workers were is visible without polluting the table/CSV
//! streams. Figures
//! that plot the same (app, net, machine) points — F3 and F12, say —
//! share them: each distinct point is simulated once per invocation, and
//! stderr says how many of a figure's points were `shared`. `--chart`
//! adds an ASCII plot under each table and `--csv PATH` writes every row
//! to one CSV file.
//!
//! `--check` / `--strict-check` turn on the online invariant checkers
//! for every run (a violation fails the point), `--faults SEED` injects
//! an adversarial fault plan, and `--budget-events N` caps each run's
//! simulator events.
//!
//! `--journal PATH` records every completed point in a durable
//! per-figure journal (`PATH.<figure-id>`); after a crash or SIGKILL,
//! the same command with `--resume` replays completed points and runs
//! only the rest, producing byte-identical stdout. Workers never wait
//! for the disk — this thread commits what they finish, in batches —
//! and stderr says in how many `commits`.
//!
//! `--scenario FILE` (repeatable) compiles a declarative `.scn`
//! workload (see `spasm-scenario`) into a figure and sweeps it like
//! any built-in id; two files defining one name differently are refused
//! by name. `--telemetry FILE` turns on engine interval
//! telemetry and streams one JSONL record per sim-time bucket (plus a
//! per-point summary) into FILE, bucketed every
//! [`TELEMETRY_INTERVAL_US`] simulated µs. Telemetry output is byte-identical
//! across `--jobs` settings and across journaled resume.
//!
//! `--shard K/N` runs only shard K's points (of N, round-robin over the
//! series-major point grid) and journals them under
//! `DIR/<figure>.shard-K-of-N.journal` — a worker's only output is its
//! journal, so N workers can fan out across processes or hosts.
//! `--merge DIR` reassembles any set of per-shard journals into stdout
//! byte-identical to a single-process serial run: torn shard tails are
//! tolerated, corrupt or mismatched shards are quarantined, overlapping
//! shards are deduplicated (identical results) or refused (conflicting
//! results), and points no surviving shard covers degrade to FAILED
//! rows naming the absent shard.
//!
//! Exit codes are the [`Exit`] enum; when several apply, the largest
//! wins.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spasm_apps::SizeClass;
use spasm_bench::{parse_jobs, parse_procs, parse_size};
use spasm_core::figures::{self, FigureSpec};
use spasm_core::journal::SweepJournal;
use spasm_core::shard::{merge_shards, ShardError, ShardSpec};
use spasm_core::sweep::{FigureData, Outcome, PointCache, Sweep, SweepConfig};
use spasm_exec::ExecConfig;
use spasm_journal::RealVfs;
use spasm_machine::{CheckMode, FaultPlan, RunBudget, TelemetryConfig};

struct Args {
    figures: Vec<&'static FigureSpec>,
    size: SizeClass,
    procs: Vec<usize>,
    seed: u64,
    csv: Option<String>,
    chart: bool,
    /// Worker count in the executor's convention: 0 = auto, 1 = serial.
    jobs: usize,
    /// Per-run simulator-event budget (the engine's RunBudget), so a
    /// livelocked run fails typed instead of hanging the sweep.
    budget_events: Option<u64>,
    /// Online invariant checking per run (`--check` / `--strict-check`).
    check: CheckMode,
    /// Adversarial fault plan seeded from `--faults SEED`, for proving
    /// the checker fires on an unhealthy machine.
    faults: Option<u64>,
    ablation: Option<String>,
    /// Base path for per-figure sweep journals (`<base>.<figure-id>`).
    journal: Option<String>,
    /// Replay an existing journal instead of refusing to clobber it.
    resume: bool,
    /// Worker mode: run only this shard's points into a journal
    /// directory (`--shard K/N`, requires `--journal DIR`).
    shard: Option<ShardSpec>,
    /// Merge mode: reassemble per-shard journals from this directory
    /// into serial-identical stdout (`--merge DIR`).
    merge: Option<String>,
    /// Stream per-interval telemetry JSONL into this file.
    telemetry: Option<String>,
}

/// Telemetry bucket width in simulated microseconds.
const TELEMETRY_INTERVAL_US: u64 = 100;

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

impl Exit {
    fn exit(self) -> ! {
        std::process::exit(self as i32)
    }
}

impl From<Exit> for ExitCode {
    fn from(e: Exit) -> ExitCode {
        ExitCode::from(e as u8)
    }
}

const USAGE: &str = "\
usage: figures (--all | --figure ID | --list | --ablation g|protocol|cache)
               [--size test|small|full] [--procs 2,4,...] [--seed N]
               [--csv PATH] [--chart] [--jobs N|auto] [--serial]
               [--budget-events N] [--check] [--strict-check] [--faults SEED]
               [--journal PATH [--resume]]
               [--shard K/N --journal DIR] [--merge DIR]
               [--scenario FILE] [--telemetry FILE]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    Exit::Usage.exit()
}

fn parse_args() -> Args {
    let mut args = Args {
        figures: Vec::new(),
        size: SizeClass::Small,
        procs: figures::PROC_SWEEP.to_vec(),
        seed: 1995,
        csv: None,
        chart: false,
        jobs: 0,
        budget_events: None,
        check: CheckMode::Off,
        faults: None,
        ablation: None,
        journal: None,
        resume: false,
        shard: None,
        merge: None,
        telemetry: None,
    };
    // Every flag given, in order: a mode refuses the ones it would ignore
    // by name.
    let mut given: Vec<String> = Vec::new();
    // Every compiled `--scenario`, with the file it came from.
    let mut scenarios: Vec<(&'static FigureSpec, String)> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--all" => args.figures.extend(figures::FIGURES),
            "--figure" => {
                let id = it.next().unwrap_or_else(|| usage());
                match figures::by_id(&id) {
                    Some(spec) => args.figures.push(spec),
                    None => {
                        eprintln!("unknown figure {id}; try --list");
                        Exit::Usage.exit();
                    }
                }
            }
            "--list" => {}
            "--size" => {
                args.size =
                    parse_size(&it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--procs" => {
                let list = it.next().unwrap_or_else(|| usage());
                args.procs = parse_procs(&list).unwrap_or_else(|e| {
                    eprintln!("--procs {list}: {e}");
                    usage();
                });
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--csv" => args.csv = Some(it.next().unwrap_or_else(|| usage())),
            "--chart" => args.chart = true,
            "--jobs" => {
                args.jobs =
                    parse_jobs(&it.next().unwrap_or_else(|| usage())).unwrap_or_else(|| usage());
            }
            "--serial" => args.jobs = 1,
            "--budget-events" => {
                args.budget_events = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--check" => args.check = CheckMode::On,
            "--strict-check" => args.check = CheckMode::Strict,
            "--faults" => {
                args.faults = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--ablation" => args.ablation = Some(it.next().unwrap_or_else(|| usage())),
            "--journal" => args.journal = Some(it.next().unwrap_or_else(|| usage())),
            "--resume" => args.resume = true,
            "--shard" => {
                let spec = it.next().unwrap_or_else(|| usage());
                match ShardSpec::parse(&spec) {
                    Ok(s) => args.shard = Some(s),
                    Err(e) => {
                        eprintln!("--shard {spec}: {e}");
                        Exit::Usage.exit();
                    }
                }
            }
            "--merge" => args.merge = Some(it.next().unwrap_or_else(|| usage())),
            "--scenario" => {
                let path = it.next().unwrap_or_else(|| usage());
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read scenario {path}: {e}");
                    Exit::Usage.exit();
                });
                let spec = spasm_scenario::parse(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|sc| spasm_scenario::compile(&sc))
                    .unwrap_or_else(|e| {
                        eprintln!("scenario {path}: {e}");
                        Exit::Usage.exit();
                    });
                // One id names one definition: the same file again is
                // deduplicated below, an edited one under its name refused.
                if let Some((_, first)) = scenarios
                    .iter()
                    .find(|(s, _)| s.id == spec.id && s.app != spec.app)
                {
                    eprintln!(
                        "--scenario {path} defines {} differently from --scenario {first}",
                        spec.id
                    );
                    Exit::Usage.exit();
                }
                scenarios.push((spec, path));
                args.figures.push(spec);
            }
            "--telemetry" => args.telemetry = Some(it.next().unwrap_or_else(|| usage())),
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
        given.push(flag);
    }
    // Each group sets one value, so a second mention would silently
    // override the first — a value-setting switch (`--serial`, the checks)
    // included. What may repeat is what sets nothing twice: `--chart`,
    // `--resume`, `--list` and the figure pickers.
    const ONE_VALUE: [&[&str]; 13] = [
        &["--size"],
        &["--procs"],
        &["--seed"],
        &["--csv"],
        &["--jobs", "--serial"],
        &["--budget-events"],
        &["--check", "--strict-check"],
        &["--faults"],
        &["--ablation"],
        &["--journal"],
        &["--shard"],
        &["--merge"],
        &["--telemetry"],
    ];
    for group in ONE_VALUE {
        let mut set = given.iter().filter(|f| group.contains(&f.as_str()));
        if let (Some(first), Some(again)) = (set.next(), set.next()) {
            if first == again {
                eprintln!("{again} given twice");
            } else {
                eprintln!("{again} conflicts with {first}");
            }
            usage();
        }
    }
    if given.iter().any(|f| f == "--list") {
        if let Some(flag) = given.iter().find(|f| *f != "--list") {
            eprintln!("--list takes no other flag; got {flag}");
            usage();
        }
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
        Exit::Clean.exit();
    }
    if args.figures.is_empty() && args.ablation.is_none() {
        usage();
    }
    // A repeated id (a figure, or a scenario definition, given again)
    // would only collide with its own journal.
    let mut seen = std::collections::HashSet::new();
    args.figures.retain(|f| seen.insert(f.id));
    if args.resume && args.journal.is_none() {
        eprintln!("--resume requires --journal PATH");
        usage();
    }
    if args.shard.is_some() && args.journal.is_none() {
        eprintln!("--shard K/N requires --journal DIR (a shard's only output is its journal)");
        usage();
    }
    if args.shard.is_some() && (args.csv.is_some() || args.chart) {
        eprintln!("--shard produces no stdout; --csv/--chart belong on the --merge invocation");
        usage();
    }
    if args.merge.is_some() && (args.shard.is_some() || args.journal.is_some()) {
        eprintln!("--merge reads finished shard journals; it conflicts with --shard/--journal");
        usage();
    }
    // The studies fix their own size (test), p (8) and seed (1995); of the
    // rest, only the worker pool is theirs to take.
    if args.ablation.is_some() {
        let sweep_only = given
            .iter()
            .find(|f| !matches!(f.as_str(), "--ablation" | "--jobs" | "--serial"));
        if let Some(flag) = sweep_only {
            eprintln!("{flag} applies to figure sweeps, not ablations");
            usage();
        }
    }
    args
}

/// Unwraps one ablation study's runs into its table row, or exits with
/// the typed simulation error instead of panicking at the CLI surface.
fn ablation_run<T>(which: &str, result: Result<T, spasm_core::ExperimentError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("ablation {which} failed: {e}");
        Exit::Ablation.exit();
    })
}

/// Runs one of the extension studies (EXPERIMENTS.md A2–A4) and prints
/// its table. `jobs` sizes the worker pool for each study's independent
/// runs (executor convention: 0 = auto, 1 = serial).
fn run_ablation(which: &str, jobs: usize) {
    use spasm_apps::AppId;
    use spasm_core::ablation;
    use spasm_core::Net;

    let started = Instant::now();
    match which {
        "g" => {
            println!("A2: traffic-aware g on the 8-processor mesh (test size)\n");
            println!(
                "{:>9} {:>9} {:>12} {:>12} {:>12}",
                "app", "crossing", "target (us)", "naive (us)", "aware (us)"
            );
            for app in AppId::ALL {
                let s = ablation_run(
                    which,
                    ablation::traffic_aware_g(app, SizeClass::Test, Net::Mesh, 8, 1995, jobs),
                );
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
        "protocol" => {
            println!("A3: coherence-protocol sensitivity on the target (full, p=8)\n");
            println!(
                "{:>9} {:>14} {:>18} {:>8}",
                "app", "berkeley (us)", "wb-on-read (us)", "gap"
            );
            for app in AppId::ALL {
                let s = ablation_run(
                    which,
                    ablation::protocol_sensitivity(app, SizeClass::Test, Net::Full, 8, 1995, jobs),
                );
                println!(
                    "{:>9} {:>14.1} {:>18.1} {:>7.1}%",
                    app.to_string(),
                    s.berkeley.exec_us,
                    s.write_back_on_read.exec_us,
                    100.0 * s.exec_gap(),
                );
            }
        }
        "cache" => {
            println!("A4: cache working-set sweep on the target (full, p=8)\n");
            print!("{:>9}", "app");
            for &cap in ablation::CACHE_SWEEP {
                print!(" {:>9}KiB", cap / 1024);
            }
            println!();
            for app in AppId::ALL {
                let points = ablation_run(
                    which,
                    ablation::cache_working_set(
                        app,
                        SizeClass::Test,
                        Net::Full,
                        8,
                        1995,
                        ablation::CACHE_SWEEP,
                        jobs,
                    ),
                );
                print!("{:>9}", app.to_string());
                for p in points {
                    print!(" {:>12.1}", p.metrics.exec_us);
                }
                println!();
            }
            println!("\n(cells: execution time in us)");
        }
        _ => {
            eprintln!("unknown ablation {which}; expected g | protocol | cache");
            Exit::Usage.exit();
        }
    }
    eprintln!(
        "ablation {which}: elapsed {:.1?} ({})",
        started.elapsed(),
        jobs_label(jobs)
    );
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
    fn finish(self, args: &Args, mut worst: Exit) -> ExitCode {
        for (path, bytes) in [(&args.csv, &self.csv), (&args.telemetry, &self.jsonl)] {
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
fn run_shard(args: &Args, sweeps: &[Sweep<'_>], shard: ShardSpec) -> ExitCode {
    let dir = args.journal.as_deref().expect("checked in parse_args");
    if let Some(path) = &args.telemetry {
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
        let pass = with_journal(&jpath, sweep, args.resume, |journal| {
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
        jobs_label(args.jobs)
    );
    worst.into()
}

/// Merge mode: reassemble per-shard journals under `dir` into stdout
/// byte-identical to a serial run, quarantining what cannot be trusted
/// and salvaging partial figures from what can.
fn run_merge(args: &Args, sweeps: &[Sweep<'_>], dir: &str) -> ExitCode {
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
        out.figure(&report.data, args.chart);
    }
    out.finish(args, worst)
}

/// Sweep mode: run every requested figure (under its `--journal`, when
/// one is given) and render it. Timing goes to stderr: the stdout stream
/// stays parseable (tables/CSV only) and byte-identical across `--jobs`
/// settings and `--resume`.
fn run_sweeps(args: &Args, sweeps: &[Sweep<'_>]) -> ExitCode {
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
        let data = match &args.journal {
            None => sweep.run(None, &mut cache, fresh_points),
            Some(base) => {
                let jpath = format!("{base}.{id}");
                let pass = with_journal(&jpath, sweep, args.resume, |journal| {
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
            jobs_label(args.jobs)
        );
        total_points += points;
        total_fresh += fresh;
        out.figure(&data, args.chart);
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
        ExecConfig::with_jobs(args.jobs).resolved_workers(usize::MAX),
        jobs_label(args.jobs)
    );
    out.finish(args, Exit::Clean)
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(which) = &args.ablation {
        run_ablation(which, args.jobs);
        return Exit::Clean.into();
    }
    let config = SweepConfig {
        jobs: args.jobs,
        budget: args
            .budget_events
            .map_or(RunBudget::UNLIMITED, RunBudget::events),
        check: args.check,
        faults: args.faults.map(FaultPlan::adversarial),
        telemetry: args
            .telemetry
            .as_ref()
            .map(|_| TelemetryConfig::every_us(TELEMETRY_INTERVAL_US)),
    };
    // One sweep value per requested figure; every mode below takes these.
    let sweeps: Vec<Sweep<'_>> = args
        .figures
        .iter()
        .map(|&spec| Sweep {
            spec,
            size: args.size,
            procs: &args.procs,
            seed: args.seed,
            config,
        })
        .collect();
    if let Some(dir) = &args.merge {
        run_merge(&args, &sweeps, dir)
    } else if let Some(shard) = args.shard {
        run_shard(&args, &sweeps, shard)
    } else {
        run_sweeps(&args, &sweeps)
    }
}
