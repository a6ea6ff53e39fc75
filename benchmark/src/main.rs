//! The repo's one benchmark: three machine grids, a paper fleet, and a
//! layer-replay trace. Run it through `benchmark/run.sh`, which builds,
//! pins and stamps; see `benchmark/README.md` for what every number
//! means.

mod fleet;
mod grid;
mod host;
mod layers;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use spasm_apps::SizeClass;
use spasm_core::Machine;

use report::{result_line, Report};

const USAGE: &str =
    "usage: spasm-benchmark --workload target_grid|logp_grid|clogp_grid|paper_fleet \
     [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
     (run through benchmark/run.sh, which sets SPASM_FIGURES and the host stamp)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `SizeClass::Test` everywhere and a single pass: exercises every
    /// code path of the instrument in seconds.
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1995,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} wants {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A scratch directory inside the checkout (`benchmark/out/scratch-<pid>`),
/// removed when dropped. Leftovers of killed runs carry other pids and
/// are swept here, so they cannot change any number.
struct Scratch(PathBuf);

impl Scratch {
    fn create(out_dir: &Path) -> std::io::Result<Scratch> {
        if let Ok(entries) = std::fs::read_dir(out_dir) {
            for e in entries.flatten() {
                let name = e.file_name();
                let stale = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("scratch-"))
                    .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
                if stale {
                    let _ = std::fs::remove_dir_all(e.path());
                }
            }
        }
        let dir = out_dir.join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, stamp: &host::HostStamp, out_dir: &Path) -> Result<Report, String> {
    let scratch =
        Scratch::create(out_dir).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let size = if args.smoke {
        SizeClass::Test
    } else {
        SizeClass::Small
    };
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let mut rec = trace::Recorder::new();
    let machine = match args.workload.as_str() {
        "target_grid" => Some(Machine::Target),
        "logp_grid" => Some(Machine::LogP),
        "clogp_grid" => Some(Machine::CLogP),
        "paper_fleet" => None,
        other => return Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let report = match (machine, args.trace) {
        (Some(m), false) => grid::run_untraced(m, args.seed, seconds, size),
        (Some(m), true) => grid::run_traced(m, args.seed, size, stamp.jobs, &scratch.0, &mut rec),
        (None, trace) => {
            let figures = std::env::var("SPASM_FIGURES").map_err(|_| {
                format!("SPASM_FIGURES (path of the figures binary) is not set\n{USAGE}")
            })?;
            let fleet = fleet::Fleet {
                figures: PathBuf::from(figures),
                jobs: stamp.jobs,
                seed: args.seed,
                smoke: args.smoke,
                scratch: scratch.0.clone(),
            };
            if trace {
                fleet.run_traced(&mut rec)?
            } else {
                fleet.run_untraced(seconds)?
            }
        }
    };
    if args.trace {
        let path = out_dir.join(format!("trace_{}.jsonl", args.workload));
        std::fs::write(&path, rec.to_jsonl())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = host::HostStamp::collect();
    // Everything the benchmark writes stays under benchmark/out of the
    // checkout it was started in.
    let out_dir =
        PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "benchmark/out".into()));
    let report = match run(&args, &stamp, &out_dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed before producing a result: {e}");
            return ExitCode::from(1);
        }
    };

    let selected = report.select(args.trace);
    for (name, v, unit) in &selected {
        println!("{name} {v} {unit}");
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!("failed_share {failed_share} ratio");
    let notes: String = report
        .notes
        .iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect();
    println!(
        "record workload={} seed={} trace={} smoke={} attempted={} failed={} host.nproc={} host.pinned={} \
         host.jobs={} host.cpu=\"{}\" rustc=\"{}\" git={}{notes}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        u8::from(args.smoke),
        report.attempted,
        report.failed,
        stamp.nproc,
        stamp.pinned,
        stamp.jobs,
        stamp.cpu_model,
        stamp.rustc,
        stamp.git_rev,
    );
    println!("{}", result_line(&report, &selected));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
