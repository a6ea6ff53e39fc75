//! Crash-consistency chaos driver: exhaustive crash-point exploration,
//! fuzzed fault campaigns, and failure shrinking over the in-memory
//! [`spasm_journal::FaultVfs`].
//!
//! ```text
//! chaos --explore FIGURE [--size test|small|full] [--procs 2,4]
//!       [--seed N] [--torn-window N]
//! chaos --campaign --seed N [--trials K]
//! chaos --shrink-demo [--seed N]
//! ```
//!
//! `--explore` records the I/O operation trace of a reference journaled
//! sweep of FIGURE, then re-runs the sweep once per operation index
//! with a power cut injected there, plus a dropped-fsync ×
//! delayed-crash grid (`--torn-window`, default 8) that manufactures
//! torn journals. Every point must either resume byte-identically or
//! refuse with a typed error naming the corruption. The exploration then
//! repeats from a warm point cache — the sweep as a later figure of one
//! `figures` invocation runs it, its hits journaled in one batched commit.
//!
//! `--campaign` fuzzes random multi-fault scripts (torn/short writes,
//! ENOSPC, dropped fsyncs, failed renames, power cuts) across four
//! failure families — plain journal, two-shard fleet with merge,
//! deadline-cut resume, checked sweep under a machine fault plan — and
//! on the first oracle violation shrinks the script to a minimal
//! reproducer before exiting nonzero.
//!
//! `--shrink-demo` runs the shrinker on a known-failing multi-fault
//! script against the stricter replay-everything property, showing the
//! minimization machinery end to end.
//!
//! Exit codes: 0 oracle satisfied everywhere · 1 silent divergence or
//! harness failure (minimal reproducer on stderr) · 2 usage.

use std::process::ExitCode;
use std::time::Instant;

use spasm_bench::{parse_procs, parse_size};
use spasm_core::chaos::{explore_crash_points, run_campaign, shrink_demo, CampaignConfig};
use spasm_core::figures;
use spasm_core::sweep::{PointCache, Sweep};

const EXIT_OK: u8 = 0;
const EXIT_FAIL: u8 = 1;
const EXIT_USAGE: u8 = 2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: chaos --explore FIGURE [--size S] [--procs LIST] [--seed N] [--torn-window N]\n\
         \x20      chaos --campaign --seed N [--trials K]\n\
         \x20      chaos --shrink-demo [--seed N]"
    );
    ExitCode::from(EXIT_USAGE)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut figure = String::new();
    let mut size = spasm_apps::SizeClass::Test;
    let mut procs = vec![2usize];
    let mut seed = 42u64;
    let mut trials = 8usize;
    let mut torn_window = 8usize;

    // The mode is its flag. It refuses a second mode and the flags it
    // would ignore, by name.
    let mut mode: Option<&str> = None;
    let mut given: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if matches!(arg.as_str(), "--explore" | "--campaign" | "--shrink-demo") {
            if let Some(first) = mode {
                eprintln!("chaos: {arg} and {first} are both modes; give one");
                return usage();
            }
            mode = Some(arg);
        }
        given.push(arg);
        let mut take = |name: &str| -> Option<String> {
            match it.next() {
                Some(v) => Some(v.clone()),
                None => {
                    eprintln!("chaos: {name} needs a value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--explore" => match take("--explore") {
                Some(fig) => figure = fig,
                None => return usage(),
            },
            "--campaign" | "--shrink-demo" => {}
            "--size" => match take("--size").and_then(|v| parse_size(&v)) {
                Some(s) => size = s,
                None => return usage(),
            },
            "--procs" => match take("--procs").and_then(|v| parse_procs(&v)) {
                Some(p) => procs = p,
                None => return usage(),
            },
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(n) => seed = n,
                None => return usage(),
            },
            "--trials" => match take("--trials").and_then(|v| v.parse().ok()) {
                Some(n) => trials = n,
                None => return usage(),
            },
            "--torn-window" => match take("--torn-window").and_then(|v| v.parse().ok()) {
                Some(n) => torn_window = n,
                None => return usage(),
            },
            other => {
                eprintln!("chaos: unknown argument {other}");
                return usage();
            }
        }
    }
    let Some(mode) = mode else {
        return usage();
    };
    let reads: &[&str] = match mode {
        "--explore" => &["--explore", "--size", "--procs", "--seed", "--torn-window"],
        "--campaign" => &["--campaign", "--seed", "--trials"],
        _ => &["--shrink-demo", "--seed"],
    };
    if let Some(flag) = given.iter().find(|f| !reads.contains(f)) {
        eprintln!("chaos: {flag} does not apply to {mode}");
        return usage();
    }

    let started = Instant::now();
    match mode {
        "--explore" => {
            let Some(spec) = figures::by_id(&figure) else {
                eprintln!("chaos: unknown figure {figure} (try: figures --list)");
                return usage();
            };
            let sweep = Sweep::new(spec, size, &procs, seed);
            let mut warm = PointCache::default();
            sweep.run(None, &mut warm, |_| {});
            for (pass, shared) in [("", PointCache::default()), (" shared", warm)] {
                match explore_crash_points(&sweep, &shared, torn_window) {
                    Ok(report) => {
                        for (script, error) in &report.refusals {
                            eprintln!("refused under {script}: {error}");
                        }
                        println!("chaos explore {}{pass}: {report}", spec.id);
                        if report.refused_pure_crash > 0 {
                            eprintln!(
                                "chaos: {} pure power cuts were refused instead of resuming — \
                                 the atomic-rename commit should make every clean crash recoverable",
                                report.refused_pure_crash
                            );
                            return ExitCode::from(EXIT_FAIL);
                        }
                    }
                    Err(err) => {
                        eprintln!("chaos explore {}{pass}: {err}", spec.id);
                        return ExitCode::from(EXIT_FAIL);
                    }
                }
            }
            eprintln!("explored in {:.1?}", started.elapsed());
            ExitCode::from(EXIT_OK)
        }
        "--campaign" => {
            let config = CampaignConfig::new(seed, trials);
            match run_campaign(&config) {
                Ok(outcome) => {
                    println!(
                        "chaos campaign seed={:#x}: {} trials, {} identical, {} refused, 0 divergent",
                        config.seed, outcome.trials, outcome.identical, outcome.refused
                    );
                    eprintln!("campaign in {:.1?}", started.elapsed());
                    ExitCode::from(EXIT_OK)
                }
                Err(failure) => {
                    eprintln!("chaos campaign seed={:#x}: {failure}", config.seed);
                    ExitCode::from(EXIT_FAIL)
                }
            }
        }
        _ => match shrink_demo(seed) {
            Ok(demo) => {
                println!(
                    "chaos shrink-demo: {} -> {} ({} shrink attempts, {} points)",
                    demo.script, demo.minimized, demo.shrink_steps, demo.total_points
                );
                println!("  original failure: {}", demo.detail);
                println!("  minimal failure: {}", demo.minimized_detail);
                eprintln!("shrunk in {:.1?}", started.elapsed());
                if demo.minimized.faults.len() < demo.script.faults.len() {
                    ExitCode::from(EXIT_OK)
                } else {
                    eprintln!("chaos: shrinker failed to reduce the demo script");
                    ExitCode::from(EXIT_FAIL)
                }
            }
            Err(err) => {
                eprintln!("chaos shrink-demo: {err}");
                ExitCode::from(EXIT_FAIL)
            }
        },
    }
}
