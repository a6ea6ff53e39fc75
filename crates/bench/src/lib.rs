//! # spasm-bench — the command-line front ends
//!
//! * `figures` (`cargo run -p spasm-bench --release --bin figures --
//!   --all`) regenerates the data behind every figure of the paper's
//!   evaluation section as aligned tables and CSV;
//! * `scnlint` validates the telemetry JSONL that `figures --telemetry`
//!   writes.
//!
//! This library holds [`Cli`], the `figures` command line as a value:
//! [`Cli::parse`] accepts an argv or refuses it with a message, and never
//! exits the process. Host-time measurement of the simulator itself lives
//! in the repository's `benchmark/` package (`bash benchmark/run.sh`), not
//! here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spasm_apps::SizeClass;
use spasm_core::figures::{self, FigureSpec};
use spasm_core::shard::ShardSpec;
use spasm_core::sweep::SweepConfig;
use spasm_machine::{CheckMode, FaultPlan, RunBudget, TelemetryConfig};

/// The `figures` synopsis, printed under every usage error.
pub const USAGE: &str = "\
usage: figures (--all | --figure ID | --list | --ablation g|protocol|cache)
               [--size test|small|full] [--procs 2,4,...] [--seed N]
               [--csv PATH] [--chart] [--jobs N|auto] [--serial]
               [--budget-events N] [--check] [--strict-check] [--faults SEED]
               [--journal PATH [--resume]]
               [--shard K/N --journal DIR] [--merge DIR]
               [--scenario FILE] [--telemetry FILE]";

/// Telemetry bucket width in simulated microseconds.
const TELEMETRY_INTERVAL_US: u64 = 100;

// The modes, as bits of a flag's `modes` set.
const LIST: u8 = 1;
const ABLATION: u8 = 2;
const SWEEP: u8 = 4;
const SHARD: u8 = 8;
const MERGE: u8 = 16;
const FIGS: u8 = SWEEP | SHARD | MERGE;

/// One flag of the grammar.
struct Flag {
    name: &'static str,
    /// Whether the next token is its value.
    value: bool,
    /// Flags of one group set one value, so at most one of them is
    /// given, once. "" may repeat: it sets nothing twice.
    group: &'static str,
    /// A flag that must be given too ("" for none).
    needs: &'static str,
    /// The modes that read it; every other mode refuses it by name.
    modes: u8,
}

#[rustfmt::skip]
const fn flag(name: &'static str, value: bool, group: &'static str, needs: &'static str,
              modes: u8) -> Flag {
    Flag { name, value, group, needs, modes }
}

/// Every flag `figures` takes. An ablation study fixes its own size, p
/// and seed, so it reads only the worker pool; a shard's only output is
/// its journal, so it reads no stdout flag; a merge reads finished shard
/// journals, never a journal of its own.
#[rustfmt::skip]
const FLAGS: [Flag; 21] = [
    flag("--all", false, "", "", FIGS),
    flag("--figure", true, "", "", FIGS),
    flag("--scenario", true, "", "", FIGS),
    flag("--list", false, "", "", LIST),
    flag("--ablation", true, "--ablation", "", ABLATION),
    flag("--shard", true, "--shard", "--journal", SHARD),
    flag("--merge", true, "--merge", "", MERGE),
    flag("--size", true, "--size", "", FIGS),
    flag("--procs", true, "--procs", "", FIGS),
    flag("--seed", true, "--seed", "", FIGS),
    flag("--csv", true, "--csv", "", SWEEP | MERGE),
    flag("--chart", false, "", "", SWEEP | MERGE),
    flag("--jobs", true, "--jobs", "", FIGS | ABLATION),
    flag("--serial", false, "--jobs", "", FIGS | ABLATION),
    flag("--budget-events", true, "--budget-events", "", FIGS),
    flag("--check", false, "--check", "", FIGS),
    flag("--strict-check", false, "--check", "", FIGS),
    flag("--faults", true, "--faults", "", FIGS),
    flag("--journal", true, "--journal", "", SWEEP | SHARD),
    flag("--resume", false, "", "--journal", SWEEP | SHARD),
    flag("--telemetry", true, "--telemetry", "", FIGS),
];

/// One of the extension studies (EXPERIMENTS.md A2–A4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Study {
    /// A2: traffic-aware g.
    G,
    /// A3: coherence-protocol sensitivity.
    Protocol,
    /// A4: cache working-set sweep.
    Cache,
}

impl Study {
    /// The name `--ablation` takes.
    pub fn name(self) -> &'static str {
        match self {
            Study::G => "g",
            Study::Protocol => "protocol",
            Study::Cache => "cache",
        }
    }

    fn parse(name: &str) -> Result<Study, String> {
        let all = [Study::G, Study::Protocol, Study::Cache];
        let study = all.into_iter().find(|s| s.name() == name);
        study.ok_or_else(|| format!("unknown ablation {name}; expected g | protocol | cache"))
    }
}

/// What an invocation does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// `--list`: print the figure ids.
    List,
    /// `--ablation STUDY`: run one study instead of a sweep.
    Ablation(Study),
    /// Sweep and render every figure.
    Sweep {
        /// `--journal PATH` and whether to `--resume` it.
        journal: Option<(String, bool)>,
    },
    /// `--shard K/N --journal DIR`: journal only this shard's points.
    Shard {
        /// The points this worker owns.
        shard: ShardSpec,
        /// The journal directory the shards share.
        dir: String,
        /// Replay this shard's journals instead of refusing to clobber them.
        resume: bool,
    },
    /// `--merge DIR`: render the figures from the shard journals in `DIR`.
    Merge {
        /// The shard journal directory.
        dir: String,
    },
}

/// A parsed `figures` command line.
#[derive(Debug)]
pub struct Cli {
    /// What to do.
    pub mode: Mode,
    /// The figures to sweep, each id once, in first-mention order.
    pub figures: Vec<&'static FigureSpec>,
    /// Problem size class of every point (`--size`).
    pub size: SizeClass,
    /// Processor counts swept (`--procs`).
    pub procs: Vec<usize>,
    /// Base seed of every point (`--seed`).
    pub seed: u64,
    /// Workers, budget, checking, faults and telemetry of every run.
    pub config: SweepConfig,
    /// Where to write every row as CSV (`--csv`).
    pub csv: Option<String>,
    /// Whether to plot each table (`--chart`).
    pub chart: bool,
    /// Where to write the interval telemetry JSONL (`--telemetry`).
    pub telemetry: Option<String>,
}

impl Cli {
    /// Parses `argv` (without the program name). Refuses, with a message
    /// naming the offending token: an unknown flag; a value that is
    /// missing, malformed or itself a flag; a one-value flag given twice
    /// or with its rival; a flag missing the flag it needs; a flag the
    /// mode would ignore; an unknown figure or study; an unreadable
    /// scenario, or two defining one name differently.
    pub fn parse(argv: &[String]) -> Result<Cli, String> {
        let find = |token: &str| FLAGS.iter().find(|f| f.name == token);
        let mut given: Vec<(&Flag, &str)> = Vec::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            let flag = find(token).ok_or_else(|| format!("unknown flag {token}"))?;
            let value = match flag.value.then(|| tokens.next()) {
                None => "",
                Some(None) => return Err(format!("{token} needs a value")),
                Some(Some(v)) if find(v).is_some() => {
                    return Err(format!("{token} needs a value; got the flag {v}"));
                }
                Some(Some(v)) => v,
            };
            given.push((flag, value));
        }
        let arg = |name: &str| given.iter().find(|(f, _)| f.name == name).map(|&(_, v)| v);
        for (i, (f, _)) in given.iter().enumerate() {
            let rival = given[..i]
                .iter()
                .find(|(e, _)| !f.group.is_empty() && e.group == f.group);
            match rival {
                Some((e, _)) if e.name == f.name => return Err(format!("{} given twice", f.name)),
                Some((e, _)) => return Err(format!("{} conflicts with {}", f.name, e.name)),
                None => {}
            }
        }
        let needy = given
            .iter()
            .find(|(f, _)| !f.needs.is_empty() && arg(f.needs).is_none());
        if let Some((f, _)) = needy {
            return Err(format!("{} requires {}", f.name, f.needs));
        }

        let journal = arg("--journal").map(String::from);
        let resume = arg("--resume").is_some();
        let mode = if arg("--list").is_some() {
            Mode::List
        } else if let Some(v) = arg("--ablation") {
            Mode::Ablation(Study::parse(v)?)
        } else if let Some(dir) = arg("--merge") {
            Mode::Merge { dir: dir.into() }
        } else if let (Some(k), Some(dir)) = (arg("--shard"), journal.clone()) {
            let shard = ShardSpec::parse(k).map_err(|e| format!("--shard {k}: {e}"))?;
            Mode::Shard { shard, dir, resume }
        } else {
            Mode::Sweep {
                journal: journal.map(|j| (j, resume)),
            }
        };
        let (kind, named) = match mode {
            Mode::List => (LIST, "--list"),
            Mode::Ablation(_) => (ABLATION, "--ablation"),
            Mode::Sweep { .. } => (SWEEP, "a sweep"),
            Mode::Shard { .. } => (SHARD, "--shard"),
            Mode::Merge { .. } => (MERGE, "--merge"),
        };
        if let Some((f, _)) = given.iter().find(|(f, _)| f.modes & kind == 0) {
            return Err(format!("{} does not apply to {named}", f.name));
        }

        let mut cli = Cli {
            mode,
            figures: Vec::new(),
            size: SizeClass::Small,
            procs: figures::PROC_SWEEP.to_vec(),
            seed: 1995,
            config: SweepConfig {
                jobs: 0,
                ..SweepConfig::default()
            },
            csv: None,
            chart: false,
            telemetry: None,
        };
        let number = |f: &str, v: &str| -> Result<u64, String> {
            v.parse().map_err(|_| format!("{f} {v}: not a number"))
        };
        // Every compiled `--scenario`, with the file it came from.
        let mut scenarios: Vec<(&'static FigureSpec, &str)> = Vec::new();
        for &(f, v) in &given {
            match f.name {
                "--all" => cli.figures.extend(figures::FIGURES),
                "--figure" => {
                    let spec = figures::by_id(v)
                        .ok_or_else(|| format!("unknown figure {v}; try --list"))?;
                    cli.figures.push(spec);
                }
                "--scenario" => {
                    let text = std::fs::read_to_string(v)
                        .map_err(|e| format!("cannot read scenario {v}: {e}"))?;
                    let spec = spasm_scenario::parse(&text)
                        .map_err(|e| e.to_string())
                        .and_then(|sc| spasm_scenario::compile(&sc))
                        .map_err(|e| format!("scenario {v}: {e}"))?;
                    // One id names one definition: the same file again is
                    // deduplicated below, an edited one under its name refused.
                    if let Some((_, first)) = scenarios
                        .iter()
                        .find(|(s, _)| s.id == spec.id && s.app != spec.app)
                    {
                        return Err(format!(
                            "--scenario {v} defines {} differently from --scenario {first}",
                            spec.id
                        ));
                    }
                    scenarios.push((spec, v));
                    cli.figures.push(spec);
                }
                "--size" => cli.size = parse_size(v)?,
                "--procs" => cli.procs = parse_procs(v).map_err(|e| format!("--procs {v}: {e}"))?,
                "--seed" => cli.seed = number(f.name, v)?,
                "--csv" => cli.csv = Some(v.to_string()),
                "--chart" => cli.chart = true,
                "--jobs" => cli.config.jobs = parse_jobs(v)?,
                "--serial" => cli.config.jobs = 1,
                "--budget-events" => cli.config.budget = RunBudget::events(number(f.name, v)?),
                "--check" => cli.config.check = CheckMode::On,
                "--strict-check" => cli.config.check = CheckMode::Strict,
                "--faults" => cli.config.faults = Some(FaultPlan::adversarial(number(f.name, v)?)),
                "--telemetry" => {
                    cli.telemetry = Some(v.to_string());
                    cli.config.telemetry = Some(TelemetryConfig::every_us(TELEMETRY_INTERVAL_US));
                }
                // The mode flags, read above.
                _ => {}
            }
        }
        if kind & FIGS != 0 && cli.figures.is_empty() {
            return Err("no figure to sweep: give --all, --figure ID or --scenario FILE".into());
        }
        // A repeated id (a figure, or a scenario definition, given again)
        // would only collide with its own journal.
        let mut seen = std::collections::HashSet::new();
        cli.figures.retain(|f| seen.insert(f.id));
        Ok(cli)
    }
}

/// Parses a size-class name.
fn parse_size(s: &str) -> Result<SizeClass, String> {
    match s {
        "test" => Ok(SizeClass::Test),
        "small" => Ok(SizeClass::Small),
        "full" => Ok(SizeClass::Full),
        _ => Err(format!("--size {s}: expected test | small | full")),
    }
}

/// Parses a comma-separated processor list. Counts the networks cannot
/// host (non-powers-of-two, zero) are accepted here: the resilient
/// sweep layer reports them as typed `FAILED` points instead of the CLI
/// guessing at validity. A count given twice is refused: it would run
/// each of its points twice and print its row twice.
fn parse_procs(s: &str) -> Result<Vec<usize>, String> {
    let mut procs = Vec::new();
    for t in s.split(',') {
        let p = t
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("{:?} is not a processor count", t.trim()))?;
        if procs.contains(&p) {
            return Err(format!("processor count {p} given twice"));
        }
        procs.push(p);
    }
    Ok(procs)
}

/// Parses a `--jobs` worker count: `auto` (or `0`) means one worker per
/// host hardware thread, anything else is an explicit worker count in
/// the executor's convention (`SweepConfig::jobs`).
fn parse_jobs(s: &str) -> Result<usize, String> {
    match s {
        "auto" => Ok(0),
        _ => s
            .parse()
            .map_err(|_| format!("--jobs {s}: expected N or auto")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_testkit::{check_with, gens, prop_assert, prop_assert_eq, Config};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    const BSP: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/bsp.scn"
    );

    /// Every refusal, with what its message must say. Main prints it with
    /// the synopsis and exits 2.
    #[test]
    fn usage_errors_are_refused_by_name() {
        let cases = [
            // A flag a mode would ignore is refused by name: --list takes
            // no other, and an ablation fixes its own figure set, size, p
            // and seed.
            ("--list --bogus", "--bogus"),
            ("--list --serial", "--serial"),
            (
                "--ablation protocol --figure F1 --size full --procs 2 --seed 7",
                "--figure",
            ),
            ("--ablation g --all", "--all"),
            (
                "--ablation g --scenario examples/scenarios/bsp.scn",
                "--scenario",
            ),
            ("--ablation g --size test", "--size"),
            ("--ablation g --procs 2", "--procs"),
            ("--ablation g --seed 7", "--seed"),
            // A repeated processor count would run its points twice.
            ("--figure F2 --size test --procs 2,2", "--procs 2,2"),
            // A one-value flag given twice (or with its rival) is refused
            // rather than letting the last mention silently win.
            ("--figure F2 --procs 2,4 --procs 8", "--procs given twice"),
            ("--figure F2 --size test --size full", "--size given twice"),
            (
                "--figure F2 --serial --jobs 4",
                "--jobs conflicts with --serial",
            ),
            (
                "--figure F2 --check --strict-check",
                "--strict-check conflicts with --check",
            ),
            ("--figure F2 --faults 1 --faults 2", "--faults given twice"),
            ("--figure F2 --serial --serial", "--serial given twice"),
            ("--figure F2 --resume", "--resume requires --journal"),
            ("--figure F2 --shard 1/2", "--shard requires --journal"),
            (
                "--figure F2 --shard 1/2 --journal d --csv c",
                "--csv does not apply to --shard",
            ),
            (
                "--figure F2 --merge d --journal j",
                "--journal does not apply to --merge",
            ),
            (
                "--ablation nope",
                "unknown ablation nope; expected g | protocol | cache",
            ),
            ("--size test", "no figure to sweep"),
            ("--figure F99", "unknown figure F99; try --list"),
            // A value-taking flag never swallows the next flag.
            (
                "--figure F1 --size test --procs 2 --serial --journal --resume",
                "--journal needs a value; got the flag --resume",
            ),
            (
                "--figure F1 --csv --chart",
                "--csv needs a value; got the flag --chart",
            ),
            ("--figure F1 --seed", "--seed needs a value"),
        ];
        for (line, needle) in cases {
            let err = Cli::parse(&argv(line)).expect_err(line);
            assert!(
                err.contains(needle),
                "{line}: {err:?} does not say {needle:?}"
            );
        }
    }

    #[test]
    fn two_scenarios_defining_one_name_differently_are_refused_naming_both() {
        let dir = std::env::temp_dir().join(format!("spasm-cli-scn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let [x1, x2] = [1, 2].map(|rounds| {
            let path = dir.join(format!("x{rounds}.scn"));
            let text =
                format!("[scenario]\nname = x\nrounds = {rounds}\n[phase]\nkind = barrier\n");
            std::fs::write(&path, text).unwrap();
            path.display().to_string()
        });
        let line = |a: &str, b: &str| {
            [
                argv("--scenario"),
                vec![a.into()],
                argv("--scenario"),
                vec![b.into()],
            ]
            .concat()
        };
        let twice = Cli::parse(&line(&x1, &x1)).map(|cli| cli.figures.len());
        let err = Cli::parse(&line(&x1, &x2)).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(twice, Ok(1), "the same file twice sweeps once");
        assert_eq!(
            err,
            format!("--scenario {x2} defines scn-x differently from --scenario {x1}")
        );
    }

    /// The command lines the benchmark's `paper_fleet` and
    /// `scripts/fleet.sh` send: one argument line shared by the sweep,
    /// its resume, the shard workers and the merge.
    #[test]
    fn fleet_command_lines_parse_into_their_modes() {
        let base = [
            argv("--figure F3 --figure F12 --size small --procs 2,32 --jobs 2 --seed 7 --scenario"),
            vec![BSP.into()],
        ]
        .concat();
        let parse = |extra: &str| Cli::parse(&[base.clone(), argv(extra)].concat()).unwrap();
        let sweep = parse("--journal r/j --csv r/sweep.csv");
        assert_eq!(
            sweep.mode,
            Mode::Sweep {
                journal: Some(("r/j".into(), false))
            }
        );
        assert_eq!(sweep.csv.as_deref(), Some("r/sweep.csv"));
        let ids: Vec<_> = sweep.figures.iter().map(|f| f.id).collect();
        assert_eq!(ids, ["F3", "F12", "scn-bsp"]);
        assert_eq!(
            (sweep.size, &sweep.procs[..], sweep.seed, sweep.config.jobs),
            (SizeClass::Small, &[2, 32][..], 7, 2)
        );
        let resume = parse("--journal r/j --resume --csv r/resume.csv");
        assert_eq!(
            resume.mode,
            Mode::Sweep {
                journal: Some(("r/j".into(), true))
            }
        );
        let shard = parse("--shard 2/3 --journal r/shards");
        let two_of_three = ShardSpec::new(2, 3).unwrap();
        assert_eq!(
            shard.mode,
            Mode::Shard {
                shard: two_of_three,
                dir: "r/shards".into(),
                resume: false
            }
        );
        let merge = parse("--merge r/shards --csv r/merge.csv");
        assert_eq!(
            merge.mode,
            Mode::Merge {
                dir: "r/shards".into()
            }
        );
        assert_eq!(merge.config.jobs, 2);

        let fleet = "--figure F2 --size test --procs 2,4,8 --serial --budget-events 50000000";
        let worker =
            Cli::parse(&argv(&format!("--shard 2/3 --journal d --resume {fleet}"))).unwrap();
        assert_eq!(
            worker.mode,
            Mode::Shard {
                shard: two_of_three,
                dir: "d".into(),
                resume: true
            }
        );
        let merged = Cli::parse(&argv(&format!("--merge d {fleet}"))).unwrap();
        assert_eq!(merged.mode, Mode::Merge { dir: "d".into() });
        assert_eq!(
            (merged.config.jobs, merged.config.budget),
            (1, RunBudget::events(50_000_000))
        );
        // A shard journals the interval records --telemetry turns on.
        let telemetry =
            Cli::parse(&argv("--shard 1/2 --journal d --figure F2 --telemetry t")).unwrap();
        assert!(telemetry.config.telemetry.is_some());

        let list = Cli::parse(&argv("--list --list")).unwrap();
        assert_eq!(list.mode, Mode::List);
        let defaults = Cli::parse(&argv("--figure F1")).unwrap();
        assert_eq!(
            (defaults.mode, defaults.size, defaults.seed),
            (Mode::Sweep { journal: None }, SizeClass::Small, 1995)
        );
        assert_eq!(
            (&defaults.procs[..], defaults.config.jobs),
            (figures::PROC_SWEEP, 0)
        );
    }

    /// Generated command lines over every flag and junk, each value good,
    /// bad, a flag name, or missing: parsing accepts or refuses with a
    /// message, never panics, and answers the same twice.
    #[test]
    fn any_argv_is_accepted_or_refused_with_a_message() {
        let good = |flag: &str| match flag {
            "--figure" => "F3",
            "--scenario" => BSP,
            "--ablation" => "g",
            "--shard" => "1/2",
            "--size" => "test",
            "--procs" => "2,4",
            "--jobs" => "auto",
            "--seed" | "--faults" | "--budget-events" => "7",
            _ => "out",
        };
        let names = FLAGS.iter().map(|f| f.name).chain(["--help", "-h", "F3"]);
        let bad = "S1 F99 huge 2,2 x -1 0/0 9/2 nope /none.scn -- --all --chart --resume";
        // (flag, bad value, how to fill it: 0 bad, 1 the other arity, else good)
        let word = gens::tuple3(
            gens::choice(names.collect()),
            gens::choice(bad.split(' ').collect()),
            gens::u32s(0..6),
        );
        let accepted = std::cell::Cell::new(0);
        let config = Config {
            cases: 512,
            ..Config::default()
        };
        let name = "cli_parse_is_total_and_deterministic";
        // Half the lines name a figure first, so that many are accepted.
        let line = gens::tuple2(gens::bools(), gens::vecs(word, 0..6));
        check_with(config, name, &line, |(figure, words)| {
            let mut argv = if *figure {
                argv("--figure F3")
            } else {
                Vec::new()
            };
            for &(f, bad, fill) in words {
                let takes = FLAGS.iter().any(|g| g.name == f && g.value);
                argv.push(f.into());
                match (takes, fill) {
                    (true, 0) | (false, 1) => argv.push(bad.into()),
                    (true, 1) | (false, _) => {}
                    (true, _) => argv.push(good(f).into()),
                }
            }
            let first = Cli::parse(&argv);
            if let Err(e) = &first {
                prop_assert!(!e.is_empty(), "{argv:?} refused without a message");
            }
            accepted.set(accepted.get() + usize::from(first.is_ok()));
            prop_assert_eq!(format!("{first:?}"), format!("{:?}", Cli::parse(&argv)));
            Ok(())
        });
        // A generator that only ever reached refusals would test half the
        // parser.
        assert!(accepted.get() >= 100, "{} of 512 accepted", accepted.get());
    }

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("test"), Ok(SizeClass::Test));
        assert_eq!(parse_size("small"), Ok(SizeClass::Small));
        assert_eq!(parse_size("full"), Ok(SizeClass::Full));
        assert!(parse_size("huge").is_err());
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs("auto"), Ok(0));
        assert_eq!(parse_jobs("0"), Ok(0));
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("8"), Ok(8));
        assert!(parse_jobs("many").is_err());
    }

    #[test]
    fn procs_parsing() {
        assert_eq!(parse_procs("2,4,8"), Ok(vec![2, 4, 8]));
        assert_eq!(parse_procs("2, 16"), Ok(vec![2, 16]));
        // Invalid counts parse; the sweep layer turns them into typed
        // FAILED points rather than a CLI rejection.
        assert_eq!(parse_procs("3"), Ok(vec![3]));
        assert!(parse_procs("2,x").is_err());
        assert_eq!(
            parse_procs("2,4,2"),
            Err("processor count 2 given twice".to_string())
        );
    }
}
