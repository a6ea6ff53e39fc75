//! Deterministic crash-consistency harness: exhaustive I/O crash-point
//! exploration and generated multi-fault scripts.
//!
//! The harness runs entire journaled sweeps against the in-memory
//! [`FaultVfs`] and holds every outcome to one oracle, the **recovery
//! oracle**: after any scripted sequence of torn writes, short writes,
//! `ENOSPC`, dropped fsyncs, failed renames, and power cuts, a resumed
//! sweep must either
//!
//! 1. render the figure **byte-identically** to the uninterrupted
//!    reference run ([`CrashVerdict::Identical`]), or
//! 2. refuse with a **typed error naming the corruption**
//!    ([`CrashVerdict::Refused`]).
//!
//! Anything else — a run that completes but renders different bytes —
//! is silent divergence ([`ChaosError::Divergence`]) and fails the
//! harness. The sweep under test travels as a [`Sweep`]: its `config` is
//! what reference and recovery runs use, its seed the default tear seed.
//! The victim may differ in its own [`SweepConfig`] and in the
//! [`PointCache`] it starts from: empty, every point runs and commits
//! alone; warm, the hits land in one batched commit — which must survive
//! a crash whole or not at all. Recovery always starts empty, as a
//! process that lost its memory does, so trials cannot leak results into
//! each other.
//!
//! Two drivers sit on top of the oracle:
//!
//! - [`explore_crash_points`] is exhaustive: it records the I/O
//!   operation trace of a reference sweep, then re-runs the sweep once
//!   per operation index with a crash injected there (plus a
//!   dropped-fsync × delayed-crash grid that manufactures torn files).
//! - [`script_gen`] generates random multi-fault scripts for a
//!   [`spasm_testkit`] property, which shrinks a failing trial with its
//!   one shrinker and prints the seed that replays it.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use spasm_journal::{Fault, FaultScript, FaultVfs, TraceEntry, Vfs, VfsOpKind};
use spasm_testkit::{gens, Gen};

use crate::journal::SweepJournal;
use crate::shard::{merge_shards, ShardSpec};
use crate::sweep::{FigureData, PointCache, Sweep, SweepConfig};

/// Total points `sweep` simulates (every machine × every processor
/// count).
pub fn total_points(sweep: &Sweep<'_>) -> usize {
    sweep.spec.machines.len() * sweep.procs.len()
}

fn journal_path(sweep: &Sweep<'_>) -> PathBuf {
    PathBuf::from(format!("/chaos/{}.journal", sweep.spec.id))
}

/// The byte-identity surface the recovery oracle compares: CSV, the
/// rendered table, and the telemetry JSONL, concatenated. Two
/// [`FigureData`] with equal renderings are indistinguishable to every
/// downstream consumer of the tool.
pub fn rendering(data: &FigureData) -> String {
    format!(
        "{}\n{}\n{}",
        data.to_csv(),
        data.render_table(),
        data.to_telemetry_jsonl()
    )
}

/// How one scripted-fault run satisfied the recovery oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashVerdict {
    /// Recovery converged on the reference rendering, byte for byte.
    Identical {
        /// Points replayed from the surviving journal (the rest were
        /// re-simulated).
        replayed: usize,
    },
    /// The tool refused to resume, with a typed error naming the
    /// corruption — loud failure, never silent divergence.
    Refused {
        /// The typed error's rendering.
        error: String,
    },
}

/// A violated oracle or a broken harness.
#[derive(Debug, Clone)]
pub enum ChaosError {
    /// The cardinal sin: a faulted run recovered *and* rendered
    /// different bytes than the reference.
    Divergence {
        /// The fault script that produced the divergence.
        script: FaultScript,
        /// What diverged, and where.
        detail: String,
    },
    /// The harness itself could not complete (reference run failed,
    /// recovery never stopped crashing, unknown figure, ...).
    Harness(String),
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::Divergence { script, detail } => {
                write!(f, "silent divergence under {script}: {detail}")
            }
            ChaosError::Harness(msg) => write!(f, "chaos harness error: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {}

fn divergence(script: &FaultScript, context: &str, expected: &str, got: &str) -> ChaosError {
    let at = match expected.lines().zip(got.lines()).position(|(a, b)| a != b) {
        Some(n) => format!("first differing line {}", n + 1),
        None => format!("{} vs {} bytes", expected.len(), got.len()),
    };
    ChaosError::Divergence {
        script: script.clone(),
        detail: format!("{context} diverged from the reference ({at})"),
    }
}

/// Runs the uninterrupted reference sweep on a pristine [`FaultVfs`],
/// starting from a copy of `shared`, and returns its rendering plus the
/// recorded I/O operation trace — the crash-point universe
/// [`explore_crash_points`] walks.
pub fn run_reference(
    cs: &Sweep<'_>,
    shared: &PointCache,
) -> Result<(String, Vec<TraceEntry>), ChaosError> {
    let fault = Arc::new(FaultVfs::pristine());
    let journal = SweepJournal::open(fault.clone(), journal_path(cs), cs, false)
        .map_err(|e| ChaosError::Harness(format!("reference journal create failed: {e}")))?;
    let data = cs.run(Some(&journal), &mut shared.clone(), |_| {});
    if let Some(err) = journal.io_error() {
        return Err(ChaosError::Harness(format!(
            "reference run hit a journal I/O error on a pristine vfs: {err}"
        )));
    }
    Ok((rendering(&data), fault.trace()))
}

/// Applies the recovery oracle to one fault script: run the victim
/// sweep — `cs` with the `victim` configuration, starting from a copy of
/// `shared` — under the script, then keep power-cycling and resuming
/// with `cs`'s own config and an empty cache until an attempt finishes
/// without crashing, and compare its rendering to `expected`. The victim
/// config must be fingerprint-compatible with `cs`'s
/// ([`SweepConfig::jobs`] is excluded from the journal fingerprint
/// precisely so this works).
pub fn verify_script_with(
    cs: &Sweep<'_>,
    victim: &SweepConfig,
    shared: &PointCache,
    expected: &str,
    script: &FaultScript,
) -> Result<CrashVerdict, ChaosError> {
    let fault = Arc::new(FaultVfs::new(script.clone()));
    let vfs: Arc<dyn Vfs> = fault.clone();
    let path = journal_path(cs);
    let victim = Sweep {
        config: *victim,
        ..*cs
    };

    // Victim pass. Creation can fail under an immediate scripted fault
    // (the tool refuses to start); that leaves nothing durable, which
    // recovery below treats as a clean fresh start.
    if let Ok(journal) = SweepJournal::open(vfs.clone(), &path, &victim, false) {
        let data = victim.run(Some(&journal), &mut shared.clone(), |_| {});
        if !fault.crashed() {
            // Non-crash faults may wreck durability, but they must
            // never corrupt the in-memory figure of a run that was
            // allowed to finish.
            let got = rendering(&data);
            if got != expected {
                return Err(divergence(
                    script,
                    "the uncrashed faulted run",
                    expected,
                    &got,
                ));
            }
        }
    }

    // Recovery loop. The op counter and the script continue across
    // reboots, so scripted faults can hit recovery itself; each entry
    // fires at most once, so `faults.len() + 2` restarts always reach a
    // fault-free attempt.
    for _ in 0..script.faults.len() + 2 {
        fault.reboot();
        match SweepJournal::open(vfs.clone(), &path, cs, true) {
            Ok(journal) => {
                let replayed = journal.replayed();
                let data = cs.run(Some(&journal), &mut PointCache::default(), |_| {});
                if fault.crashed() {
                    continue;
                }
                let got = rendering(&data);
                if got == expected {
                    return Ok(CrashVerdict::Identical { replayed });
                }
                return Err(divergence(script, "the recovered run", expected, &got));
            }
            Err(err) => {
                if fault.crashed() {
                    continue;
                }
                return Ok(CrashVerdict::Refused {
                    error: err.to_string(),
                });
            }
        }
    }
    Err(ChaosError::Harness(format!(
        "recovery kept crashing past every scripted fault ({script})"
    )))
}

/// [`verify_script_with`] for a sharded fleet: `shards` workers each run
/// their slice into their own journal, the scripted faults hit whoever
/// is doing I/O when their operation index comes up, and after recovery
/// the shards are merged and the merged figure compared to `expected`.
/// A worker whose journal latches a non-crash I/O error exits dirty and
/// the whole fleet is re-run (the operator's retry loop), so the merge
/// only happens after a fully clean pass.
pub fn verify_shard_script(
    cs: &Sweep<'_>,
    shards: usize,
    expected: &str,
    script: &FaultScript,
) -> Result<CrashVerdict, ChaosError> {
    let fault = Arc::new(FaultVfs::new(script.clone()));
    let vfs: Arc<dyn Vfs> = fault.clone();
    let dir = PathBuf::from("/chaos-shards");
    let specs: Vec<ShardSpec> = (1..=shards)
        .map(|i| ShardSpec::new(i, shards).expect("valid shard spec"))
        .collect();

    // Victim pass: the fleet runs worker by worker until the scripted
    // crash (if any) takes the machine down.
    for &shard in &specs {
        let path = dir.join(shard.file_name(cs.spec.id));
        if let Ok(journal) = SweepJournal::open(vfs.clone(), &path, cs, false) {
            cs.run_shard(shard, &journal, &mut PointCache::default(), |_| {});
        }
        if fault.crashed() {
            break;
        }
    }

    'attempt: for _ in 0..script.faults.len() + 3 {
        fault.reboot();
        let mut replayed = 0usize;
        for &shard in &specs {
            let path = dir.join(shard.file_name(cs.spec.id));
            match SweepJournal::open(vfs.clone(), &path, cs, true) {
                Ok(journal) => {
                    let report = cs.run_shard(shard, &journal, &mut PointCache::default(), |_| {});
                    if fault.crashed() || journal.io_error().is_some() {
                        continue 'attempt;
                    }
                    replayed += report.replayed;
                }
                Err(err) => {
                    if fault.crashed() {
                        continue 'attempt;
                    }
                    return Ok(CrashVerdict::Refused {
                        error: err.to_string(),
                    });
                }
            }
        }
        let report = merge_shards(&*fault, &dir, cs).map_err(|err| ChaosError::Divergence {
            script: script.clone(),
            detail: format!("shard merge failed after a clean recovery: {err}"),
        })?;
        if !report.quarantined.is_empty() || report.missing_points > 0 {
            return Err(ChaosError::Divergence {
                script: script.clone(),
                detail: format!(
                    "shard merge incomplete after a clean recovery: {} quarantined, {} missing",
                    report.quarantined.len(),
                    report.missing_points
                ),
            });
        }
        let got = rendering(&report.data);
        if got == expected {
            return Ok(CrashVerdict::Identical { replayed });
        }
        return Err(divergence(
            script,
            "the merged shard figure",
            expected,
            &got,
        ));
    }
    Err(ChaosError::Harness(format!(
        "shard recovery kept crashing past every scripted fault ({script})"
    )))
}

/// What the exhaustive crash-point sweep covered and concluded.
#[derive(Debug, Clone)]
pub struct CrashExploration {
    /// Mutating I/O operations in the reference trace.
    pub ops: usize,
    /// Pure power cuts verified (one per operation index).
    pub crash_points: usize,
    /// Dropped-fsync × delayed-crash pairs verified (the torn-file
    /// grid).
    pub torn_points: usize,
    /// Verdicts that resumed byte-identically.
    pub identical: usize,
    /// Verdicts that refused with a typed error.
    pub refused: usize,
    /// Refusals from the *pure-crash* pass specifically. The journal's
    /// whole-file atomic-rename commit means a clean power cut always
    /// leaves the previous fully-committed image, so this should be
    /// zero; torn-file refusals (header destroyed by a dropped fsync)
    /// are legitimate and excluded.
    pub refused_pure_crash: usize,
    /// Fewest points any identical verdict replayed.
    pub min_replayed: usize,
    /// Most points any identical verdict replayed.
    pub max_replayed: usize,
    /// Every refusal, with the script that caused it.
    pub refusals: Vec<(FaultScript, String)>,
}

impl fmt::Display for CrashExploration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops, {} crash points + {} torn points: {} identical, {} refused \
             ({} on pure crashes), replayed {}..={}, 0 divergent",
            self.ops,
            self.crash_points,
            self.torn_points,
            self.identical,
            self.refused,
            self.refused_pure_crash,
            self.min_replayed,
            self.max_replayed
        )
    }
}

/// Exhaustively explores every crash point of the reference sweep:
/// records the I/O trace, then for each operation index `k` re-runs the
/// sweep with a power cut at `k` and applies the recovery oracle. A
/// second pass manufactures torn files by pairing a dropped fsync at
/// each `SyncFile` operation with a crash up to `torn_window`
/// operations later. Every victim starts from a copy of `shared`, so a
/// warm cache puts the batched commit of its hits into the universe.
/// Returns the coverage report, or the first divergence found — the
/// report itself proves "zero silent divergence" over every explored
/// point.
pub fn explore_crash_points(
    cs: &Sweep<'_>,
    shared: &PointCache,
    torn_window: usize,
) -> Result<CrashExploration, ChaosError> {
    let (expected, trace) = run_reference(cs, shared)?;
    let ops = trace.len();
    let mut report = CrashExploration {
        ops,
        crash_points: 0,
        torn_points: 0,
        identical: 0,
        refused: 0,
        refused_pure_crash: 0,
        min_replayed: usize::MAX,
        max_replayed: 0,
        refusals: Vec::new(),
    };
    let tally = |report: &mut CrashExploration,
                 script: FaultScript,
                 verdict: CrashVerdict,
                 pure_crash: bool| {
        match verdict {
            CrashVerdict::Identical { replayed } => {
                report.identical += 1;
                report.min_replayed = report.min_replayed.min(replayed);
                report.max_replayed = report.max_replayed.max(replayed);
            }
            CrashVerdict::Refused { error } => {
                report.refused += 1;
                if pure_crash {
                    report.refused_pure_crash += 1;
                }
                report.refusals.push((script, error));
            }
        }
    };

    for k in 0..ops {
        let script = FaultScript::crash_at(k);
        report.crash_points += 1;
        let verdict = verify_script_with(cs, &cs.config, shared, &expected, &script)?;
        tally(&mut report, script, verdict, true);
    }

    for sync in trace.iter().filter(|t| t.kind == VfsOpKind::SyncFile) {
        // A crash index equal to `ops` never fires — that pair tests
        // the dropped fsync followed by a reboot at the very end.
        for k in sync.index + 1..=(sync.index + torn_window).min(ops) {
            let script = FaultScript {
                seed: cs.seed,
                faults: vec![(sync.index, Fault::DropSync), (k, Fault::Crash)],
            };
            report.torn_points += 1;
            let verdict = verify_script_with(cs, &cs.config, shared, &expected, &script)?;
            tally(&mut report, script, verdict, false);
        }
    }
    if report.identical == 0 {
        report.min_replayed = 0;
    }
    Ok(report)
}

/// Every fault species, mildest first — the order the shrinker prefers.
const FAULT_MENU: [Fault; 7] = [
    Fault::FailDirSync,
    Fault::FailRename,
    Fault::Enospc,
    Fault::ShortWrite,
    Fault::DropSync,
    Fault::TornWrite,
    Fault::Crash,
];

/// Generates the entries of a multi-fault script — one to five faults of
/// any species at operation indices below `max_op` — shrinking toward
/// fewer, earlier, milder faults.
pub fn script_gen(max_op: usize) -> Gen<Vec<(usize, Fault)>> {
    gens::vecs(
        gens::tuple2(
            gens::usizes(0..max_op.max(1)),
            gens::choice(FAULT_MENU.to_vec()),
        ),
        1..6,
    )
}
