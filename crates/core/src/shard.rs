//! Sharded sweep fan-out: split one figure sweep across `N` cooperating
//! worker processes and crash-safely merge their journals.
//!
//! The *shard contract* is a pure function from a sweep's point space to
//! `N` disjoint shards: points are enumerated series-major (every
//! processor count of the first machine, then the second, …— exactly
//! the serial iteration order) and shard `K` (1-based) owns every point
//! whose zero-based index `i` satisfies `i % N == K - 1`. The contract
//! version ([`CONTRACT`]) is absorbed into the sweep fingerprint, so a
//! journal cut under a different point→shard mapping — or under any
//! other configuration difference — is refused, never merged.
//!
//! Each worker runs only its own points through the journaled sweep
//! path ([`Sweep::run_shard`]) into a per-shard journal
//! named by [`ShardSpec::file_name`]. [`merge_shards`] then reassembles
//! any set of shard journals into a [`FigureData`] whose renderings are
//! byte-identical to a single-process serial run:
//!
//! * torn-tail shard journals are read to their longest valid prefix
//!   (reported, never repaired on disk — a live worker may still own
//!   the file);
//! * interior-corrupt, undecodable, or fingerprint-mismatched shards
//!   are *quarantined* — excluded from the merge with a typed
//!   [`ShardError`], while the merge continues on the healthy shards;
//! * overlapping shards (the same point in several journals) are
//!   deduplicated by point key, with a conflict check over everything
//!   the simulation determines (host wall-clock excluded): the same
//!   point with *different* results is a determinism failure and
//!   aborts the merge with [`ShardError::Overlap`];
//! * points no surviving shard covers degrade to the partial-figure
//!   salvage path: a `FAILED` cell whose reason names the absent shard.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use spasm_journal::{Journal, JournalError, Vfs};

use crate::journal::{decode_point, replayed, ReplayPoint};
use crate::sweep::{FigureData, Sweep};
use crate::{ExperimentError, Machine, RunMetrics};

/// Whether two records of the same point agree on everything the
/// simulation determines. `RunMetrics::wall` is host wall-clock — two
/// honest runs of the same point measure different nanos — so it is
/// excluded; every other field, interval telemetry included, is
/// seeded-deterministic. Failures agree when their reasons do.
fn same_result(a: &ReplayPoint, b: &ReplayPoint) -> bool {
    let strip = |m: &RunMetrics| RunMetrics {
        wall: std::time::Duration::ZERO,
        ..*m
    };
    match (a, b) {
        (Ok((x, tx)), Ok((y, ty))) => strip(x) == strip(y) && tx == ty,
        (Err(ra), Err(rb)) => ra == rb,
        _ => false,
    }
}

/// Version tag of the shard contract (the point→shard mapping and the
/// shard-journal naming scheme), absorbed into the sweep fingerprint so
/// shards cut under a different contract are refused, not merged.
pub const CONTRACT: &str = "spasm-shard-rr-v1";

/// One shard of an `N`-way sweep partition: this worker owns every
/// series-major point index `i` with `i % count == index - 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index, in `1..=count`.
    pub index: usize,
    /// Total number of shards, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// A validated shard, or a message naming the constraint violated.
    pub fn new(index: usize, count: usize) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index == 0 || index > count {
            return Err(format!("shard index {index} outside 1..={count}"));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI form `K/N` (e.g. `2/3`).
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (k, n) = s
            .split_once('/')
            .ok_or_else(|| format!("expected K/N, got {s:?}"))?;
        let index = k
            .parse()
            .map_err(|_| format!("shard index {k:?} is not a number"))?;
        let count = n
            .parse()
            .map_err(|_| format!("shard count {n:?} is not a number"))?;
        ShardSpec::new(index, count)
    }

    /// Whether this shard owns the series-major point index `i`.
    ///
    /// Round-robin rather than contiguous blocks: every shard touches
    /// every series, so a lost shard costs a stripe of each curve
    /// instead of one machine's entire series.
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index - 1
    }

    /// The shard journal's file name for one figure,
    /// `<figure>.shard-K-of-N.journal`.
    pub fn file_name(&self, figure_id: &str) -> String {
        format!("{figure_id}.shard-{}-of-{}.journal", self.index, self.count)
    }

    /// Inverts [`ShardSpec::file_name`]: the figure id and shard this
    /// file name denotes, or `None` for anything else.
    pub fn parse_file_name(name: &str) -> Option<(&str, ShardSpec)> {
        let stem = name.strip_suffix(".journal")?;
        let (figure, shard) = stem.rsplit_once(".shard-")?;
        let (k, n) = shard.split_once("-of-")?;
        let spec = ShardSpec::new(k.parse().ok()?, n.parse().ok()?).ok()?;
        Some((figure, spec))
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Why a shard journal could not contribute to a merge.
#[derive(Debug)]
pub enum ShardError {
    /// The shard journal is unusable: unreadable, not a journal,
    /// interior-corrupt, or holding records that do not decode as sweep
    /// points. Quarantined: the merge proceeds without it.
    Corrupt {
        /// The shard journal path.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// Two shards hold the *same point with different results* — a
    /// determinism failure (the simulator is seeded and deterministic,
    /// so honest shards of one configuration can only agree). Aborts
    /// the merge: neither answer can be trusted.
    Overlap {
        /// The conflicting point's machine.
        machine: Machine,
        /// The conflicting point's processor count.
        procs: usize,
        /// The shard journal merged first.
        first: PathBuf,
        /// The shard journal that contradicted it.
        second: PathBuf,
    },
    /// No shard journal for this figure exists in the merge directory
    /// at all — there is nothing to salvage a partial figure from.
    Missing {
        /// The directory searched.
        dir: PathBuf,
        /// The figure whose shards were expected.
        figure: String,
    },
    /// The shard was written under a different sweep configuration (or
    /// shard contract). Quarantined: the merge proceeds without it.
    FingerprintMismatch {
        /// The shard journal path.
        path: PathBuf,
        /// The fingerprint this merge's configuration expects.
        expected: u64,
        /// The fingerprint in the shard's header.
        found: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Corrupt { path, detail } => {
                write!(f, "shard {} is corrupt: {detail}", path.display())
            }
            ShardError::Overlap {
                machine,
                procs,
                first,
                second,
            } => write!(
                f,
                "shards disagree on point ({machine}, p={procs}): {} vs {} \
                 (same configuration, different results — determinism failure)",
                first.display(),
                second.display()
            ),
            ShardError::Missing { dir, figure } => write!(
                f,
                "no shard journals for figure {figure} in {}",
                dir.display()
            ),
            ShardError::FingerprintMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "shard {} was written under a different configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// What [`merge_shards`] assembled and what it had to route around.
#[derive(Debug)]
pub struct MergeReport {
    /// The reassembled figure. When every point was covered, its
    /// renderings are byte-identical to a serial run's.
    pub data: FigureData,
    /// Shard journals that contributed at least their header.
    pub shards_merged: usize,
    /// Distinct points recovered from the shard journals.
    pub points_merged: usize,
    /// Identical records deduplicated across overlapping shards.
    pub duplicates: usize,
    /// Shards excluded from the merge, each with its typed reason
    /// ([`ShardError::Corrupt`] or [`ShardError::FingerprintMismatch`]).
    pub quarantined: Vec<ShardError>,
    /// Torn-tail bytes tolerated per shard (never repaired on disk).
    pub torn: Vec<(PathBuf, usize)>,
    /// Grid points no surviving shard covered; each is a `FAILED` cell
    /// in [`MergeReport::data`] naming the absent shard.
    pub missing_points: usize,
}

/// Reassembles the per-shard journals of `sweep` found in `dir` (on
/// `vfs`: `&RealVfs` for the disk) into a full figure, byte-identical to
/// a serial run when every point is covered. See the module docs for
/// the robustness ladder (torn tails tolerated, corrupt/mismatched
/// shards quarantined, overlaps deduplicated-then-conflict-checked,
/// missing points salvaged).
///
/// Purely a reader: no simulation runs, and no shard file is modified.
///
/// # Errors
///
/// [`ShardError::Missing`] when `dir` holds no shard journal for this
/// figure, and [`ShardError::Overlap`] when two shards disagree on one
/// point's result. Corrupt and mismatched shards are *not* errors here;
/// they are quarantined into [`MergeReport::quarantined`].
pub fn merge_shards(
    vfs: &dyn Vfs,
    dir: &Path,
    sweep: &Sweep<'_>,
) -> Result<MergeReport, ShardError> {
    let spec = sweep.spec;
    let fp = sweep.fingerprint();

    // Discover this figure's shard files, ignoring stray non-shard
    // entries (CSVs, notes, other figures' journals). Sorted by
    // (count, index) so merge order — and thus quarantine reports and
    // overlap attribution — is deterministic regardless of directory
    // iteration order.
    let mut files: Vec<(PathBuf, ShardSpec)> = vfs
        .list_dir(dir)
        .map_err(|e| ShardError::Missing {
            dir: dir.to_path_buf(),
            figure: format!("{} ({e})", spec.id),
        })?
        .into_iter()
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let (figure, shard) = ShardSpec::parse_file_name(name)?;
            (figure == spec.id).then_some((path, shard))
        })
        .collect();
    files.sort_by_key(|&(_, s)| (s.count, s.index));
    if files.is_empty() {
        return Err(ShardError::Missing {
            dir: dir.to_path_buf(),
            figure: spec.id.to_string(),
        });
    }
    // The partition width the merge expects: the widest family present.
    // With one shard family (the normal case) this is its `N`; mixed
    // families still yield a deterministic owner for missing points.
    let width = files.iter().map(|&(_, s)| s.count).max().unwrap_or(1);

    let mut merged: HashMap<(Machine, usize), (ReplayPoint, PathBuf)> = HashMap::new();
    let mut quarantined = Vec::new();
    let mut torn = Vec::new();
    let mut shards_merged = 0usize;
    let mut duplicates = 0usize;
    for (path, _) in &files {
        let recovery = match Journal::read_with(vfs, path, fp) {
            Ok(r) => r,
            Err(JournalError::FingerprintMismatch {
                expected, found, ..
            }) => {
                quarantined.push(ShardError::FingerprintMismatch {
                    path: path.clone(),
                    expected,
                    found,
                });
                continue;
            }
            Err(e) => {
                quarantined.push(ShardError::Corrupt {
                    path: path.clone(),
                    detail: e.to_string(),
                });
                continue;
            }
        };
        if recovery.truncated_bytes > 0 {
            torn.push((path.clone(), recovery.truncated_bytes));
        }
        let mut bad = None;
        for (index, record) in recovery.records.iter().enumerate() {
            let (machine, p, point) = match decode_point(record) {
                Ok(decoded) => decoded,
                Err(detail) => {
                    bad = Some(format!("record {index} does not decode: {detail}"));
                    break;
                }
            };
            match merged.get(&(machine, p)) {
                None => {
                    merged.insert((machine, p), (point, path.clone()));
                }
                Some((first_point, first_path)) => {
                    // Overlap: fine if the results agree (the point
                    // simply ran twice; the first record wins, so the
                    // merge stays deterministic under the sorted file
                    // order), fatal if they differ.
                    if same_result(first_point, &point) {
                        duplicates += 1;
                    } else {
                        return Err(ShardError::Overlap {
                            machine,
                            procs: p,
                            first: first_path.clone(),
                            second: path.clone(),
                        });
                    }
                }
            }
        }
        match bad {
            Some(detail) => {
                // Quarantine the whole shard: a journal whose records
                // pass their checksums but do not decode was written by
                // something else — none of it can be trusted. Points
                // already taken from it are withdrawn.
                merged.retain(|_, (_, p)| p != path);
                quarantined.push(ShardError::Corrupt {
                    path: path.clone(),
                    detail,
                });
            }
            None => shards_merged += 1,
        }
    }
    let points_merged = merged.len();

    // Assemble the figure exactly like a journal-replayed serial sweep:
    // recovered points verbatim, uncovered points as salvaged FAILED
    // cells naming the shard that should have produced them.
    let mut missing_points = 0usize;
    let data = FigureData::assemble(sweep, |machine, p, i| match merged.get(&(machine, p)) {
        Some((point, _)) => replayed(point),
        None => {
            missing_points += 1;
            let owner = ShardSpec {
                index: i % width + 1,
                count: width,
            };
            Err(ExperimentError::Replayed(format!(
                "point not merged: shard {owner} ({}) is absent, \
                 incomplete, or quarantined",
                owner.file_name(spec.id)
            )))
        }
    });
    Ok(MergeReport {
        data,
        shards_merged,
        points_merged,
        duplicates,
        quarantined,
        torn,
        missing_points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_partitions_every_point_exactly_once() {
        for n in [1usize, 2, 3, 8] {
            for i in 0..64 {
                let owners: Vec<usize> = (1..=n)
                    .filter(|&k| ShardSpec { index: k, count: n }.owns(i))
                    .collect();
                assert_eq!(owners.len(), 1, "point {i} under N={n}: {owners:?}");
                assert_eq!(owners[0], i % n + 1);
            }
        }
    }

    #[test]
    fn spec_validates_and_parses() {
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, count: 3 }
        );
        assert_eq!(ShardSpec::parse("1/1").unwrap().to_string(), "1/1");
        assert!(ShardSpec::parse("0/3").is_err());
        assert!(ShardSpec::parse("4/3").is_err());
        assert!(ShardSpec::parse("1/0").is_err());
        assert!(ShardSpec::parse("13").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    #[test]
    fn file_names_round_trip() {
        let shard = ShardSpec { index: 2, count: 8 };
        let name = shard.file_name("F13");
        assert_eq!(name, "F13.shard-2-of-8.journal");
        assert_eq!(ShardSpec::parse_file_name(&name), Some(("F13", shard)));
        // Figure ids containing dots survive the round trip.
        let dotted = shard.file_name("F1.3");
        assert_eq!(ShardSpec::parse_file_name(&dotted), Some(("F1.3", shard)));
        assert_eq!(ShardSpec::parse_file_name("F2.journal"), None);
        assert_eq!(ShardSpec::parse_file_name("F2.shard-0-of-3.journal"), None);
        assert_eq!(ShardSpec::parse_file_name("notes.txt"), None);
    }
}
