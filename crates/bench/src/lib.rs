//! # spasm-bench — the command-line front ends
//!
//! * `figures` (`cargo run -p spasm-bench --release --bin figures --
//!   --all`) regenerates the data behind every figure of the paper's
//!   evaluation section as aligned tables and CSV;
//! * `scnlint` validates the telemetry JSONL that `figures --telemetry`
//!   writes.
//!
//! This library holds the flag-value parsers the binaries share. Host-time
//! measurement of the simulator itself lives in the repository's
//! `benchmark/` package (`bash benchmark/run.sh`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spasm_apps::SizeClass;

/// Parses a size-class name.
pub fn parse_size(s: &str) -> Option<SizeClass> {
    match s {
        "test" => Some(SizeClass::Test),
        "small" => Some(SizeClass::Small),
        "full" => Some(SizeClass::Full),
        _ => None,
    }
}

/// Parses a comma-separated processor list. Counts the networks cannot
/// host (non-powers-of-two, zero) are accepted here: the resilient
/// sweep layer reports them as typed `FAILED` points instead of the CLI
/// guessing at validity. A count given twice is refused: it would run
/// each of its points twice and print its row twice.
pub fn parse_procs(s: &str) -> Result<Vec<usize>, String> {
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
pub fn parse_jobs(s: &str) -> Option<usize> {
    if s == "auto" {
        return Some(0);
    }
    s.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_parsing() {
        assert_eq!(parse_size("test"), Some(SizeClass::Test));
        assert_eq!(parse_size("small"), Some(SizeClass::Small));
        assert_eq!(parse_size("full"), Some(SizeClass::Full));
        assert_eq!(parse_size("huge"), None);
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(parse_jobs("auto"), Some(0));
        assert_eq!(parse_jobs("0"), Some(0));
        assert_eq!(parse_jobs("1"), Some(1));
        assert_eq!(parse_jobs("8"), Some(8));
        assert_eq!(parse_jobs("many"), None);
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
