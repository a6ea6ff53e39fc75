//! Line-oriented parser and canonical renderer for the `.scn` format.
//!
//! The format is deliberately small and hermetic — a `[scenario]`
//! header section followed by one `[phase]` section per phase, each a
//! sequence of `key = value` lines, `#` to end of line for comments:
//!
//! ```text
//! [scenario]
//! name = streaming
//! clients = 4
//! locality = ring
//!
//! [phase]
//! kind = comm
//! messages = 8
//! ```
//!
//! Every diagnostic carries the 1-based line it points at; unknown
//! keys, duplicate keys, and out-of-range values are all refused
//! rather than ignored, so a typo cannot silently change a workload.

use std::fmt;

use spasm_core::figures::Metric;
use spasm_core::Net;

use crate::{Locality, Phase, Scenario};

/// Hard bounds on every numeric knob. A scenario is a *workload*, not a
/// stress test of the simulator: the caps keep any accepted file
/// runnable in a test-tier sweep.
pub mod limits {
    /// Logical clients emulated per processor.
    pub const CLIENTS: std::ops::RangeInclusive<u64> = 1..=64;
    /// Outer repetitions of the phase list.
    pub const ROUNDS: std::ops::RangeInclusive<u64> = 1..=1024;
    /// Per-processor working-set size in words.
    pub const WORKING_SET: std::ops::RangeInclusive<u64> = 1..=65_536;
    /// Cycles charged per client in a compute phase.
    pub const CYCLES: std::ops::RangeInclusive<u64> = 1..=1_000_000;
    /// Shared-memory operations per client in a mem phase.
    pub const OPS: std::ops::RangeInclusive<u64> = 1..=4_096;
    /// Messages per client in a comm phase.
    pub const MESSAGES: std::ops::RangeInclusive<u64> = 1..=4_096;
    /// Message size bounds in bytes.
    pub const MSG_BYTES: std::ops::RangeInclusive<u64> = 1..=32;
    /// Scenario name length.
    pub const NAME_LEN: std::ops::RangeInclusive<usize> = 1..=32;
}

/// A parse failure pinned to its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number the diagnostic points at.
    pub line: usize,
    /// What was wrong there.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Accumulates one `[scenario]` section.
#[derive(Default)]
struct Header {
    name: Option<String>,
    clients: Option<u64>,
    rounds: Option<u64>,
    working_set: Option<u64>,
    sharing: Option<f64>,
    writes: Option<f64>,
    locality: Option<Locality>,
    msg_bytes: Option<(u64, u64)>,
    net: Option<Net>,
    metric: Option<Metric>,
}

/// Accumulates one `[phase]` section; validated when the section ends.
#[derive(Default)]
struct PhaseAcc {
    /// Line of the `[phase]` header, for end-of-section diagnostics.
    line: usize,
    kind: Option<String>,
    cycles: Option<u64>,
    ops: Option<u64>,
    messages: Option<u64>,
}

enum Section {
    Preamble,
    Scenario,
    Phase(PhaseAcc),
}

fn parse_u64(line: usize, key: &str, raw: &str) -> Result<u64, ParseError> {
    raw.parse().map_err(|_| ParseError {
        line,
        message: format!("{key} wants an unsigned integer, got {raw:?}"),
    })
}

fn ranged(
    line: usize,
    key: &str,
    raw: &str,
    range: std::ops::RangeInclusive<u64>,
) -> Result<u64, ParseError> {
    let v = parse_u64(line, key, raw)?;
    if range.contains(&v) {
        Ok(v)
    } else {
        err(
            line,
            format!("{key} = {v} outside {}..={}", range.start(), range.end()),
        )
    }
}

fn unit_f64(line: usize, key: &str, raw: &str) -> Result<f64, ParseError> {
    let v: f64 = raw.parse().map_err(|_| ParseError {
        line,
        message: format!("{key} wants a number in 0..=1, got {raw:?}"),
    })?;
    if v.is_finite() && (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        err(line, format!("{key} = {raw} outside 0..=1"))
    }
}

fn dup<T>(line: usize, key: &str, slot: &Option<T>) -> Result<(), ParseError> {
    if slot.is_some() {
        err(line, format!("duplicate key {key:?}"))
    } else {
        Ok(())
    }
}

fn finish_phase(acc: PhaseAcc) -> Result<Phase, ParseError> {
    let kind = match &acc.kind {
        Some(k) => k.as_str(),
        None => return err(acc.line, "phase is missing its `kind`"),
    };
    let forbid = |line: usize, key: &str, slot: &Option<u64>| -> Result<(), ParseError> {
        if slot.is_some() {
            err(line, format!("{key} does not apply to a {kind} phase"))
        } else {
            Ok(())
        }
    };
    match kind {
        "compute" => {
            forbid(acc.line, "ops", &acc.ops)?;
            forbid(acc.line, "messages", &acc.messages)?;
            match acc.cycles {
                Some(cycles) => Ok(Phase::Compute { cycles }),
                None => err(acc.line, "compute phase is missing `cycles`"),
            }
        }
        "mem" => {
            forbid(acc.line, "cycles", &acc.cycles)?;
            forbid(acc.line, "messages", &acc.messages)?;
            match acc.ops {
                Some(ops) => Ok(Phase::Mem { ops }),
                None => err(acc.line, "mem phase is missing `ops`"),
            }
        }
        "comm" => {
            forbid(acc.line, "cycles", &acc.cycles)?;
            forbid(acc.line, "ops", &acc.ops)?;
            match acc.messages {
                Some(messages) => Ok(Phase::Comm { messages }),
                None => err(acc.line, "comm phase is missing `messages`"),
            }
        }
        "barrier" => {
            forbid(acc.line, "cycles", &acc.cycles)?;
            forbid(acc.line, "ops", &acc.ops)?;
            forbid(acc.line, "messages", &acc.messages)?;
            Ok(Phase::Barrier)
        }
        other => err(
            acc.line,
            format!("unknown phase kind {other:?} (valid: compute, mem, comm, barrier)"),
        ),
    }
}

fn valid_name(name: &str) -> bool {
    limits::NAME_LEN.contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
}

/// Parses a scenario file. See the module docs for the format; every
/// rejection names its line.
pub fn parse(text: &str) -> Result<Scenario, ParseError> {
    let mut header = Header::default();
    let mut saw_header = false;
    let mut phases: Vec<Phase> = Vec::new();
    let mut section = Section::Preamble;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = match name.strip_suffix(']') {
                Some(n) => n.trim(),
                None => return err(lineno, format!("unterminated section header {line:?}")),
            };
            // Close the section being left.
            if let Section::Phase(acc) = std::mem::replace(&mut section, Section::Preamble) {
                phases.push(finish_phase(acc)?);
            }
            section = match name {
                "scenario" => {
                    if saw_header {
                        return err(lineno, "duplicate [scenario] section");
                    }
                    if !phases.is_empty() {
                        return err(lineno, "[scenario] must precede every [phase]");
                    }
                    saw_header = true;
                    Section::Scenario
                }
                "phase" => {
                    if !saw_header {
                        return err(lineno, "[phase] before the [scenario] section");
                    }
                    Section::Phase(PhaseAcc {
                        line: lineno,
                        ..PhaseAcc::default()
                    })
                }
                other => return err(lineno, format!("unknown section [{other}]")),
            };
            continue;
        }
        let (key, value) = match line.split_once('=') {
            Some((k, v)) => (k.trim(), v.trim()),
            None => return err(lineno, format!("expected `key = value`, got {line:?}")),
        };
        if value.is_empty() {
            return err(lineno, format!("{key} has no value"));
        }
        match &mut section {
            Section::Preamble => {
                return err(lineno, "key before the [scenario] section");
            }
            Section::Scenario => match key {
                "name" => {
                    dup(lineno, key, &header.name)?;
                    if !valid_name(value) {
                        return err(
                            lineno,
                            format!(
                                "name {value:?} must be 1-32 chars of [a-z0-9-] \
                                 starting with a letter"
                            ),
                        );
                    }
                    header.name = Some(value.to_string());
                }
                "clients" => {
                    dup(lineno, key, &header.clients)?;
                    header.clients = Some(ranged(lineno, key, value, limits::CLIENTS)?);
                }
                "rounds" => {
                    dup(lineno, key, &header.rounds)?;
                    header.rounds = Some(ranged(lineno, key, value, limits::ROUNDS)?);
                }
                "working-set" => {
                    dup(lineno, key, &header.working_set)?;
                    header.working_set = Some(ranged(lineno, key, value, limits::WORKING_SET)?);
                }
                "sharing" => {
                    dup(lineno, key, &header.sharing)?;
                    header.sharing = Some(unit_f64(lineno, key, value)?);
                }
                "writes" => {
                    dup(lineno, key, &header.writes)?;
                    header.writes = Some(unit_f64(lineno, key, value)?);
                }
                "locality" => {
                    dup(lineno, key, &header.locality)?;
                    header.locality = Some(match value {
                        "ring" => Locality::Ring,
                        "neighbor" => Locality::Neighbor,
                        "uniform" => Locality::Uniform,
                        "hotspot" => Locality::Hotspot,
                        other => {
                            return err(
                                lineno,
                                format!(
                                    "unknown locality {other:?} \
                                     (valid: ring, neighbor, uniform, hotspot)"
                                ),
                            )
                        }
                    });
                }
                "msg-bytes" => {
                    dup(lineno, key, &header.msg_bytes)?;
                    let (lo, hi) = match value.split_once("..") {
                        Some((lo, hi)) => (lo.trim(), hi.trim()),
                        None => {
                            return err(lineno, format!("msg-bytes wants `lo..hi`, got {value:?}"))
                        }
                    };
                    let lo = ranged(lineno, "msg-bytes lower bound", lo, limits::MSG_BYTES)?;
                    let hi = ranged(lineno, "msg-bytes upper bound", hi, limits::MSG_BYTES)?;
                    if lo > hi {
                        return err(lineno, format!("msg-bytes bounds inverted: {lo} > {hi}"));
                    }
                    header.msg_bytes = Some((lo, hi));
                }
                "net" => {
                    dup(lineno, key, &header.net)?;
                    match Net::from_name(value) {
                        Ok(net) => header.net = Some(net),
                        Err(e) => return err(lineno, e.to_string()),
                    }
                }
                "metric" => {
                    dup(lineno, key, &header.metric)?;
                    header.metric = Some(match value {
                        "exec" => Metric::ExecTime,
                        "latency" => Metric::Latency,
                        "contention" => Metric::Contention,
                        other => {
                            return err(
                                lineno,
                                format!(
                                    "unknown metric {other:?} \
                                     (valid: exec, latency, contention)"
                                ),
                            )
                        }
                    });
                }
                other => return err(lineno, format!("unknown scenario key {other:?}")),
            },
            Section::Phase(acc) => match key {
                "kind" => {
                    dup(lineno, key, &acc.kind)?;
                    acc.kind = Some(value.to_string());
                }
                "cycles" => {
                    dup(lineno, key, &acc.cycles)?;
                    acc.cycles = Some(ranged(lineno, key, value, limits::CYCLES)?);
                }
                "ops" => {
                    dup(lineno, key, &acc.ops)?;
                    acc.ops = Some(ranged(lineno, key, value, limits::OPS)?);
                }
                "messages" => {
                    dup(lineno, key, &acc.messages)?;
                    acc.messages = Some(ranged(lineno, key, value, limits::MESSAGES)?);
                }
                other => return err(lineno, format!("unknown phase key {other:?}")),
            },
        }
    }
    if let Section::Phase(acc) = section {
        phases.push(finish_phase(acc)?);
    }
    let last = text.lines().count().max(1);
    if !saw_header {
        return err(last, "missing [scenario] section");
    }
    let name = match header.name {
        Some(n) => n,
        None => return err(last, "scenario is missing `name`"),
    };
    if phases.is_empty() {
        return err(last, "scenario has no [phase] sections");
    }
    Ok(Scenario {
        name,
        clients: header.clients.unwrap_or(1),
        rounds: header.rounds.unwrap_or(1),
        working_set: header.working_set.unwrap_or(64),
        sharing: header.sharing.unwrap_or(0.0),
        writes: header.writes.unwrap_or(0.5),
        locality: header.locality.unwrap_or(Locality::Ring),
        msg_bytes: header.msg_bytes.unwrap_or((8, 8)),
        net: header.net.unwrap_or(Net::Full),
        metric: header.metric.unwrap_or(Metric::ExecTime),
        phases,
    })
}

/// Renders a scenario back to canonical `.scn` text: every key
/// explicit, fixed order, one blank line between sections. The
/// canonical text is the scenario's durable identity — it enters the
/// sweep fingerprint — and `parse(render(s)) == s` always holds
/// (floats render via Rust's shortest-roundtrip `Display`).
pub fn render(sc: &Scenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("[scenario]\n");
    let _ = writeln!(out, "name = {}", sc.name);
    let _ = writeln!(out, "clients = {}", sc.clients);
    let _ = writeln!(out, "rounds = {}", sc.rounds);
    let _ = writeln!(out, "working-set = {}", sc.working_set);
    let _ = writeln!(out, "sharing = {}", sc.sharing);
    let _ = writeln!(out, "writes = {}", sc.writes);
    let _ = writeln!(out, "locality = {}", sc.locality);
    let _ = writeln!(out, "msg-bytes = {}..{}", sc.msg_bytes.0, sc.msg_bytes.1);
    let _ = writeln!(out, "net = {}", sc.net);
    let metric = match sc.metric {
        Metric::ExecTime => "exec",
        Metric::Latency => "latency",
        Metric::Contention => "contention",
        // Not a `.scn` metric: rendered so that parse refuses it by name.
        Metric::Events => "events",
    };
    let _ = writeln!(out, "metric = {metric}");
    for phase in &sc.phases {
        out.push('\n');
        out.push_str("[phase]\n");
        match phase {
            Phase::Compute { cycles } => {
                out.push_str("kind = compute\n");
                let _ = writeln!(out, "cycles = {cycles}");
            }
            Phase::Mem { ops } => {
                out.push_str("kind = mem\n");
                let _ = writeln!(out, "ops = {ops}");
            }
            Phase::Comm { messages } => {
                out.push_str("kind = comm\n");
                let _ = writeln!(out, "messages = {messages}");
            }
            Phase::Barrier => out.push_str("kind = barrier\n"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# A comment line.
[scenario]
name = smoke          # trailing comment
clients = 2
rounds = 3
working-set = 32
sharing = 0.25
writes = 0.5
locality = neighbor
msg-bytes = 4..16
net = cube
metric = latency

[phase]
kind = compute
cycles = 100

[phase]
kind = comm
messages = 2

[phase]
kind = barrier
";

    #[test]
    fn parses_the_full_grammar() {
        let sc = parse(GOOD).unwrap();
        assert_eq!(sc.name, "smoke");
        assert_eq!(sc.clients, 2);
        assert_eq!(sc.rounds, 3);
        assert_eq!(sc.working_set, 32);
        assert_eq!(sc.sharing, 0.25);
        assert_eq!(sc.locality, Locality::Neighbor);
        assert_eq!(sc.msg_bytes, (4, 16));
        assert_eq!(sc.net, Net::Cube);
        assert_eq!(sc.metric, Metric::Latency);
        assert_eq!(
            sc.phases,
            vec![
                Phase::Compute { cycles: 100 },
                Phase::Comm { messages: 2 },
                Phase::Barrier
            ]
        );
    }

    #[test]
    fn defaults_fill_every_optional_key() {
        let sc = parse("[scenario]\nname = tiny\n[phase]\nkind = barrier\n").unwrap();
        assert_eq!(sc.clients, 1);
        assert_eq!(sc.rounds, 1);
        assert_eq!(sc.working_set, 64);
        assert_eq!(sc.sharing, 0.0);
        assert_eq!(sc.writes, 0.5);
        assert_eq!(sc.locality, Locality::Ring);
        assert_eq!(sc.msg_bytes, (8, 8));
        assert_eq!(sc.net, Net::Full);
        assert_eq!(sc.metric, Metric::ExecTime);
    }

    #[test]
    fn rejections_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            (
                "[scenario]\nname = x\nbogus = 1\n[phase]\nkind = barrier",
                3,
                "unknown scenario key",
            ),
            (
                "[scenario]\nname = x\nname = y\n[phase]\nkind = barrier",
                3,
                "duplicate key",
            ),
            (
                "[scenario]\nname = x\nclients = 65\n[phase]\nkind = barrier",
                3,
                "outside 1..=64",
            ),
            (
                "[scenario]\nname = x\nsharing = 1.5\n[phase]\nkind = barrier",
                3,
                "outside 0..=1",
            ),
            (
                "[scenario]\nname = x\nlocality = star\n[phase]\nkind = barrier",
                3,
                "unknown locality",
            ),
            (
                "[scenario]\nname = x\nnet = ring\n[phase]\nkind = barrier",
                3,
                "unknown network \"ring\" (valid: full, cube, mesh)",
            ),
            (
                "[scenario]\nname = x\nmsg-bytes = 9..4\n[phase]\nkind = barrier",
                3,
                "inverted",
            ),
            (
                "[scenario]\nname = x\n[phase]\nkind = dance",
                3,
                "unknown phase kind",
            ),
            (
                "[scenario]\nname = x\n[phase]\nkind = compute",
                3,
                "missing `cycles`",
            ),
            (
                "[scenario]\nname = x\n[phase]\nkind = barrier\ncycles = 5",
                3,
                "does not apply",
            ),
            (
                "[scenario]\nname = Bad\n[phase]\nkind = barrier",
                2,
                "must be 1-32 chars",
            ),
            (
                "clients = 2\n[scenario]\nname = x",
                1,
                "before the [scenario]",
            ),
            (
                "[phase]\nkind = barrier",
                1,
                "[phase] before the [scenario]",
            ),
            ("[scenario]\nname = x", 2, "no [phase] sections"),
            ("[banana]\nname = x", 1, "unknown section"),
            ("[scenario\nname = x", 1, "unterminated"),
            ("[scenario]\nname = x\nwhat even\n", 3, "key = value"),
        ];
        for (text, line, needle) in cases {
            let e = parse(text).unwrap_err();
            assert_eq!(e.line, *line, "{text:?}: {e}");
            assert!(e.to_string().contains(needle), "{text:?}: {e}");
        }
    }

    #[test]
    fn render_parse_is_identity_on_the_example() {
        let sc = parse(GOOD).unwrap();
        let rendered = render(&sc);
        assert_eq!(parse(&rendered).unwrap(), sc);
        // Canonical text is a fixpoint of render ∘ parse.
        assert_eq!(render(&parse(&rendered).unwrap()), rendered);
    }
}
