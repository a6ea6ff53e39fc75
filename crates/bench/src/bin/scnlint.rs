//! `scnlint` — offline validator for `figures --telemetry` JSONL files.
//!
//! Reads one or more telemetry files and checks, per
//! (figure, machine, procs) point:
//!
//! * every line is a flat JSON object with `"v":1` and a known `kind`;
//! * interval indexes strictly increase (the writer skips buckets with
//!   no events, so an index may jump);
//! * interval sim-time windows are monotone and non-overlapping
//!   (`t0 < t1`, next `t0 >= previous t1`);
//! * the summary's `intervals` count and `events` total match the
//!   interval lines that precede it.
//!
//! Exits 0 when every file is clean, 1 otherwise. The parser is
//! hand-rolled for the flat objects the harness emits; it is not a
//! general JSON parser and does not need to be.

use std::collections::HashMap;
use std::process::ExitCode;

/// A flat JSON value as emitted by the telemetry writer. A number keeps
/// its literal text, so an integer field is read exactly or not at all.
#[derive(Debug, Clone, PartialEq)]
enum Val {
    Str(String),
    Num(String),
    Null,
}

impl Val {
    /// The value as an unsigned integer, only if its literal is one that
    /// fits: `1e300`, `2.0` and anything past `u64::MAX` are refused rather
    /// than rounded or saturated.
    fn as_u64(&self) -> Option<u64> {
        match self {
            Val::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}`, no nesting).
fn parse_flat(line: &str) -> Result<HashMap<String, Val>, String> {
    let mut out = HashMap::new();
    let bytes = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < bytes.len() && bytes[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if i >= bytes.len() || bytes[i] != b'{' {
        return Err("expected '{'".into());
    }
    i += 1;
    loop {
        skip_ws(&mut i);
        if i < bytes.len() && bytes[i] == b'}' {
            i += 1;
            break;
        }
        let key = parse_string(bytes, &mut i)?;
        skip_ws(&mut i);
        if i >= bytes.len() || bytes[i] != b':' {
            return Err(format!("expected ':' after key {key:?}"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = if i < bytes.len() && bytes[i] == b'"' {
            Val::Str(parse_string(bytes, &mut i)?)
        } else if line[i..].starts_with("null") {
            i += 4;
            Val::Null
        } else {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                i += 1;
            }
            let text = &line[start..i];
            text.parse::<f64>()
                .map_err(|_| format!("bad number for key {key:?}"))?;
            Val::Num(text.to_string())
        };
        if out.insert(key.clone(), val).is_some() {
            return Err(format!("duplicate key {key:?}"));
        }
        skip_ws(&mut i);
        if i < bytes.len() && bytes[i] == b',' {
            i += 1;
        } else if i < bytes.len() && bytes[i] == b'}' {
            i += 1;
            break;
        } else {
            return Err("expected ',' or '}'".into());
        }
    }
    skip_ws(&mut i);
    if i != bytes.len() {
        return Err("trailing garbage after object".into());
    }
    Ok(out)
}

/// Parses a quoted JSON string (supports `\"` and `\\` escapes).
fn parse_string(bytes: &[u8], i: &mut usize) -> Result<String, String> {
    if *i >= bytes.len() || bytes[*i] != b'"' {
        return Err("expected '\"'".into());
    }
    *i += 1;
    let mut s = String::new();
    while *i < bytes.len() {
        match bytes[*i] {
            b'"' => {
                *i += 1;
                return Ok(s);
            }
            b'\\' => {
                *i += 1;
                if *i >= bytes.len() {
                    return Err("dangling escape".into());
                }
                match bytes[*i] {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'n' => s.push('\n'),
                    b't' => s.push('\t'),
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
                *i += 1;
            }
            c => {
                s.push(c as char);
                *i += 1;
            }
        }
    }
    Err("unterminated string".into())
}

/// Running state of one (figure, machine, procs) point.
#[derive(Default)]
struct PointState {
    intervals: u64,
    last_index: Option<u64>,
    events: u64,
    last_t1: u64,
    summarized: bool,
}

fn require_u64(obj: &HashMap<String, Val>, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Val::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?} (want 0..=u64::MAX)"))
}

fn lint_line(
    obj: &HashMap<String, Val>,
    points: &mut HashMap<String, PointState>,
) -> Result<(), String> {
    if require_u64(obj, "v")? != 1 {
        return Err("unknown schema version (want \"v\":1)".into());
    }
    let figure = obj
        .get("figure")
        .and_then(Val::as_str)
        .ok_or("missing figure")?;
    let machine = obj
        .get("machine")
        .and_then(Val::as_str)
        .ok_or("missing machine")?;
    let procs = require_u64(obj, "procs")?;
    let id = format!("{figure}/{machine}/p{procs}");
    let st = points.entry(id.clone()).or_default();
    match obj.get("kind").and_then(Val::as_str) {
        Some("interval") => {
            if st.summarized {
                return Err(format!("{id}: interval after summary"));
            }
            let index = require_u64(obj, "i")?;
            let t0 = require_u64(obj, "t0_ns")?;
            let t1 = require_u64(obj, "t1_ns")?;
            if let Some(last) = st.last_index.filter(|&last| index <= last) {
                return Err(format!(
                    "{id}: interval index {index} after {last}; indexes must increase"
                ));
            }
            if t0 >= t1 {
                return Err(format!("{id}: empty or inverted window {t0}..{t1}"));
            }
            if t0 < st.last_t1 {
                return Err(format!(
                    "{id}: window {t0}..{t1} overlaps previous end {}",
                    st.last_t1
                ));
            }
            let events = require_u64(obj, "events")?;
            st.events = st.events.checked_add(events).ok_or_else(|| {
                format!(
                    "{id}: interval events overflow u64 at index {index} ({} + {events})",
                    st.events
                )
            })?;
            st.intervals += 1;
            st.last_index = Some(index);
            st.last_t1 = t1;
            Ok(())
        }
        Some("summary") => {
            if st.summarized {
                return Err(format!("{id}: duplicate summary"));
            }
            let n = require_u64(obj, "intervals")?;
            let events = require_u64(obj, "events")?;
            if n != st.intervals {
                return Err(format!(
                    "{id}: summary claims {n} intervals, saw {}",
                    st.intervals
                ));
            }
            if events != st.events {
                return Err(format!(
                    "{id}: summary claims {events} events, intervals sum to {}",
                    st.events
                ));
            }
            match obj.get("outcome").and_then(Val::as_str) {
                Some("ok") | Some("failed") => {}
                _ => return Err(format!("{id}: bad outcome")),
            }
            st.summarized = true;
            Ok(())
        }
        _ => Err("missing or unknown kind".into()),
    }
}

fn lint_file(path: &str) -> Result<(u64, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let mut points: HashMap<String, PointState> = HashMap::new();
    let mut lines = 0u64;
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let obj = parse_flat(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        lint_line(&obj, &mut points).map_err(|e| format!("line {}: {e}", n + 1))?;
        lines += 1;
    }
    for (id, st) in &points {
        if !st.summarized {
            return Err(format!("{id}: interval lines without a summary"));
        }
    }
    Ok((lines, points.len() as u64))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: scnlint FILE.jsonl [FILE.jsonl ...]");
        return ExitCode::from(1);
    }
    let mut bad = false;
    for path in &args {
        match lint_file(path) {
            Ok((lines, points)) => {
                println!("{path}: ok ({lines} lines, {points} points)");
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                bad = true;
            }
        }
    }
    if bad {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_testkit::{check_with, gens, Config};

    fn lint_text(text: &str) -> Result<(), String> {
        let mut points = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let obj = parse_flat(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            lint_line(&obj, &mut points).map_err(|e| format!("line {}: {e}", n + 1))?;
        }
        for (id, st) in &points {
            if !st.summarized {
                return Err(format!("{id}: interval lines without a summary"));
            }
        }
        Ok(())
    }

    const GOOD: &str = concat!(
        "{\"v\":1,\"kind\":\"interval\",\"figure\":\"f\",\"app\":\"a\",\"net\":\"full\",\"machine\":\"target\",\"procs\":2,\"i\":0,\"t0_ns\":0,\"t1_ns\":100,\"events\":5,\"queue\":1,\"busy_ns\":50,\"mem_ns\":10,\"comm_ns\":5,\"sync_ns\":0,\"cache_hits\":3,\"cache_misses\":1,\"faults\":0}\n",
        "{\"v\":1,\"kind\":\"interval\",\"figure\":\"f\",\"app\":\"a\",\"net\":\"full\",\"machine\":\"target\",\"procs\":2,\"i\":1,\"t0_ns\":100,\"t1_ns\":250,\"events\":7,\"queue\":2,\"busy_ns\":80,\"mem_ns\":12,\"comm_ns\":6,\"sync_ns\":1,\"cache_hits\":4,\"cache_misses\":2,\"faults\":0}\n",
        "{\"v\":1,\"kind\":\"summary\",\"figure\":\"f\",\"app\":\"a\",\"net\":\"full\",\"machine\":\"target\",\"procs\":2,\"intervals\":2,\"events\":12,\"exec_us\":3.5,\"peak_queue\":2,\"outcome\":\"ok\"}\n",
    );

    #[test]
    fn clean_stream_passes() {
        assert!(lint_text(GOOD).is_ok());
    }

    #[test]
    fn overlap_and_count_violations_are_caught() {
        let overlapping = GOOD.replace("\"t0_ns\":100", "\"t0_ns\":50");
        assert!(lint_text(&overlapping).unwrap_err().contains("overlaps"));
        let short = GOOD.replace("\"intervals\":2", "\"intervals\":3");
        assert!(lint_text(&short)
            .unwrap_err()
            .contains("claims 3 intervals"));
        let lost = GOOD.replace("\"events\":12", "\"events\":11");
        assert!(lint_text(&lost).unwrap_err().contains("claims 11 events"));
        let unversioned = GOOD.replace(
            "\"v\":1,\"kind\":\"summary\"",
            "\"v\":2,\"kind\":\"summary\"",
        );
        assert!(lint_text(&unversioned)
            .unwrap_err()
            .contains("schema version"));
        let garbled = GOOD.replace(
            "{\"v\":1,\"kind\":\"summary\"",
            "{\"v\":1,\"kind\":\"summary\"}",
        );
        assert!(lint_text(&garbled).is_err());
    }

    #[test]
    fn an_event_sum_past_u64_max_is_refused_naming_the_point() {
        let forged = GOOD
            .replace("\"events\":5", "\"events\":18446744073709551615")
            .replace("\"events\":7", "\"events\":1")
            .replace("\"events\":12", "\"events\":0");
        let e = lint_text(&forged).unwrap_err();
        let named = "line 2: f/target/p2: interval events overflow u64";
        assert!(e.starts_with(named), "{e}");
    }

    #[test]
    fn an_integer_field_is_exact_or_refused() {
        let at_max = GOOD.replace("\"queue\":1", "\"queue\":18446744073709551615");
        assert!(lint_text(&at_max).is_ok());
        for inexact in ["18446744073709551616", "1e300", "1e0", "5.0", "-1"] {
            let bad = GOOD.replace("\"events\":5", &format!("\"events\":{inexact}"));
            let e = lint_text(&bad).unwrap_err();
            assert!(e.contains("non-integer field \"events\""), "{inexact}: {e}");
        }
    }

    /// Hostile input for the line decoder, generated: up to three
    /// truncations, single-byte flips or inflated numbers of the clean
    /// stream lint to `Ok` or `Err`; a panic (an unchecked sum, a bad
    /// slice) fails it.
    #[test]
    fn mutated_streams_lint_or_refuse_without_panicking() {
        // (truncate | flip | inflate, position, flip mask, inflated literal).
        let edit = gens::tuple4(
            gens::usizes(0..3),
            gens::usizes(0..4096),
            gens::usizes(1..256),
            gens::choice(vec![
                "18446744073709551615",
                "18446744073709551614",
                "18446744073709551616",
                "9223372036854775808",
                "1e300",
                "-1",
                "",
            ]),
        );
        let config = Config {
            cases: 1024,
            ..Config::default()
        };
        check_with(
            config,
            "scnlint_hostile_streams",
            &gens::vecs(edit, 1..4),
            |edits| {
                let mut bytes = GOOD.as_bytes().to_vec();
                for &(kind, at, mask, inflated) in edits {
                    if bytes.is_empty() {
                        break;
                    }
                    let pos = at % bytes.len();
                    match kind {
                        0 => bytes.truncate(pos),
                        1 => bytes[pos] ^= mask as u8,
                        _ => {
                            // The digits at or after `pos` become the literal.
                            let digits = |i: &usize| bytes[*i].is_ascii_digit();
                            let start = (pos..bytes.len()).find(digits).unwrap_or(bytes.len());
                            let end = (start..bytes.len())
                                .find(|i| !digits(i))
                                .unwrap_or(bytes.len());
                            bytes.splice(start..end, inflated.bytes());
                        }
                    }
                }
                let _ = lint_text(&String::from_utf8_lossy(&bytes));
                Ok(())
            },
        );
    }

    #[test]
    fn interval_indexes_may_jump_but_must_increase() {
        // The writer skips empty buckets: 0 then 3 is a valid stream.
        let skipped = GOOD.replace("\"i\":1", "\"i\":3");
        assert!(lint_text(&skipped).is_ok());
        let backwards = GOOD
            .replace("\"i\":0", "\"i\":3")
            .replace("\"i\":1", "\"i\":2");
        let e = lint_text(&backwards).unwrap_err();
        assert!(e.contains("interval index 2 after 3"), "{e}");
        let repeated = GOOD.replace("\"i\":1", "\"i\":0");
        let e = lint_text(&repeated).unwrap_err();
        assert!(e.contains("interval index 0 after 0"), "{e}");
    }

    #[test]
    fn summary_must_follow_its_intervals() {
        let mut lines: Vec<&str> = GOOD.lines().collect();
        lines.swap(1, 2);
        let reordered = lines.join("\n");
        assert!(lint_text(&reordered)
            .unwrap_err()
            .contains("claims 2 intervals"));
    }
}
