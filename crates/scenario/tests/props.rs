//! Property tests for the scenario parser: render∘parse round-trips,
//! and malformed input is rejected with a line-numbered error.

use spasm_core::figures::Metric;
use spasm_core::Net;
use spasm_scenario::{parse, render, Locality, Phase, Scenario};
use spasm_testkit::{check, check_with, gens, prop_assert, prop_assert_eq, Config, Gen};

/// Generates a structurally valid scenario across the whole knob space.
fn scenarios() -> Gen<Scenario> {
    let nums = gens::tuple4(
        gens::u64s(1..65),   // clients
        gens::u64s(1..33),   // rounds (kept small: these also run)
        gens::u64s(1..1025), // working-set
        gens::u64s(1..33),   // msg lo
    );
    let fracs = gens::tuple3(
        gens::f64s(0.0..1.0), // sharing
        gens::f64s(0.0..1.0), // writes
        gens::u64s(0..8),     // name suffix
    );
    let shape = gens::tuple4(
        gens::choice(vec![
            Locality::Ring,
            Locality::Neighbor,
            Locality::Uniform,
            Locality::Hotspot,
        ]),
        gens::choice(Net::ALL.to_vec()),
        gens::choice(vec![Metric::ExecTime, Metric::Latency, Metric::Contention]),
        gens::vecs(
            gens::choice(vec![
                Phase::Compute { cycles: 1 },
                Phase::Mem { ops: 1 },
                Phase::Comm { messages: 1 },
                Phase::Barrier,
            ]),
            1..6,
        ),
    );
    gens::tuple3(nums, fracs, shape).map(
        |(
            (clients, rounds, working_set, lo),
            (sharing, writes, suffix),
            (locality, net, metric, mut phases),
        )| {
            // Give the knob-bearing phases distinct in-range values so
            // the round-trip exercises the numeric fields too.
            for (i, ph) in phases.iter_mut().enumerate() {
                let v = (i as u64 % 7) + 1;
                match ph {
                    Phase::Compute { cycles } => *cycles = v * 100,
                    Phase::Mem { ops } => *ops = v * 3,
                    Phase::Comm { messages } => *messages = v,
                    Phase::Barrier => {}
                }
            }
            Scenario {
                name: format!("prop-{suffix}"),
                clients,
                rounds,
                working_set,
                sharing,
                writes,
                locality,
                msg_bytes: (lo, lo + (32 - lo) / 2),
                net,
                metric,
                phases,
            }
        },
    )
}

#[test]
fn parse_render_parse_round_trips() {
    check("scn_round_trip", &scenarios(), |sc| {
        let text = render(sc);
        let back = parse(&text).map_err(|e| format!("render output rejected: {e}\n{text}"))?;
        prop_assert_eq!(&back, sc);
        // Canonical text is a fixpoint.
        prop_assert_eq!(render(&back), text);
        Ok(())
    });
}

#[test]
fn corrupting_any_line_never_panics_and_names_the_line() {
    let corruptions = gens::tuple3(
        scenarios(),
        gens::usizes(0..64),
        gens::choice(vec![
            "garbage here",
            "clients = 9999",
            "sharing = 2.5",
            "bogus-key = 1",
            "[mystery]",
            "kind = dance",
        ]),
    );
    check(
        "scn_corruption_is_line_numbered",
        &corruptions,
        |(sc, line_idx, bad)| {
            let text = render(sc);
            let mut lines: Vec<&str> = text.lines().collect();
            let at = line_idx % lines.len();
            lines[at] = bad;
            let corrupted = lines.join("\n");
            match parse(&corrupted) {
                // Some corruptions can land harmlessly (e.g. replacing
                // one `kind = barrier` phase body is still an error,
                // but replacing a blank separator with `[mystery]` is
                // not — there are no blanks to hit; duplicates of
                // in-range keys *are* errors). Accept success only if
                // re-rendering still round-trips.
                Ok(got) => {
                    prop_assert!(
                        parse(&render(&got)).is_ok(),
                        "accepted text must stay parseable"
                    );
                }
                Err(e) => {
                    prop_assert!(e.line >= 1 && e.line <= lines.len());
                    prop_assert!(
                        e.to_string().starts_with(&format!("line {}", e.line)),
                        "error must be line-numbered: {}",
                        e
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn out_of_range_values_are_rejected_everywhere() {
    let cases = gens::tuple2(
        gens::choice(vec![
            ("clients", "0"),
            ("clients", "65"),
            ("rounds", "1025"),
            ("working-set", "0"),
            ("working-set", "65537"),
            ("sharing", "-0.1"),
            ("sharing", "nan"),
            ("writes", "1.0001"),
            ("msg-bytes", "0..8"),
            ("msg-bytes", "8..33"),
            ("msg-bytes", "12"),
        ]),
        gens::u64s(0..8),
    );
    check("scn_out_of_range_rejected", &cases, |((key, value), _)| {
        let text = format!("[scenario]\nname = x\n{key} = {value}\n[phase]\nkind = barrier\n");
        let e = parse(&text).map(|_| ()).unwrap_err();
        prop_assert_eq!(e.line, 3);
        Ok(())
    });
}

/// The bundled `examples/scenarios/*.scn` files, sorted by name.
fn bundled() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/scenarios is readable")
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("a bundled scenario is text"))
        .collect()
}

/// Hostile input for the parser, generated: any truncation, single-byte
/// flip or inflated number of a bundled scenario or of a rendered
/// generated one parses to a scenario that survives `parse(render(s))`,
/// or is refused with a line inside the text; a panic fails it.
#[test]
fn mutated_scenario_files_parse_or_refuse_on_a_line_of_theirs() {
    let files = bundled();
    assert!(files.len() >= 4, "{} bundled scenarios", files.len());
    // (source: a bundled file, or the generated scenario past the last
    // index; truncate | flip | inflate; position; flip mask; literal).
    let cases = gens::tuple3(
        scenarios(),
        gens::tuple2(gens::usizes(0..files.len() + 1), gens::usizes(0..3)),
        gens::tuple3(
            gens::usizes(0..4096),
            gens::usizes(1..256),
            gens::choice(vec![
                "18446744073709551615",
                "18446744073709551616",
                "99999999999999999999999",
                "1e300",
                "-1",
                "nan",
                "",
            ]),
        ),
    );
    let config = Config {
        cases: 512,
        ..Config::default()
    };
    check_with(
        config,
        "scn_hostile_files",
        &cases,
        |(sc, (source, edit), (at, mask, inflated))| {
            let text = files.get(*source).cloned().unwrap_or_else(|| render(sc));
            let mut bytes = text.into_bytes();
            let pos = at % bytes.len();
            match edit {
                0 => bytes.truncate(pos),
                1 => bytes[pos] ^= *mask as u8,
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
            let mutated = String::from_utf8_lossy(&bytes);
            match parse(&mutated) {
                Ok(got) => {
                    let again = parse(&render(&got)).map_err(|e| e.to_string())?;
                    prop_assert_eq!(again, got);
                }
                Err(e) => {
                    let lines = mutated.lines().count().max(1);
                    prop_assert!(
                        (1..=lines).contains(&e.line),
                        "line {} outside 1..={}: {}",
                        e.line,
                        lines,
                        e
                    );
                }
            }
            Ok(())
        },
    );
}
