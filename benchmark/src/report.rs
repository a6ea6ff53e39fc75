//! The metric vocabulary (the same names `BENCHMARK.json` lists) and
//! the two renderings of a run: `name value unit` lines for people, one
//! JSON object on the last line for the driver.

use std::fmt::{Display, Write as _};

/// End-to-end metrics: `(name, unit)`. Every workload reports all five.
/// `failed_share` is printed too but is not in this table: it is 0 on a
/// healthy tree, a bound relative to 0 is meaningless, and the result
/// line carries `failed` / `attempted` for exactly that purpose.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A metric that does not apply to
/// the traced workload (a bypassed layer's count, a CLI span on a grid)
/// reads exactly 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("desim.rendezvous_rtt_ns_p50", "ns"),
    ("desim.rendezvous_rtt_ns_p99", "ns"),
    ("desim.rendezvous_rtt_p32_ns_p50", "ns"),
    ("desim.rendezvous_share", "ratio"),
    ("desim.queue_hold64_ns", "ns"),
    ("desim.queue_hold4096_ns", "ns"),
    ("desim.queue_share", "ratio"),
    ("desim.ctx_switches_per_event", "1/event"),
    ("topology.route_ns.full", "ns"),
    ("topology.route_ns.cube", "ns"),
    ("topology.route_ns.mesh", "ns"),
    ("netsim.send_ns.full", "ns"),
    ("netsim.send_ns.cube", "ns"),
    ("netsim.send_ns.mesh", "ns"),
    ("netsim.messages", "count"),
    ("netsim.share", "ratio"),
    ("logp.acquire_ns_p50", "ns"),
    ("logp.messages", "count"),
    ("logp.share", "ratio"),
    ("cachesim.read_hit_ns", "ns"),
    ("cachesim.write_pingpong_ns", "ns"),
    ("cachesim.upgrade_fanout32_ns", "ns"),
    ("cachesim.evict_stream_ns", "ns"),
    ("cachesim.hits", "count"),
    ("cachesim.misses", "count"),
    ("cachesim.hit_ratio", "ratio"),
    ("cachesim.share", "ratio"),
    ("check.on_overhead_x", "x"),
    ("check.strict_overhead_x", "x"),
    ("machine.point_ns_per_event_p50", "ns"),
    ("machine.point_ns_per_event_p75", "ns"),
    ("machine.point_ns_per_op_p50", "ns"),
    ("machine.events", "count"),
    ("machine.ops", "count"),
    ("machine.sim_fingerprint", "hash52"),
    ("machine.telemetry_overhead_x", "x"),
    ("machine.optimistic_speedup_x", "x"),
    ("machine.rollbacks", "count"),
    ("apps.build_ms.ep", "ms"),
    ("apps.build_ms.is", "ms"),
    ("apps.build_ms.cg", "ms"),
    ("apps.build_ms.cholesky", "ms"),
    ("apps.build_ms.fft", "ms"),
    ("apps.build_share", "ratio"),
    ("scenario.parse_compile_us", "us"),
    ("scenario.render_fixpoint_ok", "count"),
    ("core.r5_clogp_over_target", "ratio"),
    ("core.logp_over_target", "ratio"),
    ("core.clogp_exec_err_pct", "%"),
    ("core.logp_exec_err_pct", "%"),
    ("core.clogp_latency_err_pct", "%"),
    ("core.merge_ms", "ms"),
    ("core.resume_replay_ms", "ms"),
    ("exec.dispatch_us", "us"),
    ("exec.jobs_speedup_x", "x"),
    ("exec.longest_point_share", "ratio"),
    ("journal.commit_us_p50", "us"),
    ("journal.commit_us_p95", "us"),
    ("journal.commit_mem_us_p50", "us"),
    ("journal.open_300_us", "us"),
    ("journal.bytes", "count"),
    ("bench.cli_startup_ms", "ms"),
    ("bench.trace_overhead_x", "x"),
];

/// A 64-bit fingerprint as a JSON-safe number: its low 52 bits, which a
/// double holds exactly. The full hex digest is in the record line.
pub fn fingerprint_metric(fp: u64) -> f64 {
    (fp & ((1 << 52) - 1)) as f64
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: sweep points, CLI invocations, byte checks.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Per-workload facts for the record line (point and pass counts,
    /// the full fingerprint).
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, key: &str, value: impl Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The per-layer (`trace`) or end-to-end metrics, in table order. A
    /// missing per-layer metric reads 0 (it does not apply to this
    /// workload); a missing end-to-end metric is a bug in the benchmark
    /// and reported as such.
    pub fn select(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| {
                let v = match self.value(name) {
                    Some(v) => v,
                    None if trace => 0.0,
                    None => panic!("workload did not report end-to-end metric {name}"),
                };
                (name, v, unit)
            })
            .collect()
    }
}

/// A JSON number with all the digits measured (`Display` prints whole
/// values without a fraction); non-finite values — a ratio over a zero
/// wall — degrade to 0 rather than to invalid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(report: &Report, selected: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, v, unit)) in selected.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(*v)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` is hand-written JSON; this keeps its two metric
    /// lists in step with the tables above without a JSON parser: every
    /// `"name": "<metric>"` must be a known metric with the same unit,
    /// and every known metric must appear.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repo root");
        let listed: Vec<(String, String)> = text
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = chunk.split('"').next()?;
                let unit = chunk.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name.to_string(), unit.to_string()))
            })
            .collect();
        let known: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, known);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = Report {
            attempted: 41,
            ..Report::default()
        };
        r.put("setup_s", 1.25);
        r.put("wall_s", 5.0);
        r.put("events_per_s", 431234.56789);
        r.put("cpu_s", 4.93);
        r.put("peak_rss_mb", 6.0);
        let line = result_line(&r, &r.select(false));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":41,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.25,\"unit\":\"s\"}"));
        assert!(line.contains("\"wall_s\":{\"value\":5,\"unit\":\"s\"}"));
        assert!(line.contains("\"events_per_s\":{\"value\":431234.56789,\"unit\":\"events/s\"}"));
        assert!(line.ends_with("}}"));
        r.failed = 2;
        assert!(
            result_line(&r, &[]).starts_with("{\"correct\":false,\"attempted\":41,\"failed\":2,")
        );
    }

    #[test]
    fn missing_per_layer_metrics_read_zero() {
        let mut r = Report::default();
        r.put("netsim.messages", 12.0);
        let sel = r.select(true);
        assert_eq!(sel.len(), PER_LAYER.len());
        assert_eq!(
            sel.iter().find(|m| m.0 == "netsim.messages").unwrap().1,
            12.0
        );
        assert_eq!(sel.iter().find(|m| m.0 == "logp.messages").unwrap().1, 0.0);
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(fingerprint_metric(u64::MAX), ((1u64 << 52) - 1) as f64);
    }
}
