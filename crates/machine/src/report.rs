//! SPASM-style textual profile of a run.
//!
//! SPASM "provides a wide range of statistical information about the
//! execution of the program", separating per-processor overheads so the
//! analyst can see *where* time went. [`RunReport::profile`] renders that
//! table: one row per processor with the separated buckets, plus machine
//! totals (traffic, cache behaviour, events).

use std::fmt::Write as _;

use crate::engine::RunReport;

impl RunReport {
    /// Renders the per-processor overhead profile as an aligned table.
    ///
    /// Columns: completion time, computation (busy), memory (hits/local),
    /// latency, contention, directory wait, synchronization spin, message
    /// count. All times in microseconds.
    pub fn profile(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "machine: {} | exec {:.1}us | {} events | wall {:.1?}",
            self.kind,
            self.exec_time_us(),
            self.events,
            self.wall
        );
        let _ = writeln!(
            out,
            "{:>5} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8}",
            "proc", "finish", "busy", "mem", "latency", "contention", "dirwait", "sync", "msgs"
        );
        for (proc, s) in self.per_proc.iter().enumerate() {
            let b = &s.buckets;
            let _ = writeln!(
                out,
                "{:>5} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>8}",
                proc,
                s.finish.as_us_f64(),
                b.busy.as_us_f64(),
                b.mem.as_us_f64(),
                b.latency.as_us_f64(),
                b.contention.as_us_f64(),
                b.dir_wait.as_us_f64(),
                b.sync.as_us_f64(),
                b.msgs,
            );
        }
        let t = &self.totals;
        let _ = writeln!(
            out,
            "{:>5} {:>11} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>8}",
            "sum",
            "",
            t.busy.as_us_f64(),
            t.mem.as_us_f64(),
            t.latency.as_us_f64(),
            t.contention.as_us_f64(),
            t.dir_wait.as_us_f64(),
            t.sync.as_us_f64(),
            t.msgs,
        );
        let m = &self.summary;
        let _ = writeln!(
            out,
            "network: {} msgs, {} bytes | cache: {} hits, {} misses, {} invalidations",
            m.net_messages, m.net_bytes, m.cache_hits, m.cache_misses, m.invalidations
        );
        if !self.region_traffic.is_empty() {
            let _ = writeln!(out, "per-structure traffic (labeled regions):");
            for (label, b) in &self.region_traffic {
                let _ = writeln!(
                    out,
                    "  {:>14}: latency {:>9.1}us  contention {:>9.1}us  msgs {:>7}",
                    label,
                    b.latency.as_us_f64(),
                    b.contention.as_us_f64(),
                    b.msgs,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, MachineKind, MemCtx, ProcBody, SetupCtx};
    use spasm_topology::Topology;

    fn demo_report() -> crate::RunReport {
        let topo = Topology::full(2);
        let mut setup = SetupCtx::new(2);
        let a = setup.alloc(1, 4);
        let bodies: Vec<ProcBody> = vec![
            Box::new(move |_, ctx| {
                let mem = MemCtx::new(ctx);
                mem.compute(100);
                mem.read(a);
            }),
            Box::new(|_, ctx| {
                MemCtx::new(ctx).compute(10);
            }),
        ];
        Engine::new(MachineKind::Target, &topo, setup, bodies)
            .run()
            .unwrap()
    }

    #[test]
    fn profile_renders_all_processors() {
        let r = demo_report();
        let table = r.profile();
        assert!(table.contains("machine: target"));
        assert!(table.lines().count() >= 6); // header x2 + 2 procs + sum + net
        assert!(table.contains("msgs"));
        assert!(table.contains("invalidations"));
    }
}
