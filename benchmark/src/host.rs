//! What the host says about this process: CPU time, peak memory,
//! context switches, and the stamp every record carries.

use std::fs;
use std::time::Instant;

use crate::stats::median;

/// Clock ticks per second for `/proc/<pid>/stat` times. Linux has used
/// 100 on every architecture since 2.6; `run.sh` passes `getconf
/// CLK_TCK` through `BENCH_CLK_TCK` in case a host differs.
fn clk_tck() -> f64 {
    std::env::var("BENCH_CLK_TCK")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100.0)
}

/// CPU seconds from one `/proc/<pid>/stat` line: own user+sys time and
/// the user+sys time of waited-for children. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted
/// from the *last* `)`.
pub fn parse_stat_cpu(stat: &str, tck: f64) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i - 3)?.parse::<f64>().ok();
    let own = tick(14)? + tick(15)?;
    let children = tick(16)? + tick(17)?;
    Some((own / tck, children / tck))
}

/// `(own, waited-for children)` CPU seconds of this process so far.
pub fn cpu_seconds() -> (f64, f64) {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s, clk_tck()))
        .unwrap_or((0.0, 0.0))
}

/// The numeric value of a `Key:   123 kB`-style line of a
/// `/proc/<pid>/status` text.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

fn status_of(pid: &str) -> String {
    fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default()
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` works), in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    parse_status_field(&status_of(pid), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary + involuntary context switches of the calling thread's
/// group leader — the simulator thread, since every grid point runs its
/// event loop on the main thread.
pub fn ctx_switches() -> u64 {
    let s = status_of("self");
    parse_status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
        + parse_status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// `sched_yield` calls per calibration burst: about half a millisecond.
const BURST: u32 = 2000;

/// What one `sched_yield` costs on the reference host in a quiet phase.
pub const REF_YIELD_NS: f64 = 250.0;

/// The host's syscall-cost index, sampled while a measurement runs.
///
/// On the shared two-vCPU VMs this benchmark runs on, the cost of
/// entering and leaving the kernel drifts by +-20 % over tens of seconds
/// (pure user-mode code does not: a hashing loop repeats within 1 %),
/// and a simulator whose every memory operation is a spin/yield handoff
/// follows that drift one to one — ten runs of one grid spread 11-18 %
/// in raw seconds and 4-7 % once divided by this index. So every timed
/// phase is bracketed by bursts of `std::thread::yield_now()` on the
/// benchmark's own thread (a syscall that does nothing when nothing else
/// is runnable), and reported in *reference seconds*: measured seconds
/// times `REF_YIELD_NS / median burst cost`. The bursts run no code of
/// the simulator, so a change to the simulator cannot move the index.
#[derive(Debug, Default)]
pub struct SyscallIndex {
    bursts_ns: Vec<f64>,
}

impl SyscallIndex {
    /// Times one burst and adds it to the index.
    pub fn sample(&mut self) {
        let t = Instant::now();
        for _ in 0..BURST {
            std::thread::yield_now();
        }
        self.bursts_ns
            .push(t.elapsed().as_nanos() as f64 / f64::from(BURST));
    }

    /// Runs `f` between two groups of `bursts` bursts and returns its
    /// result with the index that brackets it.
    pub fn around<T>(bursts: usize, f: impl FnOnce() -> T) -> (T, SyscallIndex) {
        let mut index = SyscallIndex::default();
        (0..bursts).for_each(|_| index.sample());
        let out = f();
        (0..bursts).for_each(|_| index.sample());
        (out, index)
    }

    /// Median cost of one `sched_yield`, in ns.
    pub fn yield_ns(&self) -> f64 {
        median(&mut self.bursts_ns.clone())
    }

    /// Factor that turns seconds measured under this index into
    /// reference seconds.
    pub fn scale(&self) -> f64 {
        REF_YIELD_NS / self.yield_ns()
    }
}

/// The metadata without which two records are not comparable.
#[derive(Debug, Clone)]
pub struct HostStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    /// 1 when `run.sh` pinned this process to one CPU with `taskset`.
    pub pinned: u8,
    /// Executor workers the fleet uses: `min(nproc, 4)`.
    pub jobs: usize,
}

impl HostStamp {
    /// `rustc`, the git revision and the pinning are only known to
    /// `run.sh`, which hands them over in the environment.
    pub fn collect() -> HostStamp {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        let nproc = spasm_exec::available_parallelism();
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        // A pinned grid sees one CPU; the fleet's worker count must come
        // from the unpinned host, which run.sh records before pinning.
        let host_nproc = std::env::var("BENCH_NPROC")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(nproc);
        HostStamp {
            nproc: host_nproc,
            cpu_model,
            rustc: env("BENCH_RUSTC"),
            git_rev: env("BENCH_GIT_REV"),
            pinned: u8::from(env("BENCH_PINNED") == "1"),
            jobs: host_nproc.clamp(1, 4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        // comm = "a) b (c" — spaces and parentheses inside field 2.
        let line = "4242 (a) b (c) R 1 4242 4242 0 -1 4194304 83 0 0 0 \
                    150 50 30 20 20 0 1 0 276095 2703360 321";
        let (own, children) = parse_stat_cpu(line, 100.0).unwrap();
        assert_eq!(own, 2.0);
        assert_eq!(children, 0.5);
        assert!(parse_stat_cpu("no paren here", 100.0).is_none());
        assert!(parse_stat_cpu("1 (x) R 1 2", 100.0).is_none());
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        let status = "Name:\tfigures\nVmPeak:\t  9000 kB\nVmHWM:\t    1400 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(1400));
        assert_eq!(
            parse_status_field(status, "voluntary_ctxt_switches"),
            Some(12)
        );
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(3)
        );
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // "Vm" is a prefix of several keys but not itself a key.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn index_scales_to_reference_seconds() {
        let idx = SyscallIndex {
            bursts_ns: vec![500.0, 100.0, 300.0],
        };
        assert_eq!(idx.yield_ns(), 300.0);
        assert_eq!(idx.scale(), REF_YIELD_NS / 300.0);
        let mut live = SyscallIndex::default();
        live.sample();
        live.sample();
        assert!(live.yield_ns() > 0.0 && live.scale().is_finite());
    }

    #[test]
    fn live_proc_reads_are_sane() {
        let (own, _) = cpu_seconds();
        assert!(own >= 0.0);
        assert!(peak_rss_mb("self") > 0.0);
    }
}
