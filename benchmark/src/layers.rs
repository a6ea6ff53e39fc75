//! Per-layer measurements, taken purely from outside: timing probes on
//! each crate's public entry points, and layer replays that push one
//! point's exact operation counts through the same entry points.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use spasm_apps::{AppId, SizeClass};
use spasm_cache::{AccessKind, CacheConfig, CoherenceController};
use spasm_core::{Machine, Net};
use spasm_desim::{CalendarQueue, CoroPool, PopIfBefore, SimTime, Step};
use spasm_exec::{execute, ExecConfig, JobOutput};
use spasm_journal::{FaultVfs, Journal, RealVfs, Vfs};
use spasm_logp::{GapPolicy, GapTracker, NetEvent, L_NS};
use spasm_machine::SetupCtx;
use spasm_net::Network;
use spasm_topology::{NodeId, Topology, TopologyKind};

use crate::stats::{median, quantile_sorted, samples_beyond, SplitMix64};
use crate::trace::Recorder;

/// Samples per timing probe: p99 keeps ten samples beyond it.
const SAMPLES: usize = 1000;
/// Operations timed together as one sample, so `Instant` overhead
/// (~25 ns) stays below a few percent of a sample.
const BATCH: usize = 16;
/// Seed of the probes' src/dst streams: fixed, because probes measure
/// the layer and not the workload.
const PROBE_SEED: u64 = 0x5EED;

/// Nanoseconds per operation for each of `samples` batches of `batch`
/// calls of `op`, sorted ascending.
fn sample_ns(samples: usize, batch: usize, mut op: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            op();
        }
        out.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    out.sort_by(f64::total_cmp);
    out
}

fn p50(sorted: &[f64]) -> f64 {
    quantile_sorted(sorted, 0.50)
}

fn p99(sorted: &[f64]) -> f64 {
    debug_assert!(samples_beyond(sorted.len(), 0.99) >= 10);
    quantile_sorted(sorted, 0.99)
}

/// A pool of `p` processes that echo forever, each already started and
/// parked in its first `call`.
fn echo_pool(p: usize) -> CoroPool<u64, u64> {
    let mut pool = CoroPool::new(p, |_, ctx| {
        let mut x = 0u64;
        loop {
            x = ctx.call(x);
        }
    });
    for proc in 0..p {
        assert!(matches!(pool.resume(proc, 0), Step::Request(_)));
    }
    pool
}

/// One simulator↔process round trip: response in, next request out.
fn rendezvous(pool: &mut CoroPool<u64, u64>, proc: usize) {
    match pool.resume(proc, 1) {
        Step::Request(q) => {
            black_box(q);
        }
        other => panic!("echo process stopped: {other:?}"),
    }
}

/// A queue holding `depth` events at distinct times.
fn filled_queue(depth: usize) -> CalendarQueue<u32> {
    let mut q = CalendarQueue::new();
    for i in 0..depth {
        q.push(SimTime::from_ns(1000 + 37 * i as u64), i as u32);
    }
    q
}

/// The classic hold operation at steady depth: pop the head, push it
/// back `delta` later.
fn hold(q: &mut CalendarQueue<u32>, delta: u64) {
    match q.pop_if_before(SimTime::MAX) {
        PopIfBefore::Popped(t, e) => q.push(t + SimTime::from_ns(delta), e),
        _ => panic!("hold on an empty queue"),
    }
}

/// A seeded stream of distinct (src, dst) pairs on `p` nodes.
struct Pairs {
    rng: SplitMix64,
    p: u64,
}

impl Pairs {
    fn new(p: usize) -> Pairs {
        Pairs {
            rng: SplitMix64(PROBE_SEED),
            p: p as u64,
        }
    }

    fn next(&mut self) -> (usize, usize) {
        let src = self.rng.range(0, self.p - 1);
        let dst = (src + self.rng.range(1, self.p - 1)) % self.p;
        (src as usize, dst as usize)
    }
}

/// One journal payload the size of a journaled sweep point.
const RECORD: [u8; 160] = [0xA5; 160];

fn journal_commit_us(vfs: Arc<dyn Vfs>, path: &Path, appends: usize) -> Vec<f64> {
    let mut j = Journal::create_with(vfs, path, 0xBE7C).expect("probe journal creates");
    let mut us: Vec<f64> = (0..appends)
        .map(|_| {
            let t = Instant::now();
            j.append(&RECORD).expect("probe journal appends");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    us.sort_by(f64::total_cmp);
    us
}

/// The fixed timing probes: one number per layer entry point, the same
/// whatever workload is being traced. `scratch` is an existing directory
/// the journal probes may write into; `jobs` sizes the executor probe.
pub fn probes(scratch: &Path, jobs: usize, out: &mut Vec<(String, f64)>) {
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    // desim: the rendezvous and the event queue.
    {
        let mut pool = echo_pool(1);
        let s = sample_ns(SAMPLES, BATCH, || rendezvous(&mut pool, 0));
        put("desim.rendezvous_rtt_ns_p50", p50(&s));
        put("desim.rendezvous_rtt_ns_p99", p99(&s));
        let mut pool = echo_pool(32);
        let mut next = 0usize;
        let s = sample_ns(SAMPLES, BATCH, || {
            rendezvous(&mut pool, next);
            next = (next + 1) % 32;
        });
        put("desim.rendezvous_rtt_p32_ns_p50", p50(&s));
        for depth in [64usize, 4096] {
            let mut q = filled_queue(depth);
            let s = sample_ns(SAMPLES, BATCH, || hold(&mut q, 37 * depth as u64));
            put(&format!("desim.queue_hold{depth}_ns"), p50(&s));
        }
    }

    // topology + netsim at p = 32, per network.
    for kind in [
        TopologyKind::Full,
        TopologyKind::Hypercube,
        TopologyKind::Mesh2D,
    ] {
        let topo = Topology::of_kind(kind, 32);
        let mut pairs = Pairs::new(32);
        let mut route = Vec::new();
        let s = sample_ns(SAMPLES, BATCH, || {
            let (src, dst) = pairs.next();
            topo.try_route_into(NodeId(src), NodeId(dst), &mut route)
                .expect("probe endpoints are in range");
            black_box(route.len());
        });
        put(&format!("topology.route_ns.{kind}"), p50(&s));
        let mut net = Network::new(topo);
        let mut pairs = Pairs::new(32);
        let mut i = 0u64;
        let s = sample_ns(SAMPLES, BATCH, || {
            i += 1;
            let (src, dst) = pairs.next();
            black_box(net.send(SimTime::from_ns(i * 1000), NodeId(src), NodeId(dst), 32));
        });
        put(&format!("netsim.send_ns.{kind}"), p50(&s));
    }

    // logp: one abstract message = a send slot and a receive slot.
    {
        let mut gaps = GapTracker::new(32, SimTime::from_ns(L_NS), GapPolicy::Unified);
        let mut pairs = Pairs::new(32);
        let mut i = 0u64;
        let s = sample_ns(SAMPLES, BATCH, || {
            i += 1;
            let (src, dst) = pairs.next();
            let sent = gaps.acquire(src, NetEvent::Send, SimTime::from_ns(i * 1000));
            black_box(gaps.acquire(dst, NetEvent::Recv, sent.start + SimTime::from_ns(L_NS)));
        });
        put("logp.acquire_ns_p50", p50(&s));
    }

    // cachesim: the four paths of the coherence state machine.
    {
        let mut cc = CoherenceController::new(4, CacheConfig::paper());
        cc.access(0, 100, AccessKind::Read);
        let s = sample_ns(SAMPLES, BATCH, || {
            black_box(cc.access(0, 100, AccessKind::Read));
        });
        put("cachesim.read_hit_ns", p50(&s));

        let mut cc = CoherenceController::new(2, CacheConfig::paper());
        let mut turn = 0usize;
        let s = sample_ns(SAMPLES, BATCH, || {
            turn ^= 1;
            black_box(cc.access(turn, 100, AccessKind::Write));
        });
        put("cachesim.write_pingpong_ns", p50(&s));

        // A fresh block per sample: 32 sharers read it (untimed), then
        // node 0 upgrades and invalidates them all (timed).
        let mut cc = CoherenceController::new(64, CacheConfig::paper());
        let mut fanout: Vec<f64> = (0..SAMPLES as u64)
            .map(|block| {
                for sharer in 0..=32 {
                    cc.access(sharer, block, AccessKind::Read);
                }
                let t = Instant::now();
                black_box(cc.access(0, block, AccessKind::Write));
                t.elapsed().as_nanos() as f64
            })
            .collect();
        put("cachesim.upgrade_fanout32_ns", median(&mut fanout));

        let small = CacheConfig {
            size_bytes: 1024,
            assoc: 2,
            block_bytes: 32,
        };
        let mut cc = CoherenceController::new(1, small);
        let mut block = 0u64;
        let s = sample_ns(SAMPLES, BATCH, || {
            block += 1;
            black_box(cc.access(0, block % 4096, AccessKind::Write));
        });
        put("cachesim.evict_stream_ns", p50(&s));
    }

    // apps: building the processor bodies and the reference data.
    for app in AppId::ALL {
        let mut ms: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let mut setup = SetupCtx::new(8);
                black_box(app.instantiate(SizeClass::Small).build(&mut setup, 1995));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        put(&format!("apps.build_ms.{app}"), median(&mut ms));
    }

    // exec: pure dispatch cost of the worker pool.
    {
        const JOBS: usize = 10_000;
        let t = Instant::now();
        let report = execute(
            ExecConfig::with_jobs(jobs),
            (0..JOBS as u64).collect(),
            |_, i| JobOutput::plain(i),
            |_| {},
        );
        let us = t.elapsed().as_nanos() as f64 / 1e3 / JOBS as f64;
        assert_eq!(report.results.len(), JOBS);
        put("exec.dispatch_us", us);
    }

    // journal: the commit path with and without the disk under it, and
    // recovery of a 300-record file.
    {
        let disk = scratch.join("probe.journal");
        let s = journal_commit_us(Arc::new(RealVfs), &disk, 300);
        put("journal.commit_us_p50", p50(&s));
        // Each append is an fsync (1-3 ms here), so 300 and not 1 000 of
        // them: three samples beyond p99, fifteen beyond p95.
        debug_assert!(samples_beyond(s.len(), 0.95) >= 10);
        put("journal.commit_us_p95", quantile_sorted(&s, 0.95));
        let mut opens: Vec<f64> = (0..21)
            .map(|_| {
                let t = Instant::now();
                let (j, rec) = Journal::open(&disk, 0xBE7C).expect("probe journal reopens");
                assert_eq!((j.records(), rec.records.len()), (300, 300));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        put("journal.open_300_us", median(&mut opens));
        let _ = std::fs::remove_file(&disk);
        let mem = journal_commit_us(
            Arc::new(FaultVfs::pristine()),
            Path::new("/probe.journal"),
            300,
        );
        put("journal.commit_mem_us_p50", p50(&mem));
    }
}

/// Exact operation counts of one simulated point, as the real run
/// reported them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Coroutine rendezvous (memory operations dispatched).
    pub ops: u64,
    pub events: u64,
    pub messages: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// At most this many operations are pushed through a layer per replay
/// span; the span records both numbers and scales its time to the exact
/// count, so replaying stays a small fraction of the traced pass.
const REPLAY_CAP: u64 = 4096;

/// Replays one point's exact counts through the layers its machine
/// uses, on the point's own topology and processor count, as replay
/// spans under `parent`. Layers the machine bypasses get no span: their
/// estimated share reads exactly 0.
pub fn replay_point(
    rec: &mut Recorder,
    parent: u32,
    machine: Machine,
    net: Net,
    procs: usize,
    c: Counts,
) {
    let capped = |n: u64| n.min(REPLAY_CAP);

    if c.ops > 0 {
        // One live process, as in `desim.rendezvous_rtt_ns`: the best case
        // of a handoff, so the share is the rendezvous *floor*. The order
        // in which a real run resumes its p processes is not visible from
        // outside; resuming them round-robin costs 2-4x this and can
        // exceed the point's whole wall time.
        let mut pool = echo_pool(1);
        let n = capped(c.ops);
        rec.replay(parent, "desim.rendezvous", n, c.ops, || {
            for _ in 0..n {
                rendezvous(&mut pool, 0);
            }
        });
    }
    if c.events > 0 {
        // Steady depth ~ one pending event per processor plus in-flight
        // messages; 2p is the order of what the engines hold.
        let mut q = filled_queue(2 * procs);
        let n = capped(c.events);
        rec.replay(parent, "desim.queue", n, c.events, || {
            for _ in 0..n {
                hold(&mut q, 37 * 2 * procs as u64);
            }
        });
    }
    if c.messages > 0 && procs > 1 {
        let n = capped(c.messages);
        let mut pairs = Pairs::new(procs);
        match machine {
            Machine::Target => {
                let topo = Topology::of_kind(net.kind(), procs);
                let mut network = Network::new(topo);
                rec.replay(parent, "netsim.send", n, c.messages, || {
                    for i in 0..n {
                        let (src, dst) = pairs.next();
                        black_box(network.send(
                            SimTime::from_ns(i * 1000),
                            NodeId(src),
                            NodeId(dst),
                            32,
                        ));
                    }
                });
            }
            Machine::LogP | Machine::CLogP | Machine::CLogPPerEventGap => {
                let mut gaps = GapTracker::new(procs, SimTime::from_ns(L_NS), GapPolicy::Unified);
                rec.replay(parent, "logp.acquire", n, c.messages, || {
                    for i in 0..n {
                        let (src, dst) = pairs.next();
                        let sent = gaps.acquire(src, NetEvent::Send, SimTime::from_ns(i * 1000));
                        black_box(gaps.acquire(
                            dst,
                            NetEvent::Recv,
                            sent.start + SimTime::from_ns(L_NS),
                        ));
                    }
                });
            }
            Machine::Pram => {}
        }
    }
    let accesses = c.cache_hits + c.cache_misses;
    if accesses > 0 {
        // Hits replay as re-reads of a resident block, misses as reads of
        // never-seen blocks, in the point's own hit:miss proportion.
        let n = capped(accesses);
        let n_miss = (n as f64 * c.cache_misses as f64 / accesses as f64).round() as u64;
        let mut cc = CoherenceController::new(procs, CacheConfig::paper());
        for node in 0..procs {
            cc.access(node, node as u64, AccessKind::Read);
        }
        rec.replay(parent, "cachesim.access", n, accesses, || {
            for i in 0..n {
                let node = i as usize % procs;
                let block = if i < n_miss {
                    1_000_000 + i
                } else {
                    node as u64
                };
                black_box(cc.access(node, block, AccessKind::Read));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_distinct_and_in_range() {
        for p in [2usize, 8, 32] {
            let mut pairs = Pairs::new(p);
            for _ in 0..500 {
                let (s, d) = pairs.next();
                assert!(s < p && d < p && s != d, "p={p}: {s}->{d}");
            }
        }
    }

    #[test]
    fn hold_keeps_the_queue_depth() {
        let mut q = filled_queue(64);
        for _ in 0..1000 {
            hold(&mut q, 37 * 64);
        }
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn bypassed_layers_get_no_replay_span() {
        let counts = Counts {
            ops: 100,
            events: 200,
            messages: 50,
            cache_hits: 0,
            cache_misses: 0,
        };
        let mut rec = Recorder::new();
        replay_point(&mut rec, 0, Machine::LogP, Net::Mesh, 4, counts);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["desim.rendezvous", "desim.queue", "logp.acquire"]);
        assert!(rec.estimated_total_ns("netsim.send") == 0.0);

        let cached = Counts {
            cache_hits: 90_000,
            cache_misses: 10_000,
            ..counts
        };
        let mut rec = Recorder::new();
        replay_point(&mut rec, 0, Machine::Target, Net::Full, 8, cached);
        let names: Vec<&str> = rec.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "desim.rendezvous",
                "desim.queue",
                "netsim.send",
                "cachesim.access"
            ]
        );
        let cache = rec.spans().last().unwrap();
        assert_eq!((cache.replayed, cache.exact), (REPLAY_CAP, 100_000));
    }
}
