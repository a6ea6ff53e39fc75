//! Differential queue property suite: `EventQueue` must be
//! observationally identical to the `HeapQueue` oracle below — pop
//! sequences (including FIFO tie order), deferred heads, lengths, and the
//! `pushed()`/`popped()` accounting — across adversarial
//! schedules: same-timestamp bursts, clusters far apart in time,
//! interleaved push/pop, monotonic engine-like streams, and
//! non-monotonic inserts into the past.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use spasm_desim::{EventQueue, PopIfBefore, SimTime};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq};

/// The reference implementation: the simulator's original event queue, a
/// `BinaryHeap` keyed by `(time, push sequence)`. It was the product
/// queue until the calendar queue replaced it, and every committed
/// golden was first generated on it; here it defines what "the same
/// behaviour" means for any queue that takes its place.
struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    popped: u64,
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) out first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.popped += 1;
            (e.time, e.event)
        })
    }

    fn pop_if_before(&mut self, limit: SimTime) -> PopIfBefore<E> {
        match self.heap.peek() {
            None => PopIfBefore::Empty,
            Some(e) if e.time > limit => PopIfBefore::Deferred(e.time),
            Some(_) => {
                let (t, e) = self.pop().expect("peeked head must pop");
                PopIfBefore::Popped(t, e)
            }
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn pushed(&self) -> u64 {
        self.seq
    }

    fn popped(&self) -> u64 {
        self.popped
    }
}

/// One scripted operation against both queues.
#[derive(Clone, Debug)]
enum Op {
    Push(u64),
    Pop,
    PopIfBefore(u64),
}

/// Runs the script through both implementations in lock step, comparing
/// every observable result. Events carry their push index so FIFO tie
/// order is visible in the payload.
fn run_diff(ops: &[Op]) -> Result<(), String> {
    let mut cal: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut payload = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(t) => {
                cal.push(SimTime::from_ns(t), payload);
                heap.push(SimTime::from_ns(t), payload);
                payload += 1;
            }
            Op::Pop => {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b, "step {step}: pop diverged: {a:?} vs {b:?}");
            }
            Op::PopIfBefore(limit) => {
                let l = SimTime::from_ns(limit);
                let (a, b) = (cal.pop_if_before(l), heap.pop_if_before(l));
                prop_assert_eq!(
                    a,
                    b,
                    "step {step}: pop_if_before({limit}) diverged: {a:?} vs {b:?}"
                );
            }
        }
        prop_assert_eq!(cal.len(), heap.len(), "step {step}: len diverged");
        prop_assert_eq!(cal.pushed(), heap.pushed(), "step {step}: pushed diverged");
        prop_assert_eq!(cal.popped(), heap.popped(), "step {step}: popped diverged");
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let (a, b) = (cal.pop(), heap.pop());
        prop_assert_eq!(a, b, "drain: pop diverged: {a:?} vs {b:?}");
        if a.is_none() {
            prop_assert!(cal.is_empty(), "queue not empty after drain");
            return Ok(());
        }
    }
}

/// Decodes a raw `(sel, tsel, tweak)` tuple into an op. Timestamps come
/// from a palette mixing equal, near, far and extreme times, anchored at
/// `origin`.
fn decode(origin: u64, sel: u64, tsel: u64, tweak: u64) -> Op {
    let palette: [u64; 8] = [
        0,
        origin,
        origin.saturating_add(tweak % 64),         // within 64 ns
        origin.saturating_add(64 + tweak % 4_096), // near
        origin.saturating_add(32_768),             // a fixed offset: equal times
        origin.saturating_add(40_000 + tweak % 100_000), // farther
        origin.saturating_add(1 << 30).saturating_add(tweak), // far
        u64::MAX,                                  // extreme boundary
    ];
    let t = palette[(tsel % 8) as usize];
    match sel % 8 {
        0..=3 => Op::Push(t),
        4 | 5 => Op::Pop,
        _ => Op::PopIfBefore(t),
    }
}

#[test]
fn both_agree_on_a_monotonic_engine_stream() {
    let mut cal = EventQueue::new();
    let mut heap = HeapQueue::new();
    for i in 0..64u64 {
        cal.push(SimTime::from_ns(i % 7), i);
        heap.push(SimTime::from_ns(i % 7), i);
    }
    for i in 0..10_000u64 {
        let a = cal.pop().unwrap();
        let b = heap.pop().unwrap();
        assert_eq!(a, b);
        let t = a.0 + SimTime::from_ns((a.1 * 2654435761) % 4096 + 1);
        cal.push(t, i);
        heap.push(t, i);
    }
    assert_eq!(cal.len(), heap.len());
    // A zero deadline reports the head without popping it.
    assert_eq!(
        cal.pop_if_before(SimTime::ZERO),
        heap.pop_if_before(SimTime::ZERO)
    );
}

#[test]
fn random_interleaved_schedules_agree() {
    let raw = gens::tuple2(
        gens::u64s(0..100_000),
        gens::vecs(
            gens::tuple3(gens::u64s(0..8), gens::u64s(0..8), gens::u64s(0..u64::MAX)),
            1..200,
        ),
    );
    check(
        "queue_diff/random_interleaved",
        &raw,
        |(origin, raw_ops)| {
            let ops: Vec<Op> = raw_ops
                .iter()
                .map(|&(sel, tsel, tweak)| decode(*origin, sel, tsel, tweak))
                .collect();
            run_diff(&ops)
        },
    );
}

#[test]
fn same_timestamp_bursts_pop_fifo_identically() {
    // Bursts of equal timestamps with pops interleaved: FIFO tie order
    // must match the heap exactly.
    let raw = gens::vecs(
        gens::tuple3(gens::u64s(0..50_000), gens::u64s(2..65), gens::u64s(0..65)),
        1..6,
    );
    check("queue_diff/same_time_bursts", &raw, |bursts| {
        let mut ops = Vec::new();
        for &(t, burst, pops) in bursts {
            for _ in 0..burst {
                ops.push(Op::Push(t));
            }
            for _ in 0..pops.min(burst) {
                ops.push(Op::Pop);
            }
        }
        run_diff(&ops)
    });
}

#[test]
fn far_future_spills_and_reseeds_agree() {
    // Clusters separated by gaps of up to 2^50 ns: pops and pushes far
    // from every pending time.
    let raw = gens::vecs(
        gens::tuple3(
            gens::vecs(gens::u64s(0..10_000), 1..20),
            gens::u64s(0..25),
            gens::u64s(20..51),
        ),
        1..5,
    );
    check("queue_diff/far_future", &raw, |clusters| {
        let mut ops = Vec::new();
        let mut base = 0u64;
        for (offsets, pops, gap_log2) in clusters {
            for &off in offsets {
                ops.push(Op::Push(base.saturating_add(off)));
            }
            for _ in 0..*pops {
                ops.push(Op::Pop);
            }
            // Jump far ahead (up to 2^50 ns).
            base = base.saturating_add(1 << gap_log2);
        }
        ops.push(Op::PopIfBefore(0));
        run_diff(&ops)
    });
}

#[test]
fn monotonic_engine_like_streams_agree() {
    // The engine's usual shape: pop one, push a handful at bounded
    // offsets from "now" — times never go backwards.
    let raw = gens::vecs(
        gens::tuple2(gens::u64s(0..5_000), gens::vecs(gens::u64s(0..5_000), 0..3)),
        10..120,
    );
    check("queue_diff/monotonic", &raw, |rounds| {
        let mut ops = Vec::new();
        let mut now = 0u64;
        for _ in 0..8 {
            ops.push(Op::Push(now));
        }
        for (advance, offsets) in rounds {
            ops.push(Op::Pop);
            now += advance;
            for &off in offsets {
                ops.push(Op::Push(now + off));
            }
        }
        run_diff(&ops)
    });
}

#[test]
fn non_monotonic_inserts_into_the_past_agree() {
    // Drain forward, then schedule before the last popped timestamp
    // (the heap permits it; the queue must match).
    let raw = gens::tuple2(
        gens::u64s(1_000..200_000),
        gens::vecs(gens::tuple2(gens::u64s(0..200_000), gens::bools()), 1..40),
    );
    check("queue_diff/non_monotonic", &raw, |(t0, pasts)| {
        let mut ops = vec![Op::Push(*t0), Op::Pop];
        for &(t, pop) in pasts {
            // Anything in [0, t0): strictly before the last pop, at t0.
            ops.push(Op::Push(t % t0));
            if pop {
                ops.push(Op::Pop);
            }
        }
        run_diff(&ops)
    });
}

#[test]
fn pop_if_before_deadline_sweep_agrees() {
    let raw = gens::vecs(
        gens::tuple2(gens::u64s(0..100_000), gens::u64s(0..100_000)),
        1..30,
    );
    check("queue_diff/pop_if_before", &raw, |pairs| {
        let mut ops = Vec::new();
        for &(t, limit) in pairs {
            ops.push(Op::Push(t));
            ops.push(Op::PopIfBefore(limit));
        }
        // Deadline exactly at, just below, and just above a pending time.
        ops.push(Op::Push(77_777));
        ops.push(Op::PopIfBefore(77_776));
        ops.push(Op::PopIfBefore(77_777));
        ops.push(Op::PopIfBefore(u64::MAX));
        run_diff(&ops)
    });
}

#[test]
fn deterministic_regression_scripts() {
    // Hand-picked boundary scripts, kept deterministic so failures here
    // are immediately reproducible without a seed.
    let scripts: Vec<Vec<Op>> = vec![
        // A same-time burst far deeper than the engine ever holds.
        (0..200)
            .map(|_| Op::Push(42))
            .chain((0..200).map(|_| Op::Pop))
            .collect(),
        // u64::MAX and 0 with pops between.
        vec![
            Op::Push(u64::MAX),
            Op::PopIfBefore(0),
            Op::Push(0),
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ],
        // Adjacent times, pushed in ascending order.
        vec![
            Op::Push(32_767),
            Op::Push(32_768),
            Op::Push(32_769),
            Op::Pop,
            Op::Pop,
            Op::Pop,
        ],
        // Pop a far event, then schedule into the past.
        vec![
            Op::Push(1 << 40),
            Op::Pop,
            Op::Push(5),
            Op::Push(1 << 41),
            Op::Pop,
            Op::Pop,
        ],
        // pop_if_before on an empty queue, then deferred, then popped.
        vec![
            Op::PopIfBefore(100),
            Op::Push(50),
            Op::PopIfBefore(49),
            Op::PopIfBefore(50),
        ],
        // Engine-like drain with occasional same-time ties and reschedules.
        {
            let mut ops = Vec::new();
            let mut now = 0u64;
            for i in 0..400u64 {
                ops.push(Op::Push(now + (i * 2_654_435_761) % 4_096));
                if i % 3 != 0 {
                    ops.push(Op::Pop);
                    now += (i * 40_503) % 977;
                }
            }
            ops
        },
    ];
    for (i, script) in scripts.iter().enumerate() {
        if let Err(e) = run_diff(script) {
            panic!("script {i}: {e}");
        }
    }
}
