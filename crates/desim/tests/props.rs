//! Property-based tests of the simulation kernel (spasm-testkit).

use spasm_desim::{EventQueue, SimTime};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq};

/// The event queue is a stable priority queue: pops are sorted by time,
/// and equal-time events preserve push order.
#[test]
fn event_queue_pops_sorted_and_stable() {
    check(
        "event_queue_pops_sorted_and_stable",
        &gens::vecs(gens::u64s(0..100), 0..200),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ns(t), i);
            }
            let mut expect: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
            expect.sort(); // stable sort: (time, push index)
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_ns(), i))).collect();
            prop_assert_eq!(got, expect);
            Ok(())
        },
    );
}

/// Interleaved pushes and pops never violate the time order among the
/// events popped after any push.
#[test]
fn event_queue_interleaved_operations() {
    check(
        "event_queue_interleaved_operations",
        &gens::vecs(gens::tuple2(gens::bools(), gens::u64s(0..50)), 0..100),
        |ops| {
            let mut q = EventQueue::new();
            let mut last_popped = None::<u64>;
            for &(push, t) in ops {
                if push {
                    // Monotonic pushes (like a simulator: never schedule
                    // in the past relative to consumed time).
                    let t = t.max(last_popped.unwrap_or(0));
                    q.push(SimTime::from_ns(t), ());
                } else if let Some((t, ())) = q.pop() {
                    if let Some(prev) = last_popped {
                        prop_assert!(t.as_ns() >= prev);
                    }
                    last_popped = Some(t.as_ns());
                }
            }
            Ok(())
        },
    );
}

/// SimTime arithmetic: associativity of addition and the saturating
/// subtraction identity `a - b + b >= a` (equality when b <= a).
#[test]
fn simtime_arithmetic() {
    check(
        "simtime_arithmetic",
        &gens::tuple3(
            gens::u64s(0..u64::MAX / 4),
            gens::u64s(0..u64::MAX / 4),
            gens::u64s(0..u64::MAX / 4),
        ),
        |&(a, b, c)| {
            let (ta, tb, tc) = (
                SimTime::from_ns(a),
                SimTime::from_ns(b),
                SimTime::from_ns(c),
            );
            prop_assert_eq!((ta + tb) + tc, ta + (tb + tc));
            if b <= a {
                prop_assert_eq!(ta - tb + tb, ta);
            } else {
                prop_assert_eq!(ta - tb, SimTime::ZERO);
            }
            prop_assert_eq!(ta.max(tb).as_ns(), a.max(b));
            prop_assert_eq!(ta.min(tb).as_ns(), a.min(b));
            Ok(())
        },
    );
}
