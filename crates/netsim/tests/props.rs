//! Property-based tests for the network simulator (spasm-testkit).

use spasm_desim::SimTime;
use spasm_net::{Network, LINK_NS_PER_BYTE};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq, Gen};
use spasm_topology::{NodeId, Topology, TopologyKind};

fn kinds() -> Gen<TopologyKind> {
    gens::choice(vec![
        TopologyKind::Full,
        TopologyKind::Hypercube,
        TopologyKind::Mesh2D,
    ])
}

/// Raw messages as (at, src, dst, bytes); src/dst are reduced `% p` and
/// the batch is sorted by issue time inside each property, as a
/// discrete-event simulator would issue them.
fn msgs(slots: usize) -> Gen<Vec<(u64, usize, usize, u64)>> {
    gens::vecs(
        gens::tuple4(
            gens::u64s(0..10_000),
            gens::usizes(0..slots),
            gens::usizes(0..slots),
            gens::u64s(1..33),
        ),
        0..40,
    )
}

fn sorted_by_time(v: &[(u64, usize, usize, u64)]) -> Vec<(u64, usize, usize, u64)> {
    let mut v = v.to_vec();
    v.sort_by_key(|m| m.0);
    v
}

/// Deliveries never happen before their contention-free earliest time,
/// and latency always equals bytes x 50ns.
#[test]
fn delivery_times_consistent() {
    check(
        "delivery_times_consistent",
        &gens::tuple3(kinds(), gens::choice(vec![2usize, 4, 8, 16, 32]), msgs(32)),
        |(kind, p, raw)| {
            let (kind, p) = (*kind, *p);
            let mut net = Network::new(Topology::of_kind(kind, p));
            for (at, src, dst, bytes) in sorted_by_time(raw) {
                let (src, dst) = (NodeId(src % p), NodeId(dst % p));
                let d = net.send(SimTime::from_ns(at), src, dst, bytes);
                if src == dst {
                    prop_assert_eq!(d.arrive, SimTime::from_ns(at));
                    continue;
                }
                prop_assert_eq!(d.latency, SimTime::from_ns(bytes * LINK_NS_PER_BYTE));
                prop_assert!(d.depart >= SimTime::from_ns(at));
                prop_assert_eq!(d.arrive, d.depart + d.latency);
                prop_assert_eq!(d.contention, d.depart - SimTime::from_ns(at));
            }
            Ok(())
        },
    );
}

/// Messages between the same ordered pair are delivered in issue order
/// (FIFO links).
#[test]
fn same_pair_fifo() {
    check(
        "same_pair_fifo",
        &gens::tuple3(
            kinds(),
            gens::choice(vec![2usize, 4, 8, 16, 32]),
            gens::vecs(gens::u64s(0..5_000), 1..20),
        ),
        |(kind, p, times)| {
            let (kind, p) = (*kind, *p);
            let mut net = Network::new(Topology::of_kind(kind, p));
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut last_arrive = SimTime::ZERO;
            for t in sorted {
                let d = net.send(SimTime::from_ns(t), NodeId(0), NodeId(p - 1), 16);
                prop_assert!(d.arrive >= last_arrive);
                prop_assert!(d.depart >= last_arrive); // circuit: no overlap on shared links
                last_arrive = d.arrive;
            }
            Ok(())
        },
    );
}

/// The bisection count is the number of remote messages whose
/// endpoints the topology's canonical cut separates.
#[test]
fn bisection_crossings_count_crossing_messages() {
    check(
        "bisection_crossings_count_crossing_messages",
        &gens::tuple3(kinds(), gens::choice(vec![2usize, 4, 8, 16]), msgs(16)),
        |(kind, p, raw)| {
            let (kind, p) = (*kind, *p);
            let topo = Topology::of_kind(kind, p);
            let mut net = Network::new(topo);
            let mut crossings = 0u64;
            for (at, src, dst, bytes) in sorted_by_time(raw) {
                let (src, dst) = (NodeId(src % p), NodeId(dst % p));
                net.send(SimTime::from_ns(at), src, dst, bytes);
                if src != dst && topo.crosses_bisection(src, dst) {
                    crossings += 1;
                }
            }
            prop_assert_eq!(net.stats().bisection_crossings, crossings);
            Ok(())
        },
    );
}

/// On the fully connected network, messages between distinct ordered
/// pairs never contend.
#[test]
fn full_no_cross_pair_contention() {
    check(
        "full_no_cross_pair_contention",
        &gens::tuple2(gens::choice(vec![2usize, 4, 8, 16, 32]), msgs(32)),
        |(p, raw)| {
            let p = *p;
            let mut net = Network::new(Topology::full(p));
            let mut seen = std::collections::HashSet::new();
            for (at, src, dst, bytes) in sorted_by_time(raw) {
                let (src, dst) = (src % p, dst % p);
                if src == dst || !seen.insert((src, dst)) {
                    continue; // only first message per ordered pair
                }
                let d = net.send(SimTime::from_ns(at), NodeId(src), NodeId(dst), bytes);
                prop_assert_eq!(d.contention, SimTime::ZERO);
            }
            Ok(())
        },
    );
}
