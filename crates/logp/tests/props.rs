//! Property-based tests of the LogP gap machinery (spasm-testkit).

use spasm_desim::SimTime;
use spasm_logp::{GapPolicy, GapTracker, LogPParams, NetEvent};
use spasm_testkit::{check, gens, prop_assert, prop_assert_eq, Gen};
use spasm_topology::Topology;

/// Raw (node, is-send, at) events; sorted by time inside the property
/// (event order = time order, as the engine issues them).
fn events(p: usize) -> Gen<Vec<(usize, bool, u64)>> {
    gens::vecs(
        gens::tuple3(gens::usizes(0..p), gens::bools(), gens::u64s(0..10_000)),
        0..100,
    )
}

fn by_time(v: &[(usize, bool, u64)]) -> Vec<(usize, bool, u64)> {
    let mut v = v.to_vec();
    v.sort_by_key(|&(_, _, t)| t);
    v
}

/// Under the unified policy, consecutive grants at one node are at
/// least g apart, regardless of event kind.
#[test]
fn unified_grants_are_g_spaced() {
    check(
        "unified_grants_are_g_spaced",
        &gens::tuple2(events(4), gens::u64s(1..5_000)),
        |(raw, g)| {
            let g = *g;
            let mut tracker = GapTracker::new(4, SimTime::from_ns(g), GapPolicy::Unified);
            let mut last: [Option<SimTime>; 4] = [None; 4];
            for (node, send, at) in by_time(raw) {
                let kind = if send { NetEvent::Send } else { NetEvent::Recv };
                let grant = tracker.acquire(node, kind, SimTime::from_ns(at));
                prop_assert!(grant.start >= SimTime::from_ns(at));
                if let Some(prev) = last[node] {
                    prop_assert!(
                        grant.start >= prev + SimTime::from_ns(g),
                        "grants {prev} and {} closer than g={g}",
                        grant.start
                    );
                }
                last[node] = Some(grant.start);
            }
            Ok(())
        },
    );
}

/// Under the per-event-type policy, same-kind grants are g-spaced and
/// every grant is still at or after its request.
#[test]
fn per_type_grants_are_g_spaced_within_kind() {
    check(
        "per_type_grants_are_g_spaced_within_kind",
        &gens::tuple2(events(4), gens::u64s(1..5_000)),
        |(raw, g)| {
            let g = *g;
            let mut tracker = GapTracker::new(4, SimTime::from_ns(g), GapPolicy::PerEventType);
            let mut last: std::collections::HashMap<(usize, bool), SimTime> = Default::default();
            for (node, send, at) in by_time(raw) {
                let kind = if send { NetEvent::Send } else { NetEvent::Recv };
                let grant = tracker.acquire(node, kind, SimTime::from_ns(at));
                prop_assert!(grant.start >= SimTime::from_ns(at));
                if let Some(&prev) = last.get(&(node, send)) {
                    prop_assert!(grant.start >= prev + SimTime::from_ns(g));
                }
                last.insert((node, send), grant.start);
            }
            Ok(())
        },
    );
}

/// The per-event-type policy never waits longer than the unified policy
/// for the same event stream, grant by grant and in each node's summed
/// waits.
#[test]
fn per_type_is_never_slower() {
    check(
        "per_type_is_never_slower",
        &gens::tuple2(events(4), gens::u64s(1..5_000)),
        |(raw, g)| {
            let g = *g;
            let mut unified = GapTracker::new(4, SimTime::from_ns(g), GapPolicy::Unified);
            let mut per_type = GapTracker::new(4, SimTime::from_ns(g), GapPolicy::PerEventType);
            let mut waited_unified = [SimTime::ZERO; 4];
            let mut waited_per_type = [SimTime::ZERO; 4];
            for (node, send, at) in by_time(raw) {
                let kind = if send { NetEvent::Send } else { NetEvent::Recv };
                let gu = unified.acquire(node, kind, SimTime::from_ns(at));
                let gp = per_type.acquire(node, kind, SimTime::from_ns(at));
                prop_assert!(gp.start <= gu.start);
                waited_unified[node] += gu.waited;
                waited_per_type[node] += gp.waited;
            }
            for node in 0..4 {
                prop_assert!(waited_per_type[node] <= waited_unified[node]);
            }
            Ok(())
        },
    );
}

/// g derivation: for every topology and size, g is positive (p > 1)
/// and scales as the paper's closed forms dictate.
#[test]
fn g_derivation_matches_paper_forms() {
    check(
        "g_derivation_matches_paper_forms",
        &gens::choice(vec![2usize, 4, 8, 16, 32, 64]),
        |&p| {
            let full = LogPParams::for_topology(&Topology::full(p));
            let cube = LogPParams::for_topology(&Topology::hypercube(p));
            let mesh = LogPParams::for_topology(&Topology::mesh(p));
            prop_assert_eq!(full.g.as_ns(), 3_200 / p as u64);
            prop_assert_eq!(cube.g.as_ns(), 1_600);
            let (_, cols) = Topology::mesh(p).mesh_geometry();
            prop_assert_eq!(mesh.g.as_ns(), 800 * cols as u64);
            // Ordering at every size the paper sweeps: mesh >= cube >= full.
            prop_assert!(mesh.g >= cube.g);
            prop_assert!(cube.g >= full.g);
            Ok(())
        },
    );
}
