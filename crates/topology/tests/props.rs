//! Property-based tests for topology invariants (spasm-testkit).

use spasm_testkit::{check, gens, prop_assert, prop_assert_eq, Gen};
use spasm_topology::{NodeId, Topology, TopologyKind};

fn kinds() -> Gen<TopologyKind> {
    gens::choice(vec![
        TopologyKind::Full,
        TopologyKind::Hypercube,
        TopologyKind::Mesh2D,
    ])
}

/// Processor counts 2^0 .. 2^6; shrinks toward smaller machines.
fn pow2_procs() -> Gen<usize> {
    gens::choice(vec![1, 2, 4, 8, 16, 32, 64])
}

/// The common (kind, p, src, dst) case; src/dst are reduced `% p` inside
/// the properties, as the seed suite did.
fn kpsd() -> Gen<(TopologyKind, usize, usize, usize)> {
    gens::tuple4(
        kinds(),
        pow2_procs(),
        gens::usizes(0..64),
        gens::usizes(0..64),
    )
}

/// Every route is a connected chain from src to dst.
#[test]
fn routes_connect() {
    check("routes_connect", &kpsd(), |&(kind, p, s, d)| {
        let t = Topology::of_kind(kind, p);
        let (s, d) = (NodeId(s % p), NodeId(d % p));
        let path = t.route(s, d);
        let mut at = s;
        for link in &path {
            let (from, to) = t.endpoints(*link);
            prop_assert_eq!(from, at);
            at = to;
        }
        prop_assert_eq!(at, d);
        Ok(())
    });
}

/// Routes are minimal: the path length equals the topology's hop metric.
#[test]
fn routes_minimal() {
    check("routes_minimal", &kpsd(), |&(kind, p, s, d)| {
        let t = Topology::of_kind(kind, p);
        let (s, d) = (NodeId(s % p), NodeId(d % p));
        prop_assert_eq!(t.route(s, d).len(), t.hops(s, d));
        Ok(())
    });
}

/// A route never visits the same link twice (simple path).
#[test]
fn routes_simple() {
    check("routes_simple", &kpsd(), |&(kind, p, s, d)| {
        let t = Topology::of_kind(kind, p);
        let path = t.route(NodeId(s % p), NodeId(d % p));
        let mut seen = std::collections::HashSet::new();
        for link in &path {
            prop_assert!(seen.insert(link.0));
        }
        Ok(())
    });
}

/// The hop metric is symmetric for all three topologies.
#[test]
fn hops_symmetric() {
    check("hops_symmetric", &kpsd(), |&(kind, p, s, d)| {
        let t = Topology::of_kind(kind, p);
        let (s, d) = (NodeId(s % p), NodeId(d % p));
        prop_assert_eq!(t.hops(s, d), t.hops(d, s));
        Ok(())
    });
}

/// Deterministic routing: two calls give the identical path.
#[test]
fn routes_deterministic() {
    check("routes_deterministic", &kpsd(), |&(kind, p, s, d)| {
        let t = Topology::of_kind(kind, p);
        let (s, d) = (NodeId(s % p), NodeId(d % p));
        prop_assert_eq!(t.route(s, d), t.route(s, d));
        Ok(())
    });
}

/// Every link is used by at least one route (no dead links), p >= 2.
#[test]
fn all_links_reachable() {
    check(
        "all_links_reachable",
        &gens::tuple2(kinds(), gens::choice(vec![2usize, 4, 8, 16, 32])),
        |&(kind, p)| {
            let t = Topology::of_kind(kind, p);
            let mut used = vec![false; t.link_count()];
            for s in t.node_ids() {
                for d in t.node_ids() {
                    for link in t.route(s, d) {
                        used[link.0] = true;
                    }
                }
            }
            prop_assert!(used.iter().all(|&u| u), "{kind:?} p={p} has unused links");
            Ok(())
        },
    );
}
