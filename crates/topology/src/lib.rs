//! # spasm-topology — interconnection network topologies
//!
//! The three network topologies evaluated by the paper (§5):
//!
//! * **fully connected** — two serial links (one per direction) between every
//!   pair of processors;
//! * **binary hypercube** — one link per direction per cube edge, e-cube
//!   (dimension-order) routing;
//! * **2-D mesh** — modelled on the Intel Touchstone Delta: North/South/
//!   East/West links, X-then-Y (XY) dimension-order routing, equal rows and
//!   columns when the processor count is an even power of two, otherwise
//!   twice as many columns as rows.
//!
//! This crate is pure combinatorics: node naming, link ids computed from
//! their endpoints, deterministic routing paths, and the bisection cut
//! that traffic-locality measurements use. The timing model lives in
//! `spasm-net`; LogP's *g* follows the paper's §5 rules, written out in
//! `spasm_logp::LogPParams::for_topology`.
//!
//! # Example
//!
//! ```
//! use spasm_topology::{NodeId, Topology};
//!
//! let mesh = Topology::mesh(16); // 4x4
//! let path = mesh.route(NodeId(0), NodeId(15));
//! assert_eq!(path.len(), 6); // 3 hops east + 3 hops south
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod route;

use std::fmt;

/// Identifier of a processing node, `0..p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a unidirectional link, dense in
/// `0..`[`Topology::link_count`] so per-link state fits a flat vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

/// Why a topology could not be constructed or a route could not be
/// produced.
///
/// [`Topology::try_of_kind`] and [`Topology::try_route_into`] return these
/// instead of panicking, so experiment drivers can surface a bad
/// configuration as a typed error rather than aborting a whole sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// The processor count was zero.
    ZeroNodes,
    /// The processor count was not a power of two (all three topologies in
    /// the study restrict `p` to powers of two, matching the paper).
    NotPowerOfTwo(usize),
    /// The processor count exceeds [`MAX_NODES`].
    TooLarge {
        /// The requested processor count.
        p: usize,
        /// The maximum supported ([`MAX_NODES`]).
        max: usize,
    },
    /// A node id was outside `0..p`.
    NodeOutOfRange {
        /// The offending node id.
        node: usize,
        /// The topology's processor count.
        p: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroNodes => f.write_str("processor count must be positive"),
            TopologyError::NotPowerOfTwo(p) => {
                write!(f, "processor count must be a power of two (got {p})")
            }
            TopologyError::TooLarge { p, max } => {
                write!(f, "processor count {p} exceeds the maximum {max}")
            }
            TopologyError::NodeOutOfRange { node, p } => {
                write!(f, "node n{node} out of range (p = {p})")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The most processors any topology, and so any machine, has: the
/// target's full-map directory keeps one presence bit per node in a
/// 64-bit word, and the paper's sweeps run p = 2…32.
pub const MAX_NODES: usize = 64;

/// Which of the paper's three interconnects a [`Topology`] instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Fully connected: a dedicated link per ordered node pair.
    Full,
    /// Binary hypercube with e-cube routing.
    Hypercube,
    /// 2-D mesh with XY routing.
    Mesh2D,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Full => "full",
            TopologyKind::Hypercube => "cube",
            TopologyKind::Mesh2D => "mesh",
        };
        f.write_str(s)
    }
}

/// An interconnection network topology over `p` nodes.
///
/// Construction validates the processor count (all three topologies in the
/// study restrict `p` to powers of two, matching the paper). The networks
/// are regular, so a topology is four numbers and every link id is a
/// formula of its endpoints.
#[derive(Debug, Clone, Copy)]
pub struct Topology {
    kind: TopologyKind,
    p: usize,
    /// Mesh geometry; rows == cols == 0 for non-mesh topologies.
    rows: usize,
    cols: usize,
}

impl Topology {
    /// Creates a fully connected network over `p` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero, not a power of two, or oversized; see
    /// [`Topology::try_of_kind`] for the fallible form.
    pub fn full(p: usize) -> Self {
        Topology::of_kind(TopologyKind::Full, p)
    }

    /// Creates a binary hypercube over `p` nodes.
    ///
    /// # Panics
    ///
    /// As [`Topology::full`].
    pub fn hypercube(p: usize) -> Self {
        Topology::of_kind(TopologyKind::Hypercube, p)
    }

    /// Creates a 2-D mesh over `p` nodes.
    ///
    /// Per the paper: equal rows and columns when `p` is an even power of
    /// two; otherwise the number of columns is twice the number of rows.
    ///
    /// # Panics
    ///
    /// As [`Topology::full`].
    pub fn mesh(p: usize) -> Self {
        Topology::of_kind(TopologyKind::Mesh2D, p)
    }

    /// Creates the topology of the given kind over `p` nodes.
    ///
    /// # Panics
    ///
    /// Panics on an invalid `p`; see [`Topology::try_of_kind`].
    pub fn of_kind(kind: TopologyKind, p: usize) -> Self {
        Topology::try_of_kind(kind, p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the topology of the given kind over `p` nodes, returning a
    /// typed error instead of panicking on an invalid processor count.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] when `p` is zero, not a power of two,
    /// or exceeds [`MAX_NODES`].
    pub fn try_of_kind(kind: TopologyKind, p: usize) -> Result<Self, TopologyError> {
        validate_p(p)?;
        let (rows, cols) = match kind {
            TopologyKind::Mesh2D => mesh_shape(p),
            TopologyKind::Full | TopologyKind::Hypercube => (0, 0),
        };
        Ok(Topology {
            kind,
            p,
            rows,
            cols,
        })
    }

    /// Which topology family this is.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of processing nodes.
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// Number of unidirectional links: `p(p−1)` for the full network,
    /// `p·log2 p` for the hypercube, two per grid edge for the mesh.
    pub fn link_count(&self) -> usize {
        match self.kind {
            TopologyKind::Full => self.p * (self.p - 1),
            TopologyKind::Hypercube => self.p * self.p.trailing_zeros() as usize,
            TopologyKind::Mesh2D => 2 * (self.horizontal_edges() + self.cols * (self.rows - 1)),
        }
    }

    /// The `(src, dst)` endpoints of a link: the inverse of the id
    /// formula routing uses.
    ///
    /// # Panics
    ///
    /// Panics if `link` is not below [`Topology::link_count`].
    pub fn endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let l = link.0;
        assert!(l < self.link_count(), "link {l} out of range");
        let (a, b) = match self.kind {
            TopologyKind::Full => {
                let (a, r) = (l / (self.p - 1), l % (self.p - 1));
                (a, r + usize::from(r >= a))
            }
            TopologyKind::Hypercube => {
                let dims = self.p.trailing_zeros() as usize;
                let a = l / dims;
                (a, a ^ (1 << (l % dims)))
            }
            TopologyKind::Mesh2D => {
                let edge = l / 2;
                let h = self.horizontal_edges();
                let (lo, hi) = if edge < h {
                    let lo = edge / (self.cols - 1) * self.cols + edge % (self.cols - 1);
                    (lo, lo + 1)
                } else {
                    (edge - h, edge - h + self.cols)
                };
                if l.is_multiple_of(2) {
                    (lo, hi)
                } else {
                    (hi, lo)
                }
            }
        };
        (NodeId(a), NodeId(b))
    }

    /// The id of the link from `a` to the adjacent node `b`.
    ///
    /// Full: `a(p−1) + b − [b > a]`. Hypercube: `a·log2 p` plus the
    /// dimension the two differ in. Mesh: each grid edge, horizontal ones
    /// first, numbered by its lower node, holds ids `2·edge` (towards the
    /// higher node) and `2·edge + 1`.
    fn link(&self, a: usize, b: usize) -> LinkId {
        debug_assert_eq!(
            self.hops(NodeId(a), NodeId(b)),
            1,
            "n{a}, n{b} not adjacent"
        );
        LinkId(match self.kind {
            TopologyKind::Full => a * (self.p - 1) + b - usize::from(b > a),
            TopologyKind::Hypercube => {
                a * self.p.trailing_zeros() as usize + (a ^ b).trailing_zeros() as usize
            }
            TopologyKind::Mesh2D => {
                let lo = a.min(b);
                let edge = if a.abs_diff(b) == 1 {
                    lo - lo / self.cols
                } else {
                    self.horizontal_edges() + lo
                };
                2 * edge + usize::from(a > b)
            }
        })
    }

    /// Number of east-west mesh edges (`rows · (cols − 1)`).
    fn horizontal_edges(&self) -> usize {
        self.rows * (self.cols - 1)
    }

    /// Mesh geometry as `(rows, cols)`.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not a mesh.
    pub fn mesh_geometry(&self) -> (usize, usize) {
        assert_eq!(self.kind, TopologyKind::Mesh2D, "not a mesh");
        (self.rows, self.cols)
    }

    /// The deterministic route from `src` to `dst` as a sequence of links.
    ///
    /// Returns an empty path when `src == dst` (a local access never enters
    /// the network). Routing is minimal and deterministic: direct link
    /// (full), lowest-dimension-first e-cube (hypercube), X-then-Y (mesh).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range; [`Topology::try_route_into`]
    /// is the fallible form.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let mut path = Vec::new();
        self.try_route_into(src, dst, &mut path)
            .unwrap_or_else(|e| panic!("{e}"));
        path
    }

    /// Clears `out` and fills it with the route from `src` to `dst`.
    /// Callers on a hot path keep one scratch buffer alive across messages
    /// instead of allocating a path per send.
    ///
    /// # Errors
    ///
    /// [`TopologyError::NodeOutOfRange`] when an endpoint is not below
    /// `p` (`out` is left empty).
    pub fn try_route_into(
        &self,
        src: NodeId,
        dst: NodeId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), TopologyError> {
        out.clear();
        for node in [src, dst] {
            if node.0 >= self.p {
                return Err(TopologyError::NodeOutOfRange {
                    node: node.0,
                    p: self.p,
                });
            }
        }
        let mut hop = |a, b| out.push(self.link(a, b));
        match self.kind {
            TopologyKind::Full if src != dst => hop(src.0, dst.0),
            TopologyKind::Full => {}
            TopologyKind::Hypercube => route::ecube(src.0, dst.0, hop),
            TopologyKind::Mesh2D => route::xy(self.cols, src.0, dst.0, hop),
        }
        Ok(())
    }

    /// Number of hops between two nodes under this topology's routing.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> usize {
        match self.kind {
            TopologyKind::Full => usize::from(src != dst),
            TopologyKind::Hypercube => (src.0 ^ dst.0).count_ones() as usize,
            TopologyKind::Mesh2D => {
                let (r1, c1) = (src.0 / self.cols, src.0 % self.cols);
                let (r2, c2) = (dst.0 / self.cols, dst.0 % self.cols);
                r1.abs_diff(r2) + c1.abs_diff(c2)
            }
        }
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.p).map(NodeId)
    }

    /// Whether a `src → dst` message crosses the canonical bisection.
    ///
    /// For the full network and hypercube the cut is between ids `< p/2`
    /// and the rest; for the mesh it is the vertical cut between the
    /// column halves. Used to measure an application's *communication
    /// locality* — the fraction of its traffic that actually crosses the
    /// bisection, which the paper's §7 suggests should inform a better
    /// estimate of the LogP g parameter.
    pub fn crosses_bisection(&self, src: NodeId, dst: NodeId) -> bool {
        if self.p < 2 {
            return false;
        }
        match self.kind {
            TopologyKind::Full | TopologyKind::Hypercube => {
                (src.0 < self.p / 2) != (dst.0 < self.p / 2)
            }
            TopologyKind::Mesh2D => {
                let half = self.cols / 2;
                (src.0 % self.cols < half) != (dst.0 % self.cols < half)
            }
        }
    }
}

fn validate_p(p: usize) -> Result<(), TopologyError> {
    if p == 0 {
        return Err(TopologyError::ZeroNodes);
    }
    if !p.is_power_of_two() {
        return Err(TopologyError::NotPowerOfTwo(p));
    }
    if p > MAX_NODES {
        return Err(TopologyError::TooLarge { p, max: MAX_NODES });
    }
    Ok(())
}

/// Mesh geometry rule from the paper: equal rows and columns for even
/// powers of two, otherwise twice as many columns as rows.
fn mesh_shape(p: usize) -> (usize, usize) {
    let log = p.trailing_zeros();
    if log.is_multiple_of(2) {
        let side = 1 << (log / 2);
        (side, side)
    } else {
        let rows = 1 << (log / 2);
        (rows, rows * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_shape_rule() {
        assert_eq!(mesh_shape(1), (1, 1));
        assert_eq!(mesh_shape(2), (1, 2));
        assert_eq!(mesh_shape(4), (2, 2));
        assert_eq!(mesh_shape(8), (2, 4));
        assert_eq!(mesh_shape(16), (4, 4));
        assert_eq!(mesh_shape(32), (4, 8));
        assert_eq!(mesh_shape(64), (8, 8));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Topology::full(12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_nodes_rejected() {
        Topology::hypercube(0);
    }

    #[test]
    fn try_constructors_return_typed_errors() {
        for kind in [
            TopologyKind::Full,
            TopologyKind::Hypercube,
            TopologyKind::Mesh2D,
        ] {
            assert_eq!(
                Topology::try_of_kind(kind, 0).unwrap_err(),
                TopologyError::ZeroNodes
            );
            assert_eq!(
                Topology::try_of_kind(kind, 3).unwrap_err(),
                TopologyError::NotPowerOfTwo(3)
            );
            assert!(Topology::try_of_kind(kind, MAX_NODES).is_ok());
            assert_eq!(
                Topology::try_of_kind(kind, 2 * MAX_NODES).unwrap_err(),
                TopologyError::TooLarge {
                    p: 2 * MAX_NODES,
                    max: MAX_NODES,
                }
            );
        }
    }

    #[test]
    fn try_route_rejects_out_of_range_nodes() {
        let t = Topology::mesh(4);
        let mut path = vec![LinkId(0)];
        assert_eq!(
            t.try_route_into(NodeId(0), NodeId(9), &mut path),
            Err(TopologyError::NodeOutOfRange { node: 9, p: 4 })
        );
        assert!(path.is_empty());
        assert_eq!(
            t.try_route_into(NodeId(7), NodeId(7), &mut path),
            Err(TopologyError::NodeOutOfRange { node: 7, p: 4 })
        );
        t.try_route_into(NodeId(0), NodeId(3), &mut path).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn topology_error_messages_name_the_problem() {
        assert!(TopologyError::ZeroNodes.to_string().contains("positive"));
        assert!(TopologyError::NotPowerOfTwo(6)
            .to_string()
            .contains("power of two"));
        assert!(TopologyError::NodeOutOfRange { node: 9, p: 4 }
            .to_string()
            .contains("n9 out of range"));
    }

    #[test]
    fn full_routes_are_single_hop() {
        let t = Topology::full(8);
        for s in t.node_ids() {
            for d in t.node_ids() {
                let path = t.route(s, d);
                if s == d {
                    assert!(path.is_empty());
                } else {
                    assert_eq!(path.len(), 1);
                    let link = t.endpoints(path[0]);
                    assert_eq!(link, (s, d));
                }
            }
        }
    }

    #[test]
    fn hypercube_route_length_is_hamming_distance() {
        let t = Topology::hypercube(16);
        for s in t.node_ids() {
            for d in t.node_ids() {
                assert_eq!(t.route(s, d).len(), (s.0 ^ d.0).count_ones() as usize);
            }
        }
    }

    #[test]
    fn mesh_route_length_is_manhattan_distance() {
        let t = Topology::mesh(16);
        for s in t.node_ids() {
            for d in t.node_ids() {
                assert_eq!(t.route(s, d).len(), t.hops(s, d));
            }
        }
    }

    #[test]
    fn routes_are_connected_chains() {
        for t in [Topology::full(8), Topology::hypercube(8), Topology::mesh(8)] {
            for s in t.node_ids() {
                for d in t.node_ids() {
                    let path = t.route(s, d);
                    let mut at = s;
                    for link in &path {
                        let (from, to) = t.endpoints(*link);
                        assert_eq!(from, at, "{:?} path breaks at {from}", t.kind());
                        at = to;
                    }
                    assert_eq!(at, d);
                }
            }
        }
    }

    #[test]
    fn link_counts() {
        // full: p(p-1) directed links
        assert_eq!(Topology::full(8).link_count(), 8 * 7);
        // cube: p * log2(p) directed links
        assert_eq!(Topology::hypercube(8).link_count(), 8 * 3);
        // mesh rows x cols: 2*(rows*(cols-1) + cols*(rows-1))
        assert_eq!(Topology::mesh(16).link_count(), 2 * (4 * 3 + 4 * 3));
    }

    #[test]
    fn link_ids_are_a_bijection_onto_adjacent_pairs() {
        for kind in [
            TopologyKind::Full,
            TopologyKind::Hypercube,
            TopologyKind::Mesh2D,
        ] {
            for p in [1, 2, 4, 8, 16, 32, 64] {
                let t = Topology::of_kind(kind, p);
                let mut adjacent = 0;
                for a in t.node_ids() {
                    for b in t.node_ids().filter(|&b| t.hops(a, b) == 1) {
                        let link = t.link(a.0, b.0);
                        assert!(link.0 < t.link_count(), "{kind} p={p}: {a}->{b}");
                        assert_eq!(t.endpoints(link), (a, b), "{kind} p={p}");
                        adjacent += 1;
                    }
                }
                assert_eq!(adjacent, t.link_count(), "{kind} p={p}");
            }
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(TopologyKind::Full.to_string(), "full");
        assert_eq!(TopologyKind::Hypercube.to_string(), "cube");
        assert_eq!(TopologyKind::Mesh2D.to_string(), "mesh");
    }

    #[test]
    fn of_kind_constructor() {
        for kind in [
            TopologyKind::Full,
            TopologyKind::Hypercube,
            TopologyKind::Mesh2D,
        ] {
            let t = Topology::of_kind(kind, 4);
            assert_eq!(t.kind(), kind);
            assert_eq!(t.nodes(), 4);
        }
    }

    #[test]
    fn single_node_topologies_route_nothing() {
        for t in [Topology::full(1), Topology::hypercube(1), Topology::mesh(1)] {
            assert!(t.route(NodeId(0), NodeId(0)).is_empty());
        }
    }

    #[test]
    fn bisection_crossing_matches_cut() {
        let t = Topology::full(8);
        assert!(t.crosses_bisection(NodeId(0), NodeId(4)));
        assert!(!t.crosses_bisection(NodeId(0), NodeId(3)));
        assert!(!t.crosses_bisection(NodeId(5), NodeId(7)));
        // Mesh: vertical cut between column halves (2x4 mesh, cols 0-1 vs 2-3).
        let m = Topology::mesh(8);
        assert!(m.crosses_bisection(NodeId(1), NodeId(2)));
        assert!(!m.crosses_bisection(NodeId(0), NodeId(5))); // cols 0 and 1
        assert!(m.crosses_bisection(NodeId(4), NodeId(7)));
        // Degenerate single node.
        assert!(!Topology::full(1).crosses_bisection(NodeId(0), NodeId(0)));
    }

    #[test]
    fn bisection_crossing_is_symmetric() {
        for t in [
            Topology::full(16),
            Topology::hypercube(16),
            Topology::mesh(16),
        ] {
            for s in t.node_ids() {
                for d in t.node_ids() {
                    assert_eq!(t.crosses_bisection(s, d), t.crosses_bisection(d, s));
                }
            }
        }
    }

    #[test]
    fn mesh_geometry_accessor() {
        assert_eq!(Topology::mesh(32).mesh_geometry(), (4, 8));
    }

    #[test]
    #[should_panic(expected = "not a mesh")]
    fn mesh_geometry_on_non_mesh_panics() {
        Topology::full(4).mesh_geometry();
    }
}
