//! Node identities, positions and network topologies.
//!
//! A [`Topology`] holds node positions and the pairwise link qualities
//! derived from a [`PathLossModel`] plus static per-link shadowing. It also
//! provides the two deployments used in the paper's evaluation:
//!
//! * [`Topology::kiel_testbed_18`] — the authors' 18-node, 3-hop office
//!   deployment spanning 23 × 23 m (Fig. 4a), and
//! * [`Topology::dcube_48`] — a 48-node multi-hop building deployment
//!   standing in for the public D-Cube testbed (§V-E).

use crate::link::{LinkQuality, PathLossModel};
use crate::rng::SimRng;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node in the network (dense indices `0..num_nodes`).
///
/// # Examples
///
/// ```
/// use dimmer_sim::NodeId;
/// let n = NodeId(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(format!("{n}"), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the node index as a `usize` for indexing into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        NodeId(v)
    }
}

/// A 2-D node position in meters.
///
/// # Examples
///
/// ```
/// use dimmer_sim::Position;
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate in meters.
    pub x: f64,
    /// Y coordinate in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position from meter coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, in meters.
    pub fn distance_to(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Which kind of deployment a [`Topology`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// A nodes-in-a-row layout, mostly for tests.
    Line,
    /// A regular grid with jitter.
    Grid,
    /// Uniformly random placement.
    Random,
    /// The paper's 18-node office testbed (Fig. 4a).
    KielTestbed18,
    /// The 48-node D-Cube-style deployment (§V-E).
    DCube48,
}

/// A static network topology: positions plus a dense link-quality matrix.
///
/// Link qualities are *directional* in general (per-link shadowing is drawn
/// independently for each direction would be unrealistic, so the same
/// shadowing value is used for both directions — links are symmetric).
///
/// # Examples
///
/// ```
/// use dimmer_sim::{Topology, NodeId};
/// let topo = Topology::line(4, 8.0, 1);
/// assert_eq!(topo.num_nodes(), 4);
/// assert!(topo.link(NodeId(0), NodeId(1)).prr() > topo.link(NodeId(0), NodeId(3)).prr());
/// assert!(topo.is_connected());
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    positions: Vec<Position>,
    /// Row-major `num_nodes × num_nodes` PRR matrix; diagonal is 0.
    links: Vec<LinkQuality>,
    coordinator: NodeId,
    path_loss: PathLossModel,
}

impl Topology {
    /// Standard-deviation of the static per-link shadowing, in dB.
    const SHADOWING_STD_DB: f64 = 2.0;

    fn build(
        kind: TopologyKind,
        positions: Vec<Position>,
        coordinator: NodeId,
        path_loss: PathLossModel,
        seed: u64,
    ) -> Self {
        let n = positions.len();
        assert!(n >= 2, "a topology needs at least two nodes");
        assert!(
            coordinator.index() < n,
            "coordinator must be one of the nodes"
        );
        let mut rng = SimRng::seed_from(seed ^ 0xD1_44E2);
        let mut links = vec![LinkQuality::none(); n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let shadow = rng.gaussian(Self::SHADOWING_STD_DB);
                let prr = path_loss.prr(positions[i], positions[j], shadow);
                let q = LinkQuality::new(prr);
                links[i * n + j] = q;
                links[j * n + i] = q;
            }
        }
        Topology {
            kind,
            positions,
            links,
            coordinator,
            path_loss,
        }
    }

    /// Builds a line topology of `n` nodes spaced `spacing_m` meters apart.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn line(n: usize, spacing_m: f64, seed: u64) -> Self {
        let positions = (0..n)
            .map(|i| Position::new(i as f64 * spacing_m, 0.0))
            .collect();
        Self::build(
            TopologyKind::Line,
            positions,
            NodeId(0),
            PathLossModel::indoor_office(),
            seed,
        )
    }

    /// Builds a jittered `rows × cols` grid with the given spacing.
    ///
    /// # Panics
    ///
    /// Panics if the grid has fewer than two nodes.
    pub fn grid(rows: usize, cols: usize, spacing_m: f64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mut positions = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let jx = rng.uniform(-0.2, 0.2) * spacing_m;
                let jy = rng.uniform(-0.2, 0.2) * spacing_m;
                positions.push(Position::new(
                    c as f64 * spacing_m + jx,
                    r as f64 * spacing_m + jy,
                ));
            }
        }
        Self::build(
            TopologyKind::Grid,
            positions,
            NodeId(0),
            PathLossModel::indoor_office(),
            seed,
        )
    }

    /// Builds a uniformly random topology of `n` nodes in a
    /// `width_m × height_m` rectangle.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn random(n: usize, width_m: f64, height_m: f64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let positions = (0..n)
            .map(|_| Position::new(rng.uniform(0.0, width_m), rng.uniform(0.0, height_m)))
            .collect();
        Self::build(
            TopologyKind::Random,
            positions,
            NodeId(0),
            PathLossModel::indoor_office(),
            seed,
        )
    }

    /// The paper's 18-node office testbed: 23 × 23 m, 3 hops, coordinator in
    /// a corner office (node 0), moderately exposed to the nearest jammer.
    pub fn kiel_testbed_18(seed: u64) -> Self {
        // Hand-placed layout spanning 23 x 23 m. Node 0 is the coordinator in
        // the lower-left office; the far corner is ~3 hops away given the
        // indoor path-loss model (usable range ~10-12 m).
        let base = [
            (1.5, 1.5),   // 0: coordinator
            (7.0, 2.0),   // 1
            (13.0, 1.5),  // 2
            (19.0, 2.5),  // 3
            (2.5, 7.5),   // 4
            (8.5, 8.0),   // 5
            (14.5, 7.0),  // 6
            (21.0, 8.0),  // 7
            (1.5, 13.0),  // 8
            (7.5, 14.0),  // 9
            (13.5, 13.5), // 10
            (20.0, 14.0), // 11
            (3.0, 19.0),  // 12
            (9.0, 20.5),  // 13
            (15.0, 19.5), // 14
            (21.5, 21.0), // 15
            (11.0, 17.0), // 16
            (17.5, 11.0), // 17
        ];
        let mut rng = SimRng::seed_from(seed);
        let positions = base
            .iter()
            .map(|&(x, y)| Position::new(x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5)))
            .collect();
        Self::build(
            TopologyKind::KielTestbed18,
            positions,
            NodeId(0),
            PathLossModel::indoor_office(),
            seed,
        )
    }

    /// A 48-node multi-hop building deployment standing in for D-Cube.
    ///
    /// Nodes are spread over a 55 × 35 m floor in a jittered grid; node 0 is
    /// the coordinator/sink (the paper uses device ID 202 as coordinator).
    pub fn dcube_48(seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed.wrapping_add(0xDC0B));
        let cols = 8;
        let rows = 6;
        let dx = 55.0 / (cols as f64 - 1.0);
        let dy = 35.0 / (rows as f64 - 1.0);
        let mut positions = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                let jx = rng.uniform(-0.25, 0.25) * dx;
                let jy = rng.uniform(-0.25, 0.25) * dy;
                positions.push(Position::new(c as f64 * dx + jx, r as f64 * dy + jy));
            }
        }
        Self::build(
            TopologyKind::DCube48,
            positions,
            NodeId(0),
            PathLossModel::dcube_building(),
            seed,
        )
    }

    /// Which deployment this topology models.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Iterator over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u16).map(NodeId)
    }

    /// The coordinator / LWB host node.
    pub fn coordinator(&self) -> NodeId {
        self.coordinator
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// The path-loss model used to derive this topology's links.
    pub fn path_loss(&self) -> &PathLossModel {
        &self.path_loss
    }

    /// Link quality between two distinct nodes (symmetric).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkQuality {
        let n = self.num_nodes();
        assert!(from.index() < n && to.index() < n, "node out of range");
        if from == to {
            return LinkQuality::none();
        }
        self.links[from.index() * n + to.index()]
    }

    /// Nodes whose link to `node` has PRR at least `min_prr`.
    pub fn neighbors(&self, node: NodeId, min_prr: f64) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&other| other != node && self.link(node, other).prr() >= min_prr)
            .collect()
    }

    /// Hop distance from `from` to every node over links with PRR ≥ `min_prr`
    /// (BFS). Unreachable nodes get `None`.
    pub fn hop_distances(&self, from: NodeId, min_prr: f64) -> Vec<Option<usize>> {
        let n = self.num_nodes();
        let mut dist = vec![None; n];
        let mut queue = VecDeque::new();
        dist[from.index()] = Some(0);
        queue.push_back(from);
        while let Some(u) = queue.pop_front() {
            // lint: allow(P001) -- BFS invariant: a node is queued only after its distance is set
            let du = dist[u.index()].expect("queued nodes have a distance");
            for v in self.node_ids() {
                if v != u && dist[v.index()].is_none() && self.link(u, v).prr() >= min_prr {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Maximum hop distance from the coordinator over reasonably good links
    /// (PRR ≥ 0.7); `None` if some node is unreachable at that threshold.
    pub fn network_depth(&self) -> Option<usize> {
        let d = self.hop_distances(self.coordinator, 0.7);
        d.iter()
            .copied()
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(0))
    }

    /// Returns `true` if every node can reach every other node over usable
    /// links (PRR ≥ [`LinkQuality::USABLE_THRESHOLD`]).
    pub fn is_connected(&self) -> bool {
        let d = self.hop_distances(NodeId(0), LinkQuality::USABLE_THRESHOLD);
        d.iter().all(|x| x.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn line_topology_basic_properties() {
        let t = Topology::line(5, 8.0, 3);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.kind(), TopologyKind::Line);
        assert_eq!(t.coordinator(), NodeId(0));
        assert!(t.is_connected());
        // Adjacent links are better than 2-hop links.
        assert!(t.link(NodeId(0), NodeId(1)).prr() > t.link(NodeId(0), NodeId(2)).prr());
    }

    #[test]
    fn links_are_symmetric_and_diagonal_is_zero() {
        let t = Topology::kiel_testbed_18(7);
        for a in t.node_ids() {
            assert_eq!(t.link(a, a).prr(), 0.0);
            for b in t.node_ids() {
                assert_eq!(t.link(a, b).prr(), t.link(b, a).prr());
            }
        }
    }

    #[test]
    fn kiel_testbed_is_multihop_and_connected() {
        for seed in [1, 2, 3, 42] {
            let t = Topology::kiel_testbed_18(seed);
            assert_eq!(t.num_nodes(), 18);
            assert!(t.is_connected(), "seed {seed}: testbed must be connected");
            let depth = t.network_depth();
            assert!(
                depth.is_some(),
                "seed {seed}: all nodes reachable over good links"
            );
            let depth = depth.unwrap();
            assert!(
                (2..=5).contains(&depth),
                "seed {seed}: expected ~3-hop network, got {depth}"
            );
        }
    }

    #[test]
    fn dcube_topology_has_48_nodes_and_is_connected() {
        let t = Topology::dcube_48(1);
        assert_eq!(t.num_nodes(), 48);
        assert!(t.is_connected());
        assert!(
            t.network_depth().unwrap_or(0) >= 2,
            "D-Cube stand-in should be multi-hop"
        );
    }

    #[test]
    fn grid_and_random_builders_produce_requested_sizes() {
        assert_eq!(Topology::grid(3, 4, 10.0, 5).num_nodes(), 12);
        assert_eq!(Topology::random(20, 40.0, 40.0, 5).num_nodes(), 20);
    }

    #[test]
    fn same_seed_gives_identical_topology() {
        let a = Topology::kiel_testbed_18(123);
        let b = Topology::kiel_testbed_18(123);
        for i in a.node_ids() {
            assert_eq!(a.position(i).x, b.position(i).x);
            for j in a.node_ids() {
                assert_eq!(a.link(i, j).prr(), b.link(i, j).prr());
            }
        }
    }

    #[test]
    fn neighbors_respects_threshold() {
        let t = Topology::line(6, 8.0, 2);
        let strict = t.neighbors(NodeId(0), 0.9);
        let loose = t.neighbors(NodeId(0), 0.1);
        assert!(strict.len() <= loose.len());
        assert!(!loose.is_empty());
    }

    #[test]
    fn hop_distance_zero_at_source() {
        let t = Topology::kiel_testbed_18(9);
        let d = t.hop_distances(t.coordinator(), 0.5);
        assert_eq!(d[t.coordinator().index()], Some(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_random_topologies_have_valid_prrs(seed in 0u64..200, n in 2usize..30) {
            let t = Topology::random(n, 30.0, 30.0, seed);
            for i in t.node_ids() {
                for j in t.node_ids() {
                    let p = t.link(i, j).prr();
                    prop_assert!((0.0..=1.0).contains(&p));
                }
            }
        }

        #[test]
        fn prop_hop_distances_never_exceed_node_count(seed in 0u64..100) {
            let t = Topology::kiel_testbed_18(seed);
            let d = t.hop_distances(NodeId(0), 0.5);
            for x in d.into_iter().flatten() {
                prop_assert!(x < t.num_nodes());
            }
        }
    }
}
