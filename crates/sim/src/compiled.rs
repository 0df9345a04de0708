//! A flood-kernel-friendly view of a [`Topology`] that stores each link
//! once.
//!
//! [`Topology`] is the *construction* representation: positions, a dense
//! [`LinkQuality`](crate::link::LinkQuality) matrix and convenience queries (BFS, neighbor filters).
//! The per-round hot path — thousands of Glossy floods per experiment cell —
//! needs something flatter. [`CompiledTopology`] is that view, compiled once
//! per trial:
//!
//! * one out-link CSR (`row_ptr` / `col_idx` / `link_prr`) holding, per
//!   node, only the outgoing links that can actually change a reception
//!   probability, sorted by destination id. It is the only link store:
//!   [`prr`](CompiledTopology::prr), patches and digests all read it;
//! * for worlds compiled from a matrix of at most [`DENSE_NODE_LIMIT`]
//!   nodes, the transposed miss-factor rows derived from that CSR
//!   (`1.0 - prr(t → r)`, contiguous per receiver `r`) — the table the
//!   flood kernel multiplies over a slot's transmitter list.
//!
//! The CSR drops a link `(i, j)` only when its PRR is so small that
//! `1.0 - prr == 1.0` in `f64` — i.e. when multiplying a miss-probability
//! product by `1.0 - prr` is a bitwise no-op. This is what lets the
//! optimized flood kernel in `dimmer-glossy` skip negligible links while
//! staying **bit-identical** to the dense reference implementation.
//!
//! # Sparse (CSR-only) worlds
//!
//! The miss rows cost `n² × 8 B` (2 MiB at the limit, 80 GB at 100k
//! nodes), so above [`DENSE_NODE_LIMIT`] nodes compilation keeps the CSR
//! alone. Every query keeps working; the flood kernel scatters each
//! transmitter's out-links instead of reading rows, which multiplies the
//! same material factors in the same ascending-transmitter order. A small
//! world drops its rows with [`CompiledTopology::into_sparse`], and
//! city-scale worlds are built straight from an edge list with
//! [`CompiledTopology::from_links`] without ever materializing an `n²`
//! matrix. Every constructor fills the CSR through one private function.

use crate::topology::{NodeId, Position, Topology};
use crate::world::WorldEvent;

/// Largest node count for which [`CompiledTopology::compile`] and
/// [`CompiledTopology::from_prr_matrix`] still build the dense miss-factor
/// rows; larger worlds compile CSR-only (sparse mode).
///
/// At the limit the rows cost `512² × 8 B = 2 MiB` — cheap enough to keep
/// the kernel's contiguous per-receiver gather. One step above, the
/// quadratic growth starts dominating every other allocation.
pub const DENSE_NODE_LIMIT: usize = 512;

/// A structure-of-arrays topology compiled for the flood hot path.
///
/// Construct it with [`CompiledTopology::compile`] (from a [`Topology`]) or
/// [`CompiledTopology::from_prr_matrix`] (from a raw, possibly asymmetric
/// PRR matrix). Compilation is `O(n²)` and meant to happen once per trial;
/// every per-slot kernel query is then branch- and allocation-free.
///
/// # Examples
///
/// ```
/// use dimmer_sim::{CompiledTopology, NodeId, Topology};
/// let topo = Topology::line(4, 8.0, 1);
/// let compiled = CompiledTopology::compile(&topo);
/// assert_eq!(compiled.num_nodes(), 4);
/// // Lookups agree with the source topology...
/// assert_eq!(compiled.prr(NodeId(0), NodeId(1)), topo.link(NodeId(0), NodeId(1)).prr());
/// // ...and the CSR only stores links that can affect a reception.
/// assert!(compiled.out_degree(NodeId(0)) <= 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTopology {
    num_nodes: usize,
    coordinator: NodeId,
    positions: Vec<Position>,
    /// CSR row offsets into `col_idx` / `link_prr`.
    row_ptr: Vec<u32>,
    /// CSR destination ids, ascending within each row.
    col_idx: Vec<u16>,
    /// CSR link PRRs, parallel to `col_idx`.
    link_prr: Vec<f64>,
    /// Transposed dense miss factors derived from the CSR:
    /// `miss_rows[r * n + t]` is `1.0 - prr(t → r)`, so a receiver's
    /// factors over all transmitters are contiguous. `None` in sparse
    /// (CSR-only) mode.
    miss_rows: Option<Vec<f64>>,
}

impl CompiledTopology {
    /// Returns `true` if a link with this PRR can change a miss-probability
    /// product in `f64` arithmetic (i.e. `1.0 - prr != 1.0`).
    ///
    /// Links failing this test are dropped from the CSR: multiplying by
    /// `1.0 - prr` would round back to the untouched product bit-for-bit,
    /// so skipping them cannot change any simulated outcome.
    pub fn link_matters(prr: f64) -> bool {
        1.0 - prr != 1.0
    }

    /// Compiles a [`Topology`] into the structure-of-arrays form.
    ///
    /// Worlds up to [`DENSE_NODE_LIMIT`] nodes keep the dense miss rows;
    /// larger worlds compile CSR-only (see the module docs).
    pub fn compile(topology: &Topology) -> Self {
        let positions = topology
            .node_ids()
            .map(|id| topology.position(id))
            .collect();
        let rows = topology.node_ids().map(|a| {
            topology
                .node_ids()
                .filter(move |&b| b != a)
                .map(move |b| (b.index(), topology.link(a, b).prr()))
        });
        Self::from_rows(positions, topology.coordinator(), 0, rows).with_miss_rows()
    }

    /// Builds a compiled topology from a raw row-major PRR matrix.
    ///
    /// Unlike [`Topology`], the matrix may be *asymmetric*
    /// (`prr[i][j] != prr[j][i]`); the CSR stores outgoing links per row, so
    /// directional deployments compile correctly. Worlds up to
    /// [`DENSE_NODE_LIMIT`] nodes keep the dense miss rows; larger worlds
    /// compile CSR-only.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n` for `n = positions.len()`, if
    /// `n < 1`, if the coordinator is out of range, or if any entry is
    /// outside `[0, 1]`.
    pub fn from_prr_matrix(positions: Vec<Position>, coordinator: NodeId, prr: Vec<f64>) -> Self {
        let n = positions.len();
        assert_eq!(prr.len(), n * n, "PRR matrix must be n x n");
        assert!(
            prr.iter().all(|p| (0.0..=1.0).contains(p)),
            "PRR entries must be in [0, 1]"
        );
        let rows = (0..n).map(|i| {
            let row = &prr[i * n..(i + 1) * n];
            (0..n).filter(move |&j| j != i).map(move |j| (j, row[j]))
        });
        Self::from_rows(positions, coordinator, 0, rows).with_miss_rows()
    }

    /// Builds a **sparse** compiled topology straight from a directional
    /// edge list, without ever materializing an `n²` matrix — the only
    /// constructor that scales to city-sized worlds.
    ///
    /// Links are `(from, to, prr)` triples in any order; push both
    /// directions for a symmetric link. Immaterial links (where
    /// [`link_matters`](Self::link_matters) is `false`) are dropped exactly
    /// like the matrix constructors drop them, so a sparse world built from
    /// links equals one built from the equivalent matrix and made
    /// [`into_sparse`](Self::into_sparse), field for field.
    ///
    /// # Panics
    ///
    /// Panics if `n < 1` or `n > 65536`, if the coordinator or a link
    /// endpoint is out of range, on self-links, on duplicate `(from, to)`
    /// pairs, or on PRRs outside `[0, 1]`.
    pub fn from_links(
        positions: Vec<Position>,
        coordinator: NodeId,
        links: &[(NodeId, NodeId, f64)],
    ) -> Self {
        let n = positions.len();
        let mut edges: Vec<(u16, u16, f64)> = Vec::with_capacity(links.len());
        for &(from, to, p) in links {
            assert!(
                from.index() < n && to.index() < n,
                "link endpoint out of range"
            );
            assert!(from != to, "a link needs two distinct endpoints");
            edges.push((from.0, to.0, p));
        }
        edges.sort_unstable_by_key(|&(f, t, _)| (f, t));
        for w in edges.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate link ({} -> {})",
                w[0].0,
                w[0].1
            );
        }
        let mut rest = &edges[..];
        let rows = (0..n).map(|i| {
            let len = rest.iter().take_while(|e| e.0 as usize == i).count();
            let (row, tail) = rest.split_at(len);
            rest = tail;
            row.iter().map(|&(_, t, p)| (t as usize, p))
        });
        Self::from_rows(positions, coordinator, edges.len(), rows)
    }

    /// Fills the CSR for every constructor. `rows` holds one
    /// row per node, in node order, of `(to, prr)` pairs ascending by
    /// `to`, with no self-link and no repeat; immaterial links are
    /// dropped. `capacity` presizes the link arrays (0 when the count is
    /// not known). The world comes out CSR-only.
    fn from_rows<R: Iterator<Item = (usize, f64)>>(
        positions: Vec<Position>,
        coordinator: NodeId,
        capacity: usize,
        rows: impl Iterator<Item = R>,
    ) -> Self {
        let n = positions.len();
        assert!(n >= 1, "a compiled topology needs at least one node");
        assert!(
            n <= u16::MAX as usize + 1,
            "compiled topologies support at most 65536 nodes"
        );
        assert!(
            coordinator.index() < n,
            "coordinator must be one of the nodes"
        );
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(capacity);
        let mut link_prr = Vec::with_capacity(capacity);
        row_ptr.push(0u32);
        for row in rows {
            for (to, p) in row {
                assert!((0.0..=1.0).contains(&p), "PRR entries must be in [0, 1]");
                if Self::link_matters(p) {
                    col_idx.push(to as u16);
                    link_prr.push(p);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        assert_eq!(row_ptr.len(), n + 1, "one row per node");
        CompiledTopology {
            num_nodes: n,
            coordinator,
            positions,
            row_ptr,
            col_idx,
            link_prr,
            miss_rows: None,
        }
    }

    /// Adds the dense miss rows the CSR implies when the world has at most
    /// [`DENSE_NODE_LIMIT`] nodes: `1.0 - prr(t → r)` at `r * n + t` for
    /// every stored link and `1.0` everywhere else — the diagonal and
    /// immaterial links included, whose factors are exactly `1.0` anyway.
    fn with_miss_rows(mut self) -> Self {
        let n = self.num_nodes;
        if n <= DENSE_NODE_LIMIT {
            let mut miss = vec![1.0; n * n];
            for t in 0..n {
                let (dests, prrs) = self.neighbor_slices(t);
                for (&r, &p) in dests.iter().zip(prrs) {
                    miss[r as usize * n + t] = 1.0 - p;
                }
            }
            self.miss_rows = Some(miss);
        }
        self
    }

    /// The same world CSR-only: drops the dense miss rows, so floods
    /// scatter. `compile(t).into_sparse()` is what the equivalence suite
    /// pins against `compile(t)` on small worlds.
    pub fn into_sparse(mut self) -> Self {
        self.miss_rows = None;
        self
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
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

    /// All node positions, indexed by node id.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// PRR lookup: a binary search of the out-CSR row, `O(log degree)`.
    ///
    /// Links the CSR does not store read as `0.0`: the diagonal and every
    /// *immaterial* PRR (one failing [`link_matters`](Self::link_matters),
    /// e.g. `1e-18`). No flood outcome can tell the difference: the kernel
    /// only ever multiplies by material factors.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn prr(&self, from: NodeId, to: NodeId) -> f64 {
        let (i, j) = (from.index(), to.index());
        assert!(
            i < self.num_nodes && j < self.num_nodes,
            "node out of range"
        );
        let (dests, prrs) = self.neighbor_slices(i);
        match dests.binary_search(&(j as u16)) {
            Ok(pos) => prrs[pos],
            Err(_) => 0.0,
        }
    }

    /// Number of links stored in the CSR (over all nodes).
    pub fn num_links(&self) -> usize {
        self.col_idx.len()
    }

    /// Number of stored outgoing links of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_degree(&self, node: NodeId) -> usize {
        let i = node.index();
        (self.row_ptr[i + 1] - self.row_ptr[i]) as usize
    }

    /// The raw CSR slices (`destinations`, `prrs`) of one node's outgoing
    /// links, destinations ascending. This is what the flood kernel
    /// scatters in sparse worlds.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn neighbor_slices(&self, node: usize) -> (&[u16], &[f64]) {
        let lo = self.row_ptr[node] as usize;
        let hi = self.row_ptr[node + 1] as usize;
        (&self.col_idx[lo..hi], &self.link_prr[lo..hi])
    }

    /// The dense miss-factor rows, row-major `n × n`: element `r * n + t`
    /// is `1.0 - prr(t → r)`, and exactly `1.0` on the diagonal and
    /// wherever no material link exists. This is the flood kernel's dense
    /// gather table, contiguous per receiver.
    ///
    /// `None` for sparse (CSR-only) worlds: those compiled above
    /// [`DENSE_NODE_LIMIT`], built from links or made
    /// [`into_sparse`](Self::into_sparse).
    #[inline]
    pub fn miss_rows(&self) -> Option<&[f64]> {
        self.miss_rows.as_deref()
    }

    /// Incrementally patches one directional link to `new_prr`, updating
    /// the CSR row of `from` and (when present) the dense miss row of `to`
    /// in place.
    ///
    /// The result is **identical** (full struct equality, CSR layout
    /// included) to rebuilding via [`from_prr_matrix`](Self::from_prr_matrix)
    /// with the patched matrix — pinned by a property test — but costs
    /// `O(log degree)` when the link stays material (or stays immaterial)
    /// and `O(total links)` when it appears or vanishes, instead of the
    /// `O(n²)` full recompilation.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range, if `from == to`, or if
    /// `new_prr` is outside `[0, 1]`.
    pub fn set_prr(&mut self, from: NodeId, to: NodeId, new_prr: f64) {
        let n = self.num_nodes;
        let (i, j) = (from.index(), to.index());
        assert!(i < n && j < n, "node out of range");
        assert!(i != j, "a link needs two distinct endpoints");
        assert!((0.0..=1.0).contains(&new_prr), "PRR must be in [0, 1]");
        if let Some(miss) = &mut self.miss_rows {
            // Exactly 1.0 for an immaterial PRR, as the CSR-derived rows.
            miss[j * n + i] = 1.0 - new_prr;
        }
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        let stored = self.col_idx[lo..hi].binary_search(&(j as u16));
        match (stored, Self::link_matters(new_prr)) {
            (Ok(k), true) => self.link_prr[lo + k] = new_prr,
            (Ok(k), false) => {
                self.col_idx.remove(lo + k);
                self.link_prr.remove(lo + k);
                for p in &mut self.row_ptr[i + 1..] {
                    *p -= 1;
                }
            }
            (Err(k), true) => {
                self.col_idx.insert(lo + k, j as u16);
                self.link_prr.insert(lo + k, new_prr);
                for p in &mut self.row_ptr[i + 1..] {
                    *p += 1;
                }
            }
            (Err(_), false) => {}
        }
    }

    /// Applies one [`WorldEvent`] to the compiled view, returning whether
    /// the topology changed.
    ///
    /// * [`WorldEvent::LinkDrift`] patches both directions incrementally
    ///   via [`set_prr`](Self::set_prr);
    /// * membership events are topology no-ops (`false`) — node
    ///   failures are an *aliveness* concern handled by
    ///   [`World`](crate::World), so a later rejoin restores the world
    ///   exactly.
    ///
    /// No event changes the node set, so positions, the coordinator and the
    /// dense/sparse mode stay as compiled.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or PRR values outside `[0, 1]`.
    pub fn apply_event(&mut self, event: &WorldEvent) -> bool {
        // lint: hot-begin
        match *event {
            WorldEvent::LinkDrift { a, b, prr } => {
                self.set_prr(a, b, prr);
                self.set_prr(b, a, prr);
                true
            }
            WorldEvent::NodeFail(_) | WorldEvent::NodeRejoin(_) => false,
        }
        // lint: hot-end
    }

    /// FNV-1a digest of the world's *semantic* content: node count,
    /// coordinator, position bits and the out-CSR (offsets, destinations,
    /// PRR bits). The dense miss rows are derived data and excluded, so a
    /// dense and a sparse compilation of the same world digest
    /// identically.
    ///
    /// This is what the golden-digest tests pin the clustered generators
    /// with: any drift in generated positions or links changes the digest.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        fold(self.num_nodes as u64);
        fold(self.coordinator.0 as u64);
        for p in &self.positions {
            fold(p.x.to_bits());
            fold(p.y.to_bits());
        }
        for &r in &self.row_ptr {
            fold(r as u64);
        }
        for &c in &self.col_idx {
            fold(c as u64);
        }
        for &p in &self.link_prr {
            fold(p.to_bits());
        }
        h
    }

    /// Approximate heap footprint of the compiled world in bytes (CSR
    /// arrays, positions, and the dense miss rows when present) — the
    /// number the "sparse vs dense" documentation and scaling benches
    /// report.
    pub fn memory_bytes(&self) -> usize {
        let csr = self.row_ptr.len() * 4 + self.col_idx.len() * 2 + self.link_prr.len() * 8;
        let dense = self.miss_rows.as_ref().map_or(0, |m| m.len() * 8);
        csr + dense + self.positions.len() * std::mem::size_of::<Position>()
    }
}

impl From<&Topology> for CompiledTopology {
    /// Compiles the topology; the same as [`CompiledTopology::compile`].
    fn from(topology: &Topology) -> Self {
        Self::compile(topology)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `prr()` must read for a PRR the source matrix holds: the value
    /// itself when the CSR stores it, `0.0` when it is immaterial.
    fn canonical(p: f64) -> f64 {
        if CompiledTopology::link_matters(p) {
            p
        } else {
            0.0
        }
    }

    #[test]
    fn compile_matches_dense_topology() {
        let topo = Topology::kiel_testbed_18(7);
        let c = CompiledTopology::compile(&topo);
        assert_eq!(c.num_nodes(), 18);
        assert_eq!(c.coordinator(), topo.coordinator());
        for i in topo.node_ids() {
            assert_eq!(c.position(i), topo.position(i));
            for j in topo.node_ids() {
                assert_eq!(c.prr(i, j), canonical(topo.link(i, j).prr()));
            }
        }
    }

    #[test]
    fn from_topology_is_compile() {
        let topo = Topology::dcube_48(2);
        let from: CompiledTopology = (&topo).into();
        assert_eq!(from, CompiledTopology::compile(&topo));
        assert!(
            from.miss_rows().is_some(),
            "a 48-node world keeps dense rows"
        );
    }

    #[test]
    fn csr_rows_are_ascending_and_cover_material_links() {
        let topo = Topology::dcube_48(3);
        let c = CompiledTopology::compile(&topo);
        for i in topo.node_ids() {
            let (dests, _) = c.neighbor_slices(i.index());
            // Ascending destination ids, no self link.
            for w in dests.windows(2) {
                assert!(w[0] < w[1]);
            }
            assert!(dests.iter().all(|&d| d != i.0));
            // Exactly the links whose PRR can change a miss product.
            let expected = topo
                .node_ids()
                .filter(|&j| j != i && CompiledTopology::link_matters(topo.link(i, j).prr()))
                .count();
            assert_eq!(dests.len(), expected);
            assert_eq!(c.out_degree(i), expected);
        }
    }

    #[test]
    fn in_links_mirror_the_transposed_matrix() {
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(1.0, 0.0),
            Position::new(2.0, 0.0),
        ];
        // Asymmetric: 0→1 strong, 1→0 absent, 2→1 weak, everything else 0.
        let mut prr = vec![0.0; 9];
        prr[1] = 0.9; // 0 -> 1
        prr[2 * 3 + 1] = 0.2; // 2 -> 1
        let c = CompiledTopology::from_prr_matrix(positions, NodeId(0), prr);
        let rows = c.miss_rows().expect("a 3-node world keeps its miss rows");
        // Row r holds the factors of the links *into* r, by source.
        assert_eq!(&rows[3..6], &[1.0 - 0.9, 1.0, 1.0 - 0.2]);
        assert_eq!(&rows[0..3], &[1.0; 3]);
        assert_eq!(&rows[6..9], &[1.0; 3]);
    }

    #[test]
    fn dense_and_sparse_gather_views_agree() {
        // The dense rows hold exactly the factors the sparse scatter
        // multiplies: one per stored out-link, 1.0 everywhere else.
        let topo = Topology::kiel_testbed_18(9);
        let c = CompiledTopology::compile(&topo);
        let n = c.num_nodes();
        let rows = c.miss_rows().unwrap();
        let mut scattered = vec![1.0; n * n];
        for t in 0..n {
            let (dests, prrs) = c.neighbor_slices(t);
            for (&r, &p) in dests.iter().zip(prrs) {
                scattered[r as usize * n + t] = 1.0 - p;
            }
        }
        assert_eq!(rows, &scattered[..]);
        for r in topo.node_ids() {
            for t in topo.node_ids() {
                assert_eq!(rows[r.index() * n + t.index()], 1.0 - c.prr(t, r));
            }
        }
    }

    /// A line of `n` nodes, 1 m apart, with symmetric 0.9 links between
    /// neighbours.
    fn chain_matrix(n: usize) -> (Vec<Position>, Vec<f64>) {
        let positions = (0..n).map(|i| Position::new(i as f64, 0.0)).collect();
        let mut prr = vec![0.0; n * n];
        for i in 1..n {
            prr[(i - 1) * n + i] = 0.9;
            prr[i * n + i - 1] = 0.9;
        }
        (positions, prr)
    }

    #[test]
    fn miss_rows_stop_at_the_node_limit() {
        // At the limit the matrix constructor keeps the rows: n² factors,
        // 2 MiB on top of its CSR-only twin, which stores the same links.
        let n = DENSE_NODE_LIMIT;
        let (positions, prr) = chain_matrix(n);
        let dense = CompiledTopology::from_prr_matrix(positions, NodeId(0), prr);
        let sparse = dense.clone().into_sparse();
        assert_eq!(dense.miss_rows().map(<[f64]>::len), Some(n * n));
        assert!(sparse.miss_rows().is_none());
        assert_eq!(dense.memory_bytes() - sparse.memory_bytes(), 2 << 20);
        assert_eq!(dense.digest(), sparse.digest());

        // One node more and it compiles CSR-only, equal to the same chain
        // built from its links.
        let (positions, prr) = chain_matrix(n + 1);
        let above = CompiledTopology::from_prr_matrix(positions.clone(), NodeId(0), prr);
        assert!(above.miss_rows().is_none());
        let links: Vec<_> = (1..=n as u16)
            .flat_map(|i| {
                [
                    (NodeId(i), NodeId(i - 1), 0.9),
                    (NodeId(i - 1), NodeId(i), 0.9),
                ]
            })
            .collect();
        assert_eq!(
            above,
            CompiledTopology::from_links(positions, NodeId(0), &links)
        );
    }

    #[test]
    fn from_links_equals_the_matrix_world_made_sparse() {
        // Every pair of a testbed world, one cut to 0 and its reverse to a
        // sub-ULP PRR, listed backwards: `from_links` sorts them, drops the
        // two immaterial ones and fills the matrix constructor's CSR.
        let topo = Topology::kiel_testbed_18(4);
        let n = topo.num_nodes();
        let mut prr = vec![0.0; n * n];
        let mut links = Vec::new();
        for a in topo.node_ids() {
            for b in topo.node_ids().filter(|&b| b != a) {
                let p = match (a.0, b.0) {
                    (2, 5) => 0.0,
                    (5, 2) => 1e-18,
                    _ => topo.link(a, b).prr(),
                };
                prr[a.index() * n + b.index()] = p;
                links.push((a, b, p));
            }
        }
        links.reverse();
        let positions: Vec<Position> = topo.node_ids().map(|id| topo.position(id)).collect();
        let built = CompiledTopology::from_links(positions.clone(), topo.coordinator(), &links);
        assert_eq!(built.num_links(), links.len() - 2);
        let matrix = CompiledTopology::from_prr_matrix(positions, topo.coordinator(), prr);
        assert_eq!(built, matrix.into_sparse());
    }

    #[test]
    #[should_panic(expected = "duplicate link (1 -> 0)")]
    fn from_links_rejects_a_repeated_link() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(1.0, 0.0)];
        let links = [(NodeId(1), NodeId(0), 0.5), (NodeId(1), NodeId(0), 0.7)];
        CompiledTopology::from_links(positions, NodeId(0), &links);
    }

    #[test]
    fn isolated_node_gets_an_empty_csr_row() {
        // Two clusters 10 km apart: the far node's links round to a
        // miss-probability no-op and vanish from the CSR.
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(3.0, 0.0),
            Position::new(10_000.0, 0.0),
        ];
        let n = positions.len();
        let model = crate::link::PathLossModel::indoor_office();
        let mut prr = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    prr[i * n + j] = model.prr(positions[i], positions[j], 0.0);
                }
            }
        }
        let c = CompiledTopology::from_prr_matrix(positions, NodeId(0), prr);
        assert_eq!(c.out_degree(NodeId(2)), 0, "far node must be isolated");
        assert!(c.out_degree(NodeId(0)) >= 1);
        assert!(c.neighbor_slices(2).0.is_empty());
    }

    #[test]
    fn asymmetric_matrix_compiles_directionally() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(1.0, 0.0)];
        // 0 -> 1 is a good link, 1 -> 0 does not exist.
        let prr = vec![0.0, 0.9, 0.0, 0.0];
        let c = CompiledTopology::from_prr_matrix(positions, NodeId(0), prr);
        assert_eq!(c.out_degree(NodeId(0)), 1);
        assert_eq!(c.out_degree(NodeId(1)), 0);
        assert_eq!(c.prr(NodeId(0), NodeId(1)), 0.9);
        assert_eq!(c.prr(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(c.neighbor_slices(0), (&[1u16][..], &[0.9][..]));
    }

    #[test]
    fn link_matters_is_the_bitwise_no_op_criterion() {
        assert!(!CompiledTopology::link_matters(0.0));
        // Below half an ULP of 1.0 the subtraction rounds back to 1.0.
        assert!(!CompiledTopology::link_matters(1e-17));
        assert!(CompiledTopology::link_matters(1e-15));
        assert!(CompiledTopology::link_matters(0.5));
        assert!(CompiledTopology::link_matters(1.0));
    }

    #[test]
    #[should_panic(expected = "must be n x n")]
    fn from_prr_matrix_rejects_wrong_shape() {
        CompiledTopology::from_prr_matrix(
            vec![Position::new(0.0, 0.0), Position::new(1.0, 0.0)],
            NodeId(0),
            vec![0.0; 3],
        );
    }

    #[test]
    #[should_panic(expected = "coordinator must be one of the nodes")]
    fn from_prr_matrix_rejects_bad_coordinator() {
        CompiledTopology::from_prr_matrix(vec![Position::new(0.0, 0.0)], NodeId(3), vec![0.0]);
    }

    #[test]
    fn set_prr_patches_all_views_in_place() {
        let topo = Topology::kiel_testbed_18(3);
        let mut c = CompiledTopology::compile(&topo);
        let n = c.num_nodes();
        // Directional patch: only 2 -> 5 changes.
        c.set_prr(NodeId(2), NodeId(5), 0.1234);
        assert_eq!(c.prr(NodeId(2), NodeId(5)), 0.1234);
        assert_ne!(c.prr(NodeId(5), NodeId(2)), 0.1234);
        assert_eq!(c.miss_rows().unwrap()[5 * n + 2], 1.0 - 0.1234);
        let (dests, prrs) = c.neighbor_slices(2);
        let pos = dests.iter().position(|&d| d == 5).unwrap();
        assert_eq!(prrs[pos], 0.1234);
    }

    #[test]
    fn set_prr_inserts_and_removes_csr_links() {
        // 0 -> 1 and 0 -> 2 material, 0 -> 3 absent.
        let positions = (0..4).map(|i| Position::new(i as f64, 0.0)).collect();
        let mut prr = vec![0.0; 16];
        prr[1] = 0.9;
        prr[2] = 0.4;
        let mut c = CompiledTopology::from_prr_matrix(positions, NodeId(0), prr);
        assert_eq!(c.out_degree(NodeId(0)), 2);
        assert_eq!(c.miss_rows().unwrap()[3 * 4], 1.0);

        // Drifting 0 -> 3 up inserts the link at the right sorted spot...
        c.set_prr(NodeId(0), NodeId(3), 0.8);
        assert_eq!(c.out_degree(NodeId(0)), 3);
        assert_eq!(c.miss_rows().unwrap()[3 * 4], 1.0 - 0.8);
        assert_eq!(c.neighbor_slices(0).0, &[1, 2, 3]);
        // ...and drifting it to zero removes it again.
        c.set_prr(NodeId(0), NodeId(3), 0.0);
        assert_eq!(c.out_degree(NodeId(0)), 2);
        assert_eq!(c.miss_rows().unwrap()[3 * 4], 1.0);
        // A sub-ULP PRR is just as immaterial as zero, and reads back as
        // its canonical 0.0.
        c.set_prr(NodeId(0), NodeId(3), 1e-18);
        assert_eq!(c.out_degree(NodeId(0)), 2);
        assert_eq!(c.prr(NodeId(0), NodeId(3)), 0.0);
        assert_eq!(c.miss_rows().unwrap()[3 * 4], 1.0);
    }

    #[test]
    fn apply_event_link_drift_is_symmetric() {
        let topo = Topology::kiel_testbed_18(1);
        let mut c = CompiledTopology::compile(&topo);
        let changed = c.apply_event(&crate::world::WorldEvent::LinkDrift {
            a: NodeId(1),
            b: NodeId(4),
            prr: 0.25,
        });
        assert!(changed);
        assert_eq!(c.prr(NodeId(1), NodeId(4)), 0.25);
        assert_eq!(c.prr(NodeId(4), NodeId(1)), 0.25);
    }

    #[test]
    fn apply_event_membership_events_are_topology_no_ops() {
        let topo = Topology::kiel_testbed_18(1);
        let mut c = CompiledTopology::compile(&topo);
        let before = c.clone();
        assert!(!c.apply_event(&crate::world::WorldEvent::NodeFail(NodeId(3))));
        assert!(!c.apply_event(&crate::world::WorldEvent::NodeRejoin(NodeId(3))));
        assert_eq!(c, before);
    }

    mod patch_equivalence {
        use super::*;
        use crate::world::WorldEvent;
        use proptest::prelude::*;

        /// Decodes a selector into a PRR that exercises the material /
        /// immaterial transitions: 0.0 and 1e-18 are dropped from the CSR
        /// (`1 - prr == 1.0` bitwise), 1.0 and the interior values stored.
        fn decode_prr(sel: u32) -> f64 {
            match sel {
                0 => 0.0,
                1 => 1e-18,
                2 => 1.0,
                s => (s % 99) as f64 / 100.0 + 0.01,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// The satellite invariant: a chain of `apply_event` calls ends
            /// in *exactly* the struct a full recompilation of the final
            /// matrix produces — the CSR layout and the dense miss rows
            /// included.
            #[test]
            fn prop_apply_event_chain_equals_full_recompile(
                seed in 0u64..50,
                events in proptest::collection::vec((0u16..12, 0u16..12, 0u32..1000), 1..40),
            ) {
                let topo = Topology::random(12, 40.0, 40.0, seed);
                let mut patched = CompiledTopology::compile(&topo);
                let n = patched.num_nodes();
                // Shadow dense matrix receiving the same edits.
                let mut shadow: Vec<f64> = (0..n * n)
                    .map(|k| patched.prr(NodeId((k / n) as u16), NodeId((k % n) as u16)))
                    .collect();
                for &(a, b, sel) in &events {
                    let prr = decode_prr(sel);
                    if a == b {
                        continue;
                    }
                    patched.apply_event(&WorldEvent::LinkDrift {
                        a: NodeId(a),
                        b: NodeId(b),
                        prr,
                    });
                    shadow[a as usize * n + b as usize] = prr;
                    shadow[b as usize * n + a as usize] = prr;
                }
                let recompiled = CompiledTopology::from_prr_matrix(
                    patched.positions().to_vec(),
                    patched.coordinator(),
                    shadow,
                );
                prop_assert_eq!(patched, recompiled);
            }

            /// Directional patches agree with recompilation too (the CSR is
            /// per-direction, so asymmetric drift must stay exact).
            #[test]
            fn prop_directional_set_prr_equals_recompile(
                seed in 0u64..50,
                edits in proptest::collection::vec((0u16..10, 0u16..10, 0.0f64..1.0), 1..30),
            ) {
                let topo = Topology::random(10, 35.0, 35.0, seed);
                let mut patched = CompiledTopology::compile(&topo);
                let n = patched.num_nodes();
                let mut shadow: Vec<f64> = (0..n * n)
                    .map(|k| patched.prr(NodeId((k / n) as u16), NodeId((k % n) as u16)))
                    .collect();
                for &(from, to, prr) in &edits {
                    if from == to {
                        continue;
                    }
                    patched.set_prr(NodeId(from), NodeId(to), prr);
                    shadow[from as usize * n + to as usize] = prr;
                }
                let recompiled = CompiledTopology::from_prr_matrix(
                    patched.positions().to_vec(),
                    patched.coordinator(),
                    shadow,
                );
                prop_assert_eq!(patched, recompiled);
            }
        }
    }
}
