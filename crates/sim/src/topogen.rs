//! Clustered, city-scale topology generators for sparse compiled worlds.
//!
//! [`Topology`](crate::Topology) builds dense `O(n²)` link matrices — fine
//! for testbeds, fatal for the 10k–100k-node worlds on the roadmap. The
//! generators in this module never materialize a matrix: they place nodes,
//! find candidate neighbor pairs with a spatial hash (`O(n · degree)`), run
//! the same [`PathLossModel`] + per-pair shadowing link physics, and hand
//! the resulting edge list to [`CompiledTopology::from_links`], producing a
//! CSR-only (sparse) compiled world directly.
//!
//! Three hierarchical presets model the paper's "millions of users" story
//! at deployment scale, each with **inter-cluster bridge links** (high-PRR
//! backbone links between deterministic cluster-head nodes) so floods can
//! cross cluster boundaries that plain radio range cannot:
//!
//! * [`city_blocks`] — a street grid of building blocks; nodes are scattered
//!   inside each block, block centers carry a head node, and adjacent
//!   blocks are bridged head-to-head (rooftop relays).
//! * [`campus`] — buildings on a ring; each building's head joins a ring
//!   backbone.
//! * [`warehouse_floor`] — shelf nodes along aisles whose racks block the
//!   radio between aisles; the aisle ends are cross-wired.
//!
//! Plus [`sparse_grid`], the uniform rung used by the scaling benchmarks
//! (`grid1k`, `grid10k`).
//!
//! # Determinism
//!
//! Everything is a pure function of the generator arguments: node placement
//! draws from per-cluster [`SimRng`] streams derived with
//! [`SimRng::derive_seed`], and per-pair shadowing is keyed by the
//! *unordered* node pair, so link qualities are independent of enumeration
//! order. The golden-digest tests pin [`CompiledTopology::digest`] for each
//! preset at fixed seeds — any drift in this module fails `cargo test`.

use crate::compiled::CompiledTopology;
use crate::link::PathLossModel;
use crate::rng::SimRng;
use crate::topology::{NodeId, Position};

/// Radio cutoff radius of the spatial hash, in meters: pairs farther apart
/// than this are not considered for a link. At 30 m the indoor-office model
/// is ~20 dB below sensitivity, PRR < 1e-3 — far outside the usable range.
pub const LINK_CUTOFF_M: f64 = 30.0;

/// PRR of the deterministic inter-cluster bridge links (engineered
/// backbone links, not subject to shadowing).
pub const BRIDGE_PRR: f64 = 0.9;

/// Standard deviation of the per-pair log-normal shadowing, in dB
/// (matches the `Topology` builders).
const SHADOWING_STD_DB: f64 = 2.0;

/// Stream id separating node-placement RNG from everything else.
const PLACEMENT_STREAM: u64 = 0x70;
/// Stream id separating per-pair shadowing RNG from everything else.
const SHADOWING_STREAM: u64 = 0x5d;

/// Symmetric shadowing for the unordered pair `(i, j)`: a pure function of
/// `(seed, min(i,j), max(i,j))`, so the sweep order cannot influence it.
fn pair_shadowing(seed: u64, i: usize, j: usize) -> f64 {
    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
    let s = SimRng::derive_seed(seed, &[SHADOWING_STREAM, lo as u64, hi as u64]);
    SimRng::seed_from(s).gaussian(SHADOWING_STD_DB)
}

/// All material radio links between nodes closer than `cutoff`, both
/// directions per pair, via a spatial hash (`Vec`-of-`Vec` grid bins — no
/// hashing, no `HashMap`, deterministic iteration).
fn radius_links(
    positions: &[Position],
    model: &PathLossModel,
    cutoff: f64,
    seed: u64,
) -> Vec<(NodeId, NodeId, f64)> {
    let n = positions.len();
    let mut links = Vec::new();
    if n < 2 {
        return links;
    }
    let min_x = positions.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
    let min_y = positions.iter().map(|p| p.y).fold(f64::INFINITY, f64::min);
    let max_x = positions
        .iter()
        .map(|p| p.x)
        .fold(f64::NEG_INFINITY, f64::max);
    let max_y = positions
        .iter()
        .map(|p| p.y)
        .fold(f64::NEG_INFINITY, f64::max);
    let cells_x = ((max_x - min_x) / cutoff) as usize + 1;
    let cells_y = ((max_y - min_y) / cutoff) as usize + 1;
    let cell_of = |p: Position| -> (usize, usize) {
        let cx = (((p.x - min_x) / cutoff) as usize).min(cells_x - 1);
        let cy = (((p.y - min_y) / cutoff) as usize).min(cells_y - 1);
        (cx, cy)
    };
    let mut bins: Vec<Vec<u32>> = vec![Vec::new(); cells_x * cells_y];
    for (i, &p) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        bins[cy * cells_x + cx].push(i as u32);
    }
    for i in 0..n {
        let (cx, cy) = cell_of(positions[i]);
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (bx, by) = (cx as i64 + dx, cy as i64 + dy);
                if bx < 0 || by < 0 || bx as usize >= cells_x || by as usize >= cells_y {
                    continue;
                }
                for &j in &bins[by as usize * cells_x + bx as usize] {
                    let j = j as usize;
                    if j <= i {
                        continue;
                    }
                    if positions[i].distance_to(positions[j]) > cutoff {
                        continue;
                    }
                    let prr = model.prr(positions[i], positions[j], pair_shadowing(seed, i, j));
                    if CompiledTopology::link_matters(prr) {
                        links.push((NodeId(i as u16), NodeId(j as u16), prr));
                        links.push((NodeId(j as u16), NodeId(i as u16), prr));
                    }
                }
            }
        }
    }
    links
}

/// Appends one symmetric bridge link at [`BRIDGE_PRR`].
fn push_bridge(links: &mut Vec<(NodeId, NodeId, f64)>, a: NodeId, b: NodeId) {
    links.push((a, b, BRIDGE_PRR));
    links.push((b, a, BRIDGE_PRR));
}

/// A uniform `rows × cols` grid with `spacing` meters between neighbors,
/// compiled sparse (CSR-only) regardless of size — the scaling rung of the
/// benchmark suite (`sparse_grid(32, 32, ..)` is "grid1k",
/// `sparse_grid(100, 100, ..)` is "grid10k").
///
/// The coordinator is node 0 (a grid corner).
///
/// # Panics
///
/// Panics if `rows * cols` is 0 or exceeds 65536, or if `spacing` is not
/// positive.
///
/// # Examples
///
/// ```
/// use dimmer_sim::topogen;
/// let world = topogen::sparse_grid(4, 8, 8.0, 1);
/// assert_eq!(world.num_nodes(), 32);
/// assert!(world.miss_rows().is_none());
/// ```
pub fn sparse_grid(rows: usize, cols: usize, spacing: f64, seed: u64) -> CompiledTopology {
    assert!(rows * cols >= 1, "a grid needs at least one node");
    assert!(spacing > 0.0, "grid spacing must be positive");
    let positions: Vec<Position> = (0..rows * cols)
        .map(|i| Position::new((i % cols) as f64 * spacing, (i / cols) as f64 * spacing))
        .collect();
    let links = radius_links(
        &positions,
        &PathLossModel::indoor_office(),
        LINK_CUTOFF_M,
        seed,
    );
    CompiledTopology::from_links(positions, NodeId(0), &links)
}

/// Side length of one city building block, in meters.
const CITY_BLOCK_SIZE_M: f64 = 50.0;
/// Street width between blocks, in meters (block pitch is size + street).
const CITY_STREET_M: f64 = 30.0;

/// A `blocks_x × blocks_y` street grid of building blocks with
/// `nodes_per_block` nodes each, compiled sparse.
///
/// Node 0 of every block is its *head*, pinned at the block center; the
/// remaining nodes scatter uniformly inside the block. Adjacent blocks
/// (4-neighborhood) are bridged head-to-head at [`BRIDGE_PRR`] — block
/// pitch (80 m) exceeds the radio cutoff, so without the bridges the
/// blocks would only couple through edge nodes across the street. The
/// coordinator is the head of block (0, 0).
///
/// # Panics
///
/// Panics if any dimension is 0, if `nodes_per_block < 1`, or if the total
/// node count exceeds 65536.
pub fn city_blocks(
    blocks_x: usize,
    blocks_y: usize,
    nodes_per_block: usize,
    seed: u64,
) -> CompiledTopology {
    assert!(blocks_x >= 1 && blocks_y >= 1, "need at least one block");
    assert!(nodes_per_block >= 1, "a block needs at least one node");
    let pitch = CITY_BLOCK_SIZE_M + CITY_STREET_M;
    let mut positions = Vec::with_capacity(blocks_x * blocks_y * nodes_per_block);
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            let block = (by * blocks_x + bx) as u64;
            let mut rng = SimRng::seed_from(SimRng::derive_seed(seed, &[PLACEMENT_STREAM, block]));
            let (x0, y0) = (bx as f64 * pitch, by as f64 * pitch);
            // Head at the block center, then the scattered block nodes.
            positions.push(Position::new(
                x0 + CITY_BLOCK_SIZE_M / 2.0,
                y0 + CITY_BLOCK_SIZE_M / 2.0,
            ));
            for _ in 1..nodes_per_block {
                positions.push(Position::new(
                    x0 + rng.uniform(0.0, CITY_BLOCK_SIZE_M),
                    y0 + rng.uniform(0.0, CITY_BLOCK_SIZE_M),
                ));
            }
        }
    }
    let mut links = radius_links(
        &positions,
        &PathLossModel::indoor_office(),
        LINK_CUTOFF_M,
        seed,
    );
    // Head-to-head bridges over the streets. Heads sit one pitch apart —
    // beyond the cutoff — so a bridge can never duplicate a radio link.
    let head = |bx: usize, by: usize| NodeId(((by * blocks_x + bx) * nodes_per_block) as u16);
    for by in 0..blocks_y {
        for bx in 0..blocks_x {
            if bx + 1 < blocks_x {
                push_bridge(&mut links, head(bx, by), head(bx + 1, by));
            }
            if by + 1 < blocks_y {
                push_bridge(&mut links, head(bx, by), head(bx, by + 1));
            }
        }
    }
    CompiledTopology::from_links(positions, NodeId(0), &links)
}

/// Footprint side length of one campus building, in meters.
const CAMPUS_BUILDING_M: f64 = 40.0;
/// Minimum distance between adjacent building centers, in meters (must
/// stay above [`LINK_CUTOFF_M`] so ring bridges never duplicate radio
/// links).
const CAMPUS_PITCH_M: f64 = 60.0;

/// `buildings` buildings arranged on a ring, `nodes_per_building` nodes
/// each, compiled sparse.
///
/// Node 0 of every building is its head, pinned at the building center;
/// the rest scatter inside the square footprint. The heads form a ring
/// backbone bridged at [`BRIDGE_PRR`]. The coordinator is the head of
/// building 0.
///
/// # Panics
///
/// Panics if `buildings < 1`, `nodes_per_building < 1`, or the total node
/// count exceeds 65536.
pub fn campus(buildings: usize, nodes_per_building: usize, seed: u64) -> CompiledTopology {
    assert!(buildings >= 1, "a campus needs at least one building");
    assert!(
        nodes_per_building >= 1,
        "a building needs at least one node"
    );
    // Ring radius keeping adjacent centers at least one pitch apart.
    let radius = if buildings > 1 {
        let chord = 2.0 * (std::f64::consts::PI / buildings as f64).sin();
        (CAMPUS_PITCH_M / chord).max(CAMPUS_PITCH_M)
    } else {
        0.0
    };
    let mut positions = Vec::with_capacity(buildings * nodes_per_building);
    for b in 0..buildings {
        let angle = b as f64 / buildings as f64 * std::f64::consts::TAU;
        let (cx, cy) = (radius * angle.cos(), radius * angle.sin());
        let mut rng = SimRng::seed_from(SimRng::derive_seed(seed, &[PLACEMENT_STREAM, b as u64]));
        positions.push(Position::new(cx, cy));
        for _ in 1..nodes_per_building {
            positions.push(Position::new(
                cx + rng.uniform(-CAMPUS_BUILDING_M / 2.0, CAMPUS_BUILDING_M / 2.0),
                cy + rng.uniform(-CAMPUS_BUILDING_M / 2.0, CAMPUS_BUILDING_M / 2.0),
            ));
        }
    }
    let mut links = radius_links(
        &positions,
        &PathLossModel::indoor_office(),
        LINK_CUTOFF_M,
        seed,
    );
    let head = |b: usize| NodeId((b * nodes_per_building) as u16);
    for b in 1..buildings {
        push_bridge(&mut links, head(b - 1), head(b));
    }
    if buildings > 2 {
        push_bridge(&mut links, head(buildings - 1), head(0));
    }
    CompiledTopology::from_links(positions, NodeId(0), &links)
}

/// Distance between warehouse aisles, in meters. Above [`LINK_CUTOFF_M`]:
/// the racks block the radio, so aisles only couple through the scripted
/// end-of-aisle cross-links.
const WAREHOUSE_AISLE_PITCH_M: f64 = 36.0;
/// Distance between bays along an aisle, in meters.
const WAREHOUSE_BAY_PITCH_M: f64 = 2.5;

/// `aisles × bays` shelf nodes on a warehouse floor, compiled sparse.
///
/// Nodes sit at exact shelf positions (no placement jitter — shadowing
/// still varies per pair with `seed`). Within an aisle, the bay pitch
/// keeps a dense linear chain; between aisles the rack pitch exceeds the
/// radio cutoff, so adjacent aisles are cross-wired at **both ends** at
/// [`BRIDGE_PRR`], making each aisle a bridged cluster. The coordinator is
/// bay 0 of aisle 0.
///
/// # Panics
///
/// Panics if `aisles < 1` or `bays < 2`, or if the total node count
/// exceeds 65536.
pub fn warehouse_floor(aisles: usize, bays: usize, seed: u64) -> CompiledTopology {
    assert!(aisles >= 1, "a floor needs at least one aisle");
    assert!(bays >= 2, "an aisle needs at least two bays");
    let mut positions = Vec::with_capacity(aisles * bays);
    for a in 0..aisles {
        for b in 0..bays {
            positions.push(Position::new(
                a as f64 * WAREHOUSE_AISLE_PITCH_M,
                b as f64 * WAREHOUSE_BAY_PITCH_M,
            ));
        }
    }
    let mut links = radius_links(
        &positions,
        &PathLossModel::indoor_office(),
        LINK_CUTOFF_M,
        seed,
    );
    let node = |a: usize, b: usize| NodeId((a * bays + b) as u16);
    for a in 1..aisles {
        push_bridge(&mut links, node(a - 1, 0), node(a, 0));
        push_bridge(&mut links, node(a - 1, bays - 1), node(a, bays - 1));
    }
    CompiledTopology::from_links(positions, NodeId(0), &links)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reaches_everyone(world: &CompiledTopology) -> bool {
        // BFS over material links.
        let n = world.num_nodes();
        let mut seen = vec![false; n];
        let mut queue = vec![world.coordinator().index()];
        seen[world.coordinator().index()] = true;
        while let Some(i) = queue.pop() {
            let (dests, _) = world.neighbor_slices(i);
            for &j in dests {
                if !seen[j as usize] {
                    seen[j as usize] = true;
                    queue.push(j as usize);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn sparse_grid_has_expected_shape() {
        let world = sparse_grid(10, 10, 8.0, 3);
        assert_eq!(world.num_nodes(), 100);
        assert!(world.miss_rows().is_none());
        assert_eq!(world.coordinator(), NodeId(0));
        assert!(reaches_everyone(&world));
        // A corner node sees fewer neighbors than an interior node.
        assert!(world.out_degree(NodeId(0)) < world.out_degree(NodeId(55)));
    }

    #[test]
    fn city_blocks_are_bridged_and_connected() {
        let world = city_blocks(3, 2, 12, 7);
        assert_eq!(world.num_nodes(), 3 * 2 * 12);
        assert!(world.miss_rows().is_none());
        assert!(reaches_everyone(&world));
        // The head-to-head bridge exists exactly at BRIDGE_PRR (heads are a
        // block pitch apart, beyond the radio cutoff).
        assert_eq!(world.prr(NodeId(0), NodeId(12)), BRIDGE_PRR);
        assert_eq!(world.prr(NodeId(12), NodeId(0)), BRIDGE_PRR);
    }

    #[test]
    fn campus_ring_closes_and_connects() {
        let world = campus(5, 9, 11);
        assert_eq!(world.num_nodes(), 45);
        assert!(reaches_everyone(&world));
        // Ring neighbors plus the closing bridge.
        assert_eq!(world.prr(NodeId(0), NodeId(9)), BRIDGE_PRR);
        assert_eq!(world.prr(NodeId(4 * 9), NodeId(0)), BRIDGE_PRR);
    }

    #[test]
    fn warehouse_aisles_only_couple_at_the_ends() {
        let world = warehouse_floor(3, 20, 5);
        assert_eq!(world.num_nodes(), 60);
        assert!(reaches_everyone(&world));
        // End cross-links exist...
        assert_eq!(world.prr(NodeId(0), NodeId(20)), BRIDGE_PRR);
        assert_eq!(world.prr(NodeId(19), NodeId(39)), BRIDGE_PRR);
        // ...but mid-aisle nodes of adjacent aisles are out of range.
        assert_eq!(world.prr(NodeId(10), NodeId(30)), 0.0);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(city_blocks(2, 2, 8, 42), city_blocks(2, 2, 8, 42));
        assert_ne!(
            city_blocks(2, 2, 8, 42).digest(),
            city_blocks(2, 2, 8, 43).digest()
        );
        assert_eq!(campus(4, 6, 1).digest(), campus(4, 6, 1).digest());
        assert_eq!(
            warehouse_floor(2, 10, 9).digest(),
            warehouse_floor(2, 10, 9).digest()
        );
    }

    #[test]
    fn shadowing_is_pair_symmetric_and_order_independent() {
        assert_eq!(pair_shadowing(5, 3, 17), pair_shadowing(5, 17, 3));
        assert_ne!(pair_shadowing(5, 3, 17), pair_shadowing(5, 3, 18));
        assert_ne!(pair_shadowing(5, 3, 17), pair_shadowing(6, 3, 17));
    }

    #[test]
    fn radius_links_match_brute_force_on_a_small_world() {
        let world = sparse_grid(6, 6, 9.0, 2);
        let positions = world.positions().to_vec();
        let model = PathLossModel::indoor_office();
        for i in 0..positions.len() {
            for j in 0..positions.len() {
                if i == j {
                    continue;
                }
                let expected = if positions[i].distance_to(positions[j]) <= LINK_CUTOFF_M {
                    let p = model.prr(positions[i], positions[j], pair_shadowing(2, i, j));
                    if CompiledTopology::link_matters(p) {
                        p
                    } else {
                        0.0
                    }
                } else {
                    0.0
                };
                assert_eq!(
                    world.prr(NodeId(i as u16), NodeId(j as u16)),
                    expected,
                    "pair ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn grid10k_scale_world_compiles_sparse_and_small() {
        let world = sparse_grid(100, 100, 8.0, 1);
        assert_eq!(world.num_nodes(), 10_000);
        assert!(world.miss_rows().is_none());
        // Dense miss rows at this size would need 8 B x 1e8 cells =
        // 800 MB; the CSR stays in the tens of megabytes.
        assert!(
            world.memory_bytes() < 64 << 20,
            "sparse world took {} bytes",
            world.memory_bytes()
        );
        assert!(reaches_everyone(&world));
    }
}
