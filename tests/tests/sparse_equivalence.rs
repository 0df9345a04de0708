//! Equivalence suite for sparse (CSR-only) compiled worlds: a flood over a
//! `CompiledTopology` without dense miss rows must be byte-identical
//! — outcomes *and* RNG stream position — to the same flood over the dense
//! compilation, and in-place patching (`apply_event`, `grow`) of a sparse
//! world must equal a full recompile. The clustered generators that produce
//! city-scale sparse worlds are pinned by golden FNV digests at fixed
//! seeds, world_dynamics-style, so generator drift fails `cargo test -q`.
//!
//! The bit-exactness argument mirrors `flood_equivalence.rs`: the sparse
//! scatter multiplies the same material miss factors in the same ascending-
//! transmitter order as the dense rows (the CSR omits only factors that are
//! exactly `1.0`, a bitwise no-op), and `SimRng::chance` consumes no state
//! for receivers both paths skip.

use dimmer_glossy::{FloodSimulator, GlossyConfig};
use dimmer_integration::equivalence::{
    assert_sparse_equals_dense, dense_and_sparse, one_way_twins, random_topology,
};
use dimmer_integration::jamming;
use dimmer_sim::{
    topogen, CompiledTopology, InterferenceModel, NoInterference, NodeId, PeriodicJammer, Position,
    ScenarioScript, SimRng, SimTime, Topology, WifiInterference, WifiLevel, World, WorldEvent,
};
use proptest::prelude::*;

/// The acceptance rung: the 100-node jammed grid, many seeds/initiators.
#[test]
fn sparse_matches_dense_on_grid100() {
    let topo = Topology::grid(10, 10, 8.0, 2);
    let jam = jamming(0.30);
    let cfg = GlossyConfig::default();
    for seed in 0..10u64 {
        let initiator = NodeId(((seed * 37) % 100) as u16);
        let start = SimTime::from_millis(seed * 13);
        assert_sparse_equals_dense(
            dense_and_sparse(&topo),
            &jam,
            &cfg,
            initiator,
            start,
            seed,
            None,
        );
    }
}

/// The other acceptance rung: D-Cube 48 under strong WiFi interference.
#[test]
fn sparse_matches_dense_on_dcube48() {
    let topo = Topology::dcube_48(1);
    let wifi = WifiInterference::new(WifiLevel::Level2, 5);
    for ntx in [1u8, 3, 8] {
        let cfg = GlossyConfig::with_uniform_ntx(ntx);
        for seed in 0..6u64 {
            assert_sparse_equals_dense(
                dense_and_sparse(&topo),
                &wifi,
                &cfg,
                topo.coordinator(),
                SimTime::from_millis(seed * 7),
                seed ^ (ntx as u64) << 8,
                None,
            );
        }
    }
}

/// Sparse vs dense with per-node N_TX and participation masks (the exact
/// shapes LWB rounds drive through the kernel).
#[test]
fn sparse_matches_dense_with_masks_and_per_node_ntx() {
    let topo = Topology::kiel_testbed_18(4);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(11.0, 11.0), 0.25);
    let mut per_node = vec![3u8; topo.num_nodes()];
    per_node[5] = 0;
    per_node[14] = 8;
    let cfg = GlossyConfig::default().with_ntx(dimmer_glossy::NtxAssignment::PerNode(per_node));
    for seed in 0..8u64 {
        let mut mask: Vec<bool> = (0..topo.num_nodes())
            .map(|i| (seed.wrapping_mul(0x9E37_79B9) >> (i % 60)) & 1 == 0)
            .collect();
        mask[0] = true;
        assert_sparse_equals_dense(
            dense_and_sparse(&topo),
            &jam,
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            seed,
            Some(&mask),
        );
    }
}

/// `LinkDrift` patched into a sparse world equals recompiling the mutated
/// matrix from scratch — including drifts that *create* links where the
/// sparse CSR had none, and drifts that remove links.
#[test]
fn link_drift_on_sparse_equals_full_recompile() {
    let topo = Topology::grid(5, 5, 8.0, 3);
    let dense = CompiledTopology::compile(&topo);
    let n = dense.num_nodes();
    let mut sparse = CompiledTopology::compile_sparse(&topo);
    // Start from the dense view's exact matrix (canonical zeros included).
    let mut matrix: Vec<f64> = (0..n * n)
        .map(|k| dense.prr(NodeId((k / n) as u16), NodeId((k % n) as u16)))
        .collect();
    let drifts = [
        (NodeId(0), NodeId(1), 0.0),   // sever an existing link
        (NodeId(0), NodeId(24), 0.8),  // create a brand-new long link
        (NodeId(7), NodeId(8), 0.123), // weaken an existing link
        (NodeId(0), NodeId(24), 0.0),  // remove the link created above
    ];
    for (a, b, prr) in drifts {
        let changed = sparse.apply_event(&WorldEvent::LinkDrift { a, b, prr });
        assert!(changed);
        matrix[a.index() * n + b.index()] = prr;
        matrix[b.index() * n + a.index()] = prr;
        let recompiled = CompiledTopology::from_prr_matrix_sparse(
            dense.positions().to_vec(),
            dense.coordinator(),
            matrix.clone(),
        );
        assert_eq!(
            sparse, recompiled,
            "sparse patch diverged from recompile after drift {a:?}->{b:?}={prr}"
        );
    }
}

/// `grow` on a sparse world equals compiling the grown world from scratch,
/// and the grown world floods exactly like its recompiled twin.
#[test]
fn growth_on_sparse_equals_full_recompile() {
    let mut grown = topogen::sparse_grid(4, 4, 8.0, 7);
    let base = grown.clone();
    let old_n = base.num_nodes();
    let new_positions = [Position::new(30.0, 4.0), Position::new(38.0, 4.0)];
    let links = [
        (NodeId(7), NodeId(16), 0.9),
        (NodeId(16), NodeId(17), 0.75),
        (NodeId(15), NodeId(17), 0.4),
    ];
    grown.grow(&new_positions, &links);

    let m = old_n + new_positions.len();
    let mut matrix = vec![0.0f64; m * m];
    for i in 0..old_n {
        for j in 0..old_n {
            matrix[i * m + j] = base.prr(NodeId(i as u16), NodeId(j as u16));
        }
    }
    for (a, b, prr) in links {
        matrix[a.index() * m + b.index()] = prr;
        matrix[b.index() * m + a.index()] = prr;
    }
    let mut positions = base.positions().to_vec();
    positions.extend_from_slice(&new_positions);
    let recompiled =
        CompiledTopology::from_prr_matrix_sparse(positions, base.coordinator(), matrix);
    assert_eq!(grown, recompiled, "grow diverged from a full recompile");

    // And the grown world floods bit-identically to its recompiled twin.
    let cfg = GlossyConfig::default();
    let mut a = FloodSimulator::from_compiled(grown, &NoInterference);
    let mut b = FloodSimulator::from_compiled(recompiled, &NoInterference);
    for seed in 0..5u64 {
        assert_eq!(
            a.flood(
                &cfg,
                NodeId(17),
                SimTime::ZERO,
                &mut SimRng::seed_from(seed)
            ),
            b.flood(
                &cfg,
                NodeId(17),
                SimTime::ZERO,
                &mut SimRng::seed_from(seed)
            ),
        );
    }
}

/// Golden FNV digests of the clustered generators at fixed seeds: any
/// change to node placement, the spatial hash, link physics or shadowing
/// derivation fails here before it can silently shift benchmark numbers.
#[test]
fn clustered_generator_digests_are_pinned() {
    assert_eq!(
        topogen::city_blocks(4, 3, 16, 42).digest(),
        0x0f60bb3a867b534a,
        "city_blocks(4, 3, 16, 42)"
    );
    assert_eq!(
        topogen::campus(8, 24, 42).digest(),
        0x0a1a7baded6b2119,
        "campus(8, 24, 42)"
    );
    assert_eq!(
        topogen::warehouse_floor(6, 30, 42).digest(),
        0x36107183512fd825,
        "warehouse_floor(6, 30, 42)"
    );
    // The scaling rungs of the benchmark suite.
    assert_eq!(
        topogen::sparse_grid(32, 32, 8.0, 1).digest(),
        0x65457dd9ddb450bd,
        "sparse_grid(32, 32, 8.0, 1)"
    );
}

/// Regression test for the workspace-sizing fix: a scripted world event
/// growing the node count mid-run must not index out of bounds (the alive
/// and interference masks were sized at construction) and must not
/// silently truncate the active list — the new nodes really flood.
#[test]
fn mid_script_growth_does_not_break_the_flood_layer() {
    let topo = Topology::line(4, 6.0, 1);
    // A compiled-mask interference model, so the stale-mask path is real.
    let jam = PeriodicJammer::with_duty_cycle(Position::new(6.0, 2.0), 0.2);
    let grow_at = SimTime::from_secs(1);
    let script = ScenarioScript::new().grow_topology(
        grow_at,
        vec![Position::new(24.0, 0.0), Position::new(30.0, 0.0)],
        vec![(NodeId(3), NodeId(4), 0.95), (NodeId(4), NodeId(5), 0.95)],
    );
    let mut world = World::new(topo.num_nodes(), topo.coordinator(), script);
    let mut sim = FloodSimulator::new(&topo, &jam);
    sim.set_alive(world.alive()); // sized for the pre-growth world
    let cfg = GlossyConfig::default();
    let mut rng = SimRng::seed_from(5);

    let before = sim.flood(&cfg, NodeId(0), SimTime::ZERO, &mut rng);
    assert_eq!(before.per_node().len(), 4);

    let update = world.advance_to(grow_at);
    assert_eq!(update.grown, 2);
    assert!(update.topology_changed);
    for (_, event) in world.events_in(update.fired.clone()) {
        if event.is_topology_event() {
            sim.apply_world_event(event);
        }
    }
    assert_eq!(sim.compiled().num_nodes(), 6);
    assert_eq!(world.alive().len(), 6);

    // Pre-fix this flood indexed the 4-entry alive mask (and a 4-node
    // interference mask) with node ids 4 and 5.
    let after = sim.flood(&cfg, NodeId(0), grow_at, &mut rng);
    assert_eq!(after.per_node().len(), 6, "active list was truncated");
    assert!(after.per_node()[4].participated);
    assert!(after.per_node()[5].participated);
    assert!(
        after.received(NodeId(5)),
        "the grown chain must carry the flood to the new tail node"
    );
}

/// CI's `scale-smoke` rung: one 10k-node CSR-only flood, end to end. Debug
/// builds make this needlessly slow for `cargo test -q`, so it is ignored
/// by default; the CI job runs it in release under a wall-clock budget
/// (`cargo test --release ... grid10k -- --ignored`).
#[test]
#[ignore = "release-mode scale smoke; run by CI's scale-smoke job"]
fn grid10k_single_flood_completes() {
    use dimmer_glossy::{FloodBatch, FloodJob};
    let world = topogen::sparse_grid(100, 100, 8.0, 1);
    assert_eq!(world.num_nodes(), 10_000);
    assert!(
        world.miss_rows().is_none(),
        "grid10k must never allocate dense miss rows"
    );
    let mut batch = FloodBatch::new(world, &NoInterference);
    // The 800 m grid span needs dozens of hops; give the flood room.
    let cfg = GlossyConfig {
        max_slot_duration: dimmer_sim::SimDuration::from_millis(200),
        ..GlossyConfig::with_uniform_ntx(3)
    };
    let job = FloodJob {
        initiator: NodeId(0),
        start: SimTime::ZERO,
        seed: 1,
    };
    let out = batch.run_one(&cfg, &job);
    assert!(
        out.reach_count() > 9_000,
        "a calm 10k grid floods nearly everywhere, got {}",
        out.reach_count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: on random topologies — symmetric, or with
    /// one-way links — and random seeds, initiators, N_TX, interference
    /// levels and participation masks, the sparse CSR-only flood is
    /// byte-identical to the dense path (outcome and RNG stream position —
    /// the latter asserted inside the runner). Only the one-way worlds
    /// tell a scatter over `prr(t → r)` from one over `prr(r → t)`.
    #[test]
    fn prop_sparse_equals_dense_on_random_topologies(
        topo_seed in 0u64..300,
        flood_seed in 0u64..10_000,
        n in 2usize..40,
        ntx in 0u8..=8,
        initiator_pick in 0usize..40,
        duty_pct in 0u32..=50,
        one_way: bool,
        mask_bits: u64,
    ) {
        let worlds = if one_way {
            one_way_twins(n, topo_seed)
        } else {
            dense_and_sparse(&random_topology(n, topo_seed))
        };
        let initiator = NodeId((initiator_pick % n) as u16);
        let cfg = GlossyConfig::with_uniform_ntx(ntx);
        let jam;
        let interference: &dyn InterferenceModel = if duty_pct == 0 {
            &NoInterference
        } else {
            jam = PeriodicJammer::with_duty_cycle(
                Position::new(15.0, 15.0),
                duty_pct as f64 / 100.0,
            );
            &jam
        };
        // Odd cases drop about a quarter of the nodes (never the initiator).
        let mask: Option<Vec<bool>> = (mask_bits & 1 == 1).then(|| {
            (0..n)
                .map(|i| i == initiator.index() || (mask_bits >> (1 + i % 60)) & 3 != 0)
                .collect()
        });
        assert_sparse_equals_dense(
            worlds,
            interference,
            &cfg,
            initiator,
            SimTime::ZERO,
            flood_seed,
            mask.as_deref(),
        );
    }

    /// Growing a sparse world in place always equals a from-scratch
    /// compilation of the grown world.
    #[test]
    fn prop_growth_equals_recompile(
        rows in 2usize..6,
        cols in 2usize..6,
        world_seed in 0u64..50,
        prr_pct in 1u32..=100,
    ) {
        let mut grown = topogen::sparse_grid(rows, cols, 8.0, world_seed);
        let base = grown.clone();
        let old_n = base.num_nodes();
        let new_pos = Position::new(-10.0, -10.0);
        let prr = prr_pct as f64 / 100.0;
        let link = (NodeId(0), NodeId(old_n as u16), prr);
        grown.grow(&[new_pos], &[link]);

        let m = old_n + 1;
        let mut matrix = vec![0.0f64; m * m];
        for i in 0..old_n {
            for j in 0..old_n {
                matrix[i * m + j] = base.prr(NodeId(i as u16), NodeId(j as u16));
            }
        }
        matrix[old_n] = prr;          // (0, new)
        matrix[old_n * m] = prr;      // (new, 0)
        let mut positions = base.positions().to_vec();
        positions.push(new_pos);
        let recompiled =
            CompiledTopology::from_prr_matrix_sparse(positions, base.coordinator(), matrix);
        prop_assert_eq!(grown, recompiled);
    }
}
