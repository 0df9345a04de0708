//! Equivalence suite for sparse (CSR-only) compiled worlds: a flood over a
//! `CompiledTopology` without dense miss rows must be byte-identical
//! — outcomes *and* RNG stream position — to the same flood over the dense
//! compilation, and in-place patching (`apply_event`) of a sparse world
//! must equal a full recompile. The clustered generators that produce
//! city-scale sparse worlds are pinned by golden FNV digests at fixed
//! seeds, world_dynamics-style, so generator drift fails `cargo test -q`.
//!
//! The bit-exactness argument mirrors `flood_equivalence.rs`: the sparse
//! scatter multiplies the same material miss factors in the same ascending-
//! transmitter order as the dense rows (the CSR omits only factors that are
//! exactly `1.0`, a bitwise no-op), and `SimRng::chance` consumes no state
//! for receivers both paths skip.

use dimmer_glossy::{FloodSimulator, GlossyConfig, NtxAssignment};
use dimmer_integration::equivalence::{
    assert_sparse_equals_dense, dense_and_sparse, one_way_twins, random_topology,
};
use dimmer_sim::{
    kiel_jamming, topogen, CompiledTopology, InterferenceModel, NoInterference, NodeId,
    PeriodicJammer, Position, ScenarioScript, SimRng, SimTime, Topology, WifiInterference,
    WifiLevel, World, WorldEvent,
};
use proptest::prelude::*;

/// The acceptance rung: the 100-node jammed grid, many seeds/initiators,
/// plus multi-hop grids on both sides of the kernel's 64-node bitset words
/// (63, 64, 65, 128 and 129 nodes).
#[test]
fn sparse_matches_dense_on_grid100() {
    let jam = kiel_jamming(0.30);
    let cfg = GlossyConfig::default();
    for (rows, cols) in [(10, 10), (7, 9), (8, 8), (5, 13), (8, 16), (3, 43)] {
        let topo = Topology::grid(rows, cols, 8.0, 2);
        let n = (rows * cols) as u64;
        for seed in 0..10u64 {
            let initiator = NodeId(((seed * 37) % n) as u16);
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
    let cfg = GlossyConfig::default().with_ntx(NtxAssignment::PerNode(per_node));
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
    let mut sparse = CompiledTopology::compile(&topo).into_sparse();
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
        let recompiled = CompiledTopology::from_prr_matrix(
            dense.positions().to_vec(),
            dense.coordinator(),
            matrix.clone(),
        )
        .into_sparse();
        assert_eq!(
            sparse, recompiled,
            "sparse patch diverged from recompile after drift {a:?}->{b:?}={prr}"
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

/// A scripted world reaches the flood layer: `World::advance_to` fires the
/// events, topology events patch the simulator's sparse world in place
/// (its interference bank is kept, as the node set never changes), the
/// alive mask follows membership, and the patched simulator floods exactly
/// like a cold one over the recompiled world.
#[test]
fn mid_script_events_reach_the_flood_layer() {
    let base = topogen::sparse_grid(4, 4, 8.0, 5);
    let n = base.num_nodes();
    // A compiled-mask interference model, so the kept bank is real.
    let jam = PeriodicJammer::with_duty_cycle(Position::new(12.0, 12.0), 0.2);
    let at = SimTime::from_secs(1);
    let drifts = [
        (NodeId(0), NodeId(1), 0.0),   // sever a grid link
        (NodeId(0), NodeId(15), 0.9),  // create a corner-to-corner link
        (NodeId(9), NodeId(10), 0.35), // weaken a grid link
    ];
    let mut script = ScenarioScript::new().fail_node(at, NodeId(5));
    for (a, b, prr) in drifts {
        script = script.drift_link(at, a, b, prr);
    }
    let mut world = World::new(n, base.coordinator(), script);
    let mut sim = FloodSimulator::new(base.clone(), &jam);
    sim.set_alive(world.alive());

    let update = world.advance_to(at);
    assert_eq!(update.failed, 1);
    for (_, event) in world.events_in(update.fired.clone()) {
        if event.is_topology_event() {
            assert!(sim.apply_world_event(event));
        }
    }
    sim.set_alive(world.alive());

    let mut matrix: Vec<f64> = (0..n * n)
        .map(|k| base.prr(NodeId((k / n) as u16), NodeId((k % n) as u16)))
        .collect();
    for (a, b, prr) in drifts {
        matrix[a.index() * n + b.index()] = prr;
        matrix[b.index() * n + a.index()] = prr;
    }
    let recompiled =
        CompiledTopology::from_prr_matrix(base.positions().to_vec(), base.coordinator(), matrix)
            .into_sparse();
    assert_eq!(sim.compiled(), &recompiled);
    let mut cold = FloodSimulator::new(recompiled, &jam);
    cold.set_alive(world.alive());

    let cfg = GlossyConfig::default();
    for seed in 0..5u64 {
        let patched = sim.flood(&cfg, NodeId(0), at, &mut SimRng::seed_from(seed));
        assert!(!patched.per_node()[5].participated, "node 5 failed");
        assert_eq!(
            patched,
            cold.flood(&cfg, NodeId(0), at, &mut SimRng::seed_from(seed)),
            "seed {seed}: patched world diverged from a cold build"
        );
    }
}

/// CI's `scale-smoke` rung: one 10k-node CSR-only flood, end to end. Debug
/// builds make this needlessly slow for `cargo test -q`, so it is ignored
/// by default; the CI job runs it in release under a wall-clock budget
/// (`cargo test --release ... grid10k -- --ignored`).
#[test]
#[ignore = "release-mode scale smoke; run by CI's scale-smoke job"]
fn grid10k_single_flood_completes() {
    use dimmer_glossy::FloodJob;
    let world = topogen::sparse_grid(100, 100, 8.0, 1);
    assert_eq!(world.num_nodes(), 10_000);
    assert!(
        world.miss_rows().is_none(),
        "grid10k must never allocate dense miss rows"
    );
    let mut sim = FloodSimulator::new(world, &NoInterference);
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
    let out = sim.run_one(&cfg, &job);
    assert!(
        out.reach_count() > 9_000,
        "a calm 10k grid floods nearly everywhere, got {}",
        out.reach_count()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: on random topologies of up to four bitset
    /// words — symmetric, or with one-way links — and random seeds,
    /// initiators, N_TX (uniform, or per node with passive receivers),
    /// interference levels and participation masks, the sparse CSR-only
    /// flood is byte-identical to the dense path (outcome and RNG stream
    /// position — the latter asserted inside the runner). Only the one-way
    /// worlds tell a scatter over `prr(t → r)` from one over `prr(r → t)`.
    #[test]
    fn prop_sparse_equals_dense_on_random_topologies(
        topo_seed in 0u64..300,
        flood_seed in 0u64..10_000,
        n in 2usize..200,
        ntx in 0u8..=8,
        initiator_pick in 0usize..200,
        duty_pct in 0u32..=50,
        one_way: bool,
        mask_bits: u64,
        per_node: bool,
        ntx_by_node in proptest::collection::vec(0u8..=8, 200),
    ) {
        let worlds = if one_way {
            one_way_twins(n, topo_seed)
        } else {
            dense_and_sparse(&random_topology(n, topo_seed))
        };
        let initiator = NodeId((initiator_pick % n) as u16);
        let cfg = if per_node {
            GlossyConfig::default().with_ntx(NtxAssignment::PerNode(ntx_by_node[..n].to_vec()))
        } else {
            GlossyConfig::with_uniform_ntx(ntx)
        };
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

    /// A chain of `LinkDrift` events patched into a sparse world — severing,
    /// creating and re-weighting links — always equals a from-scratch
    /// sparse compilation of the final matrix.
    #[test]
    fn prop_link_drift_chain_on_sparse_equals_recompile(
        rows in 2usize..6,
        cols in 2usize..6,
        world_seed in 0u64..50,
        drifts in proptest::collection::vec((0usize..36, 0usize..36, 0u32..=100), 1..20),
    ) {
        let mut patched = topogen::sparse_grid(rows, cols, 8.0, world_seed);
        let n = patched.num_nodes();
        let mut matrix: Vec<f64> = (0..n * n)
            .map(|k| patched.prr(NodeId((k / n) as u16), NodeId((k % n) as u16)))
            .collect();
        for &(a, b, prr_pct) in &drifts {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            let prr = prr_pct as f64 / 100.0;
            patched.apply_event(&WorldEvent::LinkDrift {
                a: NodeId(a as u16),
                b: NodeId(b as u16),
                prr,
            });
            matrix[a * n + b] = prr;
            matrix[b * n + a] = prr;
        }
        let recompiled = CompiledTopology::from_prr_matrix(
            patched.positions().to_vec(),
            patched.coordinator(),
            matrix,
        ).into_sparse();
        prop_assert_eq!(patched, recompiled);
    }
}
