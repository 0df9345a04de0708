//! Equivalence suite for the optimized flood kernel: the CSR/workspace
//! kernel in `dimmer_glossy::flood` must reproduce the naive dense path in
//! `dimmer_glossy::reference` **byte-for-byte** at fixed seeds.
//!
//! The kernel's whole claim is that it changes *how* a flood is computed
//! (structure-of-arrays scratch, CSR link scatter, skipped no-op work) but
//! not *what* is computed: identical RNG consumption and identical
//! floating-point operation order. Every test here compares complete
//! [`FloodOutcome`] values — received flags, first-RX slots, relay counts,
//! radio accounting and durations — with `assert_eq!`, i.e. exact equality
//! of every `f64`/`u64` field, across topologies, interference models,
//! `N_TX` assignments and participation masks, plus a property test over
//! random topologies and seeds. One more test pins what no outcome shows:
//! how often the kernel evaluates the compiled interference mask.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dimmer_glossy::{
    FloodOutcome, FloodSimulator, GlossyConfig, NtxAssignment, ReferenceFloodSimulator,
};
use dimmer_integration::equivalence::{
    assert_flood_equivalent as assert_equivalent, random_topology,
};
use dimmer_sim::{
    kiel_jamming, topogen, Channel, CompiledTopology, InterferenceModel, NoInterference, NodeId,
    PeriodicJammer, Position, ScheduledInterference, SimDuration, SimRng, SimTime,
    SlotInterference, Topology, WifiInterference, WifiLevel,
};
use proptest::prelude::*;

#[test]
fn kernels_agree_on_every_topology_builder() {
    let cfg = GlossyConfig::default();
    let topos = [
        Topology::line(6, 7.0, 3),
        Topology::grid(4, 5, 9.0, 4),
        Topology::random(25, 35.0, 35.0, 5),
        Topology::kiel_testbed_18(6),
        Topology::dcube_48(7),
        // Multi-hop grids on both sides of the kernel's 64-node bitset
        // words: 63, 64, 65, 128 and 129 nodes.
        Topology::grid(7, 9, 8.0, 8),
        Topology::grid(8, 8, 8.0, 9),
        Topology::grid(5, 13, 8.0, 10),
        Topology::grid(8, 16, 8.0, 11),
        Topology::grid(3, 43, 8.0, 12),
    ];
    for (k, topo) in topos.iter().enumerate() {
        for seed in 0..10u64 {
            assert_equivalent(
                topo,
                &NoInterference,
                &cfg,
                topo.coordinator(),
                SimTime::ZERO,
                seed * 31 + k as u64,
            );
        }
    }
}

#[test]
fn kernels_agree_under_every_interference_model() {
    let topo = Topology::kiel_testbed_18(2);
    let cfg = GlossyConfig::default();
    let jam = PeriodicJammer::with_duty_cycle(Position::new(10.0, 10.0), 0.35);
    let wifi = WifiInterference::new(WifiLevel::Level2, 9);
    let comp = kiel_jamming(0.30);
    let mut sched = ScheduledInterference::new();
    sched.add_window(
        SimTime::from_millis(5),
        SimTime::from_secs(2),
        Box::new(PeriodicJammer::with_duty_cycle(
            Position::new(8.0, 8.0),
            0.5,
        )),
    );
    let models: [&dyn InterferenceModel; 5] = [&NoInterference, &jam, &wifi, &comp, &sched];
    for (k, model) in models.into_iter().enumerate() {
        for seed in 0..12u64 {
            // Vary the start time so bursty models hit different phases.
            let start = SimTime::from_millis(seed * 13 + k as u64 * 7);
            assert_equivalent(&topo, model, &cfg, NodeId(0), start, seed ^ 0xAB);
        }
    }
}

#[test]
fn kernels_agree_across_ntx_assignments() {
    let topo = Topology::kiel_testbed_18(4);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(11.0, 11.0), 0.25);
    for ntx in 0..=8u8 {
        let cfg = GlossyConfig::with_uniform_ntx(ntx);
        assert_equivalent(&topo, &jam, &cfg, NodeId(3), SimTime::ZERO, ntx as u64);
    }
    // Per-node assignment with passive receivers (N_TX = 0), as used by the
    // forwarder selection.
    let mut per_node = vec![3u8; topo.num_nodes()];
    per_node[5] = 0;
    per_node[9] = 0;
    per_node[14] = 8;
    let cfg = GlossyConfig::default().with_ntx(NtxAssignment::PerNode(per_node));
    for seed in 0..10u64 {
        assert_equivalent(&topo, &jam, &cfg, NodeId(0), SimTime::ZERO, seed + 100);
    }
}

#[test]
fn kernels_agree_with_participation_masks() {
    let topo = Topology::kiel_testbed_18(8);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(12.0, 9.0), 0.4);
    let cfg = GlossyConfig::default();
    let mut fast = FloodSimulator::new(&topo, &jam);
    let slow = ReferenceFloodSimulator::new(&topo, &jam);
    for seed in 0..15u64 {
        // Derive a pseudo-random participation mask from the seed.
        let mut mask: Vec<bool> = (0..topo.num_nodes())
            .map(|i| (seed.wrapping_mul(0x9E37_79B9) >> (i % 60)) & 1 == 0)
            .collect();
        mask[0] = true; // the initiator must participate
        let a = fast.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
            &mask,
        );
        let b = slow.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
            &mask,
        );
        assert_eq!(a, b, "masked flood diverged (seed {seed})");
    }
}

#[test]
fn kernels_consume_the_same_amount_of_rng() {
    // After a flood, both simulators must leave the RNG in the same state —
    // otherwise equivalence would silently break for the *next* flood
    // sharing the stream (exactly how LWB rounds chain floods).
    let topo = Topology::kiel_testbed_18(5);
    let jam = PeriodicJammer::with_duty_cycle(Position::new(10.0, 12.0), 0.3);
    let cfg = GlossyConfig::default();
    let mut fast = FloodSimulator::new(&topo, &jam);
    let slow = ReferenceFloodSimulator::new(&topo, &jam);
    let mut rng_a = SimRng::seed_from(99);
    let mut rng_b = SimRng::seed_from(99);
    for round in 0..10u64 {
        let start = SimTime::from_millis(round * 23);
        let a = fast.flood(&cfg, NodeId(0), start, &mut rng_a);
        let b = slow.flood(&cfg, NodeId(0), start, &mut rng_b);
        assert_eq!(a, b, "chained flood {round} diverged");
        assert_eq!(
            rng_a.gen_probability(),
            rng_b.gen_probability(),
            "RNG streams drifted apart after flood {round}"
        );
    }
}

#[test]
fn kernel_handles_single_pair_and_isolated_topologies() {
    // Smallest legal topology.
    let topo = Topology::line(2, 5.0, 1);
    let cfg = GlossyConfig::default();
    let out = assert_equivalent(&topo, &NoInterference, &cfg, NodeId(1), SimTime::ZERO, 7);
    assert!(out.received(NodeId(0)));
    // A line so stretched that the far nodes are unreachable: the kernel's
    // CSR rows for them are empty, yet accounting must still match.
    let sparse = Topology::line(4, 200.0, 2);
    for seed in 0..5u64 {
        let out = assert_equivalent(
            &sparse,
            &NoInterference,
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            seed,
        );
        assert_eq!(out.reach_count(), 1, "200 m spacing must isolate nodes");
        // Unreached nodes listen for the whole budget.
        assert_eq!(
            out.node(NodeId(3)).radio.on_time(),
            cfg.max_slot_duration,
            "isolated nodes keep scanning"
        );
    }
}

#[test]
fn flood_duration_and_outcome_shape_are_preserved() {
    let topo = Topology::dcube_48(3);
    let wifi = WifiInterference::new(WifiLevel::Level1, 4);
    let cfg = GlossyConfig::with_uniform_ntx(5);
    let out = assert_equivalent(&topo, &wifi, &cfg, NodeId(0), SimTime::from_secs(3), 11);
    assert_eq!(out.per_node().len(), 48);
    assert!(out.duration() <= cfg.max_slot_duration);
    assert!(out.duration() > SimDuration::ZERO);
}

/// Forwards every query to `inner` and counts the evaluations of the
/// compiled mask, in the manner of perfbench's timing decorator.
#[derive(Debug)]
struct CountingInterference<'a> {
    inner: &'a dyn InterferenceModel,
    calls: Arc<AtomicU64>,
}

/// The counted mask [`CountingInterference::compile_for`] hands out.
#[derive(Debug)]
struct CountingMask {
    inner: Box<dyn SlotInterference>,
    calls: Arc<AtomicU64>,
}

impl InterferenceModel for CountingInterference<'_> {
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64 {
        self.inner.busy_fraction(start, duration_us, channel, at)
    }

    fn is_always_idle(&self) -> bool {
        self.inner.is_always_idle()
    }

    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        let calls = Arc::clone(&self.calls);
        self.inner
            .compile_for(positions)
            .map(|inner| Box::new(CountingMask { inner, calls }) as Box<dyn SlotInterference>)
    }
}

impl SlotInterference for CountingMask {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.busy_for_slot(start, duration_us, channel, out);
    }

    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(CountingMask {
            inner: self.inner.box_clone(),
            calls: Arc::clone(&self.calls),
        })
    }
}

/// How many slots of `out` had a transmitter, read off the outcome alone:
/// the initiator transmits in slots 0, 2, … and a receiver in
/// `first_rx_slot + 1`, `+ 3`, …, each `relays` times.
fn transmitting_slots(out: &FloodOutcome) -> u64 {
    let mut slots = BTreeSet::new();
    for (i, node) in out.per_node().iter().enumerate() {
        let first = match node.first_rx_slot {
            _ if i == out.initiator().index() => 0,
            Some(rx) => u32::from(rx) + 1,
            None => continue,
        };
        slots.extend((0..u32::from(node.relays)).map(|k| first + 2 * k));
    }
    slots.len() as u64
}

/// The mask contract: a kernel under a non-idle model evaluates the
/// compiled mask exactly once in every slot in which some node transmits,
/// and in no other slot. A kernel that evaluated it lazily would keep every
/// outcome and digest, so only this count (and perfbench's traced
/// `slot_calls`) can tell. Dense and sparse worlds, uniform and per-node
/// `N_TX` with passive receivers, full and masked participation.
#[test]
fn kernel_evaluates_the_mask_once_per_transmitting_slot() {
    let jam = kiel_jamming(0.30);
    let calls = Arc::new(AtomicU64::new(0));
    let counting = CountingInterference {
        inner: &jam,
        calls: Arc::clone(&calls),
    };
    let worlds = [
        CompiledTopology::compile(&Topology::kiel_testbed_18(1)),
        CompiledTopology::compile(&Topology::dcube_48(1)),
        topogen::sparse_grid(12, 12, 8.0, 1),
    ];
    for world in worlds {
        let n = world.num_nodes();
        let initiator = world.coordinator();
        let mut sim = FloodSimulator::new(world, &counting);
        let per_node = NtxAssignment::PerNode((0..n).map(|i| (i * 7 % 5) as u8).collect());
        let cfgs = [
            GlossyConfig::with_uniform_ntx(1),
            GlossyConfig::with_uniform_ntx(3),
            GlossyConfig::with_uniform_ntx(6),
            GlossyConfig::default().with_ntx(per_node),
        ];
        for (c, cfg) in cfgs.iter().enumerate() {
            for seed in 0..100u64 {
                let start = SimTime::from_millis(seed * 11);
                let mut rng = SimRng::seed_from(seed);
                calls.store(0, Ordering::Relaxed);
                let out = if seed.is_multiple_of(2) {
                    sim.flood(cfg, initiator, start, &mut rng)
                } else {
                    let mask: Vec<bool> = (0..n)
                        .map(|i| {
                            i == initiator.index()
                                || (seed.wrapping_mul(0x9E37_79B9) >> (i % 60)) & 3 != 0
                        })
                        .collect();
                    sim.flood_with_participants(cfg, initiator, start, &mut rng, &mask)
                };
                assert_eq!(
                    calls.load(Ordering::Relaxed),
                    transmitting_slots(&out),
                    "{n}-node world, config {c}, seed {seed}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The headline property: on random topologies of up to four bitset
    /// words, random seeds, random initiators and random N_TX — uniform, or
    /// per node with passive receivers — the optimized kernel and the
    /// reference produce identical outcomes.
    #[test]
    fn prop_kernels_agree_on_random_topologies(
        topo_seed in 0u64..500,
        flood_seed in 0u64..10_000,
        n in 2usize..200,
        ntx in 0u8..=8,
        initiator_pick in 0usize..200,
        duty_pct in 0u32..=50,
        per_node: bool,
        ntx_by_node in proptest::collection::vec(0u8..=8, 200),
    ) {
        let topo = random_topology(n, topo_seed);
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
        let mut fast = FloodSimulator::new(&topo, interference);
        let slow = ReferenceFloodSimulator::new(&topo, interference);
        let a = fast.flood(&cfg, initiator, SimTime::ZERO, &mut SimRng::seed_from(flood_seed));
        let b = slow.flood(&cfg, initiator, SimTime::ZERO, &mut SimRng::seed_from(flood_seed));
        prop_assert_eq!(a, b);
    }
}
