//! Equivalence suite for deterministic parallel flood batching:
//! `FloodSimulator::run_parallel(cfg, jobs, T)` must be **byte-identical** to
//! the serial `run(cfg, jobs)` for every thread count `T` — same
//! `FloodOutcome`s, including every per-node stream — over sparse and
//! dense worlds, with and without alive masks and interference banks.
//!
//! Why this holds (the property the proptest hammers): the compiled world
//! and alive mask are read-only during a batch and shared by `&`; each
//! worker owns a private `FloodWorkspace` plus a `box_clone` of the
//! pristine interference bank (whose `busy_for_slot` is a pure function of
//! the slot arguments, so a clone is indistinguishable from the serial
//! path's reused evaluator); and every job seeds its own `SimRng` stream
//! from `job.seed`, and the worker pool returns the outcomes in job order.
//! Parallelism is pure prefetch: neither the OS schedule nor the worker
//! count can reach the bytes.

use dimmer_glossy::{FloodJob, FloodSimulator, GlossyConfig};
use dimmer_integration::equivalence::random_topology;
use dimmer_sim::{
    topogen, CompiledTopology, InterferenceModel, NoInterference, NodeId, PeriodicJammer, Position,
    SimRng, SimTime, WorldEvent,
};
use proptest::prelude::*;
use proptest::strategy::any;

/// Rotating initiators, staggered starts, derived per-job seeds — the same
/// shape the city sweep drives through the batch.
fn jobs_for(n: usize, count: usize, base_seed: u64) -> Vec<FloodJob> {
    (0..count)
        .map(|k| FloodJob {
            initiator: NodeId(((k * 7 + 1) % n) as u16),
            start: SimTime::from_millis(k as u64 * 41),
            seed: SimRng::derive_seed(base_seed, &[k as u64]),
        })
        .collect()
}

/// The acceptance rung: a jammed sparse grid, every thread count 1..=8.
#[test]
fn parallel_equals_serial_on_a_jammed_sparse_grid() {
    let jam = PeriodicJammer::with_duty_cycle(Position::new(36.0, 36.0), 0.3);
    let world = topogen::sparse_grid(10, 10, 8.0, 2);
    let cfg = GlossyConfig::default();
    let jobs = jobs_for(100, 12, 77);
    let serial = FloodSimulator::new(world.clone(), &jam).run(&cfg, &jobs);
    for threads in 1..=8usize {
        let parallel = FloodSimulator::new(world.clone(), &jam).run_parallel(&cfg, &jobs, threads);
        assert_eq!(serial, parallel, "T={threads} diverged from serial");
    }
}

/// Same property over the clustered city generators with an alive mask.
#[test]
fn parallel_equals_serial_on_city_generators_with_alive_masks() {
    for (label, world) in [
        ("city_blocks", topogen::city_blocks(3, 3, 12, 5)),
        ("campus", topogen::campus(4, 24, 9)),
    ] {
        let n = world.num_nodes();
        let jam = PeriodicJammer::with_duty_cycle(Position::new(20.0, 20.0), 0.2);
        let cfg = GlossyConfig::with_uniform_ntx(3);
        let jobs = jobs_for(n, 9, 13);
        // Kill every 5th node, then revive all initiators.
        let mut mask: Vec<bool> = (0..n).map(|i| i % 5 != 4).collect();
        for job in &jobs {
            mask[job.initiator.index()] = true;
        }
        let mut serial = FloodSimulator::new(world.clone(), &jam);
        serial.set_alive(&mask);
        let want = serial.run(&cfg, &jobs);
        for threads in [2, 5, 8] {
            let mut par = FloodSimulator::new(world.clone(), &jam);
            par.set_alive(&mask);
            let got = par.run_parallel(&cfg, &jobs, threads);
            assert_eq!(want, got, "{label}: T={threads} diverged from serial");
        }
    }
}

/// The per-node streams stay bitwise equal, not just the summary metrics.
#[test]
fn parallel_per_node_streams_are_bitwise_equal() {
    let world = topogen::warehouse_floor(4, 20, 3);
    let cfg = GlossyConfig::default();
    let jobs = jobs_for(world.num_nodes(), 6, 5);
    let serial = FloodSimulator::new(world.clone(), &NoInterference).run(&cfg, &jobs);
    let parallel = FloodSimulator::new(world, &NoInterference).run_parallel(&cfg, &jobs, 4);
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.per_node().len(), b.per_node().len());
        for (na, nb) in a.per_node().iter().zip(b.per_node()) {
            assert_eq!(na, nb, "per-node stream diverged");
        }
    }
}

/// Link drift patches the shared world in place and keeps the compiled
/// interference bank (node positions never change): a patched simulator's
/// batches, serial and parallel, equal a cold build over the patched world.
#[test]
fn patched_worlds_batch_like_a_cold_build() {
    let jam = PeriodicJammer::with_duty_cycle(Position::new(20.0, 20.0), 0.3);
    let mut sim = FloodSimulator::new(topogen::sparse_grid(6, 6, 8.0, 4), &jam);
    let cfg = GlossyConfig::default();
    let jobs = jobs_for(36, 8, 21);
    let before = sim.run(&cfg, &jobs);
    for (a, b, prr) in [(0u16, 1u16, 0.0), (0, 35, 0.85), (14, 15, 0.2)] {
        assert!(sim.apply_world_event(&WorldEvent::LinkDrift {
            a: NodeId(a),
            b: NodeId(b),
            prr,
        }));
    }
    let want = FloodSimulator::new(sim.compiled().clone(), &jam).run(&cfg, &jobs);
    assert_ne!(before, want, "the drifts must change some flood");
    assert_eq!(sim.run(&cfg, &jobs), want);
    for threads in [2, 4] {
        let got = sim.run_parallel(&cfg, &jobs, threads);
        assert_eq!(got, want, "T={threads} diverged from a cold build");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: over random dense and sparse worlds, random
    /// alive masks, job mixes and every `T ∈ {1..8}`, the parallel batch
    /// is byte-identical to the serial one.
    #[test]
    fn prop_run_parallel_equals_run(
        topo_seed in 0u64..200,
        n in 2usize..30,
        sparse in any::<bool>(),
        threads in 1usize..=8,
        job_count in 1usize..10,
        base_seed in 0u64..10_000,
        duty_pct in 0u32..=40,
        mask_seed in 0u64..1_000,
        use_mask in any::<bool>(),
    ) {
        let topo = random_topology(n, topo_seed);
        let world = if sparse {
            CompiledTopology::compile_sparse(&topo)
        } else {
            CompiledTopology::compile(&topo)
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
        let jobs = jobs_for(n, job_count, base_seed);
        let mask = use_mask.then(|| {
            let mut mask: Vec<bool> = (0..n)
                .map(|i| (mask_seed.wrapping_mul(0x9E37_79B9) >> (i % 60)) & 1 == 0)
                .collect();
            for job in &jobs {
                mask[job.initiator.index()] = true;
            }
            mask
        });
        let cfg = GlossyConfig::default();

        let mut serial = FloodSimulator::new(world.clone(), interference);
        if let Some(mask) = &mask {
            serial.set_alive(mask);
        }
        let want = serial.run(&cfg, &jobs);

        let mut par = FloodSimulator::new(world, interference);
        if let Some(mask) = &mask {
            par.set_alive(mask);
        }
        let got = par.run_parallel(&cfg, &jobs, threads);
        prop_assert_eq!(want, got);
    }
}
