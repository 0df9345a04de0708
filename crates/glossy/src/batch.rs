//! Batched floods: many independent floods over one [`FloodSimulator`]'s
//! shared world — the city-scale sweep path.
//!
//! A sweep wants *many* floods — different initiators, start times and
//! seeds — over one world, without paying the world compile, the
//! interference-mask compile or the workspace allocation per flood. A
//! [`FloodJob`] describes one such flood; [`FloodSimulator::run`] steps a
//! queue of them through the simulator's one workspace, and
//! [`FloodSimulator::run_parallel`] fans them across worker threads. At
//! 10k–100k nodes the world is a sparse CSR-only [`CompiledTopology`] from
//! [`dimmer_sim::topogen`]: a dense [`dimmer_sim::Topology`] of that size
//! cannot even be built (`O(n²)` memory).
//!
//! Each job carries its own RNG seed, so a batch is *reorder-invariant at
//! the job level*: job `k` produces the same [`FloodOutcome`] whether it
//! runs alone through [`FloodSimulator::flood`] on a generator seeded with
//! `job.seed` or anywhere inside a batch — the equivalence suite pins
//! exactly that, which is what makes batch results comparable with every
//! single-flood number in the repo.
//!
//! [`FloodBatch`] is another name for [`FloodSimulator`].
//!
//! [`CompiledTopology`]: dimmer_sim::CompiledTopology
//! [`FloodOutcome`]: crate::FloodOutcome

use crate::flood::FloodSimulator;
use dimmer_sim::{NodeId, SimTime};

/// Another name for [`FloodSimulator`], which runs single floods and
/// batches of [`FloodJob`]s alike.
pub type FloodBatch<'a> = FloodSimulator<'a>;

/// One flood of a batch: who initiates, when, and the private RNG seed the
/// flood consumes (each job owns a fresh [`SimRng`](dimmer_sim::SimRng)
/// stream, making batch results independent of job order and batch size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodJob {
    /// The initiating node.
    pub initiator: NodeId,
    /// Wall-clock start of the flood (interference is time-varying).
    pub start: SimTime,
    /// Seed of the job's private RNG stream.
    pub seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GlossyConfig;
    use dimmer_sim::{
        topogen, CompiledTopology, NoInterference, PeriodicJammer, Position, SimRng, Topology,
    };

    fn jobs(n: u16, stride: u16) -> Vec<FloodJob> {
        (0..4u16)
            .map(|k| FloodJob {
                initiator: NodeId((k * stride) % n),
                start: SimTime::from_millis(k as u64 * 37),
                seed: 1000 + k as u64,
            })
            .collect()
    }

    #[test]
    fn batch_equals_per_job_single_floods() {
        let jam = PeriodicJammer::with_duty_cycle(Position::new(20.0, 20.0), 0.3);
        let world = topogen::sparse_grid(8, 8, 8.0, 3);
        let cfg = GlossyConfig::default();
        let js = jobs(64, 13);
        let batched = FloodSimulator::new(world.clone(), &jam).run(&cfg, &js);
        for (job, batch_out) in js.iter().zip(&batched) {
            let mut single = FloodSimulator::new(world.clone(), &jam);
            let solo = single.flood(
                &cfg,
                job.initiator,
                job.start,
                &mut SimRng::seed_from(job.seed),
            );
            assert_eq!(&solo, batch_out, "job {job:?} diverged from solo run");
        }
    }

    #[test]
    fn job_outcomes_are_independent_of_batch_composition() {
        let world = topogen::city_blocks(2, 2, 10, 5);
        let cfg = GlossyConfig::default();
        let js = jobs(40, 11);
        let full = FloodSimulator::new(world.clone(), &NoInterference).run(&cfg, &js);
        // The same trailing job alone produces the same outcome.
        let alone = FloodSimulator::new(world, &NoInterference).run(&cfg, &js[3..]);
        assert_eq!(full[3], alone[0]);
    }

    #[test]
    fn batch_respects_the_alive_mask() {
        let world = topogen::sparse_grid(4, 4, 8.0, 2);
        let mut sim = FloodSimulator::new(world, &NoInterference);
        let mut mask = vec![true; 16];
        mask[5] = false;
        sim.set_alive(&mask);
        let job = FloodJob {
            initiator: NodeId(0),
            start: SimTime::ZERO,
            seed: 9,
        };
        let out = sim.run_one(&GlossyConfig::default(), &job);
        assert!(!out.per_node()[5].participated);
        sim.clear_alive();
        let out = sim.run_one(&GlossyConfig::default(), &job);
        assert!(out.per_node().iter().all(|o| o.participated));
    }

    #[test]
    fn batch_over_a_dense_world_matches_the_simulator() {
        // `FloodBatch` is the name the city benchmark builds its drivers by.
        let topo = Topology::kiel_testbed_18(7);
        let cfg = GlossyConfig::default();
        let job = FloodJob {
            initiator: NodeId(4),
            start: SimTime::ZERO,
            seed: 42,
        };
        let batched =
            FloodBatch::new(CompiledTopology::compile(&topo), &NoInterference).run_one(&cfg, &job);
        let solo = FloodSimulator::new(&topo, &NoInterference).flood(
            &cfg,
            job.initiator,
            job.start,
            &mut SimRng::seed_from(job.seed),
        );
        assert_eq!(batched, solo);
    }

    #[test]
    fn run_parallel_is_byte_identical_to_run_for_every_thread_count() {
        let jam = PeriodicJammer::with_duty_cycle(Position::new(20.0, 20.0), 0.3);
        let world = topogen::sparse_grid(8, 8, 8.0, 3);
        let cfg = GlossyConfig::default();
        let js: Vec<FloodJob> = (0..9u16)
            .map(|k| FloodJob {
                initiator: NodeId((k * 13) % 64),
                start: SimTime::from_millis(k as u64 * 37),
                seed: 1000 + k as u64,
            })
            .collect();
        let serial = FloodSimulator::new(world.clone(), &jam).run(&cfg, &js);
        for threads in [1, 2, 3, 4, 8] {
            let parallel =
                FloodSimulator::new(world.clone(), &jam).run_parallel(&cfg, &js, threads);
            assert_eq!(serial, parallel, "threads={threads} diverged from serial");
        }
    }

    #[test]
    fn run_parallel_respects_the_alive_mask_and_cloned_banks() {
        let jam = PeriodicJammer::with_duty_cycle(Position::new(12.0, 12.0), 0.4);
        let world = topogen::sparse_grid(5, 5, 8.0, 2);
        let cfg = GlossyConfig::default();
        let mut mask = vec![true; 25];
        mask[7] = false;
        mask[18] = false;
        let js: Vec<FloodJob> = (0..6u16)
            .map(|k| FloodJob {
                initiator: NodeId((k * 5) % 25),
                start: SimTime::from_millis(k as u64 * 29),
                seed: 77 + k as u64,
            })
            .collect();
        let mut serial = FloodSimulator::new(world.clone(), &jam);
        serial.set_alive(&mask);
        let want = serial.run(&cfg, &js);
        let mut par = FloodSimulator::new(world, &jam);
        par.set_alive(&mask);
        let got = par.run_parallel(&cfg, &js, 4);
        assert_eq!(want, got);
        assert!(got.iter().all(|o| !o.per_node()[7].participated));
    }

    #[test]
    #[should_panic(expected = "initiator must be alive")]
    fn run_parallel_rejects_dead_initiators_before_running_anything() {
        let world = topogen::sparse_grid(2, 2, 8.0, 1);
        let mut sim = FloodSimulator::new(world, &NoInterference);
        sim.set_alive(&[true, false, true, true]);
        let js = [
            FloodJob {
                initiator: NodeId(0),
                start: SimTime::ZERO,
                seed: 1,
            },
            FloodJob {
                initiator: NodeId(1),
                start: SimTime::ZERO,
                seed: 2,
            },
        ];
        sim.run_parallel(&GlossyConfig::default(), &js, 2);
    }

    #[test]
    #[should_panic(expected = "initiator out of range")]
    fn run_parallel_rejects_out_of_range_initiators_before_running_anything() {
        let world = topogen::sparse_grid(2, 2, 8.0, 1);
        let js = [
            FloodJob {
                initiator: NodeId(0),
                start: SimTime::ZERO,
                seed: 1,
            },
            FloodJob {
                initiator: NodeId(4),
                start: SimTime::ZERO,
                seed: 2,
            },
        ];
        FloodSimulator::new(world, &NoInterference).run_parallel(&GlossyConfig::default(), &js, 2);
    }

    #[test]
    fn set_alive_reuses_the_buffer_when_lengths_match() {
        let world = topogen::sparse_grid(2, 2, 8.0, 1);
        let mut sim = FloodSimulator::new(world, &NoInterference);
        sim.set_alive(&[true, true, false, true]);
        // Same length: the mask flips in place.
        sim.set_alive(&[false, true, true, true]);
        let out = sim.run_one(
            &GlossyConfig::default(),
            &FloodJob {
                initiator: NodeId(1),
                start: SimTime::ZERO,
                seed: 5,
            },
        );
        assert!(!out.per_node()[0].participated);
        assert!(out.per_node()[2].participated);
    }

    #[test]
    #[should_panic(expected = "initiator must be alive")]
    fn dead_initiator_is_rejected() {
        let world = topogen::sparse_grid(2, 2, 8.0, 1);
        let mut sim = FloodSimulator::new(world, &NoInterference);
        sim.set_alive(&[true, false, true, true]);
        sim.run_one(
            &GlossyConfig::default(),
            &FloodJob {
                initiator: NodeId(1),
                start: SimTime::ZERO,
                seed: 1,
            },
        );
    }
}
