//! Batched floods over one shared compiled world — the city-scale driver.
//!
//! A [`FloodSimulator`](crate::FloodSimulator) compiles a dense
//! [`dimmer_sim::Topology`] and runs one flood at a time. At 10k–100k nodes
//! that shape breaks down twice: the dense topology cannot even be built
//! (`O(n²)` memory), and a sweep wants *many* floods — different initiators,
//! start times and seeds — without paying the compile or the workspace
//! allocation per flood. [`FloodBatch`] is the answer: it **owns** a
//! [`CompiledTopology`] (typically a sparse CSR-only world from
//! [`dimmer_sim::topogen`]), one compiled interference bank and one reusable
//! [`FloodWorkspace`], and steps a whole queue of [`FloodJob`]s through
//! them in a single process.
//!
//! Each job carries its own RNG seed, so a batch is *reorder-invariant at
//! the job level*: job `k` produces the same [`FloodOutcome`] whether it
//! runs alone in a [`FloodSimulator`](crate::FloodSimulator) over the same
//! compiled world or anywhere inside a batch — the equivalence suite pins
//! exactly that, which is what makes batch results comparable with every
//! single-flood number in the repo.

use crate::config::GlossyConfig;
use crate::flood::{run_flood, FloodWorkspace};
use crate::outcome::FloodOutcome;
use dimmer_sim::workqueue::run_indexed_jobs_with;
use dimmer_sim::{
    CompiledTopology, InterferenceModel, NodeId, SimRng, SimTime, SlotInterference, WorldEvent,
};

/// One flood of a batch: who initiates, when, and the private RNG seed the
/// flood consumes (each job owns a fresh [`SimRng`] stream, making batch
/// results independent of job order and batch size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodJob {
    /// The initiating node.
    pub initiator: NodeId,
    /// Wall-clock start of the flood (interference is time-varying).
    pub start: SimTime,
    /// Seed of the job's private RNG stream.
    pub seed: u64,
}

/// Runs batches of independent floods through one shared
/// [`CompiledTopology`] + interference bank + [`FloodWorkspace`].
///
/// # Examples
///
/// ```
/// use dimmer_glossy::{FloodBatch, FloodJob, GlossyConfig};
/// use dimmer_sim::{topogen, NoInterference, NodeId, SimTime};
///
/// let world = topogen::sparse_grid(8, 8, 8.0, 1);
/// let mut batch = FloodBatch::new(world, &NoInterference);
/// let jobs: Vec<FloodJob> = (0..4)
///     .map(|k| FloodJob {
///         initiator: NodeId(k * 9),
///         start: SimTime::from_millis(k as u64 * 50),
///         seed: 100 + k as u64,
///     })
///     .collect();
/// let outcomes = batch.run(&GlossyConfig::default(), &jobs);
/// assert_eq!(outcomes.len(), 4);
/// ```
#[derive(Debug)]
pub struct FloodBatch<'a> {
    compiled: CompiledTopology,
    interference: &'a dyn InterferenceModel,
    slot_interference: Option<Box<dyn SlotInterference>>,
    workspace: FloodWorkspace,
    alive: Option<Vec<bool>>,
}

impl<'a> FloodBatch<'a> {
    /// Creates a batch driver over an owned compiled world, compiling the
    /// interference mask for its positions once.
    pub fn new(compiled: CompiledTopology, interference: &'a dyn InterferenceModel) -> Self {
        let slot_interference = interference.compile_for(compiled.positions());
        let workspace = FloodWorkspace::for_nodes(compiled.num_nodes());
        FloodBatch {
            compiled,
            interference,
            slot_interference,
            workspace,
            alive: None,
        }
    }

    /// Creates a batch driver over an owned compiled world **reusing** an
    /// already-compiled interference bank instead of calling
    /// [`InterferenceModel::compile_for`].
    ///
    /// This is the warm-cache entry point: the `dimmerd` daemon compiles a
    /// scenario's bank once, keeps the pristine evaluator as a prototype
    /// and hands each trial a [`SlotInterference::box_clone`] of it. The
    /// caller is responsible for the bank matching
    /// `interference.compile_for(compiled.positions())` — a mismatched bank
    /// silently produces wrong busy fractions.
    pub fn from_parts(
        compiled: CompiledTopology,
        interference: &'a dyn InterferenceModel,
        slot_interference: Option<Box<dyn SlotInterference>>,
    ) -> Self {
        let workspace = FloodWorkspace::for_nodes(compiled.num_nodes());
        FloodBatch {
            compiled,
            interference,
            slot_interference,
            workspace,
            alive: None,
        }
    }

    /// The shared compiled world the batch floods over.
    pub fn compiled(&self) -> &CompiledTopology {
        &self.compiled
    }

    /// Applies one dynamic-world event to the shared world (see
    /// [`CompiledTopology::apply_event`]), returning whether the topology
    /// changed. Node-count changes recompile the interference mask and
    /// extend any alive mask, exactly like
    /// [`FloodSimulator::apply_world_event`](crate::FloodSimulator::apply_world_event).
    pub fn apply_world_event(&mut self, event: &WorldEvent) -> bool {
        let before = self.compiled.num_nodes();
        let changed = self.compiled.apply_event(event);
        if self.compiled.num_nodes() != before {
            self.slot_interference = self.interference.compile_for(self.compiled.positions());
            if let Some(alive) = &mut self.alive {
                alive.resize(self.compiled.num_nodes(), true);
            }
        }
        changed
    }

    /// Installs a dynamic-world alive mask shared by every subsequent job.
    ///
    /// # Panics
    ///
    /// Panics if the mask does not cover every node.
    pub fn set_alive(&mut self, alive: &[bool]) {
        assert_eq!(
            alive.len(),
            self.compiled.num_nodes(),
            "alive mask must cover every node"
        );
        // Reuse the existing buffer when the length matches instead of
        // allocating a fresh Vec per call (dynamic-world sweeps flip the
        // mask between every flood).
        match &mut self.alive {
            Some(buf) if buf.len() == alive.len() => buf.copy_from_slice(alive),
            slot => *slot = Some(alive.to_vec()),
        }
    }

    /// Removes the alive mask (every node may participate again).
    pub fn clear_alive(&mut self) {
        self.alive = None;
    }

    /// Runs one job through the shared world and scratch.
    ///
    /// # Panics
    ///
    /// Panics if the job's initiator is out of range or dead.
    pub fn run_one(&mut self, cfg: &GlossyConfig, job: &FloodJob) -> FloodOutcome {
        assert!(
            job.initiator.index() < self.compiled.num_nodes(),
            "initiator out of range"
        );
        assert!(
            self.alive.as_ref().is_none_or(|a| a[job.initiator.index()]),
            "the initiator must be alive"
        );
        let mut rng = SimRng::seed_from(job.seed);
        run_flood(
            &self.compiled,
            self.interference,
            &mut self.slot_interference,
            self.alive.as_deref(),
            &mut self.workspace,
            cfg,
            job.initiator,
            job.start,
            &mut rng,
            None,
        )
    }

    /// Runs every job in order through the shared world, reusing the one
    /// workspace — allocation-free per flood apart from the outcomes.
    ///
    /// # Panics
    ///
    /// Panics if any job's initiator is out of range or dead.
    pub fn run(&mut self, cfg: &GlossyConfig, jobs: &[FloodJob]) -> Vec<FloodOutcome> {
        let mut outcomes = Vec::with_capacity(jobs.len());
        // lint: hot-begin
        for job in jobs {
            outcomes.push(self.run_one(cfg, job));
        }
        // lint: hot-end
        outcomes
    }

    /// Runs every job across `threads` scoped workers, returning outcomes
    /// **in job order, byte-identical to [`run`](Self::run) for every
    /// thread count** — parallelism here is pure prefetch.
    ///
    /// The determinism argument, pinned by the equivalence suite and a
    /// proptest in `tests/tests/parallel_batching.rs`:
    ///
    /// * the [`CompiledTopology`] and alive mask are read-only during the
    ///   batch and shared by `&`;
    /// * each worker owns a **private** [`FloodWorkspace`] and a
    ///   [`SlotInterference::box_clone`] of the pristine bank, so no flood
    ///   observes another flood's scratch mutations (the bank contract —
    ///   `busy_for_slot` is a pure function of the slot arguments — makes a
    ///   clone indistinguishable from the serial path's reused evaluator);
    /// * every job seeds its own [`SimRng`] stream from `job.seed` and
    ///   writes its [`FloodOutcome`] into a pre-assigned slot of the shared
    ///   work queue ([`dimmer_sim::workqueue`]), so neither the OS schedule
    ///   nor the worker count can leak into the results.
    ///
    /// `threads <= 1` (or a single job) falls back to the serial
    /// [`run`](Self::run), reusing the batch's own workspace.
    ///
    /// # Panics
    ///
    /// Panics if any job's initiator is out of range or dead. Unlike the
    /// serial path the whole job list is validated **before** any flood
    /// runs, so a bad job never wastes a partial parallel sweep.
    pub fn run_parallel(
        &mut self,
        cfg: &GlossyConfig,
        jobs: &[FloodJob],
        threads: usize,
    ) -> Vec<FloodOutcome> {
        if threads <= 1 || jobs.len() <= 1 {
            return self.run(cfg, jobs);
        }
        let n = self.compiled.num_nodes();
        for job in jobs {
            assert!(job.initiator.index() < n, "initiator out of range");
            assert!(
                self.alive.as_ref().is_none_or(|a| a[job.initiator.index()]),
                "the initiator must be alive"
            );
        }
        let compiled = &self.compiled;
        let interference = self.interference;
        let alive = self.alive.as_deref();
        let bank = self.slot_interference.as_ref();
        run_indexed_jobs_with(
            jobs.len(),
            threads,
            // Once per worker: a private workspace and a pristine bank clone.
            || (FloodWorkspace::for_nodes(n), bank.map(|b| b.box_clone())),
            |(workspace, bank), i| {
                let job = &jobs[i];
                // lint: hot-begin
                let mut rng = SimRng::seed_from(job.seed);
                run_flood(
                    compiled,
                    interference,
                    bank,
                    alive,
                    workspace,
                    cfg,
                    job.initiator,
                    job.start,
                    &mut rng,
                    None,
                )
                // lint: hot-end
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FloodSimulator;
    use dimmer_sim::{topogen, NoInterference, PeriodicJammer, Position, Topology};

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
        let batched = FloodBatch::new(world.clone(), &jam).run(&cfg, &js);
        for (job, batch_out) in js.iter().zip(&batched) {
            let mut single = FloodSimulator::from_compiled(world.clone(), &jam);
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
    fn from_parts_with_a_cloned_bank_matches_a_cold_compile() {
        let jam = PeriodicJammer::with_duty_cycle(Position::new(20.0, 20.0), 0.3);
        let world = topogen::sparse_grid(8, 8, 8.0, 3);
        let cfg = GlossyConfig::default();
        let js = jobs(64, 13);
        // A pristine prototype bank, as the daemon's warm cache keeps it.
        let prototype = jam.compile_for(world.positions());
        let warm = FloodBatch::from_parts(
            world.clone(),
            &jam,
            prototype.as_ref().map(|b| b.box_clone()),
        )
        .run(&cfg, &js);
        let cold = FloodBatch::new(world, &jam).run(&cfg, &js);
        assert_eq!(warm, cold, "warm bank must reproduce the cold compile");
    }

    #[test]
    fn job_outcomes_are_independent_of_batch_composition() {
        let world = topogen::city_blocks(2, 2, 10, 5);
        let cfg = GlossyConfig::default();
        let js = jobs(40, 11);
        let full = FloodBatch::new(world.clone(), &NoInterference).run(&cfg, &js);
        // The same trailing job alone produces the same outcome.
        let alone = FloodBatch::new(world, &NoInterference).run(&cfg, &js[3..]);
        assert_eq!(full[3], alone[0]);
    }

    #[test]
    fn batch_respects_the_alive_mask() {
        let world = topogen::sparse_grid(4, 4, 8.0, 2);
        let mut batch = FloodBatch::new(world, &NoInterference);
        let mut mask = vec![true; 16];
        mask[5] = false;
        batch.set_alive(&mask);
        let out = batch.run_one(
            &GlossyConfig::default(),
            &FloodJob {
                initiator: NodeId(0),
                start: SimTime::ZERO,
                seed: 9,
            },
        );
        assert!(!out.per_node()[5].participated);
        batch.clear_alive();
        let out = batch.run_one(
            &GlossyConfig::default(),
            &FloodJob {
                initiator: NodeId(0),
                start: SimTime::ZERO,
                seed: 9,
            },
        );
        assert!(out.per_node().iter().all(|o| o.participated));
    }

    #[test]
    fn batch_over_a_dense_world_matches_the_simulator() {
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
    fn world_growth_mid_batch_is_safe() {
        let world = topogen::sparse_grid(3, 3, 8.0, 1);
        let jam = PeriodicJammer::with_duty_cycle(Position::new(8.0, 8.0), 0.2);
        let mut batch = FloodBatch::new(world, &jam);
        batch.set_alive(&[true; 9]);
        let cfg = GlossyConfig::default();
        let job = FloodJob {
            initiator: NodeId(0),
            start: SimTime::ZERO,
            seed: 3,
        };
        batch.run_one(&cfg, &job);
        // Grow by one node linked to the last grid node.
        let changed = batch.apply_world_event(&WorldEvent::TopologyGrow {
            positions: vec![Position::new(24.0, 16.0)],
            links: vec![(NodeId(8), NodeId(9), 0.9)],
        });
        assert!(changed);
        assert_eq!(batch.compiled().num_nodes(), 10);
        let out = batch.run_one(&cfg, &job);
        assert_eq!(out.per_node().len(), 10);
        assert!(out.per_node()[9].participated);
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
        let serial = FloodBatch::new(world.clone(), &jam).run(&cfg, &js);
        for threads in [1, 2, 3, 4, 8] {
            let parallel = FloodBatch::new(world.clone(), &jam).run_parallel(&cfg, &js, threads);
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
        let mut serial = FloodBatch::new(world.clone(), &jam);
        serial.set_alive(&mask);
        let want = serial.run(&cfg, &js);
        let mut par = FloodBatch::new(world, &jam);
        par.set_alive(&mask);
        let got = par.run_parallel(&cfg, &js, 4);
        assert_eq!(want, got);
        assert!(got.iter().all(|o| !o.per_node()[7].participated));
    }

    #[test]
    #[should_panic(expected = "initiator must be alive")]
    fn run_parallel_rejects_dead_initiators_before_running_anything() {
        let world = topogen::sparse_grid(2, 2, 8.0, 1);
        let mut batch = FloodBatch::new(world, &NoInterference);
        batch.set_alive(&[true, false, true, true]);
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
        batch.run_parallel(&GlossyConfig::default(), &js, 2);
    }

    #[test]
    fn set_alive_reuses_the_buffer_when_lengths_match() {
        let world = topogen::sparse_grid(2, 2, 8.0, 1);
        let mut batch = FloodBatch::new(world, &NoInterference);
        batch.set_alive(&[true, true, false, true]);
        // Same length: the mask flips in place.
        batch.set_alive(&[false, true, true, true]);
        let out = batch.run_one(
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
        let mut batch = FloodBatch::new(world, &NoInterference);
        batch.set_alive(&[true, false, true, true]);
        batch.run_one(
            &GlossyConfig::default(),
            &FloodJob {
                initiator: NodeId(1),
                start: SimTime::ZERO,
                seed: 1,
            },
        );
    }
}
