//! The optimized slot-by-slot Glossy flood kernel.
//!
//! The flood advances in *relay slots* of one packet air time plus the RX/TX
//! turnaround (~1.4 ms for the paper's 30-byte packets). In every relay slot
//! a set of nodes transmits the same packet; every node that does not yet
//! have the packet listens and receives it with a probability that combines
//!
//! * the link PRR towards each concurrent transmitter (capture effect /
//!   constructive interference: more transmitters → more chances),
//! * a small concurrency penalty modelling imperfect synchronization, and
//! * the interference busy fraction at the receiver for that slot.
//!
//! A node that received the packet in slot `k` retransmits in slots `k+1`,
//! `k+3`, … until it has transmitted its `N_TX` share, then switches its
//! radio off. Nodes with `N_TX = 0` (passive receivers in Dimmer's forwarder
//! selection) switch off right after their first reception. Nodes that never
//! receive keep listening for the whole slot budget — exactly the radio-on
//! accounting used in the paper ("slots in which no packet was received are
//! accounted for").
//!
//! # Kernel layout
//!
//! This module is the *fast* implementation of the semantics above; the
//! original dense implementation lives unchanged in [`crate::reference`] and
//! serves as the equivalence oracle. The kernel differs only in *how* it
//! computes, never in *what*:
//!
//! * node state is structure-of-arrays scratch in a reusable
//!   [`FloodWorkspace`] — zero heap allocation per flood except the returned
//!   [`FloodOutcome`],
//! * the node sets a slot works on are bitsets of one `u64` per 64 nodes,
//!   walked in ascending bit order: the listeners, and a ring of three
//!   transmitter sets for slots `s`, `s + 1` and `s + 2` (a receiver first
//!   transmits in the slot after its reception, a transmitter again two
//!   slots later). So no per-slot step visits a node that neither
//!   transmits nor can receive, and a count per set makes the end-of-flood
//!   check `O(1)`: the flood ends once no listener is left and no
//!   transmission is due in this slot or the next, which is exactly when
//!   the reference finds no participating node with its radio on,
//! * each listener's miss product comes from the [`CompiledTopology`]
//!   (compiled once per simulator) in one of two ways, picked by what the
//!   world stores. Dense worlds multiply the listener's miss-factor row
//!   ([`CompiledTopology::miss_rows`]) over the slot's ascending
//!   transmitter list, and the draw pass visits every listener. Sparse
//!   (CSR-only) worlds scatter instead: each transmitter, in ascending
//!   order, multiplies `1.0 - prr` into the per-node miss accumulator of
//!   every listening out-neighbour and marks it touched, and the draw pass
//!   visits only the touched listeners, so the work follows the wavefront
//!   rather than the listener count,
//! * interference is evaluated through a precompiled per-node mask
//!   ([`InterferenceModel::compile_for`]) exactly **once per slot with a
//!   transmitter** instead of once per receiver, and calm scenarios
//!   ([`InterferenceModel::is_always_idle`]) skip it entirely.
//!
//! Bit-for-bit equivalence with the reference holds because (a) the RNG is
//! consumed for exactly the same receivers in the same order
//! ([`SimRng::chance`] consumes no state for `p <= 0`, which covers every
//! receiver the kernel skips), (b) each receiver's miss product multiplies
//! the same factors in the same (ascending-transmitter) order on both paths
//! — the CSR only omits links whose factor `1.0 - prr` rounds to exactly
//! `1.0`, a bitwise no-op — (c) compiled interference masks are
//! contractually bit-identical to per-receiver `busy_fraction` calls, and
//! (d) ascending bit order is ascending node order, so the bitsets hand out
//! transmitters and receivers in the reference's scan order. A listener the
//! sparse scatter did not touch has a miss product of exactly `1.0`, one of
//! the receivers (a) lets the kernel skip without a draw.
//!
//! The kernel itself is a private free function. [`FloodSimulator`] is
//! its one driver: it runs single floods and batches of independent
//! [`FloodJob`]s, serially or across worker threads (see [`crate::batch`]).

use crate::batch::FloodJob;
use crate::config::GlossyConfig;
use crate::outcome::{FloodOutcome, NodeFloodOutcome};
use dimmer_sim::workqueue::run_indexed_jobs;
use dimmer_sim::{
    CompiledTopology, InterferenceModel, NodeId, RadioAccounting, RadioState, SimRng, SimTime,
    SlotInterference, WorldEvent,
};

/// Sentinel for "never switched off".
const NONE_U32: u32 = u32::MAX;

/// Reusable per-flood scratch buffers (structure-of-arrays node state).
///
/// One workspace serves any number of floods over topologies up to its
/// capacity; it grows on demand and never shrinks. [`FloodSimulator`] embeds
/// one, which is what makes a long simulation allocation-free per flood:
/// once the workspace is sized, the only allocation left in the hot path is
/// the returned [`FloodOutcome`].
///
/// Node sets are bitsets: bit `i % 64` of word `i / 64` stands for node `i`.
#[derive(Debug, Default)]
pub struct FloodWorkspace {
    participating: Vec<bool>,
    has_packet: Vec<bool>,
    first_rx_slot: Vec<u8>,
    tx_remaining: Vec<u8>,
    relays: Vec<u8>,
    off_after_slot: Vec<u32>,
    /// Participating nodes still waiting for the packet — exactly the
    /// eligible receivers of each slot (a node holding the packet is never
    /// eligible, and every transmitter holds the packet).
    listen: Vec<u64>,
    /// The transmitters of slots `s`, `s + 1` and `s + 2`, at index
    /// `slot % 3`. Reading a slot's set clears it for slot `s + 3`.
    ring: [Vec<u64>; 3],
    /// Listeners whose miss accumulator the sparse scatter multiplied into
    /// this slot; empty between slots.
    touched: Vec<u64>,
    /// This slot's transmitters, ascending by id.
    transmitters: Vec<u16>,
    /// Per-node miss-product accumulators of the sparse scatter; every
    /// entry is `1.0` between slots.
    miss: Vec<f64>,
    /// Per-node busy fractions of the current slot, filled lazily from the
    /// compiled interference mask.
    busy: Vec<f64>,
}

impl FloodWorkspace {
    /// Creates a workspace pre-sized for `n` nodes.
    pub fn for_nodes(n: usize) -> Self {
        let mut ws = FloodWorkspace::default();
        ws.reset(n);
        ws
    }

    /// Number of nodes the workspace is currently sized for.
    pub fn capacity(&self) -> usize {
        self.participating.len()
    }

    /// Resizes (if needed) and clears the per-flood state.
    fn reset(&mut self, n: usize) {
        self.participating.clear();
        self.participating.resize(n, false);
        self.has_packet.clear();
        self.has_packet.resize(n, false);
        self.first_rx_slot.clear();
        self.first_rx_slot.resize(n, 0);
        self.tx_remaining.clear();
        self.tx_remaining.resize(n, 0);
        self.relays.clear();
        self.relays.resize(n, 0);
        self.off_after_slot.clear();
        self.off_after_slot.resize(n, NONE_U32);
        let words = n.div_ceil(64);
        for bits in [&mut self.listen, &mut self.touched]
            .into_iter()
            .chain(&mut self.ring)
        {
            bits.clear();
            bits.resize(words, 0);
        }
        // A slot has at most `n` transmitters, so the list never grows
        // during a flood.
        self.transmitters.clear();
        self.transmitters.reserve(n);
        self.miss.clear();
        self.miss.resize(n, 1.0);
        self.busy.resize(n, 0.0);
    }
}

/// Adds node `i` to the bitset `bits`.
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Whether node `i` is in the bitset `bits`.
fn has_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Simulates Glossy floods over one owned compiled world and an
/// interference environment using the optimized kernel — the crate's only
/// flood driver.
///
/// Construction takes a [`CompiledTopology`] (or a [`Topology`] to
/// compile, `O(n²)` once per trial), compiles the interference mask for
/// its positions and allocates the reusable [`FloodWorkspace`]; every
/// subsequent flood is allocation-free apart from its returned outcome,
/// which is why the methods take `&mut self`. The world's node set is fixed
/// for the simulator's lifetime: world events patch links, and membership
/// goes through [`set_alive`](Self::set_alive).
///
/// Single floods run through [`flood`](Self::flood); batches of
/// [`FloodJob`]s run through [`run`](Self::run) and
/// [`run_parallel`](Self::run_parallel).
///
/// [`Topology`]: dimmer_sim::Topology
///
/// # Examples
///
/// ```
/// use dimmer_glossy::{FloodSimulator, GlossyConfig};
/// use dimmer_sim::{Topology, NoInterference, SimRng, SimTime, NodeId};
/// let topo = Topology::line(5, 6.0, 3);
/// let mut sim = FloodSimulator::new(&topo, &NoInterference);
/// let out = sim.flood(&GlossyConfig::default(), NodeId(2), SimTime::ZERO, &mut SimRng::seed_from(0));
/// assert_eq!(out.reach_count(), 5);
/// ```
#[derive(Debug)]
pub struct FloodSimulator<'a> {
    compiled: CompiledTopology,
    interference: &'a dyn InterferenceModel,
    /// Precompiled per-node interference mask, when the model supports one.
    slot_interference: Option<Box<dyn SlotInterference>>,
    workspace: FloodWorkspace,
    /// Dynamic-world membership: `None` in a static world (every node may
    /// participate), `Some(mask)` once the world reported churn. Dead nodes
    /// are excluded from every flood exactly like schedule-missing nodes.
    alive: Option<Vec<bool>>,
}

impl<'a> FloodSimulator<'a> {
    /// Creates a flood simulator over `world` — a [`CompiledTopology`]
    /// (dense, or a sparse CSR-only world from [`dimmer_sim::topogen`]) or
    /// a `&Topology` to compile — compiling the interference mask for its
    /// positions when the model supports one. The simulator owns the
    /// compiled world.
    pub fn new(
        world: impl Into<CompiledTopology>,
        interference: &'a dyn InterferenceModel,
    ) -> Self {
        let compiled = world.into();
        let slot_interference = interference.compile_for(compiled.positions());
        Self::from_parts(compiled, interference, slot_interference)
    }

    /// Creates a flood simulator over an owned compiled world **reusing**
    /// an already-compiled interference bank instead of calling
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
        FloodSimulator {
            compiled,
            interference,
            slot_interference,
            workspace,
            alive: None,
        }
    }

    /// The compiled (structure-of-arrays) view the kernel runs on, kept
    /// current by [`apply_world_event`](Self::apply_world_event).
    pub fn compiled(&self) -> &CompiledTopology {
        &self.compiled
    }

    /// Applies one dynamic-world event to the compiled topology (see
    /// [`CompiledTopology::apply_event`]), returning whether the topology
    /// changed. Membership events are ignored here — drive those through
    /// [`set_alive`](Self::set_alive).
    pub fn apply_world_event(&mut self, event: &WorldEvent) -> bool {
        self.compiled.apply_event(event)
    }

    /// Installs the dynamic-world alive mask: nodes marked `false` keep
    /// their radio off in every subsequent flood (no receptions, no
    /// relays, no energy), exactly like nodes excluded by a participation
    /// mask.
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

    /// Removes the alive mask (back to the static world: everyone may
    /// participate).
    pub fn clear_alive(&mut self) {
        self.alive = None;
    }

    /// The installed alive mask, if any.
    pub fn alive(&self) -> Option<&[bool]> {
        self.alive.as_deref()
    }

    /// Runs one flood in which every (alive) node participates.
    ///
    /// # Panics
    ///
    /// Panics if the initiator is out of range or currently dead (see
    /// [`set_alive`](Self::set_alive)).
    pub fn flood(
        &mut self,
        cfg: &GlossyConfig,
        initiator: NodeId,
        start: SimTime,
        rng: &mut SimRng,
    ) -> FloodOutcome {
        self.check_initiator(initiator);
        self.flood_impl(cfg, initiator, start, rng, None)
    }

    /// Runs one flood with an explicit participation mask (nodes that missed
    /// the LWB schedule keep their radio off and are excluded).
    ///
    /// # Panics
    ///
    /// Panics if `participants` does not cover every node, if the initiator
    /// is out of range, or if the initiator is marked as not participating.
    pub fn flood_with_participants(
        &mut self,
        cfg: &GlossyConfig,
        initiator: NodeId,
        start: SimTime,
        rng: &mut SimRng,
        participants: &[bool],
    ) -> FloodOutcome {
        assert_eq!(
            participants.len(),
            self.compiled.num_nodes(),
            "participation mask must cover every node"
        );
        self.check_initiator(initiator);
        assert!(
            participants[initiator.index()],
            "the initiator must participate in its own flood"
        );
        self.flood_impl(cfg, initiator, start, rng, Some(participants))
    }

    /// Asserts that `initiator` is a node of the world and currently alive.
    fn check_initiator(&self, initiator: NodeId) {
        assert!(
            initiator.index() < self.compiled.num_nodes(),
            "initiator out of range"
        );
        assert!(
            self.alive.as_ref().is_none_or(|a| a[initiator.index()]),
            "the initiator must be alive"
        );
    }

    /// Runs one job: a [`flood`](Self::flood) from `job.initiator` at
    /// `job.start`, drawing from a fresh [`SimRng`] seeded with `job.seed`.
    ///
    /// # Panics
    ///
    /// Panics if the job's initiator is out of range or dead.
    pub fn run_one(&mut self, cfg: &GlossyConfig, job: &FloodJob) -> FloodOutcome {
        self.flood(
            cfg,
            job.initiator,
            job.start,
            &mut SimRng::seed_from(job.seed),
        )
    }

    /// Runs every job in order through the shared world, reusing the one
    /// workspace — allocation-free per flood apart from the outcomes.
    ///
    /// # Panics
    ///
    /// Panics if any job's initiator is out of range or dead.
    ///
    /// # Examples
    ///
    /// ```
    /// use dimmer_glossy::{FloodJob, FloodSimulator, GlossyConfig};
    /// use dimmer_sim::{topogen, NoInterference, NodeId, SimTime};
    ///
    /// let world = topogen::sparse_grid(8, 8, 8.0, 1);
    /// let mut sim = FloodSimulator::new(world, &NoInterference);
    /// let jobs: Vec<FloodJob> = (0..4)
    ///     .map(|k| FloodJob {
    ///         initiator: NodeId(k * 9),
    ///         start: SimTime::from_millis(k as u64 * 50),
    ///         seed: 100 + k as u64,
    ///     })
    ///     .collect();
    /// let outcomes = sim.run(&GlossyConfig::default(), &jobs);
    /// assert_eq!(outcomes.len(), 4);
    /// ```
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
    /// * the compiled world and alive mask are read-only during the
    ///   batch and shared by `&`;
    /// * each worker owns a **private** [`FloodWorkspace`] and a
    ///   [`SlotInterference::box_clone`] of the pristine bank, so no flood
    ///   observes another flood's scratch mutations (the bank contract —
    ///   `busy_for_slot` is a pure function of the slot arguments — makes a
    ///   clone indistinguishable from the serial path's reused evaluator);
    /// * every job seeds its own [`SimRng`] stream from `job.seed`, and the
    ///   workspace's one worker pool ([`dimmer_sim::workqueue`]) returns the
    ///   [`FloodOutcome`]s in job order, so neither the OS schedule nor the
    ///   worker count can leak into the results.
    ///
    /// `threads <= 1` (or a single job) falls back to the serial
    /// [`run`](Self::run), reusing the simulator's own workspace.
    ///
    /// # Panics
    ///
    /// Panics if any job's initiator is out of range or dead. Unlike the
    /// serial path the whole job list is validated **before** any flood
    /// runs, so a bad job never wastes a partial parallel sweep.
    ///
    /// [`SlotInterference::box_clone`]: dimmer_sim::SlotInterference::box_clone
    pub fn run_parallel(
        &mut self,
        cfg: &GlossyConfig,
        jobs: &[FloodJob],
        threads: usize,
    ) -> Vec<FloodOutcome> {
        if threads <= 1 || jobs.len() <= 1 {
            return self.run(cfg, jobs);
        }
        for job in jobs {
            self.check_initiator(job.initiator);
        }
        let compiled = &self.compiled;
        let n = compiled.num_nodes();
        let interference = self.interference;
        let alive = self.alive.as_deref();
        let bank = self.slot_interference.as_ref();
        run_indexed_jobs(
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

    /// The kernel entry. `participants: None` means everyone participates.
    fn flood_impl(
        &mut self,
        cfg: &GlossyConfig,
        initiator: NodeId,
        start: SimTime,
        rng: &mut SimRng,
        participants: Option<&[bool]>,
    ) -> FloodOutcome {
        run_flood(
            &self.compiled,
            self.interference,
            &mut self.slot_interference,
            self.alive.as_deref(),
            &mut self.workspace,
            cfg,
            initiator,
            start,
            rng,
            participants,
        )
    }
}

/// The flood kernel — one flood over a compiled world, borrowed scratch.
/// [`FloodSimulator`]'s serial paths pass their own workspace and bank;
/// [`FloodSimulator::run_parallel`] passes each worker's private ones, so
/// the bit-exactness argument in the module docs covers every path.
///
/// `participants: None` means everyone participates.
#[allow(clippy::too_many_arguments)]
fn run_flood(
    compiled: &CompiledTopology,
    interference: &dyn InterferenceModel,
    slot_interference: &mut Option<Box<dyn SlotInterference>>,
    alive: Option<&[bool]>,
    ws: &mut FloodWorkspace,
    cfg: &GlossyConfig,
    initiator: NodeId,
    start: SimTime,
    rng: &mut SimRng,
    participants: Option<&[bool]>,
) -> FloodOutcome {
    let n = compiled.num_nodes();
    let slot_dur = cfg.relay_slot_duration();
    let airtime = cfg.packet_airtime();
    let airtime_us = airtime.as_micros();
    let max_slots = cfg.max_relay_slots().max(1);
    let idle = interference.is_always_idle();
    // Hoisted: dense worlds gather rows, sparse worlds scatter out-links.
    let miss_rows = compiled.miss_rows();
    ws.reset(n);
    let words = n.div_ceil(64);

    let mut listeners = 0usize;
    for i in 0..n {
        let part = alive.is_none_or(|a| a[i]) && participants.is_none_or(|p| p[i]);
        ws.participating[i] = part;
        if part && i != initiator.index() {
            set_bit(&mut ws.listen, i);
            listeners += 1;
        }
    }

    // The initiator owns the packet from the start and always transmits
    // at least once, even under N_TX = 0.
    {
        let i = initiator.index();
        ws.has_packet[i] = true;
        ws.first_rx_slot[i] = 0;
        ws.tx_remaining[i] = cfg.ntx.for_node(initiator).max(1);
        set_bit(&mut ws.ring[0], i);
    }
    // How many transmissions each ring set holds.
    let mut pending = [1usize, 0, 0];

    // lint: hot-begin
    let mut last_active_slot = 0usize;
    for slot in 0..max_slots {
        let (now, next, after) = (slot % 3, (slot + 1) % 3, (slot + 2) % 3);
        // Every node with its radio on is a listener or due to transmit in
        // this slot or the next.
        if listeners == 0 && pending[now] == 0 && pending[next] == 0 {
            break;
        }
        last_active_slot = slot;
        let slot_u32 = slot as u32;
        let slot_start = start + slot_dur * slot as u64;

        // Who transmits in this slot? Ascending bit order is ascending id
        // order, matching the reference scan; taking the words clears the
        // set for slot `s + 3`.
        ws.transmitters.clear();
        if pending[now] > 0 {
            for w in 0..words {
                let mut word = std::mem::take(&mut ws.ring[now][w]);
                while word != 0 {
                    ws.transmitters
                        .push((w * 64 + word.trailing_zeros() as usize) as u16);
                    word &= word - 1;
                }
            }
            pending[now] = 0;
        }

        if ws.transmitters.is_empty() {
            continue;
        }
        // Receptions: every participating node that does not yet have the
        // packet and is not transmitting listens in this slot.
        let t_count = ws.transmitters.len();
        let concurrency_factor = if t_count > 1 {
            (1.0 - cfg.concurrency_penalty * (t_count as f64 - 1.0)).max(0.5)
        } else {
            1.0
        };
        // The compiled interference mask is evaluated once per slot,
        // outside the receiver loop; only models without a compiled
        // mask fall back to per-receiver virtual calls.
        let masked = if idle {
            false
        } else if let Some(mask) = slot_interference.as_mut() {
            mask.busy_for_slot(slot_start, airtime_us, cfg.channel, &mut ws.busy);
            true
        } else {
            false
        };

        if listeners > 0 {
            // Sparse worlds scatter: each transmitter, ascending, folds
            // its factor into every listening out-neighbour's
            // accumulator, so each product multiplies the same factors in
            // the same order as the dense row below.
            if miss_rows.is_none() {
                for &t in &ws.transmitters {
                    let (dests, prrs) = compiled.neighbor_slices(t as usize);
                    for (&r, &prr) in dests.iter().zip(prrs) {
                        let ru = r as usize;
                        if has_bit(&ws.listen, ru) {
                            ws.miss[ru] *= 1.0 - prr;
                            set_bit(&mut ws.touched, ru);
                        }
                    }
                }
            }

            // Draw pass, ascending by id: over every listener in a dense
            // world, over the touched listeners in a sparse one (an
            // untouched accumulator is exactly 1.0, which the pass would
            // skip anyway).
            for w in 0..words {
                let mut word = match miss_rows {
                    Some(_) => ws.listen[w],
                    None => std::mem::take(&mut ws.touched[w]),
                };
                while word != 0 {
                    let ru = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    // Dense worlds multiply the listener's factor row
                    // over the ascending transmitter list (immaterial
                    // links contribute exactly 1.0); sparse worlds take
                    // the scattered product and reset the accumulator for
                    // the next slot.
                    let miss_all = match miss_rows {
                        Some(rows) => {
                            let row = &rows[ru * n..(ru + 1) * n];
                            let mut miss = 1.0;
                            for &t in &ws.transmitters {
                                miss *= row[t as usize];
                            }
                            miss
                        }
                        None => std::mem::replace(&mut ws.miss[ru], 1.0),
                    };
                    if miss_all == 1.0 {
                        // No transmitter can reach this receiver: the
                        // reference computes p = 0.0 here and
                        // `SimRng::chance(0.0)` consumes no state, so
                        // skipping both calls is bit-identical.
                        continue;
                    }
                    let busy = if idle {
                        0.0
                    } else if masked {
                        ws.busy[ru]
                    } else {
                        interference.busy_fraction(
                            slot_start,
                            airtime_us,
                            cfg.channel,
                            compiled.positions()[ru],
                        )
                    };
                    let p = (1.0 - miss_all) * concurrency_factor * (1.0 - busy);
                    if rng.chance(p) {
                        let ntx = cfg.ntx.for_node(NodeId(ru as u16));
                        ws.has_packet[ru] = true;
                        ws.first_rx_slot[ru] = slot.min(u8::MAX as usize) as u8;
                        ws.tx_remaining[ru] = ntx;
                        ws.listen[w] &= !(1 << (ru % 64));
                        listeners -= 1;
                        if ntx > 0 {
                            set_bit(&mut ws.ring[next], ru);
                            pending[next] += 1;
                        } else {
                            // Passive receiver: radio off right after
                            // this slot.
                            ws.off_after_slot[ru] = slot_u32;
                        }
                    }
                }
            }
        }

        // Advance the transmitters' schedules.
        for &t in &ws.transmitters {
            let tu = t as usize;
            ws.relays[tu] += 1;
            ws.tx_remaining[tu] -= 1;
            if ws.tx_remaining[tu] > 0 {
                set_bit(&mut ws.ring[after], tu);
                pending[after] += 1;
            } else {
                ws.off_after_slot[tu] = slot_u32;
            }
        }
    }
    // lint: hot-end

    // Assemble per-node outcomes and radio accounting.
    let per_node: Vec<NodeFloodOutcome> = (0..n)
        .map(|i| {
            if !ws.participating[i] {
                return NodeFloodOutcome::not_participating();
            }
            let mut radio = RadioAccounting::new();
            let on_time = match ws.off_after_slot[i] {
                NONE_U32 => cfg.max_slot_duration,
                k => (slot_dur * (k as u64 + 1)).min(cfg.max_slot_duration),
            };
            let tx_time = (airtime * ws.relays[i] as u64).min(on_time);
            radio.record(RadioState::Tx, tx_time);
            radio.record(RadioState::Rx, on_time.saturating_sub(tx_time));
            NodeFloodOutcome {
                received: ws.has_packet[i],
                first_rx_slot: ws.has_packet[i].then_some(ws.first_rx_slot[i]),
                relays: ws.relays[i],
                radio,
                participated: true,
            }
        })
        .collect();

    let duration = (slot_dur * (last_active_slot as u64 + 1)).min(cfg.max_slot_duration);
    FloodOutcome::new(initiator, per_node, duration)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NtxAssignment;
    use crate::reference::ReferenceFloodSimulator;
    use dimmer_sim::{NoInterference, PeriodicJammer, Position, SimDuration, Topology};
    use proptest::prelude::*;

    fn calm_flood(topo: &Topology, cfg: &GlossyConfig, seed: u64) -> FloodOutcome {
        let mut sim = FloodSimulator::new(topo, &NoInterference);
        sim.flood(
            cfg,
            topo.coordinator(),
            SimTime::ZERO,
            &mut SimRng::seed_from(seed),
        )
    }

    #[test]
    fn calm_line_reaches_everyone() {
        let topo = Topology::line(5, 6.0, 1);
        let out = calm_flood(&topo, &GlossyConfig::default(), 1);
        assert_eq!(out.reach_count(), 5);
        assert!(out.reliability() > 0.999);
    }

    #[test]
    fn calm_testbed_18_has_paper_level_reliability() {
        let topo = Topology::kiel_testbed_18(2);
        let mut received = 0usize;
        let mut total = 0usize;
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        let cfg = GlossyConfig::default();
        let mut rng = SimRng::seed_from(99);
        for _ in 0..50 {
            let out = sim.flood(&cfg, topo.coordinator(), SimTime::ZERO, &mut rng);
            received += out.reach_count();
            total += topo.num_nodes();
        }
        let reliability = received as f64 / total as f64;
        assert!(
            reliability > 0.99,
            "calm Glossy should be >99% reliable, got {reliability}"
        );
    }

    #[test]
    fn first_rx_slot_grows_with_hop_distance() {
        let topo = Topology::line(4, 8.0, 3);
        let out = calm_flood(&topo, &GlossyConfig::default(), 5);
        let s1 = out.node(NodeId(1)).first_rx_slot.unwrap();
        let s3 = out.node(NodeId(3)).first_rx_slot.unwrap();
        assert!(s3 > s1, "farther nodes receive later ({s1} vs {s3})");
    }

    #[test]
    fn relays_never_exceed_ntx() {
        let topo = Topology::kiel_testbed_18(3);
        for ntx in 0..=8u8 {
            let cfg = GlossyConfig::with_uniform_ntx(ntx);
            let out = calm_flood(&topo, &cfg, ntx as u64);
            for (i, o) in out.per_node().iter().enumerate() {
                let bound = if NodeId(i as u16) == out.initiator() {
                    ntx.max(1)
                } else {
                    ntx
                };
                assert!(
                    o.relays <= bound,
                    "node {i} relayed {} times with N_TX={ntx}",
                    o.relays
                );
            }
        }
    }

    #[test]
    fn passive_receivers_spend_less_energy_and_never_relay() {
        let topo = Topology::kiel_testbed_18(4);
        let n = topo.num_nodes();
        // Node 9 passive, everyone else at 3.
        let mut per_node = vec![3u8; n];
        per_node[9] = 0;
        let cfg_passive = GlossyConfig::default().with_ntx(NtxAssignment::PerNode(per_node));
        let cfg_active = GlossyConfig::default();
        let mut on_passive = 0u64;
        let mut on_active = 0u64;
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        let mut rng = SimRng::seed_from(11);
        for _ in 0..30 {
            let p = sim.flood(&cfg_passive, topo.coordinator(), SimTime::ZERO, &mut rng);
            let a = sim.flood(&cfg_active, topo.coordinator(), SimTime::ZERO, &mut rng);
            assert_eq!(p.node(NodeId(9)).relays, 0);
            on_passive += p.node(NodeId(9)).radio.on_time().as_micros();
            on_active += a.node(NodeId(9)).radio.on_time().as_micros();
        }
        assert!(
            on_passive < on_active,
            "passive receiver should save energy ({on_passive} vs {on_active})"
        );
    }

    #[test]
    fn higher_ntx_costs_more_radio_time_when_calm() {
        let topo = Topology::kiel_testbed_18(5);
        let low = calm_flood(&topo, &GlossyConfig::with_uniform_ntx(1), 7).mean_radio_on();
        let high = calm_flood(&topo, &GlossyConfig::with_uniform_ntx(8), 7).mean_radio_on();
        assert!(
            high > low,
            "N_TX=8 ({high}) should cost more than N_TX=1 ({low})"
        );
    }

    #[test]
    fn higher_ntx_improves_reliability_under_interference() {
        let topo = Topology::kiel_testbed_18(6);
        let comp = dimmer_sim::kiel_jamming(0.30);
        let mut sim = FloodSimulator::new(&topo, &comp);
        let mut rel = [0.0f64; 2];
        for (idx, ntx) in [1u8, 8u8].into_iter().enumerate() {
            let cfg = GlossyConfig::with_uniform_ntx(ntx);
            let mut rng = SimRng::seed_from(123);
            let mut acc = 0.0;
            let runs = 80;
            for r in 0..runs {
                // Advance the start time so floods sample different burst phases.
                let start = SimTime::from_millis(r * 37);
                acc += sim
                    .flood(&cfg, topo.coordinator(), start, &mut rng)
                    .reliability();
            }
            rel[idx] = acc / runs as f64;
        }
        assert!(
            rel[1] > rel[0] + 0.03,
            "N_TX=8 ({}) should clearly beat N_TX=1 ({}) under 30% jamming",
            rel[1],
            rel[0]
        );
    }

    #[test]
    fn blanket_jamming_kills_the_flood() {
        let topo = Topology::kiel_testbed_18(7);
        let jam =
            PeriodicJammer::with_duty_cycle(Position::new(11.0, 11.0), 1.0).with_jam_radius(100.0);
        let mut sim = FloodSimulator::new(&topo, &jam);
        let out = sim.flood(
            &GlossyConfig::default(),
            topo.coordinator(),
            SimTime::ZERO,
            &mut SimRng::seed_from(3),
        );
        assert_eq!(
            out.reach_count(),
            1,
            "only the initiator should hold the packet"
        );
        // Every non-initiator keeps listening for the full 20 ms budget.
        for (i, o) in out.per_node().iter().enumerate() {
            if NodeId(i as u16) != out.initiator() {
                assert_eq!(o.radio.on_time(), GlossyConfig::default().max_slot_duration);
            }
        }
    }

    #[test]
    fn non_participants_stay_silent_and_cold() {
        let topo = Topology::line(4, 6.0, 8);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        let participants = vec![true, true, false, true];
        let out = sim.flood_with_participants(
            &GlossyConfig::default(),
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(2),
            &participants,
        );
        let skipped = out.node(NodeId(2));
        assert!(!skipped.participated);
        assert!(!skipped.received);
        assert_eq!(skipped.radio.on_time(), SimDuration::ZERO);
    }

    #[test]
    fn same_seed_gives_identical_outcomes() {
        let topo = Topology::kiel_testbed_18(10);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        let cfg = GlossyConfig::default();
        let a = sim.flood(&cfg, NodeId(4), SimTime::ZERO, &mut SimRng::seed_from(77));
        let b = sim.flood(&cfg, NodeId(4), SimTime::ZERO, &mut SimRng::seed_from(77));
        assert_eq!(a, b);
    }

    #[test]
    fn standalone_workspace_sizes_to_the_requested_node_count() {
        let ws = FloodWorkspace::for_nodes(24);
        assert_eq!(ws.capacity(), 24);
        assert_eq!(FloodWorkspace::default().capacity(), 0);
    }

    #[test]
    fn simulator_exposes_its_compiled_topology() {
        let topo = Topology::kiel_testbed_18(1);
        let sim = FloodSimulator::new(&topo, &NoInterference);
        assert_eq!(sim.compiled().num_nodes(), topo.num_nodes());
        assert_eq!(sim.compiled().coordinator(), topo.coordinator());
        assert_eq!(
            sim.compiled().prr(NodeId(0), NodeId(1)),
            topo.link(NodeId(0), NodeId(1)).prr()
        );
    }

    #[test]
    fn workspace_is_reused_across_floods_of_different_masks() {
        let topo = Topology::kiel_testbed_18(1);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        let cfg = GlossyConfig::default();
        let mut rng = SimRng::seed_from(5);
        let full = sim.flood(&cfg, NodeId(0), SimTime::ZERO, &mut rng);
        let mut mask = vec![true; topo.num_nodes()];
        mask[7] = false;
        mask[12] = false;
        let partial = sim.flood_with_participants(&cfg, NodeId(0), SimTime::ZERO, &mut rng, &mask);
        assert!(full.per_node().iter().all(|o| o.participated));
        assert!(!partial.node(NodeId(7)).participated);
        assert!(!partial.node(NodeId(12)).participated);
        // A later full flood is unaffected by the earlier mask.
        let full2 = sim.flood(&cfg, NodeId(0), SimTime::ZERO, &mut rng);
        assert!(full2.per_node().iter().all(|o| o.participated));
    }

    #[test]
    fn matches_reference_on_a_quick_spot_check() {
        let topo = Topology::kiel_testbed_18(3);
        let jam = PeriodicJammer::with_duty_cycle(Position::new(10.0, 10.0), 0.3);
        let mut fast = FloodSimulator::new(&topo, &jam);
        let slow = ReferenceFloodSimulator::new(&topo, &jam);
        let cfg = GlossyConfig::default();
        for seed in 0..20u64 {
            let a = fast.flood(&cfg, NodeId(0), SimTime::ZERO, &mut SimRng::seed_from(seed));
            let b = slow.flood(&cfg, NodeId(0), SimTime::ZERO, &mut SimRng::seed_from(seed));
            assert_eq!(a, b, "seed {seed} diverged from the reference");
        }
    }

    #[test]
    fn alive_mask_equals_an_identical_participation_mask_bitwise() {
        let topo = Topology::kiel_testbed_18(4);
        let mut masked = FloodSimulator::new(&topo, &NoInterference);
        let mut explicit = FloodSimulator::new(&topo, &NoInterference);
        let cfg = GlossyConfig::default();
        let mut mask = vec![true; topo.num_nodes()];
        mask[3] = false;
        mask[11] = false;
        mask[17] = false;
        masked.set_alive(&mask);
        for seed in 0..10u64 {
            let a = masked.flood(&cfg, NodeId(0), SimTime::ZERO, &mut SimRng::seed_from(seed));
            let b = explicit.flood_with_participants(
                &cfg,
                NodeId(0),
                SimTime::ZERO,
                &mut SimRng::seed_from(seed),
                &mask,
            );
            assert_eq!(
                a, b,
                "seed {seed}: alive mask must equal participation mask"
            );
        }
        // Dead nodes stay cold, and intersect with an explicit mask.
        let mut also = vec![true; topo.num_nodes()];
        also[5] = false;
        let out = masked.flood_with_participants(
            &cfg,
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(1),
            &also,
        );
        for dead in [3usize, 5, 11, 17] {
            assert!(!out.per_node()[dead].participated);
            assert_eq!(out.per_node()[dead].radio.on_time(), SimDuration::ZERO);
        }
        // Clearing the mask restores full participation.
        masked.clear_alive();
        let full = masked.flood(&cfg, NodeId(0), SimTime::ZERO, &mut SimRng::seed_from(2));
        assert!(full.per_node().iter().all(|o| o.participated));
    }

    #[test]
    fn world_events_patch_the_compiled_view() {
        let topo = Topology::line(3, 6.0, 1);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        let changed = sim.apply_world_event(&dimmer_sim::WorldEvent::LinkDrift {
            a: NodeId(0),
            b: NodeId(1),
            prr: 0.0,
        });
        assert!(changed);
        assert_eq!(sim.compiled().prr(NodeId(0), NodeId(1)), 0.0);
        // Membership events do not touch the topology.
        assert!(!sim.apply_world_event(&dimmer_sim::WorldEvent::NodeFail(NodeId(1))));
    }

    #[test]
    fn severed_links_change_flood_outcomes() {
        // Cutting both links of the middle line node isolates the far end.
        let topo = Topology::line(3, 6.0, 2);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        for (a, b) in [(0u16, 1u16), (1, 2), (0, 2)] {
            sim.apply_world_event(&dimmer_sim::WorldEvent::LinkDrift {
                a: NodeId(a),
                b: NodeId(b),
                prr: 0.0,
            });
        }
        let out = sim.flood(
            &GlossyConfig::default(),
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(3),
        );
        assert_eq!(out.reach_count(), 1, "all links are down");
    }

    #[test]
    #[should_panic(expected = "initiator must be alive")]
    fn dead_initiator_is_rejected() {
        let topo = Topology::line(3, 6.0, 1);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        sim.set_alive(&[true, false, true]);
        sim.flood(
            &GlossyConfig::default(),
            NodeId(1),
            SimTime::ZERO,
            &mut SimRng::seed_from(1),
        );
    }

    #[test]
    #[should_panic(expected = "initiator out of range")]
    fn out_of_range_initiator_is_rejected() {
        let topo = Topology::line(3, 6.0, 1);
        FloodSimulator::new(&topo, &NoInterference).flood(
            &GlossyConfig::default(),
            NodeId(3),
            SimTime::ZERO,
            &mut SimRng::seed_from(1),
        );
    }

    #[test]
    #[should_panic(expected = "initiator must participate")]
    fn initiator_must_participate() {
        let topo = Topology::line(3, 6.0, 1);
        let mut sim = FloodSimulator::new(&topo, &NoInterference);
        sim.flood_with_participants(
            &GlossyConfig::default(),
            NodeId(0),
            SimTime::ZERO,
            &mut SimRng::seed_from(1),
            &[false, true, true],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_flood_invariants(seed in 0u64..500, ntx in 0u8..=8, initiator in 0u16..18) {
            let topo = Topology::kiel_testbed_18(11);
            let mut sim = FloodSimulator::new(&topo, &NoInterference);
            let cfg = GlossyConfig::with_uniform_ntx(ntx);
            let out = sim.flood(&cfg, NodeId(initiator), SimTime::ZERO, &mut SimRng::seed_from(seed));
            prop_assert!((0.0..=1.0).contains(&out.reliability()));
            prop_assert!(out.duration() <= cfg.max_slot_duration);
            for (i, o) in out.per_node().iter().enumerate() {
                prop_assert!(o.radio.on_time() <= cfg.max_slot_duration);
                let bound = if i as u16 == initiator { ntx.max(1) } else { ntx };
                prop_assert!(o.relays <= bound);
                if o.received {
                    prop_assert!(o.first_rx_slot.is_some());
                }
            }
        }

        #[test]
        fn prop_radio_on_time_at_most_budget_under_jamming(seed in 0u64..200, duty_pct in 1u32..=60) {
            let topo = Topology::kiel_testbed_18(12);
            let jam = PeriodicJammer::with_duty_cycle(Position::new(10.0, 10.0), duty_pct as f64 / 100.0);
            let mut sim = FloodSimulator::new(&topo, &jam);
            let cfg = GlossyConfig::with_uniform_ntx(8);
            let out = sim.flood(&cfg, topo.coordinator(), SimTime::ZERO, &mut SimRng::seed_from(seed));
            for o in out.per_node() {
                prop_assert!(o.radio.on_time() <= cfg.max_slot_duration);
            }
        }
    }
}
