//! Execution of one LWB round: a control slot followed by data slots, each
//! realized as a Glossy flood.
//!
//! Missed-schedule semantics follow the paper (§IV-E "Centralized
//! adaptivity"): a node that does not receive the control flood cannot
//! participate in the round's data slots — it neither relays nor counts its
//! receptions, and it burns a full slot of listen time per data slot while it
//! waits to resynchronize (this is what makes the plain-LWB baseline's energy
//! *grow* under interference in Fig. 7b).

use crate::config::LwbConfig;
use crate::schedule::Schedule;
use dimmer_glossy::{FloodOutcome, FloodSimulator, GlossyConfig, NodeFloodOutcome};
use dimmer_sim::{
    Channel, InterferenceModel, NodeId, RadioAccounting, RadioState, SimDuration, SimRng, SimTime,
    Topology, WorldEvent,
};

/// The outcome of one data slot.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotOutcome {
    /// The source that owned the slot.
    pub source: NodeId,
    /// The channel the slot was executed on.
    pub channel: Channel,
    /// The Glossy flood outcome of the slot.
    pub flood: FloodOutcome,
}

/// Everything that happened during one LWB round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    control: FloodOutcome,
    synced: Vec<bool>,
    /// Dynamic-world membership during the round (all `true` in a static
    /// world). Dead nodes are excluded from reliability, loss and radio
    /// accounting: a crashed node is not a destination and spends nothing.
    alive: Vec<bool>,
    data: Vec<SlotOutcome>,
    slot_duration: SimDuration,
}

impl RoundOutcome {
    /// Which nodes received the schedule and therefore participated in the
    /// data slots.
    pub fn synced(&self) -> &[bool] {
        &self.synced
    }

    /// Which nodes were alive during the round (all `true` in a static
    /// world).
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Number of alive nodes during the round.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// The executed data slots, in schedule order.
    pub fn data_slots(&self) -> &[SlotOutcome] {
        &self.data
    }

    /// Number of nodes in the network.
    pub fn num_nodes(&self) -> usize {
        self.synced.len()
    }

    /// Whether `destination` received the packet sourced in `slot`.
    pub fn delivered(&self, slot: usize, destination: NodeId) -> bool {
        let s = &self.data[slot];
        destination == s.source || s.flood.received(destination)
    }

    /// The round's reliability and losses over its (data slot, destination)
    /// pairs: the fraction of pairs delivered (1.0 without pairs) and the
    /// number missed.
    ///
    /// With a `sink` (collection traffic) every slot has the sink as its one
    /// destination. Without one (broadcast) the destinations of a slot are
    /// all *alive* nodes except its source.
    pub fn reliability_and_losses(&self, sink: Option<NodeId>) -> (f64, usize) {
        let mut pairs = 0usize;
        let mut delivered = 0usize;
        for (slot, s) in self.data.iter().enumerate() {
            let destinations = (0..self.num_nodes())
                .map(|i| NodeId(i as u16))
                .filter(|&n| match sink {
                    Some(sink) => n == sink,
                    None => n != s.source && self.alive[n.index()],
                });
            for node in destinations {
                pairs += 1;
                delivered += usize::from(self.delivered(slot, node));
            }
        }
        let reliability = if pairs == 0 {
            1.0
        } else {
            delivered as f64 / pairs as f64
        };
        (reliability, pairs - delivered)
    }

    /// The fraction of data slots sourced by *other* nodes that `node`
    /// received (its local packet-reception rate for this round). Returns
    /// 1.0 if there were no such slots.
    pub fn node_reception_ratio(&self, node: NodeId) -> f64 {
        let mut relevant = 0usize;
        let mut got = 0usize;
        for s in self.data.iter().filter(|s| s.source != node) {
            relevant += 1;
            got += usize::from(s.flood.received(node));
        }
        if relevant == 0 {
            return 1.0;
        }
        got as f64 / relevant as f64
    }

    /// The radio-on time of `node`, averaged over the round's data slots
    /// (the paper's radio-on-time metric). Unsynchronized nodes are charged
    /// a full listen slot per data slot (they scan to resynchronize); dead
    /// nodes spend nothing.
    pub fn node_radio_on_per_slot(&self, node: NodeId) -> SimDuration {
        if self.data.is_empty() || !self.alive[node.index()] {
            return SimDuration::ZERO;
        }
        let total_us: u64 = self
            .data
            .iter()
            .map(|s| {
                if self.synced[node.index()] {
                    s.flood.node(node).radio.on_time().as_micros()
                } else {
                    self.slot_duration.as_micros()
                }
            })
            .sum();
        SimDuration::from_micros(total_us / self.data.len() as u64)
    }

    /// The per-slot radio-on time averaged over every *alive* node in the
    /// network.
    pub fn mean_radio_on_per_slot(&self) -> SimDuration {
        let alive = self.alive_count();
        if alive == 0 {
            return SimDuration::ZERO;
        }
        let total: u64 = (0..self.num_nodes())
            .map(|i| self.node_radio_on_per_slot(NodeId(i as u16)).as_micros())
            .sum();
        SimDuration::from_micros(total / alive as u64)
    }

    /// The total radio accounting of `node` over the whole round (control +
    /// data slots), used for the Fig. 7 energy comparison. Dead nodes have
    /// their radio off for the whole round.
    pub fn node_round_radio(&self, node: NodeId) -> RadioAccounting {
        if !self.alive[node.index()] {
            return RadioAccounting::new();
        }
        let mut acc = self.control.node(node).radio.clone();
        for s in &self.data {
            if self.synced[node.index()] {
                acc.merge(&s.flood.node(node).radio);
            } else {
                let mut scan = RadioAccounting::new();
                scan.record(RadioState::Rx, self.slot_duration);
                acc.merge(&scan);
            }
        }
        acc
    }
}

/// Executes LWB rounds over a topology and interference environment.
///
/// Construction compiles the topology once (see
/// [`FloodSimulator::new`]) and allocates the reusable flood workspace;
/// every round executed afterwards reuses both, which is why
/// [`run_round`](Self::run_round) takes `&mut self`.
#[derive(Debug)]
pub struct RoundExecutor<'a> {
    flood: FloodSimulator<'a>,
    config: LwbConfig,
}

impl<'a> RoundExecutor<'a> {
    /// Creates a round executor, compiling `topology` for the flood kernel.
    pub fn new(
        topology: &Topology,
        interference: &'a dyn InterferenceModel,
        config: LwbConfig,
    ) -> Self {
        RoundExecutor {
            flood: FloodSimulator::new(topology, interference),
            config,
        }
    }

    /// The compiled world rounds are executed over, kept current by
    /// dynamic-world events.
    pub fn compiled(&self) -> &dimmer_sim::CompiledTopology {
        self.flood.compiled()
    }

    /// The LWB configuration.
    pub fn config(&self) -> &LwbConfig {
        &self.config
    }

    /// Applies one dynamic-world event to the executor's compiled substrate
    /// (see [`FloodSimulator::apply_world_event`]).
    pub fn apply_world_event(&mut self, event: &WorldEvent) -> bool {
        self.flood.apply_world_event(event)
    }

    /// Installs the dynamic-world alive mask: dead nodes are excluded from
    /// the control flood (so they can never sync), from every data slot,
    /// and from the round's reliability/energy accounting.
    pub fn set_alive(&mut self, alive: &[bool]) {
        self.flood.set_alive(alive);
    }

    /// The minimum retransmission count used for control slots (schedules
    /// must stay robust even when the data plane runs a small `N_TX`).
    const CONTROL_MIN_NTX: u8 = 3;

    /// Runs one round according to `schedule`, starting at `start`.
    pub fn run_round(
        &mut self,
        schedule: &Schedule,
        start: SimTime,
        rng: &mut SimRng,
    ) -> RoundOutcome {
        // lint: hot-begin
        let n = self.flood.compiled().num_nodes();
        let coordinator = self.flood.compiled().coordinator();
        let slot_advance = self.config.slot_duration + self.config.slot_gap;

        // Control slot: every node listens for the schedule on channel 26.
        let control_cfg = GlossyConfig {
            ntx: dimmer_glossy::NtxAssignment::Uniform(
                schedule.ntx().max_ntx().max(Self::CONTROL_MIN_NTX),
            ),
            max_slot_duration: self.config.slot_duration,
            payload_bytes: self.config.payload_bytes,
            channel: self.config.hopping.control_channel(),
            ..GlossyConfig::default()
        };
        let control = self.flood.flood(&control_cfg, coordinator, start, rng);
        let alive: Vec<bool> = match self.flood.alive() {
            Some(mask) => mask.to_vec(), // lint: allow(H001) -- once per round, not per slot
            None => vec![true; n],       // lint: allow(H001) -- once per round, not per slot
        };
        // A dead node never hears the schedule: `synced` is automatically
        // false for it (the control flood masked it out), which keeps it
        // silent in every data slot.
        let synced: Vec<bool> = (0..n).map(|i| control.received(NodeId(i as u16))).collect(); // lint: allow(H001) -- once per round, not per slot

        // One data-slot config for the whole round: only the channel varies
        // per slot, so the N_TX assignment (a heap-backed `Vec` in the
        // per-node case) is cloned once per round instead of once per slot.
        let mut data_cfg = GlossyConfig {
            ntx: schedule.ntx().clone(), // lint: allow(H001) -- hoisted: cloned once per round instead of once per slot
            max_slot_duration: self.config.slot_duration,
            payload_bytes: self.config.payload_bytes,
            channel: self.config.hopping.control_channel(),
            ..GlossyConfig::default()
        };

        // Data slots.
        let mut data = Vec::with_capacity(schedule.num_data_slots()); // lint: allow(H001) -- one exact-size reservation per round
        for (slot_idx, &source) in schedule.slots().iter().enumerate() {
            let slot_start = start + slot_advance * (slot_idx as u64 + 1);
            let channel = if self.config.channel_hopping {
                let absolute = schedule
                    .round_index()
                    .wrapping_mul(31)
                    .wrapping_add(slot_idx as u64);
                self.config.hopping.data_channel(absolute)
            } else {
                self.config.hopping.control_channel()
            };

            let flood = if synced[source.index()] {
                data_cfg.channel = channel;
                self.flood
                    .flood_with_participants(&data_cfg, source, slot_start, rng, &synced)
            } else {
                // The source missed the schedule: nobody transmits, synced
                // nodes listen for the full slot in vain.
                let per_node: Vec<NodeFloodOutcome> = (0..n)
                    .map(|i| {
                        if synced[i] {
                            let mut radio = RadioAccounting::new();
                            radio.record(RadioState::Rx, self.config.slot_duration);
                            NodeFloodOutcome {
                                participated: true,
                                radio,
                                ..Default::default()
                            }
                        } else {
                            NodeFloodOutcome::not_participating()
                        }
                    })
                    .collect(); // lint: allow(H001) -- cold path: only taken when the source missed the schedule
                FloodOutcome::new(source, per_node, self.config.slot_duration)
            };
            data.push(SlotOutcome {
                source,
                channel,
                flood,
            });
        }

        RoundOutcome {
            control,
            synced,
            alive,
            data,
            slot_duration: self.config.slot_duration,
        }
        // lint: hot-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_glossy::NtxAssignment;
    use dimmer_sim::{NoInterference, PeriodicJammer, Position};
    use proptest::prelude::*;

    fn run_testbed_round(
        interference: &dyn InterferenceModel,
        ntx: u8,
        seed: u64,
        hopping: bool,
    ) -> RoundOutcome {
        let topo = Topology::kiel_testbed_18(1);
        let cfg = LwbConfig::testbed_default().with_channel_hopping(hopping);
        let sources: Vec<NodeId> = topo.node_ids().collect();
        let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(ntx));
        let mut exec = RoundExecutor::new(&topo, interference, cfg);
        exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(seed))
    }

    #[test]
    fn calm_round_is_nearly_perfect() {
        let round = run_testbed_round(&NoInterference, 3, 3, false);
        assert!(
            round.synced().iter().all(|&s| s),
            "everyone hears the schedule when calm"
        );
        assert!(
            round.reliability_and_losses(None).0 > 0.98,
            "got {}",
            round.reliability_and_losses(None).0
        );
        assert_eq!(round.data_slots().len(), 18);
        // Calm radio-on time is well below the 20 ms slot budget (paper: ~8-11 ms).
        let on = round.mean_radio_on_per_slot().as_millis_f64();
        assert!(
            on > 4.0 && on < 14.0,
            "radio-on {on} ms out of the expected calm range"
        );
    }

    #[test]
    fn losses_and_reliability_are_consistent() {
        let round = run_testbed_round(&NoInterference, 3, 9, false);
        let n = round.num_nodes();
        let total_pairs = round.data_slots().len() * (n - 1);
        let (reliability, losses) = round.reliability_and_losses(None);
        let expected = 1.0 - losses as f64 / total_pairs as f64;
        assert!((reliability - expected).abs() < 1e-9);
    }

    #[test]
    fn heavy_jamming_desyncs_nodes_and_costs_energy() {
        let jammer =
            PeriodicJammer::with_duty_cycle(Position::new(11.0, 11.0), 0.95).with_jam_radius(60.0);
        let jammed = run_testbed_round(&jammer, 3, 5, false);
        let calm = run_testbed_round(&NoInterference, 3, 5, false);
        assert!(jammed.reliability_and_losses(None).0 < calm.reliability_and_losses(None).0);
        assert!(jammed.mean_radio_on_per_slot() > calm.mean_radio_on_per_slot());
        assert!(
            jammed.synced().iter().filter(|&&s| !s).count() > 0,
            "some nodes must miss the schedule"
        );
    }

    #[test]
    fn unsynced_source_slot_delivers_nothing() {
        let topo = Topology::kiel_testbed_18(1);
        let cfg = LwbConfig::testbed_default();
        // Hand-build a round outcome via the executor with a jammer strong
        // enough that at least one source misses the schedule, then check the
        // invariant on its slot.
        let jammer =
            PeriodicJammer::with_duty_cycle(Position::new(11.0, 11.0), 0.97).with_jam_radius(60.0);
        let sources: Vec<NodeId> = topo.node_ids().collect();
        let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(3));
        let mut exec = RoundExecutor::new(&topo, &jammer, cfg);
        let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(17));
        let mut saw_unsynced_source = false;
        for slot in round.data_slots() {
            if !round.synced()[slot.source.index()] {
                saw_unsynced_source = true;
                for node in topo.node_ids() {
                    if node != slot.source {
                        assert!(!slot.flood.received(node));
                    }
                }
            }
        }
        assert!(
            saw_unsynced_source,
            "scenario should produce at least one unsynced source"
        );
    }

    #[test]
    fn channel_hopping_uses_multiple_channels() {
        let round = run_testbed_round(&NoInterference, 3, 4, true);
        let mut channels: Vec<u8> = round
            .data_slots()
            .iter()
            .map(|s| s.channel.index())
            .collect();
        channels.sort_unstable();
        channels.dedup();
        assert!(
            channels.len() >= 4,
            "hopping should spread slots over channels, got {channels:?}"
        );
    }

    #[test]
    fn single_channel_mode_stays_on_26() {
        let round = run_testbed_round(&NoInterference, 3, 4, false);
        assert!(round
            .data_slots()
            .iter()
            .all(|s| s.channel == Channel::CONTROL));
    }

    #[test]
    fn sink_reliability_for_collection_round() {
        let topo = Topology::dcube_48(2);
        let cfg = LwbConfig::dcube_default();
        let sources = vec![NodeId(40), NodeId(45), NodeId(47)];
        let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(3));
        let mut exec = RoundExecutor::new(&topo, &NoInterference, cfg);
        let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(8));
        assert!(round.reliability_and_losses(Some(NodeId(0))).0 > 0.6);
        assert_eq!(round.data_slots().len(), 3);
    }

    #[test]
    fn rounds_are_deterministic_per_seed() {
        let a = run_testbed_round(&NoInterference, 4, 21, true);
        let b = run_testbed_round(&NoInterference, 4, 21, true);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_schedule_has_perfect_reliability_and_no_energy() {
        let topo = Topology::kiel_testbed_18(1);
        let cfg = LwbConfig::testbed_default();
        let schedule = Schedule::new(0, vec![], NtxAssignment::Uniform(3));
        let mut exec = RoundExecutor::new(&topo, &NoInterference, cfg);
        let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(1));
        assert_eq!(round.reliability_and_losses(None), (1.0, 0));
        assert_eq!(round.reliability_and_losses(Some(NodeId(0))), (1.0, 0));
        assert_eq!(round.mean_radio_on_per_slot(), SimDuration::ZERO);
    }

    #[test]
    fn dead_nodes_are_skipped_by_schedule_and_accounting() {
        let topo = Topology::kiel_testbed_18(1);
        let cfg = LwbConfig::testbed_default();
        let mut exec = RoundExecutor::new(&topo, &NoInterference, cfg);
        let mut alive = vec![true; topo.num_nodes()];
        alive[7] = false;
        alive[12] = false;
        exec.set_alive(&alive);
        // The engine filters dead sources out of the schedule; mirror that.
        let sources: Vec<NodeId> = topo.node_ids().filter(|n| alive[n.index()]).collect();
        let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(3));
        let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(5));
        assert_eq!(round.alive_count(), 16);
        assert_eq!(round.data_slots().len(), 16);
        for dead in [NodeId(7), NodeId(12)] {
            assert!(!round.synced()[dead.index()], "dead nodes never sync");
            assert_eq!(round.node_radio_on_per_slot(dead), SimDuration::ZERO);
            assert_eq!(
                round.node_round_radio(dead).on_time(),
                SimDuration::ZERO,
                "dead nodes spend nothing"
            );
        }
        // Dead nodes are not destinations: a calm round stays near-perfect
        // even though two nodes are gone.
        assert!(
            round.reliability_and_losses(None).0 > 0.98,
            "got {}",
            round.reliability_and_losses(None).0
        );
    }

    #[test]
    fn link_drift_reaches_the_executors_world() {
        // Cutting every link of node 17 leaves it alive but unreachable.
        let topo = Topology::kiel_testbed_18(1);
        let cfg = LwbConfig::testbed_default();
        let mut exec = RoundExecutor::new(&topo, &NoInterference, cfg);
        for other in 0..17u16 {
            assert!(exec.apply_world_event(&WorldEvent::LinkDrift {
                a: NodeId(17),
                b: NodeId(other),
                prr: 0.0,
            }));
        }
        // Membership events do not touch the topology.
        assert!(!exec.apply_world_event(&WorldEvent::NodeFail(NodeId(17))));
        assert_eq!(exec.compiled().out_degree(NodeId(17)), 0);
        let sources: Vec<NodeId> = topo.node_ids().collect();
        let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(3));
        let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(5));
        assert!(!round.synced()[17], "an unreachable node never syncs");
        assert_eq!(round.alive_count(), 18, "drift does not change membership");
    }

    #[test]
    fn dead_source_slot_behaves_like_an_unsynced_source() {
        let topo = Topology::kiel_testbed_18(1);
        let cfg = LwbConfig::testbed_default();
        let mut exec = RoundExecutor::new(&topo, &NoInterference, cfg);
        let mut alive = vec![true; topo.num_nodes()];
        alive[3] = false;
        exec.set_alive(&alive);
        // Belt and suspenders: even if a dead node *is* scheduled, its slot
        // delivers nothing (it cannot have synced).
        let schedule = Schedule::new(0, vec![NodeId(3), NodeId(5)], NtxAssignment::Uniform(3));
        let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(2));
        let slot = &round.data_slots()[0];
        assert_eq!(slot.source, NodeId(3));
        for node in topo.node_ids().filter(|&n| n != NodeId(3)) {
            assert!(!slot.flood.received(node));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// `reliability_and_losses` against brute-force pair counting, on
        /// random small worlds with random dead nodes and random sources
        /// (dead ones included), for broadcast and for every possible sink.
        #[test]
        fn prop_reliability_and_losses_count_every_pair(
            n in 2usize..10,
            seed in 0u64..1_000,
            nodes in proptest::collection::vec((0u8..4, 0u8..2), 10),
            ntx in 1u8..=4,
        ) {
            let topo = Topology::random(n, 60.0, 60.0, seed);
            let alive: Vec<bool> = (0..n)
                .map(|i| i == topo.coordinator().index() || nodes[i].0 != 0)
                .collect();
            let sources = topo.node_ids().filter(|s| nodes[s.index()].1 == 1).collect();
            let mut exec = RoundExecutor::new(&topo, &NoInterference, LwbConfig::testbed_default());
            exec.set_alive(&alive);
            let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(ntx));
            let round = exec.run_round(&schedule, SimTime::ZERO, &mut SimRng::seed_from(seed));
            let expected = |got: usize, pairs: usize| {
                let reliability = if pairs == 0 { 1.0 } else { got as f64 / pairs as f64 };
                (reliability, pairs - got)
            };

            let (mut pairs, mut got) = (0, 0);
            for slot in round.data_slots() {
                for node in topo.node_ids() {
                    if node != slot.source && alive[node.index()] {
                        pairs += 1;
                        got += usize::from(slot.flood.received(node));
                    }
                }
            }
            prop_assert_eq!(round.reliability_and_losses(None), expected(got, pairs));

            for sink in topo.node_ids() {
                let got = round
                    .data_slots()
                    .iter()
                    .filter(|s| s.source == sink || s.flood.received(sink))
                    .count();
                let pairs = round.data_slots().len();
                prop_assert_eq!(round.reliability_and_losses(Some(sink)), expected(got, pairs));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_round_metrics_are_well_formed(seed in 0u64..200, ntx in 1u8..=8) {
            let round = run_testbed_round(&NoInterference, ntx, seed, seed % 2 == 0);
            let r = round.reliability_and_losses(None).0;
            prop_assert!((0.0..=1.0).contains(&r));
            for node in 0..round.num_nodes() {
                let node = NodeId(node as u16);
                let on = round.node_radio_on_per_slot(node);
                prop_assert!(on <= SimDuration::from_millis(20));
                let ratio = round.node_reception_ratio(node);
                prop_assert!((0.0..=1.0).contains(&ratio));
            }
        }
    }
}
