//! A simplified model of Crystal (Istomin et al., IPSN 2018), the
//! state-of-the-art dependable ST protocol the paper compares against in
//! §V-E.
//!
//! Crystal targets aperiodic data collection. An epoch starts with a
//! synchronization flood from the sink, followed by a train of
//! transmission–acknowledgement (TA) pairs: sources with pending data flood
//! their packet in the T slot (concurrent senders are resolved by the
//! capture effect), the sink floods an acknowledgement in the A slot. The
//! train continues until the network has been silent for a couple of pairs;
//! noise detection adds extra pairs under interference. Channel hopping is
//! applied per TA pair. The result is near-perfect reliability under harsh
//! interference at a high energy cost — the behaviour reproduced here.
//!
//! The model keeps Crystal's decisive mechanisms (retransmit-until-ACK,
//! per-pair hopping, silence-based termination, capture among concurrent
//! senders) and omits firmware-level details (exact slot lengths, noise
//! floor estimation), which only shift absolute numbers.

use dimmer_core::{ControlDecision, Controller, EpochDriver, EpochOutcome, RoundObservation};
use dimmer_glossy::{FloodSimulator, GlossyConfig, NtxAssignment};
use dimmer_lwb::HoppingSequence;
use dimmer_sim::{
    InterferenceModel, NodeId, RadioAccounting, SimDuration, SimRng, SimTime, Topology, WorldEvent,
};

/// Configuration of the Crystal baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CrystalConfig {
    /// `N_TX` used inside each T/A flood.
    pub flood_ntx: u8,
    /// Maximum number of TA pairs per epoch (bounds the energy spent).
    pub max_ta_pairs: usize,
    /// Number of consecutive silent pairs after which the epoch ends.
    pub quiet_pairs_to_stop: usize,
    /// Extra pairs appended when the epoch saw losses (the noise-detection
    /// heuristic of the EWSN-2019 Crystal configuration).
    pub noise_extra_pairs: usize,
    /// Whether TA pairs hop over the channel sequence.
    pub channel_hopping: bool,
    /// Payload carried in T slots, in bytes.
    pub payload_bytes: usize,
    /// Budget of each individual flood.
    pub slot_duration: SimDuration,
}

impl CrystalConfig {
    /// The configuration used for the EWSN 2019 dependability-competition
    /// scenario (aperiodic collection under WiFi interference).
    pub fn ewsn2019() -> Self {
        CrystalConfig {
            flood_ntx: 3,
            max_ta_pairs: 24,
            quiet_pairs_to_stop: 2,
            noise_extra_pairs: 4,
            channel_hopping: true,
            payload_bytes: 30,
            slot_duration: SimDuration::from_millis(10),
        }
    }
}

impl Default for CrystalConfig {
    fn default() -> Self {
        Self::ewsn2019()
    }
}

/// Outcome of one Crystal epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CrystalEpochReport {
    /// The sources that had data queued at the start of the epoch.
    pub offered: Vec<NodeId>,
    /// The subset of `offered` whose packet reached the sink.
    pub delivered: Vec<NodeId>,
    /// Number of TA pairs executed.
    pub ta_pairs: usize,
    /// Total energy spent by the network during the epoch, in Joules.
    pub energy_joules: f64,
    /// Per-slot radio-on time averaged over nodes and slots.
    pub mean_radio_on: SimDuration,
}

impl CrystalEpochReport {
    /// Delivery ratio of the epoch (1.0 if nothing was offered).
    pub fn reliability(&self) -> f64 {
        if self.offered.is_empty() {
            1.0
        } else {
            self.delivered.len() as f64 / self.offered.len() as f64
        }
    }
}

/// Executes Crystal epochs over the simulated substrate.
///
/// The runner owns one [`FloodSimulator`], so the topology is compiled once
/// at construction and every T/A flood of every epoch reuses the same
/// scratch workspace.
#[derive(Debug)]
pub struct CrystalRunner<'a> {
    topology: &'a Topology,
    flood: FloodSimulator<'a>,
    config: CrystalConfig,
    hopping: HoppingSequence,
    sink: NodeId,
    now: SimTime,
    rng: SimRng,
    epochs: u64,
}

impl<'a> CrystalRunner<'a> {
    /// Creates a Crystal runner collecting data at `sink`.
    pub fn new(
        topology: &'a Topology,
        interference: &'a dyn InterferenceModel,
        config: CrystalConfig,
        sink: NodeId,
        seed: u64,
    ) -> Self {
        CrystalRunner {
            topology,
            flood: FloodSimulator::new(topology, interference),
            config,
            hopping: HoppingSequence::dimmer_default(),
            sink,
            now: SimTime::ZERO,
            rng: SimRng::seed_from(seed),
            epochs: 0,
        }
    }

    /// The Crystal configuration driving the epochs.
    pub fn config(&self) -> &CrystalConfig {
        &self.config
    }

    /// Applies one dynamic-world event to the runner's compiled substrate.
    pub fn apply_world_event(&mut self, event: &WorldEvent) -> bool {
        self.flood.apply_world_event(event)
    }

    /// Installs the dynamic-world alive mask: dead nodes sit out every
    /// sync/T/A flood and drop out of the per-epoch energy accounting. The
    /// mask lives in the runner's [`FloodSimulator`] — the single source of
    /// truth for participation.
    ///
    /// # Panics
    ///
    /// Panics if the mask does not cover every node or marks the sink dead
    /// (the collection protocol cannot run without its sink).
    pub fn set_alive(&mut self, alive: &[bool]) {
        assert_eq!(
            alive.len(),
            self.topology.num_nodes(),
            "alive mask must cover every node"
        );
        assert!(alive[self.sink.index()], "the sink must stay alive");
        self.flood.set_alive(alive);
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.flood.alive().is_none_or(|a| a[node.index()])
    }

    fn alive_count(&self) -> usize {
        match self.flood.alive() {
            Some(a) => a.iter().filter(|&&x| x).count(),
            None => self.topology.num_nodes(),
        }
    }

    fn flood_config(&self, pair_index: usize, ack: bool) -> GlossyConfig {
        let channel = if self.config.channel_hopping {
            self.hopping
                .data_channel(self.epochs.wrapping_mul(64) + pair_index as u64 * 2 + ack as u64)
        } else {
            self.hopping.control_channel()
        };
        GlossyConfig {
            ntx: NtxAssignment::Uniform(self.config.flood_ntx),
            max_slot_duration: self.config.slot_duration,
            payload_bytes: if ack { 8 } else { self.config.payload_bytes },
            channel,
            ..GlossyConfig::default()
        }
    }

    /// Runs one epoch in which `sources` have a packet queued for the sink,
    /// advancing simulated time by `epoch_period`.
    pub fn run_epoch(
        &mut self,
        sources: &[NodeId],
        epoch_period: SimDuration,
    ) -> CrystalEpochReport {
        let mut per_node_energy: Vec<RadioAccounting> =
            vec![RadioAccounting::new(); self.topology.num_nodes()];
        let mut slot_count = 0usize;
        let mut cursor = self.now;

        // Synchronization flood from the sink (every epoch, even when idle).
        let sync_cfg = self.flood_config(0, true);
        let sync = self
            .flood
            .flood(&sync_cfg, self.sink, cursor, &mut self.rng);
        for node in self.topology.node_ids() {
            per_node_energy[node.index()].merge(&sync.node(node).radio);
        }
        slot_count += 1;
        cursor += self.config.slot_duration;

        let mut pending: Vec<NodeId> = sources
            .iter()
            .copied()
            .filter(|&s| s != self.sink && self.is_alive(s))
            .collect();
        let offered = pending.clone();
        let mut delivered: Vec<NodeId> = Vec::new();
        let mut quiet_pairs = 0usize;
        let mut pairs = 0usize;
        let mut extra_budget = 0usize;
        let mut saw_losses = false;

        while pairs < self.config.max_ta_pairs + extra_budget {
            if pending.is_empty() && quiet_pairs >= self.config.quiet_pairs_to_stop {
                break;
            }
            pairs += 1;

            // T slot: concurrent contenders are resolved by capture — pick
            // one pending source at random to win the flood.
            let t_delivered = if pending.is_empty() {
                // Silent pair: every alive node still listens for the whole
                // slot (dead radios are off).
                for node in self.topology.node_ids() {
                    if !self.is_alive(node) {
                        continue;
                    }
                    let mut listen = RadioAccounting::new();
                    listen.record(dimmer_sim::RadioState::Rx, self.config.slot_duration);
                    per_node_energy[node.index()].merge(&listen);
                }
                slot_count += 1;
                cursor += self.config.slot_duration;
                None
            } else {
                let winner = pending[self.rng.index(pending.len())];
                let t_cfg = self.flood_config(pairs, false);
                let t_flood = self.flood.flood(&t_cfg, winner, cursor, &mut self.rng);
                for node in self.topology.node_ids() {
                    per_node_energy[node.index()].merge(&t_flood.node(node).radio);
                }
                slot_count += 1;
                cursor += self.config.slot_duration;
                if t_flood.received(self.sink) {
                    Some(winner)
                } else {
                    saw_losses = true;
                    None
                }
            };

            // A slot: the sink floods the acknowledgement for the packet it
            // just received (or an empty beacon otherwise).
            let a_cfg = self.flood_config(pairs, true);
            let a_flood = self.flood.flood(&a_cfg, self.sink, cursor, &mut self.rng);
            for node in self.topology.node_ids() {
                per_node_energy[node.index()].merge(&a_flood.node(node).radio);
            }
            slot_count += 1;
            cursor += self.config.slot_duration;

            match t_delivered {
                Some(winner) => {
                    quiet_pairs = 0;
                    // The source stops retransmitting once it hears the ACK;
                    // if the ACK flood misses it, it retries and the sink
                    // simply receives a duplicate later (counted once).
                    if a_flood.received(winner) {
                        pending.retain(|&s| s != winner);
                    }
                    if !delivered.contains(&winner) {
                        delivered.push(winner);
                    }
                }
                None => {
                    quiet_pairs += 1;
                    if saw_losses && extra_budget == 0 {
                        // Noise detection: keep the radio on for extra pairs.
                        extra_budget = self.config.noise_extra_pairs;
                    }
                }
            }
        }

        let energy: f64 = per_node_energy
            .iter()
            .map(RadioAccounting::energy_joules)
            .sum();
        let mean_on_us: u64 = per_node_energy
            .iter()
            .map(|acc| acc.on_time().as_micros())
            .sum::<u64>()
            / (self.alive_count() as u64 * slot_count.max(1) as u64);

        self.epochs += 1;
        self.now += epoch_period;

        CrystalEpochReport {
            offered,
            delivered,
            ta_pairs: pairs,
            energy_joules: energy,
            mean_radio_on: SimDuration::from_micros(mean_on_us),
        }
    }
}

/// Adapts the Crystal epoch loop to the generic
/// [`RoundEngine`](dimmer_core::RoundEngine): each engine round runs one
/// Crystal epoch with the round's traffic as the offered sources.
impl EpochDriver for CrystalRunner<'_> {
    fn run_epoch(&mut self, sources: &[NodeId], period: SimDuration) -> EpochOutcome {
        let report = CrystalRunner::run_epoch(self, sources, period);
        EpochOutcome {
            offered: report.offered.len(),
            delivered: report.delivered.len(),
            mean_radio_on: report.mean_radio_on,
            energy_joules: report.energy_joules,
        }
    }

    fn ntx(&self) -> u8 {
        self.config().flood_ntx
    }

    fn world_event(&mut self, event: &WorldEvent) {
        self.apply_world_event(event);
    }

    fn set_alive(&mut self, alive: &[bool]) {
        CrystalRunner::set_alive(self, alive);
    }
}

/// The no-op [`Controller`] of the Crystal adapter.
///
/// Crystal has no global `N_TX` to steer between rounds — its adaptation
/// (retransmit-until-ACK, noise detection, per-pair channel hopping) lives
/// *inside* each epoch — so the controller only contributes the protocol's
/// name in [`PROTOCOLS`](crate::PROTOCOLS).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrystalControl;

impl Controller for CrystalControl {
    fn name(&self) -> &str {
        "crystal"
    }

    fn observe(&mut self, _obs: &RoundObservation<'_>) -> ControlDecision {
        ControlDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::{NoInterference, WifiInterference, WifiLevel};

    fn sources(topo: &Topology, n: usize) -> Vec<NodeId> {
        (0..n)
            .map(|i| NodeId((topo.num_nodes() - 1 - i) as u16))
            .collect()
    }

    #[test]
    fn calm_epoch_delivers_everything_quickly() {
        let topo = Topology::dcube_48(1);
        let mut crystal = CrystalRunner::new(
            &topo,
            &NoInterference,
            CrystalConfig::ewsn2019(),
            NodeId(0),
            1,
        );
        let report = crystal.run_epoch(&sources(&topo, 5), SimDuration::from_secs(1));
        assert_eq!(report.reliability(), 1.0);
        assert!(
            report.ta_pairs <= 12,
            "calm epochs should terminate early, used {}",
            report.ta_pairs
        );
    }

    #[test]
    fn idle_epoch_costs_little_and_counts_as_reliable() {
        let topo = Topology::dcube_48(1);
        let mut crystal = CrystalRunner::new(
            &topo,
            &NoInterference,
            CrystalConfig::ewsn2019(),
            NodeId(0),
            2,
        );
        let busy = crystal.run_epoch(&sources(&topo, 5), SimDuration::from_secs(1));
        let idle = crystal.run_epoch(&[], SimDuration::from_secs(1));
        assert_eq!(idle.reliability(), 1.0);
        assert!(idle.energy_joules < busy.energy_joules);
    }

    #[test]
    fn wifi_interference_is_survived_through_retransmissions() {
        let topo = Topology::dcube_48(1);
        let wifi = WifiInterference::new(WifiLevel::Level2, 5);
        let mut crystal = CrystalRunner::new(&topo, &wifi, CrystalConfig::ewsn2019(), NodeId(0), 3);
        let mut offered = 0;
        let mut delivered = 0;
        for _ in 0..20 {
            let r = crystal.run_epoch(&sources(&topo, 5), SimDuration::from_secs(1));
            offered += r.offered.len();
            delivered += r.delivered.len();
        }
        let reliability = delivered as f64 / offered as f64;
        assert!(
            reliability > 0.9,
            "Crystal should stay highly reliable under strong WiFi, got {reliability}"
        );
    }

    #[test]
    fn interference_costs_more_energy_than_calm() {
        let topo = Topology::dcube_48(1);
        let wifi = WifiInterference::new(WifiLevel::Level2, 7);
        let mut calm = CrystalRunner::new(
            &topo,
            &NoInterference,
            CrystalConfig::ewsn2019(),
            NodeId(0),
            4,
        );
        let mut noisy = CrystalRunner::new(&topo, &wifi, CrystalConfig::ewsn2019(), NodeId(0), 4);
        let (mut calm_energy, mut noisy_energy) = (0.0, 0.0);
        for _ in 0..10 {
            calm_energy += calm
                .run_epoch(&sources(&topo, 5), SimDuration::from_secs(1))
                .energy_joules;
            noisy_energy += noisy
                .run_epoch(&sources(&topo, 5), SimDuration::from_secs(1))
                .energy_joules;
        }
        assert!(noisy_energy > calm_energy);
    }
}
