//! Trace collection on the simulated deployment.
//!
//! The collector plays a controlled jamming schedule over the 18-node
//! testbed (alternating calm windows and bursts at different interference
//! ratios, mirroring the paper's multi-day collection over different times
//! and frequencies) and records, for every round, the feedback each
//! `N_TX ∈ {0..N_max}` would have produced under the very same conditions.

use crate::dataset::{NtxOutcome, TraceDataset, TraceSample};
use dimmer_glossy::config::N_TX_MAX;
use dimmer_glossy::NtxAssignment;
use dimmer_lwb::{LwbConfig, RoundExecutor, Schedule};
use dimmer_sim::{kiel_jamming, NodeId, SimRng, SimTime, Topology};

/// Collects training/evaluation traces from a topology.
///
/// # Examples
///
/// ```
/// use dimmer_traces::TraceCollector;
/// use dimmer_sim::Topology;
/// let topo = Topology::kiel_testbed_18(3);
/// let dataset = TraceCollector::new(&topo, 1).collect(20);
/// assert_eq!(dataset.len(), 20);
/// assert_eq!(dataset.num_nodes(), 18);
/// ```
#[derive(Debug)]
pub struct TraceCollector<'a> {
    topology: &'a Topology,
    lwb: LwbConfig,
    /// The interference duty cycles the schedule cycles through. Zero means
    /// a calm window.
    pub duty_cycle_sweep: Vec<f64>,
    /// How many consecutive rounds each duty-cycle window lasts.
    pub rounds_per_window: usize,
    seed: u64,
}

impl<'a> TraceCollector<'a> {
    /// Creates a collector with the paper-like sweep: calm windows
    /// interleaved with 5–35 % 802.15.4 jamming.
    pub fn new(topology: &'a Topology, seed: u64) -> Self {
        TraceCollector {
            topology,
            lwb: LwbConfig::testbed_default(),
            duty_cycle_sweep: vec![0.0, 0.05, 0.0, 0.15, 0.0, 0.25, 0.0, 0.35, 0.10, 0.0, 0.30],
            rounds_per_window: 5,
            seed,
        }
    }

    /// Overrides the duty-cycle sweep.
    pub fn with_sweep(mut self, sweep: Vec<f64>, rounds_per_window: usize) -> Self {
        self.duty_cycle_sweep = sweep;
        self.rounds_per_window = rounds_per_window.max(1);
        self
    }

    /// Records `rounds` samples. Each sample evaluates all
    /// `N_TX ∈ {0..N_max}` under identical interference conditions and
    /// identical link randomness.
    pub fn collect(&self, rounds: usize) -> TraceDataset {
        let n = self.topology.num_nodes();
        let sources: Vec<NodeId> = self.topology.node_ids().collect();
        let mut samples = Vec::with_capacity(rounds);
        let mut master_rng = SimRng::seed_from(self.seed);

        // One executor per duty-cycle window (consecutive rounds share a
        // window): the round executor compiles the topology and interference
        // mask at construction, so rebuilding it per round would redo that
        // work `rounds × 1` times instead of once per window.
        let window_of =
            |round_idx: usize| (round_idx / self.rounds_per_window) % self.duty_cycle_sweep.len();
        let mut round_idx = 0;
        while round_idx < rounds {
            let window = window_of(round_idx);
            let duty = self.duty_cycle_sweep[window];
            // A calm window's empty composite is always idle, like
            // `NoInterference`.
            let interference = kiel_jamming(duty);
            let mut executor = RoundExecutor::new(self.topology, &interference, self.lwb.clone());

            while round_idx < rounds && window_of(round_idx) == window {
                let start = SimTime::from_secs(round_idx as u64 * 4);
                // Use the same RNG stream for every N_TX so link fading and
                // burst positions are identical across the candidate actions.
                let round_seed = master_rng.fork(round_idx as u64);

                let mut outcomes = Vec::with_capacity(N_TX_MAX as usize + 1);
                for ntx in 0..=N_TX_MAX {
                    let mut rng = round_seed.clone();
                    let schedule = Schedule::new(
                        round_idx as u64,
                        sources.clone(),
                        NtxAssignment::Uniform(ntx.max(1)),
                    );
                    let round = executor.run_round(&schedule, start, &mut rng);
                    let reliabilities = (0..n)
                        .map(|i| round.node_reception_ratio(NodeId(i as u16)))
                        .collect();
                    let radio_on_us = (0..n)
                        .map(|i| round.node_radio_on_per_slot(NodeId(i as u16)).as_micros())
                        .collect();
                    outcomes.push(NtxOutcome {
                        reliabilities,
                        radio_on_us,
                        losses: round.reliability_and_losses(None).1,
                    });
                }
                samples.push(TraceSample {
                    outcomes,
                    interference_ratio: duty,
                });
                round_idx += 1;
            }
        }
        TraceDataset::new(n, N_TX_MAX, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset(rounds: usize, seed: u64) -> TraceDataset {
        let topo = Topology::kiel_testbed_18(5);
        TraceCollector::new(&topo, seed)
            .with_sweep(vec![0.0, 0.30], 2)
            .collect(rounds)
    }

    #[test]
    fn collects_the_requested_number_of_samples() {
        let ds = small_dataset(8, 1);
        assert_eq!(ds.len(), 8);
        assert_eq!(ds.num_nodes(), 18);
        assert_eq!(ds.n_max(), 8);
    }

    #[test]
    fn calm_windows_are_loss_free_at_moderate_ntx() {
        let ds = small_dataset(2, 2);
        let calm = ds.sample(0);
        assert_eq!(calm.interference_ratio, 0.0);
        assert!(
            calm.outcome(3).losses <= 2,
            "calm rounds should see (almost) no losses"
        );
    }

    #[test]
    fn under_jamming_higher_ntx_does_not_hurt_reliability() {
        let topo = Topology::kiel_testbed_18(5);
        let ds = TraceCollector::new(&topo, 3)
            .with_sweep(vec![0.35], 1)
            .collect(12);
        let mut low = 0.0;
        let mut high = 0.0;
        for s in ds.samples() {
            low += s.outcome(1).worst_reliability();
            high += s.outcome(8).worst_reliability();
        }
        assert!(
            high >= low,
            "N_TX=8 should not be worse than N_TX=1 under 35% jamming ({high} vs {low})"
        );
    }

    #[test]
    fn radio_on_grows_with_ntx_when_calm() {
        let ds = small_dataset(2, 7);
        let calm = ds.sample(0);
        let mean =
            |o: &NtxOutcome| o.radio_on_us.iter().sum::<u64>() as f64 / o.radio_on_us.len() as f64;
        assert!(mean(calm.outcome(8)) > mean(calm.outcome(1)));
    }

    #[test]
    fn collection_is_deterministic_per_seed() {
        assert_eq!(small_dataset(4, 9), small_dataset(4, 9));
        assert_ne!(small_dataset(4, 9), small_dataset(4, 10));
    }
}
