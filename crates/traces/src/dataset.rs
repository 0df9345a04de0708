//! Trace datasets: what one recorded round looks like for every possible
//! `N_TX`.

/// The outcome one round would have had under a specific `N_TX`.
#[derive(Debug, Clone, PartialEq)]
pub struct NtxOutcome {
    /// Per-node packet reception rate during the round.
    pub reliabilities: Vec<f64>,
    /// Per-node radio-on time per slot, in microseconds.
    pub radio_on_us: Vec<u64>,
    /// Number of missed (slot, destination) pairs network-wide.
    pub losses: usize,
}

impl NtxOutcome {
    /// Network-wide minimum per-node reliability (1.0 for an empty outcome).
    pub fn worst_reliability(&self) -> f64 {
        self.reliabilities.iter().copied().fold(1.0, f64::min)
    }

    /// `true` if the round had no losses at all.
    pub fn loss_free(&self) -> bool {
        self.losses == 0
    }
}

/// One trace sample: the same wireless conditions evaluated under every
/// `N_TX ∈ {0..N_max}`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Index 0 holds the `N_TX = 0` outcome, index `N_max` the maximal one.
    pub outcomes: Vec<NtxOutcome>,
    /// The interference duty cycle that was active while the sample was
    /// recorded (metadata; not visible to the agent).
    pub interference_ratio: f64,
}

impl TraceSample {
    /// The outcome for a given `N_TX`.
    ///
    /// # Panics
    ///
    /// Panics if `ntx` exceeds the recorded range.
    pub fn outcome(&self, ntx: u8) -> &NtxOutcome {
        &self.outcomes[ntx as usize]
    }

    /// The largest `N_TX` recorded in this sample.
    pub fn n_max(&self) -> u8 {
        (self.outcomes.len() - 1) as u8
    }
}

/// A collection of [`TraceSample`]s recorded on one deployment.
///
/// # Examples
///
/// ```
/// use dimmer_traces::{TraceDataset, TraceSample, NtxOutcome};
/// let sample = TraceSample {
///     outcomes: (0..=8).map(|_| NtxOutcome {
///         reliabilities: vec![1.0, 0.9],
///         radio_on_us: vec![8_000, 9_000],
///         losses: 0,
///     }).collect(),
///     interference_ratio: 0.0,
/// };
/// let ds = TraceDataset::new(2, 8, vec![sample]);
/// assert_eq!((ds.num_nodes(), ds.n_max(), ds.len()), (2, 8, 1));
/// assert_eq!(ds.sample(0).outcome(3).worst_reliability(), 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDataset {
    num_nodes: usize,
    n_max: u8,
    samples: Vec<TraceSample>,
}

impl TraceDataset {
    /// Assembles a dataset.
    ///
    /// # Panics
    ///
    /// Panics if a sample's shape does not match `num_nodes` / `n_max`.
    pub fn new(num_nodes: usize, n_max: u8, samples: Vec<TraceSample>) -> Self {
        for s in &samples {
            assert_eq!(
                s.outcomes.len(),
                n_max as usize + 1,
                "sample must cover 0..=N_max"
            );
            for o in &s.outcomes {
                assert_eq!(
                    o.reliabilities.len(),
                    num_nodes,
                    "reliability rows must match nodes"
                );
                assert_eq!(
                    o.radio_on_us.len(),
                    num_nodes,
                    "radio-on rows must match nodes"
                );
            }
        }
        TraceDataset {
            num_nodes,
            n_max,
            samples,
        }
    }

    /// Number of nodes in the recorded deployment.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The largest recorded `N_TX`.
    pub fn n_max(&self) -> u8 {
        self.n_max
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The recorded samples, in chronological order.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// One sample by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn sample(&self, index: usize) -> &TraceSample {
        &self.samples[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sample(nodes: usize, n_max: u8, losses: usize) -> TraceSample {
        TraceSample {
            outcomes: (0..=n_max)
                .map(|ntx| NtxOutcome {
                    reliabilities: vec![0.9 + ntx as f64 * 0.01; nodes],
                    radio_on_us: vec![5_000 + ntx as u64 * 1_000; nodes],
                    losses,
                })
                .collect(),
            interference_ratio: 0.1,
        }
    }

    #[test]
    fn outcome_helpers() {
        let o = NtxOutcome {
            reliabilities: vec![1.0, 0.7, 0.95],
            radio_on_us: vec![1, 2, 3],
            losses: 0,
        };
        assert_eq!(o.worst_reliability(), 0.7);
        assert!(o.loss_free());
    }

    #[test]
    #[should_panic(expected = "must cover 0..=N_max")]
    fn wrong_sample_shape_is_rejected() {
        TraceDataset::new(2, 8, vec![tiny_sample(2, 3, 0)]);
    }

    #[test]
    fn an_empty_outcome_is_reliable_and_losses_make_it_lossy() {
        let o = NtxOutcome {
            reliabilities: vec![],
            radio_on_us: vec![],
            losses: 3,
        };
        assert_eq!(o.worst_reliability(), 1.0);
        assert!(!o.loss_free());
    }

    #[test]
    fn a_sample_reports_its_largest_ntx_and_indexes_by_ntx() {
        let sample = tiny_sample(2, 5, 0);
        assert_eq!(sample.n_max(), 5);
        assert_eq!(sample.outcome(5).radio_on_us, vec![10_000, 10_000]);
        assert_eq!(sample.outcome(0).radio_on_us, vec![5_000, 5_000]);
    }

    #[test]
    fn a_dataset_keeps_its_samples_in_order() {
        let empty = TraceDataset::new(3, 2, vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let ds = TraceDataset::new(3, 2, vec![tiny_sample(3, 2, 1), tiny_sample(3, 2, 4)]);
        assert!(!ds.is_empty());
        let losses: Vec<usize> = ds.samples().iter().map(|s| s.outcome(1).losses).collect();
        assert_eq!(losses, vec![1, 4]);
        assert_eq!(ds.sample(1).outcome(2).losses, 4);
    }

    #[test]
    #[should_panic(expected = "reliability rows must match nodes")]
    fn a_sample_of_another_node_count_is_rejected() {
        TraceDataset::new(3, 2, vec![tiny_sample(2, 2, 0)]);
    }

    #[test]
    #[should_panic(expected = "radio-on rows must match nodes")]
    fn a_short_radio_on_row_is_rejected() {
        let mut sample = tiny_sample(2, 2, 0);
        sample.outcomes[1].radio_on_us.pop();
        TraceDataset::new(2, 2, vec![sample]);
    }
}
