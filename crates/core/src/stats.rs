//! The coordinator's observation pipeline: per-node statistics, the
//! global view of the network and the loss history (§IV-B, §IV-D).
//!
//! Each device continuously monitors its own packet reception rate and
//! average radio-on time over a sliding window of recent rounds. The values
//! are shared through the [`crate::FeedbackHeader`] piggybacked on the
//! node's data packet; the coordinator aggregates whatever feedback it
//! actually received into a [`GlobalView`], filling missing entries with
//! pessimistic values. The [`Coordinator`] runs that pipeline once per round
//! and turns it into the Table-I state, for the deployed protocol and the
//! trace-driven training environment alike.

use crate::config::DimmerConfig;
use crate::feedback::FeedbackHeader;
use crate::state::StateBuilder;
use dimmer_sim::{NodeId, SimDuration};
use std::collections::VecDeque;

/// The sliding-window length (in rounds) every node averages its local
/// statistics over, both in the deployed protocol and in the trace-driven
/// training environment (which must observe through the same pipeline).
pub const DEFAULT_STATS_WINDOW: usize = 8;

/// A node's local performance statistics over a sliding window of recent
/// rounds.
///
/// # Examples
///
/// ```
/// use dimmer_core::NodeStats;
/// use dimmer_sim::SimDuration;
/// let mut stats = NodeStats::new(8);
/// stats.record_round(0.9, SimDuration::from_millis(10));
/// stats.record_round(1.0, SimDuration::from_millis(8));
/// assert!((stats.reliability() - 0.95).abs() < 1e-9);
/// assert_eq!(stats.radio_on(), SimDuration::from_millis(9));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    window: usize,
    reliabilities: VecDeque<f64>,
    radio_on: VecDeque<SimDuration>,
}

impl NodeStats {
    /// Creates a statistics tracker averaging over the last `window` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        NodeStats {
            window,
            reliabilities: VecDeque::new(),
            radio_on: VecDeque::new(),
        }
    }

    /// Records the node's observation of one round: the fraction of expected
    /// packets it received and its average per-slot radio-on time.
    pub fn record_round(&mut self, reliability: f64, radio_on: SimDuration) {
        if self.reliabilities.len() == self.window {
            self.reliabilities.pop_front();
            self.radio_on.pop_front();
        }
        self.reliabilities.push_back(reliability.clamp(0.0, 1.0));
        self.radio_on.push_back(radio_on);
    }

    /// Number of recorded rounds currently in the window.
    pub fn len(&self) -> usize {
        self.reliabilities.len()
    }

    /// Returns `true` if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.reliabilities.is_empty()
    }

    /// Average packet reception rate over the window (1.0 when empty).
    pub fn reliability(&self) -> f64 {
        if self.reliabilities.is_empty() {
            return 1.0;
        }
        self.reliabilities.iter().sum::<f64>() / self.reliabilities.len() as f64
    }

    /// Average per-slot radio-on time over the window (zero when empty).
    pub fn radio_on(&self) -> SimDuration {
        if self.radio_on.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.radio_on.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(total / self.radio_on.len() as u64)
    }

    /// The node's current feedback header.
    pub fn to_feedback(&self) -> FeedbackHeader {
        FeedbackHeader::new(self.reliability(), self.radio_on())
    }
}

impl Default for NodeStats {
    fn default() -> Self {
        Self::new(DEFAULT_STATS_WINDOW)
    }
}

/// The coordinator's side of every round: the per-node statistics windows
/// (each device keeps its own; the simulation keeps them together), the
/// [`GlobalView`] built from the feedback that reached the coordinator, and
/// the loss history of the Table-I state.
///
/// [`observe_round`](Self::observe_round) is the only code that advances
/// them, and [`state`](Self::state) the only code that reads them.
///
/// # Examples
///
/// ```
/// use dimmer_core::{Coordinator, DimmerConfig};
/// use dimmer_sim::{NodeId, SimDuration};
/// let config = DimmerConfig::default().with_k_input_nodes(2);
/// let mut coordinator = Coordinator::new(2, config);
/// let observed = |_| (0.6, SimDuration::from_millis(10));
/// // Node 1's flood reaches the coordinator, carrying the (empty, hence
/// // optimistic) statistics it had before the round; node 0's is lost.
/// coordinator.observe_round([NodeId(1)], observed, true);
/// let state = coordinator.state(3);
/// assert_eq!(&state[2..4], &[-1.0, 1.0]); // reliability rows, worst first
/// // Next round node 1 shares the 60 % it observed in the first one.
/// coordinator.observe_round([NodeId(1)], observed, false);
/// assert!((coordinator.state(3)[3] - -0.6).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coordinator {
    per_node: Vec<NodeStats>,
    view: GlobalView,
    state_builder: StateBuilder,
}

impl Coordinator {
    /// Creates the pipeline of a freshly started network of `num_nodes`
    /// nodes: empty [`DEFAULT_STATS_WINDOW`] windows, an all-pessimistic
    /// view and a loss-free history.
    pub fn new(num_nodes: usize, config: DimmerConfig) -> Self {
        Coordinator {
            per_node: vec![NodeStats::default(); num_nodes],
            view: GlobalView::new(num_nodes),
            state_builder: StateBuilder::new(config),
        }
    }

    /// The configuration the state vector is laid out for.
    pub fn config(&self) -> &DimmerConfig {
        self.state_builder.config()
    }

    /// Observes one round.
    ///
    /// * Every `delivered` node (its data flood reached the coordinator)
    ///   shares the feedback it computed *before* this round.
    /// * Every node then records its own view of the round: `observed`
    ///   maps a node to its reception ratio and per-slot radio-on time.
    /// * Entries nobody refreshed age towards pessimistic values, and the
    ///   history records whether the round had losses.
    pub fn observe_round(
        &mut self,
        delivered: impl IntoIterator<Item = NodeId>,
        observed: impl Fn(NodeId) -> (f64, SimDuration),
        had_losses: bool,
    ) {
        for node in delivered {
            self.view
                .update(node, self.per_node[node.index()].to_feedback());
        }
        for (i, stats) in self.per_node.iter_mut().enumerate() {
            let (reliability, radio_on) = observed(NodeId(i as u16));
            stats.record_round(reliability, radio_on);
        }
        self.view.mark_round();
        self.state_builder.record_history(had_losses);
    }

    /// The Table-I state vector for the current view, history and `ntx`.
    ///
    /// # Panics
    ///
    /// Panics if `ntx` exceeds the configured `N_max`.
    pub fn state(&self, ntx: u8) -> Vec<f32> {
        self.state_builder.build(&self.view, ntx)
    }
}

/// The coordinator's snapshot of the whole network, built from the feedback
/// it actually received; missing nodes carry pessimistic values.
///
/// # Examples
///
/// ```
/// use dimmer_core::{GlobalView, FeedbackHeader};
/// use dimmer_sim::{NodeId, SimDuration};
/// let mut view = GlobalView::new(3);
/// view.update(NodeId(1), FeedbackHeader::new(0.8, SimDuration::from_millis(9)));
/// view.mark_round();
/// assert!((view.feedback(NodeId(1)).reliability() - 0.8).abs() < 1e-9);
/// // Node 2 never reported: pessimistic.
/// assert_eq!(view.feedback(NodeId(2)).reliability(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalView {
    entries: Vec<FeedbackHeader>,
    fresh: Vec<bool>,
    /// How many rounds a stale entry survives before being reset to
    /// pessimistic values.
    staleness_limit: u32,
    age: Vec<u32>,
}

impl GlobalView {
    /// Creates a view over `num_nodes` nodes, initially pessimistic.
    pub fn new(num_nodes: usize) -> Self {
        GlobalView {
            entries: vec![FeedbackHeader::pessimistic(); num_nodes],
            fresh: vec![false; num_nodes],
            staleness_limit: 2,
            age: vec![u32::MAX; num_nodes],
        }
    }

    /// Number of nodes covered by the view.
    pub fn num_nodes(&self) -> usize {
        self.entries.len()
    }

    /// Stores freshly received feedback for `node`.
    pub fn update(&mut self, node: NodeId, feedback: FeedbackHeader) {
        self.entries[node.index()] = feedback;
        self.fresh[node.index()] = true;
        self.age[node.index()] = 0;
    }

    /// Ends the current round: entries not updated this round age by one;
    /// entries older than the staleness limit fall back to pessimistic
    /// values.
    pub fn mark_round(&mut self) {
        for i in 0..self.entries.len() {
            if !self.fresh[i] {
                self.age[i] = self.age[i].saturating_add(1);
                if self.age[i] > self.staleness_limit {
                    self.entries[i] = FeedbackHeader::pessimistic();
                }
            }
            self.fresh[i] = false;
        }
    }

    /// The most recent (or pessimistic) feedback for `node`.
    pub fn feedback(&self, node: NodeId) -> FeedbackHeader {
        self.entries[node.index()]
    }

    /// All entries, indexed by node.
    pub fn all(&self) -> &[FeedbackHeader] {
        &self.entries
    }

    /// The node indices sorted by ascending reliability (worst first), which
    /// is how the DQN input selects its K nodes.
    pub fn worst_nodes(&self) -> Vec<NodeId> {
        let mut idx: Vec<usize> = (0..self.entries.len()).collect();
        idx.sort_by(|&a, &b| {
            self.entries[a]
                .reliability()
                .partial_cmp(&self.entries[b].reliability())
                // lint: allow(P001) -- reliability() is received/expected over non-zero windows, never NaN
                .expect("reliabilities are finite")
                .then(a.cmp(&b))
        });
        idx.into_iter().map(|i| NodeId(i as u16)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_stats_average_over_window() {
        let mut s = NodeStats::new(2);
        s.record_round(1.0, SimDuration::from_millis(10));
        s.record_round(0.5, SimDuration::from_millis(20));
        s.record_round(0.0, SimDuration::from_millis(30)); // evicts the 1.0 entry
        assert!((s.reliability() - 0.25).abs() < 1e-9);
        assert_eq!(s.radio_on(), SimDuration::from_millis(25));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_stats_are_optimistic() {
        let s = NodeStats::new(4);
        assert!(s.is_empty());
        assert_eq!(s.reliability(), 1.0);
        assert_eq!(s.radio_on(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_is_rejected() {
        NodeStats::new(0);
    }

    #[test]
    fn global_view_starts_pessimistic_and_updates() {
        let mut v = GlobalView::new(2);
        assert_eq!(v.feedback(NodeId(0)).reliability(), 0.0);
        v.update(
            NodeId(0),
            FeedbackHeader::new(1.0, SimDuration::from_millis(5)),
        );
        assert_eq!(v.feedback(NodeId(0)).reliability(), 1.0);
    }

    #[test]
    fn stale_entries_decay_to_pessimistic() {
        let mut v = GlobalView::new(1);
        v.update(
            NodeId(0),
            FeedbackHeader::new(0.9, SimDuration::from_millis(5)),
        );
        v.mark_round();
        // Still within the staleness limit.
        v.mark_round();
        v.mark_round();
        assert!(v.feedback(NodeId(0)).reliability() > 0.0);
        v.mark_round();
        assert_eq!(
            v.feedback(NodeId(0)).reliability(),
            0.0,
            "stale entry must decay"
        );
    }

    #[test]
    fn worst_nodes_sorted_by_reliability() {
        let mut v = GlobalView::new(3);
        v.update(NodeId(0), FeedbackHeader::new(0.9, SimDuration::ZERO));
        v.update(NodeId(1), FeedbackHeader::new(0.2, SimDuration::ZERO));
        v.update(NodeId(2), FeedbackHeader::new(0.6, SimDuration::ZERO));
        assert_eq!(v.worst_nodes(), vec![NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn worst_nodes_tie_break_is_deterministic() {
        let v = GlobalView::new(4);
        assert_eq!(
            v.worst_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    proptest! {
        #[test]
        fn prop_stats_stay_in_valid_ranges(values in proptest::collection::vec((0.0f64..=1.0, 0u64..=20_000), 1..30)) {
            let mut s = NodeStats::new(8);
            for (rel, on) in values {
                s.record_round(rel, SimDuration::from_micros(on));
            }
            prop_assert!((0.0..=1.0).contains(&s.reliability()));
            prop_assert!(s.radio_on() <= SimDuration::from_millis(20));
            prop_assert!(s.len() <= 8);
        }

        #[test]
        fn prop_worst_nodes_is_a_permutation(rels in proptest::collection::vec(0.0f64..=1.0, 1..20)) {
            let mut v = GlobalView::new(rels.len());
            for (i, r) in rels.iter().enumerate() {
                v.update(NodeId(i as u16), FeedbackHeader::new(*r, SimDuration::ZERO));
            }
            let mut order: Vec<usize> = v.worst_nodes().iter().map(|n| n.index()).collect();
            order.sort_unstable();
            prop_assert_eq!(order, (0..rels.len()).collect::<Vec<_>>());
        }

        /// The coordinator is the hand-run pipeline: delivered nodes share
        /// the feedback they had *before* the round, every node then records
        /// the round, the view ages and the history records the losses.
        #[test]
        fn prop_coordinator_matches_the_hand_run_pipeline(
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0.0f64..=1.0, 0u64..=25_000, 0u8..2), 6), 0u8..2),
                1..30,
            ),
            ntx in 0u8..=8,
        ) {
            // Six nodes under K = 4: the state selects among them.
            let config = DimmerConfig::default().with_k_input_nodes(4);
            let mut coordinator = Coordinator::new(6, config.clone());
            let mut stats = vec![NodeStats::new(DEFAULT_STATS_WINDOW); 6];
            let mut view = GlobalView::new(6);
            let mut builder = StateBuilder::new(config);
            for (nodes, losses) in rounds {
                for (i, &(_, _, delivered)) in nodes.iter().enumerate() {
                    if delivered == 1 {
                        view.update(NodeId(i as u16), stats[i].to_feedback());
                    }
                }
                for (s, &(rel, on, _)) in stats.iter_mut().zip(&nodes) {
                    s.record_round(rel, SimDuration::from_micros(on));
                }
                view.mark_round();
                builder.record_history(losses == 1);

                let delivered = (0..6u16).filter(|&i| nodes[usize::from(i)].2 == 1).map(NodeId);
                let observed = |n: NodeId| {
                    let (rel, on, _) = nodes[n.index()];
                    (rel, SimDuration::from_micros(on))
                };
                coordinator.observe_round(delivered, observed, losses == 1);
                prop_assert_eq!(coordinator.state(ntx), builder.build(&view, ntx));
            }
        }
    }
}
