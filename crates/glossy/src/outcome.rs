//! Results of a simulated Glossy flood.

use dimmer_sim::{NodeId, RadioAccounting, SimDuration};

/// What a single node experienced during one Glossy flood.
///
/// # Examples
///
/// ```
/// use dimmer_glossy::NodeFloodOutcome;
/// let o = NodeFloodOutcome::not_participating();
/// assert!(!o.received);
/// assert_eq!(o.relays, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFloodOutcome {
    /// Whether the node successfully received the flooded packet.
    pub received: bool,
    /// The relay slot (0-based, counted from the initiator's first
    /// transmission) in which the packet first arrived. A proxy for the hop
    /// distance from the initiator.
    pub first_rx_slot: Option<u8>,
    /// How many times the node actually transmitted the packet.
    pub relays: u8,
    /// Radio-on time spent by the node during this flood.
    pub radio: RadioAccounting,
    /// Whether the node took part in the flood at all (nodes that missed the
    /// schedule keep their radio off and neither receive nor relay).
    pub participated: bool,
}

impl NodeFloodOutcome {
    /// Outcome of a node that did not participate in the flood.
    pub fn not_participating() -> Self {
        NodeFloodOutcome::default()
    }
}

/// The outcome of one Glossy flood across the whole network.
///
/// # Examples
///
/// ```
/// use dimmer_glossy::{FloodSimulator, GlossyConfig};
/// use dimmer_sim::{Topology, NoInterference, SimRng, SimTime, NodeId};
///
/// let topo = Topology::line(4, 6.0, 1);
/// let mut sim = FloodSimulator::new(&topo, &NoInterference);
/// let out = sim.flood(&GlossyConfig::default(), NodeId(0), SimTime::ZERO, &mut SimRng::seed_from(1));
/// assert_eq!(out.initiator(), NodeId(0));
/// assert!(out.received(NodeId(3)));
/// assert_eq!(out.reach_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FloodOutcome {
    initiator: NodeId,
    per_node: Vec<NodeFloodOutcome>,
    duration: SimDuration,
}

impl FloodOutcome {
    /// Assembles a flood outcome. Used by [`crate::FloodSimulator`]; exposed
    /// so higher layers can fabricate outcomes in tests.
    pub fn new(initiator: NodeId, per_node: Vec<NodeFloodOutcome>, duration: SimDuration) -> Self {
        assert!(
            initiator.index() < per_node.len(),
            "initiator must be covered by the per-node outcomes"
        );
        FloodOutcome {
            initiator,
            per_node,
            duration,
        }
    }

    /// The node that initiated (sourced) the flood.
    pub fn initiator(&self) -> NodeId {
        self.initiator
    }

    /// Per-node outcomes, indexed by node id.
    pub fn per_node(&self) -> &[NodeFloodOutcome] {
        &self.per_node
    }

    /// The outcome of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: NodeId) -> &NodeFloodOutcome {
        &self.per_node[node.index()]
    }

    /// Whether `node` received the flooded packet (the initiator counts as
    /// having received its own packet).
    pub fn received(&self, node: NodeId) -> bool {
        node == self.initiator || self.per_node[node.index()].received
    }

    /// Number of nodes that have the packet after the flood (including the
    /// initiator).
    pub fn reach_count(&self) -> usize {
        self.per_node
            .iter()
            .enumerate()
            .filter(|(i, o)| *i == self.initiator.index() || o.received)
            .count()
    }

    /// Fraction of nodes that have the packet after the flood, in `[0, 1]`.
    pub fn reliability(&self) -> f64 {
        self.reach_count() as f64 / self.per_node.len() as f64
    }

    /// Wall-clock duration of the flood (bounded by the configured slot
    /// budget).
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Average radio-on time over all participating nodes.
    pub fn mean_radio_on(&self) -> SimDuration {
        let participants: Vec<_> = self.per_node.iter().filter(|o| o.participated).collect();
        if participants.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = participants
            .iter()
            .map(|o| o.radio.on_time().as_micros())
            .sum();
        SimDuration::from_micros(total / participants.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::{RadioState, SimDuration};

    fn outcome_with(received: &[bool]) -> FloodOutcome {
        let per_node = received
            .iter()
            .map(|&r| NodeFloodOutcome {
                received: r,
                first_rx_slot: if r { Some(1) } else { None },
                relays: 0,
                radio: RadioAccounting::new(),
                participated: true,
            })
            .collect();
        FloodOutcome::new(NodeId(0), per_node, SimDuration::from_millis(20))
    }

    #[test]
    fn initiator_always_counts_as_reached() {
        let out = outcome_with(&[false, false, false]);
        assert!(out.received(NodeId(0)));
        assert_eq!(out.reach_count(), 1);
        assert!((out.reliability() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_radio_on_averages_participants_only() {
        let mut a = NodeFloodOutcome {
            participated: true,
            ..Default::default()
        };
        a.radio.record(RadioState::Rx, SimDuration::from_millis(10));
        let mut b = NodeFloodOutcome {
            participated: true,
            ..Default::default()
        };
        b.radio.record(RadioState::Rx, SimDuration::from_millis(20));
        let c = NodeFloodOutcome::not_participating();
        let out = FloodOutcome::new(NodeId(0), vec![a, b, c], SimDuration::from_millis(20));
        assert_eq!(out.mean_radio_on(), SimDuration::from_millis(15));
    }

    #[test]
    fn accessors_expose_the_assembled_flood() {
        let out = outcome_with(&[false, true, false]);
        assert_eq!(out.initiator(), NodeId(0));
        assert_eq!(out.per_node().len(), 3);
        assert_eq!(out.node(NodeId(1)).first_rx_slot, Some(1));
        assert_eq!(out.duration(), SimDuration::from_millis(20));
    }

    #[test]
    fn reach_counts_every_receiver_plus_the_initiator() {
        let out = outcome_with(&[false, true, true, false]);
        assert_eq!(out.reach_count(), 3);
        assert_eq!(out.reliability(), 0.75);
        assert!(out.received(NodeId(2)));
        assert!(!out.received(NodeId(3)));
        // An initiator marked as a receiver is counted once.
        assert_eq!(outcome_with(&[true, true]).reach_count(), 2);
    }

    #[test]
    fn mean_radio_on_is_zero_without_participants() {
        let per_node = vec![NodeFloodOutcome::not_participating(); 3];
        let out = FloodOutcome::new(NodeId(1), per_node, SimDuration::from_millis(20));
        assert_eq!(out.mean_radio_on(), SimDuration::ZERO);
    }

    #[test]
    fn mean_radio_on_counts_transmit_time_and_truncates() {
        let mut a = NodeFloodOutcome {
            participated: true,
            ..Default::default()
        };
        a.radio.record(RadioState::Tx, SimDuration::from_micros(1));
        let mut b = NodeFloodOutcome {
            participated: true,
            ..Default::default()
        };
        b.radio.record(RadioState::Rx, SimDuration::from_micros(1));
        b.radio.record(RadioState::Tx, SimDuration::from_micros(1));
        let out = FloodOutcome::new(NodeId(0), vec![a, b], SimDuration::from_millis(20));
        // (1 + 2) µs over two participants.
        assert_eq!(out.mean_radio_on(), SimDuration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "initiator must be covered")]
    fn outcome_rejects_out_of_range_initiator() {
        FloodOutcome::new(
            NodeId(5),
            vec![NodeFloodOutcome::default()],
            SimDuration::ZERO,
        );
    }
}
