//! Traffic patterns used in the paper's evaluation.
//!
//! * **Periodic all-to-all broadcast** — on the 18-node testbed every node
//!   sends one packet per 4-second round to all other nodes.
//! * **Aperiodic collection** — on D-Cube ("Data Collection V1"), a handful
//!   of known sources transmit packets at random intervals to a known sink;
//!   reliability counts packets arriving at the sink.

use dimmer_sim::{NodeId, SimRng};

/// Which nodes generate traffic each round, and who the intended
/// destinations are.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TrafficPattern {
    /// Every node sources one packet per round; every other node is a
    /// destination.
    #[default]
    AllToAll,
    /// A fixed set of sources sends towards a single sink. Each source has a
    /// packet ready in a given round with probability `send_probability`
    /// (modelling the random inter-arrival times of the aperiodic scenario).
    Collection {
        /// The nodes that may generate packets.
        sources: Vec<NodeId>,
        /// The node that must receive them.
        sink: NodeId,
        /// Per-round probability that a source has a packet queued.
        send_probability: f64,
    },
}

impl TrafficPattern {
    /// The D-Cube "Data Collection V1" scenario: `num_sources` sources spread
    /// over the network send aperiodically to the coordinator/sink.
    ///
    /// Sources are chosen deterministically as the highest node ids so that
    /// they sit away from the sink (node 0) in the generated topologies.
    pub fn dcube_collection(num_nodes: usize, num_sources: usize, sink: NodeId) -> Self {
        assert!(num_sources < num_nodes, "need fewer sources than nodes");
        let sources = (0..num_sources)
            .map(|i| NodeId((num_nodes - 1 - i * (num_nodes - 2) / num_sources.max(1)) as u16))
            .filter(|&n| n != sink)
            .collect();
        TrafficPattern::Collection {
            sources,
            sink,
            send_probability: 0.5,
        }
    }

    /// The nodes that have a packet to send in the upcoming round.
    pub fn sources_for_round(&self, all_nodes: &[NodeId], rng: &mut SimRng) -> Vec<NodeId> {
        match self {
            TrafficPattern::AllToAll => all_nodes.to_vec(),
            TrafficPattern::Collection {
                sources,
                send_probability,
                ..
            } => sources
                .iter()
                .copied()
                .filter(|_| rng.chance(*send_probability))
                .collect(),
        }
    }

    /// The sink node for collection traffic, `None` for broadcast traffic.
    pub fn sink(&self) -> Option<NodeId> {
        match self {
            TrafficPattern::AllToAll => None,
            TrafficPattern::Collection { sink, .. } => Some(*sink),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn all_to_all_sources_everyone_every_round() {
        let all = nodes(18);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(
            TrafficPattern::AllToAll.sources_for_round(&all, &mut rng),
            all
        );
    }

    #[test]
    fn collection_targets_only_the_sink() {
        let pattern = TrafficPattern::dcube_collection(48, 5, NodeId(0));
        assert_eq!(pattern.sink(), Some(NodeId(0)));
        assert_eq!(TrafficPattern::AllToAll.sink(), None);
    }

    #[test]
    fn dcube_collection_has_the_requested_source_count() {
        let pattern = TrafficPattern::dcube_collection(48, 5, NodeId(0));
        match &pattern {
            TrafficPattern::Collection { sources, sink, .. } => {
                assert_eq!(sources.len(), 5);
                assert!(!sources.contains(sink));
                let mut unique = sources.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), 5, "sources must be distinct");
            }
            _ => panic!("expected a collection pattern"),
        }
    }

    #[test]
    fn aperiodic_sources_fluctuate_but_stay_within_the_source_set() {
        let pattern = TrafficPattern::dcube_collection(48, 5, NodeId(0));
        let all = nodes(48);
        let mut rng = SimRng::seed_from(3);
        let mut counts = Vec::new();
        for _ in 0..200 {
            let s = pattern.sources_for_round(&all, &mut rng);
            counts.push(s.len());
            if let TrafficPattern::Collection { sources, .. } = &pattern {
                for n in &s {
                    assert!(sources.contains(n));
                }
            }
        }
        let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(
            avg > 1.5 && avg < 3.5,
            "average active sources {avg} should be around 2.5"
        );
        assert!(
            counts.iter().any(|&c| c != counts[0]),
            "source count should vary across rounds"
        );
    }
}
