//! Round schedules.

use dimmer_glossy::NtxAssignment;
use dimmer_sim::NodeId;

/// The communication schedule of one LWB round, as computed by the host and
/// disseminated in the control slot.
///
/// The real LWB scheduler also manages stream requests and adapts the round
/// period; for the paper's experiments the demand is fixed (every node one
/// slot per round on the testbed, the active sources on D-Cube), so a
/// schedule simply assigns one data slot per requesting source, in node-id
/// order.
///
/// Beyond the slot→source assignment, Dimmer piggybacks the adaptivity
/// command on the schedule: either a new global retransmission parameter
/// (`N_TX`), or the permission to run distributed forwarder selection
/// (expressed here as a [`NtxAssignment::PerNode`] assignment).
///
/// # Examples
///
/// ```
/// use dimmer_lwb::Schedule;
/// use dimmer_glossy::NtxAssignment;
/// use dimmer_sim::NodeId;
/// let s = Schedule::new(3, vec![NodeId(2), NodeId(1), NodeId(2)], NtxAssignment::Uniform(4));
/// assert_eq!(s.slots(), &[NodeId(1), NodeId(2)]); // sorted, one slot each
/// assert_eq!(s.round_index(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    round_index: u64,
    slots: Vec<NodeId>,
    ntx: NtxAssignment,
}

impl Schedule {
    /// Creates the schedule of round `round_index`: one data slot per
    /// distinct entry of `sources`, sorted by node id.
    pub fn new(round_index: u64, mut sources: Vec<NodeId>, ntx: NtxAssignment) -> Self {
        sources.sort_unstable();
        sources.dedup();
        Schedule {
            round_index,
            slots: sources,
            ntx,
        }
    }

    /// The index of the round this schedule belongs to (drives channel
    /// hopping).
    pub fn round_index(&self) -> u64 {
        self.round_index
    }

    /// The sources assigned to data slots, in slot order.
    pub fn slots(&self) -> &[NodeId] {
        &self.slots
    }

    /// Number of data slots in the round.
    pub fn num_data_slots(&self) -> usize {
        self.slots.len()
    }

    /// The retransmission assignment every participant applies this round.
    pub fn ntx(&self) -> &NtxAssignment {
        &self.ntx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn schedule_accessors() {
        let s = Schedule::new(7, vec![NodeId(3), NodeId(5)], NtxAssignment::Uniform(2));
        assert_eq!(s.round_index(), 7);
        assert_eq!(s.num_data_slots(), 2);
        assert_eq!(s.slots(), &[NodeId(3), NodeId(5)]);
        assert_eq!(s.ntx(), &NtxAssignment::Uniform(2));
    }

    #[test]
    fn new_sorts_and_deduplicates_sources() {
        let s = Schedule::new(
            0,
            vec![NodeId(4), NodeId(1), NodeId(4), NodeId(0)],
            NtxAssignment::Uniform(3),
        );
        assert_eq!(s.slots(), &[NodeId(0), NodeId(1), NodeId(4)]);
    }

    proptest! {
        #[test]
        fn prop_every_source_gets_exactly_one_slot(ids in proptest::collection::vec(0u16..64, 0..40)) {
            let sources: Vec<NodeId> = ids.iter().copied().map(NodeId).collect();
            let s = Schedule::new(0, sources.clone(), NtxAssignment::Uniform(3));
            // Each distinct source appears exactly once, in node-id order.
            let mut expected = sources;
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(s.slots().to_vec(), expected);
        }
    }
}
