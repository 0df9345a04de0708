//! Glossy flood configuration: retransmission counts, slot budget, timing.

use dimmer_sim::{Channel, SimDuration};

/// Maximum number of retransmissions per node supported by Dimmer
/// (`N_max = 8` in the paper).
pub const N_TX_MAX: u8 = 8;

/// Default number of retransmissions used by plain Glossy / static LWB.
pub const N_TX_DEFAULT: u8 = 3;

/// How `N_TX` values are assigned to nodes for one flood.
///
/// * [`NtxAssignment::Uniform`] — everyone uses the same value (Dimmer's
///   central adaptivity).
/// * [`NtxAssignment::PerNode`] — each node has its own value (used by the
///   distributed forwarder selection, where passive receivers get 0).
///
/// # Examples
///
/// ```
/// use dimmer_glossy::NtxAssignment;
/// use dimmer_sim::NodeId;
/// let uniform = NtxAssignment::Uniform(3);
/// assert_eq!(uniform.for_node(NodeId(7)), 3);
/// let per_node = NtxAssignment::PerNode(vec![0, 3, 3]);
/// assert_eq!(per_node.for_node(NodeId(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NtxAssignment {
    /// All nodes use the same retransmission count.
    Uniform(u8),
    /// Per-node retransmission counts, indexed by [`dimmer_sim::NodeId`].
    PerNode(Vec<u8>),
}

impl NtxAssignment {
    /// The retransmission count for a given node.
    ///
    /// # Panics
    ///
    /// Panics for [`NtxAssignment::PerNode`] if the node index is out of
    /// range.
    pub fn for_node(&self, node: dimmer_sim::NodeId) -> u8 {
        match self {
            NtxAssignment::Uniform(n) => *n,
            NtxAssignment::PerNode(v) => v[node.index()],
        }
    }

    /// The largest `N_TX` any node uses under this assignment.
    pub fn max_ntx(&self) -> u8 {
        match self {
            NtxAssignment::Uniform(n) => *n,
            NtxAssignment::PerNode(v) => v.iter().copied().max().unwrap_or(0),
        }
    }
}

impl Default for NtxAssignment {
    fn default() -> Self {
        NtxAssignment::Uniform(N_TX_DEFAULT)
    }
}

/// Configuration of a single Glossy flood.
///
/// The defaults follow the paper's evaluation parameters: 30-byte packets
/// (including the 3-byte LWB and 2-byte Dimmer headers), 20 ms maximum slot
/// duration, transmissions at 0 dBm on channel 26, `N_TX = 3`.
///
/// # Examples
///
/// ```
/// use dimmer_glossy::{GlossyConfig, NtxAssignment};
/// let cfg = GlossyConfig::default().with_ntx(NtxAssignment::Uniform(5));
/// assert_eq!(cfg.ntx.max_ntx(), 5);
/// assert!(cfg.max_relay_slots() > 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GlossyConfig {
    /// Retransmission assignment (the paper's adaptivity knob).
    pub ntx: NtxAssignment,
    /// Maximum duration of the whole flood slot (paper: 20 ms).
    pub max_slot_duration: SimDuration,
    /// Application payload carried by the flood, in bytes (paper: 30 B).
    pub payload_bytes: usize,
    /// Channel the flood is executed on.
    pub channel: Channel,
    /// Per-additional-concurrent-transmitter degradation of the constructive
    /// interference gain (models imperfect synchronization). 0 disables it.
    pub concurrency_penalty: f64,
}

impl GlossyConfig {
    /// 802.15.4 radios transmit at 250 kbit/s → 32 µs per byte.
    const MICROS_PER_BYTE: u64 = 32;
    /// PHY preamble + SFD + length field: 6 bytes.
    const PHY_OVERHEAD_BYTES: u64 = 6;
    /// RX/TX turnaround plus software processing between relay slots.
    const TURNAROUND: SimDuration = SimDuration::from_micros(220);

    /// Creates a configuration with the given uniform `N_TX` and otherwise
    /// paper-default parameters.
    pub fn with_uniform_ntx(n_tx: u8) -> Self {
        GlossyConfig {
            ntx: NtxAssignment::Uniform(n_tx),
            ..Self::default()
        }
    }

    /// Replaces the `N_TX` assignment.
    pub fn with_ntx(mut self, ntx: NtxAssignment) -> Self {
        self.ntx = ntx;
        self
    }

    /// Replaces the channel.
    pub fn with_channel(mut self, channel: Channel) -> Self {
        self.channel = channel;
        self
    }

    /// Replaces the payload size.
    pub fn with_payload_bytes(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Air time of one packet transmission (PHY overhead + payload).
    pub fn packet_airtime(&self) -> SimDuration {
        SimDuration::from_micros(
            (Self::PHY_OVERHEAD_BYTES + self.payload_bytes as u64) * Self::MICROS_PER_BYTE,
        )
    }

    /// Duration of one relay slot inside the flood (air time + turnaround).
    pub fn relay_slot_duration(&self) -> SimDuration {
        self.packet_airtime() + Self::TURNAROUND
    }

    /// Number of relay slots that fit in the flood's slot budget.
    pub fn max_relay_slots(&self) -> usize {
        let slot = self.relay_slot_duration().as_micros().max(1);
        (self.max_slot_duration.as_micros() / slot) as usize
    }
}

impl Default for GlossyConfig {
    fn default() -> Self {
        GlossyConfig {
            ntx: NtxAssignment::default(),
            max_slot_duration: SimDuration::from_millis(20),
            payload_bytes: 30,
            channel: Channel::CONTROL,
            concurrency_penalty: 0.015,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::NodeId;
    use proptest::prelude::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = GlossyConfig::default();
        assert_eq!(cfg.ntx, NtxAssignment::Uniform(3));
        assert_eq!(cfg.max_slot_duration, SimDuration::from_millis(20));
        assert_eq!(cfg.payload_bytes, 30);
        assert_eq!(cfg.channel, Channel::CONTROL);
    }

    #[test]
    fn airtime_of_30_byte_packet_is_about_1_2_ms() {
        let cfg = GlossyConfig::default();
        let t = cfg.packet_airtime().as_micros();
        assert_eq!(t, (6 + 30) * 32);
        assert!(t > 1_000 && t < 1_400);
    }

    #[test]
    fn a_20ms_slot_fits_more_than_a_dozen_relay_slots() {
        let cfg = GlossyConfig::default();
        let n = cfg.max_relay_slots();
        assert!((12..=20).contains(&n), "got {n}");
    }

    #[test]
    fn uniform_assignment_is_the_same_for_every_node() {
        let a = NtxAssignment::Uniform(5);
        for i in 0..20 {
            assert_eq!(a.for_node(NodeId(i)), 5);
        }
        assert_eq!(a.max_ntx(), 5);
    }

    #[test]
    fn per_node_assignment_indexes_by_node() {
        let a = NtxAssignment::PerNode(vec![0, 2, 8]);
        assert_eq!(a.for_node(NodeId(0)), 0);
        assert_eq!(a.for_node(NodeId(2)), 8);
        assert_eq!(a.max_ntx(), 8);
    }

    #[test]
    fn an_empty_per_node_assignment_has_max_ntx_zero() {
        assert_eq!(NtxAssignment::PerNode(vec![]).max_ntx(), 0);
        assert_eq!(NtxAssignment::default(), NtxAssignment::Uniform(3));
    }

    #[test]
    #[should_panic]
    fn a_per_node_assignment_has_no_entry_past_its_nodes() {
        NtxAssignment::PerNode(vec![1, 2, 3]).for_node(NodeId(3));
    }

    #[test]
    fn builders_compose() {
        let cfg = GlossyConfig::with_uniform_ntx(6)
            .with_channel(Channel::new(15).unwrap())
            .with_payload_bytes(60);
        assert_eq!(cfg.ntx.max_ntx(), 6);
        assert_eq!(cfg.channel.index(), 15);
        assert!(cfg.packet_airtime() > GlossyConfig::default().packet_airtime());
    }

    proptest! {
        #[test]
        fn prop_larger_payloads_mean_fewer_relay_slots(a in 10usize..100, b in 10usize..100) {
            let (small, large) = if a <= b { (a, b) } else { (b, a) };
            let cfg_s = GlossyConfig::default().with_payload_bytes(small);
            let cfg_l = GlossyConfig::default().with_payload_bytes(large);
            prop_assert!(cfg_s.max_relay_slots() >= cfg_l.max_relay_slots());
        }

        #[test]
        fn prop_max_ntx_bounds_every_node(values in proptest::collection::vec(0u8..=8, 1..40)) {
            let a = NtxAssignment::PerNode(values.clone());
            let max = a.max_ntx();
            for i in 0..values.len() {
                prop_assert!(a.for_node(NodeId(i as u16)) <= max);
            }
        }
    }
}
