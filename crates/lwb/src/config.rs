//! LWB runtime configuration.

use crate::hopping::HoppingSequence;
use dimmer_sim::SimDuration;

/// Configuration of the LWB runtime, matching the paper's evaluation
/// parameters (§V-A "Parameters").
///
/// * rounds have a period of 4 s on the 18-node testbed and 1 s on D-Cube,
/// * slots have a maximum duration of 20 ms,
/// * packets are 30 B long (3 B LWB header + 2 B Dimmer header included),
/// * transmissions at 0 dBm.
///
/// # Examples
///
/// ```
/// use dimmer_lwb::LwbConfig;
/// let cfg = LwbConfig::testbed_default();
/// assert_eq!(cfg.round_period.as_secs_f64(), 4.0);
/// let dcube = LwbConfig::dcube_default();
/// assert_eq!(dcube.round_period.as_secs_f64(), 1.0);
/// assert!(dcube.channel_hopping);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LwbConfig {
    /// Time between the starts of two consecutive rounds.
    pub round_period: SimDuration,
    /// Maximum duration of one slot (control or data); also the Glossy flood
    /// budget.
    pub slot_duration: SimDuration,
    /// Gap between consecutive slots inside a round (processing guard time).
    pub slot_gap: SimDuration,
    /// Application payload size carried in data slots, in bytes.
    pub payload_bytes: usize,
    /// Whether data slots hop over [`HoppingSequence`] channels; control
    /// slots always run on channel 26.
    pub channel_hopping: bool,
    /// The hopping sequence used when `channel_hopping` is enabled.
    pub hopping: HoppingSequence,
}

impl LwbConfig {
    /// Parameters of the 18-node testbed experiments: 4 s rounds, 20 ms
    /// slots, 30 B packets, single channel (26).
    pub fn testbed_default() -> Self {
        LwbConfig {
            round_period: SimDuration::from_secs(4),
            slot_duration: SimDuration::from_millis(20),
            slot_gap: SimDuration::from_millis(1),
            payload_bytes: 30,
            channel_hopping: false,
            hopping: HoppingSequence::dimmer_default(),
        }
    }

    /// Parameters of the D-Cube experiments: 1 s rounds, channel hopping
    /// enabled.
    pub fn dcube_default() -> Self {
        LwbConfig {
            round_period: SimDuration::from_secs(1),
            slot_duration: SimDuration::from_millis(20),
            slot_gap: SimDuration::from_millis(1),
            payload_bytes: 30,
            channel_hopping: true,
            hopping: HoppingSequence::dimmer_default(),
        }
    }

    /// Enables or disables slot-based channel hopping.
    pub fn with_channel_hopping(mut self, enabled: bool) -> Self {
        self.channel_hopping = enabled;
        self
    }

    /// Replaces the round period.
    pub fn with_round_period(mut self, period: SimDuration) -> Self {
        self.round_period = period;
        self
    }

    /// The worst-case duration of a round with `data_slots` data slots
    /// (one control slot plus the data slots, with gaps).
    pub fn round_duration(&self, data_slots: usize) -> SimDuration {
        let slots = data_slots as u64 + 1;
        self.slot_duration * slots + self.slot_gap * slots
    }
}

impl Default for LwbConfig {
    fn default() -> Self {
        Self::testbed_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = LwbConfig::default();
        assert_eq!(cfg.round_period, SimDuration::from_secs(4));
        assert_eq!(cfg.slot_duration, SimDuration::from_millis(20));
        assert_eq!(cfg.payload_bytes, 30);
        assert!(!cfg.channel_hopping);
    }

    #[test]
    fn an_18_slot_round_fits_in_the_4s_period() {
        let cfg = LwbConfig::testbed_default();
        assert!(cfg.round_duration(18) < cfg.round_period);
    }

    #[test]
    fn a_10_slot_round_fits_in_the_1s_dcube_period() {
        let cfg = LwbConfig::dcube_default();
        assert!(cfg.round_duration(10) < cfg.round_period);
    }

    #[test]
    fn round_duration_counts_the_control_slot_and_every_gap() {
        let cfg = LwbConfig::testbed_default();
        assert_eq!(cfg.round_duration(0), SimDuration::from_millis(21));
        assert_eq!(cfg.round_duration(18), SimDuration::from_millis(19 * 21));
    }

    #[test]
    fn builders_update_fields() {
        let cfg = LwbConfig::testbed_default()
            .with_channel_hopping(true)
            .with_round_period(SimDuration::from_secs(2));
        assert!(cfg.channel_hopping);
        assert_eq!(cfg.round_period, SimDuration::from_secs(2));
    }
}
