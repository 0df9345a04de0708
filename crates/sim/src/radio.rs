//! Radio model: IEEE 802.15.4 channels, radio states and energy accounting.
//!
//! The paper's two evaluation metrics are *reliability* and *radio-on time*
//! (the time the CC2420 radio spends listening or transmitting per 20 ms LWB
//! slot, a direct proxy for energy on TelosB-class hardware). This module
//! provides the bookkeeping for the second metric, plus the channel
//! abstraction used by slot-based channel hopping.

use crate::time::SimDuration;
use std::fmt;

/// Nominal CC2420 current draw in receive/listen mode, in milliamperes.
///
/// Used to convert radio-on time into energy (Joules) for the Fig. 7
/// comparison; the exact constants only scale the energy axis.
pub const RX_CURRENT_MA: f64 = 18.8;
/// Nominal CC2420 current draw in transmit mode at 0 dBm, in milliamperes.
pub const TX_CURRENT_MA: f64 = 17.4;
/// Nominal supply voltage of a TelosB mote, in volts.
pub const SUPPLY_VOLTAGE_V: f64 = 3.0;

/// An IEEE 802.15.4 channel in the 2.4 GHz band (channels 11–26).
///
/// Channel 26 is the only channel that does not overlap with the common WiFi
/// channels 1/6/11, which is why the paper runs its control slots there.
///
/// # Examples
///
/// ```
/// use dimmer_sim::Channel;
/// let c = Channel::new(26).unwrap();
/// assert_eq!(c.index(), 26);
/// assert!(Channel::new(5).is_none());
/// assert_eq!(Channel::CONTROL, Channel::new(26).unwrap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Channel(u8);

impl Channel {
    /// Lowest valid 2.4 GHz 802.15.4 channel.
    pub const MIN: u8 = 11;
    /// Highest valid 2.4 GHz 802.15.4 channel.
    pub const MAX: u8 = 26;
    /// The control channel used by Dimmer for schedule slots (channel 26).
    pub const CONTROL: Channel = Channel(26);

    /// Creates a channel, returning `None` if the index is outside 11–26.
    pub const fn new(index: u8) -> Option<Channel> {
        if index >= Self::MIN && index <= Self::MAX {
            Some(Channel(index))
        } else {
            None
        }
    }

    /// Returns the 802.15.4 channel index (11–26).
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Returns the channel's center frequency in MHz (2405 + 5·(k−11)).
    pub const fn center_frequency_mhz(self) -> u16 {
        2405 + 5 * (self.0 as u16 - 11)
    }

    /// Returns `true` if this channel overlaps the spectrum of the given WiFi
    /// channel (1, 6 or 11, each ~22 MHz wide).
    pub fn overlaps_wifi(self, wifi_channel: u8) -> bool {
        let wifi_center: f64 = 2412.0 + 5.0 * (wifi_channel as f64 - 1.0);
        let half_width = 11.0;
        let f = self.center_frequency_mhz() as f64;
        (f - wifi_center).abs() <= half_width
    }

    /// Returns all sixteen 2.4 GHz channels in ascending order.
    pub fn all() -> impl Iterator<Item = Channel> {
        (Self::MIN..=Self::MAX).map(Channel)
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The activity state of a node's radio at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RadioState {
    /// The radio is powered down (negligible current draw).
    #[default]
    Off,
    /// The radio is listening / receiving.
    Rx,
    /// The radio is transmitting.
    Tx,
}

impl RadioState {
    /// Returns `true` while the radio consumes energy (RX or TX).
    pub fn is_on(self) -> bool {
        !matches!(self, RadioState::Off)
    }
}

/// Accumulates radio-on time (split into RX and TX) for a single node.
///
/// The accounting is push-based: protocol code records intervals during which
/// the radio was in a given state. [`RadioAccounting::on_time`] then yields
/// the paper's *radio-on time* metric and [`RadioAccounting::energy_joules`]
/// converts it into energy using CC2420/TelosB constants.
///
/// # Examples
///
/// ```
/// use dimmer_sim::{RadioAccounting, RadioState, SimDuration};
/// let mut acc = RadioAccounting::new();
/// acc.record(RadioState::Rx, SimDuration::from_millis(12));
/// acc.record(RadioState::Tx, SimDuration::from_millis(3));
/// acc.record(RadioState::Off, SimDuration::from_millis(5));
/// assert_eq!(acc.on_time(), SimDuration::from_millis(15));
/// assert!(acc.energy_joules() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RadioAccounting {
    rx_time: SimDuration,
    tx_time: SimDuration,
}

impl RadioAccounting {
    /// Creates an empty accounting record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the radio spent `duration` in `state`.
    ///
    /// Recording [`RadioState::Off`] time is a no-op but allowed so callers
    /// can record every interval uniformly.
    pub fn record(&mut self, state: RadioState, duration: SimDuration) {
        match state {
            RadioState::Off => {}
            RadioState::Rx => self.rx_time += duration,
            RadioState::Tx => self.tx_time += duration,
        }
    }

    /// Total time the radio spent receiving/listening.
    pub fn rx_time(&self) -> SimDuration {
        self.rx_time
    }

    /// Total time the radio spent transmitting.
    pub fn tx_time(&self) -> SimDuration {
        self.tx_time
    }

    /// Total radio-on time (RX + TX) — the paper's energy proxy.
    pub fn on_time(&self) -> SimDuration {
        self.rx_time + self.tx_time
    }

    /// Converts the accumulated on-time into energy in Joules using
    /// CC2420/TelosB current-draw constants.
    pub fn energy_joules(&self) -> f64 {
        let rx_s = self.rx_time.as_secs_f64();
        let tx_s = self.tx_time.as_secs_f64();
        (rx_s * RX_CURRENT_MA + tx_s * TX_CURRENT_MA) * 1e-3 * SUPPLY_VOLTAGE_V
    }

    /// Merges another accounting record into this one.
    pub fn merge(&mut self, other: &RadioAccounting) {
        self.rx_time += other.rx_time;
        self.tx_time += other.tx_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn channel_validation() {
        assert!(Channel::new(10).is_none());
        assert!(Channel::new(27).is_none());
        assert_eq!(Channel::new(11).unwrap().index(), 11);
        assert_eq!(Channel::all().count(), 16);
    }

    #[test]
    fn channel_frequencies_match_standard() {
        assert_eq!(Channel::new(11).unwrap().center_frequency_mhz(), 2405);
        assert_eq!(Channel::new(26).unwrap().center_frequency_mhz(), 2480);
    }

    #[test]
    fn channel_26_avoids_wifi_1_6_11() {
        let c26 = Channel::CONTROL;
        assert!(!c26.overlaps_wifi(1));
        assert!(!c26.overlaps_wifi(6));
        assert!(!c26.overlaps_wifi(11));
        // whereas channel 18 sits inside WiFi channel 6
        let c18 = Channel::new(18).unwrap();
        assert!(c18.overlaps_wifi(6));
    }

    #[test]
    fn radio_state_on_off() {
        assert!(!RadioState::Off.is_on());
        assert!(RadioState::Rx.is_on());
        assert!(RadioState::Tx.is_on());
        assert_eq!(RadioState::default(), RadioState::Off);
    }

    #[test]
    fn accounting_sums_rx_and_tx() {
        let mut acc = RadioAccounting::new();
        acc.record(RadioState::Rx, SimDuration::from_millis(10));
        acc.record(RadioState::Tx, SimDuration::from_millis(2));
        acc.record(RadioState::Off, SimDuration::from_secs(100));
        assert_eq!(acc.rx_time(), SimDuration::from_millis(10));
        assert_eq!(acc.tx_time(), SimDuration::from_millis(2));
        assert_eq!(acc.on_time(), SimDuration::from_millis(12));
    }

    #[test]
    fn energy_is_proportional_to_on_time() {
        let mut a = RadioAccounting::new();
        a.record(RadioState::Rx, SimDuration::from_millis(10));
        let mut b = RadioAccounting::new();
        b.record(RadioState::Rx, SimDuration::from_millis(20));
        assert!((b.energy_joules() / a.energy_joules() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RadioAccounting::new();
        a.record(RadioState::Rx, SimDuration::from_millis(1));
        let mut b = RadioAccounting::new();
        b.record(RadioState::Tx, SimDuration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.on_time(), SimDuration::from_millis(3));
    }

    #[test]
    fn energy_uses_the_cc2420_currents_at_three_volts() {
        let mut rx = RadioAccounting::new();
        rx.record(RadioState::Rx, SimDuration::from_secs(1));
        assert!((rx.energy_joules() - 18.8e-3 * 3.0).abs() < 1e-12);
        let mut tx = RadioAccounting::new();
        tx.record(RadioState::Tx, SimDuration::from_secs(1));
        assert!((tx.energy_joules() - 17.4e-3 * 3.0).abs() < 1e-12);
        assert_eq!(RadioAccounting::new().energy_joules(), 0.0);
    }

    #[test]
    fn channels_list_and_display_in_ascending_order() {
        let all: Vec<Channel> = Channel::all().collect();
        assert_eq!(all.first(), Channel::new(11).as_ref());
        assert_eq!(all.last(), Some(&Channel::CONTROL));
        assert!(
            all.windows(2)
                .all(|w| w[0] < w[1]
                    && w[1].center_frequency_mhz() - w[0].center_frequency_mhz() == 5)
        );
        assert_eq!(Channel::CONTROL.to_string(), "ch26");
    }

    #[test]
    fn only_channels_15_20_25_and_26_miss_wifi_1_6_and_11() {
        let clear: Vec<u8> = Channel::all()
            .filter(|c| [1, 6, 11].iter().all(|&w| !c.overlaps_wifi(w)))
            .map(Channel::index)
            .collect();
        assert_eq!(clear, vec![15, 20, 25, 26]);
    }

    proptest! {
        #[test]
        fn prop_on_time_never_exceeds_recorded_total(intervals in proptest::collection::vec((0u8..3, 0u64..10_000), 0..50)) {
            let mut acc = RadioAccounting::new();
            let mut total = SimDuration::ZERO;
            for (s, us) in intervals {
                let state = match s { 0 => RadioState::Off, 1 => RadioState::Rx, _ => RadioState::Tx };
                let d = SimDuration::from_micros(us);
                total += d;
                acc.record(state, d);
            }
            prop_assert!(acc.on_time() <= total);
        }

        #[test]
        fn prop_energy_non_negative_and_monotone(ms_a in 0u64..1000, ms_b in 0u64..1000) {
            let mut a = RadioAccounting::new();
            a.record(RadioState::Rx, SimDuration::from_millis(ms_a));
            let mut b = a.clone();
            b.record(RadioState::Tx, SimDuration::from_millis(ms_b));
            prop_assert!(a.energy_joules() >= 0.0);
            prop_assert!(b.energy_joules() >= a.energy_joules());
        }
    }
}
