//! Interference models: controlled 802.15.4 jammers, WiFi-style wide-band
//! interference, and composite / time-scheduled scenarios.
//!
//! The paper evaluates Dimmer against
//!
//! * **JamLab-style 802.15.4 jammers** emitting 13 ms bursts at 0 dBm whose
//!   period controls the interference ratio (10 % = one burst every 130 ms,
//!   35 % = every 37 ms) — modelled by [`PeriodicJammer`];
//! * **D-Cube WiFi interference** at two intensity levels — modelled by
//!   [`WifiInterference`] with [`WifiLevel::Level1`] / [`WifiLevel::Level2`];
//! * **dynamic scenarios** where jammers are switched on and off over a
//!   25-minute experiment (Fig. 4c/4d) — modelled by
//!   [`ScheduledInterference`].
//!
//! All models answer one question: *which fraction of a given time interval,
//! on a given channel, at a given receiver position, is corrupted by
//! interference?* ([`InterferenceModel::busy_fraction`]). The Glossy flood
//! simulation multiplies per-link reception probabilities by
//! `1 − busy_fraction` for each packet it delivers.

use crate::radio::Channel;
use crate::time::{SimDuration, SimTime};
use crate::topology::Position;
use std::fmt::Debug;

/// The duration of one interference burst used throughout the paper (13 ms),
/// corresponding to a typical WiFi packet burst.
pub const BURST_DURATION: SimDuration = SimDuration::from_millis(13);

/// A source of interference observed by receivers.
///
/// Implementations must be deterministic functions of their parameters and of
/// simulated time so that experiments are reproducible. Models are
/// `Send + Sync` (plain parameter data): a cached world can hold its model
/// and be shared across worker threads.
pub trait InterferenceModel: Debug + Send + Sync {
    /// Returns the fraction (`0..=1`) of the interval
    /// `[start, start + duration)` during which reception at position `at` on
    /// `channel` is corrupted by this interference source.
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64;

    /// Returns `true` if the source can emit any energy at time `t`
    /// (irrespective of channel or position). Used by tests and scenario
    /// sanity checks; the default is `true`.
    fn is_active(&self, _t: SimTime) -> bool {
        true
    }

    /// Returns `true` if [`busy_fraction`](Self::busy_fraction) is `0.0` for
    /// *every* possible query — i.e. the model never corrupts anything.
    ///
    /// The optimized flood kernel uses this to skip the per-receiver
    /// interference lookup on calm scenarios entirely; because the skipped
    /// calls would all have returned exactly `0.0`, the shortcut is
    /// bit-identical to querying the model. The conservative default is
    /// `false`.
    fn is_always_idle(&self) -> bool {
        false
    }

    /// Compiles the model into a per-node *interference mask* evaluator for
    /// a fixed set of receiver positions, or `None` if the model has no
    /// fast path (callers then fall back to per-receiver
    /// [`busy_fraction`](Self::busy_fraction) calls).
    ///
    /// The returned [`SlotInterference`] hoists everything
    /// position-dependent but time-independent (e.g. a jammer's distance
    /// roll-off) out of the per-slot loop: one call fills the busy fraction
    /// of *every* node for a slot, and is required to be **bitwise
    /// identical** to calling `busy_fraction` once per position.
    fn compile_for(&self, _positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        None
    }

    /// Specialization hook: returns `Some` when the model is a single
    /// [`PeriodicJammer`]. [`CompositeInterference::compile_for`] uses it to
    /// fuse an all-jammer composite (the paper's standard interference
    /// shape) into a single-pass bank instead of chaining generic
    /// evaluators. The default is `None`.
    fn as_periodic_jammer(&self) -> Option<&PeriodicJammer> {
        None
    }
}

/// A compiled per-slot interference evaluator over a fixed node set — the
/// "interference mask" companion of a compiled topology.
///
/// Obtained from [`InterferenceModel::compile_for`]. Implementations may
/// keep internal scratch (hence `&mut self`) but must stay deterministic:
/// `busy_for_slot` filling `out[i]` must equal
/// `busy_fraction(start, duration_us, channel, positions[i])` bit-for-bit
/// for the positions the evaluator was compiled for.
///
/// Evaluators are `Send + Sync` (they are plain data between calls) and
/// [cloneable](SlotInterference::box_clone), so a parallel flood batch
/// hands each worker thread a private copy of its simulator's bank.
pub trait SlotInterference: Debug + Send + Sync {
    /// Fills `out[i]` with the busy fraction node `i` observes during
    /// `[start, start + duration_us)` on `channel`.
    ///
    /// # Panics
    ///
    /// May panic if `out` is shorter than the compiled position set.
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    );

    /// Returns a boxed copy of this evaluator, including any internal
    /// scratch state. Cloning a freshly compiled evaluator yields a
    /// pristine prototype safe to hand to another thread.
    fn box_clone(&self) -> Box<dyn SlotInterference>;
}

/// The absence of interference.
///
/// # Examples
///
/// ```
/// use dimmer_sim::{NoInterference, InterferenceModel, SimTime, Channel, Position};
/// let none = NoInterference;
/// assert_eq!(none.busy_fraction(SimTime::ZERO, 1_000, Channel::CONTROL, Position::new(0.0, 0.0)), 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoInterference;

impl InterferenceModel for NoInterference {
    fn busy_fraction(&self, _: SimTime, _: u64, _: Channel, _: Position) -> f64 {
        0.0
    }
    fn is_active(&self, _: SimTime) -> bool {
        false
    }
    fn is_always_idle(&self) -> bool {
        true
    }
    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        Some(Box::new(CompiledNoInterference {
            nodes: positions.len(),
        }))
    }
}

/// Compiled form of [`NoInterference`]: fills zeros.
#[derive(Debug, Clone)]
struct CompiledNoInterference {
    nodes: usize,
}

impl SlotInterference for CompiledNoInterference {
    fn busy_for_slot(&mut self, _: SimTime, _: u64, _: Channel, out: &mut [f64]) {
        out[..self.nodes].fill(0.0);
    }
    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(self.clone())
    }
}

/// A JamLab-style 802.15.4 jammer emitting periodic bursts on a set of
/// channels from a fixed position.
///
/// Each burst lasts [`BURST_DURATION`] (13 ms). The *interference ratio*
/// (duty cycle) is `burst / period`. The jammer's effect decays with distance
/// from the jammer: receivers within [`PeriodicJammer::jam_radius_m`] are
/// fully corrupted during a burst, beyond that the corruption probability
/// falls off smoothly (the paper's coordinator is only "moderately perturbed"
/// by its nearest jammer).
///
/// # Examples
///
/// ```
/// use dimmer_sim::{PeriodicJammer, InterferenceModel, SimTime, Channel, Position};
/// // 30 % duty cycle: 13 ms burst every ~43 ms (as in Fig. 4c).
/// let j = PeriodicJammer::with_duty_cycle(Position::new(5.0, 10.0), 0.30);
/// assert!((j.duty_cycle() - 0.30).abs() < 0.01);
/// let f = j.busy_fraction(SimTime::ZERO, 43_000, Channel::CONTROL, Position::new(5.0, 11.0));
/// assert!(f > 0.25 && f < 0.35);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicJammer {
    position: Position,
    burst: SimDuration,
    period: SimDuration,
    /// Distance within which a burst corrupts reception with probability ~1.
    pub jam_radius_m: f64,
    /// Channels affected; `None` means all 16 channels (wideband jammer).
    channels: Option<Vec<Channel>>,
    /// Phase offset of the first burst within the period.
    phase: SimDuration,
}

impl PeriodicJammer {
    /// Creates a jammer with an explicit burst length and period.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or shorter than `burst`.
    pub fn new(position: Position, burst: SimDuration, period: SimDuration) -> Self {
        assert!(period.as_micros() > 0, "jammer period must be positive");
        assert!(burst <= period, "burst must fit within the period");
        PeriodicJammer {
            position,
            burst,
            period,
            jam_radius_m: 12.0,
            channels: None,
            phase: SimDuration::ZERO,
        }
    }

    /// Creates a jammer producing 13 ms bursts at the given duty cycle
    /// (`0 <= duty_cycle <= 1`), matching the paper's interference-ratio
    /// definition. The boundary values are exact: `0.0` never emits (and
    /// reports [`is_always_idle`](InterferenceModel::is_always_idle)),
    /// `1.0` jams continuously (`burst == period`).
    ///
    /// # Panics
    ///
    /// Panics if `duty_cycle` is not in `[0, 1]`.
    pub fn with_duty_cycle(position: Position, duty_cycle: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&duty_cycle),
            "duty cycle must be in [0, 1]"
        );
        if duty_cycle == 0.0 {
            // A silent jammer: zero-length bursts on an arbitrary period.
            return Self::new(position, SimDuration::ZERO, BURST_DURATION);
        }
        let period_us = (BURST_DURATION.as_micros() as f64 / duty_cycle).round() as u64;
        Self::new(
            position,
            BURST_DURATION,
            SimDuration::from_micros(period_us),
        )
    }

    /// Restricts the jammer to a set of channels (e.g. only channel 26, as in
    /// the paper's controlled experiments).
    pub fn on_channels(mut self, channels: Vec<Channel>) -> Self {
        self.channels = Some(channels);
        self
    }

    /// Sets the phase offset of the burst train.
    pub fn with_phase(mut self, phase: SimDuration) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the full-corruption radius in meters.
    pub fn with_jam_radius(mut self, radius_m: f64) -> Self {
        self.jam_radius_m = radius_m;
        self
    }

    /// The jammer's duty cycle (burst / period).
    pub fn duty_cycle(&self) -> f64 {
        self.burst.as_micros() as f64 / self.period.as_micros() as f64
    }

    /// The jammer position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// The two-jammer configuration used on the 18-node testbed (Fig. 4a):
    /// one jammer near the coordinator's side of the floor, one near the
    /// middle, both at the given duty cycle, restricted to channel 26.
    pub fn kiel_pair(duty_cycle: f64) -> Vec<PeriodicJammer> {
        vec![
            PeriodicJammer::with_duty_cycle(Position::new(5.0, 9.0), duty_cycle)
                .on_channels(vec![Channel::CONTROL]),
            PeriodicJammer::with_duty_cycle(Position::new(16.0, 16.0), duty_cycle)
                .on_channels(vec![Channel::CONTROL])
                .with_phase(SimDuration::from_millis(7)),
        ]
    }

    /// Corruption strength (`0..=1`) experienced at distance `d` from the
    /// jammer while a burst is on the air.
    fn strength_at(&self, at: Position) -> f64 {
        Self::strength_between(self.position, at, self.jam_radius_m)
    }

    /// The distance roll-off shared by the static and mobile jammer forms:
    /// ~1 inside the jam radius, ~0.5 at 1.35x the radius, negligible
    /// beyond ~2.5x the radius.
    fn strength_between(jammer: Position, at: Position, radius_m: f64) -> f64 {
        let d = jammer.distance_to(at);
        1.0 / (1.0 + (d / radius_m).powi(6))
    }

    fn affects_channel(&self, channel: Channel) -> bool {
        match &self.channels {
            None => true,
            Some(list) => list.contains(&channel),
        }
    }

    /// Fraction of `[start, start+duration)` covered by bursts, ignoring
    /// channel and position.
    fn burst_overlap_fraction(&self, start: SimTime, duration_us: u64) -> f64 {
        if duration_us == 0 || self.burst.as_micros() == 0 {
            return 0.0;
        }
        let period = self.period.as_micros();
        let burst = self.burst.as_micros();
        let phase = self.phase.as_micros() % period;
        let s = start.as_micros();
        let e = s + duration_us;
        // Sum the overlap with every burst window [k*period + phase, +burst).
        let first_k = s.saturating_sub(phase).saturating_sub(burst) / period;
        let mut covered = 0u64;
        let mut k = first_k;
        loop {
            let b_start = k * period + phase;
            if b_start >= e {
                break;
            }
            let b_end = b_start + burst;
            let lo = b_start.max(s);
            let hi = b_end.min(e);
            if hi > lo {
                covered += hi - lo;
            }
            k += 1;
        }
        covered as f64 / duration_us as f64
    }
}

/// The testbed's [`PeriodicJammer::kiel_pair`] as one composite at the
/// given duty cycle. A duty cycle of 0 gives the empty composite, which is
/// always idle, exactly like [`NoInterference`].
///
/// # Examples
///
/// ```
/// use dimmer_sim::{kiel_jamming, Channel, InterferenceModel, Position, SimTime};
/// let jammed = kiel_jamming(0.30);
/// assert_eq!(jammed.len(), 2);
/// // Next to the first jammer, its first 13 ms burst corrupts channel 26.
/// let near = Position::new(5.0, 9.0);
/// assert!(jammed.busy_fraction(SimTime::ZERO, 1_000, Channel::CONTROL, near) > 0.9);
/// assert!(kiel_jamming(0.0).is_always_idle());
/// ```
pub fn kiel_jamming(duty_cycle: f64) -> CompositeInterference {
    let mut comp = CompositeInterference::new();
    if duty_cycle > 0.0 {
        for j in PeriodicJammer::kiel_pair(duty_cycle) {
            comp.push(Box::new(j));
        }
    }
    comp
}

impl InterferenceModel for PeriodicJammer {
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64 {
        if !self.affects_channel(channel) {
            return 0.0;
        }
        let overlap = self.burst_overlap_fraction(start, duration_us);
        (overlap * self.strength_at(at)).clamp(0.0, 1.0)
    }

    fn is_always_idle(&self) -> bool {
        // A zero-duty jammer never emits; a jammer restricted to an empty
        // channel list can never affect a query.
        self.burst.as_micros() == 0 || self.channels.as_ref().is_some_and(|c| c.is_empty())
    }

    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        // A jammer that never moves: the mobile evaluator with no waypoints
        // caches the same roll-off once and evaluates the same per-slot
        // expression.
        MobileJammer::new(self.clone(), Vec::new()).compile_for(positions)
    }

    fn as_periodic_jammer(&self) -> Option<&PeriodicJammer> {
        Some(self)
    }
}

/// A [`PeriodicJammer`] that relocates over time: the roaming interference
/// source of the dynamic-world scenarios.
///
/// The jammer keeps its burst pattern (period, phase, duty cycle, channels,
/// jam radius) but its *position* is a piecewise-constant function of
/// simulated time given by a waypoint list: at time `t` it sits at the
/// waypoint with the greatest timestamp `<= t` (and at the base jammer's
/// position before the first waypoint). Relocations are instantaneous,
/// matching the paper's experiments where a jammer is carried to a new spot
/// between measurement phases.
///
/// The waypoints are the jammer's whole path: a scenario with a roaming
/// jammer carries its stops here, not in its
/// [`ScenarioScript`](crate::world::ScenarioScript), which holds only the
/// events a [`World`](crate::world::World) applies.
///
/// # Examples
///
/// ```
/// use dimmer_sim::{MobileJammer, PeriodicJammer, InterferenceModel, SimTime, Channel, Position};
/// let base = PeriodicJammer::with_duty_cycle(Position::new(0.0, 0.0), 1.0);
/// let jam = MobileJammer::new(base, vec![(SimTime::from_secs(60), Position::new(100.0, 0.0))]);
/// let near_t0 = jam.busy_fraction(SimTime::ZERO, 13_000, Channel::CONTROL, Position::new(1.0, 0.0));
/// let near_t60 = jam.busy_fraction(SimTime::from_secs(60), 13_000, Channel::CONTROL, Position::new(1.0, 0.0));
/// assert!(near_t0 > 0.9, "jammer starts next to the receiver");
/// assert!(near_t60 < 0.05, "after relocating 100 m away it barely registers");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MobileJammer {
    base: PeriodicJammer,
    /// `(time, position)` waypoints, ascending by time.
    waypoints: Vec<(SimTime, Position)>,
}

impl MobileJammer {
    /// Creates a mobile jammer from a base burst pattern and a waypoint
    /// list (sorted by time internally; equal timestamps keep their order,
    /// the later entry winning).
    pub fn new(base: PeriodicJammer, mut waypoints: Vec<(SimTime, Position)>) -> Self {
        waypoints.sort_by_key(|(t, _)| *t);
        MobileJammer { base, waypoints }
    }

    /// The burst pattern the jammer emits wherever it currently sits.
    pub fn base(&self) -> &PeriodicJammer {
        &self.base
    }

    /// The waypoint list, ascending by time.
    pub fn waypoints(&self) -> &[(SimTime, Position)] {
        &self.waypoints
    }

    /// Index of the waypoint segment active at `t`: the number of waypoints
    /// with timestamp `<= t` (0 = still at the base position).
    fn segment_at(&self, t: SimTime) -> usize {
        self.waypoints.partition_point(|(w, _)| *w <= t)
    }

    /// The jammer's position at time `t`.
    pub fn position_at(&self, t: SimTime) -> Position {
        match self.segment_at(t) {
            0 => self.base.position(),
            s => self.waypoints[s - 1].1,
        }
    }
}

impl InterferenceModel for MobileJammer {
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64 {
        if !self.base.affects_channel(channel) {
            return 0.0;
        }
        let overlap = self.base.burst_overlap_fraction(start, duration_us);
        let strength =
            PeriodicJammer::strength_between(self.position_at(start), at, self.base.jam_radius_m);
        (overlap * strength).clamp(0.0, 1.0)
    }

    fn is_always_idle(&self) -> bool {
        self.base.is_always_idle()
    }

    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        Some(Box::new(CompiledMobileJammer {
            jammer: self.clone(),
            positions: positions.to_vec(),
            segment: usize::MAX,
            strengths: vec![0.0; positions.len()],
        }))
    }
}

/// Compiled form of [`MobileJammer`]: per-node strengths are cached per
/// waypoint segment and recomputed only when the jammer actually moved.
#[derive(Debug, Clone)]
struct CompiledMobileJammer {
    jammer: MobileJammer,
    positions: Vec<Position>,
    /// The waypoint segment the cached strengths were computed for
    /// (`usize::MAX` = not yet computed).
    segment: usize,
    strengths: Vec<f64>,
}

impl SlotInterference for CompiledMobileJammer {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        let n = self.positions.len();
        if !self.jammer.base.affects_channel(channel) {
            out[..n].fill(0.0);
            return;
        }
        let overlap = self.jammer.base.burst_overlap_fraction(start, duration_us);
        if overlap == 0.0 {
            out[..n].fill(0.0);
            return;
        }
        let segment = self.jammer.segment_at(start);
        if segment != self.segment {
            let pos = self.jammer.position_at(start);
            let radius = self.jammer.base.jam_radius_m;
            for (s, &p) in self.strengths.iter_mut().zip(&self.positions) {
                // The identical expression `busy_fraction` evaluates.
                *s = PeriodicJammer::strength_between(pos, p, radius);
            }
            self.segment = segment;
        }
        for (o, &s) in out[..n].iter_mut().zip(&self.strengths) {
            *o = (overlap * s).clamp(0.0, 1.0);
        }
    }
    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(self.clone())
    }
}

/// Intensity of the D-Cube WiFi interference scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WifiLevel {
    /// D-Cube "WiFi level 1": moderate interference.
    Level1,
    /// D-Cube "WiFi level 2": strong interference (the paper's headline
    /// 95.8 %-reliability scenario).
    Level2,
}

impl WifiLevel {
    /// Average fraction of air time occupied by WiFi traffic at this level.
    pub fn duty_cycle(self) -> f64 {
        match self {
            WifiLevel::Level1 => 0.30,
            WifiLevel::Level2 => 0.55,
        }
    }
}

/// Wide-band, bursty WiFi-style interference covering the whole deployment.
///
/// Time is divided into frames of [`WifiInterference::FRAME`] length; each
/// frame is independently busy with a probability derived from the level's
/// duty cycle and a per-channel susceptibility factor (different 802.15.4
/// channels overlap the active WiFi channels to different degrees). The busy
/// pattern is a deterministic hash of `(frame index, channel, seed)`, so runs
/// are reproducible while different seeds give different realizations.
///
/// # Examples
///
/// ```
/// use dimmer_sim::{WifiInterference, WifiLevel, InterferenceModel, SimTime, Channel, Position};
/// let wifi = WifiInterference::new(WifiLevel::Level2, 1);
/// let f = wifi.busy_fraction(SimTime::ZERO, 1_000_000, Channel::new(20).unwrap(), Position::new(0.0, 0.0));
/// assert!(f > 0.2 && f < 0.9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WifiInterference {
    level: WifiLevel,
    seed: u64,
}

impl WifiInterference {
    /// Length of one busy/idle decision frame.
    pub const FRAME: SimDuration = SimDuration::from_millis(4);

    /// Creates a WiFi interference source with the given level and seed.
    pub fn new(level: WifiLevel, seed: u64) -> Self {
        WifiInterference { level, seed }
    }

    /// The interference level.
    pub fn level(&self) -> WifiLevel {
        self.level
    }

    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Per-channel susceptibility in `[0.55, 1.0]`: every channel is affected
    /// (the D-Cube generators sweep the band), but not equally.
    fn channel_factor(&self, channel: Channel) -> f64 {
        let h = Self::splitmix(self.seed ^ (channel.index() as u64) << 32 ^ 0xC0FFEE);
        0.55 + 0.45 * ((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn frame_busy(&self, frame_index: u64, channel: Channel) -> bool {
        let h = Self::splitmix(
            self.seed ^ frame_index.wrapping_mul(0x517C_C1B7_2722_0A95) ^ (channel.index() as u64),
        );
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        u < self.level.duty_cycle() * self.channel_factor(channel)
    }
}

impl InterferenceModel for WifiInterference {
    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        Some(self.compile_wifi(positions))
    }

    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        _at: Position,
    ) -> f64 {
        if duration_us == 0 {
            return 0.0;
        }
        let frame = Self::FRAME.as_micros();
        let s = start.as_micros();
        let e = s + duration_us;
        let mut covered = 0u64;
        let mut f = s / frame;
        loop {
            let f_start = f * frame;
            if f_start >= e {
                break;
            }
            let f_end = f_start + frame;
            if self.frame_busy(f, channel) {
                let lo = f_start.max(s);
                let hi = f_end.min(e);
                covered += hi - lo;
            }
            f += 1;
        }
        covered as f64 / duration_us as f64
    }
}

impl WifiInterference {
    /// Wide-band WiFi is position-independent, so the compiled form
    /// evaluates the frame pattern once per slot and broadcasts it.
    fn compile_wifi(&self, positions: &[Position]) -> Box<dyn SlotInterference> {
        Box::new(CompiledWifi {
            wifi: self.clone(),
            nodes: positions.len(),
        })
    }
}

/// Compiled form of [`WifiInterference`].
#[derive(Debug, Clone)]
struct CompiledWifi {
    wifi: WifiInterference,
    nodes: usize,
}

impl SlotInterference for CompiledWifi {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        let f = self
            .wifi
            .busy_fraction(start, duration_us, channel, Position::new(0.0, 0.0));
        out[..self.nodes].fill(f);
    }
    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(self.clone())
    }
}

/// Several interference sources active at the same time.
///
/// The combined corruption probability is
/// `1 − Π (1 − fᵢ)` over the member sources.
#[derive(Debug, Default)]
pub struct CompositeInterference {
    sources: Vec<Box<dyn InterferenceModel>>,
}

impl CompositeInterference {
    /// Creates an empty composite (equivalent to [`NoInterference`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a source.
    pub fn push(&mut self, source: Box<dyn InterferenceModel>) {
        self.sources.push(source);
    }

    /// Builds a composite from a vector of sources.
    pub fn from_sources(sources: Vec<Box<dyn InterferenceModel>>) -> Self {
        CompositeInterference { sources }
    }

    /// Number of member sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Returns `true` if the composite has no member sources.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

impl InterferenceModel for CompositeInterference {
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64 {
        let mut clear = 1.0;
        for s in &self.sources {
            clear *= 1.0
                - s.busy_fraction(start, duration_us, channel, at)
                    .clamp(0.0, 1.0);
        }
        1.0 - clear
    }

    fn is_active(&self, t: SimTime) -> bool {
        self.sources.iter().any(|s| s.is_active(t))
    }

    fn is_always_idle(&self) -> bool {
        self.sources.iter().all(|s| s.is_always_idle())
    }

    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        // Fast path: a composite of pure jammers (the paper's testbed
        // interference) fuses into a single-pass bank.
        if !self.sources.is_empty() {
            let jammers: Option<Vec<&PeriodicJammer>> = self
                .sources
                .iter()
                .map(|s| s.as_periodic_jammer())
                .collect();
            if let Some(jammers) = jammers {
                let nodes = positions.len();
                let mut strengths = Vec::with_capacity(jammers.len() * nodes);
                for j in &jammers {
                    strengths.extend(positions.iter().map(|&p| j.strength_at(p)));
                }
                return Some(Box::new(CompiledJammerBank {
                    jammers: jammers.into_iter().cloned().collect(),
                    strengths,
                    nodes,
                }));
            }
        }
        // Generic path: compiles only if every member compiles; member
        // order is preserved so the per-node combination multiplies the
        // same factors in the same sequence as `busy_fraction`.
        let members: Option<Vec<_>> = self
            .sources
            .iter()
            .map(|s| s.compile_for(positions))
            .collect();
        Some(Box::new(CompiledComposite {
            members: members?,
            scratch: vec![0.0; positions.len()],
        }))
    }
}

/// Fused compiled form of a [`CompositeInterference`] whose members are all
/// [`PeriodicJammer`]s: one burst-overlap evaluation per jammer per slot,
/// then a single pass per node combining the cached strengths.
#[derive(Debug, Clone)]
struct CompiledJammerBank {
    jammers: Vec<PeriodicJammer>,
    /// Row-major `jammers × nodes` cached `strength_at` values.
    strengths: Vec<f64>,
    nodes: usize,
}

impl SlotInterference for CompiledJammerBank {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        let n = self.nodes;
        out[..n].fill(1.0);
        for (k, j) in self.jammers.iter().enumerate() {
            // A channel-gated or currently-silent jammer contributes
            // `1 - 0.clamp() = 1`, a bitwise no-op on the clear product —
            // skip it.
            if !j.affects_channel(channel) {
                continue;
            }
            let overlap = j.burst_overlap_fraction(start, duration_us);
            if overlap == 0.0 {
                continue;
            }
            let row = &self.strengths[k * n..(k + 1) * n];
            for (o, &s) in out[..n].iter_mut().zip(row) {
                *o *= 1.0 - (overlap * s).clamp(0.0, 1.0);
            }
        }
        for o in out[..n].iter_mut() {
            *o = 1.0 - *o;
        }
    }
    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(self.clone())
    }
}

/// Compiled form of [`CompositeInterference`].
#[derive(Debug)]
struct CompiledComposite {
    members: Vec<Box<dyn SlotInterference>>,
    scratch: Vec<f64>,
}

impl SlotInterference for CompiledComposite {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        let n = self.scratch.len();
        // `out` accumulates the clear probability, then flips at the end —
        // per node this is exactly the fold `busy_fraction` computes.
        out[..n].fill(1.0);
        for member in &mut self.members {
            member.busy_for_slot(start, duration_us, channel, &mut self.scratch);
            for (o, &f) in out[..n].iter_mut().zip(&self.scratch) {
                *o *= 1.0 - f.clamp(0.0, 1.0);
            }
        }
        for o in out[..n].iter_mut() {
            *o = 1.0 - *o;
        }
    }
    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(CompiledComposite {
            members: self.members.iter().map(|m| m.box_clone()).collect(),
            scratch: self.scratch.clone(),
        })
    }
}

/// An interference source that is only active during a set of time windows.
///
/// Used to express dynamic scenarios such as Fig. 4c: calm for 7 minutes,
/// then 30 % jamming for 5 minutes, calm again, then 5 % jamming, then calm.
#[derive(Debug)]
pub struct ScheduledInterference {
    windows: Vec<(SimTime, SimTime, Box<dyn InterferenceModel>)>,
}

impl ScheduledInterference {
    /// Creates an empty schedule (no interference at any time).
    pub fn new() -> Self {
        ScheduledInterference {
            windows: Vec::new(),
        }
    }

    /// Adds an interference source active during `[from, until)`.
    ///
    /// # Panics
    ///
    /// Panics if `until <= from`.
    pub fn add_window(
        &mut self,
        from: SimTime,
        until: SimTime,
        source: Box<dyn InterferenceModel>,
    ) -> &mut Self {
        assert!(
            until > from,
            "interference window must have positive length"
        );
        self.windows.push((from, until, source));
        self
    }

    /// Number of scheduled windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Returns `true` if no windows are scheduled.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

impl Default for ScheduledInterference {
    fn default() -> Self {
        Self::new()
    }
}

impl InterferenceModel for ScheduledInterference {
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64 {
        let end = start + SimDuration::from_micros(duration_us);
        let mut clear = 1.0;
        for (from, until, source) in &self.windows {
            // Clip the query interval to the window.
            let lo = start.max(*from);
            let hi = end.min(*until);
            if hi <= lo {
                continue;
            }
            let clipped_us = (hi - lo).as_micros();
            let f = source.busy_fraction(lo, clipped_us, channel, at)
                * (clipped_us as f64 / duration_us.max(1) as f64);
            clear *= 1.0 - f.clamp(0.0, 1.0);
        }
        1.0 - clear
    }

    fn is_active(&self, t: SimTime) -> bool {
        self.windows
            .iter()
            .any(|(from, until, s)| t >= *from && t < *until && s.is_active(t))
    }

    fn is_always_idle(&self) -> bool {
        self.windows.iter().all(|(_, _, s)| s.is_always_idle())
    }

    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        let windows: Option<Vec<_>> = self
            .windows
            .iter()
            .map(|(from, until, s)| s.compile_for(positions).map(|c| (*from, *until, c)))
            .collect();
        Some(Box::new(CompiledScheduled {
            windows: windows?,
            scratch: vec![0.0; positions.len()],
        }))
    }
}

/// Compiled form of [`ScheduledInterference`].
#[derive(Debug)]
struct CompiledScheduled {
    windows: Vec<(SimTime, SimTime, Box<dyn SlotInterference>)>,
    scratch: Vec<f64>,
}

impl SlotInterference for CompiledScheduled {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        let n = self.scratch.len();
        let end = start + SimDuration::from_micros(duration_us);
        out[..n].fill(1.0);
        for (from, until, member) in &mut self.windows {
            // Clip the query interval to the window (as `busy_fraction`).
            let lo = start.max(*from);
            let hi = end.min(*until);
            if hi <= lo {
                continue;
            }
            let clipped_us = (hi - lo).as_micros();
            let scale = clipped_us as f64 / duration_us.max(1) as f64;
            member.busy_for_slot(lo, clipped_us, channel, &mut self.scratch);
            for (o, &f) in out[..n].iter_mut().zip(&self.scratch) {
                *o *= 1.0 - (f * scale).clamp(0.0, 1.0);
            }
        }
        for o in out[..n].iter_mut() {
            *o = 1.0 - *o;
        }
    }
    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(CompiledScheduled {
            windows: self
                .windows
                .iter()
                .map(|(from, until, member)| (*from, *until, member.box_clone()))
                .collect(),
            scratch: self.scratch.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn here() -> Position {
        Position::new(5.0, 9.5)
    }

    #[test]
    fn no_interference_is_always_zero() {
        let n = NoInterference;
        assert_eq!(
            n.busy_fraction(SimTime::from_secs(5), 20_000, Channel::CONTROL, here()),
            0.0
        );
        assert!(!n.is_active(SimTime::ZERO));
    }

    #[test]
    fn always_idle_classifies_models_correctly() {
        assert!(NoInterference.is_always_idle());
        assert!(!PeriodicJammer::with_duty_cycle(here(), 0.3).is_always_idle());
        assert!(!WifiInterference::new(WifiLevel::Level1, 1).is_always_idle());
        // Composites and schedules are idle exactly when all members are.
        let mut comp = CompositeInterference::new();
        assert!(comp.is_always_idle());
        comp.push(Box::new(NoInterference));
        assert!(comp.is_always_idle());
        comp.push(Box::new(PeriodicJammer::with_duty_cycle(here(), 0.2)));
        assert!(!comp.is_always_idle());
        let mut sched = ScheduledInterference::new();
        assert!(sched.is_always_idle());
        sched.add_window(
            SimTime::ZERO,
            SimTime::from_secs(1),
            Box::new(PeriodicJammer::with_duty_cycle(here(), 0.2)),
        );
        assert!(!sched.is_always_idle());
    }

    #[test]
    fn compiled_masks_match_busy_fraction_bitwise() {
        let positions: Vec<Position> = (0..12)
            .map(|i| Position::new(i as f64 * 2.5, (i % 4) as f64 * 3.0))
            .collect();
        let jam = PeriodicJammer::with_duty_cycle(here(), 0.3).on_channels(vec![Channel::CONTROL]);
        let wifi = WifiInterference::new(WifiLevel::Level2, 7);
        let mut comp = CompositeInterference::new();
        comp.push(Box::new(PeriodicJammer::with_duty_cycle(here(), 0.25)));
        comp.push(Box::new(WifiInterference::new(WifiLevel::Level1, 3)));
        let mut sched = ScheduledInterference::new();
        sched.add_window(
            SimTime::from_millis(10),
            SimTime::from_millis(60),
            Box::new(PeriodicJammer::with_duty_cycle(here(), 0.5)),
        );
        let models: [&dyn InterferenceModel; 5] = [&NoInterference, &jam, &wifi, &comp, &sched];
        for model in models {
            let mut compiled = model
                .compile_for(&positions)
                .expect("all built-in models compile");
            let mut out = vec![0.0; positions.len()];
            for (start_ms, dur, ch) in [
                (0u64, 1_372u64, Channel::CONTROL),
                (15, 20_000, Channel::CONTROL),
                (40, 5_000, Channel::new(15).unwrap()),
                (123, 43_000, Channel::new(20).unwrap()),
            ] {
                let start = SimTime::from_millis(start_ms);
                compiled.busy_for_slot(start, dur, ch, &mut out);
                for (i, &p) in positions.iter().enumerate() {
                    let expected = model.busy_fraction(start, dur, ch, p);
                    assert!(
                        out[i] == expected,
                        "mask diverged: {model:?} node {i} at {start_ms} ms ({} vs {expected})",
                        out[i]
                    );
                }
            }
        }
    }

    #[test]
    fn jammer_duty_cycle_matches_paper_examples() {
        // 10% interference = 13 ms burst every 130 ms.
        let j = PeriodicJammer::with_duty_cycle(here(), 0.10);
        assert_eq!(j.duty_cycle(), 0.10);
        // 35% interference = 13 ms burst every ~37 ms.
        let j = PeriodicJammer::with_duty_cycle(here(), 0.35);
        assert!((j.duty_cycle() - 0.35).abs() < 0.01);
    }

    #[test]
    fn jammer_long_interval_overlap_converges_to_duty_cycle() {
        let j = PeriodicJammer::with_duty_cycle(here(), 0.30);
        let f = j.busy_fraction(SimTime::ZERO, 10_000_000, Channel::CONTROL, here());
        assert!((f - 0.30).abs() < 0.02, "got {f}");
    }

    #[test]
    fn jammer_burst_fully_covers_short_interval_inside_burst() {
        let j = PeriodicJammer::with_duty_cycle(here(), 0.30);
        // 1 ms packet right at the start of a burst, receiver next to jammer.
        let f = j.busy_fraction(SimTime::from_millis(1), 1_000, Channel::CONTROL, here());
        assert!(f > 0.95, "got {f}");
        // 1 ms packet in the silent part of the period.
        let f = j.busy_fraction(SimTime::from_millis(20), 1_000, Channel::CONTROL, here());
        assert!(f < 0.05, "got {f}");
    }

    #[test]
    fn jammer_effect_decays_with_distance() {
        let j = PeriodicJammer::with_duty_cycle(Position::new(0.0, 0.0), 1.0);
        let near = j.busy_fraction(
            SimTime::ZERO,
            13_000,
            Channel::CONTROL,
            Position::new(1.0, 0.0),
        );
        let mid = j.busy_fraction(
            SimTime::ZERO,
            13_000,
            Channel::CONTROL,
            Position::new(14.0, 0.0),
        );
        let far = j.busy_fraction(
            SimTime::ZERO,
            13_000,
            Channel::CONTROL,
            Position::new(40.0, 0.0),
        );
        assert!(near > 0.9);
        assert!(mid < near && mid > far);
        assert!(far < 0.05);
    }

    #[test]
    fn jammer_channel_restriction() {
        let j = PeriodicJammer::with_duty_cycle(here(), 0.5).on_channels(vec![Channel::CONTROL]);
        let on = j.busy_fraction(SimTime::ZERO, 100_000, Channel::CONTROL, here());
        let off = j.busy_fraction(SimTime::ZERO, 100_000, Channel::new(15).unwrap(), here());
        assert!(on > 0.3);
        assert_eq!(off, 0.0);
    }

    #[test]
    fn kiel_jamming_zero_is_empty() {
        assert!(kiel_jamming(0.0).is_empty());
        assert!(kiel_jamming(0.0).is_always_idle());
        assert_eq!(kiel_jamming(0.3).len(), 2);
    }

    #[test]
    fn kiel_jamming_combines_the_kiel_pair() {
        let jamming = kiel_jamming(0.25);
        let pair = PeriodicJammer::kiel_pair(0.25);
        let mut jammed = 0;
        for at in [Position::new(5.0, 9.0), Position::new(12.0, 12.0)] {
            for start_ms in [0, 3, 9, 40] {
                let start = SimTime::from_millis(start_ms);
                let clear: f64 = pair
                    .iter()
                    .map(|j| 1.0 - j.busy_fraction(start, 5_000, Channel::CONTROL, at))
                    .product();
                let busy = jamming.busy_fraction(start, 5_000, Channel::CONTROL, at);
                assert!(
                    (busy - (1.0 - clear)).abs() < 1e-12,
                    "{at:?} at {start_ms} ms"
                );
                jammed += usize::from(busy > 0.0);
            }
        }
        assert!(jammed > 0, "the samples must catch a burst");
        assert!(!jamming.is_always_idle());
    }

    #[test]
    fn kiel_pair_builds_two_jammers_on_channel_26() {
        let pair = PeriodicJammer::kiel_pair(0.30);
        assert_eq!(pair.len(), 2);
        for j in &pair {
            assert!((j.duty_cycle() - 0.30).abs() < 0.01);
            assert_eq!(
                j.busy_fraction(SimTime::ZERO, 50_000, Channel::new(12).unwrap(), here()),
                0.0
            );
        }
    }

    #[test]
    fn wifi_levels_are_ordered() {
        let pos = Position::new(10.0, 10.0);
        let ch = Channel::new(20).unwrap();
        let l1 = WifiInterference::new(WifiLevel::Level1, 3);
        let l2 = WifiInterference::new(WifiLevel::Level2, 3);
        let f1 = l1.busy_fraction(SimTime::ZERO, 5_000_000, ch, pos);
        let f2 = l2.busy_fraction(SimTime::ZERO, 5_000_000, ch, pos);
        assert!(f2 > f1, "level 2 ({f2}) must exceed level 1 ({f1})");
        assert!(f1 > 0.1 && f2 < 0.9);
    }

    #[test]
    fn wifi_affects_every_channel() {
        let wifi = WifiInterference::new(WifiLevel::Level2, 9);
        for ch in Channel::all() {
            let f = wifi.busy_fraction(SimTime::ZERO, 2_000_000, ch, here());
            assert!(f > 0.1, "channel {ch} unexpectedly clean ({f})");
        }
    }

    #[test]
    fn wifi_is_deterministic_per_seed() {
        let a = WifiInterference::new(WifiLevel::Level1, 42);
        let b = WifiInterference::new(WifiLevel::Level1, 42);
        let c = WifiInterference::new(WifiLevel::Level1, 43);
        let ch = Channel::new(17).unwrap();
        let fa = a.busy_fraction(SimTime::from_millis(123), 20_000, ch, here());
        let fb = b.busy_fraction(SimTime::from_millis(123), 20_000, ch, here());
        let fc = c.busy_fraction(SimTime::from_millis(123), 20_000, ch, here());
        assert_eq!(fa, fb);
        assert_ne!(fa, fc);
    }

    #[test]
    fn composite_combines_sources() {
        let mut comp = CompositeInterference::new();
        assert!(comp.is_empty());
        comp.push(Box::new(PeriodicJammer::with_duty_cycle(here(), 0.3)));
        comp.push(Box::new(
            PeriodicJammer::with_duty_cycle(here(), 0.3).with_phase(SimDuration::from_millis(20)),
        ));
        assert_eq!(comp.len(), 2);
        let f = comp.busy_fraction(SimTime::ZERO, 1_000_000, Channel::CONTROL, here());
        let single = PeriodicJammer::with_duty_cycle(here(), 0.3).busy_fraction(
            SimTime::ZERO,
            1_000_000,
            Channel::CONTROL,
            here(),
        );
        assert!(f > single, "two sources must corrupt more than one");
        assert!(f <= 1.0);
    }

    #[test]
    fn scheduled_interference_only_in_window() {
        let mut sched = ScheduledInterference::new();
        sched.add_window(
            SimTime::from_secs(60),
            SimTime::from_secs(120),
            Box::new(PeriodicJammer::with_duty_cycle(here(), 1.0)),
        );
        let before = sched.busy_fraction(SimTime::from_secs(10), 20_000, Channel::CONTROL, here());
        let during = sched.busy_fraction(SimTime::from_secs(90), 20_000, Channel::CONTROL, here());
        let after = sched.busy_fraction(SimTime::from_secs(200), 20_000, Channel::CONTROL, here());
        assert_eq!(before, 0.0);
        assert!(during > 0.9);
        assert_eq!(after, 0.0);
        assert!(sched.is_active(SimTime::from_secs(90)));
        assert!(!sched.is_active(SimTime::from_secs(10)));
    }

    #[test]
    fn scheduled_interference_partial_window_overlap() {
        let mut sched = ScheduledInterference::new();
        sched.add_window(
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            Box::new(PeriodicJammer::with_duty_cycle(here(), 1.0)),
        );
        // Query 0..20ms: only the second half overlaps the window.
        let f = sched.busy_fraction(SimTime::ZERO, 20_000, Channel::CONTROL, here());
        assert!((f - 0.5).abs() < 0.1, "got {f}");
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn scheduled_window_rejects_empty_range() {
        let mut sched = ScheduledInterference::new();
        sched.add_window(
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            Box::new(NoInterference),
        );
    }

    #[test]
    fn duty_cycle_zero_is_exactly_silent() {
        let j = PeriodicJammer::with_duty_cycle(here(), 0.0);
        assert_eq!(j.duty_cycle(), 0.0);
        assert!(j.is_always_idle());
        for start_ms in [0u64, 7, 13, 130] {
            assert_eq!(
                j.busy_fraction(
                    SimTime::from_millis(start_ms),
                    20_000,
                    Channel::CONTROL,
                    here()
                ),
                0.0
            );
        }
        // The compiled mask agrees bitwise.
        let positions = vec![here(), Position::new(0.0, 0.0)];
        let mut mask = j.compile_for(&positions).unwrap();
        let mut out = vec![9.9; 2];
        mask.busy_for_slot(SimTime::ZERO, 13_000, Channel::CONTROL, &mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn duty_cycle_one_jams_continuously() {
        let j = PeriodicJammer::with_duty_cycle(here(), 1.0);
        assert_eq!(j.duty_cycle(), 1.0);
        assert!(!j.is_always_idle());
        // Any interval, any phase alignment: fully covered next to the jammer.
        for (start_us, dur) in [(0u64, 500u64), (12_999, 2), (6_500, 13_000), (1, 99_999)] {
            let f = j.busy_fraction(
                SimTime::from_micros(start_us),
                dur,
                Channel::CONTROL,
                here(),
            );
            assert!(f > 0.999, "start {start_us} dur {dur}: got {f}");
        }
    }

    #[test]
    fn empty_channel_list_is_always_idle() {
        let j = PeriodicJammer::with_duty_cycle(here(), 0.5).on_channels(vec![]);
        assert!(j.is_always_idle());
        assert_eq!(
            j.busy_fraction(SimTime::ZERO, 13_000, Channel::CONTROL, here()),
            0.0
        );
    }

    #[test]
    fn scheduled_window_start_is_inclusive_end_is_exclusive() {
        let mut sched = ScheduledInterference::new();
        sched.add_window(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            Box::new(PeriodicJammer::with_duty_cycle(here(), 1.0)),
        );
        // A slot starting exactly at the window end sees nothing.
        let after = sched.busy_fraction(SimTime::from_secs(20), 13_000, Channel::CONTROL, here());
        assert_eq!(after, 0.0);
        // A slot starting exactly at the window start is fully inside.
        let at_start =
            sched.busy_fraction(SimTime::from_secs(10), 13_000, Channel::CONTROL, here());
        assert!(at_start > 0.999, "got {at_start}");
        // A slot *ending* exactly at the window start sees nothing.
        let before = sched.busy_fraction(
            SimTime::from_millis(9_987),
            13_000,
            Channel::CONTROL,
            here(),
        );
        assert_eq!(before, 0.0);
    }

    #[test]
    fn scheduled_phase_switch_exactly_on_a_slot_boundary() {
        // Two abutting phases switching at t = 60 s: heavy jamming, then a
        // silent phase. A slot aligned exactly on the boundary must see
        // *only* the phase it starts in — no bleed in either direction.
        let switch = SimTime::from_secs(60);
        let mut sched = ScheduledInterference::new();
        sched.add_window(
            SimTime::ZERO,
            switch,
            Box::new(PeriodicJammer::with_duty_cycle(here(), 1.0)),
        );
        sched.add_window(
            switch,
            SimTime::from_secs(120),
            Box::new(PeriodicJammer::with_duty_cycle(here(), 0.0)),
        );
        let slot_us = 13_000;
        let last_before = sched.busy_fraction(
            switch - SimDuration::from_micros(slot_us),
            slot_us,
            Channel::CONTROL,
            here(),
        );
        let first_after = sched.busy_fraction(switch, slot_us, Channel::CONTROL, here());
        assert!(last_before > 0.999, "got {last_before}");
        assert_eq!(first_after, 0.0);
        // The compiled mask makes the same cut, bitwise.
        let positions = vec![here()];
        let mut mask = sched.compile_for(&positions).unwrap();
        let mut out = vec![0.0];
        mask.busy_for_slot(switch, slot_us, Channel::CONTROL, &mut out);
        assert_eq!(out[0], first_after);
        mask.busy_for_slot(
            switch - SimDuration::from_micros(slot_us),
            slot_us,
            Channel::CONTROL,
            &mut out,
        );
        assert_eq!(out[0], last_before);
    }

    #[test]
    fn composite_with_boundary_duty_cycles_matches_members() {
        // duty 0.0 members are no-ops inside a composite; duty 1.0 members
        // saturate it — both through the direct and the compiled path.
        let mut comp = CompositeInterference::new();
        comp.push(Box::new(PeriodicJammer::with_duty_cycle(here(), 0.0)));
        comp.push(Box::new(PeriodicJammer::with_duty_cycle(here(), 1.0)));
        let f = comp.busy_fraction(SimTime::ZERO, 13_000, Channel::CONTROL, here());
        assert!(f > 0.999, "got {f}");
        let positions = vec![here(), Position::new(50.0, 50.0)];
        let mut mask = comp.compile_for(&positions).unwrap();
        let mut out = vec![0.0; 2];
        mask.busy_for_slot(SimTime::ZERO, 13_000, Channel::CONTROL, &mut out);
        for (i, &p) in positions.iter().enumerate() {
            assert_eq!(
                out[i],
                comp.busy_fraction(SimTime::ZERO, 13_000, Channel::CONTROL, p)
            );
        }
    }

    #[test]
    fn mobile_jammer_relocates_at_waypoints() {
        let base = PeriodicJammer::with_duty_cycle(Position::new(0.0, 0.0), 1.0);
        let t1 = SimTime::from_secs(60);
        let jam = MobileJammer::new(base, vec![(t1, Position::new(100.0, 0.0))]);
        assert_eq!(jam.position_at(SimTime::ZERO), Position::new(0.0, 0.0));
        // The waypoint timestamp itself is inclusive (events fire at <= t,
        // matching the world clock).
        assert_eq!(jam.position_at(t1), Position::new(100.0, 0.0));
        assert_eq!(
            jam.position_at(t1 - SimDuration::from_micros(1)),
            Position::new(0.0, 0.0)
        );
        let at = Position::new(1.0, 0.0);
        let before = jam.busy_fraction(SimTime::from_secs(59), 13_000, Channel::CONTROL, at);
        let after = jam.busy_fraction(t1, 13_000, Channel::CONTROL, at);
        assert!(before > 0.9 && after < 0.05, "{before} vs {after}");
    }

    #[test]
    fn mobile_jammer_uses_its_waypoints_in_time_order_and_the_later_equal_one_wins() {
        let base = PeriodicJammer::with_duty_cycle(Position::new(0.0, 0.0), 1.0);
        let t = SimTime::from_secs;
        let jam = MobileJammer::new(
            base,
            vec![
                (t(60), Position::new(10.0, 0.0)),
                (t(30), Position::new(5.0, 0.0)),
                (t(60), Position::new(20.0, 0.0)),
            ],
        );
        let times: Vec<SimTime> = jam.waypoints().iter().map(|&(w, _)| w).collect();
        assert_eq!(times, [t(30), t(60), t(60)]);
        assert_eq!(jam.position_at(t(29)), Position::new(0.0, 0.0));
        assert_eq!(jam.position_at(t(30)), Position::new(5.0, 0.0));
        assert_eq!(jam.position_at(t(59)), Position::new(5.0, 0.0));
        assert_eq!(jam.position_at(t(60)), Position::new(20.0, 0.0));
    }

    #[test]
    fn mobile_jammer_compiled_mask_matches_bitwise_across_segments() {
        let base = PeriodicJammer::with_duty_cycle(Position::new(2.0, 2.0), 0.35)
            .on_channels(vec![Channel::CONTROL]);
        let jam = MobileJammer::new(
            base,
            vec![
                (SimTime::from_secs(10), Position::new(20.0, 2.0)),
                (SimTime::from_secs(20), Position::new(2.0, 20.0)),
            ],
        );
        let positions: Vec<Position> = (0..10)
            .map(|i| Position::new(i as f64 * 3.0, (i % 3) as f64 * 5.0))
            .collect();
        let mut mask = jam.compile_for(&positions).unwrap();
        let mut out = vec![0.0; positions.len()];
        // Sweep across segments forwards and back onto earlier segment
        // queries (the cache must not leak between segments).
        for start_s in [0u64, 9, 10, 15, 20, 25, 10, 0] {
            let start = SimTime::from_secs(start_s);
            for ch in [Channel::CONTROL, Channel::new(15).unwrap()] {
                mask.busy_for_slot(start, 13_000, ch, &mut out);
                for (i, &p) in positions.iter().enumerate() {
                    let expected = jam.busy_fraction(start, 13_000, ch, p);
                    assert!(
                        out[i] == expected,
                        "node {i} at {start_s}s on {ch}: {} vs {expected}",
                        out[i]
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_jammer_fraction_is_probability(duty in 0.01f64..1.0, start_ms in 0u64..100_000, dur in 1u64..100_000, x in 0.0f64..50.0) {
            let j = PeriodicJammer::with_duty_cycle(Position::new(10.0, 10.0), duty);
            let f = j.busy_fraction(SimTime::from_millis(start_ms), dur, Channel::CONTROL, Position::new(x, 0.0));
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn prop_wifi_fraction_is_probability(seed in 0u64..500, start_ms in 0u64..100_000, dur in 1u64..200_000, ch in 11u8..=26) {
            let wifi = WifiInterference::new(WifiLevel::Level2, seed);
            let f = wifi.busy_fraction(SimTime::from_millis(start_ms), dur, Channel::new(ch).unwrap(), Position::new(0.0, 0.0));
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn prop_composite_at_least_as_bad_as_each_member(duty_a in 0.05f64..0.6, duty_b in 0.05f64..0.6, start_ms in 0u64..10_000) {
            let pos = Position::new(3.0, 3.0);
            let a = PeriodicJammer::with_duty_cycle(pos, duty_a);
            let b = PeriodicJammer::with_duty_cycle(pos, duty_b).with_phase(SimDuration::from_millis(5));
            let fa = a.busy_fraction(SimTime::from_millis(start_ms), 50_000, Channel::CONTROL, pos);
            let fb = b.busy_fraction(SimTime::from_millis(start_ms), 50_000, Channel::CONTROL, pos);
            let comp = CompositeInterference::from_sources(vec![Box::new(a), Box::new(b)]);
            let fc = comp.busy_fraction(SimTime::from_millis(start_ms), 50_000, Channel::CONTROL, pos);
            prop_assert!(fc >= fa - 1e-9 && fc >= fb - 1e-9);
            prop_assert!(fc <= 1.0 + 1e-9);
        }
    }
}
