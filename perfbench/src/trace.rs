//! Layer probes that measure the program from outside.
//!
//! The decorators wrap the program's own extension points — a
//! [`Controller`], an [`InterferenceModel`] (and the [`SlotInterference`]
//! bank it compiles) and an RL [`Environment`] — forward every call
//! unchanged and add the call's wall time to a process-wide [`Tally`]. They
//! are only installed by traced runs; untraced runs never touch them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dimmer_core::{ControlDecision, Controller, DimmerConfig, RoundObservation};
use dimmer_rl::{Environment, Step};
use dimmer_sim::{Channel, InterferenceModel, PeriodicJammer, Position, SimTime, SlotInterference};
use rand::rngs::StdRng;

/// Busy time and call count of one layer boundary.
#[derive(Debug)]
pub struct Tally {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    pub fn add(&self, started: Instant) {
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            c => self.ns() as f64 / c as f64,
        }
    }

    fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.calls.store(0, Ordering::Relaxed);
    }
}

/// `Controller::observe`.
pub static OBSERVE: Tally = Tally::new();
/// Decisions that changed `N_TX`.
pub static NTX_CHANGES: AtomicU64 = AtomicU64::new(0);
/// `InterferenceModel::compile_for`.
pub static MASK_COMPILE: Tally = Tally::new();
/// `SlotInterference::busy_for_slot`.
pub static SLOT: Tally = Tally::new();
/// `Environment::step` of the in-sim environment.
pub static ENV_STEP: Tally = Tally::new();
/// `Environment::reset` of the in-sim environment.
pub static ENV_RESET: Tally = Tally::new();

pub fn reset_all() {
    for t in [&OBSERVE, &MASK_COMPILE, &SLOT, &ENV_STEP, &ENV_RESET] {
        t.reset();
    }
    NTX_CHANGES.store(0, Ordering::Relaxed);
}

/// Times every [`Controller::observe`] and counts `N_TX` changes.
pub struct TimedController<C>(pub C);

impl<C: Controller> Controller for TimedController<C> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlDecision {
        let t = Instant::now();
        let decision = self.0.observe(obs);
        OBSERVE.add(t);
        if matches!(decision, ControlDecision::SetNtx(n) if n != obs.ntx) {
            NTX_CHANGES.fetch_add(1, Ordering::Relaxed);
        }
        decision
    }

    fn warmup(&mut self, config: &DimmerConfig) -> Option<u8> {
        self.0.warmup(config)
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn wants_state(&self) -> bool {
        self.0.wants_state()
    }
}

/// Times mask compilation and wraps the compiled bank in [`TimedSlots`].
#[derive(Debug)]
pub struct TimedInterference<'a>(pub &'a dyn InterferenceModel);

impl InterferenceModel for TimedInterference<'_> {
    fn busy_fraction(
        &self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        at: Position,
    ) -> f64 {
        self.0.busy_fraction(start, duration_us, channel, at)
    }

    fn is_active(&self, t: SimTime) -> bool {
        self.0.is_active(t)
    }

    fn is_always_idle(&self) -> bool {
        self.0.is_always_idle()
    }

    fn compile_for(&self, positions: &[Position]) -> Option<Box<dyn SlotInterference>> {
        let t = Instant::now();
        let bank = self.0.compile_for(positions);
        MASK_COMPILE.add(t);
        bank.map(|inner| Box::new(TimedSlots(inner)) as Box<dyn SlotInterference>)
    }

    fn as_periodic_jammer(&self) -> Option<&PeriodicJammer> {
        self.0.as_periodic_jammer()
    }
}

/// Times every per-slot mask evaluation.
#[derive(Debug)]
pub struct TimedSlots(Box<dyn SlotInterference>);

impl SlotInterference for TimedSlots {
    fn busy_for_slot(
        &mut self,
        start: SimTime,
        duration_us: u64,
        channel: Channel,
        out: &mut [f64],
    ) {
        let t = Instant::now();
        self.0.busy_for_slot(start, duration_us, channel, out);
        SLOT.add(t);
    }

    fn box_clone(&self) -> Box<dyn SlotInterference> {
        Box::new(TimedSlots(self.0.box_clone()))
    }
}

/// Times `reset` and `step` of an RL environment.
pub struct TimedEnv<E>(pub E);

impl<E: Environment> Environment for TimedEnv<E> {
    fn state_dim(&self) -> usize {
        self.0.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.0.num_actions()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
        let t = Instant::now();
        let s = self.0.reset(rng);
        ENV_RESET.add(t);
        s
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> Step {
        let t = Instant::now();
        let s = self.0.step(action, rng);
        ENV_STEP.add(t);
        s
    }
}
