//! The PI(D)-controller baseline (§V-A "Baselines").
//!
//! PID controllers are the go-to traditional approach for closed-loop
//! control. The paper tunes a PI controller (`K_P = 1`, `K_I = 0.25`) through
//! experiments on the deployment, maximizing reliability first and energy
//! second, and uses it as the "traditional methods" comparison for the DQN.
//! Its characteristic behaviour (Fig. 4d / Fig. 5b): it reacts to losses by
//! overshooting to the maximum retransmission count and, because of the
//! integral term, is slow to come back down — and it cannot distinguish
//! interference *levels*.

use dimmer_core::{ControlDecision, Controller, RoundObservation};

/// A discrete PI(D) controller mapping observed reliability to the next
/// `N_TX`.
///
/// The error signal is `1 − reliability`; the integral term accumulates it
/// with a slow leak so the controller eventually relaxes after interference
/// has passed. The output is mapped linearly onto `[n_min, n_max]`.
///
/// # Examples
///
/// ```
/// use dimmer_baselines::PidController;
/// let mut pid = PidController::paper_pi();
/// // Heavy losses drive the controller to the maximum.
/// let mut ntx = 3;
/// for _ in 0..6 { ntx = pid.update(0.5); }
/// assert_eq!(ntx, 8);
/// // A long calm stretch lets it relax again.
/// for _ in 0..60 { ntx = pid.update(1.0); }
/// assert!(ntx <= 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PidController {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Per-round leak subtracted from the integral accumulator (models the
    /// slow relaxation the paper tuned for).
    pub integral_leak: f64,
    /// Smallest `N_TX` the controller outputs.
    pub n_min: u8,
    /// Largest `N_TX` the controller outputs.
    pub n_max: u8,
    integral: f64,
    last_error: f64,
}

impl PidController {
    /// The PI configuration used in the paper: `K_P = 1`, `K_I = 0.25`, no
    /// derivative term.
    pub fn paper_pi() -> Self {
        PidController {
            kp: 1.0,
            ki: 0.25,
            kd: 0.0,
            integral_leak: 0.05,
            n_min: 1,
            n_max: 8,
            integral: 0.0,
            last_error: 0.0,
        }
    }

    /// Creates a controller with explicit gains and the paper's output range.
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        PidController {
            kp,
            ki,
            kd,
            ..Self::paper_pi()
        }
    }

    /// Resets the controller's internal state.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.last_error = 0.0;
    }

    /// The current value of the integral accumulator (useful for tests and
    /// plots).
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Consumes one reliability observation (in `[0, 1]`) and returns the
    /// `N_TX` to apply in the next round.
    pub fn update(&mut self, reliability: f64) -> u8 {
        let error = (1.0 - reliability.clamp(0.0, 1.0)).max(0.0);
        // Anti-windup clamp plus a slow leak: the controller relaxes after a
        // long calm stretch, but much more slowly than it ramps up (Fig. 4d).
        self.integral = (self.integral + error - self.integral_leak).clamp(0.0, 2.0);
        let derivative = error - self.last_error;
        self.last_error = error;
        let output = self.kp * error + self.ki * self.integral + self.kd * derivative;
        // `output` ≈ 0 when calm, ≳ 1 under sustained heavy losses; map it
        // onto the retransmission range.
        let span = (self.n_max - self.n_min) as f64;
        let ntx = self.n_min as f64 + (output * 2.0 * span).round();
        ntx.clamp(self.n_min as f64, self.n_max as f64) as u8
    }
}

impl Default for PidController {
    fn default() -> Self {
        Self::paper_pi()
    }
}

/// The PI(D) baseline as a [`Controller`]: it feeds the observed round
/// reliability into [`PidController::update`] and pins the next round's
/// `N_TX` to the controller output (the registry's `"pid"` protocol).
impl Controller for PidController {
    fn name(&self) -> &str {
        "pid"
    }

    fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlDecision {
        ControlDecision::SetNtx(self.update(obs.reliability))
    }

    fn reset(&mut self) {
        PidController::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_gains() {
        let pid = PidController::paper_pi();
        assert_eq!(pid.kp, 1.0);
        assert_eq!(pid.ki, 0.25);
        assert_eq!(pid.kd, 0.0);
    }

    #[test]
    fn sustained_losses_saturate_the_output() {
        let mut pid = PidController::paper_pi();
        let mut out = 0;
        for _ in 0..10 {
            out = pid.update(0.6);
        }
        assert_eq!(out, 8);
    }

    #[test]
    fn calm_relaxes_slowly_due_to_the_integral_term() {
        let mut pid = PidController::paper_pi();
        for _ in 0..10 {
            pid.update(0.5);
        }
        let first_calm = pid.update(1.0);
        assert!(
            first_calm >= 4,
            "the integral keeps N_TX high right after interference"
        );
        let mut last = first_calm;
        for _ in 0..80 {
            last = pid.update(1.0);
        }
        assert!(
            last <= 2,
            "after a long calm stretch the controller relaxes, got {last}"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = PidController::paper_pi();
        for _ in 0..10 {
            pid.update(0.2);
        }
        assert!(pid.integral() > 0.0);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        assert_eq!(pid.update(1.0), 1);
    }

    proptest! {
        #[test]
        fn prop_output_always_in_range(reliabilities in proptest::collection::vec(0.0f64..=1.0, 1..100)) {
            let mut pid = PidController::paper_pi();
            for r in reliabilities {
                let ntx = pid.update(r);
                prop_assert!((1..=8).contains(&ntx));
            }
        }

        #[test]
        fn prop_lower_reliability_never_lowers_ntx(r1 in 0.0f64..=1.0, r2 in 0.0f64..=1.0) {
            // From identical state, a worse observation must not produce a
            // smaller N_TX than a better one.
            let (good, bad) = if r1 >= r2 { (r1, r2) } else { (r2, r1) };
            let mut a = PidController::paper_pi();
            let mut b = PidController::paper_pi();
            prop_assert!(b.update(bad) >= a.update(good));
        }
    }
}
