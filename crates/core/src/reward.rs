//! The reward function of the central adaptivity problem (Eq. 3).

/// Computes the reward of Eq. 3:
///
/// ```text
/// r_t = 1 − C · N_TX / N_max   if the round had no losses
/// r_t = 0                      otherwise
/// ```
///
/// Low values of `C` favour reliability, higher values favour energy
/// efficiency; the paper uses `C = 3/10` and `N_max = 8`.
///
/// # Examples
///
/// ```
/// use dimmer_core::reward;
/// // Loss-free round at N_TX = 8 (maximum energy) earns the minimum positive reward.
/// assert!((reward(true, 8, 8, 0.3) - 0.7).abs() < 1e-12);
/// // Any loss zeroes the reward regardless of N_TX.
/// assert_eq!(reward(false, 1, 8, 0.3), 0.0);
/// ```
///
/// # Panics
///
/// Panics if `n_max` is zero or `ntx > n_max`.
pub fn reward(no_losses: bool, ntx: u8, n_max: u8, c: f64) -> f64 {
    assert!(n_max > 0, "N_max must be positive");
    assert!(ntx <= n_max, "N_TX must not exceed N_max");
    if no_losses {
        1.0 - c * ntx as f64 / n_max as f64
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_values() {
        // C = 0.3, N_max = 8.
        assert!((reward(true, 0, 8, 0.3) - 1.0).abs() < 1e-12);
        assert!((reward(true, 3, 8, 0.3) - (1.0 - 0.3 * 3.0 / 8.0)).abs() < 1e-12);
        assert!((reward(true, 8, 8, 0.3) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn losses_zero_the_reward() {
        for ntx in 0..=8 {
            assert_eq!(reward(false, ntx, 8, 0.3), 0.0);
        }
    }

    #[test]
    fn lower_ntx_earns_more_when_loss_free() {
        assert!(reward(true, 1, 8, 0.3) > reward(true, 6, 8, 0.3));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn ntx_above_n_max_is_rejected() {
        reward(true, 9, 8, 0.3);
    }

    #[test]
    #[should_panic(expected = "N_max must be positive")]
    fn zero_n_max_is_rejected() {
        reward(true, 0, 0, 0.3);
    }

    #[test]
    fn the_energy_weight_scales_the_ntx_penalty() {
        // C = 0 ignores energy; C = 1 at N_TX = N_max leaves nothing.
        for ntx in 0..=8 {
            assert_eq!(reward(true, ntx, 8, 0.0), 1.0);
        }
        assert_eq!(reward(true, 8, 8, 1.0), 0.0);
        assert_eq!(reward(true, 4, 8, 1.0), 0.5);
    }

    proptest! {
        #[test]
        fn prop_reward_bounded(no_losses: bool, ntx in 0u8..=8, c in 0.0f64..1.0) {
            let r = reward(no_losses, ntx, 8, c);
            prop_assert!((0.0..=1.0).contains(&r));
        }

        #[test]
        fn prop_reward_monotone_in_ntx(ntx_a in 0u8..=8, ntx_b in 0u8..=8, c in 0.01f64..1.0) {
            let (lo, hi) = if ntx_a <= ntx_b { (ntx_a, ntx_b) } else { (ntx_b, ntx_a) };
            prop_assert!(reward(true, lo, 8, c) >= reward(true, hi, 8, c));
        }
    }
}
