//! Experience replay buffer.

use rand::rngs::StdRng;
use rand::Rng;

/// One recorded interaction with the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// The state the action was taken in.
    pub state: Vec<f32>,
    /// The action that was taken.
    pub action: usize,
    /// The immediate reward received.
    pub reward: f32,
    /// The state observed afterwards.
    pub next_state: Vec<f32>,
    /// Whether the episode ended with this transition.
    pub done: bool,
}

/// A bounded ring buffer of [`Transition`]s with uniform random sampling.
///
/// # Examples
///
/// ```
/// use dimmer_rl::{ReplayBuffer, Transition};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut buf = ReplayBuffer::new(100);
/// for i in 0..10 {
///     buf.push(Transition {
///         state: vec![i as f32],
///         action: 0,
///         reward: 1.0,
///         next_state: vec![i as f32 + 1.0],
///         done: false,
///     });
/// }
/// let mut rng = StdRng::seed_from_u64(0);
/// assert_eq!(buf.sample(4, &mut rng).count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    entries: Vec<Transition>,
    write_index: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer needs a positive capacity");
        ReplayBuffer {
            capacity,
            entries: Vec::with_capacity(capacity.min(4096)),
            write_index: 0,
        }
    }

    /// The maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current number of stored transitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds a transition, evicting the oldest one once the buffer is full.
    pub fn push(&mut self, transition: Transition) {
        if self.entries.len() < self.capacity {
            self.entries.push(transition);
        } else {
            self.entries[self.write_index] = transition;
        }
        self.write_index = (self.write_index + 1) % self.capacity;
    }

    /// Samples `count` transitions uniformly at random (with replacement),
    /// borrowing them from the buffer. Each item draws one index from `rng`
    /// as the iterator advances.
    ///
    /// Yields fewer than `count` items only when the buffer is empty.
    pub fn sample<'a>(
        &'a self,
        count: usize,
        rng: &'a mut StdRng,
    ) -> impl Iterator<Item = &'a Transition> + 'a {
        let count = if self.entries.is_empty() { 0 } else { count };
        (0..count).map(move |_| &self.entries[rng.gen_range(0..self.entries.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn t(v: f32) -> Transition {
        Transition {
            state: vec![v],
            action: 0,
            reward: v,
            next_state: vec![v + 1.0],
            done: false,
        }
    }

    #[test]
    fn push_grows_until_capacity_then_overwrites() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        assert_eq!(buf.len(), 3);
        // The oldest entries (0 and 1) were overwritten by 3 and 4.
        let rewards: Vec<f32> = buf.entries.iter().map(|e| e.reward).collect();
        assert!(rewards.contains(&2.0) && rewards.contains(&3.0) && rewards.contains(&4.0));
    }

    #[test]
    fn sample_is_empty_for_empty_buffer() {
        let buf = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(buf.sample(8, &mut rng).count(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut buf = ReplayBuffer::new(10);
        buf.push(t(1.0));
        buf.push(t(2.0));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(buf.sample(16, &mut rng).count(), 16);
    }

    #[test]
    fn a_full_buffer_evicts_the_oldest_transition_first() {
        let mut buf = ReplayBuffer::new(3);
        let rewards = |buf: &ReplayBuffer| buf.entries.iter().map(|e| e.reward).collect::<Vec<_>>();
        for i in 0..7 {
            buf.push(t(i as f32));
        }
        assert_eq!(rewards(&buf), vec![6.0, 4.0, 5.0]);
        buf.push(t(7.0));
        assert_eq!(rewards(&buf), vec![6.0, 7.0, 5.0], "4 was the oldest");
    }

    #[test]
    fn a_sample_draws_one_index_per_item_taken() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..5 {
            buf.push(t(i as f32));
        }
        let mut lazy = StdRng::seed_from_u64(3);
        assert_eq!(buf.sample(10, &mut lazy).take(2).count(), 2);
        let mut manual = StdRng::seed_from_u64(3);
        for _ in 0..2 {
            manual.gen_range(0..5usize);
        }
        assert_eq!(lazy.gen::<u64>(), manual.gen::<u64>());
    }

    #[test]
    fn sampling_is_seeded_and_reaches_every_entry() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(t(i as f32));
        }
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            buf.sample(200, &mut rng)
                .map(|e| e.reward)
                .collect::<Vec<_>>()
        };
        let rewards = draw(5);
        assert_eq!(rewards, draw(5));
        for v in 0..4 {
            assert!(rewards.contains(&(v as f32)), "entry {v} never drawn");
        }
    }

    #[test]
    fn a_huge_capacity_is_not_allocated_up_front() {
        let buf = ReplayBuffer::new(10_000_000);
        assert_eq!(buf.capacity(), 10_000_000);
        assert!(buf.entries.capacity() <= 4096);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_is_rejected() {
        ReplayBuffer::new(0);
    }

    proptest! {
        #[test]
        fn prop_len_never_exceeds_capacity(capacity in 1usize..50, pushes in 0usize..200) {
            let mut buf = ReplayBuffer::new(capacity);
            for i in 0..pushes {
                buf.push(t(i as f32));
            }
            prop_assert!(buf.len() <= capacity);
            prop_assert_eq!(buf.len(), pushes.min(capacity));
        }

        #[test]
        fn prop_samples_come_from_the_buffer(pushes in 1usize..50, samples in 1usize..50) {
            let mut buf = ReplayBuffer::new(64);
            for i in 0..pushes {
                buf.push(t(i as f32));
            }
            let mut rng = StdRng::seed_from_u64(7);
            for s in buf.sample(samples, &mut rng) {
                prop_assert!((s.reward as usize) < pushes);
            }
        }

        // The farm feeds one shared buffer from many environments; whatever
        // interleaving the rollout produces, the buffer must stay
        // capacity-correct (exactly the most recent `capacity` pushes
        // survive, FIFO eviction) ...
        #[test]
        fn prop_interleaved_env_pushes_stay_capacity_correct(
            capacity in 1usize..48,
            order in proptest::collection::vec(0usize..4, 0..150),
        ) {
            // `order[i]` names the environment that produced push `i`; the
            // transition id (stashed in `reward`) is the global push index.
            let mut buf = ReplayBuffer::new(capacity);
            for (i, _env) in order.iter().enumerate() {
                buf.push(t(i as f32));
            }
            prop_assert_eq!(buf.len(), order.len().min(capacity));
            let mut ids: Vec<usize> = buf.entries.iter().map(|e| e.reward as usize).collect();
            ids.sort_unstable();
            let expected: Vec<usize> =
                (order.len().saturating_sub(capacity)..order.len()).collect();
            prop_assert_eq!(ids, expected, "ring must keep exactly the newest pushes");
        }

        // ... and deterministic: replaying the same interleaving and
        // sampling with the same seed reproduces the identical batch.
        #[test]
        fn prop_push_sample_is_deterministic_per_seed(
            capacity in 1usize..48,
            order in proptest::collection::vec(0usize..4, 1..150),
            seed in 0u64..512,
            samples in 1usize..32,
        ) {
            let run = || {
                let mut buf = ReplayBuffer::new(capacity);
                for (i, env) in order.iter().enumerate() {
                    // Make the payload depend on the producing env too, so
                    // a hypothetical env-dependent code path would show up.
                    buf.push(t((i * 4 + env) as f32));
                }
                let mut rng = StdRng::seed_from_u64(seed);
                let batch: Vec<Transition> =
                    buf.sample(samples, &mut rng).cloned().collect();
                batch
            };
            prop_assert_eq!(run(), run());
        }
    }
}
