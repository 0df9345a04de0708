//! The in-sim training farm: episodes rolled out on a pool of workers
//! while one learner trains on them, byte-reproducible for any worker
//! count.
//!
//! The farm turns the repo from "replays a checkpoint" into "manufactures
//! policies": it trains a [`DqnTrainer`] against any [`Environment`]
//! factory by rolling out **episodes** as the unit of parallel work.
//! Episode `e` is a pure function of the seed
//! `SimRng::derive_seed(root, &[EPISODE_STREAM, e])` — the environment is
//! rebuilt from the factory, reset from the episode's private RNG, and
//! driven by an *off-policy uniform-random behaviour policy* drawn from the
//! same RNG. Because no episode depends on the learner's evolving network,
//! one pool of `envs` rollout workers, spawned once per run, streams
//! episodes to the learner through
//! [`dimmer_sim::workqueue::stream_indexed_jobs`]. The learner stays on the
//! calling thread, the pool's `envs + 1`-th thread, and consumes their
//! transitions in strict episode order through one shared global
//! transition counter ([`DqnTrainer::observe_at`]), so it learns on episode
//! `e` while the workers roll out the episodes after it; whenever the next
//! episode is not ready, it rolls one out itself instead of waiting. The
//! pool runs at most `2 * (envs + 1)` episodes ahead of the learner (one in
//! flight and one finished per thread). An episode holds at most
//! `max_episode_steps` transitions, so the first
//! `ceil(transitions / max_episode_steps)` episodes are certain to be
//! consumed and roll out freely; each later one is claimed only once the
//! ones before it leave transitions uncovered. The farm rolls out no
//! episode it does not consume.
//!
//! The result is the same determinism contract the experiment harness
//! guarantees (`ScenarioGrid::run` in `dimmer-bench`): the trained weights
//! and the training curve are a pure function of `(factory, DqnConfig,
//! FarmConfig minus `envs`, seed)` — **independent of the worker count and
//! of OS scheduling**. `envs` sets the number of rollout workers and the
//! lookahead, and never changes a result, nor how many episodes roll out.
//!
//! The seed derivation tree:
//!
//! ```text
//! root seed
//! ├── derive_seed(root, [0])            → the trainer (weights init, replay sampling)
//! ├── derive_seed(root, [1, e])         → episode e (env reset + behaviour actions)
//! └── derive_seed(root, [2, p, k])      → eval episode k of curve point p
//! ```
//!
//! Training-curve points are periodic *greedy* evaluations of the current
//! network on separately derived probe episodes, run by the learner on the
//! calling thread while the workers keep rolling ahead; they never feed the
//! replay buffer, so observing the curve does not perturb training.

use crate::dqn::{DqnConfig, DqnTrainer};
use crate::env::Environment;
use crate::replay::Transition;
use dimmer_sim::workqueue::stream_indexed_jobs;
use dimmer_sim::SimRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed stream of the trainer itself (weight init + replay sampling).
const TRAINER_STREAM: u64 = 0;
/// Seed stream of training episodes.
const EPISODE_STREAM: u64 = 1;
/// Seed stream of greedy evaluation episodes.
const EVAL_STREAM: u64 = 2;

/// Farm-level knobs, orthogonal to the DQN hyper-parameters.
///
/// Everything except `envs` changes the result; `envs` only changes how
/// many episodes roll out concurrently (the trained weights and the curve
/// are byte-identical for any value — see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmConfig {
    /// Number of rollout workers besides the learner, each with its own
    /// environment. The learner rolls out episodes too whenever the next
    /// one is not ready, and the pool runs at most `2 * (envs + 1)`
    /// episodes ahead of it. Result-invariant.
    pub envs: usize,
    /// Number of training-curve checkpoints, spread evenly over the run.
    pub curve_points: usize,
    /// Greedy probe episodes evaluated per checkpoint.
    pub eval_episodes: usize,
    /// Hard per-episode step cap, protecting against non-terminating
    /// environments. Episodes that reach the cap are truncated (their last
    /// transition keeps `done = false`).
    pub max_episode_steps: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            envs: 4,
            curve_points: 8,
            eval_episodes: 2,
            max_episode_steps: 512,
        }
    }
}

/// One training-curve checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Global transition count at which the checkpoint was taken.
    pub transitions: usize,
    /// The epsilon schedule's value at the checkpoint (reported for the
    /// curve; the farm's behaviour policy itself is uniform-random).
    pub epsilon: f64,
    /// Mean TD loss over the training updates since the previous
    /// checkpoint (0.0 while still warming up).
    pub mean_loss: f64,
    /// Mean per-step reward of the greedy policy over the checkpoint's
    /// probe episodes.
    pub eval_reward: f64,
}

/// The outcome of one farm run: the trained agent plus its training curve.
#[derive(Debug, Clone)]
pub struct FarmRun {
    /// The trained agent (its online network is the product).
    pub trainer: DqnTrainer,
    /// Evaluation checkpoints, ascending by transition count; the last one
    /// sits at the final transition.
    pub curve: Vec<CurvePoint>,
    /// Number of episodes whose transitions were (at least partly)
    /// consumed by the learner.
    pub episodes: usize,
    /// Total transitions consumed (== `DqnConfig::training_iterations`).
    pub transitions: usize,
}

impl FarmRun {
    /// The greedy evaluation reward at the last checkpoint.
    pub fn final_eval(&self) -> f64 {
        self.curve.last().map(|p| p.eval_reward).unwrap_or(0.0)
    }
}

/// Trains a DQN against environments built by `factory`, rolling out
/// episodes on `farm.envs` workers and on the calling thread, which learns
/// on them in episode order, and returns the trained agent with its
/// training curve.
///
/// The output is byte-identical for any `farm.envs` and any OS scheduling
/// of the rollout workers (see the module docs for why).
///
/// # Panics
///
/// Panics if `dqn.training_iterations` is zero or any `FarmConfig` knob is
/// zero, and re-raises a panic of the factory or an environment, whichever
/// thread it happened on.
pub fn train_farm<E, F>(factory: &F, dqn: DqnConfig, farm: &FarmConfig, seed: u64) -> FarmRun
where
    E: Environment,
    F: Fn() -> E + Sync,
{
    assert!(dqn.training_iterations > 0, "nothing to train");
    assert!(farm.envs > 0, "need at least one environment");
    assert!(farm.curve_points > 0, "need at least one curve point");
    assert!(farm.eval_episodes > 0, "need at least one probe episode");
    assert!(farm.max_episode_steps > 0, "episodes must be able to step");

    let template = factory();
    let state_dim = template.state_dim();
    let num_actions = template.num_actions();
    drop(template);

    let total = dqn.training_iterations;
    let mut trainer = DqnTrainer::new(
        state_dim,
        num_actions,
        dqn,
        SimRng::derive_seed(seed, &[TRAINER_STREAM]),
    );

    // Checkpoint positions: `curve_points` marks spread evenly, the last
    // one exactly at `total` (duplicates collapse when points > total).
    let mut checkpoints: Vec<usize> = (1..=farm.curve_points)
        .map(|k| k * total / farm.curve_points)
        .filter(|&c| c > 0)
        .collect();
    checkpoints.dedup();

    let mut curve = Vec::with_capacity(checkpoints.len());
    let mut next_point = 0usize;
    let mut global = 0usize;
    let mut episodes = 0usize;
    let mut loss_sum = 0.0f64;
    let mut loss_count = 0usize;
    // Transitions not yet covered by an episode; the episode that covers
    // the last one ends the stream.
    let mut uncovered = total;

    // An episode holds at most `max_episode_steps` transitions, so the
    // learner takes at least this many episodes.
    let needed = total.div_ceil(farm.max_episode_steps);
    stream_indexed_jobs(
        farm.envs + 1,
        2 * (farm.envs + 1),
        needed,
        |e| rollout_episode(factory, seed, e as u64, farm.max_episode_steps),
        move |episode: &Vec<Transition>| {
            uncovered = uncovered.saturating_sub(episode.len());
            uncovered > 0
        },
        |episode| {
            episodes += 1;
            for transition in episode.into_iter().take(total - global) {
                global += 1;
                if let Some(loss) = trainer.observe_at(transition, global) {
                    loss_sum += loss as f64;
                    loss_count += 1;
                }
                while next_point < checkpoints.len() && global == checkpoints[next_point] {
                    let mean_loss = if loss_count == 0 {
                        0.0
                    } else {
                        loss_sum / loss_count as f64
                    };
                    let eval_reward = evaluate_greedy(
                        factory,
                        &trainer,
                        seed,
                        next_point as u64,
                        farm.eval_episodes,
                        farm.max_episode_steps,
                    );
                    curve.push(CurvePoint {
                        transitions: global,
                        epsilon: trainer.epsilon(),
                        mean_loss,
                        eval_reward,
                    });
                    loss_sum = 0.0;
                    loss_count = 0;
                    next_point += 1;
                }
            }
        },
    );

    FarmRun {
        trainer,
        curve,
        episodes,
        transitions: global,
    }
}

/// Rolls out episode `episode` with the uniform-random behaviour policy.
/// A pure function of `(factory, root, episode, cap)`.
fn rollout_episode<E, F>(factory: &F, root: u64, episode: u64, cap: usize) -> Vec<Transition>
where
    E: Environment,
    F: Fn() -> E,
{
    let mut env = factory();
    let mut rng = StdRng::seed_from_u64(SimRng::derive_seed(root, &[EPISODE_STREAM, episode]));
    let num_actions = env.num_actions();
    let mut state = env.reset(&mut rng);
    let mut out = Vec::new();
    for _ in 0..cap {
        let action = rng.gen_range(0..num_actions);
        let step = env.step(action, &mut rng);
        let done = step.done;
        out.push(Transition {
            state,
            action,
            reward: step.reward,
            next_state: step.next_state.clone(),
            done,
        });
        if done {
            break;
        }
        state = step.next_state;
    }
    out
}

/// Mean per-step reward of the trainer's greedy policy over `episodes`
/// probe episodes of curve point `point` (separate seed stream — probes
/// never touch training state).
fn evaluate_greedy<E, F>(
    factory: &F,
    trainer: &DqnTrainer,
    root: u64,
    point: u64,
    episodes: usize,
    cap: usize,
) -> f64
where
    E: Environment,
    F: Fn() -> E,
{
    let mut reward = 0.0f64;
    let mut steps = 0usize;
    for k in 0..episodes {
        let mut env = factory();
        let mut rng =
            StdRng::seed_from_u64(SimRng::derive_seed(root, &[EVAL_STREAM, point, k as u64]));
        let mut state = env.reset(&mut rng);
        for _ in 0..cap {
            let action = trainer.greedy_action(&state);
            let step = env.step(action, &mut rng);
            reward += step.reward as f64;
            steps += 1;
            if step.done {
                break;
            }
            state = step.next_state;
        }
    }
    if steps == 0 {
        0.0
    } else {
        reward / steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::{ChainWalk, ContextualBandit};
    use dimmer_neural::serialize::to_text;

    fn quick_cfg(iterations: usize) -> DqnConfig {
        DqnConfig {
            warmup_transitions: 32,
            target_sync_interval: 64,
            replay_capacity: 512,
            ..DqnConfig::quick().with_iterations(iterations)
        }
    }

    #[test]
    fn farm_output_is_invariant_in_the_environment_count() {
        let factory = || ContextualBandit::new(3);
        let run_with = |envs: usize| {
            let farm = FarmConfig {
                envs,
                curve_points: 4,
                eval_episodes: 2,
                max_episode_steps: 16,
            };
            train_farm(&factory, quick_cfg(600), &farm, 42)
        };
        let one = run_with(1);
        let four = run_with(4);
        let nine = run_with(9);
        assert_eq!(one.curve, four.curve, "curve depends on env count");
        assert_eq!(one.curve, nine.curve, "curve depends on env count");
        assert_eq!(one.episodes, four.episodes);
        assert_eq!(one.transitions, nine.transitions);
        let w1 = to_text(one.trainer.policy());
        assert_eq!(w1, to_text(four.trainer.policy()), "weights diverged");
        assert_eq!(w1, to_text(nine.trainer.policy()), "weights diverged");
    }

    #[test]
    fn farm_learns_the_contextual_bandit_off_policy() {
        let factory = || ContextualBandit::new(3);
        let farm = FarmConfig {
            envs: 4,
            curve_points: 4,
            eval_episodes: 4,
            max_episode_steps: 8,
        };
        let run = train_farm(&factory, quick_cfg(4_000), &farm, 7);
        assert!(
            run.final_eval() > 0.9,
            "greedy eval should approach 1.0, got {}",
            run.final_eval()
        );
        for c in 0..3 {
            let mut state = vec![0.0; 3];
            state[c] = 1.0;
            assert_eq!(run.trainer.greedy_action(&state), c, "context {c}");
        }
    }

    #[test]
    fn farm_handles_multi_step_episodes_and_stays_env_count_invariant() {
        let factory = || ChainWalk::new(4);
        let run_with = |envs: usize| {
            let farm = FarmConfig {
                envs,
                curve_points: 3,
                eval_episodes: 2,
                max_episode_steps: 24,
            };
            train_farm(&factory, quick_cfg(900), &farm, 11)
        };
        let one = run_with(1);
        let eight = run_with(8);
        assert_eq!(one.curve, eight.curve, "curve depends on env count");
        assert_eq!(
            to_text(one.trainer.policy()),
            to_text(eight.trainer.policy()),
            "weights diverged"
        );
        // Multi-step episodes: strictly more transitions than episodes.
        assert!(one.transitions > one.episodes);
    }

    #[test]
    fn curve_checkpoints_cover_the_run_and_end_at_the_total() {
        let factory = || ContextualBandit::new(2);
        let farm = FarmConfig {
            envs: 2,
            curve_points: 5,
            eval_episodes: 1,
            max_episode_steps: 4,
        };
        let run = train_farm(&factory, quick_cfg(500), &farm, 3);
        assert_eq!(run.curve.len(), 5);
        assert_eq!(run.curve.last().map(|p| p.transitions), Some(500));
        assert!(run
            .curve
            .windows(2)
            .all(|w| w[0].transitions < w[1].transitions));
        assert_eq!(run.transitions, 500);
        assert!(run.episodes > 0);
    }

    /// A bandit whose `step` panics in rollout episode 7, which it
    /// recognises by the RNG state the farm resets it with.
    struct FailsInEpisode7 {
        bandit: ContextualBandit,
        root: u64,
        doomed: bool,
    }

    impl Environment for FailsInEpisode7 {
        fn state_dim(&self) -> usize {
            self.bandit.state_dim()
        }
        fn num_actions(&self) -> usize {
            self.bandit.num_actions()
        }
        fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
            let seventh = SimRng::derive_seed(self.root, &[EPISODE_STREAM, 7]);
            self.doomed = *rng == StdRng::seed_from_u64(seventh);
            self.bandit.reset(rng)
        }
        fn step(&mut self, action: usize, rng: &mut StdRng) -> crate::env::Step {
            assert!(!self.doomed, "episode 7 failed");
            self.bandit.step(action, rng)
        }
    }

    #[test]
    fn an_environment_panic_reraises_on_the_caller_without_hanging() {
        for envs in [1, 3] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| {
                    let factory = || FailsInEpisode7 {
                        bandit: ContextualBandit::new(3),
                        root: 42,
                        doomed: false,
                    };
                    let farm = FarmConfig {
                        envs,
                        curve_points: 2,
                        eval_episodes: 1,
                        max_episode_steps: 4,
                    };
                    train_farm(&factory, quick_cfg(100), &farm, 42);
                });
                let message = outcome
                    .err()
                    .and_then(|panic| panic.downcast_ref::<&str>().map(|s| s.to_string()));
                let _ = tx.send(message);
            });
            let message = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the farm hung instead of re-raising the panic");
            assert_eq!(message.as_deref(), Some("episode 7 failed"), "envs {envs}");
        }
    }
}
