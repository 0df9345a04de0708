//! The training farm's determinism/equivalence layer — the farm analogue
//! of `harness_determinism.rs`.
//!
//! Pins the three guarantees the RL training subsystem makes:
//!
//! 1. **Environment-count invariance** — training curves and final weights
//!    are byte-identical for any `envs` at a fixed seed (the farm's rollout
//!    width is pure prefetch, like the scheduler's `--threads`).
//! 2. **Golden report bytes** — the `exp train:calm --quick` JSON
//!    digest is pinned, so any drift in the farm, the environment
//!    adapter, the engine or the report assembly shows up here.
//! 3. **Zoo round-trip** — weights survive serialize → parse → decide, the
//!    committed weight files print back byte for byte, and the committed
//!    zoo beats every one of its own arms run as a fixed
//!    policy on mean reliability across the dynamic-world presets.
//! 4. **Exact work** — the farm steps and resets the environment exactly
//!    as often as the consumed and evaluation episodes need with one
//!    rollout worker, and wastes at most its lookahead with more.

use dimmer_baselines::SimulationBuilder;
use dimmer_bench::harness::RunOptions;
use dimmer_bench::scenarios::dynamic_scenario;
use dimmer_bench::training::{
    family_setup, train_dqn_config, train_family, train_grid, TRAIN_FAMILIES,
};
use dimmer_core::pretrained::PRETRAINED_DQN_TEXT;
use dimmer_core::sim_env::DEFAULT_EPISODE_ROUNDS;
use dimmer_core::zoo::{has_full_zoo, zoo_policy, zoo_text};
use dimmer_core::{DimmerConfig, SimEnvironment};
use dimmer_integration::equivalence::json_digest;
use dimmer_lwb::LwbConfig;
use dimmer_neural::serialize::{from_text, to_text};
use dimmer_rl::{train_farm, Environment, FarmConfig, Step};
use dimmer_sim::{NoInterference, SimRng, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `exp train:calm --quick --seed 42 --trials 1` report digest.
/// Re-derive with:
/// `cargo run --release -p dimmer-bench --bin exp -- train:calm --quick --seed 42 --trials 1 --json train.json`
const GOLDEN_TRAIN_CALM_QUICK: u64 = 0x9e59c0825588089e;

fn quick_calm_json() -> String {
    let opts = RunOptions {
        trials: 1,
        threads: 2,
        seed: 42,
    };
    train_grid("calm", true, 4).run(&opts).to_json()
}

#[test]
fn quick_calm_training_report_matches_the_golden_digest() {
    let json = quick_calm_json();
    assert_eq!(
        json_digest(&json),
        GOLDEN_TRAIN_CALM_QUICK,
        "exp train:calm --quick --seed 42 drifted; if intentional, update the golden:\n{json}"
    );
}

#[test]
fn training_is_byte_identical_for_any_environment_count() {
    let runs: Vec<_> = [1usize, 3, 8]
        .iter()
        .map(|&envs| train_family("calm", true, envs, 42).expect("calm is a known family"))
        .collect();
    let (one, rest) = runs.split_first().expect("three runs");
    for (i, run) in rest.iter().enumerate() {
        assert_eq!(one.curve, run.curve, "curve diverged for envs run #{i}");
        assert_eq!(one.episodes, run.episodes);
        assert_eq!(one.transitions, run.transitions);
        assert_eq!(
            to_text(one.trainer.policy()),
            to_text(run.trainer.policy()),
            "final weights diverged for envs run #{i}"
        );
    }
}

#[test]
fn zoo_weights_round_trip_through_the_text_format() {
    // A fresh quick training run stands in for any zoo member: its weights
    // must decide identically after serialize → parse.
    let run = train_family("calm", true, 4, 7).expect("calm is a known family");
    let text = to_text(run.trainer.policy());
    let parsed = from_text(&text).expect("serialized weights must parse");

    // Probe on states drawn from the real simulator.
    let topo = Topology::kiel_testbed_18(1);
    let mut env = SimEnvironment::new(&topo, &NoInterference).with_episode_rounds(16);
    let mut rng = StdRng::seed_from_u64(SimRng::derive_seed(7, &[99]));
    let mut state = env.reset(&mut rng);
    for _ in 0..16 {
        assert_eq!(
            run.trainer.policy().argmax(&state),
            parsed.argmax(&state),
            "round-tripped weights disagree"
        );
        state = env
            .step(run.trainer.greedy_action(&state), &mut rng)
            .next_state;
    }
}

#[test]
fn committed_zoo_weights_match_the_embedded_state_layout() {
    assert!(
        has_full_zoo(),
        "every family in {TRAIN_FAMILIES:?} must ship trained weights"
    );
    let cfg = DimmerConfig::default();
    for family in TRAIN_FAMILIES {
        assert!(
            zoo_policy(family, &cfg).is_learned(),
            "{family}: committed weights must load as a learned policy"
        );
    }
}

#[test]
fn committed_weight_files_round_trip_byte_for_byte() {
    // Parsing transposes each row into the input-major layout and printing
    // reads it back row by row; a wrong index on either side moves a weight.
    let files = TRAIN_FAMILIES
        .iter()
        .map(|&family| (family, zoo_text(family).expect("committed zoo file")))
        .chain([("pretrained", PRETRAINED_DQN_TEXT)]);
    for (name, text) in files {
        let net = from_text(text).expect("committed weights parse");
        assert!(
            to_text(&net) == text,
            "{name}: to_text(from_text(file)) differs from the file"
        );
    }
}

/// Mean per-round reliability of `protocol` across every dynamic-world
/// preset, averaged over a few seeds. `policy` overrides the adaptivity
/// policy (used to run each zoo arm as a fixed `dimmer-dqn` policy).
fn mean_reliability(protocol: &str, policy: Option<&str>) -> f64 {
    const PRESETS: [&str; 4] = ["churn-storm", "link-fade", "roaming-jammer", "flash-crowd"];
    const ROUNDS: usize = 60;
    let topo = Topology::kiel_testbed_18(1);
    let cfg = DimmerConfig::default();
    let mut total = 0.0;
    let mut samples = 0usize;
    for preset in PRESETS {
        let sc = dynamic_scenario(preset, ROUNDS, &topo).expect("known preset");
        for trial in 0..3u64 {
            let seed = SimRng::derive_seed(42, &[trial]);
            let mut builder = SimulationBuilder::new(&topo)
                .interference(sc.interference.as_ref())
                .script(sc.script.clone())
                .seed(seed);
            if let Some(family) = policy {
                builder = builder.policy(zoo_policy(family, &cfg));
            }
            let mut sim = builder.build_protocol(protocol).expect("known protocol");
            for r in sim.run_rounds(ROUNDS) {
                total += r.reliability;
                samples += 1;
            }
        }
    }
    total / samples as f64
}

#[test]
fn zoo_beats_every_fixed_arm_across_the_dynamic_presets() {
    let zoo = mean_reliability("dimmer-zoo", None);
    for family in TRAIN_FAMILIES {
        let fixed = mean_reliability("dimmer-dqn", Some(family));
        assert!(
            zoo > fixed,
            "dimmer-zoo ({zoo:.4}) must beat the fixed '{family}' policy ({fixed:.4}) \
             on mean reliability across the dynamic presets"
        );
    }
}

/// Counts every `reset` and `step` of the wrapped environment.
struct Counted<'a, E> {
    env: E,
    resets: &'a AtomicUsize,
    steps: &'a AtomicUsize,
}

impl<E: Environment> Environment for Counted<'_, E> {
    fn state_dim(&self) -> usize {
        self.env.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.env.num_actions()
    }

    fn reset(&mut self, rng: &mut StdRng) -> Vec<f32> {
        self.resets.fetch_add(1, Ordering::Relaxed);
        self.env.reset(rng)
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> Step {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.env.step(action, rng)
    }
}

#[test]
fn the_farm_steps_the_environment_exactly_as_often_as_it_learns_and_evaluates() {
    // `train_family("jammed", quick, envs, 42)` with a counting factory:
    // 50 episodes of 60 rounds cover the 3 000 transitions, and 8 curve
    // points evaluate 2 greedy episodes each.
    const EPISODE: usize = DEFAULT_EPISODE_ROUNDS;
    const EXACT_RESETS: usize = 50 + 8 * 2;
    let topo = Topology::kiel_testbed_18(1);
    let setup = family_setup("jammed", EPISODE, &topo).expect("jammed is a known family");
    let reference = train_family("jammed", true, 1, 42).expect("jammed is a known family");
    for envs in [1usize, 3, 8] {
        let (resets, steps) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let factory = || Counted {
            env: SimEnvironment::with_configs(
                &topo,
                setup.interference.as_ref(),
                LwbConfig::testbed_default(),
                SimEnvironment::training_config(&topo),
            )
            .with_script(setup.script.clone())
            .with_episode_rounds(EPISODE),
            resets: &resets,
            steps: &steps,
        };
        let farm = FarmConfig {
            envs,
            curve_points: 8,
            eval_episodes: 2,
            max_episode_steps: EPISODE,
        };
        let run = train_farm(&factory, train_dqn_config(true), &farm, 42);
        assert_eq!((run.episodes, run.transitions), (50, 3_000), "envs {envs}");
        assert_eq!(
            to_text(run.trainer.policy()),
            to_text(reference.trainer.policy()),
            "envs {envs}: the counting factory must train what train_family trains"
        );
        let (resets, steps) = (resets.into_inner(), steps.into_inner());
        // Every jammed episode runs its full 60 rounds, and no episode is
        // rolled out that the learner does not consume, at any `envs`.
        assert_eq!((steps, resets), (3_960, EXACT_RESETS), "envs {envs}");
    }
}
