//! `train`: the paper's offline pipeline (trace collection, then
//! `train_policy` on the traces) plus the in-sim farm
//! (`train_family("jammed", full, envs 1, seed)`). Collection is the
//! set-up; one pass trains both policies.
//!
//! The traced run rebuilds the farm's environment factory with the
//! [`crate::trace::TimedEnv`] probe and requires the same trained weights.

use std::time::Instant;

use dimmer_bench::training::{family_setup, train_dqn_config, train_family};
use dimmer_core::sim_env::DEFAULT_EPISODE_ROUNDS;
use dimmer_core::{DimmerConfig, SimEnvironment};
use dimmer_lwb::LwbConfig;
use dimmer_neural::serialize::to_text;
use dimmer_rl::farm::{train_farm, FarmConfig, FarmRun};
use dimmer_rl::{DqnConfig, Environment};
use dimmer_sim::{SimRng, Topology};
use dimmer_traces::{train_policy, TraceCollector, TraceDataset, TraceEnvironment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{fnv, median, Counters, Fnv};
use crate::trace::{self, TimedEnv};
use crate::{Args, Outcome};

/// The farm's family and environment count.
const FAMILY: &str = "jammed";
const ENVS: usize = 1;
/// Trace rounds collected for the offline pipeline.
const TRACE_ROUNDS: usize = 220;
/// Learner iterations of `train_policy` on the collected traces.
const PIPELINE_ITERATIONS: usize = 20_000;

/// The seeds of one run: traces, offline learner, farm.
pub fn seeds(seed: u64) -> [u64; 3] {
    [0, 1, 2].map(|i| SimRng::derive_seed(seed, &[i]))
}

fn pipeline_config() -> DqnConfig {
    DqnConfig::quick().with_iterations(PIPELINE_ITERATIONS)
}

fn farm_digest(run: &FarmRun) -> u64 {
    let mut h = Fnv::default();
    h.bytes(to_text(run.trainer.policy()).as_bytes());
    for p in &run.curve {
        h.u64(p.transitions as u64);
        h.f64(p.mean_loss);
        h.f64(p.eval_reward);
    }
    h.u64(run.episodes as u64);
    h.finish()
}

/// `train_family` rebuilt with the environment probe in the factory.
fn probed_family(seed: u64) -> FarmRun {
    let topo = Topology::kiel_testbed_18(1);
    let setup = family_setup(FAMILY, DEFAULT_EPISODE_ROUNDS, &topo).expect("known family");
    let interference = setup.interference;
    let script = setup.script;
    let factory = || {
        TimedEnv(
            SimEnvironment::with_configs(
                &topo,
                interference.as_ref(),
                LwbConfig::testbed_default(),
                SimEnvironment::training_config(&topo),
            )
            .with_script(script.clone())
            .with_episode_rounds(DEFAULT_EPISODE_ROUNDS),
        )
    };
    let farm = FarmConfig {
        envs: ENVS,
        curve_points: 8,
        eval_episodes: 2,
        max_episode_steps: DEFAULT_EPISODE_ROUNDS,
    };
    train_farm(&factory, train_dqn_config(false), &farm, seed)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        work_unit: "transitions",
        op_name: "one pass: offline policy + farm policy",
        ..Outcome::default()
    };
    out.shape.push(("train.envs", ENVS.to_string()));
    out.shape.push(("train.family", FAMILY.into()));
    let [trace_seed, learner_seed, farm_seed] = seeds(args.seed);

    // Set-up (trace collection) runs before the measured phase and again
    // after every pass, twice each time, so its median spans the whole run;
    // only the passes count as busy time.
    let topo = Topology::kiel_testbed_18(1);
    let collect = |out: &mut Outcome| {
        let mut last = None;
        for _ in 0..2 {
            let t = Instant::now();
            let d = TraceCollector::new(&topo, trace_seed).collect(TRACE_ROUNDS);
            out.setup_s.push(t.elapsed().as_secs_f64());
            last = Some(d);
        }
        last.expect("collected")
    };
    let dataset = collect(&mut out);
    out.digests
        .push(("traces".into(), fnv(format!("{dataset:?}").as_bytes())));

    let cfg = DimmerConfig::default();
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget);
    let (mut pipeline_s, mut farm_s) = (Vec::new(), Vec::new());
    let mut counters = Counters::default();
    loop {
        let t = Instant::now();
        let report = train_policy(&dataset, &cfg, &pipeline_config(), learner_seed);
        let t_pipe = t.elapsed().as_secs_f64();
        let run = train_family(FAMILY, false, ENVS, farm_seed).expect("known family");
        let t_pass = t.elapsed().as_secs_f64();
        pipeline_s.push(t_pipe);
        farm_s.push(t_pass - t_pipe);
        out.op_ms.push(t_pass * 1e3);
        out.attempted += 2;
        out.work += (report.iterations + run.transitions) as u64;
        let digests = [
            ("offline_policy", fnv(to_text(&report.policy).as_bytes())),
            ("farm_policy", farm_digest(&run)),
        ];
        for (name, d) in digests {
            match out.digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d) {
                Some(first) => out.check(d == first, || format!("{name} changed between passes")),
                None => out.digests.push((name.to_string(), d)),
            }
        }
        if counters.0.is_empty() {
            counters.add("transitions", (report.iterations + run.transitions) as u64);
            counters.add("farm_episodes", run.episodes as u64);
        }
        out.busy_s += t_pass;
        // Stop before a pass that would overrun the budget.
        if Instant::now() + t.elapsed() > deadline {
            break;
        }
        let again = collect(&mut out);
        out.attempted += 1;
        out.check(again == dataset, || {
            "trace collection is not deterministic".into()
        });
    }
    out.counters = counters;
    out.notes.push(format!(
        "ns per transition: offline {:.0}, farm {:.0}",
        median(&pipeline_s) * 1e9 / PIPELINE_ITERATIONS as f64,
        median(&farm_s) * 1e9 / train_dqn_config(false).training_iterations as f64
    ));

    if args.trace {
        out.layer("traces.collector.collect_ms", median(&out.setup_s) * 1e3);
        out.layer("traces.pipeline.train_s", median(&pipeline_s));
        out.layer(
            "traces.env.step_ns",
            trace_env_probe(&dataset, &cfg, learner_seed),
        );

        trace::reset_all();
        let t = Instant::now();
        let run = probed_family(farm_seed);
        let farm_ns = t.elapsed().as_nanos() as f64;
        let want = out
            .digests
            .iter()
            .find(|(n, _)| n == "farm_policy")
            .map(|(_, d)| *d);
        let same = want == Some(farm_digest(&run));
        out.attempted += 1;
        out.check(same, || "traced farm differs from the untraced farm".into());
        let env_ns = (trace::ENV_STEP.ns() + trace::ENV_RESET.ns()) as f64;
        let learn_ns = (farm_ns - env_ns) / run.transitions as f64;
        out.layer("core.sim_env.step_ns", trace::ENV_STEP.mean_ns());
        out.layer("core.sim_env.steps", trace::ENV_STEP.calls() as f64);
        out.layer("core.sim_env.reset_ns", trace::ENV_RESET.mean_ns());
        out.layer("rl.farm.episodes", run.episodes as f64);
        out.layer("rl.dqn.learn_ns", learn_ns);
        out.counters.add("env_steps", trace::ENV_STEP.calls());
        let untraced = median(&farm_s) * 1e9;
        out.notes.push(format!(
            "attribution farm {:.3} s = env {:.3} s ({:.1} %) + learner and rollout bookkeeping {:.3} s",
            farm_ns / 1e9,
            env_ns / 1e9,
            env_ns / farm_ns * 100.0,
            (farm_ns - env_ns) / 1e9
        ));
        out.notes.push(format!(
            "trace overhead: probed farm {:.3} s vs untraced {:.3} s ({:+.1} %)",
            farm_ns / 1e9,
            untraced / 1e9,
            (farm_ns / untraced - 1.0) * 100.0
        ));
        if !same {
            out.notes
                .push("traced digests differ: per-layer numbers discarded".into());
            out.layers.clear();
        }
    }
    out
}

/// Mean ns per `TraceEnvironment::step` under uniform-random actions.
fn trace_env_probe(dataset: &TraceDataset, cfg: &DimmerConfig, seed: u64) -> f64 {
    const STEPS: usize = 20_000;
    let mut env = TraceEnvironment::new(dataset.clone(), cfg.clone(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    env.reset(&mut rng);
    let actions = env.num_actions();
    let t = Instant::now();
    for _ in 0..STEPS {
        let a = rng.gen_range(0..actions);
        if env.step(a, &mut rng).done {
            env.reset(&mut rng);
        }
    }
    t.elapsed().as_nanos() as f64 / STEPS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_seed_dependent() {
        assert_eq!(seeds(5), seeds(5));
        assert_ne!(seeds(5), seeds(6));
    }

    #[test]
    fn environment_probe_leaves_a_tiny_farm_unchanged() {
        let topo = Topology::kiel_testbed_18(1);
        let plain =
            || SimEnvironment::new(&topo, &dimmer_sim::NoInterference).with_episode_rounds(6);
        let probed = || TimedEnv(plain());
        let farm = FarmConfig {
            envs: 2,
            curve_points: 2,
            eval_episodes: 1,
            max_episode_steps: 6,
        };
        let cfg = DqnConfig::quick().with_iterations(200);
        let a = train_farm(&plain, cfg.clone(), &farm, 3);
        let b = train_farm(&probed, cfg, &farm, 3);
        assert_eq!(farm_digest(&a), farm_digest(&b));
    }
}
