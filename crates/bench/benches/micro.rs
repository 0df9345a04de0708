//! Criterion micro-benchmarks for the building blocks of the reproduction:
//! Glossy flood simulation, LWB round execution, quantized vs floating-point
//! DQN inference, Exp3 updates, DQN training steps and trace-environment
//! steps.

use criterion::{criterion_group, criterion_main, Criterion};
use dimmer_core::{DimmerConfig, GlobalView, StateBuilder};
use dimmer_glossy::{FloodSimulator, GlossyConfig};
use dimmer_lwb::{LwbConfig, RoundExecutor, Schedule};
use dimmer_neural::{Mlp, QuantizedNetwork};
use dimmer_rl::{DqnConfig, DqnTrainer, Environment, Exp3, Transition};
use dimmer_sim::{NoInterference, NodeId, SimRng, SimTime, Topology};
use dimmer_traces::{TraceCollector, TraceEnvironment};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_glossy_flood(c: &mut Criterion) {
    let topo = Topology::kiel_testbed_18(1);
    let mut sim = FloodSimulator::new(&topo, &NoInterference);
    let cfg = GlossyConfig::default();
    let mut rng = SimRng::seed_from(1);
    c.bench_function("glossy_flood_18_nodes_ntx3", |b| {
        b.iter(|| sim.flood(&cfg, topo.coordinator(), SimTime::ZERO, &mut rng))
    });
}

fn bench_lwb_round(c: &mut Criterion) {
    let topo = Topology::kiel_testbed_18(1);
    let lwb = LwbConfig::testbed_default();
    let mut exec = RoundExecutor::new(&topo, &NoInterference, lwb);
    let sources: Vec<NodeId> = topo.node_ids().collect();
    let schedule = Schedule::new(0, sources, dimmer_glossy::NtxAssignment::Uniform(3));
    let mut rng = SimRng::seed_from(2);
    c.bench_function("lwb_round_18_slots", |b| {
        b.iter(|| exec.run_round(&schedule, SimTime::ZERO, &mut rng))
    });
}

fn bench_dqn_inference(c: &mut Criterion) {
    let cfg = DimmerConfig::default();
    let mlp = Mlp::new(&[cfg.state_dim(), 30, 3], 3);
    let quantized = QuantizedNetwork::from_mlp(&mlp);
    let state = StateBuilder::new(cfg).build(&GlobalView::new(18), 3);
    c.bench_function("dqn_inference_float", |b| b.iter(|| mlp.argmax(&state)));
    c.bench_function("dqn_inference_quantized", |b| {
        b.iter(|| quantized.argmax_f32(&state))
    });
}

fn bench_exp3_update(c: &mut Criterion) {
    let mut bandit = Exp3::new(2, 0.1);
    let mut rng = StdRng::seed_from_u64(5);
    c.bench_function("exp3_select_and_update", |b| {
        b.iter(|| {
            let (arm, p) = bandit.select_arm(&mut rng);
            bandit.update(arm, 1.0, p);
        })
    });
}

fn bench_dqn_training_step(c: &mut Criterion) {
    let cfg = DimmerConfig::default();
    let mut trainer = DqnTrainer::new(
        cfg.state_dim(),
        3,
        DqnConfig {
            warmup_transitions: 1,
            ..DqnConfig::quick()
        },
        7,
    );
    let state = vec![0.1f32; cfg.state_dim()];
    let transition = Transition {
        state: state.clone(),
        action: 1,
        reward: 0.9,
        next_state: state,
        done: false,
    };
    c.bench_function("dqn_observe_and_train_step", |b| {
        b.iter(|| trainer.observe(transition.clone()))
    });
}

fn bench_trace_env_step(c: &mut Criterion) {
    let topo = Topology::kiel_testbed_18(2);
    let dataset = TraceCollector::new(&topo, 9)
        .with_sweep(vec![0.0, 0.3], 2)
        .collect(20);
    let mut env = TraceEnvironment::new(dataset, DimmerConfig::default(), 3);
    let mut rng = StdRng::seed_from_u64(11);
    env.reset(&mut rng);
    c.bench_function("trace_environment_step", |b| {
        b.iter(|| {
            let s = env.step(2, &mut rng);
            if s.done {
                env.reset(&mut rng);
            }
        })
    });
}

criterion_group!(
    benches,
    bench_glossy_flood,
    bench_lwb_round,
    bench_dqn_inference,
    bench_exp3_update,
    bench_dqn_training_step,
    bench_trace_env_step
);
criterion_main!(benches);
