//! `figures`: the paper's evaluation grids at their full round counts,
//! through the public grid builders and `ScenarioGrid::run` on one
//! scheduler thread.
//!
//! The traced run rebuilds the same grids from the same single-trial
//! recipes with the probes of [`crate::trace`] plugged in through
//! `SimulationBuilder::build(controller)` and `.interference(..)`, and
//! requires their reports to be byte-identical to the untraced grids.

use std::time::{Duration, Instant};

use dimmer_baselines::{PidController, SimulationBuilder};
use dimmer_bench::experiments::{
    dynamics_grid, fig5_grid, fig6_grid, fig7_grid, protocol_list, Fig7Scenario, DCUBE_PROTOCOLS,
    DYNAMICS_PROTOCOLS, TESTBED_PROTOCOLS,
};
use dimmer_bench::harness::{RunOptions, ScenarioGrid, TrialMetrics};
use dimmer_bench::scenarios::{dimmer_policy, dynamic_scenario, kiel_jamming, DYNAMIC_SCENARIOS};
use dimmer_bench::summary::{mean_forwarders, phase_summaries, summarize, summary_metrics};
use dimmer_core::{
    AdaptivityController, AdaptivityPolicy, DimmerConfig, DimmerRoundReport, Simulation,
    StaticNtxController, ZooController,
};
use dimmer_glossy::{FloodSimulator, GlossyConfig, NtxAssignment};
use dimmer_lwb::{LwbConfig, RoundExecutor, Schedule, TrafficPattern};
use dimmer_sim::{
    CompiledTopology, InterferenceModel, NoInterference, SimRng, SimTime, Topology,
    WifiInterference, WifiLevel,
};

use crate::stats::{fnv, Counters};
use crate::trace::{self, TimedController, TimedInterference};
use crate::{Args, Outcome};

/// The Fig. 5 jamming duty-cycle sweep of `exp_fig5`.
const FIG5_LEVELS: [f64; 8] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35];
const FIG5_ROUNDS: usize = 200;
const FIG6_ROUNDS: usize = 4500;
const FIG7_ROUNDS: usize = 600;
const DYNAMICS_ROUNDS: usize = 200;
/// Trials per cell, as the binaries default them.
const FIG5_TRIALS: usize = 3;
const FIG6_TRIALS: usize = 1;
const FIG7_TRIALS: usize = 3;
const DYNAMICS_TRIALS: usize = 1;

/// One figure grid of the workload.
pub struct Figure {
    /// `fig5`, `fig6`, `fig7` or `dynamics:<preset>`.
    pub name: String,
    pub grid: ScenarioGrid,
    pub opts: RunOptions,
    /// LWB rounds (Crystal epochs) one run of the grid simulates.
    pub rounds: u64,
}

fn dynamics_protocols() -> Vec<String> {
    let mut p = protocol_list(&DYNAMICS_PROTOCOLS);
    p.push("dimmer-zoo".into());
    p
}

fn opts(trials: usize, seed: u64, index: u64) -> RunOptions {
    RunOptions {
        trials,
        threads: 1,
        seed: SimRng::derive_seed(seed, &[index]),
    }
}

/// The workload's grids; `traced` swaps in the probed rebuilds.
pub fn figures(policy: &AdaptivityPolicy, seed: u64, traced: bool) -> Vec<Figure> {
    let testbed = protocol_list(&TESTBED_PROTOCOLS);
    let dcube = protocol_list(&DCUBE_PROTOCOLS);
    let mut out = vec![
        Figure {
            name: "fig5".into(),
            grid: if traced {
                traced_fig5(policy, FIG5_ROUNDS, &FIG5_LEVELS, &testbed)
            } else {
                fig5_grid(policy.clone(), FIG5_ROUNDS, &FIG5_LEVELS, &testbed)
            },
            opts: opts(FIG5_TRIALS, seed, 0),
            rounds: (FIG5_LEVELS.len() * testbed.len() * FIG5_TRIALS * FIG5_ROUNDS) as u64,
        },
        Figure {
            name: "fig6".into(),
            grid: if traced {
                traced_fig6(FIG6_ROUNDS)
            } else {
                fig6_grid(FIG6_ROUNDS, None)
            },
            opts: opts(FIG6_TRIALS, seed, 1),
            rounds: (2 * FIG6_TRIALS * FIG6_ROUNDS) as u64,
        },
        Figure {
            name: "fig7".into(),
            grid: if traced {
                traced_fig7(policy, FIG7_ROUNDS, &dcube)
            } else {
                fig7_grid(policy.clone(), FIG7_ROUNDS, &dcube)
            },
            opts: opts(FIG7_TRIALS, seed, 2),
            rounds: (Fig7Scenario::ALL.len() * dcube.len() * FIG7_TRIALS * FIG7_ROUNDS) as u64,
        },
    ];
    let dynamics = dynamics_protocols();
    for (i, preset) in DYNAMIC_SCENARIOS.iter().enumerate() {
        out.push(Figure {
            name: format!("dynamics:{preset}"),
            grid: if traced {
                traced_dynamics(policy, DYNAMICS_ROUNDS, preset, &dynamics)
            } else {
                dynamics_grid(policy.clone(), DYNAMICS_ROUNDS, preset, &dynamics, None)
            },
            opts: opts(DYNAMICS_TRIALS, seed, 3 + i as u64),
            rounds: (dynamics.len() * DYNAMICS_TRIALS * DYNAMICS_ROUNDS) as u64,
        });
    }
    out
}

/// Runs one grid and returns its JSON report with the wall time in s.
fn run_figure(f: &Figure) -> (String, f64) {
    let t = Instant::now();
    let json = f.grid.run(&f.opts).to_json();
    (json, t.elapsed().as_secs_f64())
}

/// The set-up: policy, grids, and a warm-up run of the dynamics grids.
/// Returns the grids and the warm-up digests.
fn set_up(seed: u64, out: &mut Outcome) -> (Vec<Figure>, Vec<u64>) {
    let t = Instant::now();
    let policy = dimmer_policy(false);
    let figs = figures(&policy, seed, false);
    let warm = figs[3..]
        .iter()
        .map(|f| fnv(run_figure(f).0.as_bytes()))
        .collect();
    out.setup_s.push(t.elapsed().as_secs_f64());
    (figs, warm)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        work_unit: "rounds",
        op_name: "one pass over every figure grid",
        ..Outcome::default()
    };
    out.shape.push(("figures.scheduler_threads", "1".into()));

    // Set-up runs before the measured phase and again after every pass, so
    // its median spans the whole run; only the passes count as busy time.
    let (figs, warm) = set_up(args.seed, &mut out);
    let mut counters = Counters::default();
    for f in &figs {
        counters.add("rounds", f.rounds);
        counters.add("grids", 1);
    }
    out.counters = counters;

    // Measured phase: whole passes over every grid. Traced runs spend half
    // the budget here and the rest on the probed pass.
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    let mut grid_s = vec![Vec::new(); figs.len()];
    loop {
        let pass = Instant::now();
        for (i, f) in figs.iter().enumerate() {
            let (json, secs) = run_figure(f);
            let digest = fnv(json.as_bytes());
            out.attempted += 1;
            if let Some((_, first)) = out.digests.iter().find(|(n, _)| *n == f.name) {
                let first = *first;
                out.check(digest == first, || {
                    format!("{} changed between passes", f.name)
                });
            } else {
                out.digests.push((f.name.clone(), digest));
            }
            grid_s[i].push(secs);
            out.work += f.rounds;
        }
        let pass = pass.elapsed();
        out.op_ms.push(pass.as_secs_f64() * 1e3);
        out.busy_s += pass.as_secs_f64();
        // Stop before a pass that would overrun the budget.
        if Instant::now() + pass > deadline {
            break;
        }
        let (_, again) = set_up(args.seed, &mut out);
        out.check(again == warm, || "warm-up digests changed".into());
    }
    for (f, w) in figs[3..].iter().zip(&warm) {
        let d = out
            .digests
            .iter()
            .find(|(n, _)| *n == f.name)
            .map(|(_, d)| *d);
        out.check(d == Some(*w), || {
            format!("{} differs from its warm-up run", f.name)
        });
    }
    let rounds_per_pass = out.counters.get("rounds");
    out.notes.push(format!(
        "ns per round: {:.1} (rounds_per_s {:.1})",
        out.busy_s * 1e9 / out.work as f64,
        out.work as f64 / out.busy_s
    ));
    if args.trace {
        traced(args, &mut out, &figs, &grid_s, rounds_per_pass);
    }
    out
}

/// Per-round and per-build timings collected by the probed rebuilds.
#[derive(Default)]
struct EngineTally {
    round_ns: u64,
    rounds: u64,
    /// LWB rounds on the 18-node testbed, the attribution's base.
    testbed_ns: u64,
    testbed_rounds: u64,
    build_ns: u64,
    builds: u64,
}

static ENGINE: std::sync::Mutex<EngineTally> = std::sync::Mutex::new(EngineTally {
    round_ns: 0,
    rounds: 0,
    testbed_ns: 0,
    testbed_rounds: 0,
    build_ns: 0,
    builds: 0,
});

fn engine_tally() -> std::sync::MutexGuard<'static, EngineTally> {
    ENGINE.lock().unwrap_or_else(|p| p.into_inner())
}

fn traced(args: &Args, out: &mut Outcome, figs: &[Figure], grid_s: &[Vec<f64>], rounds: u64) {
    // Untraced per-grid wall times from the measured phase.
    let by = |pred: &dyn Fn(&str) -> bool| -> f64 {
        figs.iter()
            .zip(grid_s)
            .filter(|(f, _)| pred(&f.name))
            .map(|(_, s)| crate::stats::median(s))
            .sum()
    };
    let untraced_pass = by(&|_| true);
    out.layer("bench.experiments.fig5_s", by(&|n| n == "fig5"));
    out.layer("bench.experiments.fig6_s", by(&|n| n == "fig6"));
    out.layer("bench.experiments.fig7_s", by(&|n| n == "fig7"));
    out.layer(
        "bench.experiments.dynamics_s",
        by(&|n| n.starts_with("dynamics:")),
    );

    // One probed pass; its reports must equal the untraced ones.
    let policy = dimmer_policy(false);
    let probed = figures(&policy, args.seed, true);
    trace::reset_all();
    *engine_tally() = EngineTally::default();
    let t = Instant::now();
    let mut json_ns = 0u128;
    let mut identical = true;
    for f in &probed {
        let report = f.grid.run(&f.opts);
        let tj = Instant::now();
        let json = report.to_json();
        json_ns += tj.elapsed().as_nanos();
        let want = out
            .digests
            .iter()
            .find(|(n, _)| *n == f.name)
            .map(|(_, d)| *d);
        let same = want == Some(fnv(json.as_bytes()));
        identical &= same;
        out.attempted += 1;
        out.check(same, || {
            format!("traced {} differs from the untraced grid", f.name)
        });
    }
    let traced_pass = t.elapsed().as_secs_f64();
    out.notes.push(format!(
        "trace overhead: probed pass {traced_pass:.3} s vs untraced {untraced_pass:.3} s ({:+.1} %)",
        (traced_pass / untraced_pass - 1.0) * 100.0
    ));
    if !identical {
        out.notes
            .push("traced digests differ: per-layer numbers discarded".into());
        out.layers.clear();
        return;
    }

    let e = std::mem::take(&mut *engine_tally());
    let round_ns = e.round_ns as f64 / e.rounds.max(1) as f64;
    let observe_ns = trace::OBSERVE.mean_ns();
    let slot_ns = trace::SLOT.mean_ns();
    let slot_calls = trace::SLOT.calls();
    out.layer(
        "baselines.registry.build_us",
        e.build_ns as f64 / e.builds.max(1) as f64 / 1e3,
    );
    out.layer("baselines.registry.builds", e.builds as f64);
    out.layer("core.engine.round_ns", round_ns);
    out.layer("core.engine.rounds", e.rounds as f64);
    out.layer("core.controller.observe_ns", observe_ns);
    out.layer("core.controller.decisions", trace::OBSERVE.calls() as f64);
    out.layer(
        "core.controller.ntx_changes",
        trace::NTX_CHANGES.load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    out.layer(
        "sim.interference.compile_us",
        trace::MASK_COMPILE.mean_ns() / 1e3,
    );
    out.layer("sim.interference.slot_calls", slot_calls as f64);
    out.layer("sim.interference.slot_ns", slot_ns);
    out.layer(
        "bench.report.to_json_us",
        json_ns as f64 / probed.len() as f64 / 1e3,
    );
    out.check(e.rounds == rounds, || {
        format!("probed pass ran {} rounds, expected {rounds}", e.rounds)
    });

    let (lwb_ns, lwb_floods) = lwb_probe();
    out.layer("lwb.round.round_ns", lwb_ns);
    out.layer("lwb.round.floods", lwb_floods as f64);
    let (flood_ns, reach) = flood_probe();
    out.layer("glossy.flood.flood_ns", flood_ns);
    out.layer("glossy.flood.reach_frac", reach);
    let (patch_ns, patches) = patch_probe();
    out.layer("sim.compiled.patch_ns", patch_ns);
    out.layer("sim.compiled.patches", patches as f64);

    // Attribution: a testbed engine round against its parts.
    let testbed_ns = e.testbed_ns as f64 / e.testbed_rounds.max(1) as f64;
    let slot_per_round = slot_ns * slot_calls as f64 / e.rounds.max(1) as f64;
    let residual = testbed_ns - lwb_ns - observe_ns;
    out.layer("core.engine.residual_ns", residual);
    out.notes.push(format!(
        "attribution testbed engine round {testbed_ns:.0} ns = lwb.round {lwb_ns:.0} + observe \
         {observe_ns:.0} + residual {residual:.0} ({:.1} % of the round); mask slot time per round \
         {slot_per_round:.0} ns (inside lwb.round)",
        residual / testbed_ns * 100.0
    ));
    out.counters.add("decisions", trace::OBSERVE.calls());
    out.counters.add("slot_calls", slot_calls);
    out.counters.add("patches", patches);
    out.notes.push(format!(
        "ns per unit: round {round_ns:.0}, decision {observe_ns:.0}, slot call {slot_ns:.0}, patch {patch_ns:.0}"
    ));
}

/// Builds one probed simulation the way the registry builds `protocol`,
/// timing the construction and wrapping the controller.
fn probed_sim<'a>(
    protocol: &str,
    builder: SimulationBuilder<'a>,
    topo: &Topology,
    cfg: DimmerConfig,
    policy: &AdaptivityPolicy,
) -> Box<dyn Simulation + 'a> {
    let t = Instant::now();
    let k = cfg.k_input_nodes.min(topo.num_nodes());
    let normalized = cfg.clone().with_k_input_nodes(k);
    let mut baseline = normalized.clone().without_adaptivity();
    baseline.forwarder.enabled = false;
    let sim: Box<dyn Simulation + 'a> = match protocol {
        "static" => {
            baseline.initial_ntx = 3u8.clamp(baseline.n_min, baseline.n_max);
            Box::new(
                builder
                    .dimmer_config(baseline)
                    .build(TimedController(StaticNtxController::new(3))),
            )
        }
        "pid" => Box::new(
            builder
                .dimmer_config(baseline)
                .build(TimedController(PidController::paper_pi())),
        ),
        "dimmer-dqn" => Box::new(builder.dimmer_config(cfg).build(TimedController(
            AdaptivityController::new(policy.clone(), normalized),
        ))),
        "dimmer-rule" => Box::new(builder.dimmer_config(cfg).build(TimedController(
            AdaptivityController::new(AdaptivityPolicy::rule_based(), normalized),
        ))),
        "dimmer-zoo" => Box::new(
            builder
                .dimmer_config(cfg)
                .build(TimedController(ZooController::standard(normalized))),
        ),
        // Crystal adapts inside its epochs; its controller is a no-op.
        other => builder
            .dimmer_config(cfg)
            .build_protocol(other)
            .unwrap_or_else(|e| panic!("{e}")),
    };
    let mut e = engine_tally();
    e.build_ns += t.elapsed().as_nanos() as u64;
    e.builds += 1;
    sim
}

fn timed_rounds(sim: &mut dyn Simulation, rounds: usize, testbed: bool) -> Vec<DimmerRoundReport> {
    let mut reports = Vec::with_capacity(rounds);
    let mut ns = 0u64;
    for _ in 0..rounds {
        let t = Instant::now();
        reports.push(sim.run_round());
        ns += t.elapsed().as_nanos() as u64;
    }
    let mut e = engine_tally();
    e.round_ns += ns;
    e.rounds += rounds as u64;
    if testbed {
        e.testbed_ns += ns;
        e.testbed_rounds += rounds as u64;
    }
    reports
}

fn testbed_period_ms() -> f64 {
    LwbConfig::testbed_default().round_period.as_millis_f64()
}

fn traced_fig5(
    policy: &AdaptivityPolicy,
    rounds: usize,
    levels: &[f64],
    protocols: &[String],
) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("fig5");
    let period = testbed_period_ms();
    for &level in levels {
        for protocol in protocols {
            let policy = policy.clone();
            let protocol = protocol.clone();
            grid.push_cell(
                format!("{protocol} @ jam={:.0}%", level * 100.0),
                vec![
                    ("protocol".into(), protocol.clone()),
                    ("jamming".into(), format!("{level}")),
                ],
                move |seed| {
                    let topo = Topology::kiel_testbed_18(1);
                    let jam = kiel_jamming(level);
                    let probe = TimedInterference(&jam);
                    let builder = SimulationBuilder::new(&topo)
                        .interference(&probe)
                        .policy(policy.clone())
                        .seed(seed);
                    let mut sim =
                        probed_sim(&protocol, builder, &topo, DimmerConfig::default(), &policy);
                    let reports = timed_rounds(sim.as_mut(), rounds, true);
                    summary_metrics(&summarize(&reports), period)
                },
            );
        }
    }
    grid
}

fn traced_fig6(rounds: usize) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("fig6");
    let period = testbed_period_ms();
    for (label, selection) in [("with_selection", true), ("without_selection", false)] {
        grid.push_cell(
            label,
            vec![("forwarder_selection".into(), selection.to_string())],
            move |seed| {
                let topo = Topology::kiel_testbed_18(1);
                let mut cfg = DimmerConfig::default().without_adaptivity();
                if selection {
                    cfg.forwarder.calm_rounds_threshold = 1;
                } else {
                    cfg.forwarder.enabled = false;
                }
                let probe = TimedInterference(&NoInterference);
                let rule = AdaptivityPolicy::rule_based();
                let builder = SimulationBuilder::new(&topo)
                    .interference(&probe)
                    .policy(rule.clone())
                    .seed(seed);
                let mut sim = probed_sim("dimmer-rule", builder, &topo, cfg, &rule);
                let reports = timed_rounds(sim.as_mut(), rounds, true);
                summary_metrics(&summarize(&reports), period)
                    .with("mean_forwarders", mean_forwarders(&reports))
            },
        );
    }
    grid
}

fn fig7_interference(scenario: Fig7Scenario, seed: u64) -> Box<dyn InterferenceModel> {
    match scenario {
        Fig7Scenario::Calm => Box::new(NoInterference),
        Fig7Scenario::WifiLevel1 => Box::new(WifiInterference::new(WifiLevel::Level1, seed)),
        Fig7Scenario::WifiLevel2 => Box::new(WifiInterference::new(WifiLevel::Level2, seed)),
    }
}

fn traced_fig7(policy: &AdaptivityPolicy, rounds: usize, protocols: &[String]) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("fig7");
    let period = LwbConfig::dcube_default().round_period.as_millis_f64();
    for scenario in Fig7Scenario::ALL {
        for protocol in protocols {
            let policy = policy.clone();
            let protocol = protocol.clone();
            grid.push_cell(
                format!("{protocol} @ {}", scenario.label()),
                vec![
                    ("protocol".into(), protocol.clone()),
                    ("scenario".into(), scenario.label().into()),
                ],
                move |seed| {
                    let topo = Topology::dcube_48(7);
                    let interference = fig7_interference(scenario, seed);
                    let probe = TimedInterference(interference.as_ref());
                    let traffic =
                        TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator());
                    let (lwb, cfg) = if protocol == "static" {
                        (
                            LwbConfig::dcube_default().with_channel_hopping(false),
                            DimmerConfig::default(),
                        )
                    } else {
                        (LwbConfig::dcube_default(), DimmerConfig::dcube())
                    };
                    let builder = SimulationBuilder::new(&topo)
                        .interference(&probe)
                        .lwb_config(lwb)
                        .policy(policy.clone())
                        .traffic(traffic)
                        .seed(seed);
                    let mut sim = probed_sim(&protocol, builder, &topo, cfg, &policy);
                    timed_rounds(sim.as_mut(), rounds, false);
                    let reliability = sim.app_reliability();
                    TrialMetrics::new()
                        .with("reliability", reliability)
                        .with("energy_joules", sim.total_energy_joules())
                        .with("latency_ms", period / reliability.max(1e-3))
                },
            );
        }
    }
    grid
}

fn traced_dynamics(
    policy: &AdaptivityPolicy,
    rounds: usize,
    preset: &str,
    protocols: &[String],
) -> ScenarioGrid {
    let topo = Topology::kiel_testbed_18(1);
    let bounds = dynamic_scenario(preset, rounds, &topo)
        .expect("preset from the catalogue")
        .phase_bounds();
    let mut grid = ScenarioGrid::new("dynamics");
    let period = testbed_period_ms();
    for protocol in protocols {
        let policy = policy.clone();
        let protocol = protocol.clone();
        let preset = preset.to_string();
        let bounds = bounds.clone();
        grid.push_cell(
            format!("{protocol} @ {preset}"),
            vec![
                ("protocol".into(), protocol.clone()),
                ("scenario".into(), preset.clone()),
            ],
            move |seed| {
                let topo = Topology::kiel_testbed_18(1);
                let sc =
                    dynamic_scenario(&preset, rounds, &topo).expect("preset from the catalogue");
                let probe = TimedInterference(sc.interference.as_ref());
                let builder = SimulationBuilder::new(&topo)
                    .interference(&probe)
                    .script(sc.script.clone())
                    .policy(policy.clone())
                    .seed(seed);
                let mut sim =
                    probed_sim(&protocol, builder, &topo, DimmerConfig::default(), &policy);
                let reports = timed_rounds(sim.as_mut(), rounds, true);
                let overall = summarize(&reports);
                let mut metrics =
                    summary_metrics(&overall, period).with("mean_alive", overall.mean_alive);
                for (label, phase) in phase_summaries(&reports, &bounds) {
                    metrics.push(&format!("rel@{label}"), phase.reliability);
                    metrics.push(&format!("radio@{label}"), phase.radio_on_ms);
                    metrics.push(&format!("alive@{label}"), phase.mean_alive);
                }
                metrics
            },
        );
    }
    grid
}

/// `RoundExecutor::run_round` on the testbed at every Fig. 5 jamming
/// level, all 18 nodes scheduled at `N_TX = 3`. Returns mean ns per round
/// and floods per round.
fn lwb_probe() -> (f64, u64) {
    const ROUNDS: usize = 200;
    let topo = Topology::kiel_testbed_18(1);
    let slots: Vec<_> = topo.node_ids().collect();
    let mut ns = 0u128;
    let mut rounds = 0u64;
    let mut floods = 0u64;
    for level in FIG5_LEVELS {
        let jam = kiel_jamming(level);
        let mut exec = RoundExecutor::new(&topo, &jam, LwbConfig::testbed_default());
        let mut rng = SimRng::seed_from(7);
        for r in 0..ROUNDS {
            let schedule = Schedule::new(r as u64, slots.clone(), NtxAssignment::Uniform(3));
            let start = SimTime::from_secs(r as u64 * 4);
            let t = Instant::now();
            let outcome = exec.run_round(&schedule, start, &mut rng);
            ns += t.elapsed().as_nanos();
            rounds += 1;
            floods += 1 + outcome.data_slots().len() as u64;
        }
    }
    (ns as f64 / rounds as f64, floods / rounds)
}

/// `FloodSimulator::flood` on the four flood-kernel configurations of
/// `BENCH_flood.json`. Returns mean ns per flood and mean reach.
fn flood_probe() -> (f64, f64) {
    const FLOODS: usize = 2000;
    let kiel = Topology::kiel_testbed_18(1);
    let dcube = Topology::dcube_48(1);
    let grid = Topology::grid(10, 10, 8.0, 2);
    let jam = kiel_jamming(0.30);
    let wifi = WifiInterference::new(WifiLevel::Level2, 5);
    let configs: [(&Topology, &dyn InterferenceModel); 4] = [
        (&kiel, &NoInterference),
        (&kiel, &jam),
        (&dcube, &wifi),
        (&grid, &jam),
    ];
    let cfg = GlossyConfig::with_uniform_ntx(3);
    let (mut ns, mut reach, mut n) = (0u128, 0.0, 0u64);
    for (topo, interference) in configs {
        let mut sim = FloodSimulator::new(topo, interference);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..FLOODS {
            let t = Instant::now();
            let o = sim.flood(&cfg, topo.coordinator(), SimTime::ZERO, &mut rng);
            ns += t.elapsed().as_nanos();
            reach += o.reliability();
            n += 1;
        }
    }
    (ns as f64 / n as f64, reach / n as f64)
}

/// Replays the topology events of every dynamic preset through
/// `CompiledTopology::apply_event`. Returns mean ns per patch and the count.
fn patch_probe() -> (f64, u64) {
    let topo = Topology::kiel_testbed_18(1);
    let (mut ns, mut patches) = (0u128, 0u64);
    for preset in DYNAMIC_SCENARIOS {
        let sc = dynamic_scenario(preset, DYNAMICS_ROUNDS, &topo).expect("catalogue preset");
        let mut compiled = CompiledTopology::compile(&topo);
        for (_, event) in sc.script.events() {
            if !event.is_topology_event() {
                continue;
            }
            let t = Instant::now();
            compiled.apply_event(event);
            ns += t.elapsed().as_nanos();
            patches += 1;
        }
    }
    (ns as f64 / patches.max(1) as f64, patches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probed rebuilds (controller and interference probes) reproduce
    /// every grid byte for byte on tiny cells.
    #[test]
    fn probes_leave_tiny_cells_unchanged() {
        let policy = dimmer_policy(true);
        let opts = RunOptions {
            trials: 2,
            threads: 1,
            seed: 5,
        };
        let same = |a: ScenarioGrid, b: ScenarioGrid| {
            assert_eq!(
                a.run(&opts).to_json(),
                b.run(&opts).to_json(),
                "{}",
                a.name()
            );
        };
        let testbed = protocol_list(&TESTBED_PROTOCOLS);
        let levels = [0.0, 0.30];
        same(
            fig5_grid(policy.clone(), 6, &levels, &testbed),
            traced_fig5(&policy, 6, &levels, &testbed),
        );
        same(fig6_grid(8, None), traced_fig6(8));
        let dcube = protocol_list(&DCUBE_PROTOCOLS);
        same(
            fig7_grid(policy.clone(), 6, &dcube),
            traced_fig7(&policy, 6, &dcube),
        );
        let dynamics = dynamics_protocols();
        for preset in DYNAMIC_SCENARIOS {
            same(
                dynamics_grid(policy.clone(), 12, preset, &dynamics, None),
                traced_dynamics(&policy, 12, preset, &dynamics),
            );
        }
    }
}
