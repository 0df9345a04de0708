//! Reusable, testable cores of the `exp_*` binaries and their scenario-grid
//! builders.
//!
//! The experiment stack has three layers. At the bottom sit the
//! **single-trial builders** (`table1_summary`, `fig5_run`, `fig7_run`,
//! ...): plain functions taking explicit sizes, a seed, an
//! [`AdaptivityPolicy`] and — where protocols are compared — a **registry
//! protocol name** (`"dimmer-dqn"`, `"pid"`, `"static"`, `"crystal"`, see
//! [`dimmer_baselines::ProtocolRegistry`]), so the smoke tests in
//! `tests/tests/exp_smoke.rs` can exercise every scenario with a handful of
//! rounds and a rule-based policy without paying for DQN training. Every
//! protocol runs through the same generic
//! [`RoundEngine`], constructed by a
//! [`SimulationBuilder`]; there are no per-figure protocol enums. On top of
//! those, the **grid builders** (`fig5_grid`, `topology_size_grid`, ...)
//! describe each experiment as a [`ScenarioGrid`] — one cell per
//! (protocol × parameter) combination, each cell running one single-trial
//! builder from a derived seed. The binaries are then thin shells that
//! parse `--protocols/--trials/--threads/--seed/--json` via
//! [`HarnessCli`](crate::harness::HarnessCli), take their grid's defaults
//! from [`crate::catalogue`], hand the grid to the parallel engine in
//! [`crate::harness`], and print/serialize the aggregated
//! [`GridReport`](crate::report::GridReport).

use std::sync::Arc;

use crate::harness::{ScenarioGrid, TrialMetrics};
use crate::scenarios::{
    dynamic_interference_scenario, dynamic_scenario, kiel_jamming, DYNAMIC_SCENARIOS,
};
use crate::summary::{
    mean_forwarders, phase_summaries, summarize, summary_metrics, ProtocolSummary,
};
use dimmer_baselines::SimulationBuilder;
use dimmer_core::{
    AdaptivityController, AdaptivityPolicy, DimmerConfig, DimmerRoundReport, GlobalView,
    RoundEngine, StateBuilder,
};
use dimmer_lwb::{LwbConfig, TrafficPattern};
use dimmer_neural::{Mlp, QuantizedNetwork};
use dimmer_rl::DqnConfig;
use dimmer_sim::{
    CompositeInterference, InterferenceModel, NoInterference, NodeId, PeriodicJammer, SimRng,
    Topology, WifiInterference, WifiLevel,
};
use dimmer_traces::{train_policy, TraceDataset};

/// The registry protocols of the 18-node testbed comparison (Figs. 4c/5),
/// in presentation order.
pub const TESTBED_PROTOCOLS: [&str; 3] = ["static", "dimmer-dqn", "pid"];

/// The registry protocols of the Fig. 7 D-Cube comparison, in presentation
/// order.
pub const DCUBE_PROTOCOLS: [&str; 3] = ["static", "dimmer-dqn", "crystal"];

/// The registry protocols the dynamic-world scenarios compare
/// (`exp_dynamics`): the testbed LWB protocols — Crystal is
/// collection-only — in presentation order.
pub const DYNAMICS_PROTOCOLS: [&str; 4] = ["static", "dimmer-dqn", "dimmer-rule", "pid"];

/// Every protocol `exp_dynamics --protocols` accepts: the pinned default
/// comparison ([`DYNAMICS_PROTOCOLS`], whose grid digest is golden-tested)
/// plus the opt-in `dimmer-zoo` meta-controller. Kept separate so adding
/// opt-in protocols never changes the default run's bytes.
pub const DYNAMICS_SUPPORTED: [&str; 5] =
    ["static", "dimmer-dqn", "dimmer-rule", "pid", "dimmer-zoo"];

/// Table I + §IV-B footprint numbers (`exp_table1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Summary {
    /// Total DQN input dimension (31 for the paper's configuration).
    pub state_dim: usize,
    /// An example state vector built from a pessimistic start.
    pub example_state: Vec<f32>,
    /// Float-network parameter count.
    pub parameters: usize,
    /// Flash footprint of the quantized network, in bytes.
    pub flash_bytes: usize,
    /// RAM footprint of the quantized network's buffers, in bytes.
    pub ram_bytes: usize,
    /// Whether trained weights are embedded in `dimmer-core`.
    pub pretrained_shipped: bool,
}

/// Builds the Table I summary for `cfg` (`exp_table1`).
pub fn table1_summary(cfg: &DimmerConfig) -> Table1Summary {
    let builder = StateBuilder::new(cfg.clone());
    let example_state = builder.build(&GlobalView::new(18), cfg.initial_ntx);
    let mlp = Mlp::new(&[cfg.state_dim(), 30, 3], 0);
    let quantized = QuantizedNetwork::from_mlp(&mlp);
    Table1Summary {
        state_dim: cfg.state_dim(),
        example_state,
        parameters: mlp.num_parameters(),
        flash_bytes: quantized.flash_size_bytes(),
        ram_bytes: quantized.ram_size_bytes(),
        pretrained_shipped: dimmer_core::pretrained::has_pretrained_weights(),
    }
}

/// One row of the Fig. 4b feature-selection tables.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4bRow {
    /// Mean per-slot radio-on time over the mixed evaluation scenario, ms.
    pub radio_on_ms: f64,
    /// Mean reliability over the mixed evaluation scenario.
    pub reliability: f64,
    /// Quantized network size, kB.
    pub dqn_size_kb: f64,
}

/// Trains `models` fresh policies on `traces` under `cfg` and evaluates them
/// on the mixed calm/25 %-jamming/calm scenario of Fig. 4b.
pub fn fig4b_row(
    cfg: &DimmerConfig,
    traces: &TraceDataset,
    models: usize,
    iterations: usize,
    eval_rounds: usize,
) -> Fig4bRow {
    assert!(models > 0, "need at least one model");
    let mut radio = 0.0;
    let mut rel = 0.0;
    let mut size = 0.0;
    for model in 0..models {
        let report = train_policy(
            traces,
            cfg,
            &DqnConfig::quick().with_iterations(iterations),
            1000 + model as u64,
        );
        size = QuantizedNetwork::from_mlp(&report.policy).flash_size_bytes() as f64 / 1024.0;
        // Mixed evaluation scenario: calm then 25% jamming then calm.
        for (duty, seed) in [(0.0, 11u64), (0.25, 12), (0.0, 13)] {
            let policy = report.quantized_policy();
            let summary = fig4b_phase(cfg, policy, duty, eval_rounds, seed + model as u64);
            radio += summary.radio_on_ms;
            rel += summary.reliability;
        }
    }
    let n = (models * 3) as f64;
    Fig4bRow {
        radio_on_ms: radio / n,
        reliability: rel / n,
        dqn_size_kb: size,
    }
}

/// One phase of the Fig. 4b evaluation: Dimmer executing a trained
/// `policy` for `rounds` rounds on the testbed under `duty` jamming.
fn fig4b_phase(
    cfg: &DimmerConfig,
    policy: AdaptivityPolicy,
    duty: f64,
    rounds: usize,
    seed: u64,
) -> ProtocolSummary {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(duty);
    let controller = AdaptivityController::new(policy, cfg.clone());
    let mut engine = RoundEngine::with_controller(
        &topo,
        &interference,
        LwbConfig::testbed_default(),
        cfg.clone(),
        controller,
        seed,
    );
    summarize(&engine.run_rounds(rounds))
}

/// Runs Dimmer with `policy` through the Fig. 4c dynamic-interference
/// timeline for `rounds` rounds.
pub fn fig4c_dimmer(policy: AdaptivityPolicy, rounds: usize, seed: u64) -> Vec<DimmerRoundReport> {
    let topo = Topology::kiel_testbed_18(1);
    let interference = dynamic_interference_scenario(rounds as u64 * 4);
    let mut sim = SimulationBuilder::new(&topo)
        .interference(&interference)
        .policy(policy)
        .seed(seed)
        .build_protocol("dimmer-dqn")
        // lint: allow(P001) -- "dimmer-dqn" ships in the standard registry
        .expect("dimmer-dqn is registered");
    sim.run_rounds(rounds)
}

/// Runs the PID baseline through the Fig. 4c dynamic-interference timeline.
pub fn fig4c_pid(rounds: usize, seed: u64) -> Vec<DimmerRoundReport> {
    let topo = Topology::kiel_testbed_18(1);
    let interference = dynamic_interference_scenario(rounds as u64 * 4);
    let mut sim = SimulationBuilder::new(&topo)
        .interference(&interference)
        .seed(seed)
        .build_protocol("pid")
        // lint: allow(P001) -- "pid" ships in the standard registry
        .expect("pid is registered");
    sim.run_rounds(rounds)
}

/// Runs one registry protocol on `topo` under `interference` with the
/// testbed LWB configuration and summarizes the rounds.
pub fn run_protocol(
    protocol: &str,
    topo: &Topology,
    interference: &dyn InterferenceModel,
    policy: &AdaptivityPolicy,
    rounds: usize,
    seed: u64,
) -> ProtocolSummary {
    let mut sim = SimulationBuilder::new(topo)
        .interference(interference)
        .policy(policy.clone())
        .seed(seed)
        .build_protocol(protocol)
        // lint: allow(P002) -- callers pass registry names vetted by HarnessCli::select_protocols
        .unwrap_or_else(|e| panic!("{e}"));
    summarize(&sim.run_rounds(rounds))
}

/// Runs one protocol for `rounds` rounds on the 18-node testbed under
/// static jamming at `level` duty cycle (one Fig. 5 trial).
pub fn fig5_run(
    protocol: &str,
    level: f64,
    policy: &AdaptivityPolicy,
    rounds: usize,
    seed: u64,
) -> ProtocolSummary {
    let topo = Topology::kiel_testbed_18(1);
    let interference = kiel_jamming(level);
    run_protocol(protocol, &topo, &interference, policy, rounds, seed)
}

/// The Fig. 6 forwarder-selection comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Summary {
    /// Per-round reports of the run with forwarder selection enabled.
    pub with_fs: Vec<DimmerRoundReport>,
    /// Per-round reports of the all-forwarders reference run.
    pub without_fs: Vec<DimmerRoundReport>,
}

impl Fig6Summary {
    /// Mean number of active forwarders in the forwarder-selection run.
    pub fn mean_forwarders(&self) -> f64 {
        mean_forwarders(&self.with_fs)
    }
}

/// Runs one Fig. 6 variant: the interference-free forwarder-selection
/// scenario with Exp3 bandits either learning passive roles
/// (`selection = true`) or disabled so every device keeps forwarding.
pub fn fig6_single(rounds: usize, seed: u64, selection: bool) -> Vec<DimmerRoundReport> {
    let topo = Topology::kiel_testbed_18(1);
    let mut cfg = DimmerConfig::default().without_adaptivity();
    if selection {
        cfg.forwarder.calm_rounds_threshold = 1;
    } else {
        cfg.forwarder.enabled = false;
    }
    let mut sim = SimulationBuilder::new(&topo)
        .dimmer_config(cfg)
        .policy(AdaptivityPolicy::rule_based())
        .seed(seed)
        .build_protocol("dimmer-rule")
        // lint: allow(P001) -- "dimmer-rule" ships in the standard registry
        .expect("dimmer-rule is registered");
    sim.run_rounds(rounds)
}

/// Runs the interference-free forwarder-selection experiment (`exp_fig6`):
/// DQN deactivated, Exp3 bandits learning passive roles, next to the
/// all-forwarders reference run.
pub fn fig6_run(rounds: usize, seed: u64) -> Fig6Summary {
    Fig6Summary {
        with_fs: fig6_single(rounds, seed, true),
        without_fs: fig6_single(rounds, seed, false),
    }
}

/// Application-layer outcome of one Fig. 7 run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppOutcome {
    /// End-to-end application reliability.
    pub reliability: f64,
    /// Total radio energy spent, joules.
    pub energy_joules: f64,
}

/// The Fig. 7 interference scenarios on the 48-node D-Cube stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig7Scenario {
    /// No external interference.
    Calm,
    /// Mild WiFi cross-traffic.
    WifiLevel1,
    /// Heavy WiFi cross-traffic.
    WifiLevel2,
}

impl Fig7Scenario {
    /// All scenarios, in presentation order.
    pub const ALL: [Fig7Scenario; 3] = [
        Fig7Scenario::Calm,
        Fig7Scenario::WifiLevel1,
        Fig7Scenario::WifiLevel2,
    ];

    /// Human-readable label used by the table printer.
    pub fn label(&self) -> &'static str {
        match self {
            Fig7Scenario::Calm => "no interf",
            Fig7Scenario::WifiLevel1 => "WiFi lvl 1",
            Fig7Scenario::WifiLevel2 => "WiFi lvl 2",
        }
    }

    fn interference(&self, seed: u64) -> Box<dyn InterferenceModel> {
        match self {
            Fig7Scenario::Calm => Box::new(NoInterference),
            Fig7Scenario::WifiLevel1 => Box::new(WifiInterference::new(WifiLevel::Level1, seed)),
            Fig7Scenario::WifiLevel2 => Box::new(WifiInterference::new(WifiLevel::Level2, seed)),
        }
    }
}

/// Runs one registry protocol on the 48-node aperiodic-collection workload
/// under `scenario` (one Fig. 7 trial).
///
/// Per-protocol configuration mirrors the paper: `"static"` runs without
/// channel hopping and without ACKs, `"dimmer-dqn"` with hopping and ACKs
/// (no retraining), `"crystal"` with its EWSN-2019 settings.
pub fn fig7_run(
    protocol: &str,
    scenario: Fig7Scenario,
    policy: &AdaptivityPolicy,
    rounds: usize,
    seed: u64,
) -> AppOutcome {
    let topo = Topology::dcube_48(7);
    let interference = scenario.interference(seed);
    let traffic = TrafficPattern::dcube_collection(topo.num_nodes(), 5, topo.coordinator());
    let (lwb_config, dimmer_config) = if protocol == "static" {
        (
            LwbConfig::dcube_default().with_channel_hopping(false),
            DimmerConfig::default(),
        )
    } else {
        (LwbConfig::dcube_default(), DimmerConfig::dcube())
    };
    let mut sim = SimulationBuilder::new(&topo)
        .interference(interference.as_ref())
        .lwb_config(lwb_config)
        .dimmer_config(dimmer_config)
        .policy(policy.clone())
        .traffic(traffic)
        .seed(seed)
        .build_protocol(protocol)
        // lint: allow(P002) -- callers pass registry names vetted by HarnessCli::select_protocols
        .unwrap_or_else(|e| panic!("{e}"));
    sim.run_rounds(rounds);
    AppOutcome {
        reliability: sim.app_reliability(),
        energy_joules: sim.total_energy_joules(),
    }
}

// ---------------------------------------------------------------------------
// Scenario-grid builders: each experiment described as cells × trials for the
// parallel engine in `crate::harness`.
// ---------------------------------------------------------------------------

/// The testbed round period in milliseconds (4-second LWB rounds).
fn testbed_period_ms() -> f64 {
    LwbConfig::testbed_default().round_period.as_millis_f64()
}

/// The Table I / §IV-B footprint numbers as a single-cell grid
/// (`exp_table1`). The metrics are deterministic, so every trial reproduces
/// the same values (stddev 0).
pub fn table1_grid(cfg: &DimmerConfig) -> ScenarioGrid {
    let cfg = cfg.clone();
    let mut grid = ScenarioGrid::new("table1");
    grid.push_cell("dqn_footprint", vec![], move |_seed| {
        let s = table1_summary(&cfg);
        TrialMetrics::new()
            .with("state_dim", s.state_dim as f64)
            .with("parameters", s.parameters as f64)
            .with("flash_bytes", s.flash_bytes as f64)
            .with("ram_bytes", s.ram_bytes as f64)
    });
    grid
}

/// One Fig. 4b trial: trains a fresh policy on `traces` with the trial's
/// seed and evaluates it on the mixed calm/25 %-jamming/calm scenario.
pub fn fig4b_trial(
    cfg: &DimmerConfig,
    traces: &TraceDataset,
    iterations: usize,
    eval_rounds: usize,
    seed: u64,
) -> TrialMetrics {
    let report = train_policy(
        traces,
        cfg,
        &DqnConfig::quick().with_iterations(iterations),
        seed,
    );
    let size_kb = QuantizedNetwork::from_mlp(&report.policy).flash_size_bytes() as f64 / 1024.0;
    let mut radio = 0.0;
    let mut rel = 0.0;
    for (phase, duty) in [(0u64, 0.0), (1, 0.25), (2, 0.0)] {
        let policy = report.quantized_policy();
        let phase_seed = SimRng::split_seed(seed, phase);
        let summary = fig4b_phase(cfg, policy, duty, eval_rounds, phase_seed);
        radio += summary.radio_on_ms;
        rel += summary.reliability;
    }
    TrialMetrics::new()
        .with("radio_on_ms", radio / 3.0)
        .with("reliability", rel / 3.0)
        .with("dqn_size_kb", size_kb)
}

/// The Fig. 4b feature-selection grid (`exp_fig4b`): input-node counts
/// K ∈ {1, 5, 10, 15, 18} (part `"nodes"`) and history sizes M ∈ {0..5}
/// (part `"history"`); `"both"` selects all eleven cells. All cells train
/// on the shared `traces`.
pub fn fig4b_grid(
    traces: Arc<TraceDataset>,
    iterations: usize,
    eval_rounds: usize,
    part: &str,
) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("fig4b");
    if part == "nodes" || part == "both" {
        for k in [1usize, 5, 10, 15, 18] {
            let traces = Arc::clone(&traces);
            grid.push_cell(
                format!("K={k}"),
                vec![
                    ("part".into(), "nodes".into()),
                    ("k_input_nodes".into(), k.to_string()),
                ],
                move |seed| {
                    let cfg = DimmerConfig::default().with_k_input_nodes(k);
                    fig4b_trial(&cfg, &traces, iterations, eval_rounds, seed)
                },
            );
        }
    }
    if part == "history" || part == "both" {
        for m in 0usize..=5 {
            let traces = Arc::clone(&traces);
            grid.push_cell(
                format!("M={m}"),
                vec![
                    ("part".into(), "history".into()),
                    ("history_size".into(), m.to_string()),
                ],
                move |seed| {
                    let cfg = DimmerConfig::default().with_history_size(m);
                    fig4b_trial(&cfg, &traces, iterations, eval_rounds, seed)
                },
            );
        }
    }
    grid
}

/// A pre-computed single run that a grid cell may reuse instead of
/// re-simulating, keyed by the derived trial seed it was produced with.
///
/// The `exp_fig4c`/`exp_fig6` binaries print a per-round timeline for the
/// default single-trial case; handing the same reports to the grid builder
/// avoids simulating that (seed, configuration) pair a second time. A cell
/// only uses the cache when the trial seed matches, so a stale cache can
/// never change results.
#[derive(Clone)]
pub struct CachedRun {
    seed: u64,
    reports: Arc<Vec<DimmerRoundReport>>,
}

impl CachedRun {
    /// Wraps the reports of a run executed with derived trial seed `seed`.
    pub fn new(seed: u64, reports: Vec<DimmerRoundReport>) -> Self {
        CachedRun {
            seed,
            reports: Arc::new(reports),
        }
    }

    /// Returns the cached reports if they were produced with `seed`.
    fn lookup(cache: &Option<CachedRun>, seed: u64) -> Option<Arc<Vec<DimmerRoundReport>>> {
        cache
            .as_ref()
            .filter(|c| c.seed == seed)
            .map(|c| Arc::clone(&c.reports))
    }
}

/// The Fig. 4c/4d dynamic-interference grid (`exp_fig4c`): the selected
/// `protocols` (from `"dimmer-dqn"` and `"pid"`) through the scripted
/// 27-minute jamming timeline. `dimmer_cache`/`pid_cache` may hold
/// already-simulated runs (see [`CachedRun`]).
///
/// # Panics
///
/// Panics on protocols other than `"dimmer-dqn"` and `"pid"` (the dynamic
/// timeline is only defined for the two adaptive testbed systems).
pub fn fig4c_grid(
    policy: AdaptivityPolicy,
    rounds: usize,
    protocols: &[String],
    dimmer_cache: Option<CachedRun>,
    pid_cache: Option<CachedRun>,
) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("fig4c");
    let period = testbed_period_ms();
    for protocol in protocols {
        match protocol.as_str() {
            "dimmer-dqn" => {
                let policy = policy.clone();
                let cache = dimmer_cache.clone();
                grid.push_cell(
                    "dimmer-dqn",
                    vec![("protocol".into(), "dimmer-dqn".into())],
                    move |seed| {
                        let reports = CachedRun::lookup(&cache, seed).unwrap_or_else(|| {
                            Arc::new(fig4c_dimmer(policy.clone(), rounds, seed))
                        });
                        summary_metrics(&summarize(&reports), period)
                    },
                );
            }
            "pid" => {
                let cache = pid_cache.clone();
                grid.push_cell(
                    "pid",
                    vec![("protocol".into(), "pid".into())],
                    move |seed| {
                        let reports = CachedRun::lookup(&cache, seed)
                            .unwrap_or_else(|| Arc::new(fig4c_pid(rounds, seed)));
                        summary_metrics(&summarize(&reports), period)
                    },
                );
            }
            // lint: allow(P002) -- select_protocols restricts --protocols to this experiment's supported set
            other => panic!("fig4c supports dimmer-dqn and pid, got '{other}'"),
        }
    }
    grid
}

/// The Fig. 5 static-interference grid (`exp_fig5`): every selected
/// registry protocol at every jamming duty cycle in `levels`.
pub fn fig5_grid(
    policy: AdaptivityPolicy,
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
                    summary_metrics(&fig5_run(&protocol, level, &policy, rounds, seed), period)
                },
            );
        }
    }
    grid
}

/// Preset: a dense seed sweep of the Fig. 5 jamming comparison at 10 % and
/// 25 % duty cycle (`exp_sweep --preset fig5-seeds`). The cells are the
/// regular Fig. 5 cells; the point of the preset is running them with large
/// `--trials` to estimate the *distribution* of each protocol's reliability,
/// which a single-trial run cannot.
pub fn fig5_seed_sweep_grid(
    policy: AdaptivityPolicy,
    rounds: usize,
    protocols: &[String],
) -> ScenarioGrid {
    fig5_grid(policy, rounds, &[0.10, 0.25], protocols).renamed("fig5_seed_sweep")
}

/// Preset: the selected protocols on square grid topologies of growing size
/// with one 15 %-duty-cycle jammer at the grid centre
/// (`exp_sweep --preset topology-size`) — a scalability sweep no paper
/// figure covers. Defaults to static LWB vs rule-based Dimmer.
pub fn topology_size_grid(rounds: usize, sides: &[usize], protocols: &[String]) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("topology_size");
    let period = testbed_period_ms();
    for &side in sides {
        for protocol in protocols {
            let protocol = protocol.clone();
            grid.push_cell(
                format!("{protocol} @ {side}x{side}"),
                vec![
                    ("protocol".into(), protocol.clone()),
                    ("nodes".into(), (side * side).to_string()),
                ],
                move |seed| {
                    let topo = Topology::grid(side, side, 8.0, 1);
                    // Row-major node indices: the middle row's middle column
                    // is the centre node (exact for odd sides, half a cell
                    // off for even ones).
                    let centre = topo.position(NodeId(((side / 2) * side + side / 2) as u16));
                    let mut interference = CompositeInterference::new();
                    interference.push(Box::new(PeriodicJammer::with_duty_cycle(centre, 0.15)));
                    let policy = AdaptivityPolicy::rule_based();
                    summary_metrics(
                        &run_protocol(&protocol, &topo, &interference, &policy, rounds, seed),
                        period,
                    )
                },
            );
        }
    }
    grid
}

/// Preset: batched floods over the city-scale sparse worlds
/// (`exp_sweep --preset city`) — the first sweep that runs on CSR-only
/// compiled topologies from [`dimmer_sim::topogen`], far beyond anything a
/// dense [`Topology`] can represent. Each trial builds the preset world
/// (fixed world seed — the world *is* the cell), drives `floods`
/// independent floods through one shared [`dimmer_glossy::FloodBatch`]
/// with initiators
/// rotating across the network and per-flood seeds derived from the trial
/// seed, and reports flood-level metrics. A jammer parked at the world
/// centroid supplies interference. All metrics are deterministic per seed,
/// so harness reports stay byte-identical across `--threads`.
pub fn city_scale_grid(floods: usize) -> ScenarioGrid {
    let worlds = city_worlds().into_iter().map(Arc::new).collect();
    city_scale_grid_from_worlds_threaded(floods, worlds, 1)
}

/// Preset: one 10 000-node sparse grid cell with intra-cell parallel
/// batching (`exp_sweep --preset grid10k`) — the scale rung the
/// threads-scaling bench curve (`BENCH_flood.json` `"parallel"`) measures,
/// exposed as a sweep so CI can `cmp` `--threads 1` vs `--threads 4`
/// reports byte-for-byte.
pub fn grid10k_scale_grid(floods: usize, batch_threads: usize) -> ScenarioGrid {
    let world = CityWorld::build("grid_100x100", || {
        dimmer_sim::topogen::sparse_grid(100, 100, 8.0, 1)
    });
    city_scale_grid_from_worlds_threaded(floods, vec![Arc::new(world)], batch_threads)
}

/// A prebuilt city-scale world: the compiled CSR topology, its
/// centroid-parked jammer model and the pristine compiled interference
/// bank, ready to stamp out per-trial [`dimmer_glossy::FloodBatch`]es
/// without recompiling anything.
///
/// This is the unit the `dimmerd` daemon's warm cache stores: building one
/// of these is the expensive part of a city-scale trial (topology
/// generation + bank compilation); cloning from it is cheap and
/// bit-faithful, so warm-served reports are byte-identical to cold runs.
#[derive(Debug)]
pub struct CityWorld {
    /// Preset label (doubles as the grid-cell label).
    pub label: &'static str,
    compiled: dimmer_sim::CompiledTopology,
    interference: CompositeInterference,
    bank: Option<Box<dyn dimmer_sim::SlotInterference>>,
}

impl CityWorld {
    /// Builds a world from its deterministic builder and parks the 15 %
    /// duty-cycle jammer at the world centroid, compiling the bank once.
    fn build(label: &'static str, build: fn() -> dimmer_sim::CompiledTopology) -> Self {
        let compiled = build();
        let n = compiled.num_nodes();
        // Centroid-parked jammer: deterministic, position-derived.
        let centroid = compiled
            .positions()
            .iter()
            .fold(dimmer_sim::Position::new(0.0, 0.0), |acc, p| {
                dimmer_sim::Position::new(acc.x + p.x / n as f64, acc.y + p.y / n as f64)
            });
        let mut interference = CompositeInterference::new();
        interference.push(Box::new(PeriodicJammer::with_duty_cycle(centroid, 0.15)));
        let bank = interference.compile_for(compiled.positions());
        CityWorld {
            label,
            compiled,
            interference,
            bank,
        }
    }

    /// The shared compiled world.
    pub fn compiled(&self) -> &dimmer_sim::CompiledTopology {
        &self.compiled
    }

    /// Resident size of the compiled world plus a nominal bank share —
    /// what a warm cache should account for this entry.
    pub fn memory_bytes(&self) -> usize {
        self.compiled.memory_bytes()
    }

    /// Stamps out a fresh [`dimmer_glossy::FloodBatch`] over a clone of the
    /// world and a pristine clone of the compiled bank — the warm
    /// equivalent of `FloodBatch::new`, byte-identical in every outcome.
    pub fn batch(&self) -> dimmer_glossy::FloodBatch<'_> {
        dimmer_glossy::FloodBatch::from_parts(
            self.compiled.clone(),
            &self.interference,
            self.bank.as_ref().map(|b| b.box_clone()),
        )
    }
}

/// Builds the four city-scale preset worlds of the `city` grid (fixed
/// world seeds — the world *is* the cell).
pub fn city_worlds() -> Vec<CityWorld> {
    use dimmer_sim::topogen;
    vec![
        CityWorld::build("city_6x6x32", || topogen::city_blocks(6, 6, 32, 1)),
        CityWorld::build("campus_12x48", || topogen::campus(12, 48, 1)),
        CityWorld::build("warehouse_8x40", || topogen::warehouse_floor(8, 40, 1)),
        CityWorld::build("grid_50x50", || topogen::sparse_grid(50, 50, 8.0, 1)),
    ]
}

/// The city grid over prebuilt [`CityWorld`]s: trials clone the compiled
/// world and bank instead of rebuilding them, which is what lets the
/// `dimmerd` daemon serve city sweeps from its warm cache, and run their
/// flood jobs through [`dimmer_glossy::FloodBatch::run_parallel`] across
/// `batch_threads` scoped workers (1 = the serial path). Reports are
/// byte-identical to [`city_scale_grid`] for every thread count (pinned by
/// the scheduler extraction goldens).
pub fn city_scale_grid_from_worlds_threaded(
    floods: usize,
    worlds: Vec<Arc<CityWorld>>,
    batch_threads: usize,
) -> ScenarioGrid {
    use dimmer_glossy::{FloodJob, GlossyConfig};
    use dimmer_sim::{SimDuration, SimTime};

    let mut grid = ScenarioGrid::new("city_scale");
    for world in worlds {
        let label = world.label;
        let nodes = world.compiled.num_nodes();
        grid.push_cell(
            label,
            vec![
                ("world".into(), label.into()),
                ("nodes".into(), nodes.to_string()),
            ],
            move |seed| {
                let n = world.compiled.num_nodes();
                let mut batch = world.batch();
                // City-scale worlds span dozens of hops: give the flood a
                // 200 ms slot budget instead of the testbed's 20 ms.
                let cfg = GlossyConfig {
                    max_slot_duration: SimDuration::from_millis(200),
                    ..GlossyConfig::with_uniform_ntx(3)
                };
                let jobs: Vec<FloodJob> = (0..floods)
                    .map(|k| FloodJob {
                        // Rotate initiators across the world, co-prime step.
                        initiator: NodeId(((k * 8191) % n) as u16),
                        start: SimTime::from_millis(k as u64 * 250),
                        seed: SimRng::derive_seed(seed, &[k as u64]),
                    })
                    .collect();
                let outcomes = batch.run_parallel(&cfg, &jobs, batch_threads);
                let reliability =
                    outcomes.iter().map(|o| o.reliability()).sum::<f64>() / outcomes.len() as f64;
                let radio_on_ms = outcomes
                    .iter()
                    .map(|o| o.mean_radio_on().as_millis_f64())
                    .sum::<f64>()
                    / outcomes.len() as f64;
                let duration_ms = outcomes
                    .iter()
                    .map(|o| o.duration().as_millis_f64())
                    .sum::<f64>()
                    / outcomes.len() as f64;
                TrialMetrics::new()
                    .with("reliability", reliability)
                    .with("radio_on_ms", radio_on_ms)
                    .with("flood_ms", duration_ms)
            },
        );
    }
    grid
}

/// The Fig. 6 forwarder-selection grid (`exp_fig6`): Exp3 forwarder
/// selection against the all-forwarders reference. `selection_cache` may
/// hold an already-simulated with-selection run (see [`CachedRun`]).
pub fn fig6_grid(rounds: usize, selection_cache: Option<CachedRun>) -> ScenarioGrid {
    let mut grid = ScenarioGrid::new("fig6");
    let period = testbed_period_ms();
    for (label, selection) in [("with_selection", true), ("without_selection", false)] {
        let cache = if selection {
            selection_cache.clone()
        } else {
            None
        };
        grid.push_cell(
            label,
            vec![("forwarder_selection".into(), selection.to_string())],
            move |seed| {
                let reports = CachedRun::lookup(&cache, seed)
                    .unwrap_or_else(|| Arc::new(fig6_single(rounds, seed, selection)));
                summary_metrics(&summarize(&reports), period)
                    .with("mean_forwarders", mean_forwarders(&reports))
            },
        );
    }
    grid
}

/// The Fig. 7 D-Cube grid (`exp_fig7`): every selected registry protocol
/// under every interference scenario on the 48-node collection workload.
pub fn fig7_grid(policy: AdaptivityPolicy, rounds: usize, protocols: &[String]) -> ScenarioGrid {
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
                    let outcome = fig7_run(&protocol, scenario, &policy, rounds, seed);
                    TrialMetrics::new()
                        .with("reliability", outcome.reliability)
                        .with("energy_joules", outcome.energy_joules)
                        .with("latency_ms", period / outcome.reliability.max(1e-3))
                },
            );
        }
    }
    grid
}

/// Runs one registry protocol through a dynamic-world scenario preset on
/// the 18-node testbed (one `exp_dynamics` trial), returning the per-round
/// reports.
///
/// # Panics
///
/// Panics on unknown scenario or protocol names.
pub fn dynamics_run(
    protocol: &str,
    scenario: &str,
    policy: &AdaptivityPolicy,
    rounds: usize,
    seed: u64,
) -> Vec<DimmerRoundReport> {
    let topo = Topology::kiel_testbed_18(1);
    let sc = dynamic_scenario(scenario, rounds, &topo)
        // lint: allow(P002) -- documented # Panics contract; exp_dynamics validates --scenario first
        .unwrap_or_else(|| panic!("unknown dynamic scenario '{scenario}'"));
    let mut sim = SimulationBuilder::new(&topo)
        .interference(sc.interference.as_ref())
        .script(sc.script.clone())
        .policy(policy.clone())
        .seed(seed)
        .build_protocol(protocol)
        // lint: allow(P002) -- documented # Panics contract; callers pass vetted registry names
        .unwrap_or_else(|e| panic!("{e}"));
    sim.run_rounds(rounds)
}

/// The dynamic-world grid (`exp_dynamics`): every selected registry
/// protocol through one scenario preset, with overall metrics plus
/// per-phase summary buckets (`rel@<phase>`, `radio@<phase>`,
/// `alive@<phase>`). `first_cache` may hold an already-simulated run of
/// the *first* protocol (see [`CachedRun`]; the binary's single-trial
/// timeline reuses it).
///
/// # Panics
///
/// Panics on an unknown scenario name (validated up front, before any
/// trial runs).
pub fn dynamics_grid(
    policy: AdaptivityPolicy,
    rounds: usize,
    scenario: &str,
    protocols: &[String],
    first_cache: Option<CachedRun>,
) -> ScenarioGrid {
    let topo = Topology::kiel_testbed_18(1);
    let bounds: Vec<(&'static str, usize)> = dynamic_scenario(scenario, rounds, &topo)
        .unwrap_or_else(|| {
            // lint: allow(P002) -- documented # Panics contract; the binary validates --scenario up front
            panic!(
                "unknown dynamic scenario '{scenario}' (catalogue: {})",
                DYNAMIC_SCENARIOS.join(", ")
            )
        })
        .phase_bounds();
    let mut grid = ScenarioGrid::new("dynamics");
    let period = testbed_period_ms();
    for (cell, protocol) in protocols.iter().enumerate() {
        let policy = policy.clone();
        let protocol = protocol.clone();
        let scenario = scenario.to_string();
        let bounds = bounds.clone();
        let cache = if cell == 0 { first_cache.clone() } else { None };
        grid.push_cell(
            format!("{protocol} @ {scenario}"),
            vec![
                ("protocol".into(), protocol.clone()),
                ("scenario".into(), scenario.clone()),
            ],
            move |seed| {
                let reports = CachedRun::lookup(&cache, seed).unwrap_or_else(|| {
                    Arc::new(dynamics_run(&protocol, &scenario, &policy, rounds, seed))
                });
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

/// `protocols` as owned strings (grid builders borrow them per cell).
pub fn protocol_list(protocols: &[&str]) -> Vec<String> {
    protocols.iter().map(|p| p.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_footprint() {
        let s = table1_summary(&DimmerConfig::default());
        assert_eq!(s.state_dim, 31);
        assert_eq!(s.parameters, 1053);
        assert_eq!(s.flash_bytes, 2106, "31-30-3 quantized network is ~2.1 kB");
        assert_eq!(s.example_state.len(), 31);
    }

    #[test]
    fn grid_builders_enumerate_expected_cells() {
        let policy = AdaptivityPolicy::rule_based();
        let testbed = protocol_list(&TESTBED_PROTOCOLS);
        let dcube = protocol_list(&DCUBE_PROTOCOLS);
        let adaptive = protocol_list(&["dimmer-dqn", "pid"]);
        assert_eq!(table1_grid(&DimmerConfig::default()).len(), 1);
        assert_eq!(
            fig4c_grid(policy.clone(), 4, &adaptive, None, None).len(),
            2
        );
        assert_eq!(
            fig4c_grid(policy.clone(), 4, &protocol_list(&["pid"]), None, None).len(),
            1
        );
        assert_eq!(
            fig5_grid(policy.clone(), 4, &[0.0, 0.25], &testbed).len(),
            6
        );
        assert_eq!(fig5_seed_sweep_grid(policy.clone(), 4, &testbed).len(), 6);
        assert_eq!(
            fig5_seed_sweep_grid(policy.clone(), 4, &testbed).name(),
            "fig5_seed_sweep"
        );
        assert_eq!(fig6_grid(4, None).len(), 2);
        assert_eq!(
            dynamics_grid(
                policy.clone(),
                8,
                "churn-storm",
                &protocol_list(&["static", "pid"]),
                None
            )
            .len(),
            2
        );
        assert_eq!(fig7_grid(policy, 4, &dcube).len(), 9);
        assert_eq!(
            topology_size_grid(4, &[3, 4], &protocol_list(&["static", "dimmer-rule"])).len(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "fig4c supports")]
    fn fig4c_grid_rejects_unsupported_protocols() {
        fig4c_grid(
            AdaptivityPolicy::rule_based(),
            4,
            &protocol_list(&["crystal"]),
            None,
            None,
        );
    }

    #[test]
    fn topology_size_cells_run_on_small_grids() {
        use crate::harness::RunOptions;
        let protocols = protocol_list(&["static", "dimmer-rule"]);
        let report = topology_size_grid(4, &[3], &protocols).run(&RunOptions {
            trials: 2,
            threads: 2,
            seed: 9,
        });
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let rel = cell.metric("reliability").unwrap();
            assert!(rel.mean.is_finite() && (0.0..=1.0).contains(&rel.mean));
            assert!(cell.metric("latency_ms").unwrap().mean > 0.0);
        }
    }

    #[test]
    fn dynamics_cells_run_and_emit_phase_metrics() {
        use crate::harness::RunOptions;
        let protocols = protocol_list(&["static"]);
        let grid = dynamics_grid(
            AdaptivityPolicy::rule_based(),
            12,
            "flash-crowd",
            &protocols,
            None,
        );
        let report = grid.run(&RunOptions {
            trials: 2,
            threads: 2,
            seed: 3,
        });
        let cell = &report.cells[0];
        assert!(cell.metric("reliability").is_some());
        assert!(cell.metric("latency_ms").is_some());
        // Six of eighteen nodes are down for half the run.
        let alive = cell.metric("mean_alive").unwrap().mean;
        assert!(alive > 12.0 && alive < 18.0, "got {alive}");
        assert!(cell.metric("rel@small-net").is_some());
        assert!(cell.metric("alive@join-wave").is_some());
        let small = cell.metric("alive@small-net").unwrap().mean;
        assert!((small - 12.0).abs() < 1e-9, "got {small}");
    }

    #[test]
    #[should_panic(expected = "unknown dynamic scenario")]
    fn dynamics_grid_rejects_unknown_scenarios() {
        dynamics_grid(
            AdaptivityPolicy::rule_based(),
            8,
            "earthquake",
            &protocol_list(&["static"]),
            None,
        );
    }

    #[test]
    fn fig6_selection_reduces_active_forwarders() {
        let summary = fig6_run(120, 3);
        assert_eq!(summary.with_fs.len(), 120);
        assert!(
            summary.mean_forwarders() < 18.0,
            "some devices should learn a passive role, got {}",
            summary.mean_forwarders()
        );
    }
}
