//! The flood-kernel benchmark suite: optimized kernel vs the naive
//! reference, full LWB rounds, and a Fig.-5-sized end-to-end experiment
//! cell.
//!
//! Unlike `micro.rs` this bench has a custom `main`: after measuring, it
//! computes the optimized-vs-reference speedups and writes the
//! machine-readable `BENCH_flood.json` at the repository root (override the
//! path with `BENCH_FLOOD_JSON`), giving the repository's performance
//! trajectory a durable data point per commit. The JSON schema is fixed and
//! the key order deterministic; only the measured numbers vary run-to-run.
//!
//! `BENCH_BUDGET_MS` (see the vendored `criterion` stub) bounds the time
//! spent per benchmark; CI's smoke job sets it to 1 to execute a single
//! calibration batch of every benchmark.

use criterion::Criterion;
use dimmer_bench::experiments::fig5_run;
use dimmer_core::AdaptivityPolicy;
use dimmer_glossy::{FloodJob, FloodSimulator, GlossyConfig, ReferenceFloodSimulator};
use dimmer_lwb::{LwbConfig, RoundExecutor, Schedule};
use dimmer_sim::{
    kiel_jamming, topogen, InterferenceModel, NoInterference, NodeId, SimRng, SimTime, Topology,
    WifiInterference, WifiLevel,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// One optimized-vs-reference flood pair; returns the two benchmark ids.
fn bench_flood_pair(
    c: &mut Criterion,
    label: &str,
    topo: &Topology,
    interference: &dyn InterferenceModel,
    ntx: u8,
) -> (String, String) {
    let cfg = GlossyConfig::with_uniform_ntx(ntx);
    let initiator = topo.coordinator();

    let opt_id = format!("flood/{label}/optimized");
    let mut fast = FloodSimulator::new(topo, interference);
    let mut rng = SimRng::seed_from(1);
    c.bench_function(&opt_id, |b| {
        b.iter(|| fast.flood(&cfg, initiator, SimTime::ZERO, &mut rng))
    });

    let ref_id = format!("flood/{label}/reference");
    let slow = ReferenceFloodSimulator::new(topo, interference);
    let mut rng = SimRng::seed_from(1);
    c.bench_function(&ref_id, |b| {
        b.iter(|| slow.flood(&cfg, initiator, SimTime::ZERO, &mut rng))
    });

    (opt_id, ref_id)
}

/// Where `BENCH_flood.json` goes: the repository root by default.
fn output_path() -> PathBuf {
    match std::env::var("BENCH_FLOOD_JSON") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop();
            p.pop();
            p.join("BENCH_flood.json")
        }
    }
}

fn main() {
    let mut c = Criterion::default();
    let mut pairs: Vec<(&str, String, String)> = Vec::new();

    // Flood kernel, paper-sized testbed: calm and the Fig. 5 two-jammer
    // 30 % interference (the paper's standard operating condition — this
    // pair is the headline `flood_kernel_speedup` below).
    let kiel = Topology::kiel_testbed_18(1);
    let (o, r) = bench_flood_pair(&mut c, "kiel18_calm_ntx3", &kiel, &NoInterference, 3);
    pairs.push(("kiel18_calm_ntx3", o, r));
    let jam = kiel_jamming(0.30);
    let (o, r) = bench_flood_pair(&mut c, "kiel18_jam30_ntx3", &kiel, &jam, 3);
    pairs.push(("kiel18_jam30_ntx3", o, r));

    // Flood kernel, the Fig. 7 D-Cube scenario: 48 nodes under strong WiFi.
    let dcube = Topology::dcube_48(1);
    let wifi = WifiInterference::new(WifiLevel::Level2, 5);
    let (o, r) = bench_flood_pair(&mut c, "dcube48_wifi2_ntx3", &dcube, &wifi, 3);
    pairs.push(("dcube48_wifi2_ntx3", o, r));

    // Flood kernel, the larger jammed grids the parallel harness fans out to.
    let grid = Topology::grid(10, 10, 8.0, 2);
    let grid_jam = kiel_jamming(0.30);
    let (o, r) = bench_flood_pair(&mut c, "grid100_jam30_ntx3", &grid, &grid_jam, 3);
    pairs.push(("grid100_jam30_ntx3", o, r));

    // The sparse scaling rungs: CSR-only worlds from `topogen`, driven
    // through the batched flood driver (no reference pair — the dense
    // reference cannot even represent the 10k-node world). These feed the
    // `"scaling"` curve in the JSON report.
    let mut scaling: Vec<(&str, usize, String)> = Vec::new();
    for (label, rows, cols) in [
        ("grid100", 10usize, 10usize),
        ("grid1k", 32, 32),
        ("grid10k", 100, 100),
    ] {
        let world = topogen::sparse_grid(rows, cols, 8.0, 1);
        let nodes = world.num_nodes();
        let id = format!("flood/{label}_sparse/batched");
        let mut batch = FloodSimulator::new(world, &NoInterference);
        let cfg = GlossyConfig::with_uniform_ntx(3);
        let job = FloodJob {
            initiator: NodeId(0),
            start: SimTime::ZERO,
            seed: 1,
        };
        c.bench_function(&id, |b| b.iter(|| batch.run_one(&cfg, &job)));
        scaling.push((label, nodes, id));
    }

    // The threads-scaling rung: one grid10k world, a fixed 16-job batch
    // fanned across T scoped workers via `FloodSimulator::run_parallel`
    // (byte-identical outcomes for every T — this curve measures pure
    // wall-clock). Feeds the `"parallel"` key in the JSON report.
    const PARALLEL_JOBS: usize = 16;
    let mut parallel: Vec<(usize, String)> = Vec::new();
    let parallel_nodes;
    {
        let world = topogen::sparse_grid(100, 100, 8.0, 1);
        parallel_nodes = world.num_nodes();
        let mut batch = FloodSimulator::new(world, &NoInterference);
        let cfg = GlossyConfig::with_uniform_ntx(3);
        let jobs: Vec<FloodJob> = (0..PARALLEL_JOBS)
            .map(|k| FloodJob {
                initiator: NodeId(((k * 8191) % parallel_nodes) as u16),
                start: SimTime::from_millis(k as u64 * 250),
                seed: SimRng::derive_seed(1, &[k as u64]),
            })
            .collect();
        for threads in [1usize, 2, 4, 8] {
            let id = format!("flood/grid10k_sparse/parallel_t{threads}");
            c.bench_function(&id, |b| b.iter(|| batch.run_parallel(&cfg, &jobs, threads)));
            parallel.push((threads, id));
        }
    }

    // Full LWB round (control slot + 18 data slots) on the optimized path.
    {
        let lwb = LwbConfig::testbed_default();
        let mut exec = RoundExecutor::new(&kiel, &NoInterference, lwb);
        let sources: Vec<NodeId> = kiel.node_ids().collect();
        let schedule = Schedule::new(0, sources, dimmer_glossy::NtxAssignment::Uniform(3));
        let mut rng = SimRng::seed_from(2);
        c.bench_function("round/kiel18_18slots_ntx3", |b| {
            b.iter(|| exec.run_round(&schedule, SimTime::ZERO, &mut rng))
        });
    }

    // A Fig.-5-sized end-to-end cell: one protocol, one interference level,
    // a short round budget — the unit the experiment harness fans out.
    {
        let policy = AdaptivityPolicy::rule_based();
        c.bench_function("fig5_cell/dimmer_rule_jam10_10rounds", |b| {
            b.iter(|| fig5_run("dimmer-rule", 0.10, &policy, 10, 7))
        });
    }

    // Post-process: speedups and the JSON report.
    let mut json = String::from("{\n  \"suite\": \"flood\",\n  \"benchmarks\": [\n");
    for (i, res) in c.results().iter().enumerate() {
        let comma = if i + 1 < c.results().len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}}}{}",
            res.id, res.mean_ns, res.iters, comma
        );
    }
    json.push_str("  ],\n  \"scaling\": {\n");
    for (i, (label, nodes, id)) in scaling.iter().enumerate() {
        let mean = c.mean_ns(id).expect("scaling bench ran");
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{label}\": {{\"nodes\": {nodes}, \"mean_ns\": {mean:.1}}}{comma}"
        );
        println!("scaling {label:<24} {nodes:>6} nodes {mean:>14.1} ns/flood");
    }
    json.push_str("  },\n  \"parallel\": {\n");
    let _ = writeln!(
        json,
        "    \"label\": \"grid10k\",\n    \"nodes\": {parallel_nodes},\n    \"jobs\": {PARALLEL_JOBS},\n    \"threads\": {{"
    );
    let t1_mean = c.mean_ns(&parallel[0].1).expect("parallel t1 bench ran");
    let mut t4_speedup = 0.0f64;
    for (i, (threads, id)) in parallel.iter().enumerate() {
        let mean = c.mean_ns(id).expect("parallel bench ran");
        let floods_per_sec = PARALLEL_JOBS as f64 * 1e9 / mean;
        if *threads == 4 {
            t4_speedup = t1_mean / mean;
        }
        let comma = if i + 1 < parallel.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      \"{threads}\": {{\"mean_ns\": {mean:.1}, \"floods_per_sec\": {floods_per_sec:.1}}}{comma}"
        );
        println!(
            "parallel grid10k t={threads:<2} {mean:>14.1} ns/batch {floods_per_sec:>10.1} floods/s"
        );
    }
    let _ = writeln!(
        json,
        "    }},\n    \"speedup_at_4_threads\": {t4_speedup:.2}"
    );
    json.push_str("  },\n  \"speedups\": {\n");
    let mut headline = 0.0f64;
    for (i, (label, opt_id, ref_id)) in pairs.iter().enumerate() {
        let opt = c.mean_ns(opt_id).expect("optimized bench ran");
        let reference = c.mean_ns(ref_id).expect("reference bench ran");
        let speedup = reference / opt;
        if *label == "kiel18_jam30_ntx3" {
            headline = speedup;
        }
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{label}\": {speedup:.2}{comma}");
        println!("speedup {label:<24} {speedup:>6.2}x");
    }
    // The headline metric: the paper's standard operating condition (18-node
    // testbed under the Fig. 5 two-jammer 30 % interference).
    let _ = writeln!(json, "  }},\n  \"flood_kernel_speedup\": {headline:.2}\n}}");

    let path = output_path();
    std::fs::write(&path, &json).expect("write BENCH_flood.json");
    println!("wrote {}", path.display());
}
