//! The dynamic-world benchmark suite: incremental `apply_event` patching
//! vs full recompilation, and a churn-storm round.
//!
//! Like `flood.rs` this bench has a custom `main`: after measuring it
//! computes the patch-vs-recompile speedup and writes the machine-readable
//! `BENCH_world.json` at the repository root (override the path with
//! `BENCH_WORLD_JSON`). The JSON schema is fixed and the key order
//! deterministic; only the measured numbers vary run-to-run.
//! `BENCH_BUDGET_MS` (see the vendored `criterion` stub) bounds the time
//! spent per benchmark.

use criterion::{black_box, Criterion};
use dimmer_glossy::NtxAssignment;
use dimmer_lwb::{LwbConfig, RoundExecutor, Schedule};
use dimmer_sim::{CompiledTopology, NoInterference, NodeId, SimRng, SimTime, Topology, WorldEvent};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where `BENCH_world.json` goes: the repository root by default.
fn output_path() -> PathBuf {
    match std::env::var("BENCH_WORLD_JSON") {
        Ok(p) => PathBuf::from(p),
        Err(_) => {
            let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            p.pop();
            p.pop();
            p.join("BENCH_world.json")
        }
    }
}

fn main() {
    let mut c = Criterion::default();
    let topo = Topology::dcube_48(1);
    let n = topo.num_nodes();

    // Incremental patch: one symmetric link drift on the 48-node compiled
    // topology, alternating values so every call mutates (in-place path).
    {
        let mut compiled = CompiledTopology::compile(&topo);
        let mut flip = false;
        c.bench_function("world/link_drift_patch/dcube48", |b| {
            b.iter(|| {
                flip = !flip;
                let prr = if flip { 0.42 } else { 0.73 };
                compiled.apply_event(&WorldEvent::LinkDrift {
                    a: NodeId(10),
                    b: NodeId(31),
                    prr,
                })
            })
        });
    }

    // Insert/remove patch: the link flips between absent (0.0) and present,
    // exercising the CSR shift path.
    {
        let mut compiled = CompiledTopology::compile(&topo);
        let mut flip = false;
        c.bench_function("world/link_flip_patch/dcube48", |b| {
            b.iter(|| {
                flip = !flip;
                let prr = if flip { 0.0 } else { 0.6 };
                compiled.apply_event(&WorldEvent::LinkDrift {
                    a: NodeId(5),
                    b: NodeId(44),
                    prr,
                })
            })
        });
    }

    // Full recompilation from a raw PRR matrix — what every one-link change
    // would cost without `apply_event`.
    {
        let base = CompiledTopology::compile(&topo);
        let prr: Vec<f64> = (0..n * n)
            .map(|k| base.prr(NodeId((k / n) as u16), NodeId((k % n) as u16)))
            .collect();
        let positions = base.positions().to_vec();
        c.bench_function("world/full_recompile/dcube48", |b| {
            b.iter(|| {
                black_box(CompiledTopology::from_prr_matrix(
                    positions.clone(),
                    NodeId(0),
                    prr.clone(),
                ))
            })
        });
    }

    // A churn-storm round: the 18-node testbed with a third of the nodes
    // down — the per-round unit cost of the `dynamics:churn-storm` storm phase.
    {
        let kiel = Topology::kiel_testbed_18(1);
        let lwb = LwbConfig::testbed_default();
        let mut exec = RoundExecutor::new(&kiel, &NoInterference, lwb);
        let mut alive = vec![true; kiel.num_nodes()];
        for dead in [3usize, 7, 11, 5, 9, 13] {
            alive[dead] = false;
        }
        exec.set_alive(&alive);
        let sources: Vec<NodeId> = kiel.node_ids().filter(|s| alive[s.index()]).collect();
        let schedule = Schedule::new(0, sources, NtxAssignment::Uniform(3));
        let mut rng = SimRng::seed_from(2);
        c.bench_function("round/kiel18_churn_storm_6dead", |b| {
            b.iter(|| exec.run_round(&schedule, SimTime::ZERO, &mut rng))
        });
    }

    // Post-process: the patch-vs-recompile speedup and the JSON report.
    let mut json = String::from("{\n  \"suite\": \"world\",\n  \"benchmarks\": [\n");
    for (i, res) in c.results().iter().enumerate() {
        let comma = if i + 1 < c.results().len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"iters\": {}}}{}",
            res.id, res.mean_ns, res.iters, comma
        );
    }
    let patch = c
        .mean_ns("world/link_drift_patch/dcube48")
        .expect("patch bench ran");
    let recompile = c
        .mean_ns("world/full_recompile/dcube48")
        .expect("recompile bench ran");
    let speedup = recompile / patch;
    println!("speedup patch-vs-recompile {speedup:>10.2}x");
    let _ = writeln!(json, "  ],\n  \"patch_speedup\": {speedup:.2}\n}}");

    let path = output_path();
    std::fs::write(&path, &json).expect("write BENCH_world.json");
    println!("wrote {}", path.display());
}
