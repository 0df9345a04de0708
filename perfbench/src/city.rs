//! `city`: batched floods over the sparse city-scale worlds through
//! `FloodBatch::run_parallel`, the CSR gather and the shared work queue.
//!
//! The worlds are the four `city_worlds()` presets plus the 100×100 sparse
//! grid, each with the 15 % duty-cycle jammer parked at its centroid.
//! Initiators and flood seeds follow `city_scale_grid_from_worlds_threaded`:
//! initiator `k * 8191 mod n`, start `k * 250 ms`, seed
//! `derive_seed(world_seed, [k])`, with the world seed derived from the
//! benchmark seed. World generation and compilation are the set-up.

use std::time::Instant;

use dimmer_glossy::{FloodBatch, FloodJob, FloodOutcome, GlossyConfig};
use dimmer_sim::{
    topogen, CompiledTopology, CompositeInterference, InterferenceModel, NodeId, PeriodicJammer,
    Position, SimDuration, SimRng, SimTime,
};

use crate::stats::{median, Counters, Fnv};
use crate::trace::{self, TimedInterference};
use crate::{Args, Outcome};

/// Worker threads of every `run_parallel` batch.
pub const THREADS: usize = 2;
/// Floods per batch (one batch per world per pass).
pub const FLOODS: usize = 16;

/// A deterministic world generator.
type Generator = fn() -> CompiledTopology;

/// The worlds, in pass order.
pub const WORLDS: [(&str, Generator); 5] = [
    ("city_6x6x32", || topogen::city_blocks(6, 6, 32, 1)),
    ("campus_12x48", || topogen::campus(12, 48, 1)),
    ("warehouse_8x40", || topogen::warehouse_floor(8, 40, 1)),
    ("grid_50x50", || topogen::sparse_grid(50, 50, 8.0, 1)),
    ("grid_100x100", || topogen::sparse_grid(100, 100, 8.0, 1)),
];

/// Per-world flood-time layer names, in [`WORLDS`] order.
const FLOOD_US: [&str; 5] = [
    "glossy.batch.flood_us.city_6x6x32",
    "glossy.batch.flood_us.campus_12x48",
    "glossy.batch.flood_us.warehouse_8x40",
    "glossy.batch.flood_us.grid_50x50",
    "glossy.batch.flood_us.grid_100x100",
];

/// The centroid-parked 15 % jammer of the city presets.
fn centroid_jammer(compiled: &CompiledTopology) -> CompositeInterference {
    let n = compiled.num_nodes() as f64;
    let centroid = compiled
        .positions()
        .iter()
        .fold(Position::new(0.0, 0.0), |acc, p| {
            Position::new(acc.x + p.x / n, acc.y + p.y / n)
        });
    let mut interference = CompositeInterference::new();
    interference.push(Box::new(PeriodicJammer::with_duty_cycle(centroid, 0.15)));
    interference
}

/// The flood jobs of world `w` for benchmark seed `seed`.
pub fn jobs(seed: u64, w: usize, nodes: usize) -> Vec<FloodJob> {
    let world_seed = SimRng::derive_seed(seed, &[w as u64]);
    (0..FLOODS)
        .map(|k| FloodJob {
            initiator: NodeId(((k * 8191) % nodes) as u16),
            start: SimTime::from_millis(k as u64 * 250),
            seed: SimRng::derive_seed(world_seed, &[k as u64]),
        })
        .collect()
}

/// The city flood configuration: a 200 ms slot budget for many-hop worlds.
pub fn glossy() -> GlossyConfig {
    GlossyConfig {
        max_slot_duration: SimDuration::from_millis(200),
        ..GlossyConfig::with_uniform_ntx(3)
    }
}

/// Digest of one batch's outcome stream plus its simulated slot count.
fn digest(outcomes: &[FloodOutcome], cfg: &GlossyConfig) -> (u64, u64) {
    let mut h = Fnv::default();
    let mut slots = 0u64;
    let slot_us = cfg.relay_slot_duration().as_micros().max(1);
    for o in outcomes {
        h.u64(u64::from(o.initiator().0));
        h.u64(o.duration().as_micros());
        slots += o.duration().as_micros().div_ceil(slot_us);
        for node in o.per_node() {
            h.u64(u64::from(node.received));
            h.u64(node.first_rx_slot.map_or(u64::MAX, u64::from));
            h.u64(u64::from(node.relays));
            h.u64(node.radio.on_time().as_micros());
        }
    }
    (h.finish(), slots)
}

struct World {
    label: &'static str,
    compiled: CompiledTopology,
    interference: CompositeInterference,
}

/// The set-up: generate every world and compile it with its interference
/// bank (what `FloodBatch::new` does up front). Records the set-up time and
/// the time spent in `topogen`.
fn set_up(out: &mut Outcome, topogen_ms: &mut Vec<f64>) -> Vec<World> {
    let t = Instant::now();
    let mut generated = 0.0;
    let worlds: Vec<World> = WORLDS
        .iter()
        .map(|(label, build)| {
            let g = Instant::now();
            let compiled = build();
            generated += g.elapsed().as_secs_f64() * 1e3;
            let interference = centroid_jammer(&compiled);
            World {
                label,
                compiled,
                interference,
            }
        })
        .collect();
    let built = batches_of(&worlds);
    out.setup_s.push(t.elapsed().as_secs_f64());
    topogen_ms.push(generated);
    drop(built);
    worlds
}

/// One flood batch per world.
fn batches_of(worlds: &[World]) -> Vec<FloodBatch<'_>> {
    worlds
        .iter()
        .map(|w| FloodBatch::new(w.compiled.clone(), &w.interference))
        .collect()
}

/// Passes between repetitions of the set-up.
const SETUP_EVERY: u64 = 4;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        work_unit: "floods",
        op_name: "one world's flood batch",
        ..Outcome::default()
    };
    out.shape.push(("city.batch_threads", THREADS.to_string()));
    out.shape
        .push(("city.floods_per_batch", FLOODS.to_string()));
    let cfg = glossy();

    // Set-up runs before the measured phase and again every few passes, so
    // its median spans the whole run; only the passes count as busy time.
    let mut topogen_ms = Vec::new();
    let mut worlds = set_up(&mut out, &mut topogen_ms);
    let job_lists: Vec<Vec<FloodJob>> = worlds
        .iter()
        .enumerate()
        .map(|(i, w)| jobs(args.seed, i, w.compiled.num_nodes()))
        .collect();

    let mut counters = Counters::default();
    let mut node_slots = 0u64;
    let mut reach = 0.0;
    let mut per_world_ns = vec![0u128; worlds.len()];
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget);
    let mut passes = 0u64;
    let mut pass_ns = Vec::new();
    'measure: loop {
        let mut batches = batches_of(&worlds);
        for _ in 0..SETUP_EVERY {
            let pass = Instant::now();
            for (i, batch) in batches.iter_mut().enumerate() {
                let t = Instant::now();
                let outcomes = batch.run_parallel(&cfg, &job_lists[i], THREADS);
                let ns = t.elapsed().as_nanos();
                per_world_ns[i] += ns;
                out.op_ms.push(ns as f64 / 1e6);
                out.attempted += 1;
                out.work += outcomes.len() as u64;
                let (d, slots) = digest(&outcomes, &cfg);
                let name = worlds[i].label;
                match out.digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d) {
                    Some(first) => {
                        out.check(d == first, || format!("{name} changed between passes"))
                    }
                    None => {
                        out.digests.push((name.to_string(), d));
                        counters.add("floods", outcomes.len() as u64);
                        counters.add("simulated_slots", slots);
                        node_slots += slots * worlds[i].compiled.num_nodes() as u64;
                        reach += outcomes.iter().map(FloodOutcome::reliability).sum::<f64>();
                    }
                }
            }
            let pass = pass.elapsed();
            passes += 1;
            pass_ns.push(pass.as_nanos() as f64);
            out.busy_s += pass.as_secs_f64();
            // Stop before a pass that would overrun the budget.
            if Instant::now() + pass > deadline {
                break 'measure;
            }
        }
        // Free the worlds before the set-up builds their replacements, so
        // the peak resident set holds one set of worlds.
        drop(batches);
        worlds.clear();
        worlds = set_up(&mut out, &mut topogen_ms);
    }
    out.counters = counters;
    let total_ns: u128 = per_world_ns.iter().sum();
    let floods = out.counters.get("floods");
    out.notes.push(format!(
        "ns per unit: flood {:.0}, node-slot {:.2} ({} node-slots per pass)",
        total_ns as f64 / (floods * passes) as f64,
        total_ns as f64 / (node_slots * passes) as f64,
        node_slots
    ));

    if args.trace {
        out.layer("sim.topogen.build_ms", median(&topogen_ms));
        let nodes: usize = worlds.iter().map(|w| w.compiled.num_nodes()).sum();
        let links: usize = worlds.iter().map(|w| w.compiled.num_links()).sum();
        let memory: usize = worlds.iter().map(|w| w.compiled.memory_bytes()).sum();
        out.layer("sim.compiled.nodes", nodes as f64);
        out.layer("sim.compiled.links", links as f64);
        out.layer("sim.compiled.memory_mb", memory as f64 / (1024.0 * 1024.0));
        for (i, name) in FLOOD_US.iter().enumerate() {
            out.layer(
                name,
                per_world_ns[i] as f64 / (FLOODS as u64 * passes) as f64 / 1e3,
            );
        }
        out.layer(
            "glossy.batch.ns_per_node_slot",
            total_ns as f64 / (node_slots * passes) as f64,
        );
        out.layer("glossy.batch.reach_frac", reach / floods as f64);
        out.layer("sim.workqueue.jobs", floods as f64);

        let mut batches = batches_of(&worlds);
        // Serial `run` against `run_parallel` on the same batches: median
        // pass times of three serial passes and of the measured passes.
        let mut serial_pass = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            for (i, batch) in batches.iter_mut().enumerate() {
                let outcomes = batch.run(&cfg, &job_lists[i]);
                let name = worlds[i].label;
                let want = out.digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
                out.attempted += 1;
                out.check(want == Some(digest(&outcomes, &cfg).0), || {
                    format!("serial {name} differs from run_parallel")
                });
            }
            serial_pass.push(t.elapsed().as_nanos() as f64);
        }
        let parallel_ns = median(&pass_ns);
        out.layer(
            "glossy.batch.parallel_efficiency",
            median(&serial_pass) / (THREADS as f64 * parallel_ns),
        );

        // Probed pass: compile and per-slot mask time through the
        // interference probe; outcomes must not change.
        trace::reset_all();
        let probes: Vec<TimedInterference<'_>> = worlds
            .iter()
            .map(|w| TimedInterference(&w.interference as &dyn InterferenceModel))
            .collect();
        let t = Instant::now();
        let mut identical = true;
        for (i, w) in worlds.iter().enumerate() {
            let mut batch = FloodBatch::new(w.compiled.clone(), &probes[i]);
            let outcomes = batch.run_parallel(&cfg, &job_lists[i], THREADS);
            let want = out
                .digests
                .iter()
                .find(|(n, _)| n == w.label)
                .map(|(_, d)| *d);
            let same = want == Some(digest(&outcomes, &cfg).0);
            identical &= same;
            out.attempted += 1;
            out.check(same, || format!("traced {} differs", w.label));
        }
        let traced_ns = t.elapsed().as_nanos() as f64;
        out.notes.push(format!(
            "trace overhead: probed pass {:.3} s vs untraced {:.3} s ({:+.1} %)",
            traced_ns / 1e9,
            parallel_ns / 1e9,
            (traced_ns / parallel_ns - 1.0) * 100.0
        ));
        out.layer(
            "sim.interference.compile_us",
            trace::MASK_COMPILE.mean_ns() / 1e3,
        );
        out.notes.push(format!(
            "mask: {} slot calls, {:.0} ns each",
            trace::SLOT.calls(),
            trace::SLOT.mean_ns()
        ));
        if !identical {
            out.notes
                .push("traced digests differ: per-layer numbers discarded".into());
            out.layers.clear();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_deterministic_per_seed_and_differ_across_seeds() {
        assert_eq!(jobs(3, 1, 500), jobs(3, 1, 500));
        assert_ne!(jobs(3, 1, 500), jobs(4, 1, 500));
        assert!(jobs(3, 4, 500)
            .iter()
            .all(|j| (j.initiator.0 as usize) < 500));
    }

    #[test]
    fn interference_probe_leaves_a_small_batch_unchanged() {
        let compiled = topogen::warehouse_floor(4, 10, 1);
        let jam = centroid_jammer(&compiled);
        let probe = TimedInterference(&jam);
        let cfg = glossy();
        let jobs = jobs(9, 0, compiled.num_nodes());
        let plain = FloodBatch::new(compiled.clone(), &jam).run_parallel(&cfg, &jobs, 2);
        let probed = FloodBatch::new(compiled, &probe).run_parallel(&cfg, &jobs, 2);
        assert_eq!(digest(&plain, &cfg), digest(&probed, &cfg));
    }
}
