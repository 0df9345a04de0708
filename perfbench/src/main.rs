//! The repository benchmark: end-to-end and per-layer metrics of four
//! workloads, each run from one process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figures|city|serve|train --seed N --seconds S --trace 0|1
//! ```
//!
//! The run prints a human-readable report (host block, every metric with
//! its unit, work counters with ns per unit of work, output digests and the
//! attribution of each layer's time) and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured without any probe installed;
//! with `--trace 1` they are the per-layer set, taken from a separate
//! traced pass whose output digests must match the untraced pass.

mod city;
mod figures;
mod golden;
mod serve;
mod stats;
mod trace;
mod train;

use stats::{median, tail, Counters};
use std::process::ExitCode;

/// The seed the recorded digests in [`golden`] were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (error replies, `busy`, digest or
    /// byte mismatches all count as failures).
    pub attempted: u64,
    pub failed: u64,
    /// Units of work done in the measured phase (rounds, floods, requests,
    /// transitions) and the wall time it took.
    pub work: u64,
    pub work_unit: &'static str,
    pub busy_s: f64,
    /// Latency of each measured operation, in ms.
    pub op_ms: Vec<f64>,
    pub op_name: &'static str,
    /// Wall time of each repetition of the set-up, in s.
    pub setup_s: Vec<f64>,
    /// Deterministic work counters of one pass.
    pub counters: Counters,
    /// Output digests of one pass, by name.
    pub digests: Vec<(String, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Workload shape for the host block (threads, clients, envs).
    pub shape: Vec<(&'static str, String)>,
    /// Free-form report lines (attribution, overhead, latency splits).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Records a mismatch as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.notes.push(format!("MISMATCH: {}", what()));
        }
    }
}

/// End-to-end metrics: every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports all of them, with 0 for the
/// layers its workload does not exercise.
pub const PER_LAYER: [(&str, &str); 57] = [
    // figures
    ("bench.experiments.fig5_s", "s"),
    ("bench.experiments.fig6_s", "s"),
    ("bench.experiments.fig7_s", "s"),
    ("bench.experiments.dynamics_s", "s"),
    ("baselines.registry.build_us", "us"),
    ("baselines.registry.builds", "count"),
    ("core.engine.round_ns", "ns"),
    ("core.engine.rounds", "count"),
    ("core.engine.residual_ns", "ns"),
    ("core.controller.observe_ns", "ns"),
    ("core.controller.decisions", "count"),
    ("core.controller.ntx_changes", "count"),
    ("sim.interference.compile_us", "us"),
    ("sim.interference.slot_calls", "count"),
    ("sim.interference.slot_ns", "ns"),
    ("lwb.round.round_ns", "ns"),
    ("lwb.round.floods", "count"),
    ("glossy.flood.flood_ns", "ns"),
    ("glossy.flood.reach_frac", "frac"),
    ("sim.compiled.patch_ns", "ns"),
    ("sim.compiled.patches", "count"),
    ("bench.report.to_json_us", "us"),
    // city
    ("sim.topogen.build_ms", "ms"),
    ("sim.compiled.nodes", "count"),
    ("sim.compiled.links", "count"),
    ("sim.compiled.memory_mb", "MB"),
    ("glossy.batch.flood_us.city_6x6x32", "us"),
    ("glossy.batch.flood_us.campus_12x48", "us"),
    ("glossy.batch.flood_us.warehouse_8x40", "us"),
    ("glossy.batch.flood_us.grid_50x50", "us"),
    ("glossy.batch.flood_us.grid_100x100", "us"),
    ("glossy.batch.ns_per_node_slot", "ns"),
    ("glossy.batch.reach_frac", "frac"),
    ("glossy.batch.parallel_efficiency", "frac"),
    ("sim.workqueue.jobs", "count"),
    // serve
    ("dimmerd.json.parse_us", "us"),
    ("dimmerd.json.reply_bytes", "bytes"),
    ("dimmerd.service.handle_us", "us"),
    ("dimmerd.server.framing_us", "us"),
    ("dimmerd.server.hit_p50_us", "us"),
    ("dimmerd.server.hit_tail_us", "us"),
    ("dimmerd.server.cold_p50_ms", "ms"),
    ("dimmerd.server.cold_tail_ms", "ms"),
    ("dimmerd.service.exec_ms", "ms"),
    ("dimmerd.service.wait_ms", "ms"),
    ("dimmerd.cache.memo_hit_ratio", "frac"),
    ("dimmerd.cache.memo_bytes", "bytes"),
    ("dimmerd.service.busy_rejections", "count"),
    ("dimmerd.service.failed", "count"),
    // train
    ("core.sim_env.step_ns", "ns"),
    ("core.sim_env.steps", "count"),
    ("core.sim_env.reset_ns", "ns"),
    ("traces.collector.collect_ms", "ms"),
    ("traces.env.step_ns", "ns"),
    ("traces.pipeline.train_s", "s"),
    ("rl.farm.episodes", "count"),
    ("rl.dqn.learn_ns", "ns"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["figures", "city", "serve", "train"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} (got '{}')",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Jiffies of all CPUs from `/proc/stat`: `(stolen by the hypervisor,
/// total)`; zeros where unavailable.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The host block printed with every result; `steal` is the share of CPU
/// time the hypervisor took from this machine during the run.
fn host_lines(out: &Outcome, steal: f64) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut lines = vec![
        format!("host.nproc = {nproc}"),
        format!("host.cpu = {cpu}"),
        format!("host.rustc = {rustc}"),
        format!("host.profile = {profile}"),
        format!("host.commit = {}", git_commit()),
        format!("host.steal_pct = {:.1}", steal * 100.0),
    ];
    for (k, v) in &out.shape {
        lines.push(format!("host.{k} = {v}"));
    }
    lines
}

/// The checked-out commit, read from `.git` without running git; checkouts
/// without a repository report `none`.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    let (steal0, total0) = cpu_jiffies();
    let mut out = match args.workload.as_str() {
        "figures" => figures::run(&args),
        "city" => city::run(&args),
        "serve" => serve::run(&args),
        _ => train::run(&args),
    };

    // Recorded digests and work counters at the default seed. Counters a
    // run does not produce (the traced-only ones) are not checked.
    if args.seed == DEFAULT_SEED {
        for (name, want) in golden::digests(&args.workload) {
            let got = out.digests.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
            out.attempted += 1;
            out.check(got == Some(*want), || {
                format!("digest {name}: got {got:x?}, recorded {want:#018x}")
            });
        }
        for (name, want) in golden::counters(&args.workload) {
            if out.counters.0.iter().any(|(n, _)| n == name) {
                let got = out.counters.get(name);
                out.attempted += 1;
                out.check(got == *want, || {
                    format!("counter {name}: got {got}, recorded {want}")
                });
            }
        }
    }

    let (steal1, total1) = cpu_jiffies();
    let steal = steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
    let peak_rss = stats::peak_rss_mb();
    let work_per_s = if out.busy_s > 0.0 {
        out.work as f64 / out.busy_s
    } else {
        0.0
    };
    let op_tail = tail(&out.op_ms);
    let e2e = [
        work_per_s,
        median(&out.op_ms),
        op_tail.value,
        median(&out.setup_s),
        peak_rss,
    ];

    println!(
        "== perfbench {} seed={} trace={}",
        args.workload, args.seed, args.trace as u8
    );
    for line in host_lines(&out, steal) {
        println!("{line}");
    }
    println!(
        "work: {} {} in {:.3} s; {} ops ({}), tail p{} of {} samples ({} beyond)",
        out.work,
        out.work_unit,
        out.busy_s,
        out.op_ms.len(),
        out.op_name,
        op_tail.pct,
        op_tail.n,
        op_tail.beyond
    );
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        println!("metric {name} = {v:.6} {unit}");
    }
    for (name, v) in &out.counters.0 {
        println!("counter {name} = {v}");
    }
    for (name, d) in &out.digests {
        println!("digest {name} = {d:#018x}");
    }
    for (name, v) in &out.layers {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| n == name)
            .map_or("?", |(_, u)| u);
        println!("layer {name} = {v:.6} {unit}");
    }
    if !out.op_ms.is_empty() {
        let mut v = out.op_ms.clone();
        v.sort_by(f64::total_cmp);
        println!(
            "op ms: min {:.3} median {:.3} max {:.3}",
            v[0],
            median(&v),
            v[v.len() - 1]
        );
    }
    for note in &out.notes {
        println!("{note}");
    }

    let values: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = text[start..]
            .find(']')
            .map(|e| start + e)
            .expect("section closes");
        text[start..end]
            .match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &text[start + i + m.len()..];
                rest[..rest.find('"').expect("name closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        let workloads: Vec<String> = WORKLOADS.iter().map(|n| n.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(names("per_layer"), layers);
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload city --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload city --trace 2")).is_err());
        assert!(parse_args(&argv("--workload city --seconds")).is_err());
    }
}
