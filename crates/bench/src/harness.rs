//! The parallel multi-trial experiment engine.
//!
//! The paper's headline results are *distributions* over many seeds and
//! interference scenarios, so every experiment binary drives its scenario
//! through this engine instead of a hand-rolled single-trial loop:
//!
//! 1. Describe the scenario space as a [`ScenarioGrid`] — one [`GridCell`]
//!    per parameter combination (policy × interference × topology ×
//!    traffic), each holding a closure that runs *one* trial from a seed.
//! 2. Call [`ScenarioGrid::run`] with [`RunOptions`] (`--trials`,
//!    `--threads`, `--seed`). The engine fans the `cells × trials` jobs out
//!    across worker threads.
//! 3. Get back a [`GridReport`] with per-cell mean / stddev / 95 % CI per
//!    metric, printable as a table or serializable to JSON.
//!
//! # Determinism
//!
//! Each trial's seed is derived statelessly from
//! `(base seed, cell index, trial index)` via [`SimRng::derive_seed`](dimmer_sim::SimRng::derive_seed), and
//! results are written into pre-allocated slots keyed by job index, so the
//! aggregated report is **bit-identical regardless of the number of worker
//! threads** or how the OS schedules them. `--threads` only changes
//! wall-clock time, never results.
//!
//! # Examples
//!
//! ```
//! use dimmer_bench::harness::{RunOptions, ScenarioGrid, TrialMetrics};
//!
//! let mut grid = ScenarioGrid::new("demo");
//! for bias in [0.0, 1.0] {
//!     grid.push_cell(
//!         format!("bias={bias}"),
//!         vec![("bias".into(), format!("{bias}"))],
//!         move |seed| TrialMetrics::new().with("value", bias + (seed % 3) as f64),
//!     );
//! }
//! let report = grid.run(&RunOptions { trials: 4, threads: 2, seed: 42 });
//! assert_eq!(report.cells.len(), 2);
//! assert_eq!(report.cells[0].metric("value").unwrap().n, 4);
//! // Thread count never changes the result:
//! let serial = grid.run(&RunOptions { trials: 4, threads: 1, seed: 42 });
//! assert_eq!(report.to_json(), serial.to_json());
//! ```

use crate::catalogue::{resolve_protocols, ProtocolAxis};
use crate::report::GridReport;
use crate::scheduler;

/// The named metric samples produced by one trial.
///
/// Metrics keep insertion order; every trial of a cell must emit the same
/// metric names (the engine asserts this while aggregating).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialMetrics {
    entries: Vec<(String, f64)>,
}

impl TrialMetrics {
    /// Creates an empty metric set.
    pub fn new() -> Self {
        TrialMetrics::default()
    }

    /// Adds a metric sample (builder style).
    pub fn with(mut self, name: &str, value: f64) -> Self {
        self.push(name, value);
        self
    }

    /// Adds a metric sample.
    pub fn push(&mut self, name: &str, value: f64) {
        self.entries.push((name.to_string(), value));
    }

    /// The `(name, value)` samples, in insertion order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }
}

/// One cell of a scenario grid: a parameter combination plus the closure
/// that runs a single trial of it.
pub struct GridCell {
    /// Human-readable label (becomes the table row / JSON `label`).
    pub label: String,
    /// Structured parameters (become the JSON `params` object).
    pub params: Vec<(String, String)>,
    run: Box<dyn Fn(u64) -> TrialMetrics + Send + Sync>,
}

/// A named collection of [`GridCell`]s to sweep.
pub struct ScenarioGrid {
    name: String,
    cells: Vec<GridCell>,
}

/// Execution options of a grid run, normally parsed from the command line
/// via [`HarnessCli`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Trials per cell (each with its own derived seed).
    pub trials: usize,
    /// Worker threads; clamped to at least 1. Only affects wall-clock time.
    pub threads: usize,
    /// Base seed all per-trial seeds are derived from.
    pub seed: u64,
}

impl ScenarioGrid {
    /// Creates an empty grid.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioGrid {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// The grid's name (used as the JSON `grid` field).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns the grid under a different name (used by presets that derive
    /// their cells from another grid builder).
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds a cell. `run` receives the trial's derived seed and returns the
    /// trial's metrics; it must be deterministic in that seed.
    pub fn push_cell(
        &mut self,
        label: impl Into<String>,
        params: Vec<(String, String)>,
        run: impl Fn(u64) -> TrialMetrics + Send + Sync + 'static,
    ) {
        self.cells.push(GridCell {
            label: label.into(),
            params,
            run: Box::new(run),
        });
    }

    /// Runs `trials` trials of every cell across `threads` workers and
    /// aggregates the metrics.
    ///
    /// This is a thin wrapper over the reusable
    /// [`scheduler`] pipeline — [`plan_trials`]
    /// (stateless seeding), [`run_jobs`] (order-independent worker pool)
    /// and [`assemble_report`] (deterministic aggregation) — shared with
    /// the `dimmerd` daemon, so reports stay byte-identical for any
    /// `threads` no matter who runs the grid.
    ///
    /// [`plan_trials`]: crate::scheduler::plan_trials
    /// [`run_jobs`]: crate::scheduler::run_jobs
    /// [`assemble_report`]: crate::scheduler::assemble_report
    ///
    /// # Panics
    ///
    /// Panics if `opts.trials == 0`, if a trial closure panics, or if the
    /// trials of one cell disagree on their metric names.
    pub fn run(&self, opts: &RunOptions) -> GridReport {
        assert!(opts.trials > 0, "need at least one trial per cell");
        let plan = scheduler::plan_trials(self.cells.len(), opts.trials, opts.seed);
        let results = scheduler::run_jobs(plan.len(), opts.threads, |i| {
            (self.cells[plan[i].cell].run)(plan[i].seed)
        });
        scheduler::assemble_report(&self.name, opts, &self.cells, &results)
    }
}

/// The command-line options shared by every experiment binary — the **one
/// CLI surface** of the `exp_*` family.
///
/// All `exp_*` binaries accept `--protocols a,b,c`, `--trials N`,
/// `--threads N`, `--seed S`, `--json PATH` and `--quick` in addition to
/// their binary-specific flags. Protocol selections pass the same resolver
/// as the `dimmerd` daemon's (see
/// [`select_protocols`](Self::select_protocols)). Binary-specific flags go
/// through the same parsed argument list via [`value`](Self::value) /
/// [`has`](Self::has), so no binary touches `std::env::args` directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessCli {
    /// Trials per cell (`--trials`); `None` if the flag was absent so the
    /// binary can pick its grid's default.
    pub trials: Option<usize>,
    /// Worker threads (`--threads`); defaults to the host's available
    /// parallelism.
    pub threads: usize,
    /// Base seed (`--seed`); `None` if the flag was absent so the binary
    /// can pick its grid's default.
    pub seed: Option<u64>,
    /// Optional JSON report path (`--json`).
    pub json: Option<std::path::PathBuf>,
    /// Whether `--quick` was passed (roughly 10x shorter runs).
    pub quick: bool,
    /// Comma-separated registry protocol names (`--protocols`); `None` if
    /// the flag was absent so the binary runs its default set.
    pub protocols: Option<Vec<String>>,
    /// The raw argument list (binary name excluded), backing
    /// [`value`](Self::value) / [`has`](Self::has) lookups of
    /// binary-specific flags.
    args: Vec<String>,
}

impl HarnessCli {
    /// Parses the shared flags from `std::env::args`.
    ///
    /// Exits the process with status 2 on malformed numeric flags or a
    /// value flag with no value, matching the binaries' existing error
    /// style.
    pub fn parse() -> HarnessCli {
        // lint: allow(D003) -- the one sanctioned ambient read: the CLI entry point; every flag is threaded explicitly from here
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// The one flag-value lookup both the constructor and
    /// [`value`](Self::value) share: the argument following `--flag`.
    ///
    /// A successor that is itself a `--flag` does not count as a value, so
    /// `--json --quick` reads as "`--json` missing its value", not as a
    /// report written to a file literally named `--quick`.
    fn lookup(args: &[String], flag: &str) -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .filter(|v| !v.starts_with("--"))
            .cloned()
    }

    /// [`parse`](Self::parse) over an explicit argument list (testable
    /// form; `args` excludes the binary name). Exits the process with
    /// status 2 on malformed input, like [`parse`](Self::parse).
    pub fn parse_from(args: Vec<String>) -> HarnessCli {
        Self::parse_from_checked(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`parse_from`](Self::parse_from) that reports malformed input as an
    /// error instead of exiting — the form non-CLI callers (the `dimmerd`
    /// daemon, tests) use so malformed requests fail loudly without
    /// killing the host process.
    ///
    /// Rejects, among others, **duplicate occurrences of the same flag**:
    /// `--seed 1 --seed 2` used to silently resolve to the first
    /// occurrence, which hid client mistakes; now every repeated `--flag`
    /// (shared or binary-specific) is an error.
    pub fn parse_from_checked(args: Vec<String>) -> Result<HarnessCli, String> {
        for (i, a) in args.iter().enumerate() {
            if a.starts_with("--") && args[..i].contains(a) {
                return Err(format!("{a} passed more than once"));
            }
        }
        let value = |flag: &str| Self::lookup(&args, flag);
        for flag in ["--trials", "--threads", "--seed", "--json", "--protocols"] {
            if args.iter().any(|a| a == flag) && value(flag).is_none() {
                return Err(format!("{flag} expects a value"));
            }
        }
        let parse_num = |flag: &str| -> Result<Option<u64>, String> {
            value(flag)
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("{flag} expects a non-negative integer, got '{v}'"))
                })
                .transpose()
        };
        let trials = parse_num("--trials")?
            .map(|t| {
                if t == 0 {
                    return Err("--trials must be at least 1".to_string());
                }
                Ok(t as usize)
            })
            .transpose()?;
        let threads = parse_num("--threads")?
            .map(|t| (t as usize).max(1))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let protocols = value("--protocols")
            .map(|v| {
                let list: Vec<String> = v
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
                if list.is_empty() {
                    return Err("--protocols expects a comma-separated list of names".to_string());
                }
                Ok(list)
            })
            .transpose()?;
        Ok(HarnessCli {
            trials,
            threads,
            seed: parse_num("--seed")?,
            json: value("--json").map(std::path::PathBuf::from),
            quick: args.iter().any(|a| a == "--quick"),
            protocols,
            args,
        })
    }

    /// The value following a binary-specific `--flag`, if present (e.g.
    /// `--part` of `exp_fig4b`, `--scenario` of `exp_dynamics`).
    pub fn value(&self, flag: &str) -> Option<String> {
        Self::lookup(&self.args, flag)
    }

    /// Like [`value`](Self::value), but a `--flag` passed *without* a value
    /// exits the process with status 2 instead of quietly reading as
    /// absent; a flag not passed at all still yields `None` so the binary
    /// can apply its default.
    pub fn value_required(&self, flag: &str) -> Option<String> {
        let v = self.value(flag);
        if v.is_none() && self.has(flag) {
            eprintln!("error: {flag} expects a value");
            std::process::exit(2);
        }
        v
    }

    /// Whether a bare `--flag` was passed.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// Resolves `--protocols` for grid `grid` with protocol axis `axis`
    /// through [`resolve_protocols`], the rule `dimmerd` applies to
    /// `spec.protocols` too: the axis default when the flag is absent, and
    /// nothing on a grid without a protocol axis.
    ///
    /// Exits the process with status 2 on a selection the resolver refuses.
    pub fn select_protocols(&self, grid: &str, axis: Option<ProtocolAxis>) -> Vec<String> {
        resolve_protocols(grid, axis, self.protocols.as_deref())
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            })
            .unwrap_or_default()
    }

    /// Builds [`RunOptions`] from the parsed flags, substituting
    /// `default_trials` and `default_seed` for an absent `--trials` and
    /// `--seed`.
    pub fn run_options(&self, default_trials: usize, default_seed: u64) -> RunOptions {
        RunOptions {
            trials: self.trials.unwrap_or(default_trials.max(1)),
            threads: self.threads,
            seed: self.seed.unwrap_or(default_seed),
        }
    }

    /// Writes `report` to the `--json` path if one was given, printing the
    /// destination; exits with status 1 on I/O errors.
    pub fn emit_json(&self, report: &GridReport) {
        if let Some(path) = &self.json {
            if let Err(e) = report.write_json(path) {
                eprintln!("error: failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("json report written to {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmer_sim::SimRng;

    fn demo_grid() -> ScenarioGrid {
        let mut grid = ScenarioGrid::new("demo");
        for cell in 0..3u64 {
            grid.push_cell(
                format!("cell{cell}"),
                vec![("cell".into(), cell.to_string())],
                move |seed| {
                    // Deterministic in the seed, distinct per cell.
                    let mut rng = SimRng::seed_from(seed);
                    TrialMetrics::new()
                        .with("value", rng.gen_probability() + cell as f64)
                        .with("constant", 1.5)
                },
            );
        }
        grid
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let grid = demo_grid();
        let base = grid.run(&RunOptions {
            trials: 5,
            threads: 1,
            seed: 42,
        });
        for threads in [2, 4, 8] {
            let parallel = grid.run(&RunOptions {
                trials: 5,
                threads,
                seed: 42,
            });
            assert_eq!(base, parallel, "threads={threads} must be bit-identical");
            assert_eq!(base.to_json(), parallel.to_json());
        }
    }

    #[test]
    fn seeds_vary_per_cell_and_trial() {
        let grid = demo_grid();
        let report = grid.run(&RunOptions {
            trials: 4,
            threads: 2,
            seed: 7,
        });
        // Different trials of the same cell see different seeds, so the
        // stochastic metric has spread while the constant one does not.
        for cell in &report.cells {
            assert!(cell.metric("value").unwrap().stddev > 0.0);
            assert_eq!(cell.metric("constant").unwrap().stddev, 0.0);
        }
        // Different base seeds give different results.
        let other = grid.run(&RunOptions {
            trials: 4,
            threads: 2,
            seed: 8,
        });
        assert_ne!(report, other);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let mut grid = ScenarioGrid::new("tiny");
        grid.push_cell("only", vec![], |seed| {
            TrialMetrics::new().with("seed", seed as f64)
        });
        let report = grid.run(&RunOptions {
            trials: 1,
            threads: 64,
            seed: 0,
        });
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].trials, 1);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_is_rejected() {
        demo_grid().run(&RunOptions {
            trials: 0,
            threads: 1,
            seed: 0,
        });
    }

    fn cli(args: &[&str]) -> HarnessCli {
        HarnessCli::parse_from(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn parse_from_reads_shared_and_binary_specific_flags() {
        let c = cli(&[
            "--trials",
            "4",
            "--threads",
            "2",
            "--quick",
            "--protocols",
            "static,pid",
            "--scenario",
            "churn-storm",
            "--json",
            "out.json",
        ]);
        assert_eq!(c.trials, Some(4));
        assert_eq!(c.threads, 2);
        assert_eq!(c.seed, None, "no --seed given");
        assert!(c.quick);
        assert_eq!(
            c.protocols,
            Some(vec!["static".to_string(), "pid".to_string()])
        );
        assert_eq!(c.value("--scenario").as_deref(), Some("churn-storm"));
        assert_eq!(c.value("--part"), None);
        assert!(c.has("--quick"));
        assert!(!c.has("--part"));
        assert_eq!(c.json.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn flag_successor_is_not_a_value() {
        // `--json --quick` must not treat `--quick` as the report path.
        let c = cli(&["--scenario", "--quick"]);
        assert_eq!(c.value("--scenario"), None);
        assert!(c.has("--quick"));
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let checked = |args: &[&str]| {
            HarnessCli::parse_from_checked(args.iter().map(|a| a.to_string()).collect())
        };
        // Shared value flag repeated: used to silently resolve to the
        // first occurrence.
        let err = checked(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("more than once"), "{err}");
        // Binary-specific value flag repeated.
        assert!(checked(&["--part", "nodes", "--part", "history"]).is_err());
        // Repeated bare flags are duplicates too.
        assert!(checked(&["--quick", "--quick"]).is_err());
        // Distinct flags — including a value that is not a flag — are fine.
        let ok = checked(&["--seed", "1", "--trials", "2", "--part", "nodes"]).unwrap();
        assert_eq!(ok.seed, Some(1));
        assert_eq!(ok.trials, Some(2));
        // Malformed numerics surface as errors, not exits.
        assert!(checked(&["--trials", "zero"]).is_err());
        assert!(checked(&["--trials", "0"]).is_err());
        assert!(checked(&["--json"]).is_err());
    }

    #[test]
    fn parse_from_defaults_without_flags() {
        let c = cli(&[]);
        assert_eq!(c.trials, None);
        assert!(!c.quick);
        assert_eq!(c.protocols, None);
        assert_eq!(c.seed, None);
        assert!(c.threads >= 1);
        assert_eq!(c.run_options(3, 77).trials, 3);
        assert_eq!(c.run_options(3, 77).seed, 77);
        assert_eq!(cli(&["--seed", "5"]).run_options(3, 77).seed, 5);
    }

    #[test]
    fn grid_len_and_name() {
        let grid = demo_grid();
        assert_eq!(grid.name(), "demo");
        assert_eq!(grid.len(), 3);
        assert!(!grid.is_empty());
        assert!(ScenarioGrid::new("empty").is_empty());
    }
}
