//! The parallel multi-trial experiment engine.
//!
//! The paper's headline results are *distributions* over many seeds and
//! interference scenarios, so every experiment grid drives its scenario
//! through this engine instead of a hand-rolled single-trial loop:
//!
//! 1. Describe the scenario space as a [`ScenarioGrid`] — one [`GridCell`]
//!    per parameter combination (policy × interference × topology ×
//!    traffic), each holding a closure that runs *one* trial from a seed.
//! 2. Call [`ScenarioGrid::run`] with [`RunOptions`] (`--trials`,
//!    `--threads`, `--seed`). The engine fans the `cells × trials` jobs out
//!    across `--threads` threads, the calling thread among them.
//! 3. Get back a [`GridReport`] with per-cell mean / stddev / 95 % CI per
//!    metric, printable as a table or serializable to JSON.
//!
//! # Determinism
//!
//! Each trial's seed is derived statelessly from
//! `(base seed, cell index, trial index)` via [`SimRng::derive_seed`](dimmer_sim::SimRng::derive_seed), and
//! the workspace's one worker pool hands the results back in job order, so
//! the aggregated report is **bit-identical regardless of the number of
//! worker threads** or how the OS schedules them. `--threads` only changes
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

use crate::catalogue::Grid;
use crate::report::{Aggregate, CellReport, GridReport};
use dimmer_sim::{workqueue, SimRng};

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

impl GridCell {
    /// Folds the metric samples of this cell's trials into a [`CellReport`].
    ///
    /// # Panics
    ///
    /// Panics if the trials disagree on their metric names.
    fn aggregate(&self, trials: &[TrialMetrics]) -> CellReport {
        let names = trials[0].entries();
        for t in trials {
            assert_eq!(
                t.entries().len(),
                names.len(),
                "cell '{}': trials must emit identical metric sets",
                self.label
            );
        }
        let metrics = names
            .iter()
            .enumerate()
            .map(|(mi, (name, _))| {
                let samples: Vec<f64> = trials
                    .iter()
                    .map(|t| {
                        let (n, v) = &t.entries()[mi];
                        assert_eq!(
                            n, name,
                            "cell '{}': trials must emit identical metric names",
                            self.label
                        );
                        *v
                    })
                    .collect();
                (name.clone(), Aggregate::from_samples(&samples))
            })
            .collect();
        CellReport {
            label: self.label.clone(),
            params: self.params.clone(),
            trials: trials.len(),
            metrics,
        }
    }
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
    /// Threads that run trials, the calling thread among them, so `1`
    /// spawns none; clamped to at least 1. Only affects wall-clock time.
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

    /// Runs `trials` trials of every cell across `threads` threads, the
    /// calling thread among them, and aggregates the metrics. The `exp` binary and the `dimmerd` daemon
    /// both run grids through here.
    ///
    /// Job `cell * trials + trial` runs with the stateless seed
    /// `SimRng::derive_seed(seed, &[cell, trial])` on the workspace's one
    /// worker pool, [`run_indexed_jobs`], which returns results in job
    /// order; cells are then aggregated in grid order, so the report is
    /// byte-identical for any `threads`.
    ///
    /// [`run_indexed_jobs`]: dimmer_sim::workqueue::run_indexed_jobs
    ///
    /// # Panics
    ///
    /// Panics if `opts.trials == 0`, if a trial closure panics, or if the
    /// trials of one cell disagree on their metric names. A panicking trial
    /// stops the pool: no further trial starts, and the trial's own panic
    /// is re-raised here.
    pub fn run(&self, opts: &RunOptions) -> GridReport {
        assert!(opts.trials > 0, "need at least one trial per cell");
        let jobs = self.cells.len() * opts.trials;
        let run = |_: &mut (), job: usize| {
            let (cell, trial) = (job / opts.trials, job % opts.trials);
            (self.cells[cell].run)(SimRng::derive_seed(opts.seed, &[cell as u64, trial as u64]))
        };
        let results = workqueue::run_indexed_jobs(jobs, opts.threads, || (), run);
        GridReport {
            grid: self.name.clone(),
            seed: opts.seed,
            trials: opts.trials,
            cells: self
                .cells
                .iter()
                .zip(results.chunks(opts.trials))
                .map(|(cell, trials)| cell.aggregate(trials))
                .collect(),
        }
    }
}

/// The command line of the `exp <grid>` binary:
///
/// ```text
/// exp <grid> [--quick] [--trials N] [--threads N] [--seed S]
///     [--protocols a,b,c] [--json PATH]
/// ```
///
/// The grid name comes first and resolves through
/// [`catalogue::lookup`](crate::catalogue::lookup); every flag after it
/// belongs to the shared set above, and anything else is refused. Protocol
/// selections pass the same resolver as the `dimmerd` daemon's (see
/// [`select_protocols`](Self::select_protocols)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessCli {
    /// The catalogue grid name (the first argument).
    pub grid: String,
    /// Trials per cell (`--trials`); `None` if the flag was absent so the
    /// grid's default applies.
    pub trials: Option<usize>,
    /// Threads that run trials (`--threads`), the calling thread among
    /// them; defaults to the host's available parallelism.
    pub threads: usize,
    /// Base seed (`--seed`); `None` if the flag was absent so the grid's
    /// default applies.
    pub seed: Option<u64>,
    /// Optional JSON report path (`--json`).
    pub json: Option<std::path::PathBuf>,
    /// Whether `--quick` was passed (roughly 10x shorter runs).
    pub quick: bool,
    /// Comma-separated `PROTOCOLS` names (`--protocols`); `None` if
    /// the flag was absent so the grid runs its default set.
    pub protocols: Option<Vec<String>>,
}

/// The flags that take a value, in usage order.
const VALUE_FLAGS: [&str; 5] = ["--trials", "--threads", "--seed", "--protocols", "--json"];

/// The usage line printed with every command-line error.
const USAGE: &str = "usage: exp <grid> [--quick] [--trials N] [--threads N] [--seed S] \
                     [--protocols a,b] [--json PATH]";

impl HarnessCli {
    /// Parses `std::env::args`.
    ///
    /// Exits the process with status 2 on any input
    /// [`parse_from_checked`](Self::parse_from_checked) refuses.
    pub fn parse() -> HarnessCli {
        // lint: allow(D003) -- the one sanctioned ambient read: the CLI entry point; every flag is threaded explicitly from here
        let args = std::env::args().skip(1).collect();
        Self::parse_from_checked(args).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list (`args` excludes the binary name),
    /// reporting malformed input as an error.
    ///
    /// Refuses a missing grid name, a flag outside the shared set (so a
    /// typo such as `--trails` fails loudly instead of being ignored), a
    /// flag passed more than once, a value flag without its value (a
    /// following `--flag` does not count as one, so `--json --quick` is not
    /// a report written to a file named `--quick`) and malformed numbers.
    pub fn parse_from_checked(args: Vec<String>) -> Result<HarnessCli, String> {
        let mut args = args.into_iter();
        let grid = match args.next() {
            Some(grid) if !grid.starts_with("--") => grid,
            Some(flag) => return Err(format!("expected a grid name before {flag}")),
            None => return Err("missing grid name".to_string()),
        };
        let mut cli = HarnessCli {
            grid,
            trials: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            seed: None,
            json: None,
            quick: false,
            protocols: None,
        };
        let mut seen: Vec<String> = Vec::new();
        while let Some(flag) = args.next() {
            if seen.contains(&flag) {
                return Err(format!("{flag} passed more than once"));
            }
            seen.push(flag.clone());
            if flag == "--quick" {
                cli.quick = true;
                continue;
            }
            if !VALUE_FLAGS.contains(&flag.as_str()) {
                return Err(format!(
                    "unknown option '{flag}' (options: --quick, {})",
                    VALUE_FLAGS.join(", ")
                ));
            }
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let number = || -> Result<u64, String> {
                value
                    .parse()
                    .map_err(|_| format!("{flag} expects a non-negative integer, got '{value}'"))
            };
            match flag.as_str() {
                "--trials" => match number()? {
                    0 => return Err("--trials must be at least 1".to_string()),
                    t => cli.trials = Some(t as usize),
                },
                "--threads" => cli.threads = (number()? as usize).max(1),
                "--seed" => cli.seed = Some(number()?),
                "--json" => cli.json = Some(value.into()),
                _ => {
                    let list: Vec<String> = value
                        .split(',')
                        .map(|p| p.trim().to_string())
                        .filter(|p| !p.is_empty())
                        .collect();
                    if list.is_empty() {
                        return Err(
                            "--protocols expects a comma-separated list of names".to_string()
                        );
                    }
                    cli.protocols = Some(list);
                }
            }
        }
        Ok(cli)
    }

    /// Resolves `--protocols` for `grid` through
    /// [`Grid::resolve_protocols`], the rule `dimmerd` applies to
    /// `spec.protocols` too: the axis default when the flag is absent, and
    /// nothing on a grid without a protocol axis.
    ///
    /// Exits the process with status 2 on a selection the resolver refuses.
    pub fn select_protocols(&self, grid: &Grid) -> Vec<String> {
        grid.resolve_protocols(self.protocols.as_deref())
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
    fn each_trial_runs_with_the_documented_derived_seed() {
        // Job `cell * trials + trial` gets `derive_seed(base, [cell, trial])`;
        // one worker runs the jobs in that order.
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut grid = ScenarioGrid::new("seeds");
        for cell in 0..3u64 {
            let seen = std::sync::Arc::clone(&seen);
            grid.push_cell(format!("cell{cell}"), vec![], move |seed| {
                seen.lock().unwrap().push((cell, seed));
                TrialMetrics::new().with("one", 1.0)
            });
        }
        grid.run(&RunOptions {
            trials: 2,
            threads: 1,
            seed: 7,
        });
        let expected: Vec<(u64, u64)> = (0..3u64)
            .flat_map(|cell| {
                (0..2u64).map(move |trial| (cell, SimRng::derive_seed(7, &[cell, trial])))
            })
            .collect();
        assert_eq!(*seen.lock().unwrap(), expected);
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

    fn cli(args: &[&str]) -> Result<HarnessCli, String> {
        HarnessCli::parse_from_checked(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn the_grid_name_comes_first_and_the_shared_flags_follow() {
        let c = cli(&[
            "dynamics:churn-storm",
            "--trials",
            "4",
            "--threads",
            "2",
            "--quick",
            "--protocols",
            "static,pid",
            "--json",
            "out.json",
        ])
        .unwrap();
        assert_eq!(c.grid, "dynamics:churn-storm");
        assert_eq!(c.trials, Some(4));
        assert_eq!(c.threads, 2);
        assert_eq!(c.seed, None, "no --seed given");
        assert!(c.quick);
        assert_eq!(
            c.protocols,
            Some(vec!["static".to_string(), "pid".to_string()])
        );
        assert_eq!(c.json.as_deref(), Some(std::path::Path::new("out.json")));
    }

    #[test]
    fn a_missing_grid_name_is_refused() {
        assert!(cli(&[]).unwrap_err().contains("missing grid name"));
        let err = cli(&["--quick", "fig5"]).unwrap_err();
        assert!(err.contains("expected a grid name before --quick"), "{err}");
    }

    #[test]
    fn flags_outside_the_shared_set_are_refused() {
        // The flags of the per-figure binaries `exp` replaced, and a typo.
        for name in ["scenario", "family", "preset", "part", "envs", "trails"] {
            let flag = format!("--{name}");
            let err = cli(&["fig5", &flag, "x"]).unwrap_err();
            assert!(err.contains(&format!("unknown option '{flag}'")), "{err}");
        }
        // A second positional argument is not a flag either.
        assert!(cli(&["fig5", "fig6"])
            .unwrap_err()
            .contains("unknown option"));
    }

    #[test]
    fn flag_successor_is_not_a_value() {
        // `--json --quick` must not treat `--quick` as the report path.
        let err = cli(&["fig5", "--json", "--quick"]).unwrap_err();
        assert!(err.contains("--json expects a value"), "{err}");
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        // Shared value flag repeated: used to silently resolve to the
        // first occurrence.
        let err = cli(&["fig5", "--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        assert!(err.contains("more than once"), "{err}");
        // Repeated bare flags are duplicates too.
        assert!(cli(&["fig5", "--quick", "--quick"]).is_err());
        // Distinct flags — including a value that is not a flag — are fine.
        let ok = cli(&["fig5", "--seed", "1", "--trials", "2"]).unwrap();
        assert_eq!(ok.seed, Some(1));
        assert_eq!(ok.trials, Some(2));
        // Malformed numerics surface as errors, not exits.
        assert!(cli(&["fig5", "--trials", "zero"]).is_err());
        assert!(cli(&["fig5", "--trials", "0"]).is_err());
        assert!(cli(&["fig5", "--json"]).is_err());
        assert!(cli(&["fig5", "--protocols", ","]).is_err());
    }

    #[test]
    fn parse_defaults_without_flags() {
        let c = cli(&["fig5"]).unwrap();
        assert_eq!(c.grid, "fig5");
        assert_eq!(c.trials, None);
        assert!(!c.quick);
        assert_eq!(c.protocols, None);
        assert_eq!(c.seed, None);
        assert!(c.threads >= 1);
        assert_eq!(c.run_options(3, 77).trials, 3);
        assert_eq!(c.run_options(3, 77).seed, 77);
        let seeded = cli(&["fig5", "--seed", "5"]).unwrap();
        assert_eq!(seeded.run_options(3, 77).seed, 5);
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
