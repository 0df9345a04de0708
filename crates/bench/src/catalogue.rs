//! The one catalogue of experiment grids.
//!
//! Every grid family has exactly one entry here, and it is the only place
//! the family's defaults live: the default seed, quick and full trials,
//! quick and full round (or flood) counts, the protocol axis, the notes
//! printed under its table and the call into the grid builder. The
//! `exp <grid>` binary and `dimmerd` both run a grid through its entry, so
//! a served report equals `exp`'s `--json` report.
//!
//! [`lookup`] turns a grid name (`fig5`, `fig4b:nodes`,
//! `dynamics:churn-storm`, `train:calm`, …) into a [`Grid`].
//! [`Grid::resolve_protocols`] is the one rule every protocol selection
//! passes, whether it arrives as `--protocols` or as the daemon's
//! `spec.protocols`: names of [`PROTOCOLS`] within the grid's axis. Every
//! axis lies inside [`PROTOCOLS`], which a unit test checks.
//!
//! # Examples
//!
//! ```
//! use dimmer_bench::catalogue::lookup;
//!
//! let fig5 = lookup("fig5").unwrap();
//! assert_eq!((fig5.seed(), fig5.trials(true), fig5.trials(false)), (100, 1, 3));
//! let protocols = fig5.resolve_protocols(None).unwrap().unwrap();
//! assert_eq!(protocols, ["static", "dimmer-dqn", "pid"]);
//! // A grid without a protocol axis refuses any selection.
//! let city = lookup("city").unwrap();
//! assert!(city.resolve_protocols(Some(&["static".to_string()])).is_err());
//! ```

use std::sync::Arc;

use dimmer_baselines::PROTOCOLS;
use dimmer_core::DimmerConfig;

use crate::experiments::{
    city_scale_grid_from_worlds_threaded, city_worlds, dynamics_grid, fig4b_grid, fig4c_grid,
    fig5_grid, fig5_seed_sweep_grid, fig6_grid, fig7_grid, grid10k_scale_grid, table1_grid,
    topology_size_grid, CachedRun, CityWorld, DCUBE_PROTOCOLS, DYNAMICS_PROTOCOLS,
    DYNAMICS_SUPPORTED, FIG4C_PROTOCOLS, TESTBED_PROTOCOLS,
};
use crate::harness::ScenarioGrid;
use crate::scenarios::{dimmer_policy, DYNAMIC_SCENARIOS};
use crate::training::{train_grid, TRAIN_FAMILIES};

/// The Fig. 5 jamming duty-cycle sweep.
const FIG5_LEVELS: [f64; 8] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35];

/// The square grid sides of the `topology-size` sweep (3x3 up to 6x6).
const TOPOLOGY_SIDES: [usize; 4] = [3, 4, 5, 6];

/// The training rollout width when the caller picks none; training output
/// is byte-identical for any width.
pub const TRAIN_ENVS: usize = 4;

/// A count at `--quick` scale and at full scale, in that order.
#[derive(Debug, Clone, Copy)]
struct Scale(usize, usize);

impl Scale {
    fn at(self, quick: bool) -> usize {
        if quick {
            self.0
        } else {
            self.1
        }
    }
}

/// The protocols a grid compares.
#[derive(Debug, Clone, Copy)]
struct ProtocolAxis {
    /// What runs when the caller selects nothing, in presentation order.
    default: &'static [&'static str],
    /// Every protocol the grid is defined for.
    supported: &'static [&'static str],
}

impl ProtocolAxis {
    /// An axis that runs everything it supports by default.
    const fn all(protocols: &'static [&'static str]) -> Self {
        ProtocolAxis {
            default: protocols,
            supported: protocols,
        }
    }
}

/// The parameter of a family such as `dynamics:<preset>`: its served-name
/// prefix, what it names (for error messages) and every accepted value.
#[derive(Debug, Clone, Copy)]
struct Variants {
    prefix: &'static str,
    kind: &'static str,
    names: &'static [&'static str],
}

/// One grid family with the defaults every caller shares.
#[derive(Debug)]
struct GridEntry {
    /// The grid name; a parameterised family reads `fig4b:<part>`,
    /// `dynamics:<preset>` or `train:<family>`.
    name: &'static str,
    variants: Option<Variants>,
    seed: u64,
    trials: Scale,
    /// LWB rounds per trial (trace rounds for `fig4b`, floods per world for
    /// `city` and `grid10k`); zero for grids that take no count.
    rounds: Scale,
    protocols: Option<ProtocolAxis>,
    /// What the paper reports, or the shape to expect, printed under the
    /// grid's table.
    notes: &'static [&'static str],
    build: fn(Build<'_>) -> ScenarioGrid,
}

/// One call into a grid builder.
struct Build<'a> {
    variant: &'static str,
    quick: bool,
    rounds: usize,
    protocols: &'a [String],
    extras: Extras<'a>,
}

/// What a caller may hand a grid builder besides scale and protocols.
pub struct Extras<'a> {
    /// Already-simulated runs keyed by trial seed (see [`CachedRun`]);
    /// `fig4c`, `fig6` and `dynamics:<preset>` cells reuse the run whose
    /// seed equals their own.
    pub cache: Option<CachedRun>,
    /// Where `city` takes its worlds from, such as the daemon's warm
    /// cache; `None` builds them.
    pub worlds: Option<&'a mut dyn FnMut() -> Vec<Arc<CityWorld>>>,
    /// Workers each `city` or `grid10k` trial fans its floods across
    /// (never changes a report).
    pub batch_threads: usize,
    /// Rollout width of `train:<family>` (never changes a report).
    pub envs: usize,
}

impl Default for Extras<'_> {
    fn default() -> Self {
        Extras {
            cache: None,
            worlds: None,
            batch_threads: 1,
            envs: TRAIN_ENVS,
        }
    }
}

/// Every grid family, in documentation order.
static CATALOGUE: [GridEntry; 12] = [
    GridEntry {
        name: "table1",
        variants: None,
        seed: 1,
        trials: Scale(1, 1),
        rounds: Scale(0, 0),
        protocols: None,
        notes: &["(paper: ~2.1 kB flash and ~400 B RAM for the 31-30-3 network)"],
        build: |_| table1_grid(&DimmerConfig::default()),
    },
    GridEntry {
        name: "fig4b:<part>",
        variants: Some(Variants {
            prefix: "fig4b:",
            kind: "fig4b part",
            names: &["nodes", "history", "both"],
        }),
        seed: 1000,
        trials: Scale(1, 3),
        // Rounds of the one shared training trace.
        rounds: Scale(60, 160),
        // Every cell trains Dimmer's DQN; the cells sweep its inputs.
        protocols: None,
        notes: &[
            "(paper: K = 1..5 wastes energy, K = 18 overfits, K = 10 minimizes radio-on time;",
            " no history 98.5% vs 99% with history, more than 2 entries adds little)",
        ],
        build: |b| fig4b_grid(b.rounds, Scale(4_000, 20_000).at(b.quick), 40, b.variant),
    },
    GridEntry {
        name: "fig4c",
        variants: None,
        seed: 7,
        trials: Scale(1, 1),
        // 14 and 27 minutes of 4-second rounds.
        rounds: Scale(210, 405),
        protocols: Some(ProtocolAxis::all(&FIG4C_PROTOCOLS)),
        notes: &["(paper: 99.3% reliability for both; radio-on Dimmer 12.3 ms, PID 14.4 ms)"],
        build: |b| {
            fig4c_grid(
                dimmer_policy(b.quick),
                b.rounds,
                b.protocols,
                b.extras.cache,
            )
        },
    },
    GridEntry {
        name: "fig5",
        variants: None,
        seed: 100,
        trials: Scale(1, 3),
        rounds: Scale(60, 200),
        protocols: Some(ProtocolAxis::all(&TESTBED_PROTOCOLS)),
        notes: &[
            "expected shape (paper): all protocols degrade with interference; Dimmer & PID stay",
            "above LWB in reliability; the PID's radio-on time saturates towards 20 ms faster than",
            "Dimmer's at low/moderate interference; LWB never uses the full slot on average.",
        ],
        build: |b| fig5_grid(dimmer_policy(b.quick), b.rounds, &FIG5_LEVELS, b.protocols),
    },
    GridEntry {
        name: "fig5-seeds",
        variants: None,
        seed: 500,
        trials: Scale(16, 16),
        rounds: Scale(40, 120),
        protocols: Some(ProtocolAxis::all(&TESTBED_PROTOCOLS)),
        notes: &[],
        build: |b| fig5_seed_sweep_grid(dimmer_policy(b.quick), b.rounds, b.protocols),
    },
    GridEntry {
        name: "fig6",
        variants: None,
        seed: 3,
        trials: Scale(1, 1),
        // 5 hours of 4-second rounds in the paper's run.
        rounds: Scale(900, 4500),
        // Rule-based Dimmer only: the figure compares forwarder selection
        // on and off, not protocols.
        protocols: None,
        notes: &[
            "(paper: 99.9% reliability; 9.55 ms with vs 11.04 ms without forwarder selection,",
            " active forwarders dropping towards ~14 of 18)",
        ],
        build: |b| fig6_grid(b.rounds, b.extras.cache),
    },
    GridEntry {
        name: "fig7",
        variants: None,
        seed: 300,
        trials: Scale(1, 3),
        // Paper: ten 10-minute experiments with 1-second rounds per cell.
        rounds: Scale(200, 600),
        protocols: Some(ProtocolAxis::all(&DCUBE_PROTOCOLS)),
        notes: &[
            "expected shape (paper): LWB collapses under WiFi level 2 (~27%), Dimmer stays above",
            "95%, Crystal around 99-100%; Dimmer's energy approaches Crystal's under interference.",
        ],
        build: |b| fig7_grid(dimmer_policy(b.quick), b.rounds, b.protocols),
    },
    GridEntry {
        name: "topology-size",
        variants: None,
        seed: 500,
        trials: Scale(8, 8),
        rounds: Scale(40, 120),
        protocols: Some(ProtocolAxis {
            default: &["static", "dimmer-rule"],
            supported: &["static", "dimmer-rule", "pid"],
        }),
        notes: &[],
        build: |b| topology_size_grid(b.rounds, &TOPOLOGY_SIDES, b.protocols),
    },
    GridEntry {
        name: "dynamics:<preset>",
        variants: Some(Variants {
            prefix: "dynamics:",
            kind: "dynamics preset",
            names: &DYNAMIC_SCENARIOS,
        }),
        seed: 11,
        trials: Scale(1, 1),
        rounds: Scale(60, 200),
        // The default stays the set whose reports are golden-tested;
        // `dimmer-zoo` is opt-in.
        protocols: Some(ProtocolAxis {
            default: &DYNAMICS_PROTOCOLS,
            supported: &DYNAMICS_SUPPORTED,
        }),
        notes: &[],
        build: |b| {
            dynamics_grid(
                dimmer_policy(b.quick),
                b.rounds,
                b.variant,
                b.protocols,
                b.extras.cache,
            )
        },
    },
    GridEntry {
        name: "train:<family>",
        variants: Some(Variants {
            prefix: "train:",
            kind: "training family",
            names: &TRAIN_FAMILIES,
        }),
        seed: 42,
        trials: Scale(1, 1),
        rounds: Scale(0, 0),
        // What a training grid produces is a policy, not a comparison.
        protocols: None,
        notes: &[],
        build: |b| train_grid(b.variant, b.quick, b.extras.envs),
    },
    GridEntry {
        name: "city",
        variants: None,
        seed: 500,
        trials: Scale(4, 4),
        rounds: Scale(8, 24),
        // The cells compare worlds, not protocols.
        protocols: None,
        notes: &[],
        build: |b| {
            let worlds = match b.extras.worlds {
                Some(source) => source(),
                None => city_worlds().into_iter().map(Arc::new).collect(),
            };
            city_scale_grid_from_worlds_threaded(b.rounds, worlds, b.extras.batch_threads)
        },
    },
    GridEntry {
        name: "grid10k",
        variants: None,
        seed: 500,
        trials: Scale(2, 2),
        rounds: Scale(6, 32),
        protocols: None,
        notes: &[],
        build: |b| grid10k_scale_grid(b.rounds, b.extras.batch_threads),
    },
];

/// A grid name resolved against the catalogue.
#[derive(Debug)]
pub struct Grid {
    entry: &'static GridEntry,
    name: String,
    variant: &'static str,
}

/// Resolves a grid name: a plain family such as `fig5`, or a
/// parameterised one such as `fig4b:nodes`, `dynamics:churn-storm` or
/// `train:calm`.
pub fn lookup(name: &str) -> Result<Grid, String> {
    for entry in &CATALOGUE {
        let variant = match entry.variants {
            None if entry.name == name => "",
            None => continue,
            Some(v) => match name.strip_prefix(v.prefix) {
                None => continue,
                Some(wanted) => {
                    v.names
                        .iter()
                        .copied()
                        .find(|n| *n == wanted)
                        .ok_or_else(|| {
                            format!(
                                "unknown {} '{wanted}' (catalogue: {})",
                                v.kind,
                                v.names.join(", ")
                            )
                        })?
                }
            },
        };
        return Ok(Grid {
            entry,
            name: name.to_string(),
            variant,
        });
    }
    let names: Vec<&str> = CATALOGUE.iter().map(|e| e.name).collect();
    Err(format!(
        "unknown grid '{name}' (grids: {})",
        names.join(", ")
    ))
}

impl Grid {
    /// The grid name, e.g. `dynamics:churn-storm`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter of a parameterised family (`churn-storm` of
    /// `dynamics:churn-storm`); empty for a plain family.
    pub fn variant(&self) -> &'static str {
        self.variant
    }

    /// The default base seed.
    pub fn seed(&self) -> u64 {
        self.entry.seed
    }

    /// The default trials per cell at `quick` or full scale.
    pub fn trials(&self, quick: bool) -> usize {
        self.entry.trials.at(quick)
    }

    /// LWB rounds per trial (trace rounds for `fig4b`, floods per world
    /// for `city` and `grid10k`) at `quick` or full scale; zero for grids
    /// that take no count.
    pub fn rounds(&self, quick: bool) -> usize {
        self.entry.rounds.at(quick)
    }

    /// What the paper reports, or the shape to expect, printed under the
    /// grid's table.
    pub fn notes(&self) -> &'static [&'static str] {
        self.entry.notes
    }

    /// Resolves a protocol selection for this grid: `None` picks the axis
    /// default. A selection must be non-empty and name only protocols of
    /// [`PROTOCOLS`] the grid supports, each once. A grid without a protocol
    /// axis accepts no selection and resolves to `None`.
    pub fn resolve_protocols(
        &self,
        requested: Option<&[String]>,
    ) -> Result<Option<Vec<String>>, String> {
        let grid = &self.name;
        let (axis, requested) = match (self.entry.protocols, requested) {
            (None, None) => return Ok(None),
            (None, Some(_)) => {
                return Err(format!(
                    "grid '{grid}' has no protocol axis; select no protocols"
                ))
            }
            (Some(axis), None) => {
                return Ok(Some(axis.default.iter().map(|p| p.to_string()).collect()))
            }
            (Some(axis), Some(requested)) => (axis, requested),
        };
        if requested.is_empty() {
            return Err(format!("grid '{grid}' needs at least one protocol"));
        }
        for (i, name) in requested.iter().enumerate() {
            if !PROTOCOLS.contains(&name.as_str()) {
                return Err(format!(
                    "unknown protocol '{name}' (registry: {})",
                    PROTOCOLS.join(", ")
                ));
            }
            if !axis.supported.contains(&name.as_str()) {
                return Err(format!(
                    "protocol '{name}' is not supported by grid '{grid}' (supported: {})",
                    axis.supported.join(", ")
                ));
            }
            if requested[..i].contains(name) {
                return Err(format!("protocol '{name}' is selected more than once"));
            }
        }
        Ok(Some(requested.to_vec()))
    }

    /// Builds the grid at `quick` or full scale over the resolved
    /// `protocols` (empty on a grid without a protocol axis). Building
    /// simulates nothing; only `city` calls `extras.worlds`.
    pub fn build<'a>(
        &self,
        quick: bool,
        protocols: &'a [String],
        extras: Extras<'a>,
    ) -> ScenarioGrid {
        (self.entry.build)(Build {
            variant: self.variant,
            quick,
            rounds: self.rounds(quick),
            protocols,
            extras,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(protocols: &[&str]) -> Vec<String> {
        protocols.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn binary_defaults_are_mirrored() {
        let fig5 = lookup("fig5").unwrap();
        assert_eq!(fig5.trials(false), 3);
        assert_eq!(fig5.seed(), 100);
        assert_eq!(fig5.trials(true), 1);
        let sweep = lookup("fig5-seeds").unwrap();
        assert_eq!(sweep.trials(false), 16);
        assert_eq!(sweep.seed(), 500);
        let city = lookup("city").unwrap();
        assert_eq!(city.trials(false), 4);
        let dynamics = lookup("dynamics:churn-storm").unwrap();
        assert_eq!(dynamics.seed(), 11);
        let train = lookup("train:calm").unwrap();
        assert_eq!(train.seed(), 42);
        assert_eq!(train.trials(false), 1);
        let defaults = |g: &Grid| {
            (
                g.seed(),
                g.trials(true),
                g.trials(false),
                g.rounds(true),
                g.rounds(false),
            )
        };
        for part in ["nodes", "history", "both"] {
            let fig4b = lookup(&format!("fig4b:{part}")).unwrap();
            assert_eq!(defaults(&fig4b), (1000, 1, 3, 60, 160), "{part}");
            assert_eq!(fig4b.variant(), part);
        }
        let fig4c = lookup("fig4c").unwrap();
        // 14 and 27 minutes of 4-second rounds.
        assert_eq!(defaults(&fig4c), (7, 1, 1, 210, 405));
        assert_eq!(
            fig4c.resolve_protocols(None),
            Ok(Some(names(&["dimmer-dqn", "pid"])))
        );
        let grid10k = lookup("grid10k").unwrap();
        assert_eq!(defaults(&grid10k), (500, 2, 2, 6, 32));
    }

    #[test]
    fn every_grid_name_resolves_and_builds() {
        let mut all = names(&[
            "table1",
            "fig4c",
            "fig5",
            "fig5-seeds",
            "fig6",
            "fig7",
            "topology-size",
            "city",
            "grid10k",
        ]);
        let families = [
            ("fig4b:", &["nodes", "history", "both"][..]),
            ("dynamics:", &DYNAMIC_SCENARIOS[..]),
            ("train:", &TRAIN_FAMILIES[..]),
        ];
        for (prefix, variants) in families {
            all.extend(variants.iter().map(|v| format!("{prefix}{v}")));
        }
        assert_eq!(all.len(), 20);
        let mut no_worlds = Vec::new;
        for name in &all {
            let grid = lookup(name).unwrap();
            let protocols = grid.resolve_protocols(None).unwrap().unwrap_or_default();
            let extras = Extras {
                worlds: Some(&mut no_worlds),
                ..Extras::default()
            };
            let built = grid.build(true, &protocols, extras);
            // `city` takes its worlds from `extras.worlds`, here none.
            assert_eq!(built.is_empty(), name == "city", "{name}");
        }
    }

    #[test]
    fn parameterised_families_need_a_known_variant() {
        assert!(lookup("fig4b").unwrap_err().contains("unknown grid"));
        assert!(lookup("fig4b:")
            .unwrap_err()
            .contains("unknown fig4b part ''"));
        assert!(lookup("fig4b:edges")
            .unwrap_err()
            .contains("nodes, history, both"));
    }

    #[test]
    fn selections_on_grids_without_a_protocol_axis_are_refused() {
        for grid in ["table1", "fig4b:both", "fig6", "city", "grid10k"] {
            let grid = lookup(grid).unwrap();
            assert_eq!(grid.resolve_protocols(None), Ok(None), "{}", grid.name());
            let err = grid
                .resolve_protocols(Some(&names(&["static"])))
                .unwrap_err();
            assert!(err.contains("no protocol axis"), "{}: {err}", grid.name());
        }
    }

    #[test]
    fn selections_are_checked_against_the_registry_support_and_repeats() {
        let fig5 = lookup("fig5").unwrap();
        let refused =
            |selection: &[&str]| fig5.resolve_protocols(Some(&names(selection))).unwrap_err();
        assert!(refused(&[]).contains("at least one"));
        assert!(refused(&["carrier-pigeon"]).contains("unknown protocol"));
        assert!(refused(&["crystal"]).contains("not supported"));
        assert!(refused(&["static", "static"]).contains("more than once"));
        let picked = names(&["pid", "static"]);
        assert_eq!(
            fig5.resolve_protocols(Some(&picked)),
            Ok(Some(picked.clone()))
        );
    }

    #[test]
    fn unknown_protocols_are_refused_with_the_whole_list() {
        // `exp` and `dimmerd` pass this text on unchanged; it names every
        // entry of `PROTOCOLS` in order.
        let grid = lookup("dynamics:churn-storm").unwrap();
        assert_eq!(
            grid.resolve_protocols(Some(&names(&["pid", "Dimmer-Zoo"]))),
            Err(
                "unknown protocol 'Dimmer-Zoo' (registry: dimmer-dqn, dimmer-rule, pid, \
                 static, crystal, dimmer-zoo)"
                    .to_string()
            )
        );
    }

    #[test]
    fn every_protocol_axis_lies_inside_protocols() {
        let no_repeats = |list: &[&str]| (0..list.len()).all(|i| !list[..i].contains(&list[i]));
        for entry in &CATALOGUE {
            let Some(axis) = entry.protocols else {
                continue;
            };
            let name = entry.name;
            assert!(!axis.default.is_empty(), "{name}: empty default");
            assert!(
                axis.default.iter().all(|p| axis.supported.contains(p)),
                "{name}: default {:?} outside supported {:?}",
                axis.default,
                axis.supported
            );
            assert!(
                axis.supported.iter().all(|p| PROTOCOLS.contains(p)),
                "{name}: supported {:?} outside PROTOCOLS",
                axis.supported
            );
            assert!(no_repeats(axis.default), "{name}: repeated default");
            assert!(no_repeats(axis.supported), "{name}: repeated supported");
        }
    }

    #[test]
    fn dynamics_defaults_to_the_pinned_set_and_accepts_the_zoo() {
        let grid = lookup("dynamics:flash-crowd").unwrap();
        assert_eq!(
            grid.resolve_protocols(None),
            Ok(Some(names(&DYNAMICS_PROTOCOLS)))
        );
        let zoo = names(&["dimmer-zoo"]);
        assert_eq!(grid.resolve_protocols(Some(&zoo)), Ok(Some(zoo.clone())));
    }
}
