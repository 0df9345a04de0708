//! The one catalogue of served experiment grids.
//!
//! Every grid family `dimmerd` serves has exactly one entry here, and the
//! `exp_*` binary that runs the same grid offline reads its defaults from
//! that entry: the default seed, quick and full trials, quick and full
//! round (or flood) counts, the protocol axis and the call into the grid
//! builder. A served report equals the binary's `--json` report because
//! both go through the same entry.
//!
//! [`lookup`] turns a served name (`fig5`, `dynamics:churn-storm`,
//! `train:calm`, …) into a [`Grid`]. [`resolve_protocols`] is the one rule
//! every protocol selection passes, whether it arrives as `--protocols` or
//! as the daemon's `spec.protocols`.
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

use dimmer_baselines::ProtocolRegistry;
use dimmer_core::DimmerConfig;

use crate::experiments::{
    city_scale_grid_from_worlds_threaded, city_worlds, dynamics_grid, fig5_grid,
    fig5_seed_sweep_grid, fig6_grid, fig7_grid, table1_grid, topology_size_grid, CachedRun,
    CityWorld, DCUBE_PROTOCOLS, DYNAMICS_PROTOCOLS, DYNAMICS_SUPPORTED, TESTBED_PROTOCOLS,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolAxis {
    /// What runs when the caller selects nothing, in presentation order.
    pub default: &'static [&'static str],
    /// Every protocol the grid is defined for.
    pub supported: &'static [&'static str],
}

impl ProtocolAxis {
    /// An axis that runs everything it supports by default.
    pub const fn all(protocols: &'static [&'static str]) -> Self {
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

/// One served grid family with the defaults every caller shares.
struct GridEntry {
    /// The served name; a parameterised family reads `dynamics:<preset>`
    /// or `train:<family>`.
    name: &'static str,
    variants: Option<Variants>,
    seed: u64,
    trials: Scale,
    /// LWB rounds per trial (floods per world for `city`); zero for grids
    /// that take no count.
    rounds: Scale,
    protocols: Option<ProtocolAxis>,
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
    /// An already-simulated run of the first cell (see [`CachedRun`]);
    /// `fig6` and `dynamics:<preset>` reuse it when its seed matches.
    pub cache: Option<CachedRun>,
    /// Where `city` takes its worlds from, such as the daemon's warm
    /// cache; `None` builds them.
    pub worlds: Option<&'a mut dyn FnMut() -> Vec<Arc<CityWorld>>>,
    /// Workers each `city` trial fans its floods across (never changes a
    /// report).
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

/// Every served grid family, in documentation order.
static CATALOGUE: [GridEntry; 9] = [
    GridEntry {
        name: "table1",
        variants: None,
        seed: 1,
        trials: Scale(1, 1),
        rounds: Scale(0, 0),
        protocols: None,
        build: |_| table1_grid(&DimmerConfig::default()),
    },
    GridEntry {
        name: "fig5",
        variants: None,
        seed: 100,
        trials: Scale(1, 3),
        rounds: Scale(60, 200),
        protocols: Some(ProtocolAxis::all(&TESTBED_PROTOCOLS)),
        build: |b| fig5_grid(dimmer_policy(b.quick), b.rounds, &FIG5_LEVELS, b.protocols),
    },
    GridEntry {
        name: "fig5-seeds",
        variants: None,
        seed: 500,
        trials: Scale(16, 16),
        rounds: Scale(40, 120),
        protocols: Some(ProtocolAxis::all(&TESTBED_PROTOCOLS)),
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
        build: |b| {
            let worlds = match b.extras.worlds {
                Some(source) => source(),
                None => city_worlds().into_iter().map(Arc::new).collect(),
            };
            city_scale_grid_from_worlds_threaded(b.rounds, worlds, b.extras.batch_threads)
        },
    },
];

/// A served grid name resolved against the catalogue.
pub struct Grid {
    entry: &'static GridEntry,
    name: String,
    variant: &'static str,
}

/// Resolves a served grid name: a plain family such as `fig5`, or a
/// parameterised one such as `dynamics:churn-storm` or `train:calm`.
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
    /// The served name, e.g. `dynamics:churn-storm`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The default base seed.
    pub fn seed(&self) -> u64 {
        self.entry.seed
    }

    /// The default trials per cell at `quick` or full scale.
    pub fn trials(&self, quick: bool) -> usize {
        self.entry.trials.at(quick)
    }

    /// LWB rounds per trial (floods per world for `city`) at `quick` or
    /// full scale; zero for grids that take no count.
    pub fn rounds(&self, quick: bool) -> usize {
        self.entry.rounds.at(quick)
    }

    /// The protocol axis, or `None` for grids that compare no protocols.
    pub fn protocols(&self) -> Option<ProtocolAxis> {
        self.entry.protocols
    }

    /// [`resolve_protocols`] for this grid.
    pub fn resolve_protocols(
        &self,
        requested: Option<&[String]>,
    ) -> Result<Option<Vec<String>>, String> {
        resolve_protocols(&self.name, self.entry.protocols, requested)
    }

    /// Builds the grid at `quick` or full scale over the resolved
    /// `protocols` (empty on a grid without a protocol axis).
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

/// Resolves a protocol selection for grid `grid` with protocol axis
/// `axis`: `None` picks the axis default. A selection must be non-empty
/// and name only registry protocols the grid supports, each once. A grid
/// without a protocol axis accepts no selection and resolves to `None`.
pub fn resolve_protocols(
    grid: &str,
    axis: Option<ProtocolAxis>,
    requested: Option<&[String]>,
) -> Result<Option<Vec<String>>, String> {
    let (axis, requested) = match (axis, requested) {
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
    let registry = ProtocolRegistry::standard();
    for (i, name) in requested.iter().enumerate() {
        if !registry.contains(name) {
            return Err(format!(
                "unknown protocol '{name}' (registry: {})",
                registry.names().join(", ")
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
        // `train:*` mirrors `exp_train`: seed 42, one trial.
        let train = lookup("train:calm").unwrap();
        assert_eq!(train.seed(), 42);
        assert_eq!(train.trials(false), 1);
    }

    #[test]
    fn selections_on_grids_without_a_protocol_axis_are_refused() {
        for grid in ["table1", "fig6", "city"] {
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
