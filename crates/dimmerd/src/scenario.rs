//! Scenario specifications: the daemon's canonical description of one
//! experiment grid and its hash.
//!
//! A [`ScenarioSpec`] names a grid of [`dimmer_bench::catalogue`] and
//! carries the overrides `exp <grid>` takes on the command line —
//! `--quick`, `--trials`, `--seed`, `--protocols`. Every default (trials,
//! seed, round counts, protocol set) and the grid builder come from the
//! catalogue entry `exp` reads as well, so a daemon-served report is the
//! report `exp` writes through `--json`. Two specs
//! that resolve to the same configuration (say, protocols left to default
//! versus spelled out explicitly) canonicalize to the same string and
//! therefore the same [`ScenarioSpec::hash`]; the memo cache is keyed by
//! `(hash, seed)`.

use dimmer_bench::catalogue::{self, Extras, Grid};
use dimmer_bench::harness::ScenarioGrid;

use crate::cache::WorldCache;
use crate::json::Json;

/// The largest `spec.trials` a request may ask for. A grid plans every
/// `(cell, trial)` pair before it runs, so an unbounded count would let one
/// request exhaust the daemon's memory; the largest catalogue default is
/// 16.
const MAX_TRIALS: u64 = 1_000;

/// One submitted scenario: which grid, at which scale, with which
/// protocol selection and seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Grid name, as [`catalogue::lookup`] resolves it: `fig5`,
    /// `dynamics:churn-storm`, `train:calm`, ….
    pub grid: String,
    /// Quick mode: the catalogue's `--quick` trials and round counts.
    pub quick: bool,
    /// Trials per cell, at most 1 000; `None` uses the catalogue default.
    pub trials: Option<usize>,
    /// Base seed; `None` uses the catalogue default.
    pub seed: Option<u64>,
    /// Protocol selection; `None` uses the grid's default set. Must be
    /// absent for grids that do not compare protocols.
    pub protocols: Option<Vec<String>>,
}

impl ScenarioSpec {
    /// Parses a spec from the request's `"spec"` object. Unknown and
    /// repeated fields are rejected so that typos cannot silently change
    /// what runs.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err("spec must be an object".to_string());
        };
        if let Some(key) = crate::proto::repeated_key(fields) {
            return Err(format!("spec names \"{key}\" twice"));
        }
        let mut spec = ScenarioSpec {
            grid: String::new(),
            quick: false,
            trials: None,
            seed: None,
            protocols: None,
        };
        for (key, value) in fields {
            match key.as_str() {
                "grid" => {
                    spec.grid = value
                        .as_str()
                        .ok_or_else(|| "spec.grid must be a string".to_string())?
                        .to_string();
                }
                "quick" => {
                    spec.quick = value
                        .as_bool()
                        .ok_or_else(|| "spec.quick must be a boolean".to_string())?;
                }
                "trials" => {
                    let n = value
                        .as_u64()
                        .ok_or_else(|| "spec.trials must be a non-negative integer".to_string())?;
                    if n == 0 {
                        return Err("spec.trials must be at least 1".to_string());
                    }
                    if n > MAX_TRIALS {
                        return Err(format!("spec.trials must be at most {MAX_TRIALS}"));
                    }
                    spec.trials = Some(n as usize);
                }
                "seed" => {
                    spec.seed =
                        Some(value.as_u64().ok_or_else(|| {
                            "spec.seed must be a non-negative integer".to_string()
                        })?);
                }
                "protocols" => {
                    let items = value
                        .as_arr()
                        .ok_or_else(|| "spec.protocols must be an array of strings".to_string())?;
                    let mut protocols = Vec::with_capacity(items.len());
                    for item in items {
                        protocols.push(
                            item.as_str()
                                .ok_or_else(|| {
                                    "spec.protocols must be an array of strings".to_string()
                                })?
                                .to_string(),
                        );
                    }
                    spec.protocols = Some(protocols);
                }
                other => return Err(format!("unknown spec field '{other}'")),
            }
        }
        if spec.grid.is_empty() {
            return Err("spec needs a \"grid\" field".to_string());
        }
        spec.resolved_protocols()?;
        Ok(spec)
    }

    /// The catalogue grid the spec names.
    fn catalogue_grid(&self) -> Result<Grid, String> {
        catalogue::lookup(&self.grid)
    }

    /// The resolved protocol list, or `None` for grids without a protocol
    /// axis; the selection passes the same resolver as `--protocols`.
    fn resolved_protocols(&self) -> Result<Option<Vec<String>>, String> {
        self.catalogue_grid()?
            .resolve_protocols(self.protocols.as_deref())
    }

    /// The resolved trials-per-cell count.
    pub fn trials(&self) -> Result<usize, String> {
        Ok(self
            .trials
            .unwrap_or(self.catalogue_grid()?.trials(self.quick)))
    }

    /// The resolved base seed (the second half of the memo key).
    pub fn resolved_seed(&self) -> Result<u64, String> {
        Ok(self.seed.unwrap_or(self.catalogue_grid()?.seed()))
    }

    /// The canonical form: every default resolved, deterministic field
    /// order. Equivalent specs produce identical strings — this is what
    /// [`hash`](Self::hash) digests and what makes memoization safe.
    pub fn canonical(&self) -> Result<String, String> {
        let protocols = match self.resolved_protocols()? {
            Some(p) => p.join(","),
            None => "-".to_string(),
        };
        Ok(format!(
            "grid={};quick={};trials={};protocols={}",
            self.grid,
            self.quick,
            self.trials()?,
            protocols
        ))
    }

    /// FNV-1a digest of the canonical form — the scenario half of the
    /// `(scenario_hash, seed)` memo key.
    pub fn hash(&self) -> Result<u64, String> {
        let canonical = self.canonical()?;
        let mut h: u64 = 0xcbf29ce484222325;
        for b in canonical.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        Ok(h)
    }

    /// Builds the scenario's grid through the catalogue, taking city
    /// worlds from the warm cache.
    pub fn build(&self, worlds: &mut WorldCache) -> Result<ScenarioGrid, String> {
        let grid = self.catalogue_grid()?;
        let protocols = grid
            .resolve_protocols(self.protocols.as_deref())?
            .unwrap_or_default();
        let mut city = || worlds.city();
        let extras = Extras {
            worlds: Some(&mut city),
            ..Extras::default()
        };
        Ok(grid.build(self.quick, &protocols, extras))
    }

    /// Convenience: a quick spec for `grid` with every other field
    /// defaulted.
    pub fn quick(grid: &str) -> Self {
        ScenarioSpec {
            grid: grid.to_string(),
            quick: true,
            trials: None,
            seed: None,
            protocols: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn spec(line: &str) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_json(&json::parse(line).unwrap())
    }

    #[test]
    fn equivalent_constructions_hash_identically() {
        let defaulted = spec(r#"{"grid":"fig5","quick":true}"#).unwrap();
        let explicit = spec(
            r#"{"trials":1,"protocols":["static","dimmer-dqn","pid"],"quick":true,"grid":"fig5"}"#,
        )
        .unwrap();
        assert_eq!(
            defaulted.canonical().unwrap(),
            explicit.canonical().unwrap()
        );
        assert_eq!(defaulted.hash().unwrap(), explicit.hash().unwrap());
        // Seeds do not enter the scenario hash (they key the memo jointly).
        let seeded = spec(r#"{"grid":"fig5","quick":true,"seed":77}"#).unwrap();
        assert_eq!(seeded.hash().unwrap(), defaulted.hash().unwrap());
    }

    #[test]
    fn differing_configurations_hash_differently() {
        let base = spec(r#"{"grid":"fig5","quick":true}"#).unwrap();
        for other in [
            r#"{"grid":"fig5"}"#,
            r#"{"grid":"fig5","quick":true,"trials":2}"#,
            r#"{"grid":"fig5","quick":true,"protocols":["static"]}"#,
            r#"{"grid":"fig7","quick":true}"#,
            r#"{"grid":"dynamics:churn-storm","quick":true}"#,
            r#"{"grid":"train:calm","quick":true}"#,
            r#"{"grid":"train:jammed","quick":true}"#,
        ] {
            assert_ne!(
                spec(other).unwrap().hash().unwrap(),
                base.hash().unwrap(),
                "{other} must hash differently"
            );
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(spec(r#"{"grid":"fig9"}"#)
            .unwrap_err()
            .contains("unknown grid"));
        assert!(spec(r#"{"grid":"dynamics:warp"}"#)
            .unwrap_err()
            .contains("unknown dynamics preset"));
        assert!(spec(r#"{"grid":"train:volcanic"}"#)
            .unwrap_err()
            .contains("unknown training family"));
        assert!(spec(r#"{"grid":"train:calm","protocols":["static"]}"#)
            .unwrap_err()
            .contains("no protocol axis"));
        assert!(spec(r#"{"grid":"fig5","protocols":["crystal"]}"#)
            .unwrap_err()
            .contains("not supported"));
        assert!(spec(r#"{"grid":"city","protocols":["static"]}"#)
            .unwrap_err()
            .contains("no protocol axis"));
        assert!(spec(r#"{"grid":"fig5","trials":0}"#)
            .unwrap_err()
            .contains("at least 1"));
        // Counts above the ceiling would plan cells × trials jobs up front.
        for trials in [MAX_TRIALS + 1, 1_099_511_627_776] {
            let line = format!(r#"{{"grid":"table1","trials":{trials}}}"#);
            assert!(spec(&line).unwrap_err().contains("at most 1000"), "{line}");
        }
        assert!(spec(&format!(r#"{{"grid":"table1","trials":{MAX_TRIALS}}}"#)).is_ok());
        assert!(spec(r#"{"grid":"fig5","rounds":9}"#)
            .unwrap_err()
            .contains("unknown spec field"));
        assert!(spec(r#"{"quick":true}"#).unwrap_err().contains("grid"));
    }

    #[test]
    fn a_field_named_twice_is_rejected_whatever_its_values() {
        for line in [
            r#"{"grid":"fig5","trials":1,"trials":1000}"#,
            r#"{"grid":"fig5","quick":true,"quick":true}"#,
            r#"{"grid":"fig5","grid":"fig9"}"#,
        ] {
            let error = spec(line).unwrap_err();
            assert!(error.starts_with("spec names \""), "{line}: {error}");
            assert!(error.ends_with("\" twice"), "{line}: {error}");
        }
    }

    #[test]
    fn duplicate_protocols_are_rejected() {
        assert!(spec(r#"{"grid":"fig5","protocols":["static","static"]}"#)
            .unwrap_err()
            .contains("more than once"));
    }

    #[test]
    fn every_supported_grid_builds() {
        let mut worlds = WorldCache::new();
        for grid in [
            "table1",
            "fig4b:nodes",
            "fig4c",
            "fig5",
            "fig5-seeds",
            "fig6",
            "fig7",
            "topology-size",
            "dynamics:churn-storm",
            "train:calm",
            "train:roaming-jammer",
            "city",
            "grid10k",
        ] {
            let s = ScenarioSpec::quick(grid);
            assert!(
                !s.build(&mut worlds).unwrap().is_empty(),
                "{grid} must build a non-empty grid"
            );
        }
        let (hits, misses) = worlds.counters();
        assert_eq!((hits, misses), (0, 1), "city worlds built exactly once");
    }
}
