//! Statistical aggregation and report rendering for the experiment engine.
//!
//! The [`harness`](crate::harness) runs every `(cell, trial)` pair of a
//! scenario grid and hands the per-trial metric samples to this module,
//! which condenses them into per-cell [`Aggregate`] statistics (mean,
//! sample standard deviation, 95 % confidence interval) and renders the
//! result either as a human-readable table ([`GridReport::print_table`]) or
//! as machine-readable JSON ([`GridReport::to_json`]).
//!
//! The JSON output is fully deterministic: cells and metrics keep their
//! insertion order, floats are formatted with Rust's shortest round-trip
//! formatting, and nothing thread- or time-dependent is embedded. Running
//! the same grid with the same `--trials/--seed` therefore produces
//! byte-identical reports regardless of `--threads`.

use std::io;
use std::path::Path;

use dimmer_json::Json;

/// Summary statistics of one metric over the trials of one grid cell.
///
/// # Examples
///
/// ```
/// use dimmer_bench::report::Aggregate;
/// let agg = Aggregate::from_samples(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(agg.n, 4);
/// assert!((agg.mean - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Number of samples aggregated.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub stddev: f64,
    /// Half-width of the 95 % confidence interval of the mean, using the
    /// normal approximation `1.96 * stddev / sqrt(n)` (0 for n < 2).
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Aggregate {
    /// Computes the aggregate statistics of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Aggregate {
        assert!(!samples.is_empty(), "cannot aggregate zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            1.96 * stddev / (n as f64).sqrt()
        };
        let (mut min, mut max) = (samples[0], samples[0]);
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Aggregate {
            n,
            mean,
            stddev,
            ci95,
            min,
            max,
        }
    }
}

/// Aggregated results of a single grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Human-readable cell label (e.g. `"dimmer @ jam=25%"`).
    pub label: String,
    /// Structured cell parameters, e.g. `[("protocol", "dimmer")]`.
    pub params: Vec<(String, String)>,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Per-metric aggregates, in the order the cell emitted them.
    pub metrics: Vec<(String, Aggregate)>,
}

impl CellReport {
    /// Looks up one metric aggregate by name.
    pub fn metric(&self, name: &str) -> Option<&Aggregate> {
        self.metrics.iter().find(|(m, _)| m == name).map(|(_, a)| a)
    }
}

/// Aggregated results of a full scenario-grid run.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Name of the grid (e.g. `"fig5"`).
    pub grid: String,
    /// Base seed the per-trial seeds were derived from.
    pub seed: u64,
    /// Trials per cell.
    pub trials: usize,
    /// One report per grid cell, in grid order.
    pub cells: Vec<CellReport>,
}

impl GridReport {
    /// Looks up one cell report by label.
    pub fn cell(&self, label: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.label == label)
    }

    /// Renders the report as deterministic, machine-readable JSON.
    ///
    /// # Examples
    ///
    /// ```
    /// use dimmer_bench::report::{Aggregate, CellReport, GridReport};
    /// let report = GridReport {
    ///     grid: "demo".into(),
    ///     seed: 42,
    ///     trials: 2,
    ///     cells: vec![CellReport {
    ///         label: "cell".into(),
    ///         params: vec![],
    ///         trials: 2,
    ///         metrics: vec![("reliability".into(), Aggregate::from_samples(&[1.0, 1.0]))],
    ///     }],
    /// };
    /// let json = report.to_json();
    /// assert!(json.contains("\"grid\": \"demo\""));
    /// assert!(json.contains("\"reliability\""));
    /// ```
    pub fn to_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string());
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"grid\": {},\n", text(&self.grid)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"trials\": {},\n", self.trials));
        out.push_str("  \"cells\": [");
        for (ci, cell) in self.cells.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"label\": {},\n", text(&cell.label)));
            out.push_str("      \"params\": {");
            for (pi, (k, v)) in cell.params.iter().enumerate() {
                if pi > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", text(k), text(v)));
            }
            out.push_str("},\n");
            out.push_str(&format!("      \"trials\": {},\n", cell.trials));
            out.push_str("      \"metrics\": {");
            for (mi, (name, agg)) in cell.metrics.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {}: {{\"n\": {}, \"mean\": {}, \"stddev\": {}, \"ci95\": {}, \"min\": {}, \"max\": {}}}",
                    text(name),
                    agg.n,
                    Json::Num(agg.mean),
                    Json::Num(agg.stddev),
                    Json::Num(agg.ci95),
                    Json::Num(agg.min),
                    Json::Num(agg.max),
                ));
            }
            if !cell.metrics.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("}\n    }");
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes [`GridReport::to_json`] to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Prints the report as a human-readable table: one row per cell, one
    /// `mean ± ci95` column per metric.
    pub fn print_table(&self) {
        let metric_names: Vec<&str> = self
            .cells
            .first()
            .map(|c| c.metrics.iter().map(|(m, _)| m.as_str()).collect())
            .unwrap_or_default();
        let label_w = self
            .cells
            .iter()
            .map(|c| c.label.len())
            .chain(std::iter::once(4))
            .max()
            .unwrap_or(4);
        print!("{:<label_w$}", "cell");
        for m in &metric_names {
            print!(" | {:>24}", m);
        }
        println!();
        for cell in &self.cells {
            print!("{:<label_w$}", cell.label);
            for m in &metric_names {
                match cell.metric(m) {
                    Some(agg) if cell.trials > 1 => {
                        print!(" | {:>14.4} ± {:>7.4}", agg.mean, agg.ci95)
                    }
                    Some(agg) => print!(" | {:>24.4}", agg.mean),
                    None => print!(" | {:>24}", "-"),
                }
            }
            println!();
        }
        println!(
            "({} cells x {} trials, base seed {})",
            self.cells.len(),
            self.trials,
            self.seed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_matches_hand_computed_values() {
        // Samples: 1, 2, 3, 4.
        //   mean          = 2.5
        //   sample var    = ((1.5)^2 + (0.5)^2 + (0.5)^2 + (1.5)^2) / 3 = 5/3
        //   sample stddev = sqrt(5/3)            ≈ 1.2909944487...
        //   ci95          = 1.96 * stddev / 2    ≈ 1.2651745598...
        let agg = Aggregate::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(agg.n, 4);
        assert!((agg.mean - 2.5).abs() < 1e-12);
        assert!((agg.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((agg.ci95 - 1.96 * (5.0f64 / 3.0).sqrt() / 2.0).abs() < 1e-12);
        assert_eq!(agg.min, 1.0);
        assert_eq!(agg.max, 4.0);
    }

    #[test]
    fn aggregate_single_sample_has_zero_spread() {
        let agg = Aggregate::from_samples(&[7.25]);
        assert_eq!(agg.n, 1);
        assert_eq!(agg.mean, 7.25);
        assert_eq!(agg.stddev, 0.0);
        assert_eq!(agg.ci95, 0.0);
        assert_eq!(agg.min, 7.25);
        assert_eq!(agg.max, 7.25);
    }

    #[test]
    fn aggregate_constant_samples_have_zero_stddev() {
        let agg = Aggregate::from_samples(&[3.0; 8]);
        assert_eq!(agg.stddev, 0.0);
        assert_eq!(agg.ci95, 0.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn aggregate_rejects_empty_input() {
        Aggregate::from_samples(&[]);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let report = GridReport {
            grid: "quote\"grid".into(),
            seed: 1,
            trials: 1,
            cells: vec![CellReport {
                label: "a".into(),
                params: vec![("k".into(), "v".into())],
                trials: 1,
                metrics: vec![("m".into(), Aggregate::from_samples(&[0.5]))],
            }],
        };
        assert_eq!(report.to_json(), report.to_json());
        assert!(report.to_json().contains("\"quote\\\"grid\""));
        assert!(report.to_json().contains("\"mean\": 0.5"));
    }

    #[test]
    fn non_finite_metrics_render_as_null() {
        let report = GridReport {
            grid: "g".into(),
            seed: 0,
            trials: 1,
            cells: vec![CellReport {
                label: "x".into(),
                params: vec![],
                trials: 1,
                metrics: vec![("m".into(), Aggregate::from_samples(&[f64::NAN]))],
            }],
        };
        assert!(report.to_json().contains("\"mean\": null"));
    }

    #[test]
    fn cell_lookup_by_label_and_metric() {
        let report = GridReport {
            grid: "g".into(),
            seed: 0,
            trials: 1,
            cells: vec![CellReport {
                label: "x".into(),
                params: vec![],
                trials: 1,
                metrics: vec![("m".into(), Aggregate::from_samples(&[2.0]))],
            }],
        };
        assert!(report.cell("x").is_some());
        assert!(report.cell("y").is_none());
        assert_eq!(report.cell("x").unwrap().metric("m").unwrap().mean, 2.0);
        assert!(report.cell("x").unwrap().metric("nope").is_none());
    }
}
