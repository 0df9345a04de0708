//! Determinism and aggregation guarantees of the parallel experiment
//! engine: the same grid with the same `--trials/--seed` must produce a
//! byte-identical JSON report regardless of the worker-thread count, and
//! the per-cell statistics must match hand-computed values.

use dimmer_bench::experiments::{
    fig5_grid, fig6_grid, protocol_list, topology_size_grid, TESTBED_PROTOCOLS,
};
use dimmer_bench::harness::{RunOptions, ScenarioGrid, TrialMetrics};
use dimmer_bench::report::Aggregate;
use dimmer_core::AdaptivityPolicy;
use dimmer_sim::SimRng;

#[test]
fn fig5_grid_json_is_identical_across_thread_counts() {
    // A miniature Fig. 5 grid: rule-based policy, 2 levels x 3 protocols,
    // real simulation runs.
    let protocols = protocol_list(&TESTBED_PROTOCOLS);
    let grid = || fig5_grid(AdaptivityPolicy::rule_based(), 6, &[0.0, 0.25], &protocols);
    let serial = grid().run(&RunOptions {
        trials: 3,
        threads: 1,
        seed: 42,
    });
    for threads in [2, 4] {
        let parallel = grid().run(&RunOptions {
            trials: 3,
            threads,
            seed: 42,
        });
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "JSON must be byte-identical with {threads} threads"
        );
    }
}

#[test]
fn fig6_and_topology_grids_are_thread_count_invariant() {
    for (name, build) in [
        (
            "fig6",
            Box::new(|| fig6_grid(8, None)) as Box<dyn Fn() -> ScenarioGrid>,
        ),
        (
            "topology",
            Box::new(|| topology_size_grid(4, &[3], &protocol_list(&["static", "dimmer-rule"]))),
        ),
    ] {
        let serial = build().run(&RunOptions {
            trials: 2,
            threads: 1,
            seed: 7,
        });
        let parallel = build().run(&RunOptions {
            trials: 2,
            threads: 4,
            seed: 7,
        });
        assert_eq!(serial.to_json(), parallel.to_json(), "{name}");
    }
}

#[test]
fn cached_runs_do_not_change_grid_results() {
    use dimmer_bench::experiments::{fig4c_grid, fig4c_run, fig6_single, CachedRun};
    let opts = RunOptions {
        trials: 1,
        threads: 1,
        seed: 3,
    };
    let uncached = fig6_grid(10, None).run(&opts);

    // A cache produced with the cell's actual derived seed is used verbatim.
    let seed = SimRng::derive_seed(opts.seed, &[0, 0]);
    let cache = CachedRun::new(seed, fig6_single(10, seed, true));
    let cached = fig6_grid(10, Some(cache)).run(&opts);
    assert_eq!(uncached.to_json(), cached.to_json());

    // A cache keyed by a different seed is ignored, not trusted: even with
    // mismatched reports inside, the grid re-simulates and the result stays
    // identical to the uncached run.
    let stale = CachedRun::new(seed ^ 1, fig6_single(10, seed ^ 1, true));
    let ignored = fig6_grid(10, Some(stale)).run(&opts);
    assert_eq!(uncached.to_json(), ignored.to_json());

    // One cache holds a run per cell: each fig4c cell picks the run under
    // its own seed, and a third run under another seed is ignored.
    let protocols = protocol_list(&["dimmer-dqn", "pid"]);
    let policy = AdaptivityPolicy::rule_based();
    let fig4c = |cache| fig4c_grid(policy.clone(), 8, &protocols, cache).run(&opts);
    let uncached = fig4c(None);
    let mut cache = CachedRun::default();
    for (cell, protocol) in protocols.iter().enumerate() {
        let seed = SimRng::derive_seed(opts.seed, &[cell as u64, 0]);
        cache = cache.with(seed, fig4c_run(protocol, &policy, 8, seed));
    }
    assert_eq!(uncached.to_json(), fig4c(Some(cache.clone())).to_json());
    let other = SimRng::derive_seed(opts.seed + 1, &[0, 0]);
    let cache = cache.with(other, fig4c_run("pid", &policy, 8, other));
    assert_eq!(uncached.to_json(), fig4c(Some(cache)).to_json());
}

#[test]
fn each_cell_reads_the_cached_run_under_its_own_seed() {
    use dimmer_bench::experiments::{
        dynamics_grid, dynamics_run, fig4c_grid, fig4c_run, CachedRun,
    };
    use dimmer_bench::report::GridReport;
    use dimmer_bench::summarize;
    use dimmer_core::DimmerRoundReport;
    let opts = RunOptions {
        trials: 1,
        threads: 2,
        seed: 5,
    };
    let policy = AdaptivityPolicy::rule_based();
    // Cell 1 is handed a run it would never simulate itself: cell 0's
    // protocol under cell 1's seed. Reporting that run shows the cell read
    // the cache instead of simulating, and that a cache serves every cell,
    // not only the first.
    let seed = SimRng::derive_seed(opts.seed, &[1, 0]);
    let check =
        |name: &str, uncached: GridReport, cached: GridReport, planted: &[DimmerRoundReport]| {
            assert_ne!(
                uncached.to_json(),
                cached.to_json(),
                "{name}: the planted run is visible"
            );
            assert_eq!(
                uncached.cells[0], cached.cells[0],
                "{name}: cell 0 has no cached run"
            );
            let s = summarize(planted);
            for (metric, want) in [
                ("reliability", s.reliability),
                ("radio_on_ms", s.radio_on_ms),
                ("mean_ntx", s.mean_ntx),
            ] {
                assert_eq!(
                    cached.cells[1].metric(metric).unwrap().mean,
                    want,
                    "{name}: {metric}"
                );
            }
        };

    let protocols = protocol_list(&["static", "pid"]);
    let dynamics =
        |cache| dynamics_grid(policy.clone(), 12, "churn-storm", &protocols, cache).run(&opts);
    let planted = dynamics_run("static", "churn-storm", &policy, 12, seed);
    let cached = dynamics(Some(CachedRun::new(seed, planted.clone())));
    check("dynamics", dynamics(None), cached, &planted);

    let protocols = protocol_list(&["dimmer-dqn", "pid"]);
    let fig4c = |cache| fig4c_grid(policy.clone(), 12, &protocols, cache).run(&opts);
    let planted = fig4c_run("dimmer-dqn", &policy, 12, seed);
    let cached = fig4c(Some(CachedRun::new(seed, planted.clone())));
    check("fig4c", fig4c(None), cached, &planted);
}

#[test]
fn lazily_shared_inputs_do_not_depend_on_which_trial_builds_them() {
    use dimmer_bench::experiments::{fig4b_grid, grid10k_scale_grid};
    // fig4b's trace and grid10k's world are built by whichever trial runs
    // first and then shared; racing workers must all see the same value.
    for (name, build) in [
        (
            "fig4b",
            Box::new(|_| fig4b_grid(12, 20, 2, "both")) as Box<dyn Fn(usize) -> ScenarioGrid>,
        ),
        (
            "grid10k",
            Box::new(|threads| grid10k_scale_grid(2, threads)),
        ),
    ] {
        let run = |threads| {
            build(threads)
                .run(&RunOptions {
                    trials: 2,
                    threads,
                    seed: 500,
                })
                .to_json()
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(serial, run(threads), "{name}: {threads} threads");
        }
    }
}

#[test]
#[should_panic(expected = "identical metric sets")]
fn inconsistent_metric_sets_are_rejected() {
    let mut grid = ScenarioGrid::new("inconsistent");
    grid.push_cell("bad", vec![], |seed| {
        let mut m = TrialMetrics::new().with("always", 1.0);
        if seed % 2 == 0 {
            m.push("sometimes", 2.0);
        }
        m
    });
    // With several trials the derived seeds span both parities, so the
    // trials disagree on their metric sets and aggregation must refuse.
    grid.run(&RunOptions {
        trials: 8,
        threads: 2,
        seed: 0,
    });
}

#[test]
fn different_base_seeds_produce_different_trials() {
    let protocols = protocol_list(&TESTBED_PROTOCOLS);
    let grid = || fig5_grid(AdaptivityPolicy::rule_based(), 6, &[0.25], &protocols);
    let a = grid().run(&RunOptions {
        trials: 2,
        threads: 2,
        seed: 1,
    });
    let b = grid().run(&RunOptions {
        trials: 2,
        threads: 2,
        seed: 2,
    });
    assert_ne!(a.to_json(), b.to_json(), "base seed must matter");
}

#[test]
fn trial_seeds_are_derived_statelessly_per_cell_and_trial() {
    // The engine promises seed = derive_seed(base, [cell, trial]); verify it
    // end to end by echoing the seed as a metric.
    let mut grid = ScenarioGrid::new("seed_echo");
    for cell in 0..3u64 {
        grid.push_cell(format!("cell{cell}"), vec![], |seed| {
            TrialMetrics::new().with("seed", seed as f64)
        });
    }
    let report = grid.run(&RunOptions {
        trials: 2,
        threads: 3,
        seed: 99,
    });
    for (ci, cell) in report.cells.iter().enumerate() {
        let agg = cell.metric("seed").unwrap();
        let expected: Vec<f64> = (0..2)
            .map(|t| SimRng::derive_seed(99, &[ci as u64, t]) as f64)
            .collect();
        let mean = (expected[0] + expected[1]) / 2.0;
        assert_eq!(agg.mean, mean, "cell {ci} seeds must follow derive_seed");
    }
}

#[test]
fn aggregation_matches_hand_computed_statistics() {
    // Feed known samples through a grid whose "trial" just replays them,
    // and check mean / sample stddev / 95% CI against hand-computed values.
    //
    // Samples 2, 4, 4, 4, 5, 5, 7, 9:
    //   mean        = 5
    //   sample var  = (9 + 1 + 1 + 1 + 0 + 0 + 4 + 16) / 7 = 32/7
    //   stddev      = sqrt(32/7)       ≈ 2.13809...
    //   ci95        = 1.96 * stddev / sqrt(8)
    let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    let mut grid = ScenarioGrid::new("known_samples");
    let idx = std::sync::atomic::AtomicUsize::new(0);
    grid.push_cell("fixed", vec![], move |_seed| {
        let i = idx.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TrialMetrics::new().with("x", samples[i])
    });
    // Single-threaded so the replay order is the trial order.
    let report = grid.run(&RunOptions {
        trials: 8,
        threads: 1,
        seed: 0,
    });
    let agg = report.cells[0].metric("x").unwrap();
    let stddev = (32.0f64 / 7.0).sqrt();
    assert_eq!(agg.n, 8);
    assert!((agg.mean - 5.0).abs() < 1e-12);
    assert!((agg.stddev - stddev).abs() < 1e-12);
    assert!((agg.ci95 - 1.96 * stddev / 8.0f64.sqrt()).abs() < 1e-12);
    assert_eq!(agg.min, 2.0);
    assert_eq!(agg.max, 9.0);

    // Cross-check against Aggregate::from_samples directly.
    assert_eq!(*agg, Aggregate::from_samples(&samples));
}

#[test]
fn json_report_round_trips_key_fields() {
    let grid = fig5_grid(
        AdaptivityPolicy::rule_based(),
        4,
        &[0.0],
        &protocol_list(&TESTBED_PROTOCOLS),
    );
    let report = grid.run(&RunOptions {
        trials: 2,
        threads: 2,
        seed: 5,
    });
    let json = report.to_json();
    assert!(json.contains("\"grid\": \"fig5\""));
    assert!(json.contains("\"seed\": 5"));
    assert!(json.contains("\"trials\": 2"));
    for cell in &report.cells {
        assert!(json.contains(&format!("\"label\": \"{}\"", cell.label)));
    }
    for metric in ["reliability", "radio_on_ms", "latency_ms", "mean_ntx"] {
        assert!(json.contains(metric), "missing metric {metric}");
    }
}
