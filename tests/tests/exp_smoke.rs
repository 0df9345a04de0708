//! Smoke tests for the experiment harness: every catalogue grid's
//! single-trial builder is exercised for a handful of rounds with a
//! rule-based policy (no DQN training), guarding the rarely-run experiments
//! against build and behavior rot. Protocols are addressed by their
//! `PROTOCOLS` names, exactly as `exp`'s `--protocols` flag does.

use dimmer_bench::experiments::{
    dynamics_run, fig4b_trial, fig4c_run, fig5_run, fig6_grid, fig6_single, fig7_run,
    table1_summary, Fig7Scenario, DCUBE_PROTOCOLS, DYNAMICS_PROTOCOLS, FIG4C_PROTOCOLS,
    TESTBED_PROTOCOLS,
};
use dimmer_bench::scenarios::DYNAMIC_SCENARIOS;
use dimmer_bench::{mean_forwarders, summarize, RunOptions};
use dimmer_core::{AdaptivityPolicy, DimmerConfig};
use dimmer_sim::{SimRng, Topology};
use dimmer_traces::TraceCollector;

fn assert_summary_sane(reliability: f64, label: &str) {
    assert!(
        reliability.is_finite(),
        "{label}: reliability must be finite"
    );
    assert!(
        (0.0..=1.0).contains(&reliability),
        "{label}: reliability in [0,1], got {reliability}"
    );
}

#[test]
fn table1_summary_is_complete() {
    let s = table1_summary(&DimmerConfig::default());
    assert_eq!(s.state_dim, 31);
    assert_eq!(s.example_state.len(), s.state_dim);
    assert!(s.example_state.iter().all(|v| v.is_finite()));
    assert!(s.parameters > 0 && s.flash_bytes > 0 && s.ram_bytes > 0);
}

#[test]
fn fig4b_row_trains_and_evaluates() {
    let topo = Topology::kiel_testbed_18(1);
    let traces = TraceCollector::new(&topo, 21)
        .with_sweep(vec![0.0, 0.25], 3)
        .collect(12);
    let cfg = DimmerConfig::default();
    let row = fig4b_trial(&cfg, &traces, 300, 5, 1000);
    let metric = |name: &str| {
        row.entries()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("fig4b: missing {name}"))
    };
    assert_summary_sane(metric("reliability"), "fig4b");
    let radio_on_ms = metric("radio_on_ms");
    assert!(radio_on_ms.is_finite() && radio_on_ms > 0.0);
    assert!(metric("dqn_size_kb") > 0.0);
}

#[test]
fn fig4c_both_protocols_produce_reports() {
    let policy = AdaptivityPolicy::rule_based();
    for protocol in FIG4C_PROTOCOLS {
        let reports = fig4c_run(protocol, &policy, 10, 7);
        assert_eq!(reports.len(), 10, "{protocol}");
        for r in &reports {
            assert_summary_sane(r.reliability, protocol);
            assert!(r.mean_radio_on.as_millis_f64().is_finite());
        }
    }
}

#[test]
fn fig5_covers_every_testbed_protocol() {
    let policy = AdaptivityPolicy::rule_based();
    assert_eq!(TESTBED_PROTOCOLS, ["static", "dimmer-dqn", "pid"]);
    for protocol in TESTBED_PROTOCOLS {
        let summary = fig5_run(protocol, 0.25, &policy, 8, 100);
        assert_eq!(summary.rounds, 8, "{protocol}: all rounds aggregated");
        assert_summary_sane(summary.reliability, protocol);
        assert!(
            summary.radio_on_ms.is_finite() && summary.radio_on_ms > 0.0,
            "{protocol}"
        );
        assert!(summary.mean_ntx >= 1.0, "{protocol}: N_TX stays in range");
    }
}

#[test]
fn fig5_static_protocol_never_adapts() {
    let policy = AdaptivityPolicy::rule_based();
    let summary = fig5_run("static", 0.25, &policy, 6, 11);
    assert!(
        (summary.mean_ntx - 3.0).abs() < 1e-9,
        "static pins N_TX = 3"
    );
}

#[test]
fn fig6_run_tracks_forwarders() {
    let with_fs = fig6_single(30, 3, true);
    let without_fs = fig6_single(30, 3, false);
    assert_eq!(with_fs.len(), 30);
    assert_eq!(without_fs.len(), 30);
    let fwd = mean_forwarders(&with_fs);
    assert!(fwd.is_finite() && fwd > 0.0 && fwd <= 18.0);
    for r in &without_fs {
        assert_eq!(
            r.active_forwarders, 18,
            "reference run keeps everyone forwarding"
        );
    }
}

#[test]
fn fig6_single_variants_match_the_combined_run() {
    // Each cell of the combined Fig. 6 grid is one `fig6_single` run at the
    // cell's derived trial seed, for both variants.
    let opts = RunOptions {
        trials: 1,
        threads: 2,
        seed: 3,
    };
    let combined = fig6_grid(12, None).run(&opts);
    for (cell, (label, selection)) in [("with_selection", true), ("without_selection", false)]
        .into_iter()
        .enumerate()
    {
        let seed = SimRng::derive_seed(opts.seed, &[cell as u64, 0]);
        let reports = fig6_single(12, seed, selection);
        let summary = summarize(&reports);
        let report = combined.cell(label).expect("fig6 cell");
        let mean = |name: &str| report.metric(name).expect(name).mean;
        assert_eq!(mean("reliability"), summary.reliability, "{label}");
        assert_eq!(mean("mean_ntx"), summary.mean_ntx, "{label}");
        assert_eq!(
            mean("mean_forwarders"),
            mean_forwarders(&reports),
            "{label}"
        );
    }
}

#[test]
fn fig5_runs_are_deterministic_per_seed() {
    let policy = AdaptivityPolicy::rule_based();
    for protocol in TESTBED_PROTOCOLS {
        assert_eq!(
            fig5_run(protocol, 0.25, &policy, 6, 11),
            fig5_run(protocol, 0.25, &policy, 6, 11),
            "{protocol}"
        );
    }
}

#[test]
fn fig7_cells_cover_every_scenario_and_protocol() {
    assert_eq!(DCUBE_PROTOCOLS, ["static", "dimmer-dqn", "crystal"]);
    for scenario in Fig7Scenario::ALL {
        for protocol in DCUBE_PROTOCOLS {
            let outcome = fig7_run(protocol, scenario, &AdaptivityPolicy::rule_based(), 6, 300);
            assert_summary_sane(outcome.reliability, protocol);
            assert!(
                outcome.energy_joules.is_finite() && outcome.energy_joules > 0.0,
                "{protocol}: energy must be positive, got {}",
                outcome.energy_joules
            );
        }
    }
}

#[test]
fn dynamics_covers_every_preset_and_protocol() {
    assert_eq!(
        DYNAMICS_PROTOCOLS,
        ["static", "dimmer-dqn", "dimmer-rule", "pid"]
    );
    let policy = AdaptivityPolicy::rule_based();
    for scenario in DYNAMIC_SCENARIOS {
        for protocol in ["static", "dimmer-rule"] {
            let reports = dynamics_run(protocol, scenario, &policy, 12, 5);
            assert_eq!(reports.len(), 12, "{scenario}/{protocol}");
            for r in &reports {
                assert_summary_sane(r.reliability, scenario);
                assert!(
                    r.alive_nodes >= 1 && r.alive_nodes <= 18,
                    "{scenario}/{protocol}: alive {}",
                    r.alive_nodes
                );
            }
        }
    }
}

#[test]
fn dynamics_runs_are_deterministic_per_seed() {
    let policy = AdaptivityPolicy::rule_based();
    assert_eq!(
        dynamics_run("pid", "churn-storm", &policy, 10, 4),
        dynamics_run("pid", "churn-storm", &policy, 10, 4)
    );
}

#[test]
#[should_panic(expected = "unknown dynamic scenario")]
fn dynamics_run_rejects_unknown_scenarios() {
    dynamics_run(
        "static",
        "earthquake",
        &AdaptivityPolicy::rule_based(),
        2,
        1,
    );
}

#[test]
#[should_panic(expected = "unknown protocol")]
fn fig5_run_rejects_unknown_protocols() {
    fig5_run(
        "carrier-pigeon",
        0.25,
        &AdaptivityPolicy::rule_based(),
        2,
        1,
    );
}
