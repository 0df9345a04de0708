//! The `exp` binary end to end: bad command lines exit 2 before anything
//! runs, and the `--json` report is the catalogue grid's own report, also
//! when `exp` hands the grid the run it simulated for its timeline.

use dimmer_bench::catalogue::{self, Extras};
use dimmer_bench::RunOptions;
use std::path::PathBuf;
use std::process::{Command, Output};

fn exp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp starts")
}

/// Runs `exp <args> --threads 1 --json <file>` and returns its stdout and
/// the report it wrote.
fn exp_json(args: &[&str], file: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(file);
    let path = path.to_str().expect("utf-8 path");
    let mut args = args.to_vec();
    args.extend(["--threads", "1", "--json", path]);
    let out = exp(&args);
    assert!(out.status.success(), "{args:?}: {out:?}");
    let report = std::fs::read_to_string(path).expect("report written");
    (String::from_utf8(out.stdout).expect("utf-8 stdout"), report)
}

/// The report the catalogue entry `name` produces at `quick` scale with
/// its default seed and trials, without any cached run.
fn catalogue_report(name: &str, quick: bool, protocols: &[String]) -> String {
    let grid = catalogue::lookup(name).unwrap();
    let opts = RunOptions {
        trials: grid.trials(quick),
        threads: 1,
        seed: grid.seed(),
    };
    grid.build(quick, protocols, Extras::default())
        .run(&opts)
        .to_json()
}

#[test]
fn bad_command_lines_exit_2_before_running_anything() {
    for (args, message) in [
        (&[][..], "missing grid name"),
        (&["--quick", "fig5"], "expected a grid name before --quick"),
        (&["nope"], "unknown grid 'nope'"),
        (&["fig4b:edges"], "unknown fig4b part 'edges'"),
        (&["fig5", "--scenario", "x"], "unknown option '--scenario'"),
        (&["fig5", "--trails", "2"], "unknown option '--trails'"),
        (&["fig6", "--protocols", "static"], "no protocol axis"),
    ] {
        let out = exp(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
    }
}

#[test]
fn table1_prints_its_layout_and_writes_the_catalogue_report() {
    let (stdout, report) = exp_json(&["table1"], "exp_table1.json");
    assert!(
        stdout.starts_with("table1 — full scale, 1 trials per cell, 1 worker threads, seed 1\n"),
        "{stdout}"
    );
    assert!(stdout.contains("== Table I: input vector of Dimmer's DQN =="));
    for note in catalogue::lookup("table1").unwrap().notes() {
        assert!(stdout.contains(note), "missing note {note:?}");
    }
    assert_eq!(report, catalogue_report("table1", false, &[]));
}

#[test]
fn a_timeline_run_handed_to_the_grid_keeps_the_report_bytes() {
    for (grid, timeline, file) in [
        (
            "dynamics:flash-crowd",
            "== dimmer-dqn @ flash-crowd: per-phase timeline",
            "exp_dynamics.json",
        ),
        (
            "fig4c",
            "== dimmer-dqn: per-minute timeline ==\nminute  reliability   mean NTX  radio-on [ms]\n     0 ",
            "exp_fig4c.json",
        ),
    ] {
        let (stdout, report) = exp_json(&[grid, "--quick", "--protocols", "dimmer-dqn"], file);
        assert!(stdout.contains(timeline), "{stdout}");
        let protocols = vec!["dimmer-dqn".to_string()];
        assert_eq!(report, catalogue_report(grid, true, &protocols));
    }
}
