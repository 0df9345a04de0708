//! Property tests over `exp`'s command line: whatever tokens arrive,
//! `HarnessCli::parse_from_checked` returns a value instead of panicking,
//! refuses any flag given twice, and reads a valid line to exactly its
//! values whatever the order of its flags.

use dimmer_bench::harness::HarnessCli;
use proptest::prelude::*;
use proptest::strategy::any;

/// Every flag `exp` knows.
const FLAGS: [&str; 6] = [
    "--quick",
    "--trials",
    "--threads",
    "--seed",
    "--protocols",
    "--json",
];

/// Tokens of random command lines: the flags, grid names, numbers at and
/// past the edges of `u64`, commas, empty strings and junk.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "--quick", "--trials", "--threads", "--seed", "--protocols", "--json", "fig5", "table1",
    "dynamics:churn-storm", "0", "1", "7", "-1", "18446744073709551615", "18446744073709551616",
    "1e3", "0x10", " 3", ",", ",,", "static,pid", "static, ,pid", "", " ", "-", "--", "---",
    "--trails", "--QUICK", "é", "\u{0}", "out/r.json",
];

/// The drawn values of one valid line: grid, which flags are present,
/// `(trials, threads, seed)`, and `(protocols, json path, flag order)`.
type Line = (
    usize,
    Vec<bool>,
    (u64, u64, u64),
    (Vec<usize>, usize, Vec<u64>),
);

fn line() -> impl Strategy<Value = Line> {
    (
        0usize..3,
        collection::vec(any::<bool>(), FLAGS.len()),
        (1u64..1_000_000, 0u64..=64, any::<u64>()),
        (
            collection::vec(0usize..4, 1..4),
            0usize..3,
            collection::vec(any::<u64>(), FLAGS.len()),
        ),
    )
}

/// The present flags of `line`, each with its value, in the drawn order,
/// and the [`HarnessCli`] the line must parse to.
fn flags_of(line: &Line) -> (Vec<Vec<String>>, HarnessCli) {
    const GRIDS: [&str; 3] = ["fig5", "table1", "dynamics:churn-storm"];
    const NAMES: [&str; 4] = ["static", "pid", "dimmer-dqn", "crystal"];
    const PATHS: [&str; 3] = ["r.json", "out/a b.json", "-"];
    let (grid, present, (trials, threads, seed), (protocols, json, order)) = line;
    let protocols: Vec<String> = protocols.iter().map(|&p| NAMES[p].to_string()).collect();
    let mut want = HarnessCli {
        grid: GRIDS[*grid].to_string(),
        trials: None,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        seed: None,
        json: None,
        quick: false,
        protocols: None,
    };
    let mut slots: Vec<(u64, Vec<String>)> = Vec::new();
    for (k, flag) in FLAGS.into_iter().enumerate().filter(|&(k, _)| present[k]) {
        let value = match flag {
            "--quick" => {
                want.quick = true;
                None
            }
            "--trials" => {
                want.trials = Some(*trials as usize);
                Some(trials.to_string())
            }
            "--threads" => {
                want.threads = (*threads as usize).max(1);
                Some(threads.to_string())
            }
            "--seed" => {
                want.seed = Some(*seed);
                Some(seed.to_string())
            }
            "--protocols" => {
                want.protocols = Some(protocols.clone());
                Some(protocols.join(","))
            }
            _ => {
                want.json = Some(PATHS[*json].into());
                Some(PATHS[*json].to_string())
            }
        };
        slots.push((
            order[k],
            [flag.to_string()].into_iter().chain(value).collect(),
        ));
    }
    slots.sort_by_key(|(key, _)| *key);
    (slots.into_iter().map(|(_, slot)| slot).collect(), want)
}

/// The argument list of `grid` followed by `flags`.
fn args(grid: &str, flags: Vec<Vec<String>>) -> Vec<String> {
    [grid.to_string()]
        .into_iter()
        .chain(flags.into_iter().flatten())
        .collect()
}

proptest! {
    #[test]
    fn parsing_never_panics_and_keeps_its_invariants(
        picks in collection::vec(0usize..TOKENS.len(), 0..12)
    ) {
        let tokens: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
        if let Ok(cli) = HarnessCli::parse_from_checked(tokens.clone()) {
            prop_assert_eq!(&cli.grid, &tokens[0]);
            prop_assert!(!cli.grid.starts_with("--"));
            prop_assert!(cli.threads >= 1);
            prop_assert!(cli.trials.is_none_or(|t| t >= 1));
            prop_assert!(cli.protocols.is_none_or(|p| !p.is_empty()));
        }
    }

    #[test]
    fn a_flag_given_twice_is_refused(
        line in line(),
        flag in 0usize..FLAGS.len(),
        at in (any::<usize>(), any::<usize>()),
        picks in collection::vec(0usize..TOKENS.len(), 0..10),
    ) {
        // A valid line with one more copy of a flag it holds, or two of
        // one it does not, each copy with a valid value.
        let (mut flags, want) = flags_of(&line);
        let copy = match FLAGS[flag] {
            "--quick" => vec!["--quick".to_string()],
            other => vec![other.to_string(), "1".to_string()],
        };
        if !flags.iter().any(|f| f[0] == FLAGS[flag]) {
            flags.insert(at.0 % (flags.len() + 1), copy.clone());
        }
        flags.insert(at.1 % (flags.len() + 1), copy);
        let error = HarnessCli::parse_from_checked(args(&want.grid, flags)).unwrap_err();
        prop_assert!(error.contains(&format!("{} passed more than once", FLAGS[flag])), "{error}");

        // Random tokens with the flag twice anywhere, the first slot too.
        let mut tokens: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
        tokens.insert(at.0 % (tokens.len() + 1), FLAGS[flag].to_string());
        tokens.insert(at.1 % (tokens.len() + 1), FLAGS[flag].to_string());
        prop_assert!(HarnessCli::parse_from_checked(tokens).is_err());
    }

    #[test]
    fn a_valid_line_parses_to_exactly_its_values_in_any_flag_order(line in line()) {
        let (flags, want) = flags_of(&line);
        prop_assert_eq!(HarnessCli::parse_from_checked(args(&want.grid, flags)), Ok(want));
    }
}
