//! The in-sim zoo training pipeline: train one DQN per scenario family on
//! the vectorized farm and write the weights to `crates/core/data/zoo/` so
//! that `dimmer_core::zoo` — and the `dimmer-zoo` protocol — pick them up.
//!
//! ```text
//! cargo run --release --example train_zoo [-- --quick]
//! ```
//!
//! Unlike `train_dqn` (the paper's offline trace pipeline), the zoo trains
//! **against the live simulator**: each family's episodes replay its
//! interference/world preset, and the farm's seed derivation makes the
//! result byte-reproducible for any environment count.

use dimmer_bench::training::{train_family, TRAIN_FAMILIES};
use dimmer_neural::serialize::to_text;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let envs = 8;
    let seed = 42;

    for family in TRAIN_FAMILIES {
        println!(
            "training '{family}' in-sim ({} mode, {envs} rollout workers) ...",
            if quick { "quick" } else { "full" }
        );
        let Some(run) = train_family(family, quick, envs, seed) else {
            println!("  unknown family '{family}', skipping");
            continue;
        };
        println!(
            "  {} episodes, {} transitions, final greedy eval {:.4}",
            run.episodes,
            run.transitions,
            run.final_eval()
        );

        let text = to_text(run.trainer.policy());
        let out_path = std::path::PathBuf::from(format!("crates/core/data/zoo/{family}.txt"));
        match std::fs::write(&out_path, &text) {
            Ok(()) => println!("  wrote weights to {}", out_path.display()),
            Err(e) => {
                println!(
                    "  could not write {} ({e}); printing the weights instead:\n",
                    out_path.display()
                );
                println!("{text}");
            }
        }
    }
    println!("rebuild the workspace to embed the new zoo (include_str! in dimmer-core).");
}
